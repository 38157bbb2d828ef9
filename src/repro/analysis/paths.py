"""Causal path reconstruction from recorded traces.

Every diffusion message carries a network-wide stable trace id (see
``Message.trace_id``), which the stack annotates onto ``path.origin``,
``diffusion.tx``, ``diffusion.rx``, ``app.deliver`` and ``path.drop``
records.  This module folds a recorded trace back into per-message
:class:`MessagePath` objects: the hops each copy took (with per-hop
latency), where it was delivered, and — for copies that died — which
layer killed them and why.

This answers the question the paper's authors could only approach with
a second wired monitoring network (Section 7): *why* did a given data
message not arrive, and which path did the ones that arrived take?
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim import TraceRecord

#: message types whose non-delivery the loss table reports
DATA_TYPES = ("DATA", "EXPLORATORY_DATA")


@dataclass
class HopRecord:
    """One radio hop a message copy took: src transmitted, dst received."""

    hop: int                      # 1-based hop index along the path
    src: int
    dst: int
    sent_at: float
    received_at: float

    @property
    def latency(self) -> float:
        return self.received_at - self.sent_at


@dataclass
class DropRecord:
    """One copy of a message dying somewhere in the stack."""

    time: float
    node: int
    reason: str                   # e.g. "collision", "no-route", ...
    layer: str                    # "core" | "mac" | "link" | "radio"


@dataclass
class Delivery:
    """An application-level delivery of the message at a sink."""

    time: float
    node: int
    hops: int


@dataclass
class MessagePath:
    """Everything the trace knows about one message's journey."""

    trace: str
    msg_type: Optional[str] = None
    origin_node: Optional[int] = None
    origin_time: Optional[float] = None
    parent: Optional[str] = None  # trace id of the message that caused this one
    hops: List[HopRecord] = field(init=False, default_factory=list)
    deliveries: List[Delivery] = field(init=False, default_factory=list)
    drops: List[DropRecord] = field(init=False, default_factory=list)
    unmatched_tx: int = 0         # transmissions never heard anywhere

    @property
    def delivered(self) -> bool:
        return bool(self.deliveries)

    @property
    def loss_label(self) -> Optional[str]:
        """Why this message was not delivered (None when it was).

        The label is the reason of the *last* drop on record: copies of
        a flooded message die at many places, and the final drop is the
        moment the last live copy disappeared.  Messages with no drop on
        record (still queued when the run ended, or simply never
        delivered to a matching subscription) are labelled
        ``"in-flight"``.
        """
        if self.delivered:
            return None
        if not self.drops:
            return "in-flight"
        return max(self.drops, key=lambda d: d.time).reason

    def route_to(self, node: int, hops: int) -> List[HopRecord]:
        """The hop chain that carried this message to ``node``.

        Walks backward from the delivery hop: the copy delivered at
        ``node`` with hop count ``h`` arrived over the hop whose
        destination is ``node`` at index ``h``; its source received the
        message over hop ``h - 1``; and so on back to the origin.
        Returns the chain origin-first; empty when the trace lacks the
        records to stitch it (e.g. recording started mid-run).
        """
        by_dst: Dict[Tuple[int, int], HopRecord] = {}
        for hop in self.hops:
            key = (hop.hop, hop.dst)
            # Keep the earliest arrival per (index, dst): later copies of
            # a flooded message reached the same place by slower paths.
            if key not in by_dst or hop.received_at < by_dst[key].received_at:
                by_dst[key] = hop
        chain: List[HopRecord] = []
        current, index = node, hops
        while index > 0:
            hop = by_dst.get((index, current))
            if hop is None:
                break
            chain.append(hop)
            current, index = hop.src, index - 1
        chain.reverse()
        return chain

    def delivery_routes(self) -> List[Tuple[Delivery, List[HopRecord]]]:
        """Each delivery paired with its reconstructed hop chain."""
        return [
            (delivery, self.route_to(delivery.node, delivery.hops))
            for delivery in self.deliveries
        ]


def reconstruct_paths(records: Iterable[TraceRecord]) -> Dict[str, MessagePath]:
    """Fold trace records into per-trace-id :class:`MessagePath` objects.

    Consumes ``path.origin``, ``diffusion.tx``, ``diffusion.rx``,
    ``app.deliver`` and ``path.drop`` records; everything else is
    ignored, so a full ``"*"`` recording works as well as a targeted
    one.  TX and RX records pair up through (trace id, sending node,
    hop index): a reception names its link source, and the forwarded
    copy's hop count ties it to the transmission that carried it.
    """
    paths: Dict[str, MessagePath] = {}
    # (trace, src node, hop index) -> [tx times], FIFO per key.  One
    # broadcast tx may satisfy many receptions, so entries are matched,
    # never consumed.
    pending_tx: Dict[Tuple[str, int, int], List[float]] = defaultdict(list)
    matched_tx: set = set()

    def path_for(trace: str) -> MessagePath:
        path = paths.get(trace)
        if path is None:
            path = MessagePath(trace=trace)
            paths[trace] = path
        return path

    ordered = sorted(records, key=lambda r: r.time)
    for record in ordered:
        trace = record.data.get("trace")
        if not trace:
            continue
        if record.category == "path.origin":
            path = path_for(trace)
            path.msg_type = record.data.get("msg_type")
            path.origin_node = record.node
            path.origin_time = record.time
            path.parent = record.data.get("parent")
        elif record.category == "diffusion.tx":
            hops = record.data.get("hops")
            if record.node is not None and hops is not None:
                path_for(trace)
                pending_tx[(trace, record.node, hops)].append(record.time)
        elif record.category == "diffusion.rx":
            src = record.data.get("src")
            hops = record.data.get("hops")
            if record.node is None or src is None or hops is None:
                continue
            key = (trace, src, hops)
            times = pending_tx.get(key)
            if not times:
                continue
            # The transmission that carried this copy is the latest one
            # from that node at that hop index not after the reception.
            sent_at = None
            for t in reversed(times):
                if t <= record.time:
                    sent_at = t
                    break
            if sent_at is None:
                continue
            matched_tx.add((key, sent_at))
            path_for(trace).hops.append(
                HopRecord(
                    hop=hops,
                    src=src,
                    dst=record.node,
                    sent_at=sent_at,
                    received_at=record.time,
                )
            )
        elif record.category == "app.deliver":
            hops = record.data.get("hops")
            if record.node is not None and hops is not None:
                path_for(trace).deliveries.append(
                    Delivery(time=record.time, node=record.node, hops=hops)
                )
        elif record.category == "path.drop":
            if record.node is not None:
                path_for(trace).drops.append(
                    DropRecord(
                        time=record.time,
                        node=record.node,
                        reason=record.data.get("reason", "unknown"),
                        layer=record.data.get("layer", "unknown"),
                    )
                )

    for (key, times) in pending_tx.items():
        trace = key[0]
        unmatched = sum(1 for t in times if (key, t) not in matched_tx)
        paths[trace].unmatched_tx += unmatched
    return paths


def loss_attribution(paths: Dict[str, MessagePath]) -> Dict[str, int]:
    """Count undelivered data messages by loss label."""
    labels: Counter = Counter()
    for path in paths.values():
        if path.msg_type not in DATA_TYPES:
            continue
        label = path.loss_label
        if label is not None:
            labels[label] += 1
    return dict(labels)


def trace_timeline(
    records: Iterable[TraceRecord], trace: str
) -> List[TraceRecord]:
    """Every record that mentions one trace id, time-ordered."""
    return sorted(
        (r for r in records if r.data.get("trace") == trace),
        key=lambda r: r.time,
    )


# -- text rendering (shared by the CLI and notebooks) -----------------------


def format_route(chain: List[HopRecord]) -> str:
    """``12 -(3.1ms)-> 7 -(2.9ms)-> 28`` style route rendering."""
    if not chain:
        return "(no reconstructable route)"
    parts = [str(chain[0].src)]
    for hop in chain:
        parts.append(f"-({hop.latency * 1000.0:.1f}ms)-> {hop.dst}")
    return " ".join(parts)


def format_path(path: MessagePath) -> str:
    """A multi-line human summary of one message's journey."""
    lines = [
        f"trace {path.trace}  type={path.msg_type or '?'}"
        f"  origin={path.origin_node if path.origin_node is not None else '?'}"
        + (f"  parent={path.parent}" if path.parent else "")
    ]
    if path.deliveries:
        for delivery, chain in path.delivery_routes():
            lines.append(
                f"  delivered at node {delivery.node}"
                f" t={delivery.time:.4f}s after {delivery.hops} hop(s): "
                + format_route(chain)
            )
    else:
        lines.append(f"  NOT delivered: {path.loss_label}")
    # Flooded messages shed dozens of copies; list drops individually
    # only while that stays readable, else fold into per-cause counts.
    if len(path.drops) <= 8:
        for drop in path.drops:
            lines.append(
                f"  drop t={drop.time:.4f}s node={drop.node}"
                f" layer={drop.layer} reason={drop.reason}"
            )
    else:
        by_cause = Counter(
            (drop.layer, drop.reason) for drop in path.drops
        )
        folded = ", ".join(
            f"{layer}/{reason}={count}"
            for (layer, reason), count in sorted(
                by_cause.items(), key=lambda kv: -kv[1]
            )
        )
        lines.append(f"  {len(path.drops)} copies dropped: {folded}")
    if path.unmatched_tx:
        lines.append(f"  {path.unmatched_tx} transmission(s) heard by nobody")
    return "\n".join(lines)


def format_loss_table(attribution: Dict[str, int]) -> str:
    """Render a loss-attribution histogram as an aligned table."""
    if not attribution:
        return "no undelivered data messages"
    width = max(len(reason) for reason in attribution)
    total = sum(attribution.values())
    lines = [f"{'reason'.ljust(width)}  count  share"]
    for reason, count in sorted(attribution.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"{reason.ljust(width)}  {count:5d}  {count / total:6.1%}"
        )
    lines.append(f"{'total'.ljust(width)}  {total:5d}")
    return "\n".join(lines)
