"""FaultPlan: a declarative, schedulable description of what goes wrong.

The paper motivates diffusion's soft state with "node failure, energy
depletion, or mobility"; a *plan* makes those events first-class
experiment inputs instead of hand-rolled scripts.  A plan is a sequence
of typed fault actions, each pinned to simulation time:

* :class:`NodeCrash` — kill a node; optionally reboot it later, with
  the reboot wiping soft state (gradients, cache, reassembly buffers)
  the way a real power cycle would;
* :class:`LinkFlap` — force one link dead for a window, optionally
  repeating (flapping);
* :class:`Partition` — cut every link between node groups, then heal;
* :class:`ClockSkew` — step/skew a node's local clock;
* :class:`FragmentCorruption` — corrupt inbound fragments at a node
  (truncation/CRC failure at the link layer) with a given probability;
* :class:`EnergyBrownout` — degrade a node to a forced duty cycle, as a
  browning-out battery would.

Plans are plain frozen dataclasses: hashable, comparable, and
round-trippable through JSON (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`), so a campaign trial or a CLI run can
carry its fault schedule as data.  Validation is separate from
construction — :meth:`FaultPlan.validate` needs the network's node ids.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar, Dict, Iterable, List, Optional, Tuple, Type, Union


class PlanError(ValueError):
    """A fault plan that cannot be executed as written."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PlanError(message)


@dataclass(frozen=True)
class NodeCrash:
    """Kill ``node`` at ``at``; optionally reboot it at ``recover_at``.

    ``clear_state`` chooses reboot semantics: True (default) wipes the
    node's soft state — gradients, duplicate cache, partial reassembly —
    so repair must come from exploratory traffic; False re-attaches the
    radio with pre-crash state intact (the legacy recovery model).
    """

    kind: ClassVar[str] = "node-crash"

    node: int
    at: float
    recover_at: Optional[float] = None
    clear_state: bool = True

    def validate(self, node_ids: Iterable[int]) -> None:
        _require(self.node in set(node_ids), f"unknown node {self.node}")
        _require(self.at >= 0.0, "crash time must be non-negative")
        if self.recover_at is not None:
            _require(
                self.recover_at > self.at,
                f"recovery at {self.recover_at} must follow crash at {self.at}",
            )

    def window(self) -> Tuple[float, Optional[float]]:
        return self.at, self.recover_at


@dataclass(frozen=True)
class LinkFlap:
    """Force the ``a``–``b`` link dead for ``down`` seconds, ``flaps``
    times, ``period`` seconds apart (default: back up as long as down).
    Both directions are cut."""

    kind: ClassVar[str] = "link-flap"

    a: int
    b: int
    at: float
    down: float = 10.0
    flaps: int = 1
    period: Optional[float] = None

    def validate(self, node_ids: Iterable[int]) -> None:
        known = set(node_ids)
        _require(self.a in known, f"unknown node {self.a}")
        _require(self.b in known, f"unknown node {self.b}")
        _require(self.a != self.b, "a link needs two distinct endpoints")
        _require(self.at >= 0.0, "flap time must be non-negative")
        _require(self.down > 0.0, "down duration must be positive")
        _require(self.flaps >= 1, "flaps must be >= 1")
        if self.flaps > 1:
            _require(
                self.effective_period > self.down,
                "flap period must exceed the down window",
            )

    @property
    def effective_period(self) -> float:
        return self.period if self.period is not None else 2.0 * self.down

    def window(self) -> Tuple[float, Optional[float]]:
        last_down = self.at + (self.flaps - 1) * self.effective_period
        return self.at, last_down + self.down


@dataclass(frozen=True)
class Partition:
    """Cut every link between the given node groups from ``at`` to
    ``heal_at``.  Nodes not listed in any group keep all their links
    (they straddle the partition — e.g. a mobile node)."""

    kind: ClassVar[str] = "partition"

    groups: Tuple[Tuple[int, ...], ...]
    at: float
    heal_at: float

    def validate(self, node_ids: Iterable[int]) -> None:
        known = set(node_ids)
        _require(len(self.groups) >= 2, "a partition needs at least two groups")
        seen: set = set()
        for group in self.groups:
            _require(len(group) >= 1, "partition groups must be non-empty")
            for node in group:
                _require(node in known, f"unknown node {node}")
                _require(node not in seen, f"node {node} appears in two groups")
                seen.add(node)
        _require(self.at >= 0.0, "partition time must be non-negative")
        _require(
            self.heal_at > self.at,
            f"heal at {self.heal_at} must follow partition at {self.at}",
        )

    def window(self) -> Tuple[float, Optional[float]]:
        return self.at, self.heal_at


@dataclass(frozen=True)
class ClockSkew:
    """Step ``node``'s local clock by ``offset`` seconds and/or add
    ``drift_ppm`` of frequency error at ``at`` (a crystal glitch, a
    temperature step, a bad battery)."""

    kind: ClassVar[str] = "clock-skew"

    node: int
    at: float
    offset: float = 0.0
    drift_ppm: float = 0.0

    def validate(self, node_ids: Iterable[int]) -> None:
        _require(self.node in set(node_ids), f"unknown node {self.node}")
        _require(self.at >= 0.0, "skew time must be non-negative")
        _require(
            self.offset != 0.0 or self.drift_ppm != 0.0,
            "clock skew must change offset or drift",
        )

    def window(self) -> Tuple[float, Optional[float]]:
        return self.at, self.at


@dataclass(frozen=True)
class FragmentCorruption:
    """Corrupt inbound fragments at ``node`` with probability ``rate``
    during [``at``, ``at + duration``) — truncation or CRC failure at
    the link layer; a corrupted fragment never reaches reassembly, so
    one hit loses its whole message (no ARQ)."""

    kind: ClassVar[str] = "fragment-corruption"

    node: int
    at: float
    duration: float
    rate: float = 0.5

    def validate(self, node_ids: Iterable[int]) -> None:
        _require(self.node in set(node_ids), f"unknown node {self.node}")
        _require(self.at >= 0.0, "corruption time must be non-negative")
        _require(self.duration > 0.0, "corruption duration must be positive")
        _require(0.0 < self.rate <= 1.0, "corruption rate must be in (0, 1]")

    def window(self) -> Tuple[float, Optional[float]]:
        return self.at, self.at + self.duration


@dataclass(frozen=True)
class EnergyBrownout:
    """Force ``node`` onto an emergency ``duty_cycle`` during
    [``at``, ``at + duration``): the radio sleeps for the first
    ``(1 - duty_cycle)`` of every ``period`` and transmissions defer to
    the awake slice, as a browning-out node's power manager would."""

    kind: ClassVar[str] = "energy-brownout"

    node: int
    at: float
    duration: float
    duty_cycle: float = 0.2
    period: float = 1.0

    def validate(self, node_ids: Iterable[int]) -> None:
        _require(self.node in set(node_ids), f"unknown node {self.node}")
        _require(self.at >= 0.0, "brownout time must be non-negative")
        _require(self.duration > 0.0, "brownout duration must be positive")
        _require(0.0 < self.duty_cycle < 1.0, "duty_cycle must be in (0, 1)")
        _require(self.period > 0.0, "period must be positive")

    def window(self) -> Tuple[float, Optional[float]]:
        return self.at, self.at + self.duration


FaultAction = Union[
    NodeCrash,
    LinkFlap,
    Partition,
    ClockSkew,
    FragmentCorruption,
    EnergyBrownout,
]

ACTION_KINDS: Dict[str, Type] = {
    cls.kind: cls
    for cls in (
        NodeCrash,
        LinkFlap,
        Partition,
        ClockSkew,
        FragmentCorruption,
        EnergyBrownout,
    )
}

#: actions that alter link reachability and therefore need the
#: propagation overlay installed (see :mod:`repro.faults.overlay`).
LINK_ACTIONS = (LinkFlap, Partition)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault actions."""

    actions: Tuple[FaultAction, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Accept any iterable of actions at construction.
        object.__setattr__(self, "actions", tuple(self.actions))

    def __len__(self) -> int:
        return len(self.actions)

    def validate(self, node_ids: Iterable[int]) -> "FaultPlan":
        """Check every action against the network; returns self."""
        known = list(node_ids)
        for index, action in enumerate(self.actions):
            try:
                action.validate(known)
            except PlanError as exc:
                raise PlanError(f"action {index} ({action.kind}): {exc}") from None
        return self

    def needs_overlay(self) -> bool:
        return any(isinstance(action, LINK_ACTIONS) for action in self.actions)

    def horizon(self) -> float:
        """The latest time any action touches — a lower bound on how
        long a run must last to see every fault complete."""
        latest = 0.0
        for action in self.actions:
            start, end = action.window()
            latest = max(latest, end if end is not None else start)
        return latest

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        payload = []
        for action in self.actions:
            entry = {"kind": action.kind}
            entry.update(asdict(action))
            payload.append(entry)
        return {"actions": payload}

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        raw_actions = data.get("actions") if isinstance(data, dict) else None
        if not isinstance(raw_actions, list):
            raise PlanError("plan JSON must have an 'actions' list")
        actions: List[FaultAction] = []
        for index, raw in enumerate(raw_actions):
            if not isinstance(raw, dict) or "kind" not in raw:
                raise PlanError(f"action {index} must be an object with a 'kind'")
            kind = raw["kind"]
            action_cls = ACTION_KINDS.get(kind)
            if action_cls is None:
                known = ", ".join(sorted(ACTION_KINDS))
                raise PlanError(f"action {index}: unknown kind {kind!r} (known: {known})")
            known_fields = {f.name for f in fields(action_cls)}
            kwargs = {}
            for key, value in raw.items():
                if key == "kind":
                    continue
                if key not in known_fields:
                    raise PlanError(f"action {index} ({kind}): unknown field {key!r}")
                kwargs[key] = value
            if action_cls is Partition and "groups" in kwargs:
                kwargs["groups"] = tuple(tuple(group) for group in kwargs["groups"])
            try:
                actions.append(action_cls(**kwargs))
            except TypeError as exc:
                raise PlanError(f"action {index} ({kind}): {exc}") from None
        return cls(actions=tuple(actions))
