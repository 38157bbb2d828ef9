"""Outside-in span tracer for the traced benchmark child.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
wraps, at run time, the calls *into* each layer of the stack:

* one span per kernel event (``Simulator._dispatch``), labelled by the
  layer its site name belongs to (``channel.rx`` -> radio,
  ``csma.attempt`` -> mac, ...; an unnamed event takes the layer of the
  package its callback was defined in);
* nested spans around each layer's public entry points
  (``Channel.start_transmission``, ``Mac.enqueue``,
  ``FragmentationLayer.on_fragment``, the transport's upcall into
  ``DiffusionNode``, ``MatchIndex.one_way``, ...);
* a span around every callback registered through ``add_filter`` /
  ``subscribe``, labelled by the package that defines the callback
  (``repro.filters`` -> filters, ``repro.dtn`` -> dtn, ...).

A layer's *self time* is its spans' duration minus the part their child
spans cover, so the self times of all layers add up to the traced wall
exactly: ``sim`` keeps the event loop's own cost (run wall minus all
event spans) and the root span, labelled ``testbed``, keeps whatever ran
outside every other span (network assembly, traffic scheduling).

Spans are folded into the per-layer totals as they close — keeping every
span of a 1k-node run (several million) until the end would cost more
host time than the run being measured.  Everything stays in memory;
:meth:`Tracer.report` is read once, when the run has ended.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "sim", "radio", "mac", "link", "naming", "core", "filters", "apps",
    "transfer", "dtn", "hierarchy", "faults", "testbed", "other",
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}

#: kernel event site name (prefix) -> layer.  First match wins.
SITE_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("channel.", "radio"), ("modem.", "radio"), ("shard.move", "radio"),
    ("mobility.", "radio"),
    ("csma.", "mac"), ("tdma.", "mac"), ("dmac.", "mac"),
    ("frag.", "link"),
    ("diffusion.", "core"),
    ("transfer.", "transfer"),
    ("dtn.", "dtn"),
    ("hierarchy.", "hierarchy"),
    ("fault", "faults"),
    ("beacon", "apps"), ("source.tick", "apps"), ("sensor.", "apps"),
)

#: defining package (prefix) -> layer.  Longest match wins.
MODULE_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"), ("repro.radio", "radio"), ("repro.mac", "mac"),
    ("repro.link", "link"), ("repro.naming", "naming"),
    ("repro.core", "core"), ("repro.filters", "filters"),
    ("repro.apps", "apps"), ("repro.transfer", "transfer"),
    ("repro.dtn", "dtn"), ("repro.hierarchy", "hierarchy"),
    ("repro.faults", "faults"), ("repro.testbed", "testbed"),
    # Scenario modules hold the traffic generators (beacon ticks, sink
    # callbacks): application code as far as the stack is concerned.
    ("repro.shard.scenario", "apps"), ("repro.experiments", "apps"),
)


def layer_of_site(name: str) -> str:
    """Layer a named kernel event site belongs to (``other`` if none)."""
    for prefix, layer in SITE_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


def layer_of_module(module: Optional[str], default: str = "other") -> str:
    """Layer of the package ``module`` lives in."""
    best, best_len = default, -1
    if module:
        for prefix, layer in MODULE_PREFIXES:
            if len(prefix) > best_len and (
                module == prefix or module.startswith(prefix + ".")
            ):
                best, best_len = layer, len(prefix)
    return best


class Tracer:
    """Per-layer self-time and call accounting over nested spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: List[float] = [0.0] * len(LAYERS)
        self.calls: List[int] = [0] * len(LAYERS)
        self.events = 0
        self.max_queue_depth = 0
        #: objects built while installed, by class name; their counters
        #: (Channel.carrier_checks, MatchIndex.stats, ...) are read by
        #: :meth:`report`.
        self.instances: Dict[str, List[Any]] = {}
        # One child-time accumulator per open span; [0] is the root.
        self._stack: List[float] = [0.0]
        self._root_started: Optional[float] = None
        self.traced_wall_s = 0.0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------------

    def span(self, func: Callable[..., Any], layer: str) -> Callable[..., Any]:
        """``func`` wrapped in a span charged to ``layer``."""
        index = _INDEX[layer]
        stack, self_s, calls, clock = (
            self._stack, self.self_s, self.calls, self.clock
        )

        @functools.wraps(func)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_s[index] += elapsed - stack.pop()
                calls[index] += 1
                stack[-1] += elapsed

        return spanned

    def start(self) -> None:
        """Open the root span (layer ``testbed``)."""
        self._root_started = self.clock()

    def finish(self) -> None:
        """Close the root span; self times now sum to ``traced_wall_s``."""
        if self._root_started is None:
            raise RuntimeError("Tracer.finish() without start()")
        if len(self._stack) != 1:
            raise RuntimeError("Tracer.finish() with spans still open")
        self.traced_wall_s = self.clock() - self._root_started
        self.self_s[_INDEX["testbed"]] += self.traced_wall_s - self._stack[0]
        self._stack[0] = 0.0
        self._root_started = None

    # -- run-time wrapping ----------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls: type, name: str, layer: str) -> None:
        """Span ``cls.name`` and every subclass override of it."""
        if name in cls.__dict__:
            self._set(cls, name, self.span(cls.__dict__[name], layer))
        for sub in cls.__subclasses__():
            self._wrap_method(sub, name, layer)

    def _wrap_function(self, func: Callable[..., Any], layer: str) -> None:
        """Span a module-level function wherever ``repro`` imported it
        by name (``from repro.naming import fast_two_way_match`` binds
        the original into the importer's globals)."""
        spanned = self.span(func, layer)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, spanned)

    def _wrap_registrations(self, node_cls: type) -> None:
        """Span every callback registered through ``add_filter`` /
        ``subscribe``, labelled by the package that defines it
        (application code by default)."""
        add_filter = node_cls.__dict__["add_filter"]
        subscribe = node_cls.__dict__["subscribe"]
        spanned = self._spanned_callback

        @functools.wraps(add_filter)
        def traced_add_filter(node, attrs, priority, callback, name=""):
            return add_filter(node, attrs, priority, spanned(callback), name=name)

        @functools.wraps(subscribe)
        def traced_subscribe(node, attrs, callback):
            return subscribe(node, attrs, spanned(callback))

        self._set(node_cls, "add_filter", traced_add_filter)
        self._set(node_cls, "subscribe", traced_subscribe)

    def _spanned_callback(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        module = getattr(callback, "__module__", None)
        return self.span(callback, layer_of_module(module, default="apps"))

    def _collect_instances(self, cls: type) -> None:
        bucket = self.instances.setdefault(cls.__name__, [])
        original = cls.__dict__["__init__"]

        @functools.wraps(original)
        def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            bucket.append(obj)

        self._set(cls, "__init__", __init__)

    def _wrap_dispatch(self, simulator_cls: type) -> None:
        """One span per kernel event, charged to the layer of its site."""
        original = simulator_cls.__dict__["_dispatch"]
        dispatch_as = [self.span(original, layer) for layer in LAYERS]
        site_layers: Dict[str, int] = {}
        module_layers: Dict[Optional[str], int] = {}
        tracer = self

        def _dispatch(sim: Any, event: Any) -> None:
            name = event.name
            if name:
                index = site_layers.get(name)
                if index is None:
                    index = site_layers[name] = _INDEX[layer_of_site(name)]
            else:
                module = getattr(event.callback, "__module__", None)
                index = module_layers.get(module)
                if index is None:
                    index = module_layers[module] = _INDEX[
                        layer_of_module(module)
                    ]
            depth = len(sim._heap) + 1
            if depth > tracer.max_queue_depth:
                tracer.max_queue_depth = depth
            tracer.events += 1
            dispatch_as[index](sim, event)

        self._set(simulator_cls, "_dispatch", _dispatch)

    def install(self) -> None:
        """Wrap the stack's layer boundaries.  Call before any network
        is built: components bind some of these methods at construction."""
        if self._patches:
            raise RuntimeError("Tracer already installed")
        from repro.core.api import DiffusionRouting
        from repro.core.node import DiffusionNode
        from repro.filters import SuppressionFilter
        from repro.link.frag import FragmentationLayer
        from repro.mac.base import Mac
        from repro.naming import engine, matching
        from repro.radio.channel import Channel
        from repro.radio.modem import Modem
        from repro.sim.kernel import Simulator

        self._wrap_dispatch(Simulator)
        for name in ("run", "run_window", "step"):
            self._wrap_method(Simulator, name, "sim")
        for name in ("start_transmission", "carrier_busy", "transmission_ended"):
            self._wrap_method(Channel, name, "radio")
        for name in ("transmit_fragment", "deliver"):
            self._wrap_method(Modem, name, "radio")
        self._wrap_method(Mac, "enqueue", "mac")
        for name in ("send_message", "on_fragment"):
            self._wrap_method(FragmentationLayer, name, "link")
        # The transport's deliver_callback upcall: DiffusionNode binds
        # this method into its transport at construction.
        self._wrap_method(DiffusionNode, "_on_network_message", "core")
        for name in ("subscribe", "publish", "send"):
            self._wrap_method(DiffusionRouting, name, "core")
        self._wrap_method(engine.MatchIndex, "one_way", "naming")
        for func in (
            engine.fast_one_way_match, engine.fast_two_way_match,
            matching.one_way_match, matching.one_way_match_segregated,
            matching.two_way_match,
        ):
            self._wrap_function(func, "naming")
        self._wrap_registrations(DiffusionNode)
        for cls in (Channel, engine.MatchIndex, SuppressionFilter):
            self._collect_instances(cls)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def _sum(self, class_name: str, *path: str) -> Optional[float]:
        """Sum of ``obj.a.b`` over collected instances; None when any
        instance no longer exposes it (reported absent, never zero)."""
        total = 0
        for obj in self.instances.get(class_name, []):
            for attr in path:
                obj = getattr(obj, attr, None)
                if obj is None:
                    return None
            total += obj
        return total

    def report(self) -> Dict[str, Any]:
        return {
            "traced_wall_s": self.traced_wall_s,
            "layers": {
                name: {"self_s": self.self_s[i], "calls": self.calls[i]}
                for i, name in enumerate(LAYERS)
            },
            "events": self.events,
            "max_queue_depth": self.max_queue_depth,
            "exposed": {
                "channel.carrier_queries": self._sum("Channel", "carrier_queries"),
                "channel.carrier_checks": self._sum("Channel", "carrier_checks"),
                "index.rebuilds": self._sum("Channel", "index", "rebuilds"),
                "index.memo_hits": self._sum("Channel", "index", "memo_hits"),
                "index.memo_misses": self._sum("Channel", "index", "memo_misses"),
                "match.hits": self._sum("MatchIndex", "stats", "hits"),
                "match.lookups": self._sum("MatchIndex", "stats", "lookups"),
                "filters.suppressed": self._sum("SuppressionFilter", "suppressed"),
            },
        }
