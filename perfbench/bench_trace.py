"""Layer tracing for the benchmark's traced run.

The program under test carries no tracing of its own host time, so this
module wraps the public calls into each ``repro.<layer>`` package from
the outside, for the traced run only, and restores every original on
exit. Each wrapped call (or, for a generator function, each resume of
the generator it returned) is one span: name, layer, start, end, parent
span and run id, kept in memory and written out when the run ends.

A layer's self time is the time inside its spans that no nested wrapped
span covers. Host time spent outside every wrapped call (process steps
the engine resumes directly, for instance) counts toward the innermost
enclosing span, which for a serving run is usually ``Simulator.run``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One public call to wrap: ``owner.attr`` reported as ``layer.fn``.

    ``owner`` is a dotted module path, optionally followed by ``:Class``.
    A module-level function is replaced in every loaded module that
    imported it by name, so call sites that bound it at import see the
    wrapper too.
    """

    owner: str
    attr: str
    layer: str
    fn: str
    generator: bool = False


#: The public calls the per-layer split is built from.
TARGETS: Tuple[Target, ...] = (
    Target("repro.sim.engine:Simulator", "run", "sim", "run"),
    Target("repro.interconnect.topology:Fabric", "path", "interconnect", "path"),
    Target("repro.interconnect.topology:Fabric", "unloaded_latency",
           "interconnect", "unloaded_latency"),
    Target("repro.backends.planner:LegPlanner", "plan", "backends", "plan"),
    Target("repro.backends.base:DRXBackend", "estimate", "backends", "estimate"),
    Target("repro.backends.base:CPUBackend", "estimate", "backends", "estimate"),
    Target("repro.backends.dsa:DSABackend", "estimate", "backends", "estimate"),
    Target("repro.backends.xdma:XDMABackend", "estimate", "backends",
           "estimate"),
    Target("repro.control.controller:ClosedLoopController", "update",
           "control", "update"),
    Target("repro.control.cost:TierCostModel", "bids", "control", "bids"),
    Target("repro.control.placement", "plan_placement", "control", "placement"),
    Target("repro.resilience.brownout:BrownoutController", "update",
           "resilience", "brownout_update"),
    Target("repro.resilience.control:ControlPlane", "admit", "resilience",
           "admit"),
    Target("repro.resilience.control:ControlPlane", "record", "resilience",
           "record"),
    Target("repro.resilience.invariants", "verify_artifact_path",
           "resilience", "verify"),
    Target("repro.serve.frontend:ServingFrontend", "run", "serve", "run"),
    Target("repro.serve.slo:P2Quantile", "add", "serve", "p2_add"),
    Target("repro.serve.slo:LatencyTracker", "add", "serve", "latency_add"),
    Target("repro.telemetry.spans:SpanTracker", "begin", "telemetry", "begin"),
    Target("repro.telemetry.spans:SpanTracker", "end", "telemetry", "end"),
    Target("repro.telemetry.alerts", "observe_run", "telemetry",
           "observe_run"),
    Target("repro.telemetry.artifact", "write_artifact", "telemetry",
           "write_artifact"),
    Target("repro.core.system:DMXSystem", "__init__", "core", "init"),
    Target("repro.core.system:DMXSystem", "run_latency", "core",
           "run_latency"),
    Target("repro.core.system:DMXSystem", "run_throughput", "core",
           "run_throughput"),
    Target("repro.core.system:DMXSystem", "submit", "core", "submit",
           generator=True),
    Target("repro.core.system:DMXSystem", "submit_batch", "core",
           "submit_batch", generator=True),
    Target("repro.core.system:DMXSystem", "migrate_app", "core",
           "migrate_app"),
    Target("repro.cpu.host:HostCPU", "parallel_time", "cpu", "parallel_time"),
    Target("repro.drx.microarch:DRXTimingModel", "time_for_profile", "drx",
           "time_for_profile"),
    Target("repro.drx.microarch:DRXTimingModel", "time_for_profile_batch",
           "drx", "time_for_profile_batch"),
    Target("repro.energy.models:EnergyModel", "evaluate_system", "energy",
           "evaluate_system"),
    Target("repro.workloads", "build_benchmark_chains", "workloads",
           "build_benchmark_chains"),
)

#: Layers that report ``<layer>.self_s``.
LAYERS: Tuple[str, ...] = (
    "sim", "interconnect", "backends", "control", "resilience", "serve",
    "telemetry", "core", "cpu", "drx", "energy", "workloads", "eval",
)


class Tracer:
    """Span recorder and the wrappers that feed it.

    Use as a context manager: entering installs every wrapper, leaving
    restores every original. :meth:`span` times a block of the
    benchmark's own code (a figure driver, say) as a span of a layer.
    """

    def __init__(self, run_id: int = 0):
        #: Written on every span: the replica the spans belong to.
        self.run_id = run_id
        self._next_id = 0
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: (span id, name id, start, end, parent id or -1, run id)
        self.spans: List[Tuple[int, int, float, float, int, int]] = []
        #: [span id, time covered by child spans] per open span.
        self._stack: List[List[float]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.sim_events = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self) -> Tuple[int, int, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = int(self._stack[-1][0]) if self._stack else -1
        self._stack.append([span_id, 0.0])
        return span_id, parent, _clock()

    def _close(self, layer: str, key: str, nid: int, span_id: int,
               parent: int, start: float) -> None:
        end = _clock()
        child = self._stack.pop()[1]
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.inclusive[key] += duration
        self.self_s[layer] += duration - child
        self.spans.append((span_id, nid, start, end, parent, self.run_id))

    def span(self, layer: str, fn: str) -> "_Block":
        """A ``with`` block timed as one ``layer.fn`` call."""
        return _Block(self, layer, fn)

    # -- wrappers --------------------------------------------------------

    def _wrap_call(self, original: Callable, layer: str, fn: str) -> Callable:
        key = f"{layer}.{fn}"
        nid = self._name_id(key)
        calls = self.calls
        tracer = self

        def traced(*args, **kwargs):
            calls[key] += 1
            span_id, parent, start = tracer._open()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(layer, key, nid, span_id, parent, start)

        traced.__wrapped__ = original
        return traced

    def _wrap_generator(self, original: Callable, layer: str,
                        fn: str) -> Callable:
        key = f"{layer}.{fn}"
        nid = self._name_id(key)
        calls = self.calls
        tracer = self

        def drive(gen):
            # ``yield from`` with every resume of ``gen`` timed as a span.
            value: object = None
            thrown: Optional[BaseException] = None
            while True:
                span_id, parent, start = tracer._open()
                try:
                    if thrown is None:
                        yielded = gen.send(value)
                    else:
                        yielded = gen.throw(thrown)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer._close(layer, key, nid, span_id, parent, start)
                try:
                    value = yield yielded
                    thrown = None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into ``gen``
                    value, thrown = None, exc

        def traced(*args, **kwargs):
            calls[key] += 1
            return drive(original(*args, **kwargs))

        traced.__wrapped__ = original
        return traced

    def _wrap_sim_run(self, original: Callable) -> Callable:
        traced = self._wrap_call(original, "sim", "run")
        tracer = self

        def run(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return traced(sim, *args, **kwargs)
            finally:
                tracer.sim_events += sim.events_processed - before

        run.__wrapped__ = original
        return run

    # -- install / restore ----------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        import importlib

        for target in TARGETS:
            module_name, _, cls_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(module, cls_name)
                original = owner.__dict__[target.attr]
                if target.layer == "sim" and target.fn == "run":
                    wrapped = self._wrap_sim_run(original)
                elif target.generator:
                    wrapped = self._wrap_generator(
                        original, target.layer, target.fn
                    )
                else:
                    wrapped = self._wrap_call(
                        original, target.layer, target.fn
                    )
                self._patch(owner, target.attr, wrapped)
                continue
            original = getattr(module, target.attr)
            wrapped = self._wrap_call(original, target.layer, target.fn)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if namespace and namespace.get(target.attr) is original:
                    self._patch(loaded, target.attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """``<layer>.<fn>_calls`` / ``_s`` for every target and
        ``<layer>.self_s`` for every layer; zero where nothing ran."""
        out: Dict[str, float] = {}
        for target in TARGETS:
            key = f"{target.layer}.{target.fn}"
            out[f"{key}_calls"] = self.calls.get(key, 0)
            out[f"{key}_s"] = self.inclusive.get(key, 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        return out

    def write(self, path: str) -> None:
        """Write every recorded span as JSON lines (one header line)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "layer", "start",
                                            "end", "parent", "run"]}))
            fh.write("\n")
            for span_id, nid, start, end, parent, run in self.spans:
                name = self._names[nid]
                fh.write(json.dumps([span_id, name, name.split(".", 1)[0],
                                     start, end, parent, run]))
                fh.write("\n")


class _Block:
    def __init__(self, tracer: Tracer, layer: str, fn: str):
        self.tracer = tracer
        self.layer = layer
        self.key = f"{layer}.{fn}"
        self.nid = tracer._name_id(self.key)

    def __enter__(self) -> None:
        self.tracer.calls[self.key] += 1
        self.opened = self.tracer._open()

    def __exit__(self, *exc) -> None:
        span_id, parent, start = self.opened
        self.tracer._close(self.layer, self.key, self.nid, span_id, parent,
                           start)
