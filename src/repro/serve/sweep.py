"""SLO-percentile load sweeps: latency-vs-offered-load knee curves.

:func:`run_sweep` runs a grid of offered loads for each system
:class:`~repro.core.placement.Mode`, driving a fresh
:class:`~repro.core.system.DMXSystem` through a
:class:`~repro.serve.frontend.ServingFrontend` at every point, and
collects one :class:`SweepPoint` (p50/p95/p99, goodput, shed/violation
counts) per (mode, load). The resulting :class:`SweepResult` answers the
serving question the batch drivers cannot: *how much offered load does
each placement sustain before its tail latency crosses the SLO?* — the
knee the paper's CPU-restructuring baseline hits well before DMX.

Sweeps are deterministic end to end: chains are rebuilt identically per
point, every frontend reuses the same seed, and the DES replays exactly,
so two sweeps with equal configs serialize to byte-identical JSON
(:meth:`SweepResult.to_json`). A :class:`~repro.faults.FaultPlan` may be
armed to sweep a system with the recovery plane active.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..core.chain import AppChain
from ..core.placement import Mode, SystemConfig
from ..core.system import DMXSystem
from ..faults import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.planner import PlannerConfig
    from ..telemetry.alerts import ObservationConfig
    from ..telemetry.sampling import SamplingConfig
from .batching import BatchingConfig
from .frontend import Discipline, FrontendConfig, ShedPolicy
from .scenario import Scenario, run_scenario
from .slo import ServeResult

__all__ = ["SweepConfig", "SweepPoint", "SweepResult", "run_sweep",
           "run_sweep_point", "calibrate_peak_rps", "unloaded_latency"]


@dataclass(frozen=True)
class SweepConfig:
    """One load-sweep experiment.

    ``offered_loads_rps`` is the *aggregate* offered load per point,
    split evenly across ``n_tenants`` tenant chains. Chains come from
    the named benchmark unless ``chain_factory`` is given (it must
    return identically-built chains on every call — determinism rides
    on it). ``faults`` arms the recovery plane for every point.

    ``artifact_dir`` writes each grid point's telemetry out as a
    JSON-lines run artifact plus a Chrome-trace/Perfetto export
    (``<mode>-pt<index>.jsonl`` / ``.trace.json``) — deterministic
    filenames, byte-identical contents across equal-seed sweeps.

    ``batching`` arms batch formation at every grid point (None keeps
    the exact per-request dispatch path) — the on/off comparison the
    batching knee benchmark sweeps.
    """

    offered_loads_rps: Tuple[float, ...]
    benchmark: str = "sound-detection"
    n_tenants: int = 2
    modes: Tuple[Mode, ...] = (Mode.MULTI_AXL, Mode.BUMP_IN_WIRE)
    requests_per_tenant: int = 32
    arrival_kind: str = "poisson"
    seed: int = 0
    slo_s: float = 50e-3
    max_inflight: int = 8
    queue_capacity: int = 256
    shed: ShedPolicy = ShedPolicy.QUEUE
    discipline: Discipline = Discipline.FCFS
    sample_period_s: Optional[float] = 1e-3
    faults: Optional[FaultPlan] = None
    chain_factory: Optional[Callable[[], List[AppChain]]] = None
    artifact_dir: Optional[str] = None
    batching: Optional[BatchingConfig] = None
    #: Arms the cost-based per-leg backend planner at every grid point
    #: (None keeps the classic DRX-with-CPU-fallback routing).
    backends: Optional["PlannerConfig"] = None
    #: Arms the SLO observation plane at every grid point: rollup/alert
    #: sections land in each point's artifact and ``ServeResult``. Post
    #: hoc — sweep points and artifact span/metric bytes are unchanged.
    observation: Optional["ObservationConfig"] = None
    #: Trace sampling for written artifacts (None writes every trace).
    sampling: Optional["SamplingConfig"] = None
    #: Base system config for every grid point (the swept mode is
    #: substituted in). Lets a sweep inject hardware deltas — e.g. a
    #: derated DRX — for differential-diagnosis experiments.
    system: Optional[SystemConfig] = None

    def __post_init__(self) -> None:
        if not self.offered_loads_rps:
            raise ValueError("need at least one offered load")
        if any(load <= 0 for load in self.offered_loads_rps):
            raise ValueError("offered loads must be positive")
        if list(self.offered_loads_rps) != sorted(self.offered_loads_rps):
            raise ValueError("offered loads must be ascending")
        if not self.modes:
            raise ValueError("need at least one mode")
        self.scenario(self.modes[0], 0)  # checks the per-point inputs

    def scenario(self, mode: Mode, point_index: int) -> Scenario:
        """The (mode, offered load) grid point as one serving run."""
        base = self.system if self.system is not None else SystemConfig()
        return Scenario(
            offered_rps=self.offered_loads_rps[point_index],
            arrival_kind=self.arrival_kind,
            requests_per_tenant=self.requests_per_tenant,
            queue_capacity=self.queue_capacity,
            benchmark=self.benchmark,
            n_tenants=self.n_tenants,
            chain_factory=self.chain_factory,
            system=replace(base, mode=mode),
            faults=self.faults,
            backends=self.backends,
            frontend=FrontendConfig(
                max_inflight=self.max_inflight,
                shed=self.shed,
                discipline=self.discipline,
                slo_s=self.slo_s,
                sample_period_s=self.sample_period_s,
                batching=self.batching,
                observation=self.observation,
            ),
            seed=self.seed,
        )


@dataclass(frozen=True)
class SweepPoint:
    """One (mode, offered load) grid point's serving outcome."""

    mode: str
    offered_rps: float
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    mean_queue_wait_s: float
    goodput_rps: float
    completed: int
    shed: int
    violations: int
    failed: int
    max_queue_depth: int
    elapsed_s: float

    def within_slo(self, slo_s: float) -> bool:
        """True when the point's p99 meets the latency target."""
        return self.p99_s <= slo_s


@dataclass
class SweepResult:
    """All grid points of one sweep, with knee-curve queries."""

    slo_s: float
    seed: int
    points: List[SweepPoint] = field(default_factory=list)

    def modes(self) -> List[str]:
        seen: List[str] = []
        for point in self.points:
            if point.mode not in seen:
                seen.append(point.mode)
        return seen

    def for_mode(self, mode: "Mode | str") -> List[SweepPoint]:
        """The mode's points, in ascending offered-load order."""
        key = mode.value if isinstance(mode, Mode) else mode
        return sorted(
            (p for p in self.points if p.mode == key),
            key=lambda p: p.offered_rps,
        )

    def p99_curve(self, mode: "Mode | str") -> List[Tuple[float, float]]:
        """(offered load, p99 latency) pairs — the knee curve."""
        return [(p.offered_rps, p.p99_s) for p in self.for_mode(mode)]

    def knee_rps(self, mode: "Mode | str") -> float:
        """Highest offered load sustained before the first SLO violation.

        Scans the mode's curve in ascending load order and returns the
        last load whose p99 met the SLO *before* the first violating
        point; 0.0 when even the lightest load violates.
        """
        sustained = 0.0
        for point in self.for_mode(mode):
            if not point.within_slo(self.slo_s):
                break
            sustained = point.offered_rps
        return sustained

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo_s": self.slo_s,
            "seed": self.seed,
            "points": [
                {
                    "mode": p.mode,
                    "offered_rps": p.offered_rps,
                    "p50_s": p.p50_s,
                    "p95_s": p.p95_s,
                    "p99_s": p.p99_s,
                    "mean_s": p.mean_s,
                    "mean_queue_wait_s": p.mean_queue_wait_s,
                    "goodput_rps": p.goodput_rps,
                    "completed": p.completed,
                    "shed": p.shed,
                    "violations": p.violations,
                    "failed": p.failed,
                    "max_queue_depth": p.max_queue_depth,
                    "elapsed_s": p.elapsed_s,
                }
                for p in self.points
            ],
        }

    def to_json(self) -> str:
        """Canonical serialization — byte-identical across equal runs."""
        return json.dumps(self.to_dict(), sort_keys=True)


def _point(mode: Mode, offered_rps: float, result: ServeResult) -> SweepPoint:
    has_latency = result.latency.count > 0
    queue_wait = [
        t.queue_wait for t in result.tenants.values() if t.queue_wait.count
    ]
    total_wait = sum(t.total for t in queue_wait)
    total_count = sum(t.count for t in queue_wait)
    violations = sum(result.per_tenant_slo_violations().values())
    return SweepPoint(
        mode=mode.value,
        offered_rps=offered_rps,
        p50_s=result.percentile(0.50) if has_latency else 0.0,
        p95_s=result.percentile(0.95) if has_latency else 0.0,
        p99_s=result.percentile(0.99) if has_latency else 0.0,
        mean_s=result.latency.mean() if has_latency else 0.0,
        mean_queue_wait_s=total_wait / total_count if total_count else 0.0,
        goodput_rps=result.goodput_rps(),
        completed=result.completed,
        shed=result.shed,
        violations=violations,
        failed=result.failed,
        max_queue_depth=result.max_queue_depth(),
        elapsed_s=result.elapsed,
    )


def run_sweep_point(
    config: SweepConfig, mode: Mode, point_index: int
) -> SweepPoint:
    """Run one (mode, offered load) grid point of ``config``.

    The unit of work sharded sweep execution distributes
    (:mod:`repro.eval.orchestrator`); :func:`run_sweep` is exactly this
    over the whole grid, so a point computed here is byte-identical to
    the same point inside a full sweep. With ``artifact_dir`` set, the
    point's run artifact is joined by a Chrome-trace/Perfetto export.
    """
    scenario = config.scenario(mode, point_index)
    if config.artifact_dir is None:
        result = run_scenario(scenario).result
    else:
        stem = os.path.join(
            config.artifact_dir, f"{mode.value}-pt{point_index}"
        )
        result = run_scenario(
            scenario, f"{stem}.jsonl",
            meta={"benchmark": config.benchmark}, sampling=config.sampling,
        ).result
        from ..telemetry import write_chrome_trace

        write_chrome_trace(
            f"{stem}.trace.json", result.telemetry,
            rollups=result.rollups, alerts=result.alerts,
        )
    return _point(mode, scenario.offered_rps, result)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full (mode x offered load) grid of one sweep."""
    sweep = SweepResult(slo_s=config.slo_s, seed=config.seed)
    for mode in config.modes:
        for point_index in range(len(config.offered_loads_rps)):
            sweep.points.append(run_sweep_point(config, mode, point_index))
    return sweep


# -- calibration helpers -------------------------------------------------------


def calibrate_peak_rps(config: SweepConfig, mode: Mode) -> float:
    """The mode's drain rate on a fixed backlog (batch-issue throughput).

    An upper bound on the sustainable online load; sweep drivers use it
    to place their offered-load grid around the knee.
    """
    chains = config.scenario(mode, 0).build_chains()
    system = DMXSystem(chains, SystemConfig(mode=mode))
    return system.run_throughput(requests_per_app=8).throughput()


def unloaded_latency(config: SweepConfig, mode: Mode) -> float:
    """Mean end-to-end latency with a single closed-loop client per
    tenant — the no-queueing service-latency floor SLOs are set from."""
    chains = config.scenario(mode, 0).build_chains()
    system = DMXSystem(chains, SystemConfig(mode=mode))
    return system.run_latency(requests_per_app=2).mean_latency()
