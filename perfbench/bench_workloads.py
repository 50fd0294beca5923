"""The benchmark's three workloads.

Each workload is set up once per process (chain templates, DRX compile,
peak calibration) and then runs *replicas*: one replica is one unit of
timed work, built from fresh system objects. A replica is identified by
the run's ``--seed`` and its index ``j``; the pair seeds every random
input the replica generates (arrivals, fault plan, crash instant), and
the program sees only those generated inputs.

A replica returns its simulated statistics as a canonical string whose
SHA-256 is compared with the recorded reference and with replays of the
same replica, plus the counters the per-layer report reads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends import PlannerConfig
from repro.control import ControllerConfig
from repro.core import DMXSystem, Mode, SystemConfig
from repro.eval import experiments
from repro.faults import CrashPlan, DomainCrash, FaultPlan, FaultPolicy
from repro.resilience import ResilienceConfig, verify_artifact_path
from repro.resilience.brownout import BrownoutConfig
from repro.serve import (
    Discipline,
    FrontendConfig,
    PoissonArrivals,
    RampArrivals,
    ServingFrontend,
    ShedPolicy,
    SweepConfig,
    TenantSpec,
    calibrate_peak_rps,
    unloaded_latency,
)
from repro.serve.batching import BatchingConfig
from repro.telemetry import write_artifact
from repro.telemetry.alerts import ObservationConfig
from repro.workloads import benchmark_names, build_benchmark_chains

#: Paper values of the six headline endpoints (EXPERIMENTS.md).
PAPER_ENDPOINTS = {
    ("fig11", 1): 3.5, ("fig11", 15): 8.2,
    ("fig13", 1): 3.0, ("fig13", 15): 13.6,
    ("fig15", 1): 3.8, ("fig15", 15): 6.5,
}

FIGURE_DRIVERS = (
    "table1_benchmarks",
    "fig3a_runtime_breakdown",
    "fig3b_motivation_speedup",
    "fig5_topdown",
    "fig11_speedup",
    "fig12_breakdown",
    "fig13_throughput",
    "fig14_placement_speedup",
    "fig15_placement_energy",
    "fig16_ner_extension",
    "fig17_collectives",
    "fig18_lane_sweep",
    "fig19_pcie_generations",
)

BACKEND_KINDS = ("drx", "cpu", "dsa", "xdma")
ACTION_KINDS = ("weight", "tier", "scale_up", "scale_down", "migration")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(n: int) -> float:
    """0.99 with at least 1000 samples; otherwise the highest whole
    percentile that leaves at least ten samples beyond it."""
    if n >= 1000:
        return 0.99
    return max(0.5, math.floor(100 * (1 - 10 / n)) / 100) if n else 0.5


@dataclass
class Replica:
    """What one replica produced."""

    stats: str
    requests: int
    latencies: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific per-replica detail the summary pools.
    detail: object = None

    @property
    def digest(self) -> str:
        return digest(self.stats)


def _rng(workload: str, seed: int, j: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{j}")


class Workload:
    name = ""
    #: Replicas whose statistics make up a run's simulated metrics.
    replicas = 1

    def setup(self) -> None:
        raise NotImplementedError

    def replica(self, seed: int, j: int, tracer=None,
                workdir: str = ".") -> Replica:
        raise NotImplementedError

    def arrival_fingerprint(self, seed: int) -> Optional[Tuple[float, ...]]:
        """The first generated inter-arrival gaps of replica 0, or None
        when the workload has no seeded inputs."""
        return None

    def summarize(self, reps: List[Replica]) -> Dict[str, float]:
        """Simulated metrics over the run's replicas."""
        raise NotImplementedError


# -- paper_figs ---------------------------------------------------------------


@contextmanager
def _observe_runs(sink: list):
    """Record (requests completed, bytes moved) of every
    ``run_latency`` / ``run_throughput`` call."""
    originals = DMXSystem.run_latency, DMXSystem.run_throughput

    def observed(original):
        def run(system, *args, **kwargs):
            result = original(system, *args, **kwargs)
            sink.append((len(result.records), system.bytes_moved()))
            return result

        return run

    DMXSystem.run_latency, DMXSystem.run_throughput = map(observed, originals)
    try:
        yield
    finally:
        DMXSystem.run_latency, DMXSystem.run_throughput = originals


class PaperFigs(Workload):
    """Every figure driver once per replica; closed loop, no seeded
    inputs."""

    name = "paper_figs"
    replicas = 1

    def setup(self) -> None:
        for name in benchmark_names() + ["pii-ner"]:
            build_benchmark_chains(name, 1)

    def replica(self, seed: int, j: int, tracer=None,
                workdir: str = ".") -> Replica:
        results = {}
        runs: list = []
        with _observe_runs(runs):
            for name in FIGURE_DRIVERS:
                block = tracer.span("eval", name) if tracer else nullcontext()
                with block:
                    results[name] = getattr(experiments, name)()
        stats = repr(results)
        problems = []
        if " at 0x" in stats:
            problems.append("driver output carries object addresses")
        requests = sum(n for n, _ in runs)
        fig11 = results["fig11_speedup"]
        fig13 = results["fig13_throughput"]
        fig15 = results["fig15_placement_energy"]
        measured = {
            ("fig11", 1): fig11.geomean(1), ("fig11", 15): fig11.geomean(15),
            ("fig13", 1): fig13.geomean(1), ("fig13", 15): fig13.geomean(15),
        }
        for level in (1, 15):
            measured[("fig15", level)] = max(
                series[level] for series in fig15.per_placement.values()
            )
        err = sum(
            abs(measured[k] - paper) / paper
            for k, paper in PAPER_ENDPOINTS.items()
        ) / len(PAPER_ENDPOINTS)
        counters = {
            "core.requests": requests,
            "interconnect.bytes_moved": sum(b for _, b in runs),
        }
        return Replica(
            stats=stats,
            requests=requests,
            counters=counters,
            problems=problems,
            extra={
                "sim_speedup": fig11.geomean(15),
                "paper_err_pct": 100.0 * err,
            },
        )

    def summarize(self, reps: List[Replica]) -> Dict[str, float]:
        return dict(reps[0].extra)


# -- shared serving helpers ---------------------------------------------------


def _client_spans(result):
    return [
        s for s in result.telemetry.tracker.spans if s.category == "client"
    ]


def _conservation(result) -> List[str]:
    """Per tenant: arrived = ok + shed + failed (``completed`` counts
    failed requests too, so ok = completed - failed)."""
    problems = []
    for name, t in result.tenants.items():
        ok = t.completed - t.failed
        if t.arrived != ok + t.shed + t.failed:
            problems.append(
                f"{name}: arrived {t.arrived} != ok {ok} + shed {t.shed}"
                f" + failed {t.failed}"
            )
    return problems


def _record_counters(result, system) -> Dict[str, float]:
    records = result.records
    counters: Dict[str, float] = {
        "core.requests": len(records),
        "interconnect.bytes_moved": system.bytes_moved(),
        "faults.retries": sum(r.retries for r in records),
        "faults.failures": sum(1 for r in records if r.failed),
        "resilience.rescued": sum(1 for r in records if r.rescued),
        "resilience.fell_back": sum(1 for r in records if r.fell_back),
        "serve.shed": result.shed,
        "serve.batches": sum(t.batches for t in result.tenants.values()),
        "telemetry.spans": len(result.telemetry.tracker.spans),
    }
    for kind in BACKEND_KINDS:
        counters[f"backends.legs.{kind}"] = sum(
            (r.backend or []).count(kind) for r in records
        )
    return counters


def _result_stats(result) -> Dict[str, object]:
    out = result.to_dict()
    out["client"] = [
        (s.attrs.get("tenant"), s.attrs.get("seq"), s.start, s.end)
        for s in _client_spans(result)
    ]
    return out


# -- serve_knee ---------------------------------------------------------------


class ServeKnee(Workload):
    """Open-loop Poisson over a fixed grid straddling each mode's knee;
    nothing armed."""

    name = "serve_knee"
    n_tenants = 8
    requests_per_tenant = 100
    max_inflight = 8
    replicas = 6
    #: Grid as fractions of each mode's calibrated peak. The DMX peak
    #: is overstated about 2x online, so its grid sits at 0.30-0.60.
    grid = (
        (Mode.MULTI_AXL, (0.8, 1.1)),
        (Mode.BUMP_IN_WIRE, (0.30, 0.45, 0.60)),
    )

    def setup(self) -> None:
        probe = SweepConfig(
            offered_loads_rps=(1.0,), benchmark="sound-detection",
            n_tenants=self.n_tenants,
        )
        self.peak = {
            mode: float(calibrate_peak_rps(probe, mode))
            for mode, _ in self.grid
        }
        # SLO as in the serving-knee benchmark: 3x the slower mode's
        # no-queueing latency.
        self.slo_s = 3.0 * float(unloaded_latency(probe, Mode.MULTI_AXL))
        self.loads = [
            (mode, fraction * self.peak[mode])
            for mode, fractions in self.grid
            for fraction in fractions
        ]

    def _seed(self, seed: int, j: int) -> int:
        return _rng(self.name, seed, j).randrange(2 ** 31)

    def arrival_fingerprint(self, seed: int) -> Tuple[float, ...]:
        gaps = PoissonArrivals(1.0).interarrivals(
            random.Random(self._seed(seed, 0))
        )
        return tuple(next(gaps) for _ in range(8))

    def replica(self, seed: int, j: int, tracer=None,
                workdir: str = ".") -> Replica:
        frontend_seed = self._seed(seed, j)
        points = []
        problems: List[str] = []
        counters: Dict[str, float] = {}
        requests = 0
        for mode, load in self.loads:
            chains = build_benchmark_chains("sound-detection", self.n_tenants)
            system = DMXSystem(chains, SystemConfig(mode=mode))
            tenants = [
                TenantSpec(
                    name=chain.name,
                    arrivals=PoissonArrivals(load / self.n_tenants),
                    n_requests=self.requests_per_tenant,
                )
                for chain in chains
            ]
            frontend = ServingFrontend(
                system, tenants,
                FrontendConfig(
                    max_inflight=self.max_inflight, shed=ShedPolicy.QUEUE,
                    slo_s=self.slo_s,
                ),
                seed=frontend_seed,
            )
            result = frontend.run()
            problems += _conservation(result)
            requests += result.completed
            clients = _client_spans(result)
            for key, value in _record_counters(result, system).items():
                counters[key] = counters.get(key, 0) + value
            points.append({
                "mode": mode.value,
                "load": load,
                "stats": _result_stats(result),
                "latencies": sorted(s.end - s.start for s in clients),
                "last_arrival": max(s.start for s in clients),
                "elapsed": result.elapsed,
                "arrived": result.arrived,
                "good": result.completed - result.failed - result.violations,
            })
        stats = json.dumps([p["stats"] for p in points], sort_keys=True)
        for p in points:
            del p["stats"]
        return Replica(stats=stats, requests=requests, counters=counters,
                       problems=problems, detail=points)

    def summarize(self, reps: List[Replica]) -> Dict[str, float]:
        pooled: Dict[Tuple[str, float], dict] = {}
        for rep in reps:
            for p in rep.detail:
                agg = pooled.setdefault(
                    (p["mode"], p["load"]),
                    {"lat": [], "elapsed": 0.0, "arrived": 0, "good": 0,
                     "backlog": False},
                )
                agg["lat"] += p["latencies"]
                agg["elapsed"] += p["elapsed"]
                agg["arrived"] += p["arrived"]
                agg["good"] += p["good"]
                # A growing backlog shows as a drain after the last
                # arrival longer than the SLO itself.
                if p["elapsed"] - p["last_arrival"] > self.slo_s:
                    agg["backlog"] = True
        knees = {}
        reference = None
        for mode, fractions in self.grid:
            knee = 0.0
            for fraction in fractions:
                load = fraction * self.peak[mode]
                agg = pooled[(mode.value, load)]
                dmx = mode is Mode.BUMP_IN_WIRE
                if dmx and reference is None:
                    reference = agg  # kept if no DMX load meets the SLO
                lat = sorted(agg["lat"])
                p99 = percentile(lat, tail_quantile(len(lat)))
                if p99 <= self.slo_s and not agg["backlog"]:
                    knee = load
                    if dmx:
                        reference = agg
            knees[mode] = knee
        lat = sorted(reference["lat"])
        q = tail_quantile(len(lat))
        base = knees[Mode.MULTI_AXL]
        return {
            "sim_p50_ms": 1e3 * percentile(lat, 0.50),
            "sim_p99_ms": 1e3 * percentile(lat, q),
            "latency_samples": len(lat),
            "sim_goodput_rps": reference["good"] / reference["elapsed"],
            "sim_slo_attain": reference["good"] / reference["arrived"],
            "sim_knee_rps": knees[Mode.BUMP_IN_WIRE],
            "sim_knee_gain": (
                knees[Mode.BUMP_IN_WIRE] / base if base else 0.0
            ),
        }


# -- serve_armed --------------------------------------------------------------


class ServeArmed(Workload):
    """Open-loop ramp with every resilience, control, batching, planner,
    fault, crash and observation feature armed."""

    name = "serve_armed"
    n_tenants = 8
    requests_per_tenant = 200
    slo_s = 30e-3
    leg_s = 0.04
    cycles = 20
    replicas = 8
    target = "drx.s0"

    def setup(self) -> None:
        build_benchmark_chains("sound-detection", self.n_tenants)
        probe = SweepConfig(
            offered_loads_rps=(1.0,), benchmark="sound-detection",
            n_tenants=self.n_tenants,
        )
        self.peak = float(calibrate_peak_rps(probe, Mode.STANDALONE))
        quiet = 0.30 * self.peak / self.n_tenants
        hot = 1.15 * self.peak / self.n_tenants
        self.arrivals = RampArrivals(
            segments=((self.leg_s, quiet), (self.leg_s, hot)) * self.cycles
        )

    def _plan(self, seed: int, j: int) -> Dict[str, float]:
        rng = _rng(self.name, seed, j)
        # The kill lands inside the third hot phase, while batches are
        # in flight; the card comes back two cycles later.
        kill = (5 + rng.uniform(0.2, 0.8)) * self.leg_s
        return {
            "frontend": rng.randrange(2 ** 31),
            "faults": rng.randrange(2 ** 31),
            "resilience": rng.randrange(2 ** 31),
            "kill": kill,
            "revive": kill + 4 * self.leg_s,
        }

    def arrival_fingerprint(self, seed: int) -> Tuple[float, ...]:
        gaps = self.arrivals.interarrivals(
            random.Random(self._plan(seed, 0)["frontend"])
        )
        return tuple(next(gaps) for _ in range(8))

    def replica(self, seed: int, j: int, tracer=None,
                workdir: str = ".") -> Replica:
        plan = self._plan(seed, j)
        chains = build_benchmark_chains("sound-detection", self.n_tenants)
        system = DMXSystem(
            chains, SystemConfig(mode=Mode.STANDALONE),
            faults=FaultPlan(
                seed=plan["faults"],
                dma=FaultPolicy(delay_p=0.02),
                notify=FaultPolicy(delay_p=0.02),
                drx=FaultPolicy(fail_p=0.002),
            ),
            resilience=ResilienceConfig(seed=plan["resilience"]),
            backends=PlannerConfig(),
            domains=CrashPlan(
                seed=seed,
                crashes=(DomainCrash(self.target, plan["kill"],
                                     plan["revive"]),),
            ),
        )
        tenants = [
            TenantSpec(
                name=chain.name, arrivals=self.arrivals,
                n_requests=self.requests_per_tenant, priority=i % 2,
            )
            for i, chain in enumerate(chains)
        ]
        frontend = ServingFrontend(
            system, tenants,
            FrontendConfig(
                max_inflight=6, discipline=Discipline.WRR, slo_s=self.slo_s,
                brownout=BrownoutConfig(min_dwell_s=4e-3),
                batching=BatchingConfig(size_aware=True),
                controller=ControllerConfig(
                    standby_cards=1, deescalate_fraction=0.2,
                ),
                observation=ObservationConfig(),
            ),
            seed=plan["frontend"],
        )
        result = frontend.run()
        path = os.path.join(workdir, f"armed-{os.getpid()}.jsonl")
        try:
            write_artifact(
                path, result.telemetry, meta={"seed": seed, "replica": j},
                rollups=result.rollups, alerts=result.alerts,
            )
            artifact_bytes = os.path.getsize(path)
            report = verify_artifact_path(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        clients = _client_spans(result)
        failed = {
            (s.attrs.get("tenant"), s.attrs.get("seq"))
            for s in clients if s.attrs.get("failed")
        }
        counters = _record_counters(result, system)
        counters["telemetry.artifact_bytes"] = artifact_bytes
        counters["resilience.dead_targets"] = len(
            system.control.dead_targets()
        )
        actions = frontend.controller_actions
        for kind in ACTION_KINDS:
            counters[f"control.actions.{kind}"] = sum(
                1 for _, k, _ in actions if k == kind
            )
        batches = counters["serve.batches"]
        counters["serve.batch_fill"] = (
            result.completed / batches if batches else 0.0
        )
        stats = _result_stats(result)
        stats["actions"] = actions
        stats["invariant_problems"] = report.problems
        return Replica(
            stats=json.dumps(stats, sort_keys=True),
            requests=result.completed,
            latencies=sorted(
                s.end - s.start for s in clients
                if (s.attrs.get("tenant"), s.attrs.get("seq")) not in failed
            ),
            counters=counters,
            problems=_conservation(result),
            extra={
                "violations": len(report.problems),
                "good": result.completed - result.failed - result.violations,
                "arrived": result.arrived,
                "elapsed": result.elapsed,
            },
        )

    def summarize(self, reps: List[Replica]) -> Dict[str, float]:
        lat = sorted(x for rep in reps for x in rep.latencies)
        q = tail_quantile(len(lat))
        good = sum(rep.extra["good"] for rep in reps)
        return {
            "sim_p50_ms": 1e3 * percentile(lat, 0.50),
            "sim_p99_ms": 1e3 * percentile(lat, q),
            "latency_samples": len(lat),
            "sim_goodput_rps": good / sum(
                rep.extra["elapsed"] for rep in reps
            ),
            "sim_slo_attain": good / sum(
                rep.extra["arrived"] for rep in reps
            ),
            "sim_invariant_violations": sum(
                rep.extra["violations"] for rep in reps
            ),
        }


WORKLOADS = {w.name: w for w in (PaperFigs, ServeKnee, ServeArmed)}
