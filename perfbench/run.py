"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_knee --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer wrappers and prints the per-layer split. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

#: End-to-end metrics: name -> unit. Every untraced run emits all. They
#: are host metrics only: an end-to-end metric must exist on every
#: workload and never read 0.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_req_per_s": "1/s",
    "peak_rss_mb": "MB",
    "iter_ok_frac": "ratio",
}

#: Simulated results: deterministic per seed and each defined on only
#: some workloads. Every run prints those that apply in its report;
#: traced runs emit all of them as per-layer metrics, 0 where they do
#: not apply.
RESULT_UNITS = {
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "latency_samples": "count",
    "sim_goodput_rps": "1/s",
    "sim_slo_attain": "ratio",
    "sim_knee_rps": "1/s",
    "sim_knee_gain": "ratio",
    "sim_speedup": "ratio",
    "paper_err_pct": "%",
    "sim_invariant_violations": "count",
}

#: Counters read from result objects: name -> unit.
COUNTER_UNITS = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "interconnect.bytes_moved": "bytes",
    "backends.legs.drx": "count",
    "backends.legs.cpu": "count",
    "backends.legs.dsa": "count",
    "backends.legs.xdma": "count",
    "control.actions.weight": "count",
    "control.actions.tier": "count",
    "control.actions.scale_up": "count",
    "control.actions.scale_down": "count",
    "control.actions.migration": "count",
    "resilience.rescued": "count",
    "resilience.fell_back": "count",
    "resilience.dead_targets": "count",
    "faults.retries": "count",
    "faults.failures": "count",
    "serve.shed": "count",
    "serve.batches": "count",
    "serve.batch_fill": "req/batch",
    "telemetry.spans": "count",
    "telemetry.artifact_bytes": "bytes",
    "core.requests": "count",
}

TRACE_UNITS = {"trace.overhead": "ratio", "trace.spans": "count"}

SETUP_PROBES = 3

#: Seed whose replica 0 is recorded in ``reference.json``.
REFERENCE_SEED = 0

#: Replica times are reported at a fixed machine speed: each is scaled
#: by KERNEL_REFERENCE_S over the time the speed kernel took right
#: before and after it. On a shared machine the speed of the same code
#: drifts by ±20% over tens of seconds, and the kernel, which does the
#: same kind of work as the simulator, drifts with it: over ten runs of
#: paper_figs the scaled median spread 0.05 where the raw one spread
#: 0.12.
KERNEL_REFERENCE_S = 0.08


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run emits, with its unit."""
    from bench_trace import LAYERS, TARGETS
    from bench_workloads import FIGURE_DRIVERS

    units: Dict[str, str] = {}
    for target in TARGETS:
        key = f"{target.layer}.{target.fn}"
        units[f"{key}_calls"] = "count"
        units[f"{key}_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for driver in FIGURE_DRIVERS:
        units[f"eval.{driver}_s"] = "s"
    units.update(COUNTER_UNITS)
    units.update(RESULT_UNITS)
    units.update(TRACE_UNITS)
    return units


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class _KernelEvent:
    __slots__ = ("tag", "count")

    def __init__(self, key: int):
        self.tag = f"e{key % 97}"
        self.count = 0


def speed_kernel() -> float:
    """Host seconds of a fixed event loop: a heap of small objects and
    a dict keyed by strings, the kind of work the simulator does. It is
    frozen: changing it changes every reported time."""
    start = time.perf_counter()
    heap: list = []
    tally: Dict[str, int] = {}
    n = 2000
    for i in range(n):
        heapq.heappush(heap, (i * 0.37 % 1.0, i, _KernelEvent(i)))
    for k in range(60000):
        when, seq, event = heapq.heappop(heap)
        event.count += 1
        tally[event.tag] = tally.get(event.tag, 0) + event.count
        heapq.heappush(heap, (when + k * 0.61803 % 1.0 + 0.01, seq + n, event))
    return time.perf_counter() - start


def _speed(before: float, after: float) -> float:
    """Reference speed over the speed around one measurement."""
    return 2 * KERNEL_REFERENCE_S / (before + after)


def _measure_setup(workload: str, probes: int) -> Tuple[float, List[str]]:
    """Median seconds from process start to a set-up workload, over
    fresh interpreter processes (imports, chain templates, DRX compile,
    peak calibration), in raw host seconds."""
    times, problems = [], []
    for _ in range(probes):
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--setup-probe"],
            cwd=str(ROOT), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=120,
        )
        times.append(time.perf_counter() - start)
        if child.returncode != 0:
            problems.append(
                "set-up probe failed: "
                + child.stderr.decode(errors="replace")[-500:]
            )
    return _median(times), problems


def _reference(name: str) -> Optional[dict]:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh).get(name)


class Run:
    """One invocation: set-up, checks, timed replicas, metrics."""

    def __init__(self, workload, seed: int, seconds: float,
                 replicas: Optional[int] = None):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.replicas = replicas or workload.replicas
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        #: Simulated results, and unscaled host times, for the report.
        self.report: Dict[str, float] = {}
        self.host: Dict[str, float] = {}
        self.raw_walls: List[float] = []
        self.speeds: List[float] = []
        WORKDIR.mkdir(exist_ok=True)

    def _replica(self, j: int, tracer=None, seed: Optional[int] = None):
        return self.wl.replica(
            self.seed if seed is None else seed, j, tracer=tracer,
            workdir=str(WORKDIR),
        )

    def check_inputs(self) -> None:
        """The reference replica (also the warm-up pass) must reproduce
        the recorded statistics, and the seed must reach the inputs."""
        expected = _reference(self.wl.name)
        try:
            ref = self._replica(0, seed=REFERENCE_SEED)
        except Exception:  # reported as a failed check, not a crash
            self.problems.append(traceback.format_exc(limit=5))
            return
        self.problems += ref.problems
        if expected is None or expected["digest"] != ref.digest:
            self.problems.append(
                f"reference mismatch: {ref.digest} != "
                f"{expected and expected['digest']}"
            )
        here = self.wl.arrival_fingerprint(self.seed)
        if here is not None and here == self.wl.arrival_fingerprint(
            self.seed + 1
        ):
            self.problems.append("the seed does not reach the arrivals")

    def timed(self, j: int, tracer=None, expect: Optional[str] = None):
        """One timed replica: gc first, fresh objects, checked output,
        and, given ``expect``, the same statistics as an earlier run of
        replica ``j``. Returns (replica or None, speed-scaled host
        seconds)."""
        gc.collect()
        self.attempted += 1
        before = speed_kernel()
        start = time.perf_counter()
        try:
            rep = self._replica(j, tracer=tracer)
        except Exception:  # a failed iteration is counted, not fatal
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=5))
            return None, 0.0
        raw = time.perf_counter() - start
        speed = _speed(before, speed_kernel())
        self.raw_walls.append(raw)
        self.speeds.append(speed)
        wall = raw * speed
        problems = list(rep.problems)
        if expect is not None and rep.digest != expect:
            problems.append(f"replica {j} did not reproduce its statistics")
        if problems:
            self.failed += 1
            self.problems += problems
        return rep, wall

    def untraced(self, seconds: float) -> Tuple[list, List[float], List[float]]:
        """The first ``replicas`` replicas, then replays of them until
        ``seconds`` have passed; replays must match byte for byte."""
        reps: list = []
        walls: List[float] = []
        rates: List[float] = []
        deadline = time.perf_counter() + seconds
        i = 0
        while i < self.replicas or time.perf_counter() < deadline:
            j = i % self.replicas
            replay = reps[j].digest if i >= self.replicas else None
            rep, wall = self.timed(j, expect=replay)
            i += 1
            if rep is None:
                continue
            walls.append(wall)
            rates.append(rep.requests / wall)
            if replay is None:
                reps.append(rep)
        return reps, walls, rates

    def ok(self) -> bool:
        return not self.problems


def _summary(run: Run, reps: list) -> Dict[str, float]:
    """Simulated results; none when a replica failed (the run is then
    already incorrect)."""
    if len(reps) < run.replicas:
        return {}
    return run.wl.summarize(reps)


def run_untraced(run: Run) -> Dict[str, float]:
    reps, walls, rates = run.untraced(run.seconds)
    summary = _summary(run, reps)
    metrics = {
        "wall_s": _median(walls),
        "sim_req_per_s": _median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "iter_ok_frac": (
            (run.attempted - run.failed) / run.attempted
            if run.attempted else 0.0
        ),
    }
    run.report = {k: v for k, v in summary.items() if k in RESULT_UNITS}
    run.host["raw_wall_s"] = _median(run.raw_walls)
    run.host["speed_factor"] = _median(run.speeds)
    return metrics


def run_traced(run: Run) -> Dict[str, float]:
    """Untraced replicas first, then traced ones of the same seeds.
    Counts and times come from the first traced replica; the overhead
    is the median traced / untraced host time over matching replicas."""
    from bench_trace import Tracer

    reps, walls, _ = run.untraced(0.0)
    deadline = time.perf_counter() + run.seconds / 2
    ratios: List[float] = []
    first = None
    first_rep = None
    j = 0
    while j < len(reps) and (j == 0 or time.perf_counter() < deadline):
        tracer = Tracer(run_id=j)
        with tracer:
            rep, wall = run.timed(j, tracer=tracer, expect=reps[j].digest)
        if rep is not None:
            ratios.append(wall / walls[j])
            if first is None:
                first, first_rep = tracer, rep
        j += 1
    units = per_layer_units()
    metrics: Dict[str, float] = {name: 0 for name in units}
    if first is None:
        return metrics
    metrics.update(first.metrics())
    for driver_key, seconds in first.inclusive.items():
        if driver_key.startswith("eval."):
            metrics[f"{driver_key}_s"] = seconds
    metrics.update(first_rep.counters)
    metrics["sim.events"] = first.sim_events
    run_s = metrics["sim.run_s"]
    metrics["sim.events_per_s"] = first.sim_events / run_s if run_s else 0.0
    summary = _summary(run, reps)
    metrics.update({k: v for k, v in summary.items() if k in RESULT_UNITS})
    metrics["trace.overhead"] = _median(ratios)
    metrics["trace.spans"] = len(first.spans)
    first.write(str(WORKDIR / f"trace-{run.wl.name}.jsonl"))
    unknown = set(metrics) - set(units)
    if unknown:
        run.problems.append(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: metrics[name] for name in units}


def execute(workload: str, seed: int, seconds: float, trace: bool,
            replicas: Optional[int] = None,
            setup_probes: int = SETUP_PROBES) -> Tuple[dict, Run]:
    """Run one workload in this process; returns (result line, run)."""
    setup_s, setup_problems = (
        _measure_setup(workload, setup_probes) if not trace else (0.0, [])
    )
    from bench_workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    wl.setup()
    run = Run(wl, seed, seconds, replicas=replicas)
    run.problems += setup_problems
    run.check_inputs()
    if trace:
        metrics = run_traced(run)
        units = per_layer_units()
    else:
        metrics = run_untraced(run)
        # Scaled by the run's median speed rather than by kernels timed
        # around each probe: a fresh process's imports track one kernel
        # poorly, but the machine's speed holds for tens of seconds.
        metrics["setup_s"] = setup_s * run.host["speed_factor"]
        run.host["raw_setup_s"] = setup_s
        units = END_TO_END
    line = {
        "correct": run.ok(),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    return line, run


def _print_report(workload: str, line: dict, run: Run) -> None:
    print(f"workload {workload}  seed {run.seed}  "
          f"attempted {line['attempted']}  failed {line['failed']}  "
          f"correct {line['correct']}")
    for name, entry in line["metrics"].items():
        if isinstance(entry["value"], float):
            print(f"  {name:44s} {entry['value']:.6g} {entry['unit']}")
        else:
            print(f"  {name:44s} {entry['value']} {entry['unit']}")
    for name, value in run.report.items():
        print(f"  {name:44s} {value:.6g} {RESULT_UNITS[name]}")
    for name, value in run.host.items():
        unit = "ratio" if name == "speed_factor" else "s"
        print(f"  {name:44s} {value:.6g} {unit}")
    for problem in run.problems:
        print(f"  problem: {problem.strip()}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        WORKLOADS[args.workload]().setup()
        return 0
    line, run = execute(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    _print_report(args.workload, line, run)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
