"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about two minutes: every workload runs a few short replicas).
"""

import json

import pytest

import run as bench
from bench_workloads import WORKLOADS, Replica, ServeKnee

DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

SERVE_RESULTS = {"sim_p50_ms", "sim_p99_ms", "latency_samples",
                 "sim_goodput_rps", "sim_slo_attain"}
#: Simulated results each workload's report must carry.
RESULTS = {
    "paper_figs": {"sim_speedup", "paper_err_pct"},
    "serve_knee": SERVE_RESULTS | {"sim_knee_rps", "sim_knee_gain"},
    "serve_armed": SERVE_RESULTS | {"sim_invariant_violations"},
}


def _execute(workload, trace, seed=5):
    return bench.execute(workload, seed, 0.0, trace, replicas=1,
                         setup_probes=1)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    """Two untraced and two traced runs of one workload, same seed."""
    name = request.param
    return name, [_execute(name, trace) for trace in (False, False, True,
                                                      True)]


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == (
        bench.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == (
        bench.per_layer_units()
    )
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_every_metric_emitted_with_its_unit(runs):
    name, results = runs
    for (line, run), units in zip(
        results, [bench.END_TO_END] * 2 + [bench.per_layer_units()] * 2
    ):
        assert line["correct"], run.problems
        assert line["failed"] == 0
        assert line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == units
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], (int, float))
    untraced = results[0][0]["metrics"]
    for metric in bench.END_TO_END:
        assert untraced[metric]["value"] > 0, metric
    assert set(results[0][1].report) == RESULTS[name]


def test_simulated_metrics_and_counts_repeat_exactly(runs):
    name, results = runs
    (_, a), (_, b), (ta, _), (tb, _) = results
    assert a.report == b.report
    exact = [
        key for key in ta["metrics"]
        if key.endswith("_calls") or key in bench.RESULT_UNITS
        or key in bench.COUNTER_UNITS and key != "sim.events_per_s"
    ]
    assert "sim.events" in exact
    for key in exact:
        assert ta["metrics"][key] == tb["metrics"][key], key


def test_bypassed_layers_read_zero(runs):
    name, results = runs
    metrics = {k: v["value"] for k, v in results[2][0]["metrics"].items()}
    if name == "serve_armed":
        assert metrics["control.bids_s"] > 0.05 * metrics["sim.run_s"]
        return
    for key, value in metrics.items():
        if key.startswith(("control.", "backends.")) or key == (
            "resilience.verify_s"
        ):
            assert value == 0, key


def test_timed_protocol(monkeypatch):
    """Warm-up first; gc before every timed replica; only timed
    replicas are counted as attempted."""

    class Stub:
        name = "stub"
        replicas = 2

        def replica(self, seed, j, tracer=None, workdir="."):
            log.append(("replica", j))
            return Replica(stats=f"{seed}:{j}", requests=1)

        def arrival_fingerprint(self, seed):
            return (seed,)

    log = []
    monkeypatch.setattr(bench.gc, "collect", lambda: log.append(("gc",)))
    reference = Replica(stats="0:0", requests=1).digest
    monkeypatch.setattr(bench, "_reference",
                        lambda name: {"digest": reference})
    run = bench.Run(Stub(), seed=1, seconds=0.0)
    log.clear()
    run.check_inputs()
    reps, walls, _ = run.untraced(0.0)
    assert log[0] == ("replica", 0)  # the warm-up, before any gc/timing
    timed = log[1:]
    assert timed == [("gc",), ("replica", 0), ("gc",), ("replica", 1)]
    assert run.attempted == len(walls) == 2
    assert run.ok()


def test_each_replica_builds_fresh_systems(monkeypatch):
    from repro.core import DMXSystem

    built = []
    original = DMXSystem.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    wl = ServeKnee()
    wl.setup()
    monkeypatch.setattr(DMXSystem, "__init__", counting)
    monkeypatch.setattr(wl, "requests_per_tenant", 5)
    wl.replica(1, 0)
    first = list(built)
    wl.replica(1, 0)
    second = built[len(first):]
    assert len(first) == len(second) == len(wl.loads)
    assert not {id(s) for s in first} & {id(s) for s in second}


def test_seed_reaches_the_arrivals():
    for cls in WORKLOADS.values():
        wl = cls()
        if cls.name == "paper_figs":
            assert wl.arrival_fingerprint(1) is None
            continue
        wl.setup()
        assert wl.arrival_fingerprint(1) == wl.arrival_fingerprint(1)
        assert wl.arrival_fingerprint(1) != wl.arrival_fingerprint(2)
