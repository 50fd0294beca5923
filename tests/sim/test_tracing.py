"""Tests for tracing/metrics utilities."""

import pytest

from repro.serve.slo import LatencyTracker
from repro.sim import PhaseAccumulator, geometric_mean


def _summary(latencies):
    """The one latency summary: :meth:`LatencyTracker.summary`."""
    tracker = LatencyTracker()
    for x in latencies:
        tracker.add(x)
    return tracker.summary()


def test_phase_accumulator_fractions():
    acc = PhaseAccumulator(["a", "b"])
    acc.add("a", 3.0)
    acc.add("b", 1.0)
    fractions = acc.fractions()
    assert fractions["a"] == pytest.approx(0.75)
    assert acc.total == pytest.approx(4.0)


def test_phase_accumulator_rejects_negative():
    with pytest.raises(ValueError):
        PhaseAccumulator().add("x", -1.0)


def test_phase_accumulator_merge():
    a = PhaseAccumulator(["x"])
    a.add("x", 1.0)
    b = PhaseAccumulator(["y"])
    b.add("y", 2.0)
    merged = a.merge(b)
    assert merged.totals == {"x": 1.0, "y": 2.0}
    # Originals untouched.
    assert a.totals == {"x": 1.0}


def test_empty_fractions():
    assert PhaseAccumulator(["a"]).fractions() == {}


def test_summarize_latencies():
    summary = _summary([1.0, 2.0, 3.0, 4.0])
    assert summary["mean"] == pytest.approx(2.5)
    assert summary["p50"] == pytest.approx(2.5)
    assert summary["max"] == 4.0
    assert summary["count"] == 4
    with pytest.raises(ValueError):
        _summary([])


def test_summarize_single_sample():
    summary = _summary([7.0])
    assert summary["p99"] == 7.0


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([5.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


def test_summarize_latencies_includes_p95():
    latencies = [float(i) for i in range(1, 101)]
    summary = _summary(latencies)
    assert summary["p95"] == pytest.approx(95.05)
    assert summary["p99"] == pytest.approx(99.01)


def test_exact_percentile_shared_helper():
    from repro.sim import exact_percentile

    assert exact_percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert exact_percentile([5.0], 0.99) == 5.0
    with pytest.raises(ValueError):
        exact_percentile([], 0.5)


def test_exact_percentile_matches_serving_tracker():
    # One shared quantile implementation — the helper and the
    # serving-side LatencyTracker agree on identical samples.
    from repro.sim import exact_percentile

    samples = [0.7, 0.1, 0.4, 0.9, 0.2, 0.5]
    tracker = LatencyTracker()
    for x in samples:
        tracker.add(x)
    for q in (0.5, 0.95, 0.99):
        assert tracker.percentile(q) == exact_percentile(sorted(samples), q)
