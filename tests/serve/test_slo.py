"""Percentile estimators and SLO accounting units."""

import random

import pytest

from repro.serve import LatencyTracker, P2Quantile, TenantStats


def test_p2_exact_below_five_samples():
    est = P2Quantile(0.5)
    for x in (5.0, 1.0, 3.0):
        est.add(x)
    assert est.value == pytest.approx(3.0)


def test_p2_tracks_uniform_median():
    rng = random.Random(0)
    est = P2Quantile(0.5)
    for _ in range(5000):
        est.add(rng.random())
    assert est.value == pytest.approx(0.5, abs=0.05)


def test_p2_tracks_tail_quantile_of_exponential():
    rng = random.Random(1)
    est = P2Quantile(0.95)
    samples = []
    for _ in range(20000):
        x = rng.expovariate(1.0)
        est.add(x)
        samples.append(x)
    exact = sorted(samples)[int(0.95 * len(samples))]
    assert est.value == pytest.approx(exact, rel=0.1)


def test_p2_rejects_degenerate_quantiles_and_empty_stream():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)
    with pytest.raises(ValueError):
        _ = P2Quantile(0.5).value


def test_tracker_exact_percentiles_when_retained():
    tracker = LatencyTracker()
    for x in range(1, 101):
        tracker.add(float(x))
    assert tracker.percentile(0.50) == pytest.approx(50.5)
    assert tracker.percentile(0.99) == pytest.approx(99.01)
    assert tracker.mean() == pytest.approx(50.5)
    assert tracker.max == 100.0
    # Any quantile is answered exactly, not just the summary's.
    assert tracker.percentile(0.25) == pytest.approx(25.75)


def test_tracker_summary_and_errors():
    tracker = LatencyTracker()
    with pytest.raises(ValueError):
        tracker.mean()
    with pytest.raises(ValueError):
        tracker.percentile(0.5)
    with pytest.raises(ValueError):
        tracker.add(-1.0)
    tracker.add(2.0)
    summary = tracker.summary()
    assert summary["count"] == 1.0
    assert summary["p99"] == 2.0


@pytest.mark.parametrize("q", [-0.5, 1.5, float("nan")])
def test_percentile_rejects_quantiles_outside_unit_interval(q):
    from repro.serve.slo import ServeResult
    from repro.sim import exact_percentile

    with pytest.raises(ValueError, match="quantile"):
        exact_percentile([1.0, 2.0, 3.0], q)
    tracker = LatencyTracker()
    for x in (1.0, 2.0, 3.0):
        tracker.add(x)
    with pytest.raises(ValueError, match="quantile"):
        tracker.percentile(q)
    result = ServeResult(tenants={}, latency=tracker, timeline=[],
                         elapsed=1.0)
    with pytest.raises(ValueError, match="quantile"):
        result.percentile(q)
    # The closed interval's endpoints stay valid: min and max.
    assert tracker.percentile(0.0) == 1.0
    assert tracker.percentile(1.0) == 3.0


def test_armed_serving_run_never_feeds_the_streaming_estimator(monkeypatch):
    """Serving latency accounting is exact-only: an armed run (breakers,
    brownout, controller, batching) completes with the P² estimator
    rigged to fail on any sample."""
    from repro.control import ControllerConfig
    from repro.core import DMXSystem, Mode, SystemConfig
    from repro.resilience import ResilienceConfig
    from repro.resilience.brownout import BrownoutConfig
    from repro.serve import (
        BatchingConfig,
        Discipline,
        FrontendConfig,
        PoissonArrivals,
        ServingFrontend,
        TenantSpec,
    )
    from repro.workloads import build_benchmark_chains

    def refuse(self, x):
        raise AssertionError("P2Quantile.add reached from a serving run")

    monkeypatch.setattr(P2Quantile, "add", refuse)
    chains = build_benchmark_chains("sound-detection", 4)
    system = DMXSystem(
        chains,
        SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(seed=7),
    )
    tenants = [
        TenantSpec(
            name=chain.name,
            arrivals=PoissonArrivals(700.0),
            n_requests=10,
            priority=i % 2,
        )
        for i, chain in enumerate(chains)
    ]
    result = ServingFrontend(
        system,
        tenants,
        FrontendConfig(
            max_inflight=6,
            discipline=Discipline.WRR,
            slo_s=20e-3,
            brownout=BrownoutConfig(min_dwell_s=4e-3),
            controller=ControllerConfig(standby_cards=1),
            batching=BatchingConfig(max_batch=4, window_s=1e-3),
        ),
        seed=3,
    ).run()
    assert result.completed == result.admitted > 0
    assert result.latency.count == result.completed
    assert result.to_dict()["latency"]["p99"] == result.percentile(0.99)


def test_tenant_stats_goodput_excludes_failures_and_violations():
    stats = TenantStats(name="t", completed=10, failed=2, violations=3)
    assert stats.goodput_rps(5.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        stats.goodput_rps(0.0)


def _depth_result(samples, elapsed):
    from repro.serve.slo import LatencyTracker, QueueSample, ServeResult

    return ServeResult(
        tenants={},
        latency=LatencyTracker(),
        timeline=[
            QueueSample(time=t, queued={"a": depth}, inflight=0)
            for t, depth in samples
        ],
        elapsed=elapsed,
    )


def test_mean_queue_depth_is_time_weighted_under_uneven_spacing():
    # Depth 10 holds for 1s, depth 0 for 9s: the time-weighted mean is
    # 1.0, but dense sampling of the busy second (unweighted mean 6.7)
    # used to drag the old estimate toward the burst.
    result = _depth_result(
        [(0.0, 10), (0.5, 10), (1.0, 0), (10.0, 0)], elapsed=10.0
    )
    assert result.mean_queue_depth() == pytest.approx(1.0)


def test_mean_queue_depth_extends_last_sample_to_elapsed():
    result = _depth_result([(0.0, 4), (1.0, 2)], elapsed=4.0)
    # 4 for 1s, then 2 for the remaining 3s.
    assert result.mean_queue_depth() == pytest.approx((4 + 2 * 3) / 4)


def test_mean_queue_depth_empty_and_single_sample():
    assert _depth_result([], elapsed=1.0).mean_queue_depth() == 0.0
    single = _depth_result([(0.0, 3)], elapsed=0.0)
    # Zero span: falls back to the plain average.
    assert single.mean_queue_depth() == pytest.approx(3.0)


def test_tracker_percentile_cache_survives_interleaved_adds():
    """The cached sorted view must be invalidated by every add, so
    percentile-query/add interleavings always answer from fresh data."""
    from repro.sim.tracing import exact_percentile

    rng = random.Random(11)
    tracker = LatencyTracker()
    shadow = []
    for _ in range(200):
        x = rng.expovariate(1.0)
        tracker.add(x)
        shadow.append(x)
        if len(shadow) % 7 == 0:
            for q in (0.5, 0.95, 0.99):
                assert tracker.percentile(q) == pytest.approx(
                    exact_percentile(sorted(shadow), q)
                )
    # Repeated queries with no adds in between reuse the cached sort.
    first = tracker.percentile(0.99)
    assert tracker.percentile(0.99) == first
