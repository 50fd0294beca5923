"""System-level fault injection: the ISSUE acceptance scenario and friends.

The headline property: a seeded run that fails 10% of DMA transfers and
hangs 5% of DRX restructure calls still completes every request with no
unhandled SimulationError, records retries/fallbacks per request, and is
fully deterministic given the seed.
"""

import pytest

from repro.accelerators.base import AcceleratorSpec
from repro.core import (
    AppChain,
    DMXSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.faults import FaultPlan, FaultPolicy, RetryPolicy
from repro.profiles import WorkProfile

MB = 1024 * 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)

ACCEPTANCE_PLAN = FaultPlan(
    seed=42,
    dma=FaultPolicy(fail_p=0.10),
    drx=FaultPolicy(hang_p=0.05),
    drx_deadline_s=30e-3,
)


def make_chain(i=0, in_mb=12, out_mb=6):
    profile = WorkProfile(
        name="motion", bytes_in=2 * in_mb * MB, bytes_out=out_mb * MB,
        elements=in_mb * MB // 4, ops_per_element=20.0, gather_fraction=0.3,
    )
    return AppChain(
        name=f"app{i}",
        stages=[
            KernelStage("k1", SPEC, cpu_time_s=5e-3, accel_time_s=1e-3,
                        output_bytes=in_mb * MB),
            MotionStage("m", profile, input_bytes=in_mb * MB,
                        output_bytes=out_mb * MB, cpu_threads=3),
            KernelStage("k2", SPEC, cpu_time_s=4e-3, accel_time_s=8e-4,
                        output_bytes=MB),
        ],
    )


def build(mode, n_apps=3, faults=None, **config_kwargs):
    return DMXSystem(
        [make_chain(i) for i in range(n_apps)],
        SystemConfig(mode=mode, **config_kwargs),
        faults=faults,
    )


def run_summary(mode, faults, requests_per_app=5):
    system = build(mode, faults=faults)
    result = system.run_latency(requests_per_app=requests_per_app)
    records = [
        (r.app, r.request_id, r.latency, r.retries, r.fell_back, r.failed)
        for r in result.records
    ]
    return records, result, system


@pytest.mark.parametrize("mode", list(Mode))
def test_acceptance_all_requests_complete_under_faults(mode):
    records, result, system = run_summary(mode, ACCEPTANCE_PLAN)
    assert len(records) == 15  # 3 apps x 5 requests, none lost
    assert all(latency > 0 for _, _, latency, *_ in records)
    summary = result.recovery_summary()
    assert summary["requests"] == 15
    assert summary["failures"] == 0  # recovery absorbed every fault


@pytest.mark.parametrize("mode", list(Mode))
def test_acceptance_is_deterministic_given_seed(mode):
    first, *_ = run_summary(mode, ACCEPTANCE_PLAN)
    second, *_ = run_summary(mode, ACCEPTANCE_PLAN)
    assert first == second


def test_acceptance_records_retries_and_fallbacks():
    records, result, system = run_summary(Mode.STANDALONE, ACCEPTANCE_PLAN)
    # Seed 42 injects DMA failures and DRX hangs on this workload; the
    # injector's counters corroborate the per-request bookkeeping.
    assert system.injector.injected_count() > 0
    assert result.total_retries() > 0 or result.fallback_count() > 0
    faults = [i for i in system.telemetry.instants if i.category == "fault"]
    assert any(i.name.startswith("inject:") for i in faults)
    # Every fallback instant maps back to a request.
    for instant in faults:
        if instant.name == "fallback":
            assert instant.request_id >= 0


def test_no_faults_runs_identically_to_seed_behavior():
    def latencies(faults):
        system = build(Mode.BUMP_IN_WIRE, faults=faults)
        result = system.run_latency(requests_per_app=3)
        return [(r.app, r.latency, r.phases) for r in result.records]

    assert latencies(None) == latencies(None)
    baseline = latencies(None)
    # All-zero probabilities with faults=None is the seed-identical path;
    # records carry the new fields at their defaults.
    system = build(Mode.BUMP_IN_WIRE)
    result = system.run_latency(requests_per_app=3)
    assert [(r.app, r.latency, r.phases) for r in result.records] == baseline
    assert all(
        r.retries == 0 and not r.fell_back and not r.failed
        for r in result.records
    )


def test_forced_drx_hang_falls_back_to_cpu_restructuring():
    plan = FaultPlan(
        seed=1,
        drx=FaultPolicy(hang_p=1.0),
        drx_deadline_s=5e-3,
    )
    records, result, system = run_summary(Mode.STANDALONE, plan,
                                          requests_per_app=2)
    assert len(records) == 6
    # Every DRX leg hangs, so every request degrades to the CPU path.
    assert all(fell_back for *_, fell_back, _ in records)
    assert result.fallback_count() == 6
    assert result.failure_count() == 0
    # The failed leg's elapsed time is charged to the recovery phase.
    assert all("recovery" in r.phases for r in result.records)


def test_fallback_latency_lands_between_healthy_drx_and_multi_axl():
    healthy = build(Mode.STANDALONE).run_latency(2).mean_latency()
    cpu_only = build(Mode.MULTI_AXL).run_latency(2).mean_latency()
    plan = FaultPlan(seed=1, drx=FaultPolicy(hang_p=1.0), drx_deadline_s=5e-3)
    degraded = build(Mode.STANDALONE, faults=plan).run_latency(2).mean_latency()
    # Degraded mode pays the deadline + CPU restructuring: slower than a
    # healthy DRX, at least as slow as never trying the DRX at all.
    assert degraded > healthy
    assert degraded > cpu_only


def test_exhausted_retries_mark_request_failed_but_keep_record():
    plan = FaultPlan(
        seed=3,
        dma=FaultPolicy(fail_p=1.0),
        dma_retry=RetryPolicy(max_attempts=2),
        dma_timeout_s=10e-3,
    )
    records, result, _ = run_summary(Mode.MULTI_AXL, plan, requests_per_app=2)
    assert len(records) == 6  # giving up still yields a complete record
    assert result.failure_count() == 6
    assert all(failed for *_, failed in records)


def test_recovery_summary_shape():
    _, result, _ = run_summary(Mode.STANDALONE, ACCEPTANCE_PLAN)
    summary = result.recovery_summary()
    assert set(summary) == {
        "requests", "retries", "fallbacks", "rerouted", "rescued",
        "failures",
    }
    assert summary["retries"] == result.total_retries()
    assert summary["fallbacks"] == result.fallback_count()
    # No control plane armed: nothing can be proactively rerouted.
    assert summary["rerouted"] == result.rerouted_count() == 0
