"""Byte-identity goldens for every arm of the motion path.

Each scenario below was run once and the SHA-256 of its canonical JSON
pinned here: the request records, the run's telemetry artifact lines
(span names, kinds, parents and attributes), and — where faults are
armed — ``fault_trace.fault_counts()``. Together they cover each
placement mode single and batched, DRX-deadline fallbacks, a crash with
drain + rescue + revive under batching, the 4-backend planner, and one
batched, faulted serving run's schema-2 artifact bytes. A change to the
motion path that alters any event, float, span or attribute fails here.
If a change of simulated behaviour is deliberate, recapture every hash
together and say why.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.accelerators.base import AcceleratorSpec
from repro.backends import PlannerConfig
from repro.core import (
    AppChain,
    DMXSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.faults import DomainCrash, FaultPlan, FaultPolicy
from repro.profiles import WorkProfile
from repro.resilience import ResilienceConfig
from repro.serve import (
    BatchingConfig,
    FrontendConfig,
    PoissonArrivals,
    ServingFrontend,
    TenantSpec,
)
from repro.telemetry import artifact_lines

KB = 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)

MODE_GOLDENS = {
    (Mode.ALL_CPU, "throughput"): (
        "81af277bc62a79958d404f58e4527069bf8eca61fe3c11df3aa25992dea1190b"
    ),
    (Mode.ALL_CPU, "batch"): (
        "e9030fbdb8f0c6bca1719476f851c0223b4050bea57fab3b17c532fe4a1f94b0"
    ),
    (Mode.MULTI_AXL, "throughput"): (
        "5de50f759a87e031b0974f4eaa9df37d03c890ac11a411ddf010e172e68b25b6"
    ),
    (Mode.MULTI_AXL, "batch"): (
        "0d6ed90e2d6280a9e5cbd1872b0999e3a29c73b533c568c9db6455ec0bfccdbe"
    ),
    (Mode.INTEGRATED, "throughput"): (
        "eb20858319033efc641ad5bd6b576b5c952e76032eda650de1e974b3d7ec7f12"
    ),
    (Mode.INTEGRATED, "batch"): (
        "b0dab0fbc85c3724122e6abc6f142b2d893088b4a6535ae937ff1b79d8b6662f"
    ),
    (Mode.STANDALONE, "throughput"): (
        "361ffb2304e0132f2ca0d3ab42eb6ea5dfec6413ce8c72f2246aa6e622f60bf7"
    ),
    (Mode.STANDALONE, "batch"): (
        "4dff35779c10f86b5354b7c289eac4f0000d2e59184dbaa3517d0d89e6771c5e"
    ),
    (Mode.BUMP_IN_WIRE, "throughput"): (
        "aa37333655dfb751fdff80579e46fec838ff0b4511e7141b85dae97c375f147c"
    ),
    (Mode.BUMP_IN_WIRE, "batch"): (
        "0cd35757691f755a1b9549fb4def01665db3fac3df4b3a9d0e496b4d55b2f877"
    ),
    (Mode.PCIE_INTEGRATED, "throughput"): (
        "700fd8e7791782330c1fdb9872177e0a0683778857910029953dac15ca6eed33"
    ),
    (Mode.PCIE_INTEGRATED, "batch"): (
        "5b53480b49257183dd12666c1ba08830d8dd53b570b588f0973bdedc0cec6027"
    ),
}

FAULTED_GOLDENS = {
    (Mode.STANDALONE, "single"): (
        "7f86bb9c0ade71bab793133ceb0993ab9c2b0c71d38cca5977ae14813ff24748"
    ),
    (Mode.STANDALONE, "batch"): (
        "74f3a06d99e07b99cbcf5b9bca3257a67a4db4f9712b00b5bde9480cc04006d6"
    ),
    (Mode.PCIE_INTEGRATED, "single"): (
        "c8d3acd503b3c19a670fe2bd7c65633be64af1884f78979d33ec310de999d568"
    ),
    (Mode.PCIE_INTEGRATED, "batch"): (
        "65d429e1568eccf2f5d0b1e9d0f12149607dc8f9103797e327829744a3d2178b"
    ),
}

CRASH_SERVE_GOLDEN = (
    "1daa9df349fad34d35643fe11f74d3c4547e4a6cfbef0081beecc8aa3a2c9155"
)
PLANNER_GOLDENS = {
    "clean": (
        "20966858fdf1189b9333ddc43922c26fcae1435a97f0c1e690fd5ce0e1cb0d10"
    ),
    "faulted": (
        "b8b95384e92db1b9d2531531d9dd8e535fa3e0c52f7e28c8ab58434b6d6af5a1"
    ),
}
ARTIFACT_GOLDEN = (
    "4cbd7cddb40651eebf7fe6a0a7f24caea4a61068b8c3fc04d43c4b0482046759"
)

#: DMA failures, notification losses and DRX hangs, with a DRX deadline
#: short enough that hung legs fall back to the CPU path.
FAULT_PLAN = FaultPlan(
    seed=11,
    dma=FaultPolicy(fail_p=0.1),
    notify=FaultPolicy(fail_p=0.1),
    drx=FaultPolicy(hang_p=0.35),
    drx_deadline_s=400e-6,
)


def _profile(name, nbytes, gather):
    return WorkProfile(
        name=name, bytes_in=2 * nbytes, bytes_out=nbytes,
        elements=nbytes // 4, ops_per_element=6.0, gather_fraction=gather,
    )


def make_chain(i):
    """Three kernels joined by two motion stages of different sizes."""
    big = (64 + 16 * i) * KB
    small = 8 * KB
    return AppChain(
        name=f"app{i}",
        stages=[
            KernelStage("k1", SPEC, cpu_time_s=60e-6, accel_time_s=8e-6,
                        output_bytes=big),
            MotionStage("m1", _profile("m1", big, 0.3), input_bytes=big,
                        output_bytes=big // 2, cpu_threads=3),
            KernelStage("k2", SPEC, cpu_time_s=40e-6, accel_time_s=6e-6,
                        output_bytes=small),
            MotionStage("m2", _profile("m2", small, 0.3 * (i % 2)),
                        input_bytes=small,
                        output_bytes=small, cpu_threads=2),
            KernelStage("k3", SPEC, cpu_time_s=30e-6, accel_time_s=4e-6,
                        output_bytes=KB),
        ],
    )


def _digest(records, system=None, telemetry=None, extra=None):
    body = {"records": [dataclasses.asdict(r) for r in records]}
    if system is not None and system.fault_trace is not None:
        body["faults"] = system.fault_trace.fault_counts()
    if telemetry is not None:
        body["artifact"] = list(artifact_lines(telemetry))
    if extra is not None:
        body["extra"] = extra
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _batches(system, counts):
    """Issue one ``submit_batch`` per (app, count) at t=0 and drain."""
    records = []

    def issue(app_index, count):
        out = yield from system.submit_batch(app_index, count)
        records.extend(out)

    for app_index, count in counts:
        system.sim.spawn(issue(app_index, count))
    system.sim.run()
    system.telemetry.finalize()
    return records


def run_mode(mode, kind):
    system = DMXSystem([make_chain(i) for i in range(3)],
                       SystemConfig(mode=mode))
    if kind == "throughput":
        records = system.run_throughput(requests_per_app=3).records
    else:
        records = _batches(system, [(0, 3), (1, 1), (2, 2)])
    return _digest(records, system, system.telemetry)


def run_faulted(mode, kind):
    system = DMXSystem([make_chain(i) for i in range(3)],
                       SystemConfig(mode=mode), faults=FAULT_PLAN)
    if kind == "single":
        records = system.run_latency(requests_per_app=4).records
    else:
        records = _batches(
            system, [(0, 3), (1, 2), (2, 4), (0, 2), (1, 3), (2, 1)]
        )
    return records, system


def run_crash_serve():
    from repro.resilience.recovery import (
        RecoveryScenarioConfig,
        run_recovery_scenario,
    )

    config = RecoveryScenarioConfig(
        offered_rps=40e3,
        crashes=(DomainCrash(target="drx.s0", at_s=300e-6,
                             revive_at_s=900e-6),),
        n_tenants=4,
        requests_per_tenant=16,
        chain_factory=lambda: [make_chain(i) for i in range(4)],
        batching=BatchingConfig(max_batch=4, window_s=100e-6),
        slo_s=5e-3,
        seed=0,
    )
    result = run_recovery_scenario(config)
    return result, _digest(
        result.records, telemetry=result.serve.telemetry,
        extra={"domains": result.domains, "serve": result.serve.to_dict()},
    )


def run_planner_batch(kind):
    system = DMXSystem([make_chain(i) for i in range(3)],
                       SystemConfig(mode=Mode.STANDALONE),
                       faults=FAULT_PLAN if kind == "faulted" else None,
                       backends=PlannerConfig())
    records = _batches(system, [(0, 3), (1, 1), (2, 2), (0, 1), (1, 4)])
    legs = system._backend_legs_snapshot()
    return legs, _digest(records, system, system.telemetry,
                         extra={"backend_legs": legs})


def run_batched_faulted_serve(path):
    chains = [make_chain(i) for i in range(2)]
    system = DMXSystem(chains, SystemConfig(mode=Mode.STANDALONE),
                       faults=FAULT_PLAN,
                       resilience=ResilienceConfig(seed=2))
    tenants = [
        TenantSpec(name=c.name, arrivals=PoissonArrivals(20e3),
                   n_requests=24)
        for c in chains
    ]
    result = ServingFrontend(
        system, tenants,
        FrontendConfig(max_inflight=6, slo_s=2e-3, sample_period_s=None,
                       batching=BatchingConfig(max_batch=4,
                                               window_s=80e-6)),
        seed=5,
    ).run()
    from repro.telemetry import write_artifact

    write_artifact(path, result.telemetry, meta={"scenario": "golden"})
    with open(path, "rb") as fh:
        return result, hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("mode, kind", sorted(MODE_GOLDENS,
                                              key=lambda k: (k[0].value, k[1])))
def test_mode_run_matches_golden(mode, kind):
    assert run_mode(mode, kind) == MODE_GOLDENS[(mode, kind)]


@pytest.mark.parametrize("mode, kind", sorted(FAULTED_GOLDENS,
                                              key=lambda k: (k[0].value, k[1])))
def test_faulted_fallback_run_matches_golden(mode, kind):
    records, system = run_faulted(mode, kind)
    # The scenario must actually exercise the DRX-deadline fallback.
    assert any(r.fell_back for r in records)
    assert _digest(records, system, system.telemetry) == \
        FAULTED_GOLDENS[(mode, kind)]


def test_batched_crash_rescue_revive_serve_matches_golden():
    result, digest = run_crash_serve()
    assert any(r.rescued for r in result.records)
    assert result.domains["revived"] == ["drx.s0"]
    assert digest == CRASH_SERVE_GOLDEN


@pytest.mark.parametrize("kind", sorted(PLANNER_GOLDENS))
def test_four_backend_planner_batched_run_matches_golden(kind):
    legs, digest = run_planner_batch(kind)
    # Every accelerator backend runs at least one leg.
    assert all(legs[k]["executed"] > 0 for k in ("drx", "dsa", "xdma"))
    assert digest == PLANNER_GOLDENS[kind]


def test_batched_faulted_serve_artifact_bytes_match_golden(tmp_path):
    result, digest = run_batched_faulted_serve(
        str(tmp_path / "batched-faulted.jsonl")
    )
    sizes = result.telemetry.metrics.histogram("batch_size")
    assert sizes.count < sizes.sum  # some batches held > 1 member
    assert digest == ARTIFACT_GOLDEN
