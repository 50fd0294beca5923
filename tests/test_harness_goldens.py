"""Byte-identity goldens for the sweep, chaos and recovery harnesses.

Each harness was run once on a small fixed scenario and the SHA-256 of
its outputs pinned here: a chaos sweep's ``to_json()`` plus every cell
artifact it writes, a load sweep's per-point ``.jsonl`` artifacts and
``.trace.json`` exports with observation and trace sampling armed, one
recovery scenario's artifact (meta row included), and the orchestrator
``point_key`` lists of a fixed sweep grid and a fixed chaos grid (the
experiment store's primary key). A change to how a harness builds,
runs or writes its scenario that alters any byte fails here. If a
change of output is deliberate, recapture the affected hashes together
and say why.
"""

import hashlib
import json
import os

from repro.backends import PlannerConfig
from repro.core import Mode
from repro.eval.orchestrator import grid_points, point_key
from repro.faults import DomainCrash, FaultPlan, FaultPolicy
from repro.resilience import (
    BreakerConfig,
    ChaosSweepConfig,
    RecoveryScenarioConfig,
    ResilienceConfig,
    run_chaos_sweep,
    run_recovery_scenario,
)
from repro.resilience.brownout import BrownoutConfig
from repro.serve import BatchingConfig, SweepConfig, run_sweep
from repro.telemetry import (
    AlertConfig,
    ObservationConfig,
    RollupConfig,
    SamplingConfig,
)

CHAOS_GOLDENS = {
    "to_json":
        "8c87c56f6893f11a98044b768ec2324957ff4e78a77be023bea3039011f09f86",
    "baseline-i0-pt0.jsonl":
        "95283c57b2b9df5fe72956e04c0a0209a0ad8bf08a3c7e9bf7496b5cb647f18a",
    "baseline-i0-pt1.jsonl":
        "bd13822bfb701d7c0d3e59a0acffee7f7f1d82cb5efd05f1069adc461d62f0ed",
    "baseline-i1-pt0.jsonl":
        "5d6a10cf03702972f1af822acf765be7c2f9b3d6762695a39b333affa0867d7c",
    "baseline-i1-pt1.jsonl":
        "c970888c285a83c59bee6b08c1590427eb296cdc3c60669ee7facf00e5f64de1",
    "resilient-i0-pt0.jsonl":
        "91940cef2f8fe6270309793dee7a002ba4bc77ca9facdb0b1c75e5c01495e47b",
    "resilient-i0-pt1.jsonl":
        "5f611c3a9c10dba3cdb0a505c465f6a8fbaa6d8476b89b01caa0d6a8d2f448fd",
    "resilient-i1-pt0.jsonl":
        "2185e7b147d8c051a7390607d208c1a2637cff6daa7ed838bb873fd2a1f256a4",
    "resilient-i1-pt1.jsonl":
        "54afea49db8acf76182e416216ab3c03ecc301776c2b7839d7bb9102f8954b37",
}

SWEEP_GOLDENS = {
    "to_json":
        "9566e6a37db7d81d20b3ae8168ed8c78fb8c191c23cd37680ccc4a1e5f4618cb",
    "bump-in-the-wire-drx-pt0.jsonl":
        "35754d48e4049e1c52648ab2347e1f34775105701bcaedfd77a3914adb013128",
    "bump-in-the-wire-drx-pt0.trace.json":
        "cad7da54ae04ce5579b7ee3e74b034af8cff12c806d219b6e6950d061223d837",
    "bump-in-the-wire-drx-pt1.jsonl":
        "1747fcf3c1644bbea36ceb1a61668518614c95fd9fc271eb8f0fb5177eea4e2d",
    "bump-in-the-wire-drx-pt1.trace.json":
        "09b6a3b787cbc8870211972096c5db8644895f49993803c6136d971d718d80be",
    "multi-axl-pt0.jsonl":
        "69f31f0903dda471ce82d006621bd3b1a454f697f6c85388c7fea59246cb6075",
    "multi-axl-pt0.trace.json":
        "c0e9a9bfd2e782e649b75d6d8f3d15ae036f83b5c81d4124237b4673f724c357",
    "multi-axl-pt1.jsonl":
        "c90f45cafe598e78e4a52ffc0b11d7215c10252c7772d7904962950337b3644c",
    "multi-axl-pt1.trace.json":
        "7fd52ef5f3fce45298672b2f321d26d18e3a5d43916044c698e4cf35d9ea98c4",
}

RECOVERY_GOLDENS = {
    "artifact":
        "50842e17816f7fe741310b72ed0513924e3158ca6f3a249d68cf0609300812b0",
    "summary":
        "fc93b5474409f6e98be7a28d9931f0cf1a6049b384b27f8df4f54d6d2d1555a1",
}

POINT_KEY_GOLDENS = {
    "sweep":
        "7362d263d937eb04e966bac5e2a5b9281b8b5b6c9263567f509ec62d7129533d",
    "chaos":
        "f0b9bf9a89aa5d88d6b3e281b65faa03dfa464b5aa176eb0d4d25c618744fb59",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dir_digests(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = _sha(fh.read())
    return out


def chaos_digests(directory):
    config = ChaosSweepConfig(
        offered_loads_rps=(60.0, 180.0),
        fault_intensities=(0.5, 1.0),
        requests_per_tenant=8,
        slo_s=110e-3,
        max_inflight=4,
        resilience=ResilienceConfig(
            seed=1,
            breaker=BreakerConfig(cooldown_s=2.0, cooldown_cap_s=8.0),
        ),
        brownout=BrownoutConfig(min_dwell_s=4e-3),
        seed=0,
        artifact_dir=directory,
    )
    result = run_chaos_sweep(config)
    digests = {"to_json": _sha(result.to_json().encode("utf-8"))}
    digests.update(_dir_digests(directory))
    return digests


def sweep_digests(directory):
    config = SweepConfig(
        offered_loads_rps=(60.0, 150.0),
        modes=(Mode.MULTI_AXL, Mode.BUMP_IN_WIRE),
        requests_per_tenant=8,
        seed=2,
        artifact_dir=directory,
        observation=ObservationConfig(
            rollup=RollupConfig(window_s=10e-3), alerts=AlertConfig()
        ),
        sampling=SamplingConfig(keep_fraction=0.5, seed=1),
    )
    result = run_sweep(config)
    digests = {"to_json": _sha(result.to_json().encode("utf-8"))}
    digests.update(_dir_digests(directory))
    return digests


def recovery_digests(directory):
    path = os.path.join(directory, "nested", "recovery.jsonl")
    result = run_recovery_scenario(RecoveryScenarioConfig(
        offered_rps=400.0,
        crashes=(
            DomainCrash(target="drx.s0", at_s=8e-3, revive_at_s=25e-3),
        ),
        n_tenants=4,
        requests_per_tenant=10,
        seed=1,
        artifact_path=path,
    ))
    with open(path, "rb") as fh:
        artifact = _sha(fh.read())
    summary = json.dumps(
        [result.domains, result.detect_latency_s,
         result.rescued_count(), len(result.records)],
        sort_keys=True,
    )
    return {"artifact": artifact, "summary": _sha(summary.encode("utf-8"))}


def point_key_digests():
    sweep = SweepConfig(
        offered_loads_rps=(10.0, 20.0, 40.0),
        modes=(Mode.MULTI_AXL, Mode.STANDALONE),
        n_tenants=3,
        seed=4,
        faults=FaultPlan(seed=5, drx=FaultPolicy(hang_p=0.1)),
        batching=BatchingConfig(),
        backends=PlannerConfig(),
    )
    chaos = ChaosSweepConfig(
        offered_loads_rps=(30.0, 90.0),
        fault_intensities=(0.0, 1.0),
        brownout=BrownoutConfig(),
        seed=6,
    )
    return {
        name: _sha("\n".join(
            point_key(spec) for spec in grid_points(config)
        ).encode("ascii"))
        for name, config in (("sweep", sweep), ("chaos", chaos))
    }


def test_chaos_sweep_bytes_are_pinned(tmp_path):
    assert chaos_digests(str(tmp_path)) == CHAOS_GOLDENS


def test_sweep_artifact_bytes_are_pinned(tmp_path):
    assert sweep_digests(str(tmp_path)) == SWEEP_GOLDENS


def test_recovery_artifact_bytes_are_pinned(tmp_path):
    assert recovery_digests(str(tmp_path)) == RECOVERY_GOLDENS


def test_orchestrator_point_keys_are_pinned():
    assert point_key_digests() == POINT_KEY_GOLDENS
