"""Scenario: input checks shared by every harness, tenant binding, and
the one runner's artifact writing."""

import json

import pytest

from repro.core import SystemConfig
from repro.eval.orchestrator import grid_points
from repro.faults import DomainCrash
from repro.resilience import ChaosSweepConfig, RecoveryScenarioConfig
from repro.serve import (
    DeterministicArrivals,
    FrontendConfig,
    Scenario,
    SweepConfig,
    TenantSpec,
    run_scenario,
)

KILL = (DomainCrash(target="drx.s0", at_s=1e-3),)


@pytest.mark.parametrize("make", [
    lambda **kw: SweepConfig(offered_loads_rps=(1.0, 2.0), **kw),
    lambda **kw: ChaosSweepConfig(offered_loads_rps=(1.0, 2.0), **kw),
    lambda **kw: RecoveryScenarioConfig(offered_rps=1.0, crashes=KILL, **kw),
], ids=["sweep", "chaos", "recovery"])
def test_harness_configs_reject_an_unknown_arrival_kind(make):
    with pytest.raises(ValueError, match="unknown arrival kind 'bogus'"):
        make(arrival_kind="bogus")


def test_a_bogus_sweep_never_reaches_the_experiment_store():
    # Every worker would fail each row this grid expanded into.
    with pytest.raises(ValueError, match="arrival kind"):
        grid_points(SweepConfig(
            offered_loads_rps=(1.0, 2.0), arrival_kind="bogus"
        ))


@pytest.mark.parametrize("field,value,message", [
    ("slo_s", -1.0, "slo_s must be positive"),
    ("max_inflight", 0, "max_inflight must be >= 1"),
    ("queue_capacity", 0, "queue_capacity must be >= 1"),
    ("requests_per_tenant", 0, "requests_per_tenant must be positive"),
])
def test_recovery_config_rejects_bad_serving_inputs(field, value, message):
    with pytest.raises(ValueError, match=message):
        RecoveryScenarioConfig(offered_rps=1.0, crashes=KILL, **{field: value})


def test_scenario_needs_exactly_one_traffic_shape():
    spec = TenantSpec(name="", arrivals=DeterministicArrivals(10.0),
                      n_requests=2)
    with pytest.raises(ValueError, match="offered_rps must be positive"):
        Scenario()
    with pytest.raises(ValueError, match="not both"):
        Scenario(offered_rps=10.0, tenants=(spec,))


def test_explicit_tenants_bind_to_chains_by_position():
    specs = tuple(
        TenantSpec(name="", arrivals=DeterministicArrivals(200.0),
                   n_requests=2 + i, priority=i)
        for i in range(2)
    )
    scenario = Scenario(tenants=specs)
    chains = scenario.build_chains()
    bound = scenario.tenant_specs(chains)
    assert [t.name for t in bound] == [c.name for c in chains]
    assert [(t.n_requests, t.priority) for t in bound] == [(2, 0), (3, 1)]
    result = run_scenario(scenario).result
    assert {n: t.arrived for n, t in result.tenants.items()} == {
        chains[0].name: 2, chains[1].name: 3,
    }
    with pytest.raises(ValueError, match="1 tenant specs for 2 chains"):
        run_scenario(Scenario(tenants=specs[:1]))


def test_run_scenario_writes_and_verifies_one_artifact(tmp_path):
    path = tmp_path / "nested" / "run.jsonl"
    scenario = Scenario(
        offered_rps=300.0,
        requests_per_tenant=3,
        frontend=FrontendConfig(slo_s=20e-3),
        seed=5,
    )
    run_scenario(scenario, str(path), meta={"extra": 1}, verify=True)
    meta = json.loads(path.read_text().splitlines()[0])["meta"]
    assert meta == {
        "mode": SystemConfig().mode.value,
        "offered_rps": 300.0,
        "seed": 5,
        "slo_s": 20e-3,
        "extra": 1,
    }
