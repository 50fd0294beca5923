"""Permanent-failure acceptance: kill a DRX card mid-run and prove the
system detects, decommissions, drains, rescues, and — on revival —
re-admits it, with the conservation checker signing off on every
artifact the suite writes.

The pinned properties:

* (a) a card killed at ``t=T`` is detected and decommissioned within
  the detection budget, and every drained request is disposed of *at*
  the drain — nothing keeps burning deadline on the corpse afterwards;
* (b) post-kill steady-state goodput is within 10% of the
  (N−1)-card baseline (a run that never had the card at all);
* (c) revival restores the pre-kill service level;
* (d) arming the permanent-failure layer with a crash-free plan leaves
  runs byte-identical to unarmed ones;
* (e) the invariant checker passes on every artifact this suite
  produces — and fails loudly on a seeded mutation that double-counts
  a rescued request.
"""

import json

import pytest

from repro.core import Mode
from repro.faults import CrashPlan, DomainCrash
from repro.resilience import (
    RecoveryScenarioConfig,
    run_recovery_scenario,
    verify_artifact_path,
)
from repro.serve import SweepConfig, calibrate_peak_rps

#: STANDALONE, 4 tenants → two cards; drx.s0 carries tenants 0 and 1.
TARGET = "drx.s0"
N_TENANTS = 4
REQUESTS = 48
DETECT_BUDGET_S = 1e-3


def _calibrate():
    probe = SweepConfig(
        offered_loads_rps=(1.0,),
        benchmark="sound-detection",
        n_tenants=N_TENANTS,
    )
    return calibrate_peak_rps(probe, Mode.STANDALONE)


@pytest.fixture(scope="module")
def timeline():
    """Offered load and the kill/revive schedule, derived from the
    model's own calibrated capacity so the scenario stays mid-knee
    under cost-model drift."""
    offered = 0.4 * _calibrate()
    span = REQUESTS * N_TENANTS / offered  # expected arrival span
    return {
        "offered_rps": offered,
        "span_s": span,
        "kill_at_s": 0.25 * span,
        "revive_at_s": 0.55 * span,
    }


def _scenario(tl, crashes, path=None, **overrides):
    kwargs = dict(
        offered_rps=tl["offered_rps"],
        crashes=crashes,
        n_tenants=N_TENANTS,
        requests_per_tenant=REQUESTS,
        benchmark="sound-detection",
        slo_s=50e-3,
        seed=0,
        artifact_path=path,
    )
    kwargs.update(overrides)
    return run_recovery_scenario(RecoveryScenarioConfig(**kwargs))


@pytest.fixture(scope="module")
def killed(timeline, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("recovery") / "killed.jsonl")
    crashes = (DomainCrash(target=TARGET, at_s=timeline["kill_at_s"]),)
    return _scenario(timeline, crashes, path)


@pytest.fixture(scope="module")
def revived(timeline, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("recovery") / "revived.jsonl")
    crashes = (DomainCrash(
        target=TARGET,
        at_s=timeline["kill_at_s"],
        revive_at_s=timeline["revive_at_s"],
    ),)
    return _scenario(timeline, crashes, path)


@pytest.fixture(scope="module")
def amputated(timeline):
    """The (N−1)-card baseline: the card dies before any traffic."""
    return _scenario(
        timeline, (DomainCrash(target=TARGET, at_s=1e-9),), verify=False
    )


@pytest.fixture(scope="module")
def healthy(timeline):
    """The never-killed reference run (an empty crash schedule)."""
    return _scenario(timeline, (), verify=False)


# -- (a) detection, decommission, drain ---------------------------------------


def test_kill_detected_within_budget(killed, timeline):
    detect = killed.detect_latency_s[TARGET]
    assert detect is not None
    assert detect <= DETECT_BUDGET_S
    assert killed.domains["decommissioned"] == [TARGET]


def test_nothing_burns_deadline_after_the_drain(killed, timeline):
    """Every request touching the corpse is disposed of when drained —
    rescued then, not parked to burn deadline budget first."""
    from repro.telemetry import load_artifact

    assert all(not r.failed for r in killed.records)
    artifact = load_artifact(killed.artifact_path)
    dead_at = next(
        i.time for i in artifact.instants if i.name == "domain_dead"
    )
    drains = [i for i in artifact.instants if i.name == "domain_drain"]
    assert drains
    # Decommission happens at the first drain; nothing drains later
    # (post-detection dispatch never offers the corpse again).
    assert max(i.time for i in drains) <= dead_at + 1e-9
    assert killed.domains["drained"] == killed.domains["rescued"] > 0


# -- (b) post-kill goodput vs the (N−1)-card baseline --------------------------


def test_post_kill_goodput_matches_amputated_baseline(
    killed, amputated, timeline
):
    start = timeline["kill_at_s"] + 0.1 * timeline["span_s"]
    end = 0.9 * timeline["span_s"]
    after_kill = killed.goodput_between(start, end)
    baseline = amputated.goodput_between(start, end)
    assert baseline > 0
    assert after_kill == pytest.approx(baseline, rel=0.10), (
        f"post-kill goodput {after_kill:.1f} rps strays from the "
        f"(N-1)-card baseline {baseline:.1f} rps"
    )


# -- (c) revival restores the pre-kill service level ---------------------------


def test_revival_restores_pre_kill_service(revived, healthy, timeline):
    """Once the revived card is back and the dead-period backlog has
    drained, windowed goodput matches a run that never saw the kill —
    the pre-kill knee is restored, not merely approached."""
    assert revived.domains["revived"] == [TARGET]
    window = (0.65 * timeline["span_s"], 0.95 * timeline["span_s"])
    post = revived.goodput_between(*window)
    reference = healthy.goodput_between(*window)
    assert reference > 0
    assert post == pytest.approx(reference, rel=0.10), (
        f"post-revival goodput {post:.1f} rps does not recover the "
        f"healthy level {reference:.1f} rps"
    )


def test_revived_card_serves_again(revived, timeline):
    from repro.telemetry import load_artifact

    artifact = load_artifact(revived.artifact_path)
    back = [
        s for s in artifact.spans
        if s.actor == TARGET and s.start > timeline["revive_at_s"]
    ]
    assert back, "the revived card must serve new legs"


# -- (d) crash-free armed runs are byte-identical ------------------------------


def test_armed_crash_free_run_is_byte_identical(tmp_path):
    from repro.core import SystemConfig
    from repro.serve import FrontendConfig, Scenario, run_scenario

    def run(domains, path):
        run_scenario(
            Scenario(
                offered_rps=500.0 * N_TENANTS,
                requests_per_tenant=8,
                n_tenants=N_TENANTS,
                system=SystemConfig(mode=Mode.STANDALONE),
                domains=domains,
                frontend=FrontendConfig(max_inflight=8, slo_s=50e-3),
            ),
            path,
            meta={"k": "identity"},
        )
        with open(path, "rb") as fh:
            return fh.read()

    unarmed = run(None, str(tmp_path / "unarmed.jsonl"))
    # A crash-free plan arms nothing at all.
    armed = run(CrashPlan(), str(tmp_path / "armed.jsonl"))
    assert armed == unarmed


# -- (e) the checker signs off — and catches cooked books ----------------------


def test_invariants_pass_on_every_artifact(killed, revived):
    for result in (killed, revived):
        report = verify_artifact_path(result.artifact_path)
        assert report.ok, report.problems
        assert report.checked["C5-rescue"] > 0


def test_checker_fails_on_double_counted_rescue(killed, tmp_path):
    rows = [json.loads(line) for line in open(killed.artifact_path)]
    rescued = next(
        r for r in rows
        if r["kind"] == "span" and r["cat"] == "request"
        and r["attrs"].get("rescued")
    )
    for row in rows:
        if row["kind"] == "span" and row["req"] == rescued["req"]:
            row["attrs"].pop("abandoned", None)
    path = str(tmp_path / "cooked.jsonl")
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True,
                                separators=(",", ":")) + "\n")
    report = verify_artifact_path(path)
    assert not report.ok
    assert any(p.startswith("C5:") for p in report.problems)
