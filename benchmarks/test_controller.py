"""Closed-loop acceptance: the unified controller holds the SLO where
every static policy fails, and recovers capacity after a kill without
hand-set weights.

Two scenarios, both calibrated from the model's own two-card peak so
they stay mid-knee under cost-model drift:

**Load ramp.** Offered load steps from 30% of peak to 115% of peak
halfway through the run. The armed system — live WRR weights, the
priced brownout ladder, the DRX autoscaler (one standby card), and the
placement optimizer all driven by one controller — may overshoot during
the step transient, but must re-enter the SLO within a bounded number
of rollup windows and *hold* it for every settled window after. Each
static baseline keeps violating in that same settled region:

* *fixed capacity* — the single-card quiet-load provision, never
  scaled (the armed run starts from the same one-card provision and
  commissions its standby under pressure);
* *fixed weights* — a hand-set WRR skew that starves one tenant;
* *fixed ladder* — the open-loop threshold brownout with no controller
  behind it.

**Kill.** A steady mid-knee run loses one card mid-run. The armed
controller must evacuate the dead card's tenants at request boundaries
(no hand-set weights, no pre-planned failover) and land within 10% of
the amputated baseline's goodput — the (N−1)-card service level, not a
degraded one.

Both scenarios are deterministic: equal seeds replay byte-identically,
so every threshold below is exact, not statistical.
"""

import pytest

from repro.control import ControllerConfig
from repro.core import DMXSystem, Mode, SystemConfig
from repro.faults import CrashPlan, DomainCrash
from repro.resilience import ResilienceConfig
from repro.resilience.brownout import BrownoutConfig
from repro.serve import (
    Discipline,
    FrontendConfig,
    PoissonArrivals,
    RampArrivals,
    Scenario,
    ServingFrontend,
    SweepConfig,
    TenantSpec,
    calibrate_peak_rps,
    run_scenario,
)
from repro.telemetry.alerts import ObservationConfig

N_TENANTS = 4
REQUESTS = 120
SLO_S = 30e-3
LEG_S = 0.05  # each ramp segment's duration
#: Rollup windows (10 ms each) before which the step transient must be
#: over: every window from here on must hold the SLO. The hot leg
#: starts at window 5, so this grants the controller ~130 ms to sense,
#: shed, scale, and migrate.
SETTLE_WINDOW = 18


def _controller(**overrides):
    # The de-escalation band floor is set below the shed-equilibrium
    # tail (~7 ms here) on purpose: with the default band the
    # controller de-escalates out of a perfectly good shed state, the
    # overload excursion repeats, and the run limit-cycles at ~200 ms
    # period. Wide bands are how real operators stop flapping.
    kwargs = dict(deescalate_fraction=0.2)
    kwargs.update(overrides)
    return ControllerConfig(**kwargs)


@pytest.fixture(scope="module")
def peak():
    probe = SweepConfig(
        offered_loads_rps=(1.0,),
        benchmark="sound-detection",
        n_tenants=N_TENANTS,
    )
    return calibrate_peak_rps(probe, Mode.STANDALONE)


def _ramp_run(peak, *, controller=None, brownout=None, weights=None,
              kill=None):
    quiet = 0.30 * peak / N_TENANTS
    hot = 1.15 * peak / N_TENANTS
    scenario = Scenario(
        tenants=tuple(
            TenantSpec(
                name="",
                arrivals=RampArrivals(
                    segments=((LEG_S, quiet), (LEG_S, hot))
                ),
                n_requests=REQUESTS,
                weight=(weights[i] if weights else 1),
                priority=i % 2,
            )
            for i in range(N_TENANTS)
        ),
        n_tenants=N_TENANTS,
        system=SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(seed=7),
        frontend=FrontendConfig(
            max_inflight=6, discipline=Discipline.WRR, slo_s=SLO_S,
            brownout=brownout, controller=controller,
            observation=ObservationConfig(alerts=None),
        ),
        seed=3,
    )
    if kill is None:
        result, frontend = run_scenario(scenario)
        return result, frontend.controller_actions
    # The fixed-capacity baseline never gets the killed card: it is
    # decommissioned before the first arrival.
    chains = scenario.build_chains()
    system = DMXSystem(
        chains, scenario.system, resilience=scenario.resilience
    )
    system.control.mark_dead(kill)
    frontend = ServingFrontend(
        system, scenario.tenant_specs(chains), scenario.frontend,
        seed=scenario.seed,
    )
    result = frontend.run()
    return result, frontend.controller_actions


def _worst_window_p99(result):
    """window index → max tenant-windowed p99 across tenants."""
    worst = {}
    for key in result.rollups.keys("tenant"):
        for window in result.rollups.for_key("tenant", key):
            p99 = window.stats.get("p99_s")
            if p99 is not None:
                worst[window.window] = max(
                    worst.get(window.window, 0.0), p99
                )
    return worst


@pytest.fixture(scope="module")
def armed_ramp(peak):
    return _ramp_run(
        peak,
        controller=_controller(standby_cards=1),
        brownout=BrownoutConfig(min_dwell_s=4e-3),
    )


# -- the armed system holds the SLO -------------------------------------------


def test_armed_holds_windowed_p99_after_settling(armed_ramp):
    result, _ = armed_ramp
    worst = _worst_window_p99(result)
    settled = {w: p for w, p in worst.items() if w >= SETTLE_WINDOW}
    assert settled, "the run must outlive the settle point"
    violations = {w: p for w, p in settled.items() if p > SLO_S}
    assert not violations, (
        f"armed controller lost the SLO in settled windows: "
        f"{ {w: round(p * 1e3, 1) for w, p in violations.items()} } ms"
    )


def test_armed_transient_is_bounded(armed_ramp):
    """The step overshoot exists — this scenario is a real overload,
    not a gimme — but every violating window precedes the settle
    point: the controller recovers, it does not merely coexist."""
    result, _ = armed_ramp
    worst = _worst_window_p99(result)
    violating = [w for w, p in worst.items() if p > SLO_S]
    assert violating, "the ramp must actually stress the system"
    assert max(violating) < SETTLE_WINDOW


def test_armed_run_engages_every_actuator(armed_ramp):
    _, actions = armed_ramp
    kinds = {kind for _, kind, _ in actions}
    assert {"weight", "tier", "scale_up", "migration"} <= kinds, kinds


# -- every static baseline fails where the armed system holds -----------------


@pytest.mark.parametrize(
    "label,overrides",
    [
        ("fixed-capacity", dict(kill="drx.s1")),
        ("fixed-weights", dict(weights=[8, 8, 8, 1])),
        ("fixed-ladder", dict(brownout=BrownoutConfig(min_dwell_s=4e-3))),
    ],
)
def test_static_baseline_violates_in_the_settled_region(
    peak, label, overrides
):
    result, _ = _ramp_run(peak, **overrides)
    worst = _worst_window_p99(result)
    settled_violations = [
        w for w, p in worst.items() if w >= SETTLE_WINDOW and p > SLO_S
    ]
    assert settled_violations, (
        f"{label}: expected persistent SLO violations after window "
        f"{SETTLE_WINDOW}, found none — the baseline is not a baseline"
    )


# -- kill recovery without hand-set weights -----------------------------------


def _kill_run(peak, crashes):
    offered = 0.4 * peak
    result, frontend = run_scenario(Scenario(
        tenants=tuple(
            TenantSpec(
                name="",
                arrivals=PoissonArrivals(offered / N_TENANTS),
                n_requests=48,
                priority=i % 2,
            )
            for i in range(N_TENANTS)
        ),
        n_tenants=N_TENANTS,
        system=SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(seed=7),
        domains=CrashPlan(crashes=crashes),
        frontend=FrontendConfig(
            max_inflight=6, discipline=Discipline.WRR, slo_s=50e-3,
            brownout=BrownoutConfig(min_dwell_s=4e-3),
            controller=_controller(standby_cards=0),
            observation=ObservationConfig(alerts=None),
        ),
        seed=3,
    ))
    return result, frontend.controller_actions


def _goodput_between(result, start_s, end_s):
    completed = sum(
        1 for r in result.records
        if not r.failed and start_s <= r.end < end_s
    )
    return completed / (end_s - start_s)


@pytest.fixture(scope="module")
def kill_timeline(peak):
    offered = 0.4 * peak
    span = 48 * N_TENANTS / offered  # expected arrival span
    return {"span_s": span, "kill_at_s": 0.25 * span}


@pytest.fixture(scope="module")
def killed(peak, kill_timeline):
    crashes = (DomainCrash(target="drx.s0",
                           at_s=kill_timeline["kill_at_s"]),)
    return _kill_run(peak, crashes)


@pytest.fixture(scope="module")
def amputated(peak):
    return _kill_run(peak, (DomainCrash(target="drx.s0", at_s=1e-9),))


def test_controller_evacuates_the_dead_card(killed, kill_timeline):
    result, actions = killed
    evacuations = [
        (t, detail) for t, kind, detail in actions
        if kind == "migration" and "decommissioned" in detail
    ]
    # Both of drx.s0's tenants re-home onto the survivor, at request
    # boundaries, shortly after the kill — not at the end of the run.
    assert len(evacuations) == 2
    deadline = kill_timeline["kill_at_s"] + 0.05 * kill_timeline["span_s"]
    assert all(t <= deadline for t, _ in evacuations), evacuations
    assert all("-> drx.s1" in detail for _, detail in evacuations)
    assert not any(r.failed for r in result.records)


def test_post_kill_goodput_matches_the_amputated_baseline(
    killed, amputated, kill_timeline
):
    start = kill_timeline["kill_at_s"] + 0.1 * kill_timeline["span_s"]
    end = 0.9 * kill_timeline["span_s"]
    after_kill = _goodput_between(killed[0], start, end)
    baseline = _goodput_between(amputated[0], start, end)
    assert baseline > 0
    assert after_kill == pytest.approx(baseline, rel=0.10), (
        f"post-kill goodput {after_kill:.1f} rps strays from the "
        f"(N-1)-card level {baseline:.1f} rps"
    )
