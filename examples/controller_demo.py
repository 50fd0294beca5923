#!/usr/bin/env python
"""Closed-loop controller demo: one load ramp, four actuators.

A four-tenant STANDALONE run whose offered load steps from 30% of the
two-card peak to 115% halfway through. The unified controller
(DESIGN.md §16) senses windowed tail latency and drives all four
actuators from the same loop:

* **weight-update** — per-tenant WRR weights re-derived from live
  health scores and p99-vs-SLO headroom;
* **tier-choice** — the brownout ladder stepped by a per-tier cost
  model (cheapest tier whose priced relief covers the overshoot), not
  by a fixed threshold ladder;
* **scale-up** — a standby DRX card commissioned when the overload
  outruns what degradation alone can buy;
* **migration** — tenant chains re-homed across cards at request
  boundaries to balance load and cut upstream crossings.

The demo prints every decision the controller applied, then the
windowed tail trajectory showing the SLO re-entered and held.

Usage::

    python examples/controller_demo.py
"""

import sys

from repro.control import ControllerConfig
from repro.core import Mode, SystemConfig
from repro.resilience import ResilienceConfig
from repro.resilience.brownout import BrownoutConfig
from repro.serve import (
    Discipline,
    FrontendConfig,
    RampArrivals,
    Scenario,
    SweepConfig,
    TenantSpec,
    calibrate_peak_rps,
    run_scenario,
)
from repro.telemetry.alerts import ObservationConfig

N_TENANTS = 4
SLO_S = 30e-3

#: action kind -> the label a human (and the CI grep) reads.
KIND_LABELS = {
    "weight": "weight-update",
    "tier": "tier-choice",
    "scale_up": "scale-up",
    "scale_down": "scale-down",
    "migration": "migration",
}


def main() -> int:
    probe = SweepConfig(
        offered_loads_rps=(1.0,),
        benchmark="sound-detection",
        n_tenants=N_TENANTS,
    )
    peak = calibrate_peak_rps(probe, Mode.STANDALONE)
    quiet, hot = 0.30 * peak, 1.15 * peak
    print(f"calibrated two-card peak: {peak:.0f} rps")
    print(f"ramp: {quiet:.0f} rps for 50 ms, then {hot:.0f} rps "
          f"({hot / peak:.0%} of peak) — SLO p99 <= {SLO_S * 1e3:.0f} ms")

    result, frontend = run_scenario(Scenario(
        tenants=tuple(
            TenantSpec(
                name="",
                arrivals=RampArrivals(
                    segments=((0.05, quiet / N_TENANTS),
                              (0.05, hot / N_TENANTS)),
                ),
                n_requests=120,
                priority=i % 2,
            )
            for i in range(N_TENANTS)
        ),
        n_tenants=N_TENANTS,
        system=SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(seed=7),
        frontend=FrontendConfig(
            max_inflight=6, discipline=Discipline.WRR, slo_s=SLO_S,
            brownout=BrownoutConfig(min_dwell_s=4e-3),
            controller=ControllerConfig(
                standby_cards=1, deescalate_fraction=0.2,
            ),
            observation=ObservationConfig(alerts=None),
        ),
        seed=3,
    ))

    print("\ncontroller decisions:")
    for at, kind, detail in frontend.controller_actions:
        label = KIND_LABELS.get(kind, kind)
        print(f"  t={at * 1e3:7.2f}ms  {label:13s} {detail}")

    print("\nworst tenant windowed p99 (10 ms windows):")
    worst = {}
    for key in result.rollups.keys("tenant"):
        for window in result.rollups.for_key("tenant", key):
            p99 = window.stats.get("p99_s")
            if p99 is not None:
                worst[window.window] = max(
                    worst.get(window.window, 0.0), p99
                )
    for win in sorted(worst):
        p99 = worst[win]
        bar = "#" * min(60, int(p99 * 1e3))
        mark = " <- SLO violated" if p99 > SLO_S else ""
        print(f"  w{win:3d} {p99 * 1e3:6.1f}ms {bar}{mark}")

    print(f"\ncompleted {result.completed}, shed {result.shed} "
          f"(sheddable tenants first), violations {result.violations}")
    settled = [p for w, p in worst.items() if w >= 18]
    print(f"settled windows (>= w18) worst p99: "
          f"{max(settled) * 1e3:.1f} ms vs SLO {SLO_S * 1e3:.0f} ms -> "
          f"{'HELD' if max(settled) <= SLO_S else 'LOST'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
