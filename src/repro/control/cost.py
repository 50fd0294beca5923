"""Per-tier cost model: what does each brownout tier buy, and at what
price, *right now*?

The open-loop ladder steps one tier at a time on a threshold; the
closed-loop controller instead asks each tier for a priced bid —
estimated tail-latency **relief** (seconds of windowed tail the tier is
expected to shave) against the **cost** it charges (goodput shed,
formation latency added, host restructuring time and energy paid) — and
picks the *cheapest sufficient* tier: the lowest-cost rung whose relief
covers the current SLO overshoot.

All prices come from the same :class:`~repro.backends.base.CostEstimate`
machinery the per-leg planner ranks on: the DRX/CPU backends are priced
on a representative leg per application chain (the chain's first motion
stage, staged on the app's *current* card — live queue depths and the
live placement both feed the bid). That leg is the system's cached
``LegSpec``, the one the motion path dispatches, so its static price is
memoized and a tick re-reads only the queue terms; a migration swaps the
leg. Estimates are pure functions of DES state: pricing a tier advances
no clock and draws no randomness, so two equal-seed runs bid — and
therefore step — identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from ..backends.base import CPUBackend, DRXBackend, LegSpec
from ..core.chain import MotionStage
from ..resilience.brownout import BrownoutTier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.system import DMXSystem

__all__ = ["TierBid", "TierCostModel"]


@dataclass(frozen=True)
class TierBid:
    """One tier's priced offer: relief bought vs. cost charged."""

    tier: BrownoutTier
    relief_s: float
    paid_s: float

    def describe(self) -> str:
        return (
            f"{self.tier.name}: relief={self.relief_s * 1e6:.1f}us "
            f"paid={self.paid_s * 1e6:.1f}us"
        )


def _representative_leg(system: "DMXSystem", app_index: int) -> LegSpec:
    """The chain's first motion stage, bound to its *current* card."""
    chain = system.chains[app_index]
    for stage_index, stage in enumerate(chain.stages):
        if not isinstance(stage, MotionStage):
            continue
        src = system._accel_names[(app_index, stage_index - 1)]
        dst = system._accel_names[(app_index, stage_index + 1)]
        drx = system.drx_devices[system.card_of_app(app_index)]
        return system._leg_spec(src, dst, stage, 1, drx, drx.name)
    raise ValueError(f"chain {chain.name!r} has no motion stage to price")


class TierCostModel:
    """Price the brownout tiers on live backend estimates.

    ``shed_fraction`` (the load share belonging to sheddable tenants)
    and the per-chain queue estimates are re-read at every evaluation,
    so bids track the run: a migration that drains a hot card's queue
    immediately lowers FORCE_CPU's relief (there is less queueing left
    to dodge), and the model de-escalates on the next update.
    """

    def __init__(
        self,
        system: "DMXSystem",
        shed_cost_weight: float,
        coalesce_relief_fraction: float,
        coalesce_cost_s: float,
        energy_cost_s_per_j: float,
        max_tier: BrownoutTier,
    ):
        self.system = system
        self.shed_cost_weight = shed_cost_weight
        self.coalesce_relief_fraction = coalesce_relief_fraction
        self.coalesce_cost_s = coalesce_cost_s
        self.energy_cost_s_per_j = energy_cost_s_per_j
        self.max_tier = max_tier
        # Reuse the armed planner's backends when present (their
        # queue_weight matches what dispatch actually pays); otherwise
        # build bare ones — both price without touching the sim.
        planner = system.planner
        backends = planner.backends if planner is not None else {}
        self._drx = backends.get("drx") or DRXBackend(system)
        self._cpu = backends.get("cpu") or CPUBackend(system)

    def bids(self, slo_s: float, shed_fraction: float) -> List[TierBid]:
        """Current bids for every actionable tier, in tier order."""
        legs = [
            _representative_leg(self.system, app_index)
            for app_index in range(len(self.system.chains))
        ]
        n = len(legs)
        drx_ests = [self._drx.estimate(leg) for leg in legs]
        cpu_ests = [self._cpu.estimate(leg) for leg in legs]
        queue_s = sum(e.queue_s for e in drx_ests) / n
        drx_service = sum(e.service_s for e in drx_ests) / n
        cpu_total = sum(e.total_s for e in cpu_ests) / n
        energy_delta = max(
            0.0,
            sum(e.energy_j for e in cpu_ests) / n
            - sum(e.energy_j for e in drx_ests) / n,
        )
        bids = [
            # Shedding removes the sheddable tenants' share of the
            # queueing pressure; its price is the goodput destroyed,
            # converted to latency units via the configured weight.
            TierBid(
                tier=BrownoutTier.SHED_LOW,
                relief_s=shed_fraction * queue_s,
                paid_s=self.shed_cost_weight * shed_fraction * slo_s,
            ),
            # Coalescing amortizes the control path (descriptor chains,
            # doorbells, one completion ISR): a configured fraction of
            # the queueing pressure, paid for in formation delay.
            TierBid(
                tier=BrownoutTier.COALESCE,
                relief_s=self.coalesce_relief_fraction * queue_s,
                paid_s=self.coalesce_cost_s,
            ),
            # Host restructuring dodges the DRX queue entirely, but the
            # service-time gap is *signed*: when the CPU path is slower
            # than DRX service (the usual case), forcing it is net harm
            # unless the dodged queue exceeds the slowdown. An unsigned
            # gap here once made FORCE_CPU look mildly helpful under any
            # backlog, and the controller pinned every request onto the
            # slow host path.
            TierBid(
                tier=BrownoutTier.FORCE_CPU,
                relief_s=queue_s + (drx_service - cpu_total),
                paid_s=max(0.0, cpu_total - drx_service)
                + self.energy_cost_s_per_j * energy_delta,
            ),
        ]
        return [b for b in bids if b.tier <= self.max_tier]

    def choose(
        self, tail_s: float, slo_s: float, target_fraction: float,
        shed_fraction: float,
    ) -> "tuple[BrownoutTier, List[TierBid]]":
        """The cheapest tier whose relief covers the overshoot.

        ``needed = tail - target_fraction * slo``; non-positive means
        the system is inside its headroom target and NORMAL suffices.
        When no tier's relief covers the overshoot, the biggest-relief
        tier wins (cheapest among ties) — degrade as far as the ladder
        can usefully go rather than giving up.
        """
        bids = self.bids(slo_s, shed_fraction)
        needed = tail_s - target_fraction * slo_s
        if needed <= 0.0:
            return BrownoutTier.NORMAL, bids
        sufficient = [b for b in bids if b.relief_s >= needed]
        if sufficient:
            best = min(sufficient, key=lambda b: (b.paid_s, int(b.tier)))
            return best.tier, bids
        best = max(bids, key=lambda b: (b.relief_s, -b.paid_s, -int(b.tier)))
        return best.tier, bids
