"""The static-price memo is exact, and the armed path prices once.

Every backend estimate splits into a static per-leg price (memoized on
the leg object) and a live queue term. These tests pin that the split is
invisible: a memoized estimate equals, bit for bit, the estimate of a
backend whose memo is empty — at live queue depths, after a migration,
and across a crash and revival. A regression guard then runs a small
armed serve and fails if any route or price is computed twice.
"""

import copy
from collections import Counter

from repro.accelerators.base import AcceleratorSpec
from repro.backends import (
    BACKEND_CPU,
    BACKEND_DRX,
    CPUBackend,
    DRXBackend,
    DSABackend,
    PlannerConfig,
    XDMABackend,
)
from repro.control import ControllerConfig
from repro.control.cost import TierCostModel, _representative_leg
from repro.core import (
    AppChain,
    DMXSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.faults import CrashPlan, DomainCrash
from repro.interconnect import Fabric
from repro.profiles import WorkProfile
from repro.resilience import ResilienceConfig
from repro.resilience.brownout import BrownoutConfig, BrownoutTier
from repro.serve import (
    FrontendConfig,
    PoissonArrivals,
    ServingFrontend,
    TenantSpec,
)

KB = 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)
BACKEND_CLASSES = (DRXBackend, CPUBackend, DSABackend, XDMABackend)


def make_chain(i, payload=16 * KB):
    profile = WorkProfile(
        name="motion", bytes_in=payload, bytes_out=payload // 2,
        elements=payload, ops_per_element=4.0 + 8 * (i % 2),
        gather_fraction=0.05 + 0.25 * (i % 2),
    )
    return AppChain(
        name=f"app{i}",
        stages=[
            KernelStage("k1", SPEC, cpu_time_s=30e-6, accel_time_s=2e-6,
                        output_bytes=payload),
            MotionStage("m1", profile, input_bytes=payload,
                        output_bytes=payload // 2, cpu_threads=1 + 2 * i),
            KernelStage("k2", SPEC, cpu_time_s=24e-6, accel_time_s=2e-6,
                        output_bytes=payload // 2),
            MotionStage("m2", profile, input_bytes=payload // 2,
                        output_bytes=payload // 4, cpu_threads=2),
            KernelStage("k3", SPEC, cpu_time_s=12e-6, accel_time_s=1e-6,
                        output_bytes=payload // 4),
        ],
    )


def make_system(mode, n_apps=4, **kwargs):
    return DMXSystem(
        [make_chain(i) for i in range(n_apps)],
        SystemConfig(mode=mode, accelerators_per_switch=4),
        backends=PlannerConfig(),
        **kwargs,
    )


def legs_of(system, counts=(1, 3)):
    """Every motion leg the system's motion path would dispatch, as the
    system's own cached :class:`LegSpec` objects."""
    mode = system.config.mode
    legs = []
    for app_index, chain in enumerate(system.chains):
        for stage_index, stage in enumerate(chain.stages):
            if not isinstance(stage, MotionStage):
                continue
            src = system.accel_name(app_index, stage_index // 2)
            dst = system.accel_name(app_index, stage_index // 2 + 1)
            if mode.uses_drx:
                drx, staging = system._drx_placement(mode, src, app_index)
            else:
                drx, staging = None, "root"
            for count in counts:
                legs.append(
                    system._leg_spec(src, dst, stage, count, drx, staging)
                )
    return legs


def unmemoized(backend):
    """The same backend (same system, devices and queue weight) with an
    empty price memo, so every estimate is priced from scratch."""
    fresh = copy.copy(backend)
    fresh._prices = {}
    return fresh


def assert_exact(system, legs):
    """Memoized estimates equal from-scratch ones bit for bit; returns
    how many (backend, leg) pairs were compared."""
    compared = 0
    for backend in system.planner.backends.values():
        for leg in legs:
            if not backend.eligible(leg):
                continue
            memo = backend.estimate(leg)
            assert memo == unmemoized(backend).estimate(leg), (
                backend.kind, leg.src, leg.count,
            )
            # The second read is a memo hit and must not drift either.
            assert backend.estimate(leg) == memo
            compared += 1
    return compared


def resource_of(backend, leg):
    """The DES resource whose occupancy ``backend.queue_depth`` reads."""
    if backend.kind == BACKEND_DRX:
        return leg.drx._server
    if backend.kind == BACKEND_CPU:
        return backend.system.cpu.cores
    return backend.device._server


def occupy(backend, leg, depth):
    """Raise ``backend.queue_depth(leg)`` to ``depth`` by putting
    long-running jobs on the real resource. The CPU's depth counts only
    waiting jobs, so its cores fill first."""
    resource = resource_of(backend, leg)
    job = resource.use if hasattr(resource, "use") else resource.transfer
    sim = backend.system.sim
    while backend.queue_depth(leg) < depth:
        sim.spawn(job(10.0))
        sim.run(until=sim.now + 1e-9)
    assert backend.queue_depth(leg) == depth


def test_memoized_estimates_are_exact_at_live_queue_depths():
    for mode in Mode:
        for cls in BACKEND_CLASSES:
            system = make_system(mode)
            (backend,) = [
                b for b in system.planner.backends.values()
                if type(b) is cls
            ]
            legs = [leg for leg in legs_of(system) if backend.eligible(leg)]
            for depth in (0, 1, 5):
                for leg in legs:
                    occupy(backend, leg, depth)
                    memo = backend.estimate(leg)
                    assert memo.depth == depth
                    assert memo == unmemoized(backend).estimate(leg), (
                        mode, cls.__name__, depth, leg.src, leg.count,
                    )
                    assert backend.estimate(leg) == memo  # a memo hit


def test_migration_prices_the_new_card_leg_exactly():
    system = make_system(Mode.STANDALONE)
    model = TierCostModel(
        system, shed_cost_weight=2.0, coalesce_relief_fraction=0.35,
        coalesce_cost_s=1e-3, energy_cost_s_per_j=0.0,
        max_tier=BrownoutTier.FORCE_CPU,
    )
    before = model.bids(20e-3, shed_fraction=0.5)
    old = system.card_of_app(0)
    new = next(c for c in system.standalone_cards() if c != old)
    old_leg = _representative_leg(system, 0)
    system.migrate_app(0, new)
    leg = _representative_leg(system, 0)
    assert leg is not old_leg and leg.drx is system.drx_devices[new]
    assert leg.staging == new
    assert assert_exact(system, legs_of(system)) > 0
    # The bids move with the placement and stay exact.
    after = model.bids(20e-3, shed_fraction=0.5)
    assert after != before
    fresh = TierCostModel(
        system, shed_cost_weight=2.0, coalesce_relief_fraction=0.35,
        coalesce_cost_s=1e-3, energy_cost_s_per_j=0.0,
        max_tier=BrownoutTier.FORCE_CPU,
    )
    fresh._drx = unmemoized(model._drx)
    fresh._cpu = unmemoized(model._cpu)
    assert fresh.bids(20e-3, shed_fraction=0.5) == after
    # Migrating back returns the very same cached leg (and its price).
    system.migrate_app(0, old)
    assert _representative_leg(system, 0) is old_leg


def test_representative_leg_is_the_system_cached_leg():
    system = make_system(Mode.STANDALONE)
    for app_index, chain in enumerate(system.chains):
        drx = system.drx_devices[system.card_of_app(app_index)]
        stage = chain.stages[1]
        expected = system._leg_spec(
            system.accel_name(app_index, 0), system.accel_name(app_index, 1),
            stage, 1, drx, drx.name,
        )
        assert _representative_leg(system, app_index) is expected


def test_estimates_stay_exact_across_a_crash_and_revival():
    target = "drx.s0"
    system = make_system(
        Mode.STANDALONE,
        resilience=ResilienceConfig(),
        domains=CrashPlan(
            crashes=(DomainCrash(target, at_s=150e-6, revive_at_s=600e-6),)
        ),
    )
    legs = legs_of(system)
    seen = []

    def probe():
        for at in (50e-6, 250e-6, 450e-6, 900e-6):
            yield system.sim.timeout(at - system.sim.now)
            seen.append(system.domains.is_down(target))
            assert assert_exact(system, legs) > 0

    system.sim.spawn(probe())
    result = system.run_throughput(requests_per_app=12)
    assert not any(r.failed for r in result.records)
    # The probes straddled the kill and the revival.
    assert seen[0] is False and True in seen and seen[-1] is False


# -- regression guard: static work is done once --------------------------------


def test_armed_serve_walks_each_route_and_prices_each_leg_once(monkeypatch):
    """A small armed serve (STANDALONE, 4-backend planner, controller
    driving tiers with one standby card): every route is walked at most
    once per (src, dst), and every price computed at most once per
    backend and leg, only ever for legs the system itself caches."""
    routes = Counter()
    prices = Counter()
    priced = {}  # id(leg) -> leg, keeping priced legs alive
    bids = Counter()
    original_path = Fabric.path
    original_bids = TierCostModel.bids

    def counted_path(self, src, dst):
        routes[id(self), src, dst] += 1
        return original_path(self, src, dst)

    def counted_bids(self, *args, **kwargs):
        bids[id(self)] += 1
        return original_bids(self, *args, **kwargs)

    monkeypatch.setattr(Fabric, "path", counted_path)
    monkeypatch.setattr(TierCostModel, "bids", counted_bids)
    for cls in BACKEND_CLASSES:
        def counted_price(self, leg, _original=cls._price):
            priced[id(leg)] = leg
            prices[id(self), id(leg)] += 1
            return _original(self, leg)

        monkeypatch.setattr(cls, "_price", counted_price)

    system = DMXSystem(
        [make_chain(i) for i in range(4)],
        SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(seed=3),
        backends=PlannerConfig(),
    )
    tenants = [
        TenantSpec(
            name=chain.name, arrivals=PoissonArrivals(6000.0),
            n_requests=60, priority=i % 2,
        )
        for i, chain in enumerate(system.chains)
    ]
    frontend = ServingFrontend(
        system, tenants,
        FrontendConfig(
            max_inflight=6, slo_s=150e-6,
            brownout=BrownoutConfig(min_dwell_s=1e-4),
            controller=ControllerConfig(
                standby_cards=1, update_period_s=1e-4, min_samples=2,
            ),
        ),
        seed=1,
    )
    frontend.run()

    assert sum(bids.values()) > 5, "the controller never priced its tiers"
    assert routes and prices
    assert [key for key, n in routes.items() if n > 1] == []
    assert [key for key, n in prices.items() if n > 1] == []
    cached = {id(leg) for leg in system._legs.values()}
    assert set(priced) <= cached
