"""One serving scenario and the one runner that executes it.

A :class:`Scenario` is one point of the design space every serving
experiment samples: a chain set, a :class:`~repro.core.placement.SystemConfig`
(placement ``Mode`` included), the system's optional arms (faults,
breakers, planner, crash plan), a :class:`~repro.serve.frontend.FrontendConfig`
(dispatch, batching, brownout, controller, observation), and the
tenants' traffic. :func:`run_scenario` turns it into chains →
:class:`~repro.core.system.DMXSystem` → tenant specs →
:class:`~repro.serve.frontend.ServingFrontend` → run, and optionally
writes (and verifies) the run's telemetry artifact.

The load sweep, the chaos sweep and the recovery scenario are grids
over this one value: each config maps a grid coordinate to a
``Scenario`` (``SweepConfig.scenario``, ``ChaosSweepConfig.scenario``,
``RecoveryScenarioConfig.scenario``), so the three harnesses share one
build path, one artifact writer and one set of input checks. A
scenario replays exactly: chains are rebuilt per run and all
randomness is seeded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Tuple,
)

from ..core.chain import AppChain
from ..core.placement import SystemConfig
from ..core.system import DMXSystem
from ..faults import CrashPlan, FaultPlan
from ..resilience.control import ResilienceConfig
from .arrivals import make_arrivals
from .frontend import FrontendConfig, ServingFrontend, TenantSpec
from .slo import ServeResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.planner import PlannerConfig
    from ..telemetry.sampling import SamplingConfig

__all__ = ["Scenario", "ScenarioRun", "run_scenario"]


@dataclass(frozen=True)
class Scenario:
    """Everything one serving run is built from.

    **Traffic** comes in one of two shapes. With ``offered_rps`` (the
    aggregate load), every chain gets one tenant with ``arrival_kind``
    arrivals at an even share of it, ``requests_per_tenant`` requests
    and ``queue_capacity``. With ``tenants``, chain ``i`` is served by
    ``tenants[i]`` renamed to the chain's name (one spec per chain).

    **Chains** come from the named ``benchmark`` (``n_tenants`` of
    them) unless ``chain_factory`` is given; it must build identical
    chains on every call, since replay rides on it.

    **The system** is ``system`` plus the ``DMXSystem`` arms
    ``faults``, ``resilience``, ``backends`` and ``domains``.
    """

    offered_rps: Optional[float] = None
    arrival_kind: str = "poisson"
    requests_per_tenant: int = 32
    queue_capacity: int = 16
    tenants: Tuple[TenantSpec, ...] = ()
    benchmark: str = "sound-detection"
    n_tenants: int = 2
    chain_factory: Optional[Callable[[], List[AppChain]]] = None
    system: SystemConfig = SystemConfig()
    faults: Optional[FaultPlan] = None
    resilience: Optional[ResilienceConfig] = None
    backends: Optional["PlannerConfig"] = None
    domains: Optional[CrashPlan] = None
    frontend: FrontendConfig = FrontendConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_tenants <= 0:
            raise ValueError("n_tenants must be positive")
        if self.tenants:
            if self.offered_rps is not None:
                raise ValueError("give offered_rps or tenants, not both")
            return
        if self.offered_rps is None or self.offered_rps <= 0:
            raise ValueError("offered_rps must be positive")
        if self.requests_per_tenant <= 0:
            raise ValueError("requests_per_tenant must be positive")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        make_arrivals(self.arrival_kind, self.offered_rps)  # checks the kind

    def build_chains(self) -> List[AppChain]:
        if self.chain_factory is not None:
            return self.chain_factory()
        from ..workloads import build_benchmark_chains

        return build_benchmark_chains(self.benchmark, self.n_tenants)

    def tenant_specs(self, chains: List[AppChain]) -> List[TenantSpec]:
        """The scenario's tenants, bound to ``chains`` by position."""
        if self.tenants:
            if len(self.tenants) != len(chains):
                raise ValueError(
                    f"{len(self.tenants)} tenant specs for "
                    f"{len(chains)} chains"
                )
            return [
                replace(spec, name=chain.name)
                for spec, chain in zip(self.tenants, chains)
            ]
        per_tenant = self.offered_rps / len(chains)
        return [
            TenantSpec(
                name=chain.name,
                arrivals=make_arrivals(self.arrival_kind, per_tenant),
                n_requests=self.requests_per_tenant,
                queue_capacity=self.queue_capacity,
            )
            for chain in chains
        ]


class ScenarioRun(NamedTuple):
    """What :func:`run_scenario` returns: the serving outcome and the
    frontend that produced it (``frontend.system`` is the system)."""

    result: ServeResult
    frontend: ServingFrontend


def run_scenario(
    scenario: Scenario,
    artifact: Optional[str] = None,
    meta: Optional[Dict[str, object]] = None,
    verify: bool = False,
    sampling: Optional["SamplingConfig"] = None,
) -> ScenarioRun:
    """Build and run ``scenario`` once.

    ``artifact`` writes the run's telemetry there (parent directories
    are created), with the scenario's mode, load, seed and SLO in the
    meta row plus ``meta``, the observation sections when armed, and
    only the traces ``sampling`` keeps. ``verify`` then runs the
    conservation invariant checker on the written file and raises
    :class:`~repro.resilience.invariants.InvariantViolation` on any
    problem.
    """
    chains = scenario.build_chains()
    system = DMXSystem(
        chains,
        scenario.system,
        faults=scenario.faults,
        resilience=scenario.resilience,
        backends=scenario.backends,
        domains=scenario.domains,
    )
    frontend = ServingFrontend(
        system,
        scenario.tenant_specs(chains),
        scenario.frontend,
        seed=scenario.seed,
    )
    result = frontend.run()
    if artifact is not None:
        from ..telemetry import plan_sampling, write_artifact

        directory = os.path.dirname(artifact)
        if directory:
            os.makedirs(directory, exist_ok=True)
        write_artifact(
            artifact,
            result.telemetry,
            meta={
                "mode": scenario.system.mode.value,
                "offered_rps": scenario.offered_rps,
                "seed": scenario.seed,
                "slo_s": scenario.frontend.slo_s,
                **(meta or {}),
            },
            rollups=result.rollups,
            alerts=result.alerts,
            sampling=(
                plan_sampling(result.telemetry, sampling, alerts=result.alerts)
                if sampling is not None
                else None
            ),
        )
        if verify:
            from ..resilience.invariants import verify_artifact_path

            verify_artifact_path(artifact).raise_on_problems()
    return ScenarioRun(result, frontend)
