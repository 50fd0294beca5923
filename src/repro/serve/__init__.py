"""Online multi-tenant serving layer over the DMX system model.

Where :meth:`~repro.core.system.DMXSystem.run_latency` (closed-loop) and
:meth:`~repro.core.system.DMXSystem.run_throughput` (batch-issue) drive
fixed request counts, this package models *sustained online traffic*:

* :mod:`repro.serve.arrivals` — seeded Poisson / deterministic / MMPP
  arrival processes (one ``random.Random(seed)``, exact replay);
* :mod:`repro.serve.frontend` — per-tenant bounded admission queues,
  reject-vs-queue shedding, FCFS / weighted-round-robin dispatch into
  the shared system via :meth:`DMXSystem.submit`;
* :mod:`repro.serve.batching` — per-tenant batch formation (size-out +
  time-out window) feeding coalesced submissions via
  :meth:`DMXSystem.submit_batch` (one descriptor chain + doorbell +
  completion ISR per batch);
* :mod:`repro.serve.slo` — exact p50/p95/p99 latency percentiles,
  per-tenant goodput, shed/violation counts, queue-depth timelines on
  the sim clock;
* :mod:`repro.serve.sweep` — latency-vs-offered-load knee curves per
  system :class:`~repro.core.placement.Mode`, optionally with a
  :class:`~repro.faults.FaultPlan` armed.
"""

from .arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    DeterministicArrivals,
    MMPPArrivals,
    PoissonArrivals,
    RampArrivals,
    arrival_times,
    make_arrivals,
)
from .batching import BatchFormer, BatchingConfig, FormingBatch
from .frontend import (
    Discipline,
    FrontendConfig,
    ServingFrontend,
    ShedPolicy,
    TenantSpec,
)
from .slo import (
    DEFAULT_QUANTILES,
    LatencyTracker,
    P2Quantile,
    QueueSample,
    ServeResult,
    TenantStats,
)
from .sweep import (
    SweepConfig,
    SweepPoint,
    SweepResult,
    calibrate_peak_rps,
    run_sweep,
    run_sweep_point,
    unloaded_latency,
)

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "MMPPArrivals",
    "RampArrivals",
    "make_arrivals",
    "arrival_times",
    "ShedPolicy",
    "Discipline",
    "TenantSpec",
    "FrontendConfig",
    "ServingFrontend",
    "BatchingConfig",
    "BatchFormer",
    "FormingBatch",
    "DEFAULT_QUANTILES",
    "P2Quantile",
    "LatencyTracker",
    "TenantStats",
    "QueueSample",
    "ServeResult",
    "SweepConfig",
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "run_sweep_point",
    "calibrate_peak_rps",
    "unloaded_latency",
]
