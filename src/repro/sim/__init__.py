"""Discrete-event simulation engine used by all timing models."""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    WaitTimeout,
)
from .resources import PriorityResource, Request, Resource, Server, Store
from .tracing import PhaseAccumulator, exact_percentile, geometric_mean

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "WaitTimeout",
    "PriorityResource",
    "Request",
    "Resource",
    "Server",
    "Store",
    "PhaseAccumulator",
    "exact_percentile",
    "geometric_mean",
]
