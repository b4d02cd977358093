"""Discrete-event simulation kernel used by every subsystem."""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .pipeline import PacketStage, Port
from .primitives import Resource, Signal, Store
from .rng import RandomStreams
from .trace import SampleStats

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "PacketStage",
    "Port",
    "Resource",
    "Signal",
    "Store",
    "RandomStreams",
    "SampleStats",
]
