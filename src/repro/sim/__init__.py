"""Discrete-event simulation kernel used by every subsystem."""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .pipeline import CopyCharger, PacketStage, Port
from .primitives import Resource, Signal, Store
from .rng import RandomStreams
from .trace import SampleStats

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "CopyCharger",
    "PacketStage",
    "Port",
    "Resource",
    "Signal",
    "Store",
    "RandomStreams",
    "SampleStats",
]
