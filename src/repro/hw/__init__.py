"""Hardware models: NICs, links, switches, memory."""

from .link import Link
from .memory import MemorySystem
from .nic import PhysicalNIC
from .switch import Switch, SwitchParams

__all__ = ["Link", "MemorySystem", "PhysicalNIC", "Switch", "SwitchParams"]
