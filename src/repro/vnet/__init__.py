"""VNET/P: the paper's core contribution, plus the VNET/U baseline and
the adaptive-overlay machinery the VNET model motivates (monitoring,
adaptation, VM migration)."""

from .adaptation import AdaptationEngine, FailoverRecord
from .inference import InferredTopology, Topology, infer_topology
from .bridge import VnetBridge
from .heartbeat import HeartbeatFrame, HeartbeatService
from .migration import MigrationResult, migrate_vm
from .monitor import LinkHealth, TrafficMonitor
from .control import ControlError, VnetControl
from .core import VnetCore
from .dispatcher import ModeController, wake_penalty
from .encap import ENCAP_OVERHEAD, VnetEncap
from .flowcache import FlowCache, FlowCacheEntry
from .lang import ParseError, parse_config, parse_line
from .node import VnetNode
from .overlay import (
    ANY_MAC,
    DEFAULT_VNET_PORT,
    DestType,
    InterfaceSpec,
    LinkProto,
    LinkSpec,
    RouteEntry,
    validate_mac,
)
from .routing import NoRouteError, RoutingTable
from .validation import OverlayIssue, ValidationReport, validate_overlay
from .vnetu import VnetUDaemon

__all__ = [
    "AdaptationEngine",
    "FailoverRecord",
    "InferredTopology",
    "Topology",
    "infer_topology",
    "HeartbeatFrame",
    "HeartbeatService",
    "MigrationResult",
    "migrate_vm",
    "LinkHealth",
    "TrafficMonitor",
    "VnetBridge",
    "ControlError",
    "VnetControl",
    "VnetCore",
    "ModeController",
    "wake_penalty",
    "ENCAP_OVERHEAD",
    "VnetEncap",
    "FlowCache",
    "FlowCacheEntry",
    "ParseError",
    "parse_config",
    "parse_line",
    "VnetNode",
    "ANY_MAC",
    "DEFAULT_VNET_PORT",
    "DestType",
    "InterfaceSpec",
    "LinkProto",
    "LinkSpec",
    "RouteEntry",
    "validate_mac",
    "NoRouteError",
    "RoutingTable",
    "OverlayIssue",
    "ValidationReport",
    "validate_overlay",
    "VnetUDaemon",
]
