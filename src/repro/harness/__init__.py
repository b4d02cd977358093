"""Experiment harness: testbeds, calibration, experiments, reporting."""

from .breakdown import native_one_way_breakdown, vnetp_one_way_breakdown
from .calibrate import calibrate_flow_model, clear_cache, flow_model_for
from .sweep import sweep_host_param
from .report import ExperimentResult, Table
from .testbed import Endpoint, Testbed, build_native, build_vnetp, build_vnetu

__all__ = [
    "native_one_way_breakdown",
    "vnetp_one_way_breakdown",
    "sweep_host_param",
    "calibrate_flow_model",
    "clear_cache",
    "flow_model_for",
    "ExperimentResult",
    "Table",
    "Endpoint",
    "Testbed",
    "build_native",
    "build_vnetp",
    "build_vnetu",
]
