"""The NPB suite runner for Fig. 14.

``PAPER_FIG14`` holds the paper's measured Mop/s for every cell
(Native/VNET-P x 1G/10G); ``run_cell`` produces our simulated values.
Calibration anchors each (benchmark, class) at its largest-process
Native-10G cell; all other 7 cells of that row family are predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...mpi.transport import FlowModel
from . import bt, cg, ep, ft, is_, lu, mg, sp
from .common import CalibratedNpb, NpbResult, calibrate, run_npb

__all__ = ["PAPER_FIG14", "FIG14_CELLS", "Fig14Row", "run_cell", "run_table"]

_MODULES = {"ep": ep, "mg": mg, "cg": cg, "ft": ft, "is": is_, "lu": lu, "sp": sp, "bt": bt}

# Fig. 14: Mop/s as (Native-1G, VNET/P-1G, Native-10G, VNET/P-10G).
PAPER_FIG14: dict[str, tuple[float, float, float, float]] = {
    "ep.B.8": (103.15, 101.94, 102.18, 102.12),
    "ep.B.16": (204.88, 203.9, 208.0, 206.52),
    "ep.C.8": (103.12, 102.1, 103.13, 102.14),
    "ep.C.16": (206.24, 204.14, 206.22, 203.98),
    "mg.B.8": (4400.52, 3840.47, 5110.29, 3796.03),
    "mg.B.16": (1506.77, 1498.65, 9137.26, 7405.0),
    "cg.B.8": (1542.79, 1319.43, 2096.64, 1806.57),
    "cg.B.16": (160.64, 159.69, 592.08, 554.91),
    "ft.B.16": (1575.83, 1290.78, 1432.3, 1228.39),
    "is.B.8": (78.88, 74.61, 59.15, 59.04),
    "is.B.16": (35.99, 35.78, 23.09, 23.0),
    "is.C.8": (89.54, 82.15, 132.08, 131.87),
    "is.C.16": (84.76, 82.22, 77.77, 76.94),
    "lu.B.8": (6818.52, 5495.23, 7173.65, 6021.78),
    "lu.B.16": (7847.99, 6694.12, 12981.86, 9643.21),
    "sp.B.9": (1361.38, 1215.85, 2634.53, 2421.98),
    "sp.B.16": (1489.32, 1399.6, 3010.71, 2916.81),
    "bt.B.9": (3423.52, 3297.04, 5229.01, 4076.52),
    "bt.B.16": (4599.38, 4348.99, 6315.11, 6105.11),
}

FIG14_CELLS = list(PAPER_FIG14)

# Keyed by the Native-10G model too: a calibration anchors the model it
# was computed with, so a different model must recalibrate.
_CALIBRATION: dict[tuple[str, str, FlowModel], CalibratedNpb] = {}


def _reference_cell(name: str, klass: str) -> str:
    """Largest-process cell of a (benchmark, class) family."""
    candidates = [
        c for c in FIG14_CELLS if c.startswith(f"{name}.{klass}.")
    ]
    return max(candidates, key=lambda c: int(c.rsplit(".", 1)[1]))


def _calibrated(name: str, klass: str, model_native_10g: FlowModel) -> CalibratedNpb:
    key = (name, klass, model_native_10g)
    cached = _CALIBRATION.get(key)
    if cached is None:
        ref = _reference_cell(name, klass)
        nprocs_ref = int(ref.rsplit(".", 1)[1])
        spec_ref = _MODULES[name].spec(klass, nprocs_ref)
        cached = calibrate(spec_ref, model_native_10g, PAPER_FIG14[ref][2])
        _CALIBRATION[key] = cached
    return cached


@dataclass
class Fig14Row:
    """One row of the reproduced table plus the paper's values."""

    label: str
    native_1g: float
    vnetp_1g: float
    native_10g: float
    vnetp_10g: float
    paper: tuple[float, float, float, float]

    @property
    def ratio_1g(self) -> float:
        return self.vnetp_1g / self.native_1g

    @property
    def ratio_10g(self) -> float:
        return self.vnetp_10g / self.native_10g

    @property
    def paper_ratio_1g(self) -> float:
        return self.paper[1] / self.paper[0]

    @property
    def paper_ratio_10g(self) -> float:
        return self.paper[3] / self.paper[2]


def run_cell(
    label: str,
    models: dict[str, FlowModel],
) -> Fig14Row:
    """Run one Fig. 14 row across all four configurations.

    ``models`` maps {"native-1g", "vnetp-1g", "native-10g", "vnetp-10g"}
    to calibrated flow models.
    """
    name, klass, nprocs_s = label.split(".")
    nprocs = int(nprocs_s)
    spec = _MODULES[name].spec(klass, nprocs)
    cal = _calibrated(name, klass, models["native-10g"])
    values = {}
    for cfg, model in models.items():
        result: NpbResult = run_npb(spec, model, calibrated=cal)
        values[cfg] = result.mops
    return Fig14Row(
        label=label,
        native_1g=values["native-1g"],
        vnetp_1g=values["vnetp-1g"],
        native_10g=values["native-10g"],
        vnetp_10g=values["vnetp-10g"],
        paper=PAPER_FIG14[label],
    )


def run_table(models: dict[str, FlowModel], cells: Optional[list[str]] = None) -> list[Fig14Row]:
    return [run_cell(label, models) for label in (cells or FIG14_CELLS)]
