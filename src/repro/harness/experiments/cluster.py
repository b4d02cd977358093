"""Cluster experiments: HPCC latency-bandwidth (Fig. 12), HPCC
applications (Fig. 13), and the NAS table (Fig. 14).

Flow-level points call :func:`~repro.harness.calibrate.flow_model_for`
*inside* the point function: calibration is deterministic across
processes (pinned by a test) and memoised per process, so pool workers
warm their own calibration caches and still produce values identical to
a serial run.
"""

from __future__ import annotations

from ...apps.hpcc import (
    flow_world,
    run_latency_bandwidth,
    run_mpifft,
    run_random_access,
)
from ...apps.npb import FIG14_CELLS, run_table
from ...exec import Engine, Point, run_points
from ..calibrate import flow_model_for
from ..report import ExperimentResult, Table

__all__ = ["fig12", "fig13", "fig14", "extra_hpcc", "extra_imb_collectives", "PROC_COUNTS"]

PROC_COUNTS = (8, 12, 16, 20, 24)

_FIG14_MODEL_CONFIGS = ("native-1g", "vnetp-1g", "native-10g", "vnetp-10g")


def _latbw_point(cfg: str, procs: int) -> dict:
    """One HPCC latency-bandwidth cell: (configuration, process count)."""
    model = flow_model_for(cfg)
    r = run_latency_bandwidth(lambda: flow_world(model, procs), procs)
    return dict(vars(r))


def _latbw_tables(experiment_id: str, configs: list[str], procs, title_suffix: str,
                  engine: Engine | None) -> ExperimentResult:
    points = [
        Point(experiment_id, f"p{p}.{cfg}", _latbw_point, {"cfg": cfg, "procs": p})
        for p in procs
        for cfg in configs
    ]
    values = run_points(points, engine)
    lat = Table(
        ["procs"] + [f"{c} pp-lat (us)" for c in configs]
        + [f"{c} rring-lat (us)" for c in configs],
        title=f"Latency ({title_suffix})",
    )
    bw = Table(
        ["procs"] + [f"{c} pp-bw (MB/s)" for c in configs]
        + [f"{c} rring-bw (MB/s)" for c in configs],
        title=f"Bandwidth ({title_suffix}; ring bw summed over processes)",
    )
    result = ExperimentResult(
        experiment_id, f"HPCC latency-bandwidth ({title_suffix})", tables=[lat, bw]
    )
    for i, p in enumerate(procs):
        cells = {
            cfg: values[i * len(configs) + j] for j, cfg in enumerate(configs)
        }
        lat.add(
            p,
            *[cells[c]["pingpong_lat_us"] for c in configs],
            *[cells[c]["random_ring_lat_us"] for c in configs],
        )
        bw.add(
            p,
            *[cells[c]["pingpong_bw_MBps"] for c in configs],
            *[cells[c]["random_ring_bw_MBps"] for c in configs],
        )
        result.rows.append({"procs": p, **cells})
    return result


def fig12(procs=PROC_COUNTS, quick: bool = False,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 12: HPCC latency-bandwidth, 1G + 10G, 8-24 processes."""
    if quick:
        procs = (8, 24)
    result = _latbw_tables(
        "fig12", ["native-1g", "vnetp-1g", "native-10g", "vnetp-10g"],
        procs, "Ethernet", engine,
    )
    result.notes.append(
        "paper anchors: 1G bw ~ native with 1.2-2x latency; "
        "10G bw 60-75 % of native with 2-3x latency; scaling tracks native"
    )
    return result


def _hpcc_apps_point(cfg: str, procs: int) -> dict:
    """One HPCC application cell: RandomAccess GUPs + MPIFFT Gflops."""
    model = flow_model_for(cfg)
    gups = run_random_access(flow_world(model, procs))
    fft = run_mpifft(flow_world(model, procs))
    return {"gups": gups.gups, "gflops": fft.gflops}


def _hpcc_apps_tables(experiment_id: str, configs: tuple[str, str],
                      labels: tuple[str, str], procs, title: str, description: str,
                      engine: Engine | None) -> ExperimentResult:
    """HPCC applications, native (first config) vs VNET/P (second)."""
    points = [
        Point(experiment_id, f"p{p}.{cfg}", _hpcc_apps_point, {"cfg": cfg, "procs": p})
        for p in procs
        for cfg in configs
    ]
    values = run_points(points, engine)
    nat, vp = labels
    table = Table(
        ["procs", f"{nat} GUPs", f"{vp} GUPs", "ratio", f"{nat} Gflops", f"{vp} Gflops", "ratio"],
        title=title,
    )
    result = ExperimentResult(experiment_id, description, tables=[table])
    for i, p in enumerate(procs):
        n, v = values[2 * i], values[2 * i + 1]
        table.add(p, n["gups"], v["gups"], v["gups"] / n["gups"],
                  n["gflops"], v["gflops"], v["gflops"] / n["gflops"])
        result.rows.append(
            {
                "procs": p,
                "gups_native": n["gups"],
                "gups_vnetp": v["gups"],
                "fft_native": n["gflops"],
                "fft_vnetp": v["gflops"],
            }
        )
    return result


def fig13(procs=PROC_COUNTS, quick: bool = False,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 13: HPCC MPIRandomAccess (GUPs) and MPIFFT (Gflops), 10G."""
    if quick:
        procs = (8, 24)
    result = _hpcc_apps_tables(
        "fig13", ("native-10g", "vnetp-10g"), ("Native", "VNET/P"), procs,
        "HPCC application benchmarks, 10G", "HPCC MPIRandomAccess + MPIFFT", engine,
    )
    result.notes.append(
        "paper anchors: RandomAccess 65-70 % of native, FFT 60-70 %, similar scaling"
    )
    return result


_FIG14_QUICK_CELLS = ["ep.B.16", "mg.B.16", "cg.B.16", "ft.B.16", "is.B.16",
                      "lu.B.16", "sp.B.16", "bt.B.16"]


def _fig14_point(cell: str) -> dict:
    """One NAS table row across all four configurations."""
    models = {c: flow_model_for(c) for c in _FIG14_MODEL_CONFIGS}
    row = run_table(models, cells=[cell])[0]
    return {
        "cell": row.label,
        "native_1g": row.native_1g,
        "vnetp_1g": row.vnetp_1g,
        "native_10g": row.native_10g,
        "vnetp_10g": row.vnetp_10g,
        "ratio_1g": row.ratio_1g,
        "ratio_10g": row.ratio_10g,
        "paper_ratio_1g": row.paper_ratio_1g,
        "paper_ratio_10g": row.paper_ratio_10g,
    }


def fig14(cells=None, quick: bool = False,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 14: the NAS Parallel Benchmark table (Mop/s, four configs)."""
    if cells is None:
        cells = _FIG14_QUICK_CELLS if quick else FIG14_CELLS
    rows = run_points(
        [Point("fig14", cell, _fig14_point, {"cell": cell}) for cell in cells],
        engine,
    )
    table = Table(
        [
            "cell",
            "Native-1G", "VNET/P-1G", "%1G", "paper %1G",
            "Native-10G", "VNET/P-10G", "%10G", "paper %10G",
        ],
        title="NAS Parallel Benchmarks (Mop/s total)",
    )
    result = ExperimentResult("fig14", "NAS parallel benchmark table", tables=[table])
    for row in rows:
        table.add(
            row["cell"],
            row["native_1g"], row["vnetp_1g"],
            f"{row['ratio_1g']:.0%}", f"{row['paper_ratio_1g']:.0%}",
            row["native_10g"], row["vnetp_10g"],
            f"{row['ratio_10g']:.0%}", f"{row['paper_ratio_10g']:.0%}",
        )
        result.rows.append(row)
    result.notes.append(
        "each (benchmark, class) is calibrated only at its largest Native-10G cell; "
        "all other cells are model predictions"
    )
    return result


def _extra_hpcc_metric(name: str, model, procs: int) -> float:
    from ...apps.hpcc import run_dgemm, run_hpl, run_ptrans, run_stream

    if name == "PTRANS":
        return run_ptrans(flow_world(model, procs)).GBps
    if name == "HPL":
        return run_hpl(flow_world(model, procs)).gflops
    if name == "EP-STREAM":
        return run_stream(flow_world(model, procs)).triad_GBps_total
    if name == "EP-DGEMM":
        return run_dgemm(flow_world(model, procs)).gflops_total
    raise KeyError(f"unknown HPCC component {name!r}")


def _extra_hpcc_point(name: str, procs: int) -> dict:
    native = _extra_hpcc_metric(name, flow_model_for("native-10g"), procs)
    vnetp = _extra_hpcc_metric(name, flow_model_for("vnetp-10g"), procs)
    return {"benchmark": name, "native": native, "vnetp": vnetp,
            "ratio": vnetp / native}


_EXTRA_HPCC_METRICS = {
    "PTRANS": "GB/s",
    "HPL": "Gflop/s",
    "EP-STREAM": "GB/s",
    "EP-DGEMM": "Gflop/s",
}


def extra_hpcc(procs=(16,), quick: bool = False,
               engine: Engine | None = None) -> ExperimentResult:
    """Beyond the paper: the remaining HPCC components (PTRANS, HPL,
    EP-STREAM, EP-DGEMM), native vs VNET/P at 10G.

    Completes the HPCC suite the paper samples from; the expected shape
    follows each benchmark's communication intensity: PTRANS (pure bulk
    transfer) degrades to roughly the bandwidth ratio, HPL is mostly
    compute-bound, STREAM/DGEMM are node-local and unaffected.
    """
    p = procs[0]
    rows = run_points(
        [
            Point("extra-hpcc", name, _extra_hpcc_point, {"name": name, "procs": p})
            for name in _EXTRA_HPCC_METRICS
        ],
        engine,
    )
    table = Table(
        ["benchmark", "metric", "Native", "VNET/P", "ratio"],
        title="Remaining HPCC components (10G, 16 processes)",
    )
    result = ExperimentResult("extra-hpcc", "full HPCC suite components", tables=[table])
    for row in rows:
        table.add(row["benchmark"], _EXTRA_HPCC_METRICS[row["benchmark"]],
                  row["native"], row["vnetp"], row["ratio"])
        result.rows.append(row)
    result.notes.append(
        "expected ordering: STREAM = DGEMM = 100 % > HPL > PTRANS"
    )
    return result


def _imb_collective_point(name: str, procs: int, size: int, repetitions: int) -> dict:
    from ...apps.imb_collectives import run_collective

    native = run_collective(
        flow_world(flow_model_for("native-10g"), procs), name, size,
        repetitions=repetitions,
    )
    vnetp = run_collective(
        flow_world(flow_model_for("vnetp-10g"), procs), name, size,
        repetitions=repetitions,
    )
    return {
        "collective": name,
        "native_us": native.avg_us,
        "vnetp_us": vnetp.avg_us,
        "ratio": vnetp.avg_us / native.avg_us,
    }


def extra_imb_collectives(quick: bool = False,
                          engine: Engine | None = None) -> ExperimentResult:
    """Beyond the paper: IMB collective benchmarks, native vs VNET/P.

    The paper measures point-to-point MPI only (Figs. 10-11); collectives
    are where overlay latency compounds (log-p rounds for barriers and
    allreduce, p-1 rounds for alltoall).
    """
    procs = 16
    size = 16 * 1024
    reps = 5 if quick else 12
    rows = run_points(
        [
            Point(
                "extra-imb",
                name,
                _imb_collective_point,
                {"name": name, "procs": procs, "size": size, "repetitions": reps},
            )
            for name in ("Barrier", "Bcast", "Allreduce", "Allgather", "Alltoall", "Exchange")
        ],
        engine,
    )
    table = Table(
        ["collective", "Native (us)", "VNET/P (us)", "ratio"],
        title=f"IMB collectives, {procs} processes, {size} B payloads (10G)",
    )
    result = ExperimentResult(
        "extra-imb", "IMB collective benchmarks", tables=[table]
    )
    for row in rows:
        table.add(row["collective"], row["native_us"], row["vnetp_us"], row["ratio"])
        result.rows.append(row)
    result.notes.append(
        "expected: every collective slows by 1.5-2.5x at this size — "
        "between the latency multiple and the bandwidth ratio"
    )
    return result
