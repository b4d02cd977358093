"""Run the repository benchmark.

Usage (from the repository root)::

    python3 bench/run.py --workload bulk --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --seed 3            # every workload in turn
    python3 bench/run.py --workload mpi --trace 1

Each *pass* runs every point of one workload once, in a fresh child
process (:mod:`bench.child`), one child at a time.  A run repeats passes
for about ``--seconds`` (at least two passes) and reports medians over
its untraced passes.  With ``--trace 1``
the passes alternate untraced and traced; the traced ones sample the
stack for the per-layer split (:mod:`bench.layers`).

Output: one ``workload metric value unit`` line per metric, a JSON
result file (``--out``), and as the last stdout line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of ``BENCHMARK.json``, or its ``per_layer``
metrics with ``--trace 1``).

The exit code is non-zero, and no result line is printed, when the
checkout holds no ``src/repro`` package or a pass cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from bench import layers, workloads  # noqa: E402
from bench.probes import COUNTS  # noqa: E402

#: Passes per run, whatever ``--seconds`` says: set-up time is a median
#: over passes, so a run needs more than one.
MIN_PASSES = 2
#: A pass that takes longer than this is hung; it is killed.
PASS_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program failing)."""


def load_config(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def check_checkout(root: Path) -> None:
    """Refuse to run without the program's source in this checkout."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {root / 'src'}: nothing to benchmark")


def run_pass(root: Path, workload: str, seed: int, traced: bool) -> dict:
    """One pass in a fresh child process; returns its JSON result."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        PYTHONHASHSEED="0",
        # numpy is imported by repro: keep BLAS to one thread so a pass
        # is one busy thread (two while tracing).
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    src = (root / "src").resolve()
    if src not in Path(result["repro_file"]).resolve().parents:
        raise BenchError(f"pass imported repro from {result['repro_file']}, not {src}")
    return result


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat passes for ``seconds`` and summarise them."""
    passes: list[dict] = []
    durations: list[float] = []
    started = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(run_pass(root, workload, seed, traced=trace and len(passes) % 2 == 1))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - started
        # Stop when another pass would end closer to ``seconds`` past
        # the start than not: runs last ``seconds`` on average.
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) / 2 > seconds:
            break
    return summarise(workload, seed, passes)


def summarise(workload: str, seed: int, passes: list[dict]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    specs = workloads.inputs(workload, seed)
    inputs_digest = workloads.digest(specs)

    # Same seed, same code: every pass must simulate the same inputs to
    # the same outputs and counts.
    problems = []
    for field in ("inputs_digest", "values_digest", "counts"):
        if len({json.dumps(p[field], sort_keys=True) for p in passes}) != 1:
            problems.append(f"{field} differs between passes")
    if passes[0]["inputs_digest"] != inputs_digest:
        problems.append("pass inputs differ from the seed's inputs")
    attempted = sum(p["points"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    end_to_end = {
        "wall_s": pass_wall(plain),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    counts = dict(passes[0]["counts"])
    times = {
        name: statistics.median(p["times"].get(name, 0.0) for p in plain)
        for name in ("sim.core.run_s", "topo.compile_s", "topo.build_s", "harness.calibrate_s")
    }
    summary = {
        "workload": workload,
        "seed": seed,
        "inputs_digest": inputs_digest,
        "inputs": specs,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "fidelity": {
            "paper_err": passes[0]["paper_err"],
            "ops_failed": failed / attempted,
        },
        "counts": counts,
        "times": times,
        "passes": passes,
    }
    if traced:
        summary["per_layer"] = per_layer(counts, times, plain, traced)
    return summary


def pass_wall(passes: list[dict]) -> float:
    """Host seconds of one pass: each point's median over ``passes``, summed.

    Per-point medians shrug off a burst of noise that slows a different
    point in each pass, which a median of pass totals would not.
    """
    return sum(statistics.median(walls) for walls in zip(*(p["point_wall_s"] for p in passes)))


def per_layer(counts: dict, times: dict, plain: list[dict], traced: list[dict]) -> dict:
    samples: Counter = Counter()
    for p in traced:
        samples.update(p["samples"])
    shares = layers.shares(samples)
    traced_wall = pass_wall(traced)
    out = {}
    for layer in layers.LAYERS:
        out[f"{layer}.self_s"] = shares[layer] * traced_wall
        out[f"{layer}.share"] = shares[layer]
    out["other.share"] = shares[layers.OTHER]
    out["trace.samples"] = statistics.median(sum(p["samples"].values()) for p in traced)
    out["trace.overhead"] = traced_wall / pass_wall(plain)
    out.update({name: counts[name] for name in COUNTS})
    out["sim.core.events_per_frame"] = counts["sim.core.events"] / max(1, counts["hw.nic.frames"])
    lookups = counts["vnet.flowcache.hits"] + counts["vnet.flowcache.misses"]
    out["vnet.flowcache.hit_ratio"] = counts["vnet.flowcache.hits"] / max(1, lookups)
    out.update({name: times[name] for name in ("sim.core.run_s", "topo.compile_s", "topo.build_s")})
    return out


def declared(config: dict, section: str, values: dict) -> dict:
    """``values`` restricted to ``config[section]``'s metrics, with units."""
    missing = [m["name"] for m in config[section] if m["name"] not in values]
    if missing:
        raise BenchError(f"{section} metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in config[section]}


def report(config: dict, summary: dict, trace: bool) -> dict:
    """Print one workload's lines; return its driver-facing metrics."""
    workload = summary["workload"]
    end_to_end = declared(config, "end_to_end", summary["end_to_end"])
    lines = [(name, m["value"], m["unit"]) for name, m in end_to_end.items()]
    for name, value in summary["fidelity"].items():
        if value is not None:
            lines.append((name, value, "fraction"))
    metrics = end_to_end
    if trace:
        metrics = declared(config, "per_layer", summary["per_layer"])
        lines += [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    for name, value, unit in lines:
        print(f"{workload} {name} {value:.6g} {unit}")
    for problem in summary["problems"]:
        print(f"{workload} problem: {problem}", file=sys.stderr)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: add traced passes and report the per-layer metrics")
    parser.add_argument("--out", type=Path, help="result JSON (default: bench/out/...)")
    args = parser.parse_args(argv)

    try:
        config = load_config(ROOT)
        check_checkout(ROOT)
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        seconds = args.seconds if args.seconds is not None else config["run_seconds"]
        summaries = {}
        metrics = {}
        for name in names:
            summaries[name] = run_workload(ROOT, name, args.seed, seconds, bool(args.trace))
            for metric, m in report(config, summaries[name], bool(args.trace)).items():
                metrics[metric if args.workload else f"{name}.{metric}"] = m
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    out = args.out or ROOT / "bench" / "out" / (
        f"{args.workload or 'all'}.seed{args.seed}{'.trace' if args.trace else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "seconds": seconds, "trace": bool(args.trace),
                               "workloads": summaries}, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
