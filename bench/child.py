"""One pass of one workload, in a fresh process.

Run by :mod:`bench.run` as ``python -m bench.child --workload W --seed N
[--traced]`` with ``src`` and the repository root on ``PYTHONPATH``.  It
imports ``repro`` (timed: users pay it on every command-line run), runs
every point of the workload through ``repro.exec.Engine(jobs=1)`` with
no result cache, checks each output, and prints one JSON object on its
last stdout line.

A point that raises or fails its check is counted and the pass goes on;
the traceback goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from . import layers, probes, workloads


def _failures(spec: dict, res) -> list[str]:
    """Why a point failed: it raised, or its output breaks an invariant."""
    if res is None:
        return ["raised"]
    try:
        return workloads.check(spec, res.value, res.metrics)
    except Exception as exc:  # an output of the wrong shape is a wrong output
        return [f"check raised {exc!r}"]


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """Run every point of ``workload`` once; the pass's JSON-ready result."""
    t0 = time.perf_counter()
    import repro.harness.experiments
    import_s = time.perf_counter() - t0

    from repro.exec import Engine

    from . import points  # imports repro: only after the timed import

    src_root = Path(repro.__file__).resolve().parents[1]
    specs = workloads.inputs(workload, seed)
    engine = Engine(jobs=1)
    probe = probes.Probes().install()
    sampler = layers.Sampler(src_root) if traced else None
    results = []
    try:
        with sampler or contextlib.nullcontext():
            for spec in specs:
                point = points.make_point(workload, spec)
                t = time.perf_counter()
                try:
                    [res] = engine.run_detailed([point])
                except Exception:
                    traceback.print_exc()
                    res = None
                wall_s = time.perf_counter() - t
                value, metrics = (res.value, res.metrics) if res is not None else (None, {})
                probe.end_point(metrics)
                failures = _failures(spec, res)
                for failure in failures:
                    print(f"[{workload}] {spec['key']}: {failure}", file=sys.stderr)
                results.append({"key": spec["key"], "failures": failures, "value": value,
                                "wall_s": wall_s})
    finally:
        probe.uninstall()
    probe.counts["exec.points"] = engine.points_executed

    values = {r["key"]: r["value"] for r in results}
    failed = sum(1 for r in results if r["failures"])
    paper_err_fn = workloads.WORKLOADS[workload].paper_err
    paper_err = paper_err_fn(values) if paper_err_fn is not None and not failed else None
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "repro_file": repro.__file__,
        "inputs_digest": workloads.digest(specs),
        "values_digest": workloads.digest(values),
        "points": len(specs),
        "failed": failed,
        "failures": {r["key"]: r["failures"] for r in results if r["failures"]},
        "import_s": import_s,
        "setup_s": import_s + probe.setup_s,
        "wall_s": sum(r["wall_s"] for r in results),
        "point_wall_s": [r["wall_s"] for r in results],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "paper_err": paper_err,
        "counts": {name: probe.counts.get(name, 0) for name in probes.COUNTS},
        "times": dict(probe.times),
        "samples": dict(sampler.counts) if sampler is not None else {},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.traced)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
