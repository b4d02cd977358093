"""Compare two sets of benchmark result files.

Usage (from the repository root)::

    python3 bench/compare.py --base base/*.json --head head/*.json

Each file is one ``bench/run.py`` result.  Runs are paired by workload
and seed (the n-th base run of a seed with the n-th head run of it).  For
every workload and end-to-end metric the tool prints each side's median
and quartiles over the paired runs and a verdict, using the bounds in
``BENCHMARK.json``:

* **better** — the head wins at least 9 of every 10 pairs (ties counting
  for neither side) and its median beats the base median by more than
  the base's interquartile range;
* **unresolved** — the base's own spread (IQR over median) is wider than
  the bound, so a change within it cannot be told from noise; unless
  every head run is worse than every base run (then **worse**) or better
  than every base run (then **unchanged**: no regression);
* **worse** — the head median is worse than the base median by more than
  the bound (a share of the base median);
* **unchanged** — none of the above.

Two fidelity numbers ride along with fixed bounds.  ``paper_err`` may
rise by at most 0.01 (absolute, between medians).  ``ops_failed`` is
judged from totals, failed points over attempted points on each side,
and may not rise at all.  The per-layer counts of runs with the same
workload and seed must be identical on both sides.  The exit code is 1
on any "worse" or any changed count.
"""

from __future__ import annotations

import argparse
import glob
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Largest tolerated absolute rise of the median ``paper_err``.
PAPER_ERR_BOUND = 0.01
#: Share of pairs the head must win to be called better.
WIN_SHARE = 0.9


def load_runs(patterns: list[str]) -> list[dict]:
    """Every workload summary in the files the patterns name."""
    paths = sorted({p for pattern in patterns for p in (glob.glob(pattern) or [pattern])})
    runs = []
    for path in paths:
        runs.extend(json.loads(Path(path).read_text())["workloads"].values())
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], bound: float, lower_is_better: bool) -> str:
    """Judge one metric; ``base``/``head`` are paired in order."""
    sign = 1.0 if lower_is_better else -1.0
    b1, b_med, b3 = quartiles(base)
    _, h_med, _ = quartiles(head)
    worse_by = (h_med - b_med) * sign
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if (h - b) * sign < 0)
    if pairs and wins >= WIN_SHARE * len(pairs) and -worse_by > b3 - b1:
        return "better"
    if (b3 - b1) > bound * abs(b_med):
        if min(h * sign for h in head) > max(b * sign for b in base):
            return "worse"
        if max(h * sign for h in head) < min(b * sign for b in base):
            return "unchanged"
        return "unresolved"
    if worse_by > bound * abs(b_med):
        return "worse"
    return "unchanged"


def fidelity_verdict(base: list[float], head: list[float], bound: float) -> str:
    rise = statistics.median(head) - statistics.median(base)
    if rise > bound:
        return "worse"
    return "better" if rise < -bound else "unchanged"


def _by_pair(runs: list[dict], workload: str) -> dict[tuple[int, int], dict]:
    """``workload``'s runs keyed by (seed, n-th run of that seed)."""
    seen: dict[int, int] = defaultdict(int)
    out = {}
    for r in runs:
        if r["workload"] == workload:
            out[(r["seed"], seen[r["seed"]])] = r
            seen[r["seed"]] += 1
    return out


def _paired(base: dict, head: dict, section: str, name: str) -> tuple[list, list]:
    """Values of one metric for the pairs where both sides have it."""
    b, h = [], []
    for key in sorted(base.keys() & head.keys()):
        bv, hv = base[key][section].get(name), head[key][section].get(name)
        if bv is not None and hv is not None:
            b.append(bv)
            h.append(hv)
    return b, h


def _failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare(config: dict, base: list[dict], head: list[dict]) -> tuple[list[tuple], list[str]]:
    """Verdict rows and count mismatches."""
    rows = []
    mismatches = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in head})
    for workload in workloads:
        base_runs, head_runs = _by_pair(base, workload), _by_pair(head, workload)
        for metric in config["end_to_end"]:
            b, h = _paired(base_runs, head_runs, "end_to_end", metric["name"])
            if b:
                rows.append((workload, metric["name"], b, h,
                             verdict(b, h, metric["bound"], metric["better"] == "lower")))
        b, h = _paired(base_runs, head_runs, "fidelity", "paper_err")
        if b:
            rows.append((workload, "paper_err", b, h, fidelity_verdict(b, h, PAPER_ERR_BOUND)))
        b = [_failed_share(list(base_runs.values()))]
        h = [_failed_share(list(head_runs.values()))]
        rows.append((workload, "ops_failed", b, h, fidelity_verdict(b, h, 0.0)))

        for key in sorted(base_runs.keys() & head_runs.keys()):
            theirs, ours = base_runs[key]["counts"], head_runs[key]["counts"]
            for name in sorted(set(theirs) | set(ours)):
                if theirs.get(name) != ours.get(name):
                    mismatches.append(f"{workload} seed {key[0]} {name}: "
                                      f"{theirs.get(name)} -> {ours.get(name)}")
    return rows, sorted(set(mismatches))


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    parser.add_argument("--base", nargs="+", required=True, help="base result files or globs")
    parser.add_argument("--head", nargs="+", required=True, help="head result files or globs")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, mismatches = compare(config, load_runs(args.base), load_runs(args.head))
    print(f"{'workload':11} {'metric':12} {'base median [q1, q3]':>30} "
          f"{'head median [q1, q3]':>30}  verdict")
    for workload, name, b, h, v in rows:
        print(f"{workload:11} {name:12} {_fmt(b):>30} {_fmt(h):>30}  {v}")
    for line in mismatches:
        print(f"count changed: {line}")
    if not mismatches:
        print("per-layer counts: identical")
    return 1 if mismatches or any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
