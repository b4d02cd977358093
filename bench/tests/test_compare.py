"""Verdicts of ``bench/compare.py``."""

import json

import pytest

from bench.compare import compare, fidelity_verdict, main, verdict

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]


def test_same_numbers_are_unchanged():
    assert verdict(BASE, list(BASE), 0.10, lower_is_better=True) == "unchanged"


def test_small_drift_inside_the_bound_is_unchanged():
    assert verdict(BASE, [x * 1.05 for x in BASE], 0.10, lower_is_better=True) == "unchanged"


def test_slower_beyond_the_bound_is_worse():
    assert verdict(BASE, [x * 1.2 for x in BASE], 0.10, lower_is_better=True) == "worse"


def test_consistently_faster_is_better():
    assert verdict(BASE, [x * 0.9 for x in BASE], 0.10, lower_is_better=True) == "better"


def test_direction_follows_the_metric():
    assert verdict(BASE, [x * 0.8 for x in BASE], 0.10, lower_is_better=False) == "worse"


def test_gain_inside_base_spread_is_not_better():
    head = list(BASE)
    head[0] = 9.0
    assert verdict(BASE, head, 0.10, lower_is_better=True) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    assert verdict(noisy, [x * 1.15 for x in noisy], 0.10, lower_is_better=True) == "unresolved"
    assert verdict(noisy, [x + 10 for x in noisy], 0.10, lower_is_better=True) == "worse"


def test_wide_spread_but_every_head_run_better_is_unchanged():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    head = [7.8, 7.9, 7.85, 7.95, 7.9, 7.8, 7.95, 7.85, 7.9, 7.9]
    # Every head run beats every base run, but the median gap (2.1) is
    # inside the base IQR (2.25): no gain is claimed, and no regression.
    assert verdict(noisy, head, 0.10, lower_is_better=True) == "unchanged"


@pytest.mark.parametrize("base,head,bound,expected", [
    ([0.10] * 3, [0.105] * 3, 0.01, "unchanged"),
    ([0.10] * 3, [0.12] * 3, 0.01, "worse"),
    ([0.0] * 3, [0.01] * 3, 0.0, "worse"),
    ([0.0] * 3, [0.0] * 3, 0.0, "unchanged"),
])
def test_fidelity_bounds_are_absolute(base, head, bound, expected):
    assert fidelity_verdict(base, head, bound) == expected


def _run(seed, wall, counts, failed=0, paper_err=0.1):
    return {"workload": "bulk", "seed": seed, "attempted": 14, "failed": failed,
            "end_to_end": {"wall_s": wall},
            "fidelity": {"paper_err": paper_err, "ops_failed": failed / 14}, "counts": counts}


CONFIG = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}


def test_counts_must_match_per_workload_and_seed():
    base = [_run(0, 5.0, {"sim.core.events": 10}), _run(1, 5.1, {"sim.core.events": 11})]
    same = [_run(0, 5.05, {"sim.core.events": 10}), _run(1, 5.0, {"sim.core.events": 11})]
    rows, mismatches = compare(CONFIG, base, same)
    assert mismatches == []
    assert [row[-1] for row in rows] == ["unchanged", "unchanged", "unchanged"]
    moved = [_run(0, 5.0, {"sim.core.events": 10}), _run(1, 5.0, {"sim.core.events": 12})]
    _, mismatches = compare(CONFIG, base, moved)
    assert mismatches == ["bulk seed 1 sim.core.events: 11 -> 12"]


def test_one_failing_head_run_is_worse(tmp_path):
    base = [_run(seed, 5.0, {}) for seed in range(3)]
    head = [_run(0, 5.0, {}), _run(1, 5.0, {}, failed=1, paper_err=None), _run(2, 5.0, {})]
    rows, _ = compare(CONFIG, base, head)
    verdicts = {row[1]: row[-1] for row in rows}
    assert verdicts["ops_failed"] == "worse"
    for side, runs in (("base", base), ("head", head)):
        for r in runs:
            path = tmp_path / f"{side}{r['seed']}.json"
            path.write_text(json.dumps({"workloads": {"bulk": r}}))
    assert main(["--base", str(tmp_path / "base*.json"),
                 "--head", str(tmp_path / "head*.json")]) == 1


def test_runs_pair_by_seed_when_one_side_lacks_a_value():
    base = [_run(0, 5.0, {}, paper_err=0.10), _run(1, 5.0, {}, paper_err=0.30),
            _run(2, 5.0, {}, paper_err=0.20)]
    head = [_run(0, 5.0, {}, paper_err=None), _run(1, 5.0, {}, paper_err=0.30),
            _run(2, 5.0, {}, paper_err=0.20)]
    rows, _ = compare(CONFIG, base, head)
    [(_, _, b, h, v)] = [row for row in rows if row[1] == "paper_err"]
    assert (b, h, v) == ([0.30, 0.20], [0.30, 0.20], "unchanged")
