"""``BENCHMARK.json`` agrees with what ``bench/run.py`` measures."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run, workloads
from bench.layers import LAYERS
from bench.probes import COUNTS

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _pass(traced, walls, samples=None):
    return {
        "traced": traced,
        "point_wall_s": walls,
        "setup_s": 0.5,
        "peak_rss_mb": 50.0,
        "points": len(walls),
        "failed": 0,
        "paper_err": None,
        "inputs_digest": workloads.digest(workloads.inputs("bulk", 0)),
        "values_digest": "v",
        "counts": {name: 1 for name in COUNTS},
        "times": {"sim.core.run_s": 1.0, "topo.compile_s": 0.1, "topo.build_s": 0.2},
        "samples": samples or {},
    }


def test_workloads_match():
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)


def test_summary_reports_every_declared_metric():
    passes = [_pass(False, [1.0, 2.0]), _pass(True, [1.1, 2.1], {"sim.core": 90, "proto": 10})]
    summary = run.summarise("bulk", 0, passes)
    assert summary["correct"]
    assert set(run.declared(CONFIG, "end_to_end", summary["end_to_end"])) == {
        m["name"] for m in CONFIG["end_to_end"]}
    per_layer = run.declared(CONFIG, "per_layer", summary["per_layer"])
    assert set(per_layer) == set(summary["per_layer"])
    assert {f"{layer}.self_s" for layer in LAYERS} <= set(per_layer)
    assert per_layer["trace.overhead"]["value"] == pytest.approx(3.2 / 3.0)


def test_per_point_medians_are_summed():
    passes = [_pass(False, [1.0, 5.0]), _pass(False, [3.0, 2.0]), _pass(False, [2.0, 3.0])]
    assert run.pass_wall(passes) == pytest.approx(2.0 + 3.0)


def test_passes_that_disagree_are_not_correct():
    a, b = _pass(False, [1.0]), _pass(False, [1.0])
    b["values_digest"] = "other"
    assert not run.summarise("bulk", 0, [a, b])["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bulk", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
