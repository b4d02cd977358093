"""The CI wall-clock regression gate (`tools/benchgate.py`)."""

import copy
import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "benchgate", REPO / "tools" / "benchgate.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


REFERENCE = {
    "observables_unchanged": True,
    "scenarios": {
        "fig8_ttcp": {
            "speedup": 2.0,
            "observables_unchanged": True,
            "current": {"sim_ns": 100, "frames": 10},
            "baseline": {"sim_ns": 100, "frames": 10},
        },
        "fig9_ping": {
            "speedup": 1.5,
            "observables_unchanged": True,
            "current": {"sim_ns": 200, "frames": 20},
            "baseline": {"sim_ns": 200, "frames": 20},
        },
    },
    "flowcache": {
        "scenario": "fig8_ttcp",
        "observables_identical": True,
        "wall_speedup": 1.05,
    },
    "obs_overhead": {
        "scenario": "fig8_ttcp",
        "enabled_ratio": 1.4,
        "observables_identical": True,
    },
}


def test_identical_report_passes():
    mod = _load_gate()
    assert mod.gate(copy.deepcopy(REFERENCE), REFERENCE) == []


def test_speedup_within_tolerance_passes():
    mod = _load_gate()
    fresh = copy.deepcopy(REFERENCE)
    fresh["scenarios"]["fig8_ttcp"]["speedup"] = 2.0 * 0.86  # -14% < 15%
    assert mod.gate(fresh, REFERENCE) == []


def test_speedup_regression_fails():
    mod = _load_gate()
    fresh = copy.deepcopy(REFERENCE)
    fresh["scenarios"]["fig8_ttcp"]["speedup"] = 2.0 * 0.8  # -20% > 15%
    problems = mod.gate(fresh, REFERENCE)
    assert len(problems) == 1 and "fig8_ttcp" in problems[0]
    assert "regressed" in problems[0]
    # A wider tolerance absorbs it.
    assert mod.gate(fresh, REFERENCE, tolerance=0.25) == []


def test_changed_observables_always_fail():
    mod = _load_gate()
    fresh = copy.deepcopy(REFERENCE)
    fresh["scenarios"]["fig9_ping"]["observables_unchanged"] = False
    fresh["scenarios"]["fig9_ping"]["current"]["frames"] = 21
    problems = mod.gate(fresh, REFERENCE, tolerance=0.99)
    assert any("fig9_ping" in p and "observables changed" in p for p in problems)

    fresh = copy.deepcopy(REFERENCE)
    fresh["observables_unchanged"] = False
    assert any("report-level" in p for p in mod.gate(fresh, REFERENCE))


def test_scenario_set_must_match():
    mod = _load_gate()
    fresh = copy.deepcopy(REFERENCE)
    del fresh["scenarios"]["fig9_ping"]
    fresh["scenarios"]["fig10_new"] = copy.deepcopy(
        REFERENCE["scenarios"]["fig8_ttcp"]
    )
    problems = mod.gate(fresh, REFERENCE)
    assert any("fig9_ping" in p and "missing" in p for p in problems)
    assert any("fig10_new" in p and "absent from reference" in p for p in problems)


def test_flowcache_identity_is_gated():
    mod = _load_gate()
    fresh = copy.deepcopy(REFERENCE)
    fresh["flowcache"]["observables_identical"] = False
    problems = mod.gate(fresh, REFERENCE)
    assert any("flowcache" in p and "timing-neutral" in p for p in problems)

    fresh = copy.deepcopy(REFERENCE)
    del fresh["flowcache"]
    problems = mod.gate(fresh, REFERENCE)
    assert any("flowcache" in p and "missing" in p for p in problems)
    # The wall ratio is machine noise, never gated.
    fresh = copy.deepcopy(REFERENCE)
    fresh["flowcache"]["wall_speedup"] = 0.5
    assert mod.gate(fresh, REFERENCE) == []


def test_obs_overhead_enabled_ratio_is_gated():
    mod = _load_gate()
    fresh = copy.deepcopy(REFERENCE)
    fresh["obs_overhead"]["enabled_ratio"] = 1.4 * 1.2  # +20% > 15%
    problems = mod.gate(fresh, REFERENCE)
    assert any("obs_overhead" in p and "ceiling" in p for p in problems)
    # A wider tolerance absorbs it.
    assert mod.gate(fresh, REFERENCE, tolerance=0.25) == []
    # Within tolerance, or cheaper than the reference, it passes.
    fresh["obs_overhead"]["enabled_ratio"] = 1.4 * 1.14
    assert mod.gate(fresh, REFERENCE) == []
    fresh["obs_overhead"]["enabled_ratio"] = 1.0
    assert mod.gate(fresh, REFERENCE) == []


def test_obs_overhead_identity_and_presence_are_gated():
    mod = _load_gate()
    fresh = copy.deepcopy(REFERENCE)
    fresh["obs_overhead"]["observables_identical"] = False
    problems = mod.gate(fresh, REFERENCE)
    assert any("obs_overhead" in p and "never change" in p for p in problems)

    fresh = copy.deepcopy(REFERENCE)
    del fresh["obs_overhead"]
    problems = mod.gate(fresh, REFERENCE)
    assert any("obs_overhead" in p and "missing" in p for p in problems)


def test_cli_pass_and_fail_exit_codes(tmp_path, capsys):
    mod = _load_gate()
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps(REFERENCE))
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(REFERENCE))
    assert mod.main([str(fresh), "--reference", str(ref)]) == 0
    assert "PASS" in capsys.readouterr().out

    bad = copy.deepcopy(REFERENCE)
    bad["scenarios"]["fig8_ttcp"]["speedup"] = 0.1
    fresh.write_text(json.dumps(bad))
    assert mod.main([str(fresh), "--reference", str(ref)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_committed_reference_gates_itself():
    # The repo's own BENCH_sim.json must pass against itself — the CI
    # job's degenerate case.
    mod = _load_gate()
    report = mod.load_report(str(REPO / "BENCH_sim.json"))
    assert mod.gate(copy.deepcopy(report), report) == []
