"""Tests for the python -m repro CLI."""

import json

import pytest

from repro.__main__ import main


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig08" in out
    assert "fig14" in out
    assert "abl-cache" in out


def test_cli_unknown_experiment(capsys):
    assert main(["fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_cli_runs_an_experiment(capsys):
    assert main(["abl-yield", "--quick", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Yield-strategy ablation" in out
    assert "immediate" in out
    assert "[exec] points=" in out
    assert "cached=0" in out


def test_cli_rejects_bad_jobs():
    with pytest.raises(SystemExit):
        main(["abl-yield", "--quick", "--jobs", "0"])


def test_cli_cache_warm_run_executes_nothing(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["abl-yield", "--quick", "--cache-dir", cache_dir]) == 0
    cold = capsys.readouterr().out
    assert "executed=0" not in cold
    assert main(["abl-yield", "--quick", "--cache-dir", cache_dir]) == 0
    warm = capsys.readouterr().out
    assert "executed=0" in warm

    def rows(out):
        return [l for l in out.splitlines() if "|" in l]

    assert rows(cold) == rows(warm)


def test_cli_artifact_diff_exit_codes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["abl-yield", "--quick", "--no-cache",
                     "--artifact-out", str(path)]) == 0
    # Two same-seed runs are identical.
    assert main(["obs", "diff", str(a), str(b)]) == 0
    # One edited row value is a difference.
    art = json.loads(b.read_text())
    art["rows"]["abl-yield"][0]["rtt_us"] += 1.0
    b.write_text(json.dumps(art))
    assert main(["obs", "diff", str(a), str(b)]) == 1
    assert "rows.abl-yield[0].rtt_us" in capsys.readouterr().out
    # A file that is not JSON is unusable input.
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["obs", "diff", str(a), str(bad)]) == 2


def test_cli_obs_report_writes_artifact(tmp_path):
    path = tmp_path / "r.json"
    assert main(["obs", "report", "--duration-ms", "0.5",
                 "--artifact-out", str(path)]) == 0
    art = json.loads(path.read_text())
    assert art["kind"] == "report"
    assert art["metrics"] and art["timelines"]
