"""The CI docs check, run as part of the test suite.

`tools/check_docs.py` is a standalone script; these tests import its
check functions so a broken doc link or an undocumented public name in
`repro.obs` fails `pytest` too, not just the dedicated CI job.
"""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_docs_links_resolve():
    mod = _load_checker()
    assert mod.check_links(REPO) == []


def test_obs_public_surface_documented():
    mod = _load_checker()
    assert mod.check_docstrings(REPO) == []


def test_checker_flags_broken_reference(tmp_path):
    mod = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro" / "obs").mkdir(parents=True)
    (tmp_path / "docs" / "bad.md").write_text(
        "See [the plan](no-such-file.md) and `also/missing.py`.\n"
    )
    errors = mod.check_links(tmp_path)
    assert len(errors) == 2
    assert any("no-such-file.md" in e for e in errors)
    assert any("also/missing.py" in e for e in errors)


def test_docs_test_references_resolve():
    mod = _load_checker()
    assert mod.check_test_refs(REPO) == []


def test_checker_flags_stale_test_reference(tmp_path):
    mod = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "def test_kept():\n    pass\n\n\nclass TestGroup:\n"
        "    def test_method(self):\n        pass\n"
    )
    (tmp_path / "docs" / "a.md").write_text(
        "Kept (`tests/test_a.py::test_kept`, `::test_method`), gone\n"
        "(`::test_deleted`), and `tests/test_missing.py::test_kept`.\n"
    )
    (tmp_path / "docs" / "b.md").write_text("An orphan `::test_kept`.\n")
    assert mod.check_test_refs(tmp_path) == [
        "docs/a.md: stale test reference 'tests/test_a.py::test_deleted'",
        "docs/a.md: stale test reference 'tests/test_missing.py::test_kept'",
        "docs/b.md: '::test_kept' follows no test file reference",
    ]


def test_checker_flags_missing_docstring(tmp_path):
    mod = _load_checker()
    obs = tmp_path / "src" / "repro" / "obs"
    obs.mkdir(parents=True)
    (obs / "bare.py").write_text("def exposed():\n    pass\n")
    errors = mod.check_docstrings(tmp_path)
    assert any("missing module docstring" in e for e in errors)
    assert any("'exposed' missing docstring" in e for e in errors)


def test_checker_requires_flowcache_and_performance_doc(tmp_path):
    # The flow-cache module and its doc are part of the documentation
    # contract: deleting either must fail the check, and the module is
    # held to the docstring standard even though the rest of repro.vnet
    # is not.
    mod = _load_checker()
    assert "vnet/flowcache.py" in mod.REQUIRED_MODULES
    assert "docs/performance.md" in mod.REQUIRED_DOCS
    assert "vnet/flowcache.py" in mod.EXTRA_SWEEP_MODULES

    vnet = tmp_path / "src" / "repro" / "vnet"
    vnet.mkdir(parents=True)
    errors = mod.check_docstrings(tmp_path)
    assert any("vnet/flowcache.py: required module missing" in e for e in errors)
    assert any("docs/performance.md: required document missing" in e
               for e in errors)

    # Once present, an undocumented public name in it is flagged.
    (vnet / "flowcache.py").write_text(
        '"""mod."""\n\ndef lookup():\n    pass\n'
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "performance.md").write_text("# perf\n")
    errors = mod.check_docstrings(tmp_path)
    assert any("flowcache.py: public 'lookup' missing docstring" in e
               for e in errors)


def test_cost_tables_name_config_fields():
    mod = _load_checker()
    assert mod.check_cost_tables(REPO) == []


def test_checker_flags_unknown_cost_table_charge(tmp_path):
    mod = _load_checker()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "config.py").write_text(
        "@dataclass(frozen=True)\nclass P:\n    kept_ns: int = 1\n\n"
        "class NotConfig:\n    gone_ns: int = 2\n"
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "perf.md").write_text(
        "| Charge | Default | Charged by | When |\n|---|---|---|---|\n"
        "| `kept_ns` / `gone_ns` | 1 / 2 | `Core` | `other_ns` here is no charge |\n"
        "\n| `after_ns` | 3 | outside any cost table |\n"
    )
    assert mod.check_cost_tables(tmp_path) == [
        "docs/perf.md: cost table charges 'gone_ns', which is no repro.config field"
    ]


def test_api_tables_name_live_api():
    mod = _load_checker()
    assert mod.check_api_tables(REPO) == []


def test_checker_flags_stale_api_table_rows(tmp_path):
    mod = _load_checker()
    chaos = tmp_path / "src" / "repro" / "chaos"
    topo = tmp_path / "src" / "repro" / "topo"
    chaos.mkdir(parents=True)
    topo.mkdir(parents=True)
    (chaos / "schedule.py").write_text(
        "class FaultSchedule:\n    def partition(self):\n        pass\n\n"
        "    def _run_window(self):\n        pass\n"
    )
    (chaos / "__init__.py").write_text('__all__ = ["PartitionStage"]\n')
    (topo / "__init__.py").write_text('__all__ = ["fat_tree"]\n')
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "robustness.md").write_text(
        "| Builder | Installs | Fault parameters |\n|---|---|---|\n"
        "| `partition(port)` | `PartitionStage` | blackhole |\n"
        "| `flap(port, cycles)` | `PartitionStage`, toggled | cycles |\n"
        "| `_run_window(w)` | `JitterStage` | — |\n"
        "\n| `pause(host)` | outside the table |\n"
    )
    (tmp_path / "docs" / "topology.md").write_text(
        "## Generators\n\n* **`fat_tree(n)`** — kept.\n* **`hypercube(d)`** — gone.\n"
        "\n## Using it\n\n* **`leaf_spine(r)`** — not in the generator list.\n"
    )
    assert mod.check_api_tables(tmp_path) == [
        "docs/robustness.md: builder table lists 'flap', which is no public "
        "FaultSchedule method",
        "docs/robustness.md: builder table lists '_run_window', which is no public "
        "FaultSchedule method",
        "docs/robustness.md: builder table installs 'JitterStage', which is not in "
        "repro.chaos.__all__",
        "docs/topology.md: generator list names 'hypercube', which is not in "
        "repro.topo.__all__",
    ]
    (tmp_path / "docs" / "robustness.md").write_text("# no table\n")
    assert mod.check_api_tables(tmp_path)[0] == (
        "docs/robustness.md: no '| Builder | Installs | Fault parameters |' table"
    )
