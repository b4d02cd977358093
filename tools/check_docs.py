#!/usr/bin/env python3
"""Documentation checks run by CI.

Five checks, importable individually by the test suite:

* :func:`check_links` — every internal file reference in ``docs/*.md``
  (markdown links plus backticked ``path/to/file.md``/``.py`` mentions)
  resolves to a real file in the repository;
* :func:`check_test_refs` — every ``tests/….py::test_name`` reference in
  ``docs/*.md`` names a test defined in that file; a bare
  ``::test_name`` resolves against the previous full reference in the
  same doc;
* :func:`check_docstrings` — every public module in ``src/repro/obs/``,
  ``src/repro/exec/``, ``src/repro/chaos/`` and ``src/repro/topo/`` has
  a module docstring,
  and every public top-level class/function in those packages has one
  too — plus the time-dimension modules (``obs/timeline.py``,
  ``obs/flows.py``, ``obs/health.py``) must exist at all, so a rename
  cannot silently drop them out of the docstring sweep;
* :func:`check_cost_tables` — every backticked name in the first column
  of a ``| Charge | Default | Charged by | When |`` table in
  ``docs/*.md`` is a field of a ``repro.config`` dataclass;
* :func:`check_api_tables` — the fault-schedule builder table in
  ``docs/robustness.md`` names only public ``FaultSchedule`` methods and
  classes in ``repro.chaos.__all__``, and the generator list in
  ``docs/topology.md`` names only functions in ``repro.topo.__all__``.

All checks read the source with :mod:`ast`; none imports ``repro``.
Exit status is non-zero if any check fails.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

# Markdown link targets: [text](target), skipping external schemes.
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")
# Backticked repo-file mentions: `docs/foo.md`, `vnet/core.py`, ...
_TICK_REF = re.compile(r"`([A-Za-z0-9_.\-/]+\.(?:md|py))`")
_EXTERNAL = ("http://", "https://", "mailto:")
# Test references: `tests/sim/test_core.py::test_x`, or a bare `::test_y`
# naming another test of the file referenced last.
_TEST_REF = re.compile(r"([A-Za-z0-9_./\-]+\.py)?::(test_[A-Za-z0-9_]+)")


def _resolves(ref: str, md_file: Path, repo: Path) -> bool:
    roots = (
        md_file.parent,        # relative to the doc itself
        repo,                  # repo-root files (DESIGN.md, examples/...)
        repo / "docs",
        repo / "src",          # `repro/config.py`
        repo / "src" / "repro",  # module-relative (`vnet/core.py`)
        repo / "examples",     # bare example names
    )
    return any((root / ref).is_file() for root in roots)


def check_links(repo: Path) -> list[str]:
    """Unresolvable internal references in ``docs/*.md``, as error strings."""
    errors = []
    for md_file in sorted((repo / "docs").glob("*.md")):
        text = md_file.read_text(encoding="utf-8")
        refs = [t for t in _MD_LINK.findall(text) if not t.startswith(_EXTERNAL)]
        refs += _TICK_REF.findall(text)
        for ref in refs:
            if not _resolves(ref, md_file, repo):
                errors.append(f"{md_file.relative_to(repo)}: broken reference {ref!r}")
    return errors


def _defined_tests(py_file: Path) -> set[str]:
    tree = ast.parse(py_file.read_text(encoding="utf-8"))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def check_test_refs(repo: Path) -> list[str]:
    """Test references in ``docs/*.md`` that name no defined test."""
    errors = []
    defined: dict[str, set[str]] = {}
    for md_file in sorted((repo / "docs").glob("*.md")):
        rel = md_file.relative_to(repo)
        current = None
        for path, name in _TEST_REF.findall(md_file.read_text(encoding="utf-8")):
            current = path or current
            if current is None:
                errors.append(f"{rel}: '::{name}' follows no test file reference")
                continue
            if current not in defined:
                test_file = repo / current
                defined[current] = _defined_tests(test_file) if test_file.is_file() else set()
            if name not in defined[current]:
                errors.append(f"{rel}: stale test reference '{current}::{name}'")
    return errors


# Modules the docstring sweep must always see; a rename or deletion here
# should fail CI rather than silently shrink the documented surface.
REQUIRED_MODULES = (
    "obs/fairness.py",
    "obs/profile.py",
    "obs/runinfo.py",
    "obs/compare.py",
    "obs/timeline.py",
    "obs/flows.py",
    "obs/health.py",
    "obs/convergence.py",
    "vnet/flowcache.py",
    "sim/fluid.py",
    "vnet/fluidpath.py",
    "topo/model.py",
    "topo/generators.py",
    "topo/compiler.py",
    "topo/provision.py",
)

# Docs that must exist: CI fails if one is deleted without updating the
# documentation contract here.
REQUIRED_DOCS = (
    "docs/congestion.md",
    "docs/performance.md",
    "docs/topology.md",
)

# Individually-swept modules from packages that are otherwise not held
# to the docstring standard (the vnet package predates it).
EXTRA_SWEEP_MODULES = (
    "vnet/flowcache.py",
    "sim/fluid.py",
    "vnet/fluidpath.py",
    "harness/experiments/fairness.py",
)


def check_docstrings(repo: Path) -> list[str]:
    """Missing docstrings in the documented packages (``obs``, ``exec``,
    ``chaos``) plus :data:`EXTRA_SWEEP_MODULES`, and missing
    :data:`REQUIRED_MODULES` / :data:`REQUIRED_DOCS`."""
    errors = []
    for required in REQUIRED_MODULES:
        if not (repo / "src" / "repro" / required).is_file():
            errors.append(f"src/repro/{required}: required module missing")
    for required in REQUIRED_DOCS:
        if not (repo / required).is_file():
            errors.append(f"{required}: required document missing")
    files = [
        py_file
        for package in ("obs", "exec", "chaos", "topo")
        for py_file in sorted((repo / "src" / "repro" / package).glob("*.py"))
    ]
    files += [
        repo / "src" / "repro" / extra
        for extra in EXTRA_SWEEP_MODULES
        if (repo / "src" / "repro" / extra).is_file()
    ]
    for py_file in files:
        rel = py_file.relative_to(repo)
        tree = ast.parse(py_file.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            errors.append(f"{rel}: missing module docstring")
        for node in tree.body:
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            if ast.get_docstring(node) is None:
                errors.append(f"{rel}: public {node.name!r} missing docstring")
    return errors


_COST_TABLE_HEADER = "| Charge | Default | Charged by | When |"


def _config_fields(repo: Path) -> set[str]:
    """Field names of every ``@dataclass`` in ``src/repro/config.py``."""
    tree = ast.parse((repo / "src" / "repro" / "config.py").read_text(encoding="utf-8"))
    fields = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        fields |= {
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
    return fields


def check_cost_tables(repo: Path) -> list[str]:
    """Cost-table charges in ``docs/*.md`` that name no config field."""
    fields = _config_fields(repo)
    errors = []
    for md_file in sorted((repo / "docs").glob("*.md")):
        in_table = False
        for line in md_file.read_text(encoding="utf-8").splitlines():
            if line.strip() == _COST_TABLE_HEADER:
                in_table = True
                continue
            if not in_table or not line.startswith("|"):
                in_table = False
                continue
            for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
                if name not in fields:
                    errors.append(
                        f"{md_file.relative_to(repo)}: cost table charges {name!r}, "
                        "which is no repro.config field"
                    )
    return errors


_BUILDER_TABLE_HEADER = "| Builder | Installs | Fault parameters |"


def _module_all(py_file: Path) -> set[str]:
    """The string entries of ``__all__`` in ``py_file``."""
    tree = ast.parse(py_file.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _public_methods(py_file: Path, class_name: str) -> set[str]:
    """Public method names of top-level class ``class_name`` in ``py_file``."""
    tree = ast.parse(py_file.read_text(encoding="utf-8"))
    return {
        stmt.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == class_name
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
    }


def _doc_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines() if path.is_file() else []


def check_api_tables(repo: Path) -> list[str]:
    """Fault builders, injector classes and topology generators that the
    robustness and topology docs list but the code no longer has."""
    chaos = repo / "src" / "repro" / "chaos"
    builders = _public_methods(chaos / "schedule.py", "FaultSchedule")
    chaos_all = _module_all(chaos / "__init__.py")
    topo_all = _module_all(repo / "src" / "repro" / "topo" / "__init__.py")
    errors = []

    rows = []
    in_table = False
    for line in _doc_lines(repo / "docs" / "robustness.md"):
        if line.strip() == _BUILDER_TABLE_HEADER:
            in_table = True
            continue
        if not in_table or not line.startswith("|"):
            in_table = False
            continue
        rows.append(line.split("|"))
    if not rows:
        errors.append(f"docs/robustness.md: no '{_BUILDER_TABLE_HEADER}' table")
    for cells in rows:
        for name in re.findall(r"`(\w+)\(", cells[1]):
            if name not in builders:
                errors.append(f"docs/robustness.md: builder table lists {name!r}, "
                              "which is no public FaultSchedule method")
        for name in re.findall(r"`(\w+)`", cells[2]):
            if name not in chaos_all:
                errors.append(f"docs/robustness.md: builder table installs {name!r}, "
                              "which is not in repro.chaos.__all__")

    generators = []
    in_section = False
    for line in _doc_lines(repo / "docs" / "topology.md"):
        if line.startswith("## "):
            in_section = line.startswith("## Generators")
        elif in_section:
            generators += re.findall(r"^\* \*\*`(\w+)\(", line)
    if not generators:
        errors.append("docs/topology.md: no generator list under '## Generators'")
    for name in generators:
        if name not in topo_all:
            errors.append(f"docs/topology.md: generator list names {name!r}, "
                          "which is not in repro.topo.__all__")
    return errors


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    errors = (
        check_links(repo) + check_test_refs(repo) + check_docstrings(repo)
        + check_cost_tables(repo) + check_api_tables(repo)
    )
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        print(f"{len(errors)} documentation problem(s)", file=sys.stderr)
        return 1
    print(
        "docs OK: links and test references resolve, repro.obs/repro.exec/repro.chaos/repro.topo "
        "(+ flowcache) public surfaces documented, cost tables name config fields, "
        "fault-builder and generator lists name live API"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
