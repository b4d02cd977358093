#!/usr/bin/env python3
"""Determinism lint run by CI (the ``lint`` job).

Simulated results must be a pure function of (code, config, seed): the
repro's golden tests, the content-addressed result cache and the
determinism-suite same-seed diff all depend on it.  This lint statically
rejects the calls that break that property inside ``src/repro``:

* ``time.time()`` / ``time.time_ns()`` — wall-clock reads;
* ``datetime.now()`` / ``utcnow()`` / ``today()`` — same, dressed up;
* ``numpy.random.default_rng()`` **with no seed argument** — OS-entropy
  seeded generator;
* ``Rng()`` (:class:`repro.sim.rng.Rng`) with no seed or a ``None``
  seed — it has no entropy default, so this fails at run time anyway;
* ``import numpy`` / ``from numpy ...`` under ``src/repro`` — the
  package draws from its own bit-exact port of numpy's generator and
  must run without numpy installed;
* ``random.<fn>()`` on the global ``random`` module — hidden global
  state (``random.seed`` and seeded ``random.Random(n)`` instances are
  allowed; the exec engine seeds the global generator per point);
* ``import weakref`` / ``from weakref ...``, any ``__del__`` definition
  and any ``gc.<fn>()`` call under ``src/repro`` — code that observes
  garbage collection.  Collection runs at allocation-count thresholds,
  and the exec engine freezes full-collection survivors inside a point,
  so only code that cannot see collection keeps results independent of
  when it happens.

Findings outside the allowlist fail the run.  The allowlist maps a
repo-relative path to the set of patterns permitted there: the
wall-clock stopwatch around experiment rendering in ``__main__.py``,
which never feeds a simulated result, and the exec engine's ``gc``
calls, which freeze and thaw the heap around a point.

Usage::

    python tools/check_determinism.py            # lint src/repro
    python tools/check_determinism.py FILE...    # lint specific files

Importable pieces for the test suite: :func:`check_source` (one file's
findings) and :func:`check_tree`.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

# path (relative to the repo root, POSIX separators) -> allowed patterns.
ALLOWLIST: dict[str, set[str]] = {
    "src/repro/__main__.py": {"time.time"},
    "src/repro/exec/engine.py": {"gc"},
}

_DATETIME_FNS = {"now", "utcnow", "today"}
_RANDOM_ALLOWED = {"seed"}


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute/name chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _finding(call: ast.Call) -> tuple[str, str] | None:
    """(pattern, message) when this call is nondeterministic, else None."""
    func = call.func
    dotted = _dotted(func)
    if dotted in ("time.time", "time.time_ns"):
        return "time.time", f"wall-clock read {dotted}()"
    if isinstance(func, ast.Attribute) and func.attr in _DATETIME_FNS:
        base = _dotted(func.value)
        if base in ("datetime", "datetime.datetime", "date", "datetime.date"):
            return "datetime.now", f"wall-clock read {dotted}()"
    is_default_rng = dotted is not None and (
        dotted == "default_rng" or dotted.endswith(".default_rng")
    )
    if is_default_rng and not call.args and not call.keywords:
        return "unseeded-default-rng", "default_rng() without a seed"
    if dotted is not None and (dotted == "Rng" or dotted.endswith(".Rng")):
        seeds = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "seed"]
        if not seeds or any(isinstance(s, ast.Constant) and s.value is None for s in seeds):
            return "unseeded-rng", "Rng() without a seed"
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "random":
        if func.attr in _RANDOM_ALLOWED:
            return None
        if func.attr == "Random" and (call.args or call.keywords):
            return None  # seeded instance
        return "random-global", f"global-state random.{func.attr}()"
    return None


def _package_finding(node: ast.AST) -> tuple[str, str] | None:
    """(pattern, message) for a construct banned only under src/repro."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if node.name == "__del__":
            return "finalizer", "__del__ finalizer observes garbage collection"
        return None
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        if dotted is not None and dotted.startswith("gc."):
            return "gc", f"{dotted}() observes or steers garbage collection"
        return None
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        names = [node.module]
    else:
        return None
    for name in names:
        if name == "numpy" or name.startswith("numpy."):
            return "numpy-import", f"import of {name} (use repro.sim.rng.Rng)"
        if name == "weakref" or name.startswith("weakref."):
            return "weakref", f"import of {name} observes garbage collection"
    return None


def check_source(source: str, rel_path: str) -> list[str]:
    """Findings for one file's source text, as ``path:line: message``."""
    allowed = ALLOWLIST.get(rel_path, set())
    in_package = rel_path.startswith("src/repro/")
    findings = []
    tree = ast.parse(source, filename=rel_path)
    for node in ast.walk(tree):
        hits = [_package_finding(node)] if in_package else []
        if isinstance(node, ast.Call):
            hits.append(_finding(node))
        for hit in hits:
            if hit is None or hit[0] in allowed:
                continue
            findings.append(f"{rel_path}:{node.lineno}: {hit[1]} [{hit[0]}]")
    return findings


def check_tree(repo: Path, paths: list[Path] | None = None) -> list[str]:
    """Findings across ``src/repro`` (or explicit ``paths``)."""
    if paths is None:
        paths = sorted((repo / "src" / "repro").rglob("*.py"))
    findings = []
    for py_file in paths:
        try:
            rel = py_file.resolve().relative_to(repo.resolve()).as_posix()
        except ValueError:
            rel = py_file.as_posix()
        findings.extend(check_source(py_file.read_text(encoding="utf-8"), rel))
    return findings


def main(argv: list[str]) -> int:
    repo = Path(__file__).resolve().parent.parent
    paths = [Path(a) for a in argv] or None
    findings = check_tree(repo, paths)
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print(f"{len(findings)} determinism problem(s)", file=sys.stderr)
        return 1
    print("determinism OK: no wall-clock, unseeded-randomness, numpy or GC-observing"
          " use in src/repro")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
