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
* ``random.<fn>()`` on the global ``random`` module — hidden global
  state (``random.seed`` and seeded ``random.Random(n)`` instances are
  allowed; the exec engine seeds the global generator per point).

Findings outside the allowlist fail the run.  The allowlist maps a
repo-relative path to the set of patterns permitted there — today only
``__main__.py``'s wall-clock stopwatch around experiment rendering,
which never feeds a simulated result.

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
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "random":
        if func.attr in _RANDOM_ALLOWED:
            return None
        if func.attr == "Random" and (call.args or call.keywords):
            return None  # seeded instance
        return "random-global", f"global-state random.{func.attr}()"
    return None


def check_source(source: str, rel_path: str) -> list[str]:
    """Findings for one file's source text, as ``path:line: message``."""
    allowed = ALLOWLIST.get(rel_path, set())
    findings = []
    tree = ast.parse(source, filename=rel_path)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        hit = _finding(node)
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
    print("determinism OK: no wall-clock or unseeded-randomness calls in src/repro")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
