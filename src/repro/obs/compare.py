"""Structured diff engine over two :class:`~repro.obs.runinfo.RunArtifact`\\ s.

CI used to check determinism by grepping rendered report text and
running ``diff -u`` on the rows — a comparison of *formatting*, not
results.  :func:`diff_artifacts` compares the structured bundles
instead, walking the diffable sections (``config``, ``rows``,
``metrics``, ``timelines``, ``health``, ``fairness``) as trees and
reporting every leaf that differs with its dotted path.

Two modes:

* **exact** — any leaf difference is a difference.  This is the
  same-seed determinism check: two runs of the same code at the same
  seeds must produce *identical* artifacts (the determinism-suite A/Bs, the
  cold/warm cache legs, the nightly soak legs).
* **tolerance** — numeric leaves may differ within ``rel_tol`` /
  ``abs_tol`` and are counted as *tolerated* rather than different;
  non-numeric leaves still compare exactly.  This is the fluid/ablation
  A/B mode, where a statistically-validated fast path may legally move
  numbers a little.

Verdicts: ``identical`` (no differences, nothing tolerated),
``equivalent`` (tolerance mode absorbed every numeric delta), or
``different``.  NaN equals NaN (health events use NaN for "no value"),
and ``volatile``/``profile`` sections are never compared.  The CLI is
``python -m repro obs diff A B [--mode exact|tolerance] ...`` — exit 0
for identical/equivalent, 1 for different, 2 for unusable inputs
(schema mismatch, unreadable file).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Optional

from .runinfo import RunArtifact

__all__ = ["Difference", "DiffReport", "diff_artifacts", "DEFAULT_SECTIONS"]

#: Sections compared by default (everything deterministic).
DEFAULT_SECTIONS = ("config", "rows", "metrics", "timelines", "health", "fairness")

#: Leaf paths ignored by default: the one intentionally wall-clock
#: metric the exec engine publishes.
DEFAULT_IGNORE = ("metrics.exec.points.wall_s*",)

#: A marker for "key absent on this side" in :class:`Difference`.
MISSING = "<missing>"

#: Cap on rendered differences (the JSON verdict always carries all).
_RENDER_LIMIT = 50


@dataclass
class Difference:
    """One leaf (or shape) difference between two artifacts."""

    path: str
    a: object
    b: object
    note: str = ""

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {"path": self.path, "a": self.a, "b": self.b, "note": self.note}


@dataclass
class DiffReport:
    """The outcome of one :func:`diff_artifacts` comparison."""

    mode: str
    sections: tuple
    rel_tol: float
    abs_tol: float
    differences: list = field(default_factory=list)
    tolerated: int = 0
    leaves: int = 0

    @property
    def identical(self) -> bool:
        """No differences and nothing needed tolerance."""
        return not self.differences and self.tolerated == 0

    @property
    def equivalent(self) -> bool:
        """No differences (tolerance may have absorbed numeric deltas)."""
        return not self.differences

    @property
    def verdict(self) -> str:
        """``identical`` | ``equivalent`` | ``different``."""
        if self.identical:
            return "identical"
        if self.equivalent:
            return "equivalent"
        return "different"

    def to_dict(self) -> dict:
        """JSON-serialisable verdict + every difference."""
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "sections": list(self.sections),
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "leaves": self.leaves,
            "tolerated": self.tolerated,
            "differences": [d.to_dict() for d in self.differences],
        }

    def render(self) -> str:
        """Human-readable verdict, with the first differences spelled out."""
        head = (
            f"[obs diff] verdict: {self.verdict.upper() if self.differences else self.verdict}"
            f" (mode={self.mode}, sections={','.join(self.sections)}, "
            f"{self.leaves} leaves compared, {self.tolerated} tolerated, "
            f"{len(self.differences)} differences)"
        )
        lines = [head]
        for d in self.differences[:_RENDER_LIMIT]:
            note = f"  [{d.note}]" if d.note else ""
            lines.append(f"  {d.path}: {d.a!r} != {d.b!r}{note}")
        if len(self.differences) > _RENDER_LIMIT:
            lines.append(f"  ... and {len(self.differences) - _RENDER_LIMIT} more")
        return "\n".join(lines)


class _Walker:
    """Recursive tree comparison with dotted-path bookkeeping."""

    def __init__(self, mode: str, rel_tol: float, abs_tol: float, ignore: tuple):
        self.mode = mode
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.ignore = ignore
        self.differences: list[Difference] = []
        self.tolerated = 0
        self.leaves = 0

    def _ignored(self, path: str) -> bool:
        return any(fnmatchcase(path, pat) for pat in self.ignore)

    def walk(self, path: str, a, b) -> None:
        if self._ignored(path):
            return
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b), key=str):
                sub = f"{path}.{key}" if path else str(key)
                if key not in a:
                    if not self._ignored(sub):
                        self.differences.append(
                            Difference(sub, MISSING, b[key], "only in B")
                        )
                elif key not in b:
                    if not self._ignored(sub):
                        self.differences.append(
                            Difference(sub, a[key], MISSING, "only in A")
                        )
                else:
                    self.walk(sub, a[key], b[key])
            return
        if isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.differences.append(
                    Difference(path, len(a), len(b), "length mismatch")
                )
            for i, (va, vb) in enumerate(zip(a, b)):
                self.walk(f"{path}[{i}]", va, vb)
            return
        self.leaves += 1
        if self._leaf_equal(path, a, b):
            return
        self.differences.append(Difference(path, a, b))

    def _leaf_equal(self, path: str, a, b) -> bool:
        if type(a) is bool or type(b) is bool:
            return a is b
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            if a == b:
                return True
            if math.isnan(a) and math.isnan(b):
                return True
            if self.mode == "tolerance" and math.isclose(
                a, b, rel_tol=self.rel_tol, abs_tol=self.abs_tol
            ):
                self.tolerated += 1
                return True
            return False
        return a == b


def diff_artifacts(
    a: RunArtifact,
    b: RunArtifact,
    mode: str = "exact",
    sections: Optional[tuple] = None,
    rel_tol: float = 0.02,
    abs_tol: float = 0.0,
    ignore: tuple = (),
) -> DiffReport:
    """Structurally compare two artifacts; returns a :class:`DiffReport`.

    ``mode`` is ``"exact"`` or ``"tolerance"`` (see module docstring);
    ``sections`` restricts the comparison (default
    :data:`DEFAULT_SECTIONS` — e.g. ``("rows",)`` for an ablation A/B
    whose metrics legitimately differ); ``ignore`` adds
    :func:`fnmatch.fnmatchcase` patterns over dotted leaf paths on top
    of :data:`DEFAULT_IGNORE`.  Raises ``ValueError`` for unknown modes
    or mismatched artifact schemas.
    """
    if mode not in ("exact", "tolerance"):
        raise ValueError(f"unknown diff mode {mode!r}")
    if a.schema != b.schema:
        raise ValueError(
            f"artifact schema mismatch: {a.schema} vs {b.schema} "
            "(regenerate with matching code)"
        )
    chosen = tuple(sections) if sections is not None else DEFAULT_SECTIONS
    unknown = [s for s in chosen if s not in DEFAULT_SECTIONS]
    if unknown:
        raise ValueError(
            f"unknown section(s) {unknown}; valid: {', '.join(DEFAULT_SECTIONS)}"
        )
    walker = _Walker(mode, rel_tol, abs_tol, tuple(ignore) + DEFAULT_IGNORE)
    da, db = a.to_dict(), b.to_dict()
    for section in chosen:
        walker.walk(section, da.get(section), db.get(section))
    return DiffReport(
        mode=mode,
        sections=chosen,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        differences=walker.differences,
        tolerated=walker.tolerated,
        leaves=walker.leaves,
    )
