"""Content-addressed on-disk result cache.

Entries are pickled :class:`~repro.exec.point.PointResult` payloads
stored at ``<root>/<key[:2]>/<key>.pkl`` where ``key`` hashes the point's
:func:`~repro.exec.fingerprint.fingerprint` together with the current
values of the recorded environment knobs
(:data:`repro.obs.runinfo.ENV_KNOBS`): a knob such as ``REPRO_FLUID``
changes which code paths a point runs without changing the point, so
a fluid run must never be served a packet-level entry or vice versa.
The knobs salt only the cache key, not the fingerprint, so
:func:`~repro.exec.fingerprint.point_seed` is the same in every mode.
Because the fingerprint includes a hash of the package source, cache
invalidation is automatic: editing any ``repro`` source file orphans
every existing entry (stale files are garbage, never wrong answers).

Writes are atomic (temp file + ``os.replace``) so a killed run never
leaves a truncated entry; reads treat any unpicklable/corrupt file as a
miss and fall through to recomputation.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

from ..obs.runinfo import env_knobs
from .point import PointResult

__all__ = ["ResultCache"]


class ResultCache:
    """Pickle store for point results, keyed by content fingerprint."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, fp: str) -> Path:
        """Where the entry for fingerprint ``fp`` under the current
        environment knobs lives (or would live)."""
        key = hashlib.sha256(f"{fp}|{env_knobs()!r}".encode()).hexdigest()
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, fp: str) -> Optional[PointResult]:
        """The cached result for ``fp``, or ``None`` (corrupt == miss)."""
        path = self.path(fp)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        if not isinstance(result, PointResult):
            return None
        result.cached = True
        return result

    def put(self, fp: str, result: PointResult) -> None:
        """Store ``result`` under ``fp`` atomically."""
        path = self.path(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:  # pragma: no cover - debugging aid
        return sum(1 for _ in self.root.glob("*/*.pkl"))
