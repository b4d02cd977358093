"""Protocol data unit (PDU) conventions.

Simulated packets carry *sizes and metadata*, never real byte buffers:
``size`` is always the total on-wire size of the PDU including its own
header.  A :class:`Blob` stands in for application payload bytes.

Each PDU gets a unique id for tracing and request/reply matching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["next_pdu_id", "Blob"]

#: ``next_pdu_id()``: globally unique (per-interpreter) packet id.  The
#: counter's own ``__next__``, so a ``default_factory=next_pdu_id`` field
#: costs no Python frame per PDU.
next_pdu_id = itertools.count(1).__next__


@dataclass(slots=True)
class Blob:
    """Opaque application payload of ``size`` bytes with optional metadata."""

    size: int
    meta: Any = None
    id: int = field(default_factory=next_pdu_id)

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"negative payload size: {self.size}")
