"""Overlay configuration validation.

A misconfigured overlay fails silently: packets to an unrouted MAC are
dropped, a link pointing at the wrong port blackholes, a waypoint
missing a forward route strands traffic.  Before (or after) an
adaptation pass, :func:`validate_overlay` walks every (source guest,
destination guest) MAC pair with the overlay's one forwarding walk
(:meth:`~repro.vnet.node.OverlayMap.walk`): starting at the source
guest's core with the guest's own MAC, each core makes the decision
its datapath makes.  It reports unreachable destinations, forwarding
loops, and dangling links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .node import OverlayMap, WalkEnd
from .overlay import LinkProto

if TYPE_CHECKING:  # pragma: no cover
    from .core import VnetCore

__all__ = ["OverlayIssue", "ValidationReport", "validate_overlay"]


@dataclass
class OverlayIssue:
    """One problem found while walking the overlay."""

    kind: str           # "unreachable" | "loop" | "dangling-link" | "black-hole"
    where: str          # core name
    detail: str


@dataclass
class ValidationReport:
    """Outcome of a validation pass."""

    issues: list[OverlayIssue] = field(default_factory=list)
    paths_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def render(self) -> str:
        if self.ok:
            return f"overlay OK ({self.paths_checked} paths checked)"
        lines = [f"overlay has {len(self.issues)} issue(s):"]
        for issue in self.issues:
            lines.append(f"  [{issue.kind}] {issue.where}: {issue.detail}")
        return "\n".join(lines)


def validate_overlay(cores: list["VnetCore"]) -> ValidationReport:
    """Check that every guest reaches every guest on another core."""
    report = ValidationReport()
    overlay = OverlayMap(cores)

    def issue(kind: str, where: str, detail: str) -> None:
        report.issues.append(OverlayIssue(kind, where, detail))

    # Dangling links first: links that point at no known core.
    for core in cores:
        for link in core.links.values():
            if link.proto is not LinkProto.DIRECT and link.dst_ip not in overlay.index_of_ip:
                issue("dangling-link", core.name,
                      f"link {link.name!r} targets unknown host {link.dst_ip}")

    for src, start in overlay.index_of_mac.items():
        for mac, owner in overlay.index_of_mac.items():
            if owner == start:
                continue
            report.paths_checked += 1
            walk = overlay.walk(src, mac)
            names = [node.name for node in walk.nodes]
            where = names[-1]
            if walk.end is WalkEnd.NO_ROUTE:
                issue("unreachable" if len(names) == 1 else "black-hole", where,
                      f"no route for {src} -> {mac} (path {' -> '.join(names)})")
            elif walk.end is WalkEnd.DELIVERED and walk.nic.mac != mac:
                issue("black-hole", where, f"{mac} routed to local interface "
                      f"{walk.nic.mac} but lives on {cores[owner].name}")
            elif walk.end is WalkEnd.DANGLING:
                issue("black-hole", where,
                      f"{mac} forwarded onto dangling link {walk.links[-1].name!r}")
            elif walk.end is WalkEnd.LOOP:
                issue("loop", names[0],
                      f"{mac}: {' -> '.join(names[:6])} ... never terminates")
            # WalkEnd.DIRECT leaves the overlay: assumed delivered.
    return report
