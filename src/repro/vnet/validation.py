"""Overlay configuration validation.

A misconfigured overlay fails silently: packets to an unrouted MAC are
dropped, a link pointing at the wrong port blackholes, a waypoint
missing a forward route strands traffic.  Before (or after) an
adaptation pass, :func:`validate_overlay` walks every (source VM,
destination MAC) pair through the cores' routing tables — following
links hop by hop, exactly as packets would — and reports unreachable
destinations, forwarding loops, and dangling links.

The overlay graph itself (cores as nodes, links as edges) is exposed as
a :mod:`networkx` digraph for further analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import networkx as nx

from .overlay import DestType, LinkProto

if TYPE_CHECKING:  # pragma: no cover
    from .core import VnetCore

__all__ = ["OverlayIssue", "ValidationReport", "overlay_graph", "validate_overlay"]

MAX_HOPS = 16


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


def overlay_graph(cores: list["VnetCore"]) -> nx.DiGraph:
    """Cores as nodes, UDP/TCP links as directed edges (by target host IP)."""
    by_ip = {core.host.ip: core for core in cores}
    graph = nx.DiGraph()
    for core in cores:
        graph.add_node(core.name, ip=core.host.ip, macs=sorted(core.local_macs()))
    for core in cores:
        for link in core.links.values():
            if link.proto is LinkProto.DIRECT:
                continue
            target = by_ip.get(link.dst_ip)
            if target is not None:
                graph.add_edge(core.name, target.name, link=link.name)
    return graph


def validate_overlay(cores: list["VnetCore"]) -> ValidationReport:
    """Check that every guest MAC is reachable from every core."""
    report = ValidationReport()
    by_ip = {core.host.ip: core for core in cores}
    all_macs = {mac: core for core in cores for mac in core.local_macs()}

    # Dangling links first: links that point at no known core.
    for core in cores:
        for link in core.links.values():
            if link.proto is not LinkProto.DIRECT and link.dst_ip not in by_ip:
                report.issues.append(
                    OverlayIssue(
                        kind="dangling-link",
                        where=core.name,
                        detail=f"link {link.name!r} targets unknown host {link.dst_ip}",
                    )
                )

    src_probe = "02:00:00:00:00:01"
    for start in cores:
        for mac, owner in all_macs.items():
            if mac in start.local_macs():
                continue
            report.paths_checked += 1
            current: Optional["VnetCore"] = start
            visited = []
            for _hop in range(MAX_HOPS):
                visited.append(current.name)
                entry = current.routing.peek(src_probe, mac)
                if entry is None:
                    report.issues.append(
                        OverlayIssue(
                            kind="unreachable" if current is start else "black-hole",
                            where=current.name,
                            detail=f"no route for {mac} "
                            f"(path {' -> '.join(visited)})",
                        )
                    )
                    current = None
                    break
                if entry.dest_type is DestType.INTERFACE:
                    if current is not owner:
                        report.issues.append(
                            OverlayIssue(
                                kind="black-hole",
                                where=current.name,
                                detail=f"{mac} routed to a local interface but "
                                f"lives on {owner.name}",
                            )
                        )
                    current = None
                    break
                link = current.links[entry.dest_name]
                if link.proto is LinkProto.DIRECT:
                    current = None  # leaves the overlay; assume delivered
                    break
                nxt = by_ip.get(link.dst_ip)
                if nxt is None:
                    report.issues.append(
                        OverlayIssue(
                            kind="black-hole",
                            where=current.name,
                            detail=f"{mac} forwarded onto dangling link {link.name!r}",
                        )
                    )
                    current = None
                    break
                current = nxt
            else:
                report.issues.append(
                    OverlayIssue(
                        kind="loop",
                        where=start.name,
                        detail=f"{mac}: {' -> '.join(visited[:6])} ... never terminates",
                    )
                )
    return report
