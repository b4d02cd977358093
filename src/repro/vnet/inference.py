"""Application-topology inference from overlay traffic (Sect. 3, item 1).

The Virtuoso stack's VTTIF component demonstrated that the VNET layer
can infer "the topology and traffic load of parallel programs" without
any guest cooperation, purely from the traffic it carries; VADAPT then
matches the overlay to that topology.  This module reproduces the
inference: given the aggregated traffic matrix from the
:class:`~repro.vnet.monitor.TrafficMonitor`s, normalise it, threshold
away noise, and classify the application's communication pattern.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .monitor import TrafficMonitor

__all__ = ["Topology", "InferredTopology", "aggregate_matrix", "infer_topology"]


class Topology(enum.Enum):
    """Communication patterns VTTIF-style inference distinguishes."""

    NONE = "none"                 # no significant traffic
    PAIR = "pair"                 # a single dominant flow pair
    RING = "ring"                 # each node talks to ~2 neighbours, cyclic
    STAR = "star"                 # one hub exchanges with all others
    ALL_TO_ALL = "all-to-all"     # dense matrix
    IRREGULAR = "irregular"       # none of the above


@dataclass
class InferredTopology:
    """Classification result with the supporting evidence."""

    topology: Topology
    nodes: list[str]              # MACs, in matrix order
    matrix: list[list[float]]     # normalised traffic fractions, by row
    density: float                # fraction of possible edges carrying traffic

    def describe(self) -> str:
        return (
            f"{self.topology.value} over {len(self.nodes)} endpoints "
            f"(edge density {self.density:.0%})"
        )


def aggregate_matrix(
    monitors: Iterable[TrafficMonitor],
    threshold: float = 0.02,
) -> tuple[list[str], list[list[float]]]:
    """Merge per-core traffic matrices into one normalised adjacency matrix.

    Entries below ``threshold`` (as a fraction of the largest flow) are
    treated as control noise and zeroed, as VTTIF does.
    """
    totals: dict[tuple[str, str], int] = {}
    for monitor in monitors:
        for (src, dst), nbytes in monitor.matrix().items():
            totals[(src, dst)] = totals.get((src, dst), 0) + nbytes
    nodes = sorted({mac for pair in totals for mac in pair})
    index = {mac: i for i, mac in enumerate(nodes)}
    matrix = [[0.0] * len(nodes) for _ in nodes]
    for (src, dst), nbytes in totals.items():
        matrix[index[src]][index[dst]] = float(nbytes)
    peak = max((max(row) for row in matrix), default=0.0)
    if peak > 0:
        matrix = [[v / peak for v in row] for row in matrix]
        matrix = [[v if v >= threshold else 0.0 for v in row] for row in matrix]
    return nodes, matrix


def infer_topology(
    monitors: Iterable[TrafficMonitor],
    threshold: float = 0.02,
) -> InferredTopology:
    """Classify the application's communication pattern."""
    nodes, matrix = aggregate_matrix(monitors, threshold)
    n = len(nodes)
    adj = [[v > 0 for v in row] for row in matrix]
    edges = sum(map(sum, adj))
    if edges == 0:
        return InferredTopology(Topology.NONE, nodes, matrix, 0.0)
    possible = n * (n - 1)
    density = edges / possible if possible else 0.0
    out_deg = [sum(row) for row in adj]
    in_deg = [sum(col) for col in zip(*adj)]

    topology = Topology.IRREGULAR
    if n == 2 or (edges <= 2 and sum(d > 0 for d in out_deg) <= 2):
        topology = Topology.PAIR
    elif density >= 0.9:
        topology = Topology.ALL_TO_ALL
    elif _is_ring(adj):
        topology = Topology.RING
    elif _is_star(adj, out_deg, in_deg):
        topology = Topology.STAR
    return InferredTopology(topology, nodes, matrix, float(density))


def _symmetric(adj: list[list[bool]]) -> list[list[bool]]:
    """Undirected adjacency: an edge either way links both nodes."""
    return [[a or b for a, b in zip(row, col)] for row, col in zip(adj, zip(*adj))]


def _is_ring(adj: list[list[bool]]) -> bool:
    """Every node exchanges with exactly 2 peers and the graph is one cycle."""
    n = len(adj)
    if n < 3:
        return False
    sym = _symmetric(adj)
    if any(sum(row) != 2 for row in sym):
        return False
    # Walk the cycle: it must visit every node.
    visited = {0}
    prev, cur = None, 0
    for _ in range(n):
        neighbours = [j for j in range(n) if sym[cur][j] and j != prev]
        if not neighbours:
            return False
        prev, cur = cur, neighbours[0]
        if cur == 0:
            break
        visited.add(cur)
    return len(visited) == n


def _is_star(adj: list[list[bool]], out_deg: list[int], in_deg: list[int]) -> bool:
    """One hub exchanging with everyone; leaves talk only to the hub."""
    n = len(adj)
    if n < 3:
        return False
    total_deg = [o + i for o, i in zip(out_deg, in_deg)]
    hub = total_deg.index(max(total_deg))
    sym = _symmetric(adj)
    if not all(sym[hub][j] for j in range(n) if j != hub):
        return False
    for j in range(n):
        if j == hub:
            continue
        peers = {k for k in range(n) if sym[j][k]}
        if peers - {hub}:
            return False
    return True
