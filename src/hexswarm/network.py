"""The two network layers that gate agent communication.

The interaction network is fixed at initialization and never changes: it
says which pairs of agents are *allowed* to talk. The physical network is
recomputed from agent positions every tick: it says which pairs are *able*
to talk, i.e. within communication radius of each other. A pair may
actually exchange beliefs only when its edge is present in both layers and
both endpoints are currently broadcasting.

Agents are identified by 0-based indices; edges are (i, j) tuples with i < j.
Edge sets, with ``physical_edges`` and ``eligible_edges``, are the
reference representation. The tick uses the interaction network's boolean
``matrix`` instead and computes proximity among broadcasters only, through
``eligible_matrix``; the two must agree pair for pair.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError

Edge = tuple[int, int]


class InteractionNetwork:
    """Immutable undirected graph over m agents.

    ``edges`` holds the links as (i, j) tuples with i < j; ``matrix`` holds
    the same graph as a read-only symmetric ``(m, m)`` bool array.
    """

    def __init__(self, m: int, edges: Iterable[Edge], topology: str, k: int):
        self.m = m
        self.edges = frozenset(edges)
        self.topology = topology
        self.k = k
        adj: list[set[int]] = [set() for _ in range(m)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        self._adj = tuple(frozenset(s) for s in adj)
        matrix = np.zeros((m, m), dtype=bool)
        for i, j in self.edges:
            matrix[i, j] = matrix[j, i] = True
        matrix.flags.writeable = False
        self.matrix = matrix

    def neighbors(self, i: int) -> frozenset[int]:
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def to_edge_list(self) -> str:
        """One ``i j`` pair per line, sorted."""
        return "\n".join(f"{i} {j}" for i, j in sorted(self.edges)) + "\n"

    def __repr__(self) -> str:
        return f"InteractionNetwork({self.topology}, m={self.m}, k={self.k})"


def ring_lattice(m: int, k: int) -> InteractionNetwork:
    """Regular ring lattice: agent i linked to its k nearest ring neighbours.

    k must be even so each agent gets k/2 neighbours on either side.
    """
    if m < 3:
        raise ConfigError(f"ring lattice needs m >= 3 agents, got {m}")
    if k % 2 != 0:
        raise ConfigError(f"ring lattice connectivity k must be even, got {k}")
    if not 2 <= k <= m - 2:
        raise ConfigError(f"ring lattice connectivity k must be in [2, m-2], got k={k} for m={m}")
    edges = set()
    for i in range(m):
        for d in range(1, k // 2 + 1):
            j = (i + d) % m
            edges.add((min(i, j), max(i, j)))
    return InteractionNetwork(m, edges, "lattice", k)


def complete_graph(m: int) -> InteractionNetwork:
    """Totally-connected network, equivalent to a lattice with k = m - 1."""
    if m < 2:
        raise ConfigError(f"complete graph needs m >= 2 agents, got {m}")
    edges = {(i, j) for i in range(m) for j in range(i + 1, m)}
    return InteractionNetwork(m, edges, "complete", m - 1)


def physical_edges(positions: Sequence[tuple[float, float]] | np.ndarray, radius: float) -> set[Edge]:
    """Pairs of agents within Euclidean distance ``radius`` (closed ball)."""
    pts = np.asarray(positions, dtype=float)
    m = len(pts)
    if m < 2:
        return set()
    deltas = pts[:, None, :] - pts[None, :, :]
    within = (deltas * deltas).sum(axis=2) <= radius * radius
    iu, ju = np.triu_indices(m, k=1)
    mask = within[iu, ju]
    return {(int(i), int(j)) for i, j in zip(iu[mask], ju[mask])}


def eligible_edges(
    physical: set[Edge], interaction: InteractionNetwork, broadcasting: set[int]
) -> set[Edge]:
    """Edges present in both layers whose endpoints are both broadcasting."""
    allowed = interaction.edges
    return {
        (i, j)
        for (i, j) in physical
        if (i, j) in allowed and i in broadcasting and j in broadcasting
    }


def eligible_matrix(positions: np.ndarray, radius: float, allowed: np.ndarray) -> np.ndarray:
    """Eligible-pair matrix among the broadcasting agents.

    ``positions`` is the ``(b, 2)`` array of the broadcasters' positions in
    ascending id order and ``allowed`` the interaction matrix restricted to
    them, ``matrix[ids][:, ids]``. Entry ``[p, q]`` is True when the pair is
    within ``radius`` (closed ball, decided by the same float expression as
    ``physical_edges``) and linked in the interaction layer.
    """
    deltas = positions[:, None, :] - positions[None, :, :]
    return ((deltas * deltas).sum(axis=2) <= radius * radius) & allowed
