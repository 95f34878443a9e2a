"""The two network layers that gate agent communication.

The interaction network is fixed at initialization and never changes: it
says which pairs of agents are *allowed* to talk. The physical network is
recomputed from agent positions every tick: it says which pairs are *able*
to talk, i.e. within communication radius of each other. A pair may
actually exchange beliefs only when its edge is present in both layers and
both endpoints are currently broadcasting.

Agents are identified by 0-based indices; edges are (i, j) tuples with i < j.
An interaction network is stored once, as its rows of higher-id neighbours
(``InteractionNetwork.upper``); its edge set is derived from them on read.
The reference model in ``tests/reference_model.py`` pairs agents through
the edge sets of ``physical_edges`` and ``eligible_edges``; the tests compare
it with ``eligible_partners``, which the tick calls: one pass over the agents
that lists the broadcasters and tests distance only for their broadcasting
higher-id interaction neighbours (``InteractionNetwork.upper``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .agent import EXPLORING
from .errors import check, check_lattice

Edge = tuple[int, int]


class InteractionNetwork:
    """Immutable undirected graph over m agents, stored as its rows:
    ``upper[i]`` holds the neighbours of i with a larger id, in ascending
    order, so the rows together list every edge exactly once."""

    def __init__(self, upper: Iterable[tuple[int, ...]]):
        self.upper = tuple(upper)

    @property
    def edges(self) -> frozenset[Edge]:
        """Every link as an (i, j) tuple with i < j, built from ``upper`` on each read."""
        return frozenset((i, j) for i, row in enumerate(self.upper) for j in row)


def ring_lattice(m: int, k: int) -> InteractionNetwork:
    """Regular ring lattice: agent i linked to its k nearest ring neighbours.

    k must be even so each agent gets k/2 neighbours on either side. Row i
    holds i+1..i+k/2 (those below m), then m+i-k/2..m-1 (those of i-k/2..i-1
    that wrap round past 0); as k <= m-2, the second run lies above the first.
    """
    check("m", m)
    check_lattice(m, k)
    ids = tuple(range(m))
    half = k // 2
    return InteractionNetwork(ids[i + 1 : i + half + 1] + ids[m + i - half :] for i in ids)


def complete_graph(m: int) -> InteractionNetwork:
    """Totally-connected network, equivalent to a lattice with k = m - 1."""
    check("m", m)
    # Rows sliced from one tuple share its int objects: 8 bytes an edge.
    ids = tuple(range(m))
    return InteractionNetwork(ids[i + 1 :] for i in ids)


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
    upper = interaction.upper
    return {
        (i, j)
        for (i, j) in physical
        if j in upper[i] and i in broadcasting and j in broadcasting
    }


def eligible_partners(
    agents: Sequence, radius: float, interaction: InteractionNetwork
) -> tuple[list[int], dict[int, list[int]]]:
    """The broadcasters (agents not exploring) in ascending id order, and the
    eligible partners of each that has any, from one pass over ``agents``,
    where ``agents[i]`` is agent i, with ``.id``, ``.mode``, ``.x`` and ``.y``.

    The pairs are exactly those of ``eligible_edges(physical_edges(...))``:
    the distance test is the same float expression, since ``dx*dx + dy*dy``
    adds the two products in the order numpy's two-element ``sum(axis=2)``
    does. Visiting broadcasters and their higher-id neighbours in ascending
    order appends to every partner list in ascending id order, with no sort.
    """
    limit = radius * radius
    upper = interaction.upper
    broadcasters: list[int] = []
    partners: dict[int, list[int]] = {}
    for a in agents:
        if a.mode is EXPLORING:
            continue
        i = a.id
        broadcasters.append(i)
        xi, yi = a.x, a.y
        for j in upper[i]:
            b = agents[j]
            if b.mode is EXPLORING:
                continue
            dx = xi - b.x
            dy = yi - b.y
            if dx * dx + dy * dy <= limit:
                partners.setdefault(i, []).append(j)
                partners.setdefault(j, []).append(i)
    return broadcasters, partners
