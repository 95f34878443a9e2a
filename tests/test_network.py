"""Tests for the interaction/physical network layers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexswarm.environment import DEFAULT_CIRCUMRADIUS, build_grid
from hexswarm.errors import ConfigError
from hexswarm.network import (
    complete_graph,
    eligible_edges,
    eligible_matrix,
    physical_edges,
    ring_lattice,
)

positions = st.lists(
    st.tuples(
        st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    ),
    min_size=2,
    max_size=12,
)


class TestRingLattice:
    def test_k2_is_a_ring(self):
        net = ring_lattice(20, 2)
        assert len(net.edges) == 20
        assert all(net.degree(i) == 2 for i in range(20))
        assert net.neighbors(0) == {1, 19}

    def test_k4(self):
        net = ring_lattice(20, 4)
        assert len(net.edges) == 40
        assert all(net.degree(i) == 4 for i in range(20))

    def test_four_cycle(self):
        net = ring_lattice(4, 2)
        assert net.edges == {(0, 1), (1, 2), (2, 3), (0, 3)}

    @pytest.mark.parametrize("k", [3, 5, 1])
    def test_rejects_odd_k(self, k):
        with pytest.raises(ConfigError, match="even"):
            ring_lattice(20, k)

    @pytest.mark.parametrize("m,k", [(20, 0), (20, 20), (20, 22), (6, 6)])
    def test_rejects_k_out_of_range(self, m, k):
        with pytest.raises(ConfigError):
            ring_lattice(m, k)

    def test_rejects_tiny_population(self):
        with pytest.raises(ConfigError, match="m >= 3"):
            ring_lattice(2, 2)

    def test_no_self_loops_and_symmetric(self):
        net = ring_lattice(10, 4)
        for i, j in net.edges:
            assert i < j
            assert j in net.neighbors(i)
            assert i in net.neighbors(j)

    def test_max_lattice_vs_complete(self):
        # for even m the densest lattice misses exactly the m/2 antipodal pairs
        dense = ring_lattice(6, 4)
        full = complete_graph(6)
        missing = full.edges - dense.edges
        assert missing == {(0, 3), (1, 4), (2, 5)}


class TestCompleteGraph:
    def test_paper_population(self):
        net = complete_graph(20)
        assert len(net.edges) == 190
        assert all(net.degree(i) == 19 for i in range(20))
        assert net.k == 19

    def test_pair(self):
        assert complete_graph(2).edges == {(0, 1)}

    def test_five(self):
        assert len(complete_graph(5).edges) == 10

    def test_rejects_singleton(self):
        with pytest.raises(ConfigError, match="m >= 2"):
            complete_graph(1)


class TestPhysicalEdges:
    def test_boundary_is_closed(self):
        assert physical_edges([(0.0, 0.0), (20.0, 0.0)], 20.0) == {(0, 1)}

    def test_beyond_radius_excluded(self):
        assert physical_edges([(0.0, 0.0), (20.000001, 0.0)], 20.0) == set()

    def test_co_located_agents_form_complete_set(self):
        edges = physical_edges([(1.0, 1.0)] * 5, 0.5)
        assert edges == complete_graph(5).edges

    def test_all_far_apart(self):
        pts = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]
        assert physical_edges(pts, 10.0) == set()

    @given(pts=positions, radius=st.floats(0.1, 150, allow_nan=False))
    def test_pairs_are_canonical(self, pts, radius):
        edges = physical_edges(pts, radius)
        for i, j in edges:
            assert 0 <= i < j < len(pts)

    @given(pts=positions, r1=st.floats(0.1, 75), r2=st.floats(0.1, 75))
    def test_monotone_in_radius(self, pts, r1, r2):
        small, large = min(r1, r2), max(r1, r2)
        assert physical_edges(pts, small) <= physical_edges(pts, large)


class TestEligibleEdges:
    def test_intersection_with_ring(self):
        net = ring_lattice(6, 2)
        phys = complete_graph(6).edges
        assert eligible_edges(phys, net, set(range(6))) == net.edges

    def test_nobody_broadcasting(self):
        net = complete_graph(4)
        assert eligible_edges(net.edges, net, set()) == set()

    def test_single_physical_pair(self):
        net = complete_graph(5)
        assert eligible_edges({(1, 2)}, net, {1, 2}) == {(1, 2)}

    def test_requires_both_endpoints_broadcasting(self):
        net = complete_graph(3)
        phys = {(0, 1), (0, 2), (1, 2)}
        assert eligible_edges(phys, net, {0, 1}) == {(0, 1)}

    @given(
        pts=positions,
        radius=st.floats(0.1, 150),
        data=st.data(),
    )
    def test_containment(self, pts, radius, data):
        m = len(pts)
        net = complete_graph(m) if m < 4 else ring_lattice(m, 2)
        broadcasting = set(data.draw(st.lists(st.integers(0, m - 1), max_size=m)))
        phys = physical_edges(pts, radius)
        elig = eligible_edges(phys, net, broadcasting)
        assert elig <= phys
        assert elig <= net.edges
        for i, j in elig:
            assert i in broadcasting and j in broadcasting


CELL_SPACING = math.sqrt(3) * DEFAULT_CIRCUMRADIUS
GRID = build_grid(2)
CELL_CENTERS = [(0.0, 0.0)] + [GRID.center_of(i) for i in range(1, GRID.n + 1)]

# Agents sit on cell centers after every arrival, and integer coordinates
# give many pairs at exactly a round radius, so both exercise the boundary.
point = st.one_of(
    st.tuples(
        st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    ),
    st.sampled_from(CELL_CENTERS),
    st.tuples(st.integers(-40, 40).map(float), st.integers(-40, 40).map(float)),
)


class TestInteractionMatrix:
    @pytest.mark.parametrize("net", [ring_lattice(10, 4), complete_graph(5), ring_lattice(4, 2)])
    def test_matches_edges(self, net):
        i, j = np.nonzero(np.triu(net.matrix))
        assert set(zip(i.tolist(), j.tolist())) == net.edges
        assert (net.matrix == net.matrix.T).all()
        assert not net.matrix.diagonal().any()

    def test_read_only(self):
        with pytest.raises(ValueError):
            complete_graph(3).matrix[0, 1] = False


class TestEligibleMatrix:
    @given(data=st.data())
    def test_matches_edge_set_reference(self, data):
        m = data.draw(st.integers(2, 16))
        pts = data.draw(st.lists(point, min_size=m, max_size=m))
        nets = [complete_graph(m)] + [ring_lattice(m, k) for k in range(2, m - 1, 2)]
        net = data.draw(st.sampled_from(nets))
        i, j = data.draw(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)))
        pair_distance = math.dist(pts[i], pts[j]) or 1.0
        radius = data.draw(
            st.one_of(st.floats(0.1, 150), st.sampled_from([CELL_SPACING, 20.0, pair_distance]))
        )
        ids = sorted(data.draw(st.sets(st.integers(0, m - 1))))

        reference = eligible_edges(physical_edges(pts, radius), net, set(ids))
        idx = np.array(ids, dtype=np.intp)
        elig = eligible_matrix(np.array(pts)[idx], radius, net.matrix[idx][:, idx])
        assert (elig == elig.T).all()
        rows, cols = np.nonzero(elig)
        assert {(ids[p], ids[q]) for p, q in zip(rows, cols) if p < q} == reference

    def test_boundary_is_closed(self):
        pts = np.array([(0.0, 0.0), (20.0, 0.0), (20.000001, 0.0)])
        elig = eligible_matrix(pts, 20.0, complete_graph(3).matrix)
        assert elig[0, 1] and not elig[0, 2]


class TestEdgeListExport:
    def test_format(self):
        net = ring_lattice(4, 2)
        lines = net.to_edge_list().strip().split("\n")
        assert lines == ["0 1", "0 3", "1 2", "2 3"]
