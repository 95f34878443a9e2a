"""Tests for the hexagonal arena and the noisy observation channel."""

import math

import numpy as np
import pytest

from hexswarm.belief import TruthValue, is_evidence, uncertain_indices
from hexswarm.environment import (
    ARRIVAL_RADIUS,
    CIRCUMRADIUS,
    NoiseModel,
    _axial_to_world,
    build_grid,
    observe,
    sample_ground_truth,
)
from hexswarm.errors import ConfigError


def brute_force_disc_size(radius):
    """Independent count of axial coordinates inside a hexagonal disc."""
    count = 0
    for q in range(-radius, radius + 1):
        for r in range(-radius, radius + 1):
            if max(abs(q), abs(r), abs(q + r)) <= radius:
                count += 1
    return count


class TestBuildGrid:
    @pytest.mark.parametrize("radius,cells,props", [(1, 7, 6), (2, 19, 18), (6, 127, 126)])
    def test_disc_sizes(self, radius, cells, props):
        assert brute_force_disc_size(radius) == cells == 3 * radius * (radius + 1) + 1
        grid = build_grid(radius)
        assert grid.n == props

    def test_proposition_indices_are_gapless(self):
        # Cell i's center maps back to one axial coordinate of the disc, the
        # launch pad's excepted, and the cells run in (r, q) order.
        grid = build_grid(6)
        axial = []
        for i in range(1, grid.n + 1):
            x, y = grid.center_of(i)
            r = round(y / (1.5 * CIRCUMRADIUS))
            q = round(x / (math.sqrt(3) * CIRCUMRADIUS) - r / 2)
            assert _axial_to_world(q, r) == (x, y) == grid.centers[i - 1]
            assert max(abs(q), abs(r), abs(q + r)) <= 6
            axial.append((r, q))
        assert axial == sorted(axial)
        assert len(set(axial)) == 126 and (0, 0) not in axial

    def test_centers_distinct(self):
        grid = build_grid(6)
        assert len(set(grid.centers)) == len(grid.centers) == 126

    def test_launch_at_origin_without_proposition(self):
        grid = build_grid(3)
        assert _axial_to_world(0, 0) == (0.0, 0.0)
        assert (0.0, 0.0) not in grid.centers

    def test_adjacent_centers_spacing(self):
        grid = build_grid(2)
        expected = math.sqrt(3) * CIRCUMRADIUS
        for dq, dr in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]:
            x, y = _axial_to_world(dq, dr)
            assert (x, y) in grid.centers
            assert math.hypot(x, y) == pytest.approx(expected, abs=1e-12)
        # The nearest neighbour of every cell, the launch pad included, is
        # one spacing away.
        points = [(0.0, 0.0), *grid.centers]
        for p in points:
            nearest = min(math.dist(p, o) for o in points if o != p)
            assert nearest == pytest.approx(expected, abs=1e-9)

    def test_rejects_bad_radius(self):
        with pytest.raises(ConfigError, match="hex_disc_radius"):
            build_grid(0)

    @pytest.mark.parametrize("radius", [301, 2.0])
    def test_rejects_radius_past_the_bound_or_not_integer(self, radius):
        # 301 is rejected before any cell is built.
        with pytest.raises(ConfigError, match="hex_disc_radius"):
            build_grid(radius)

    def test_center_of_range(self):
        grid = build_grid(1)
        with pytest.raises(ValueError, match="out of range"):
            grid.center_of(7)
        with pytest.raises(ValueError, match="out of range"):
            grid.center_of(0)

    def test_arrival_radius_smaller_than_spacing(self):
        assert ARRIVAL_RADIUS < math.sqrt(3) * CIRCUMRADIUS / 2


class TestSampleGroundTruth:
    def test_deterministic_under_seed(self):
        a = sample_ground_truth(20, np.random.default_rng(5))
        b = sample_ground_truth(20, np.random.default_rng(5))
        assert a == b

    def test_single_proposition(self):
        truth = sample_ground_truth(1, np.random.default_rng(0))
        assert truth.value_at(1) in (TruthValue.FALSE, TruthValue.TRUE)

    def test_balanced_frequencies(self):
        # 10^4 draws: the true fraction should land within two binomial
        # standard deviations (0.5 +/- 0.01) of one half.
        truth = sample_ground_truth(10_000, np.random.default_rng(123))
        fraction_true = np.count_nonzero(truth.codes == 2) / 10_000
        assert 0.48 <= fraction_true <= 0.52


class TestNoiseModel:
    @pytest.mark.parametrize("eps", [-0.1, 0.50001, 0.7, 1.0])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ConfigError, match="epsilon"):
            NoiseModel(eps)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.5])
    def test_accepts_valid(self, eps):
        assert NoiseModel(eps).epsilon == eps


class TestObserve:
    def test_noise_free_always_matches(self):
        rng = np.random.default_rng(7)
        truth = sample_ground_truth(10, rng)
        noise = NoiseModel(0.0)
        for i in range(1, 11):
            e = observe(i, truth, noise, rng)
            assert e.value_at(i) is truth.value_at(i)

    def test_evidence_form(self):
        rng = np.random.default_rng(11)
        truth = sample_ground_truth(9, rng)
        for eps in (0.0, 0.3, 0.5):
            for i in (1, 5, 9):
                e = observe(i, truth, NoiseModel(eps), rng)
                assert is_evidence(e)
                assert uncertain_indices(e) == set(range(1, 10)) - {i}

    @pytest.mark.parametrize("eps,seed", [(0.5, 21), (0.3, 22), (0.1, 23)])
    def test_flip_frequency(self, eps, seed):
        rng = np.random.default_rng(seed)
        truth = sample_ground_truth(4, rng)
        flips = 0
        trials = 100_000
        for _ in range(trials):
            e = observe(2, truth, NoiseModel(eps), rng)
            flips += e.value_at(2) is not truth.value_at(2)
        assert flips / trials == pytest.approx(eps, abs=0.01)

    def test_index_out_of_range(self):
        rng = np.random.default_rng(1)
        truth = sample_ground_truth(5, rng)
        with pytest.raises(ValueError, match="out of range"):
            observe(6, truth, NoiseModel(0.0), rng)
        with pytest.raises(ValueError, match="out of range"):
            observe(0, truth, NoiseModel(0.0), rng)

    def test_same_seed_same_observation_stream(self):
        def stream(seed):
            rng = np.random.default_rng(seed)
            truth = sample_ground_truth(12, rng)
            return truth, [observe(1 + k % 12, truth, NoiseModel(0.3), rng) for k in range(50)]

        t1, s1 = stream(99)
        t2, s2 = stream(99)
        assert t1 == t2
        assert s1 == s2
