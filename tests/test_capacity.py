import itertools
import math
import threading

import numpy as np
import pytest

from laxsched import capacity
from laxsched.capacity import GainProfile, diversity_gains, estimate_gains
from laxsched.channel import _scaled_exp1

from helpers import brute_force_in_region, gain_quadrature

# frozen quadrature value for the two-user gain (unit-mean exponential SINR)
G2_QUADRATURE = 1.3940970653737912

SMALL = GainProfile((0.0, 1.0, 1.5))


class TestGainProfileValidation:
    def test_g0_must_be_zero(self):
        with pytest.raises(ValueError):
            GainProfile((0.1, 1.0))

    def test_g1_must_be_one(self):
        with pytest.raises(ValueError):
            GainProfile((0.0, 1.1))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            GainProfile((0.0, 1.0, 1.0))

    def test_concave_increments(self):
        # equal increments are not strictly concave
        with pytest.raises(ValueError):
            GainProfile((0.0, 1.0, 2.0))

    def test_valid(self):
        p = GainProfile((0.0, 1.0, 1.4, 1.6))
        assert p.k_max == 3


class TestMarginalRate:
    def test_rank_one(self):
        assert SMALL.marginal_rate(1) == 1.0

    def test_rank_two(self):
        assert SMALL.marginal_rate(2) == 0.5

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            SMALL.marginal_rate(0)
        with pytest.raises(IndexError):
            SMALL.marginal_rate(3)

    def test_marginal_gains_are_the_increments(self):
        p = GainProfile((0.0, 1.0, 1.394, 1.622, 1.776))
        assert p.marginal_gains == tuple(
            p.gains[r] - p.gains[r - 1] for r in range(1, p.k_max + 1)
        )

    def test_strictly_decreasing_in_rank(self):
        p = GainProfile(tuple(float(g) for g in (0.0, 1.0, 1.394, 1.622, 1.776)))
        rates = [p.marginal_rate(r) for r in range(1, p.k_max + 1)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestInRegion:
    def test_saturating_allocation(self):
        assert SMALL.in_region([1.0, 0.5])

    def test_total_violation(self):
        assert not SMALL.in_region([0.9, 0.7])

    def test_entry_above_one(self):
        assert not SMALL.in_region([1.2, 0.1])

    def test_negative_entry(self):
        assert not SMALL.in_region([-0.1, 0.5])

    def test_too_many_users(self):
        with pytest.raises(ValueError):
            SMALL.in_region([0.1, 0.1, 0.1])

    def test_monotone_under_decrease(self):
        rng = np.random.default_rng(7)
        p = GainProfile((0.0, 1.0, 1.394, 1.622, 1.776))
        for _ in range(200):
            r = rng.uniform(0.0, 1.0, size=4)
            if p.in_region(r):
                smaller = r * rng.uniform(0.0, 1.0, size=4)
                assert p.in_region(smaller)

    def test_prefix_equals_exhaustive_subsets(self):
        p = GainProfile((0.0, 1.0, 1.394, 1.622, 1.776))
        grid = [0.0, 0.2, 0.35, 0.5, 0.8, 1.0]
        for k in range(1, 5):
            for rates in itertools.product(grid, repeat=k):
                assert p.in_region(rates) == brute_force_in_region(p.gains, rates)


class TestEstimateGains:
    """The gain table, built by diversity_gains (estimate_gains is the name
    the benchmark replay still calls)."""

    def test_g1_exactly_one(self):
        p = diversity_gains(1.0, 8)
        assert p.gains[1] == 1.0

    def test_g2_matches_quadrature(self):
        p = diversity_gains(1.0, 8)
        assert p.gains[2] == pytest.approx(G2_QUADRATURE, abs=0.01)

    def test_larger_k_matches_quadrature(self):
        p = diversity_gains(1.0, 15)
        for k in (3, 5, 10, 15):
            assert p.gains[k] == pytest.approx(gain_quadrature(k), abs=0.02)

    def test_profile_invariants_hold_at_k15(self):
        # construction would raise if monotonicity/concavity were broken
        p = diversity_gains(1.0, 15)
        assert p.k_max == 15

    def test_deterministic(self):
        a = diversity_gains(1.0, 6)
        b = diversity_gains(1.0, 6)
        assert a == b

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            diversity_gains(0.0, 4)
        with pytest.raises(ValueError):
            diversity_gains(1.0, 0)
        for mean_sinr, k_max in [(-1.0, 4), (math.nan, 4), (math.inf, 4), (1.0, -3)]:
            with pytest.raises(ValueError):
                diversity_gains(mean_sinr, k_max)


SINR_GRID = np.geomspace(1e-2, 1e3, 26)


class TestDiversityGains:
    def test_every_gain_matches_adaptive_quadrature(self):
        p = diversity_gains(1.0, 15)
        for k in range(1, 16):
            assert p.gains[k] == pytest.approx(gain_quadrature(k), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("mean_sinr", SINR_GRID)
    def test_first_increment_is_the_closed_form(self, mean_sinr):
        # D_1 = E[ln(1 + one SINR)] = e^(1/s) E1(1/s)
        (d1,) = capacity._increments(mean_sinr, 1)
        assert d1 == pytest.approx(_scaled_exp1(1.0 / mean_sinr), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mean_sinr", SINR_GRID)
    def test_strictly_concave_to_k200(self, mean_sinr):
        # construction would raise if an increment failed to decrease
        assert diversity_gains(mean_sinr, 200).k_max == 200

    @pytest.mark.parametrize("mean_sinr", [0.1, 0.5, 1.0, 2.5, 7.0, 100.0])
    def test_prefix_does_not_depend_on_k_max(self, mean_sinr):
        # the CLI builds g_0..g_M for a batch of M users: a longer table
        # would give the same rates bit for bit, so M is enough
        full = diversity_gains(mean_sinr, 200).gains
        for m in range(1, 200):
            assert diversity_gains(mean_sinr, m).gains == full[: m + 1], m
        for m, k in [(1, 2), (8, 15), (15, 16), (15, 100)]:
            assert diversity_gains(mean_sinr, m).gains == diversity_gains(mean_sinr, k).gains[: m + 1]


class TestEstimateGainsMatchesReference:
    """estimate_gains, the name the benchmark replay calls, is the exact
    table whatever its Monte Carlo arguments."""

    @pytest.mark.parametrize("sample_count", [10_000, 32_768, 32_769, 65_536, 200_000])
    @pytest.mark.parametrize("k_max", [1, 2, 8, 15, 30])
    @pytest.mark.parametrize("mean_sinr", [0.5, 1.0, 2.5])
    def test_tables_are_byte_identical(self, mean_sinr, k_max, sample_count):
        for seed in (1, 7, 2024):
            args = (mean_sinr, k_max, sample_count, seed)
            assert estimate_gains(*args).gains == diversity_gains(mean_sinr, k_max).gains

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        assert estimate_gains(1.0, 15, 100_000, 4).k_max == 15
        assert threading.active_count() == before
