import itertools
import threading

import numpy as np
import pytest

from laxsched import capacity
from laxsched.capacity import GainProfile, _pav_decreasing, estimate_gains

from helpers import brute_force_in_region, gain_quadrature, reference_estimate_gains

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


class TestPavRepair:
    def test_projection_is_non_increasing(self):
        out = _pav_decreasing(np.array([1.0, 0.5, 0.6, 0.2]))
        assert all(a >= b for a, b in zip(out, out[1:]))
        assert out[1] == out[2] == pytest.approx(0.55)

    def test_already_sorted_unchanged(self):
        x = np.array([1.0, 0.6, 0.3, 0.1])
        assert np.allclose(_pav_decreasing(x), x)


class TestEstimateGains:
    def test_g1_exactly_one(self):
        p = estimate_gains(1.0, 8, 20_000, seed=3)
        assert p.gains[1] == 1.0

    def test_g2_matches_quadrature(self):
        p = estimate_gains(1.0, 8, 200_000, seed=3)
        assert p.gains[2] == pytest.approx(G2_QUADRATURE, abs=0.01)

    def test_larger_k_matches_quadrature(self):
        p = estimate_gains(1.0, 15, 200_000, seed=11)
        for k in (3, 5, 10, 15):
            assert p.gains[k] == pytest.approx(gain_quadrature(k), abs=0.02)

    def test_profile_invariants_hold_at_k15(self):
        # construction would raise if monotonicity/concavity were broken
        p = estimate_gains(1.0, 15, 50_000, seed=5)
        assert p.k_max == 15

    def test_deterministic(self):
        a = estimate_gains(1.0, 6, 20_000, seed=9)
        b = estimate_gains(1.0, 6, 20_000, seed=9)
        assert a == b

    def test_sample_count_floor(self):
        with pytest.raises(ValueError):
            estimate_gains(1.0, 4, 9_999, seed=1)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            estimate_gains(0.0, 4, 20_000, seed=1)
        with pytest.raises(ValueError):
            estimate_gains(1.0, 0, 20_000, seed=1)


def estimate_gains_bounded(*args):
    """The raised error of estimate_gains(*args), or None, run on a thread
    so that a pipeline that deadlocks fails the test instead of hanging it."""
    errors = []

    def call():
        try:
            estimate_gains(*args)
        except BaseException as exc:
            errors.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=30.0)
    assert not caller.is_alive(), "estimate_gains did not return"
    return errors[0] if errors else None


class TestEstimateGainsMatchesReference:
    """The helper-thread pipeline against a serial loop over the same blocks."""

    # 10 000 and 32 768 fill at most one block, 32 769 leaves a one-row
    # last block, 65 536 is exactly two blocks and 200 000 ends part-way
    @pytest.mark.parametrize("sample_count", [10_000, 32_768, 32_769, 65_536, 200_000])
    @pytest.mark.parametrize("k_max", [1, 2, 8, 15, 30])
    @pytest.mark.parametrize("mean_sinr", [0.5, 1.0, 2.5])
    def test_tables_are_byte_identical(self, mean_sinr, k_max, sample_count):
        for seed in (1, 7, 2024):
            args = (mean_sinr, k_max, sample_count, seed)
            assert estimate_gains(*args).to_table() == reference_estimate_gains(*args).to_table()

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        assert estimate_gains_bounded(1.0, 15, 100_000, 4) is None
        assert threading.active_count() == before

    @pytest.mark.parametrize("fail_at", [0, 2])
    def test_reduce_error_reaches_the_caller(self, monkeypatch, fail_at):
        # fail_at 2 is the last of three blocks, reduced after the last draw
        real, calls = capacity._reduce_block, []

        def reduce_block(block, out):
            calls.append(len(block))
            if len(calls) > fail_at:
                raise RuntimeError("reduce failed")
            return real(block, out)

        monkeypatch.setattr(capacity, "_reduce_block", reduce_block)
        before = threading.active_count()
        error = estimate_gains_bounded(1.0, 4, 80_000, 1)
        assert isinstance(error, RuntimeError) and str(error) == "reduce failed"
        assert threading.active_count() == before
        assert len(calls) == fail_at + 1

    def test_draw_error_stops_the_helper(self, monkeypatch):
        class Broken:
            def standard_exponential(self, out):
                raise MemoryError("draw failed")

        monkeypatch.setattr(capacity, "generator_from", lambda seed: Broken())
        before = threading.active_count()
        error = estimate_gains_bounded(1.0, 4, 80_000, 1)
        assert isinstance(error, MemoryError) and str(error) == "draw failed"
        assert threading.active_count() == before


class TestTableIO:
    def test_round_trip(self, tmp_path):
        p = estimate_gains(1.0, 10, 20_000, seed=2)
        path = tmp_path / "gains.csv"
        p.save(path)
        q = GainProfile.load(path)
        assert q.gains[0] == 0.0 and q.gains[1] == 1.0
        assert np.allclose(q.gains, p.gains, rtol=1e-11)

    @pytest.mark.parametrize(
        "k_max, seed",
        # (15, 1) and (20, 1): pooled top increments that a 12-digit table
        # printed equal, so the loader rejected it
        [(5, 2), (10, 2), (15, 1), (20, 1), (15, 7), (30, 3)],
    )
    def test_round_trip_is_exact(self, k_max, seed):
        p = estimate_gains(1.0, k_max, 20_000, seed=seed)
        assert GainProfile.from_table(p.to_table()).gains == p.gains

    def test_rewrite_is_byte_identical(self, tmp_path):
        p = estimate_gains(1.0, 5, 20_000, seed=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        p.save(a)
        p.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_required(self):
        with pytest.raises(ValueError):
            GainProfile.from_table("0,0\n1,1\n")

    def test_table_format(self):
        text = SMALL.to_table()
        assert text.splitlines()[0] == "k,g_k"
        assert text.splitlines()[1] == "0,0"
        assert text.splitlines()[2] == "1,1"
