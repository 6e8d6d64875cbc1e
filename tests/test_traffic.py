import math

import numpy as np
import pytest
from scipy import stats

from laxsched.seeding import generator_from
from laxsched.traffic import (
    BITS_PER_MB,
    FileSizeLaw,
    IdenticalDeadlineSpec,
    StationaryArrivalSpec,
    gen_identical_deadline,
    gen_stationary,
    sample_file_sizes,
    sample_file_sizes_mb,
)

from helpers import lognormal_truncated_mean, lognormal_untruncated_moments

# closed-form moment matching for mean 2 MB / std 0.722 MB, frozen
LOG_SIGMA = 0.3500023759637071
LOG_MU = 0.6318963489698252
# closed-form truncated mean at the 5 MB cap
TRUNC_MEAN_MB = 1.9906308261451082

LAW = FileSizeLaw()


class TestFileSizeLaw:
    def test_moment_matching_closed_form(self):
        mean, std = lognormal_untruncated_moments(LAW.log_mu, LAW.log_sigma)
        assert mean == pytest.approx(2.0, abs=1e-12)
        assert std == pytest.approx(0.722, abs=1e-12)

    def test_frozen_parameters(self):
        assert LAW.log_sigma == pytest.approx(LOG_SIGMA, abs=1e-12)
        assert LAW.log_mu == pytest.approx(LOG_MU, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FileSizeLaw(mean_mb=0.0)
        with pytest.raises(ValueError):
            FileSizeLaw(max_mb=1.5)  # below the mean
        with pytest.raises(ValueError):
            FileSizeLaw(mean_rate_bps=0.0)
        with pytest.raises(ValueError):
            FileSizeLaw(mean_mb=math.nan)

    def test_norm_factor(self):
        assert LAW.norm_factor == pytest.approx(BITS_PER_MB / LAW.mean_rate_bps)


class TestSampling:
    def test_cap_always_respected(self):
        mb = sample_file_sizes_mb(LAW, generator_from(1), 100_000)
        assert mb.max() <= 5.0
        assert mb.min() > 0.0

    def test_truncated_mean_matches_closed_form(self):
        mb = sample_file_sizes_mb(LAW, generator_from(2), 200_000)
        closed = lognormal_truncated_mean(LAW.log_mu, LAW.log_sigma, LAW.max_mb)
        assert closed == pytest.approx(TRUNC_MEAN_MB, abs=1e-9)
        assert mb.mean() == pytest.approx(TRUNC_MEAN_MB, abs=0.02)

    def test_normalization(self):
        rng = generator_from(3)
        norm = sample_file_sizes(LAW, rng, 1000)
        mb = norm / LAW.norm_factor
        assert mb.max() <= 5.0
        # 5 MB at the default mean rate is about 58 seconds of service
        assert 10.0 < norm.mean() < 60.0

    def test_scalar_draw(self):
        (x,) = sample_file_sizes(LAW, generator_from(4), 1)
        assert x > 0.0

    def test_deterministic(self):
        a = sample_file_sizes(LAW, generator_from(9), 500)
        b = sample_file_sizes(LAW, generator_from(9), 500)
        assert (a == b).all()


class TestIdenticalDeadline:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            IdenticalDeadlineSpec(0, 10.0)
        with pytest.raises(ValueError):
            IdenticalDeadlineSpec(3, 0.0)
        with pytest.raises(ValueError):
            IdenticalDeadlineSpec(3, 10.0, 1.0)
        for deadline in (math.inf, math.nan):  # no arrival window to draw from
            with pytest.raises(ValueError):
                IdenticalDeadlineSpec(3, deadline)

    def test_zero_spread_collapses_arrivals(self):
        spec = IdenticalDeadlineSpec(5, 10.0, 0.0)
        reqs = gen_identical_deadline(spec, LAW, generator_from(5))
        assert all(r.arrival_time == 0.0 for r in reqs)

    def test_spread_bounds_arrivals(self):
        spec = IdenticalDeadlineSpec(15, 100.0, 0.5)
        reqs = gen_identical_deadline(spec, LAW, generator_from(6))
        assert len(reqs) == 15
        assert all(0.0 <= r.arrival_time <= 50.0 for r in reqs)

    def test_all_deadlines_equal(self):
        spec = IdenticalDeadlineSpec(8, 42.0, 0.3)
        reqs = gen_identical_deadline(spec, LAW, generator_from(7))
        assert {r.deadline for r in reqs} == {42.0}

    def test_sorted_by_arrival_then_id(self):
        spec = IdenticalDeadlineSpec(20, 30.0, 0.9)
        reqs = gen_identical_deadline(spec, LAW, generator_from(8))
        keys = [(r.arrival_time, r.user_id) for r in reqs]
        assert keys == sorted(keys)

    def test_sizes_reused_across_deadline_sweep(self):
        # same seed: sizes identical, arrivals scale with a*D
        law = LAW
        a = gen_identical_deadline(IdenticalDeadlineSpec(6, 50.0, 0.5), law, generator_from(11))
        b = gen_identical_deadline(IdenticalDeadlineSpec(6, 100.0, 0.5), law, generator_from(11))
        sizes_a = {r.user_id: r.initial_size for r in a}
        sizes_b = {r.user_id: r.initial_size for r in b}
        assert sizes_a == sizes_b
        arr_a = {r.user_id: r.arrival_time for r in a}
        arr_b = {r.user_id: r.arrival_time for r in b}
        for uid in arr_a:
            assert arr_b[uid] == pytest.approx(2.0 * arr_a[uid], rel=1e-12)


class TestStationary:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StationaryArrivalSpec(0.0, 2.0, 100.0)
        with pytest.raises(ValueError):
            StationaryArrivalSpec(0.1, 1.0, 100.0)
        with pytest.raises(ValueError):
            StationaryArrivalSpec(0.1, 2.0, 0.0)
        for rate, horizon in ((math.inf, 100.0), (0.1, math.inf)):  # streams without end
            with pytest.raises(ValueError):
                StationaryArrivalSpec(rate, 2.0, horizon)

    def test_poisson_count(self):
        spec = StationaryArrivalSpec(0.05, 3.0, 40_000.0)
        reqs = gen_stationary(spec, LAW, generator_from(13))
        expected = spec.rate * spec.horizon
        assert abs(len(reqs) - expected) < 3.0 * math.sqrt(expected)

    def test_deadline_is_arrival_plus_stretched_service(self):
        spec = StationaryArrivalSpec(0.05, 4.0, 2000.0)
        for r in gen_stationary(spec, LAW, generator_from(14)):
            assert r.deadline == pytest.approx(
                r.arrival_time + 4.0 * r.initial_size, rel=1e-12
            )

    def test_initial_laxity_shrinks_as_stretch_approaches_one(self):
        # laxity at arrival is (stretch - 1) * size
        for stretch in (1.5, 1.1, 1.01):
            spec = StationaryArrivalSpec(0.05, stretch, 500.0)
            reqs = gen_stationary(spec, LAW, generator_from(15))
            for r in reqs:
                lax = r.deadline - r.arrival_time - r.initial_size
                assert lax == pytest.approx((stretch - 1.0) * r.initial_size, rel=1e-9)

    def test_interarrivals_exponential_ks(self):
        spec = StationaryArrivalSpec(0.05, 3.0, 250_000.0)
        reqs = gen_stationary(spec, LAW, generator_from(16))
        arrivals = np.array([r.arrival_time for r in reqs])
        gaps = np.diff(arrivals)[:10_000]
        res = stats.kstest(gaps, "expon", args=(0.0, 1.0 / spec.rate))
        assert res.pvalue > 0.01

    def test_deterministic(self):
        spec = StationaryArrivalSpec(0.05, 3.0, 1000.0)
        a = gen_stationary(spec, LAW, generator_from(17))
        b = gen_stationary(spec, LAW, generator_from(17))
        assert a == b
