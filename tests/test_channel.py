import math

import numpy as np
import pytest

from laxsched.channel import (
    ChannelModel,
    mean_spectral_efficiency,
    sample_normalized_rates,
)
from laxsched.seeding import generator_from

from helpers import spectral_efficiency_closed, spectral_efficiency_quadrature

# closed form e*E1(1)/ln2, frozen from high-precision evaluation
SE_UNIT_MEAN = 0.8603473822708860
# normalized rate when the draw hits the mean SINR exactly: log2(2)/SE
RATE_AT_MEAN_SINR = 1.1623211979334453


class _FixedDraws:
    """Stand-in generator returning preset exponential 'draws'."""

    def __init__(self, values):
        self._values = list(values)

    def exponential(self, scale, size=None):
        if size is None:
            return self._values.pop(0)
        out = self._values[:size]
        del self._values[:size]
        return np.asarray(out)


class TestMeanSpectralEfficiency:
    def test_matches_closed_form_at_unit_mean(self):
        assert mean_spectral_efficiency(1.0) == pytest.approx(SE_UNIT_MEAN, abs=1e-9)

    def test_matches_closed_form_elsewhere(self):
        for s in (0.25, 0.5, 2.0, 10.0):
            assert mean_spectral_efficiency(s) == pytest.approx(
                spectral_efficiency_closed(s), abs=1e-9
            )

    def test_vanishes_at_zero_limit(self):
        assert mean_spectral_efficiency(1e-9) < 2e-9

    def test_strictly_increasing(self):
        values = [mean_spectral_efficiency(s) for s in (0.1, 0.5, 1.0, 3.0, 10.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mean_spectral_efficiency(0.0)

    def test_matches_quadrature_on_log_grid(self):
        grid = np.logspace(-3.0, 4.0, 71)
        values = [mean_spectral_efficiency(float(s)) for s in grid]
        for s, value in zip(grid, values):
            ref = spectral_efficiency_quadrature(float(s))
            assert abs(value - ref) <= 1e-14 * ref, f"s={s}"
        assert all(a < b for a, b in zip(values, values[1:]))


class TestChannelModel:
    def test_defaults(self):
        m = ChannelModel()
        assert m.bandwidth_hz == 800e3
        assert m.mean_sinr == 1.0
        assert m.mean_rate_bps == pytest.approx(800e3 * SE_UNIT_MEAN, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            ChannelModel(mean_sinr=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ChannelModel(mean_sinr=bad)
            with pytest.raises(ValueError):
                ChannelModel(bandwidth_hz=bad)


class TestSampling:
    def test_zero_sinr_gives_zero_rate(self):
        m = ChannelModel()
        assert sample_normalized_rates(m, _FixedDraws([0.0]), 1)[0] == 0.0

    def test_rate_at_mean_sinr(self):
        m = ChannelModel()
        assert sample_normalized_rates(m, _FixedDraws([1.0]), 1)[0] == pytest.approx(
            RATE_AT_MEAN_SINR, abs=1e-12
        )

    def test_rates_nonnegative(self):
        m = ChannelModel()
        rates = sample_normalized_rates(m, generator_from(5), 10_000)
        assert (rates >= 0.0).all()

    def test_empirical_mean_is_one(self):
        m = ChannelModel()
        rates = sample_normalized_rates(m, generator_from(12), 200_000)
        se_mc = rates.std() / math.sqrt(rates.size)
        assert abs(rates.mean() - 1.0) < 3.0 * se_mc

    def test_bit_exact_reproducibility(self):
        m = ChannelModel()
        a = sample_normalized_rates(m, generator_from(77), 1000)
        b = sample_normalized_rates(m, generator_from(77), 1000)
        assert (a == b).all()

    def test_each_draw_decodes_by_rate_scale(self):
        # the decode run_tdm serves: np.log1p(g) * rate_scale, bit for bit
        m = ChannelModel(mean_sinr=2.0)
        assert m.rate_scale == 1.0 / (math.log(2.0) * m.spectral_efficiency)
        draws = generator_from(3).exponential(2.0, size=4096).tolist()
        rates = sample_normalized_rates(m, generator_from(3), 4096).tolist()
        assert rates == [float(np.log1p(g)) * m.rate_scale for g in draws]

    def test_vector_matches_scalar_transform(self):
        m = ChannelModel(mean_sinr=2.0)
        draws = [0.3, 1.7, 4.2]
        vec = sample_normalized_rates(m, _FixedDraws(list(draws)), 3)
        scalars = [sample_normalized_rates(m, _FixedDraws([d]), 1)[0] for d in draws]
        assert vec.tolist() == scalars

    def test_block_decodes_as_its_draws_one_at_a_time(self):
        # run_tdm's reports do not depend on its block size because of this
        m = ChannelModel(mean_sinr=2.0)
        draws = generator_from(8).exponential(2.0, size=4096).tolist()
        block = sample_normalized_rates(m, _FixedDraws(draws), 4096).tolist()
        singles = [sample_normalized_rates(m, _FixedDraws([d]), 1)[0] for d in draws]
        assert block == singles
