"""Per-slot achievable rates: Rayleigh-faded SINR through the Shannon rate
model, normalized so the mean rate is exactly 1.

The channel is constant within a slot and independent across slots and
users (block-memoryless). Sampling always takes an explicit generator; there
is no hidden global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelModel",
    "mean_spectral_efficiency",
    "sample_normalized_rates",
]

_LN2 = math.log(2.0)
_EULER_GAMMA = 0.5772156649015329
_CF_TERMS = 220  # continued-fraction depth: full double precision for x >= 0.5


def _scaled_exp1(x: float) -> float:
    """e^x * E1(x) for x > 0, E1 the exponential integral.

    Below 0.5 the power series E1(x) = -gamma - ln x - sum_k (-x)^k/(k k!)
    (Abramowitz & Stegun 5.1.11); from 0.5 up the continued fraction
    e^x E1(x) = 1/(x+1 - 1/(x+3 - 4/(x+5 - ...))) (A&S 5.1.22, contracted),
    evaluated from its tail. The series loses a few ulps to cancellation as
    x nears 1, where the fraction is exact to the last bit.
    """
    if x < 0.5:
        term, total, k = 1.0, 0.0, 0
        while True:
            k += 1
            term *= -x / k
            total += term / k
            if abs(term) <= 1e-17 * abs(total):
                return math.exp(x) * (-_EULER_GAMMA - math.log(x) - total)
    tail = x + 2 * _CF_TERMS + 1
    for i in range(_CF_TERMS, 0, -1):
        tail = x + 2 * i - 1 - i * i / tail
    return 1.0 / tail


def mean_spectral_efficiency(mean_sinr: float) -> float:
    """E[log2(1 + g)] for g ~ exponential(mean_sinr), in closed form
    e^(1/s) E1(1/s) / ln 2 with s = mean_sinr.

    Within about two ulps of the exact value; strictly increasing in mean_sinr.
    """
    if not 0.0 < mean_sinr < math.inf:
        raise ValueError("mean_sinr must be finite and > 0")
    return _scaled_exp1(1.0 / mean_sinr) / _LN2


@dataclass(frozen=True)
class ChannelModel:
    """Rayleigh/Shannon rate model: R = B*log2(1 + g), g ~ exp(mean_sinr).

    Defaults are 800 kHz bandwidth and 0 dB mean SINR; after normalization
    these only set the absolute scale used to convert file sizes.
    """

    bandwidth_hz: float = 800e3
    mean_sinr: float = 1.0
    spectral_efficiency: float = field(init=False)
    mean_rate_bps: float = field(init=False)
    rate_scale: float = field(init=False)  # a draw g has rate log1p(g) * rate_scale

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_hz < math.inf:
            raise ValueError("bandwidth_hz must be finite and > 0")
        se = mean_spectral_efficiency(self.mean_sinr)
        object.__setattr__(self, "spectral_efficiency", se)
        object.__setattr__(self, "mean_rate_bps", self.bandwidth_hz * se)
        object.__setattr__(self, "rate_scale", 1.0 / (_LN2 * se))


def sample_normalized_rates(
    model: ChannelModel, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n i.i.d. draws of B*log2(1+g)/mean_rate; nonnegative with mean 1.
    Each draw decodes as np.log1p(g) * rate_scale, to the same bits in a
    block of any size as one at a time (the channel tests check it), which
    ``engine.run_tdm`` relies on. numpy picks its log1p kernel by CPU
    features, so the last bit may differ between CPUs, as a libm's log1p
    may between platforms."""
    return np.log1p(rng.exponential(model.mean_sinr, size=n)) * model.rate_scale
