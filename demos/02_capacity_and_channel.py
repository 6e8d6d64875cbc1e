"""Compute the multi-user diversity gain sequence and check the channel
normalization.

The gain g_k is how much total throughput best-of-k user selection buys
relative to a single user. The library computes each increment exactly, by a
fixed Gauss-Legendre rule, and pins g_1 = 1; scipy's adaptive quadrature of
E[ln(1 + max of k SINRs)] / E[ln(1 + one SINR)] is printed beside it.
"""

import math

import numpy as np
from scipy import integrate, special

from laxsched import ChannelModel, diversity_gains, sample_normalized_rates
from laxsched.seeding import generator_from

profile = diversity_gains(mean_sinr=1.0, k_max=10)

c1 = math.e * special.exp1(1.0)


def gain_quadrature(k):
    if k == 1:
        return 1.0
    val, _ = integrate.quad(
        lambda x: math.log1p(x) * k * math.exp(-x) * (1 - math.exp(-x)) ** (k - 1),
        0.0,
        np.inf,
    )
    return val / c1


print(" k              exact       scipy quadrature   rel. diff   marginal")
for k in range(1, profile.k_max + 1):
    g, q = profile.gains[k], gain_quadrature(k)
    print(
        f"{k:2d}   {g:16.13f}   {q:16.13f}   {abs(g / q - 1):9.1e}"
        f"   {profile.marginal_rate(k):8.4f}"
    )

print("\nregion membership for 2 users (gains 1, %.3f):" % profile.gains[2])
for rates in ([1.0, profile.gains[2] - 1.0], [0.9, 0.7]):
    print(f"  rates {rates}: {'inside' if profile.in_region(rates) else 'outside'}")

channel = ChannelModel()  # 800 kHz, 0 dB mean SINR
print(f"\nmean rate: {channel.mean_rate_bps:,.0f} bit/s "
      f"(spectral efficiency {channel.spectral_efficiency:.4f} bit/s/Hz)")
rates = sample_normalized_rates(channel, generator_from(1), 1_000_000)
print(f"normalized rate sample mean over 1e6 draws: {rates.mean():.5f} (target 1)")
