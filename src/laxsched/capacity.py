"""Symmetric polymatroid capacity region from multi-user diversity gains.

The region for k active users is every rate vector r in [0, 1]^k whose
subset sums satisfy sum_{i in S} r_i <= g_{|S|}. Because the rank function
depends only on |S|, checking the m largest entries against g_m for every m
is equivalent to checking all 2^k subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = ["GainProfile", "diversity_gains"]


@dataclass(frozen=True)
class GainProfile:
    """Diversity gain sequence g_0..g_K, indexed by active-user count.

    g_0 = 0, g_1 = 1 (rate normalization), strictly increasing with strictly
    decreasing increments: each extra active user buys less extra throughput.
    """

    gains: tuple[float, ...]

    def __post_init__(self) -> None:
        g = self.gains
        if len(g) < 2:
            raise ValueError("profile needs at least g_0 and g_1")
        if g[0] != 0.0:
            raise ValueError("g_0 must be exactly 0")
        if g[1] != 1.0:
            raise ValueError("g_1 must be exactly 1 (normalized rates)")
        for k in range(1, len(g)):
            if not g[k] > g[k - 1]:
                raise ValueError(f"gains must be strictly increasing (violated at k={k})")
        for k in range(2, len(g)):
            if not g[k] - g[k - 1] < g[k - 1] - g[k - 2]:
                raise ValueError(f"gain increments must strictly decrease (violated at k={k})")

    @property
    def k_max(self) -> int:
        return len(self.gains) - 1

    @cached_property
    def marginal_gains(self) -> tuple[float, ...]:
        """g_r - g_{r-1} for ranks r = 1..k_max."""
        g = self.gains
        return tuple(g[r] - g[r - 1] for r in range(1, len(g)))

    def marginal_rate(self, rank: int) -> float:
        """Rate earned by the user holding the given laxity rank: g_r - g_{r-1}."""
        if not 1 <= rank <= self.k_max:
            raise IndexError(f"rank {rank} outside 1..{self.k_max}")
        return self.marginal_gains[rank - 1]

    def in_region(self, rates, atol: float = 1e-12) -> bool:
        """Membership test via the m-largest-entries prefix constraints."""
        ordered = sorted(rates, reverse=True)
        if len(ordered) > self.k_max:
            raise ValueError(
                f"{len(ordered)} users exceed profile k_max={self.k_max}; "
                "rebuild the profile with a larger k_max"
            )
        total = 0.0
        for m, r in enumerate(ordered, start=1):
            if r < 0.0 or r > 1.0 + atol:
                return False
            total += r
            if total > self.gains[m] + atol:
                return False
        return True


@cache
def _composite_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes y, weights w * e^-y and 1 - e^-y, the CDF of one unit
    exponential, of a fixed rule for the integral over [0, inf) of e^-y f(y),
    f smooth: 16-point Gauss-Legendre on each of 40 panels, [0, 1e-6] and 39
    geometric panels up to y = 745, past which e^-y underflows. The Legendre
    nodes come from Newton's method on P_16 started at cos(pi (i - 1/4) /
    16.5), which six steps bring to full precision; their weights are
    2 / ((1 - x^2) P_16'(x)^2) (A&S 25.4.29). Built on first use, so a
    process that builds no gains (a TDM run) never touches it."""
    n = 16
    x, w = np.empty(n), np.empty(n)
    for i in range(n):
        t = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(6):
            p0, p1 = 1.0, t
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * t * p1 - (j - 1) * p0) / j
            dp = n * (t * p1 - p0) / (t * t - 1.0)
            t -= p1 / dp
        x[i], w[i] = t, 2.0 / ((1.0 - t * t) * dp * dp)
    edges = np.concatenate(([0.0], np.geomspace(1e-6, 745.0, 40)))
    half = 0.5 * np.diff(edges)[:, None]
    y = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * x).ravel()
    return y, (half * w).ravel() * np.exp(-y), -np.expm1(-y)


def _increments(mean_sinr: float, k_max: int) -> np.ndarray:
    """D_1..D_k_max of diversity_gains by the composite rule."""
    y, weights, cdf = _composite_rule()
    terms = weights * (mean_sinr / (1.0 + mean_sinr * y))
    power = np.ones_like(y)
    increments = np.empty(k_max)
    for k in range(k_max):
        increments[k] = terms @ power
        power *= cdf
    return increments


def diversity_gains(mean_sinr: float, k_max: int) -> GainProfile:
    """The exact diversity gain sequence g_0..g_k_max for i.i.d. exponential
    SINRs of mean s = mean_sinr: g_k = E[ln(1 + max of k SINRs)] /
    E[ln(1 + one SINR)].

    With Y_k the largest of k unit exponentials, P(Y_k <= y) = (1 - e^-y)^k
    and E[ln(1 + s*Y_k)] = int_0^inf P(Y_k > y) s / (1 + s*y) dy, so each
    increment is one integral,

        D_k = s * int_0^inf e^-y (1 - e^-y)^(k-1) / (1 + s*y) dy,

    with D_1 = e^(1/s) E1(1/s), and g_k = (D_1 + ... + D_k) / D_1 (David &
    Nagaraja, Order Statistics). Each D_k is a positive sum over the fixed
    composite rule, with (1 - e^-y)^(k-1) carried as a running product; every
    term shrinks as k grows, so the increments decrease strictly and the
    profile is strictly concave with nothing to repair.
    """
    if not 0.0 < mean_sinr < math.inf:
        raise ValueError("mean_sinr must be finite and > 0")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    increments = _increments(mean_sinr, k_max)
    gains = np.concatenate(([0.0], np.cumsum(increments) / increments[0]))
    gains[1] = 1.0
    return GainProfile(tuple(float(g) for g in gains))


def estimate_gains(mean_sinr, k_max, sample_count, seed):
    """The exact gains; ignores sample_count and seed. Goes when perfbench calls diversity_gains."""
    return diversity_gains(mean_sinr, k_max)
