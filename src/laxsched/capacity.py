"""Symmetric polymatroid capacity region from multi-user diversity gains.

The region for k active users is every rate vector r in [0, 1]^k whose
subset sums satisfy sum_{i in S} r_i <= g_{|S|}. Because the rank function
depends only on |S|, checking the m largest entries against g_m for every m
is equivalent to checking all 2^k subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .seeding import generator_from

__all__ = ["GainProfile", "estimate_gains"]

# Relative tilt applied after isotonic repair so pooled increments become
# strictly decreasing without moving any value beyond sampling noise.
_STRICT_TILT = 1e-12

# Fewest Monte-Carlo samples estimate_gains accepts.
MIN_SAMPLE_COUNT = 10_000


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
                "re-estimate the profile with a larger k_max"
            )
        total = 0.0
        for m, r in enumerate(ordered, start=1):
            if r < 0.0 or r > 1.0 + atol:
                return False
            total += r
            if total > self.gains[m] + atol:
                return False
        return True

    def to_table(self) -> str:
        """Plain-text "k,g_k" table with 17 significant digits, which
        round-trips every double exactly, so ``from_table`` gives back the
        same gains and accepts every table a valid profile writes."""
        lines = ["k,g_k"]
        lines += [f"{k},{g:.17g}" for k, g in enumerate(self.gains)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_table(cls, text: str) -> "GainProfile":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "k,g_k":
            raise ValueError('gain table must start with header "k,g_k"')
        gains = []
        for expected_k, line in enumerate(lines[1:]):
            k_str, g_str = line.split(",")
            if int(k_str) != expected_k:
                raise ValueError(f"gain table rows out of order at k={k_str}")
            gains.append(float(g_str))
        return cls(tuple(gains))

    def save(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_table())

    @classmethod
    def load(cls, path) -> "GainProfile":
        with open(path) as fh:
            return cls.from_table(fh.read())


def _pav_decreasing(values: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators projection onto non-increasing sequences."""
    vals: list[float] = []
    counts: list[int] = []
    for v in values:
        vals.append(float(v))
        counts.append(1)
        while len(vals) > 1 and vals[-2] < vals[-1]:
            v2, c2 = vals.pop(), counts.pop()
            v1, c1 = vals.pop(), counts.pop()
            vals.append((v1 * c1 + v2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    return np.repeat(vals, counts)


def estimate_gains(
    mean_sinr: float, k_max: int, sample_count: int, seed: int
) -> GainProfile:
    """Monte-Carlo estimate of the diversity gain sequence.

    Draws blocks of i.i.d. exponential SINRs, takes prefix maxima across the
    user axis (best-of-k selection), and averages the Shannon rate for each
    k. Gains are the ratio to the single-user mean. Sampling noise can break
    the strict monotonicity/concavity the region requires at large k, so the
    increments are repaired by an isotonic (non-increasing) projection plus a
    vanishing tilt, then rescaled so g_1 is exactly 1.
    """
    if mean_sinr <= 0.0:
        raise ValueError("mean_sinr must be > 0")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if sample_count < MIN_SAMPLE_COUNT:
        raise ValueError(f"sample_count must be >= {MIN_SAMPLE_COUNT} for a usable estimate")

    rng = generator_from(seed)
    sums = np.zeros(k_max)
    remaining = sample_count
    chunk = 1 << 15
    while remaining > 0:
        m = min(chunk, remaining)
        draws = rng.exponential(mean_sinr, size=(m, k_max))
        np.maximum.accumulate(draws, axis=1, out=draws)
        sums += np.log1p(draws).sum(axis=0)
        remaining -= m
    # log base cancels in the ratio to the single-user mean
    ratios = sums / sums[0]

    increments = np.diff(ratios, prepend=0.0)
    increments = _pav_decreasing(increments)
    if increments[-1] <= 0.0:
        raise ValueError(
            f"sample_count={sample_count} too small: repaired increments not positive"
        )
    increments *= 1.0 - _STRICT_TILT * np.arange(1, k_max + 1)
    increments /= increments[0]

    gains = np.concatenate(([0.0], np.cumsum(increments)))
    gains[1] = 1.0
    return GainProfile(tuple(float(g) for g in gains))
