"""Symmetric polymatroid capacity region from multi-user diversity gains.

The region for k active users is every rate vector r in [0, 1]^k whose
subset sums satisfy sum_{i in S} r_i <= g_{|S|}. Because the rank function
depends only on |S|, checking the m largest entries against g_m for every m
is equivalent to checking all 2^k subsets.
"""

from __future__ import annotations

import math
import threading
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

# Samples per block of SINR draws in estimate_gains; the gains depend on it
# through the order of the column sums.
_CHUNK_ROWS = 1 << 15


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


def _reduce_block(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Column sums of ln(1 + best-of-k SINR) over a block of draws, written
    to out. The block is overwritten: its prefix maxima across the user axis
    (one column at a time, which gives the same values as
    ``np.maximum.accumulate(block, axis=1)`` faster), then their log1p."""
    for j in range(1, block.shape[1]):
        np.maximum(block[:, j - 1], block[:, j], out=block[:, j])
    np.log1p(block, out=block)
    return block.sum(axis=0, out=out)


def _reduce_blocks(blocks, sizes, filled, sums, errors) -> None:
    """Helper-thread stage of estimate_gains: once both threads are past
    ``filled`` for chunk i, reduce its block and add the column sums to sums
    in chunk order. An error is stored for the caller and breaks the barrier,
    so the main thread stops drawing instead of waiting."""
    part = np.empty_like(sums)
    try:
        for i, m in enumerate(sizes):
            filled.wait()
            sums += _reduce_block(blocks[i % 2][:m], part)
    except BaseException as exc:  # re-raised by estimate_gains
        errors.append(exc)
        filled.abort()


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

    The work runs as a two-stage pipeline on one helper thread, whatever the
    CLI's --jobs: the calling thread draws the next block of SINRs into one
    of two buffers while the helper reduces the previous block. Draws, block
    sizes and summation order are those of a serial loop over the blocks, so
    the profile equals that loop's bit for bit. The helper has ended when
    this returns or raises.
    """
    if mean_sinr <= 0.0:
        raise ValueError("mean_sinr must be > 0")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if sample_count < MIN_SAMPLE_COUNT:
        raise ValueError(f"sample_count must be >= {MIN_SAMPLE_COUNT} for a usable estimate")

    rng = generator_from(seed)
    rows = min(_CHUNK_ROWS, sample_count)
    sizes = [min(rows, sample_count - start) for start in range(0, sample_count, rows)]
    blocks = [np.empty((rows, k_max)) for _ in sizes[:2]]
    sums = np.zeros(k_max)
    filled = threading.Barrier(2)
    errors: list[BaseException] = []
    helper = threading.Thread(
        target=_reduce_blocks, args=(blocks, sizes, filled, sums, errors), daemon=True
    )
    helper.start()
    try:
        for i, m in enumerate(sizes):
            block = blocks[i % 2][:m]
            # the same doubles as rng.exponential(mean_sinr, size=(m, k_max))
            rng.standard_exponential(out=block)
            block *= mean_sinr
            filled.wait()
    except threading.BrokenBarrierError:
        pass  # the helper failed and broke the barrier; its error is raised below
    except BaseException:
        filled.abort()  # the helper may be waiting for a block that will not come
        raise
    finally:
        helper.join()
    if errors:
        raise errors[0]
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
