"""Request-sequence generators and the truncated-lognormal file size law.

Two experiment families: a finite batch sharing one deadline (arrival times
uniform on [0, a*D]) and a stationary Poisson stream where each deadline is
the arrival time plus a stretch factor times the ideal full-channel service
time. Sizes follow the FTP model: lognormal with mean 2 MB and standard
deviation 0.722 MB, resampled above 5 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel
from .core import DownloadRequest

__all__ = [
    "BITS_PER_MB",
    "FileSizeLaw",
    "IdenticalDeadlineSpec",
    "StationaryArrivalSpec",
    "sample_file_sizes_mb",
    "sample_file_sizes",
    "gen_identical_deadline",
    "gen_stationary",
]

BITS_PER_MB = 8e6  # decimal megabytes

_DEFAULT_MEAN_RATE_BPS = ChannelModel().mean_rate_bps


@dataclass(frozen=True)
class FileSizeLaw:
    """Truncated lognormal file sizes, moment-matched before truncation.

    (log_mu, log_sigma) reproduce the requested untruncated mean/std exactly;
    truncation by resampling pulls the realized mean slightly below mean_mb.
    mean_rate_bps is the normalization constant applied at ingestion, so
    sampled sizes come out in seconds of average-rate service.
    """

    mean_mb: float = 2.0
    std_mb: float = 0.722
    max_mb: float = 5.0
    mean_rate_bps: float = _DEFAULT_MEAN_RATE_BPS
    log_mu: float = field(init=False)
    log_sigma: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.mean_mb > 0.0 and 0.0 < self.std_mb < math.inf):
            raise ValueError("mean_mb and std_mb must be finite and > 0")
        if not self.max_mb > self.mean_mb:
            raise ValueError("max_mb must exceed mean_mb")
        if not self.mean_rate_bps > 0.0:
            raise ValueError("mean_rate_bps must be > 0")
        sigma2 = math.log(1.0 + (self.std_mb / self.mean_mb) ** 2)
        object.__setattr__(self, "log_sigma", math.sqrt(sigma2))
        object.__setattr__(self, "log_mu", math.log(self.mean_mb) - sigma2 / 2.0)

    @property
    def norm_factor(self) -> float:
        """Seconds of mean-rate service per megabyte."""
        return BITS_PER_MB / self.mean_rate_bps


def sample_file_sizes_mb(law: FileSizeLaw, rng: np.random.Generator, n: int) -> np.ndarray:
    """n truncated-lognormal sizes in MB (resampled above max_mb, no atom)."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        draws = rng.lognormal(law.log_mu, law.log_sigma, size=n - filled)
        kept = draws[draws <= law.max_mb]
        out[filled : filled + kept.size] = kept
        filled += kept.size
    return out


def sample_file_sizes(law: FileSizeLaw, rng: np.random.Generator, n: int) -> np.ndarray:
    """n normalized sizes (seconds of mean-rate service)."""
    return sample_file_sizes_mb(law, rng, n) * law.norm_factor


@dataclass(frozen=True)
class IdenticalDeadlineSpec:
    """M users, one common deadline, arrivals uniform on [0, arrival_spread*D]."""

    user_count: int
    deadline: float
    arrival_spread: float = 0.0

    def __post_init__(self) -> None:
        if self.user_count < 1:
            raise ValueError("user_count must be >= 1")
        if not 0.0 < self.deadline < math.inf:
            raise ValueError("deadline must be finite and > 0")
        if not 0.0 <= self.arrival_spread < 1.0:
            raise ValueError("arrival_spread must lie in [0, 1)")


@dataclass(frozen=True)
class StationaryArrivalSpec:
    """Poisson arrivals; each deadline is arrival + stretch * ideal service time."""

    rate: float
    stretch: float
    horizon: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rate < math.inf:
            raise ValueError("rate must be finite and > 0")
        if not self.stretch > 1.0:
            raise ValueError("stretch must be > 1")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and > 0")


def gen_identical_deadline(
    spec: IdenticalDeadlineSpec, law: FileSizeLaw, rng: np.random.Generator
) -> list[DownloadRequest]:
    """Batch of user_count requests sharing spec.deadline, sorted by arrival.

    Arrivals are drawn before sizes, so a deadline sweep under a fixed seed
    reuses the same size sample while arrival times scale with a*D.
    """
    m = spec.user_count
    arrivals = rng.uniform(0.0, spec.arrival_spread * spec.deadline, size=m)
    sizes = sample_file_sizes(law, rng, m)
    requests = [
        DownloadRequest(i + 1, float(arrivals[i]), float(sizes[i]), spec.deadline)
        for i in range(m)
    ]
    requests.sort(key=lambda r: (r.arrival_time, r.user_id))
    return requests


def gen_stationary(
    spec: StationaryArrivalSpec, law: FileSizeLaw, rng: np.random.Generator
) -> list[DownloadRequest]:
    """Poisson arrival stream on [0, horizon] with stretch-factor deadlines."""
    arrivals: list[float] = []
    t = 0.0
    while True:
        gaps = rng.exponential(1.0 / spec.rate, size=1024)
        for gap in gaps:
            t += gap
            if t > spec.horizon:
                break
            arrivals.append(t)
        if t > spec.horizon:
            break
    sizes = sample_file_sizes(law, rng, len(arrivals))
    return [
        DownloadRequest(i + 1, a, float(f), a + spec.stretch * f)
        for i, (a, f) in enumerate(zip(arrivals, sizes))
    ]

