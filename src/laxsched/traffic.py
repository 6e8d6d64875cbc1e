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
from .core import DownloadRequest, validate_requests

__all__ = [
    "BITS_PER_MB",
    "FileSizeLaw",
    "IdenticalDeadlineSpec",
    "StationaryArrivalSpec",
    "sample_file_sizes_mb",
    "sample_file_sizes",
    "sample_file_size",
    "gen_identical_deadline",
    "gen_stationary",
    "write_requests",
    "read_requests",
]

BITS_PER_MB = 8e6  # decimal megabytes

_DEFAULT_MEAN_RATE_BPS = ChannelModel().mean_rate_bps

REQUEST_HEADER = "user_id,arrival_s,size_norm,deadline_s"


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
        if self.mean_mb <= 0.0 or self.std_mb <= 0.0:
            raise ValueError("mean_mb and std_mb must be > 0")
        if self.max_mb <= self.mean_mb:
            raise ValueError("max_mb must exceed mean_mb")
        if self.mean_rate_bps <= 0.0:
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


def sample_file_size(law: FileSizeLaw, rng: np.random.Generator) -> float:
    return float(sample_file_sizes(law, rng, 1)[0])


@dataclass(frozen=True)
class IdenticalDeadlineSpec:
    """M users, one common deadline, arrivals uniform on [0, arrival_spread*D]."""

    user_count: int
    deadline: float
    arrival_spread: float = 0.0

    def __post_init__(self) -> None:
        if self.user_count < 1:
            raise ValueError("user_count must be >= 1")
        if not self.deadline > 0.0:
            raise ValueError("deadline must be > 0")
        if not 0.0 <= self.arrival_spread < 1.0:
            raise ValueError("arrival_spread must lie in [0, 1)")


@dataclass(frozen=True)
class StationaryArrivalSpec:
    """Poisson arrivals; each deadline is arrival + stretch * ideal service time."""

    rate: float
    stretch: float
    horizon: float

    def __post_init__(self) -> None:
        if not self.rate > 0.0:
            raise ValueError("rate must be > 0")
        if not self.stretch > 1.0:
            raise ValueError("stretch must be > 1")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be > 0")


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


def write_requests(path, requests) -> None:
    """Trace export: one request per line, 12 significant digits."""
    with open(path, "w", newline="\n") as fh:
        fh.write(REQUEST_HEADER + "\n")
        for r in requests:
            fh.write(
                f"{r.user_id},{r.arrival_time:.12g},{r.initial_size:.12g},{r.deadline:.12g}\n"
            )


def read_requests(path) -> list[DownloadRequest]:
    """Trace import; rejects a missing header and duplicate user ids."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != REQUEST_HEADER:
        raise ValueError(f'request trace must start with header "{REQUEST_HEADER}"')
    requests = []
    for line in lines[1:]:
        uid, arrival, size, deadline = line.split(",")
        requests.append(DownloadRequest(int(uid), float(arrival), float(size), float(deadline)))
    validate_requests(requests)
    return requests
