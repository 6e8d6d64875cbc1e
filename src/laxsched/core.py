"""Domain types and request checks shared by all schedulers and simulators.

Sizes and rates are stored pre-normalized by the mean channel rate, so file
sizes are expressed in seconds of average-rate service and the single-user
gain is 1. Normalization happens once, at request ingestion.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "FlowStatus",
    "DownloadRequest",
    "validate_requests",
    "first_slot_at_or_after",
    "common_deadline",
]


class FlowStatus(enum.Enum):
    COMPLETED = "completed"
    EXPIRED = "expired"


@dataclass(frozen=True)
class DownloadRequest:
    """One user's download request: arrival time, normalized size, deadline."""

    user_id: int
    arrival_time: float
    initial_size: float
    deadline: float

    def __post_init__(self) -> None:
        if self.user_id < 1:
            raise ValueError(f"user_id must be a positive integer, got {self.user_id}")
        if not (math.isfinite(self.arrival_time) and self.arrival_time >= 0.0):
            raise ValueError(f"arrival_time must be finite and >= 0, got {self.arrival_time}")
        if not (math.isfinite(self.initial_size) and self.initial_size > 0.0):
            raise ValueError(f"initial_size must be > 0, got {self.initial_size}")
        if not self.deadline > self.arrival_time:
            raise ValueError(
                f"deadline ({self.deadline}) must exceed arrival_time ({self.arrival_time})"
            )


def common_deadline(requests: Iterable[DownloadRequest]) -> float:
    """The single deadline shared by all given requests.

    Raises ValueError when deadlines differ; identical-deadline analysis
    quantities (virtual laxity comparisons, the fluid policy) are undefined
    otherwise.
    """
    deadline = None
    for r in requests:
        if deadline is None:
            deadline = r.deadline
        elif r.deadline != deadline:
            raise ValueError(f"deadlines differ: {deadline} vs {r.deadline}")
    if deadline is None:
        raise ValueError("empty batch has no common deadline")
    return deadline


def validate_requests(
    requests: Sequence[DownloadRequest], same_deadline: bool = False
) -> None:
    """Reject a request set that cannot be keyed by user: duplicate user ids,
    and with ``same_deadline`` deadlines that differ (see ``common_deadline``).

    Raises ValueError naming the offending ids or deadlines.
    """
    counts = Counter(r.user_id for r in requests)
    if len(counts) != len(requests):
        dupes = sorted(u for u, c in counts.items() if c > 1)
        raise ValueError(f"duplicate user_id(s) {dupes}")
    if same_deadline:
        common_deadline(requests)


def first_slot_at_or_after(t: float, slot_length: float) -> int:
    """The smallest slot index n >= 0 whose boundary n*slot_length, as
    computed in floating point, is at or after t (t >= 0, slot_length > 0).

    ``t // slot_length`` alone can fall one short: 0.3 // 0.1 == 2.0.
    """
    n = int(t // slot_length)
    while n * slot_length < t:
        n += 1
    return n
