"""Domain types and laxity arithmetic shared by all schedulers and simulators.

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
    "FlowState",
    "validate_requests",
    "first_slot_at_or_after",
    "expected_laxity",
    "virtual_expected_laxity",
    "advance_flow",
    "common_deadline",
]


class FlowStatus(enum.Enum):
    ACTIVE = "active"
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


@dataclass(frozen=True)
class FlowState:
    """A present user's residual work and lifecycle status."""

    request: DownloadRequest
    residual_size: float
    status: FlowStatus

    def __post_init__(self) -> None:
        if self.residual_size < 0.0 or self.residual_size > self.request.initial_size:
            raise ValueError(
                f"residual_size {self.residual_size} outside [0, {self.request.initial_size}]"
            )
        if (self.residual_size == 0.0) != (self.status is FlowStatus.COMPLETED):
            raise ValueError("status must be COMPLETED exactly when residual_size is 0")

    @classmethod
    def new(cls, request: DownloadRequest) -> "FlowState":
        return cls(request, request.initial_size, FlowStatus.ACTIVE)

    @property
    def user_id(self) -> int:
        return self.request.user_id


def expected_laxity(flow: FlowState, slot_index: int, slot_length: float, g1: float) -> float:
    """Time the user can cede to others before its own task becomes infeasible
    at full single-user rate: D - n*dt - F/g1. May be negative.

    Requires g1 > 0 and slot_index >= 0. A completed flow (F = 0) yields
    D - n*dt.
    """
    return flow.request.deadline - slot_index * slot_length - flow.residual_size / g1


def virtual_expected_laxity(flow: FlowState, g1: float) -> float:
    """Expected laxity with the common clock term removed: D - F/g1.

    Only meaningful for comparing flows that share one deadline; equals D for
    completed flows. Use ``common_deadline`` to validate a batch before
    comparing these values across users.
    """
    return flow.request.deadline - flow.residual_size / g1


def common_deadline(items: Iterable[DownloadRequest | FlowState]) -> float:
    """The single deadline shared by all given requests/flows.

    Raises ValueError when deadlines differ; identical-deadline analysis
    quantities (virtual laxity comparisons, the fluid policy) are undefined
    otherwise.
    """
    deadline = None
    for item in items:
        d = item.deadline if isinstance(item, DownloadRequest) else item.request.deadline
        if deadline is None:
            deadline = d
        elif d != deadline:
            raise ValueError(f"deadlines differ: {deadline} vs {d}")
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


def advance_flow(flow: FlowState, rate: float, slot_length: float) -> FlowState:
    """Advance one slot at the given rate: F' = max(0, F - rate*dt).

    Completion is the exact-zero clamp, never an epsilon compare.
    """
    if rate < 0.0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    if flow.status is not FlowStatus.ACTIVE:
        raise ValueError("can only advance an active flow")
    residual = flow.residual_size - rate * slot_length
    if residual <= 0.0:
        return FlowState(flow.request, 0.0, FlowStatus.COMPLETED)
    return FlowState(flow.request, residual, FlowStatus.ACTIVE)
