"""Slotted simulation loops and the laxity-history analysis machinery.

Two modes, never mixed in one run: the fluid polymatroid mode (every active
user served simultaneously at its marginal gain) and the TDM mode (one user
per slot at its sampled instantaneous rate). The fluid mode can additionally
track the used-to-be-less-than relation, the least-laxity set, and the
per-slot laxity bounds.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .capacity import GainProfile
from .channel import ChannelModel
from .core import DownloadRequest, FlowStatus, first_slot_at_or_after, validate_requests
from .policies import _l2hpr_rates
from .seeding import generator_from

__all__ = [
    "UltTracker",
    "TraceRecord",
    "UserOutcome",
    "SimReport",
    "least_laxity_set",
    "laxity_order_check",
    "least_laxity_floor",
    "least_laxity_limit",
    "run_fluid",
    "run_tdm",
]

_LN2 = math.log(2.0)


class UltTracker:
    """Pairwise "used-to-be-less-than" history with its transitive closure.

    ult(a, b) is set once a's virtual laxity was <= b's at any slot boundary
    so far, and never cleared. iult is reachability through such pairs. The
    diagonal is always set (a laxity is <= itself).
    """

    __slots__ = ("_direct", "_down", "_up", "_missing")

    def __init__(self) -> None:
        self._direct: dict[int, set[int]] = {}
        self._down: dict[int, set[int]] = {}
        self._up: dict[int, set[int]] = {}
        # ordered pairs of distinct users not yet in the direct relation
        self._missing = 0

    def users(self) -> list[int]:
        return sorted(self._direct)

    def ensure(self, uid: int) -> None:
        if uid not in self._direct:
            self._missing += 2 * len(self._direct)
            self._direct[uid] = {uid}
            self._down[uid] = {uid}
            self._up[uid] = {uid}

    def _add(self, a: int, b: int) -> None:
        """Record ult(a, b), which must not be set yet."""
        self._direct[a].add(b)
        self._missing -= 1
        down = self._down
        if b in down[a]:
            return
        new_reach = down[b] | {b}
        up = self._up
        for p in up[a] | {a}:
            gained = new_reach - down[p]
            if gained:
                down[p] |= gained
                for q in gained:
                    up[q].add(p)

    def update(self, virtual_laxities: Mapping[int, float]) -> None:
        """Fold one slot's laxities into the relation (both directions on
        ties). Edge additions commute, so iteration order is irrelevant."""
        direct = self._direct
        for uid in virtual_laxities:
            if uid not in direct:
                self.ensure(uid)
        if not self._missing:  # every pair already holds both ways
            return
        items = list(virtual_laxities.items())
        for i, (u1, l1) in enumerate(items):
            d1 = direct[u1]
            for u2, l2 in items[i + 1 :]:
                if l1 <= l2 and u2 not in d1:
                    self._add(u1, u2)
                if l2 <= l1 and u1 not in direct[u2]:
                    self._add(u2, u1)

    def reaching(self, b: int) -> frozenset[int]:
        """Every user a with iult(a, b), b itself included once known."""
        return frozenset(self._up.get(b, ()))

    def ult(self, a: int, b: int) -> bool:
        return b in self._direct.get(a, ())

    def iult(self, a: int, b: int) -> bool:
        return b in self._down.get(a, ())

    def direct_pairs(self):
        for a, targets in self._direct.items():
            for b in targets:
                if a != b:
                    yield a, b

    def ult_matrix(self) -> tuple[list[int], np.ndarray]:
        ids = self.users()
        index = {u: i for i, u in enumerate(ids)}
        mat = np.zeros((len(ids), len(ids)), dtype=bool)
        for a, targets in self._direct.items():
            for b in targets:
                mat[index[a], index[b]] = True
        return ids, mat

    def closure_matrix(self) -> tuple[list[int], np.ndarray]:
        ids = self.users()
        index = {u: i for i, u in enumerate(ids)}
        mat = np.zeros((len(ids), len(ids)), dtype=bool)
        for a, targets in self._down.items():
            for b in targets:
                mat[index[a], index[b]] = True
        return ids, mat


def least_laxity_set(
    tracker: UltTracker, virtual_laxities: Mapping[int, float]
) -> frozenset[int]:
    """The least-laxity user (smallest id on ties) plus everyone that
    indirectly-used-to-be-less-than it."""
    if not virtual_laxities:
        raise ValueError("least_laxity_set needs at least one arrived user")
    star = min(virtual_laxities, key=lambda u: (virtual_laxities[u], u))
    return frozenset(virtual_laxities.keys() & tracker.reaching(star) | {star})


def laxity_order_check(
    tracker: UltTracker,
    virtual_laxities: Mapping[int, float],
    slot_length: float,
    tol: float = 0.0,
) -> list[tuple[int, int]]:
    """Pairs (i1, i2) with i1 used-to-be-less-than i2 whose laxity difference
    exceeds one slot length (plus tolerance). Expected empty under the fluid
    policy; nonempty output flags a violated invariant."""
    limit = slot_length + tol
    violations = []
    for a, b in tracker.direct_pairs():
        la = virtual_laxities.get(a)
        lb = virtual_laxities.get(b)
        if la is not None and lb is not None and la - lb > limit:
            violations.append((a, b))
    return violations


def least_laxity_floor(
    initial_virtual_laxities: Sequence[float],
    slot_index: int,
    slot_length: float,
    gains: GainProfile,
    n_users: int,
    deadline: float,
) -> float:
    """Lower bound on the least virtual laxity at a slot, from the initial
    laxities of the least-laxity set (simultaneous arrivals)."""
    q = len(initial_virtual_laxities)
    if q == 0:
        raise ValueError("least-laxity set cannot be empty")
    g = gains.gains
    avg = (sum(initial_virtual_laxities) + slot_index * g[q] * slot_length / g[1]) / q
    slack = (n_users - 1) * slot_length
    return min(deadline - slack, avg - slack)


def least_laxity_limit(
    arrival_times: Sequence[float],
    initial_virtual_laxities: Sequence[float],
    gains: GainProfile,
    t: float,
    deadline: float,
) -> float:
    """Continuous-time ceiling on the least virtual laxity at time t for a
    least-laxity set with staggered arrivals, capped at the common deadline.

    Arrival times must be sorted ascending and lie in [0, t]; the j-th gap is
    weighted by g_j because only j set members were present during it.
    """
    q = len(arrival_times)
    if q == 0 or q != len(initial_virtual_laxities):
        raise ValueError("need equal, nonzero numbers of arrivals and laxities")
    for j in range(1, q):
        if arrival_times[j] < arrival_times[j - 1]:
            raise ValueError("arrival_times must be sorted ascending")
    if arrival_times[0] < 0.0 or arrival_times[-1] > t:
        raise ValueError("arrival times must lie in [0, t]")
    g = gains.gains
    g1 = g[1]
    total = sum(initial_virtual_laxities)
    for j in range(1, q):
        total += (g[j] / g1) * (arrival_times[j] - arrival_times[j - 1])
    total += (g[q] / g1) * (t - arrival_times[-1])
    return min(deadline, total / q)


@dataclass(slots=True)
class TraceRecord:
    """State at one slot boundary plus the decision taken in that slot."""

    slot_index: int
    time: float
    residuals: dict[int, float]
    virtual_laxities: dict[int, float]
    least_laxity_user: int | None
    least_laxity_set: frozenset[int] | None
    decision: dict[int, float] | int | None

    def least_virtual_laxity(self) -> float:
        return min(self.virtual_laxities.values())


@dataclass(frozen=True)
class UserOutcome:
    user_id: int
    status: FlowStatus
    completion_time: float | None


@dataclass
class SimReport:
    """Per-run outcome: completion/violation per user plus optional trace."""

    outcomes: dict[int, UserOutcome]
    trace: list[TraceRecord] | None = None
    laxity_order_violations: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def n_users(self) -> int:
        return len(self.outcomes)

    @property
    def n_completed(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status is FlowStatus.COMPLETED)

    @property
    def n_expired(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status is FlowStatus.EXPIRED)

    @property
    def schedulable(self) -> bool:
        return self.n_expired == 0


def run_fluid(
    requests: Sequence[DownloadRequest],
    gains: GainProfile,
    slot_length: float,
    record_trace: bool = False,
) -> SimReport:
    """Slotted fluid run under the laxity-ranked marginal-gain allocation.

    Requests must share one deadline and have distinct user ids. Arrivals
    become eligible at the first slot boundary at or after their arrival
    time; expiry is evaluated at slot boundaries. With record_trace, every
    boundary logs laxities, the least-laxity set, and the laxity-order
    invariant over all arrived users (completed users held at laxity D).
    """
    if slot_length <= 0.0:
        raise ValueError("slot_length must be > 0")
    if not requests:
        return SimReport(outcomes={}, trace=[] if record_trace else None)
    validate_requests(requests, same_deadline=True)
    deadline = requests[0].deadline
    tol = 1e-9 * deadline
    order_limit = slot_length + tol

    pending = sorted(requests, key=lambda r: (r.arrival_time, r.user_id))
    admit_slot = [first_slot_at_or_after(r.arrival_time, slot_length) for r in pending]
    residual: dict[int, float] = {}  # every arrived user, in arrival order
    active: list[int] = []  # users still being served, ascending id
    outcomes: dict[int, UserOutcome] = {}
    tracker = UltTracker() if record_trace else None
    trace: list[TraceRecord] | None = [] if record_trace else None
    violations: list[tuple[int, int, int]] = []
    g1 = gains.gains[1]

    next_req = 0
    n = 0
    while True:
        t = n * slot_length
        while next_req < len(pending) and admit_slot[next_req] <= n:
            uid = pending[next_req].user_id
            residual[uid] = pending[next_req].initial_size
            insort(active, uid)
            next_req += 1
        if t >= deadline and active:
            for uid in active:
                outcomes[uid] = UserOutcome(uid, FlowStatus.EXPIRED, None)
            active = []

        allocation = (
            _l2hpr_rates(active, [deadline - t - residual[u] / g1 for u in active], gains)
            if active
            else {}
        )

        if record_trace and residual:
            # one pass: laxities, the least-laxity user (smallest id on
            # ties) and the laxity spread
            laxities: dict[int, float] = {}
            star = None
            lo = hi = 0.0
            for uid, left in residual.items():
                lax = deadline - left / g1
                laxities[uid] = lax
                if star is None:
                    star, lo, hi = uid, lax, lax
                elif lax < lo or (lax == lo and uid < star):
                    star, lo = uid, lax
                elif lax > hi:
                    hi = lax
            tracker.update(laxities)
            # no pair can be a slot apart when the whole spread is within one
            if hi - lo > order_limit:
                violations.extend(
                    (n, a, b) for a, b in laxity_order_check(tracker, laxities, slot_length, tol)
                )
            trace.append(  # positional: keyword passing costs more than the record
                TraceRecord(
                    n, t, dict(residual), laxities, star, tracker.reaching(star), allocation
                )
            )

        if not active and next_req == len(pending):
            break

        for uid, rate in allocation.items():
            left = residual[uid] - rate * slot_length
            if left <= 0.0:  # the exact-zero clamp of advance_flow
                residual[uid] = 0.0
                active.remove(uid)
                outcomes[uid] = UserOutcome(uid, FlowStatus.COMPLETED, (n + 1) * slot_length)
            else:
                residual[uid] = left
        n += 1

    return SimReport(outcomes=outcomes, trace=trace, laxity_order_violations=violations)


class _ExpStream:
    """Buffered exponential draws from one generator, consumed in order."""

    __slots__ = ("_rng", "_mean", "_block", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, mean: float, block: int = 1 << 14):
        self._rng = rng
        self._mean = mean
        self._block = block
        self._buf: list[float] = []
        self._pos = 0

    def take(self, k: int) -> list[float]:
        buf, pos = self._buf, self._pos
        while len(buf) - pos < k:
            buf = buf[pos:] + self._rng.exponential(self._mean, size=self._block).tolist()
            pos = 0
        self._buf, self._pos = buf, pos + k
        return buf[pos : pos + k]


def run_tdm(
    requests: Sequence[DownloadRequest],
    channel: ChannelModel,
    policy,
    slot_length: float,
    seed: int,
    record_trace: bool = False,
) -> SimReport:
    """Slotted TDM run: one user served per nonempty slot at its sampled rate.

    User ids must be distinct; deadlines may differ. Per slot: admit
    arrivals, drop expired users, draw one normalized rate per active user
    (ascending user id order), let the policy choose, and advance only the
    chosen flow. Fixed seed gives a bit-identical report.
    """
    if slot_length <= 0.0:
        raise ValueError("slot_length must be > 0")
    validate_requests(requests)
    ordered = sorted(requests, key=lambda r: (r.arrival_time, r.user_id))
    outcomes: dict[int, UserOutcome] = {}
    trace: list[TraceRecord] | None = [] if record_trace else None
    if not ordered:
        return SimReport(outcomes=outcomes, trace=trace)

    admit_slot = [first_slot_at_or_after(r.arrival_time, slot_length) for r in ordered]
    stream = _ExpStream(generator_from(seed), channel.mean_sinr)
    rate_scale = 1.0 / (_LN2 * channel.spectral_efficiency)

    residual: dict[int, float] = {}
    deadline_of: dict[int, float] = {}
    active: list[int] = []  # kept sorted by user id
    next_req = 0
    n = 0
    while active or next_req < len(ordered):
        t = n * slot_length
        while next_req < len(ordered) and admit_slot[next_req] <= n:
            req = ordered[next_req]
            residual[req.user_id] = req.initial_size
            deadline_of[req.user_id] = req.deadline
            insort(active, req.user_id)
            next_req += 1
        if active:
            expired = [u for u in active if t >= deadline_of[u]]
            for u in expired:
                active.remove(u)
                outcomes[u] = UserOutcome(u, FlowStatus.EXPIRED, None)
        if not active:
            if next_req >= len(ordered):
                break
            n = admit_slot[next_req]  # idle until the next admission
            continue

        gammas = stream.take(len(active))
        rates = [math.log1p(g) * rate_scale for g in gammas]
        laxities = [deadline_of[u] - t - residual[u] for u in active]
        choice = policy.select_arrays(
            active, laxities, rates, [deadline_of[u] for u in active]
        )

        if record_trace:
            trace.append(
                TraceRecord(
                    slot_index=n,
                    time=t,
                    residuals={u: residual[u] for u in active},
                    virtual_laxities={u: deadline_of[u] - residual[u] for u in active},
                    least_laxity_user=None,
                    least_laxity_set=None,
                    decision=choice,
                )
            )

        if choice is not None:
            rate = rates[active.index(choice)]
            left = residual[choice] - rate * slot_length
            if left <= 0.0:
                residual[choice] = 0.0
                active.remove(choice)
                outcomes[choice] = UserOutcome(
                    choice, FlowStatus.COMPLETED, (n + 1) * slot_length
                )
            else:
                residual[choice] = left
        n += 1

    return SimReport(outcomes=outcomes, trace=trace)
