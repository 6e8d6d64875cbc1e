"""Slotted simulation loops and the laxity-history analysis machinery.

Two modes, never mixed in one run: the fluid polymatroid mode (every active
user served simultaneously at its marginal gain) and the TDM mode (one user
per slot at its sampled instantaneous rate). A traced fluid run also tracks
the used-to-be-less-than relation, one ``UltTracker.step`` per slot, for the
least-laxity set and the laxity-order violations; ``least_laxity_floor`` and
``least_laxity_limit`` bound the least laxity from the set's initial ones.

The fluid mode has two loops with bit-identical outcomes, each the faster
one for its callers. ``run_fluid`` steps one run in plain Python and is the
only one that traces: tests, single-instance callers and every traced CLI
cell use it. ``run_fluid_batch`` steps many untraced runs in lockstep on
numpy arrays; the CLI sends it every untraced fluid cell. On a 2-vCPU Xeon
with numpy 2.4, one lane alone is 3-4x slower than ``run_fluid`` (1.0-1.3 s
against 0.31-0.34 s for 70 runs of 15 users), while 70 lanes in one call
take 0.05 s. Tracing stays one run at a time because a run's trace is about
2 MB: batching the 21 traced cells of a 15-user sweep would hold about 38 MB
of trace at once.

The TDM mode steps stretches of slots that end at the next admission, at
the first slot at or after the earliest active deadline or at a completion.
A lone active user is held without asking the policy (every built-in policy
chooses a lone user of finite laxity), a policy in ``policies.HELD`` is
asked once per stretch, and any other policy at every slot of it. Every
run draws its channel rates from its own generator, in blocks decoded by
``channel.sample_normalized_rates``: the same draws in the same order as one
draw per active user per slot, each decoded alone, so a seed gives the same
report whatever the block size.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .capacity import GainProfile
from .channel import ChannelModel, sample_normalized_rates
from .core import DownloadRequest, FlowStatus, first_slot_at_or_after, validate_requests
from .policies import HELD, _l2hpr_rates, _too_many_active
from .seeding import generator_from

__all__ = [
    "UltTracker",
    "TraceRecord",
    "UserOutcome",
    "SimReport",
    "least_laxity_floor",
    "least_laxity_limit",
    "run_fluid",
    "run_fluid_batch",
    "run_tdm",
]

class UltTracker:
    """Pairwise "used-to-be-less-than" history with its transitive closure.

    ult(a, b) is set once a's virtual laxity was <= b's at any slot boundary
    so far, and never cleared. iult is reachability through such pairs. The
    diagonal is always set (a laxity is <= itself). ``step`` is the only
    mutator; ``ult`` and ``iult`` read the relation.

    Layout: every user owns one bit, numbered in the order users were first
    seen. Three lists indexed by that bit position hold int masks: the users
    a holds ult towards (``_direct``), the users a reaches (``_down``, iult
    from a) and the users reaching b (``_up``, iult into b). A step sorts its
    laxities once and ORs each user's at-or-above suffix into its direct
    mask; the closure grows only by the newly set bits. A least-laxity set is
    one frozenset per distinct ``_up`` mask, cached.
    """

    __slots__ = ("_index", "_ids", "_direct", "_down", "_up", "_missing", "_sets")

    def __init__(self) -> None:
        self._index: dict[int, int] = {}  # user id -> bit position
        self._ids: list[int] = []  # bit position -> user id
        self._direct: list[int] = []
        self._down: list[int] = []
        self._up: list[int] = []
        # ordered pairs of distinct users not yet in the direct relation
        self._missing = 0
        self._sets: dict[int, frozenset[int]] = {}  # mask -> its user ids

    def step(
        self, virtual_laxities: Mapping[int, float], limit: float
    ) -> tuple[int, frozenset[int], list[tuple[int, int]]]:
        """One slot on one sort. Fold the laxities in (each user gains ult
        towards every user at or above its laxity, both ways on ties) and
        return the least-laxity user (smallest id on ties), the least-laxity
        set (every user reaching it) and the order violations: the pairs
        (a, b) with ult(a, b) and la - lb > limit, sorted.

        ``virtual_laxities`` must be nonempty and list every user seen so
        far, in the order first seen, before any new user; an arrival-
        ordered map of every arrived user does."""
        if not virtual_laxities:
            raise ValueError("step needs at least one user's laxity")
        uids = list(virtual_laxities)
        ids = self._ids
        seen = len(ids)
        if uids[:seen] != ids:
            raise ValueError("laxities must list the known users first, in first-seen order")
        for pos in range(seen, len(uids)):  # a new user: its own bit, set on the diagonal
            self._missing += 2 * pos
            self._index[uids[pos]] = pos
            ids.append(uids[pos])
            for masks in (self._direct, self._down, self._up):
                masks.append(1 << pos)
        ranked = sorted(zip(virtual_laxities.values(), uids, range(len(uids))))
        self._fold(ranked)
        return ranked[0][1], self._members(self._up[ranked[0][2]]), self._violations(ranked, limit)

    def ult(self, a: int, b: int) -> bool:
        return self._has(self._direct, a, b)

    def iult(self, a: int, b: int) -> bool:
        return self._has(self._down, a, b)

    def _has(self, masks: list[int], a: int, b: int) -> bool:
        pa, pb = self._index.get(a), self._index.get(b)
        return pa is not None and pb is not None and bool(masks[pa] >> pb & 1)

    def _members(self, mask: int) -> frozenset[int]:
        members = self._sets.get(mask)
        if members is None:
            ids = self._ids
            members = self._sets[mask] = frozenset(ids[p] for p in _bits(mask))
        return members

    def _fold(self, ranked: list[tuple[float, int, int]]) -> None:
        """Give every ranked user ult towards each ranked user at or above
        its laxity: every user except the tie groups strictly below it."""
        if not self._missing:  # every pair already holds both ways
            return
        direct = self._direct
        at_or_above = (1 << len(ranked)) - 1
        group = 0
        prev = None
        for lax, _, a in ranked:
            if lax != prev:
                at_or_above &= ~group
                group = 0
                prev = lax
            group |= 1 << a
            new = at_or_above & ~direct[a]
            if new:
                self._link(a, new)

    def _link(self, a: int, new: int) -> None:
        """Record ult(a, b) for every b in mask ``new`` (none set yet) and
        extend the closure by the newly reached bits only. The users reaching
        a are unchanged by edges out of a, so one pass over them suffices."""
        self._direct[a] |= new
        self._missing -= new.bit_count()
        down = self._down
        fresh = new & ~down[a]
        if not fresh:
            return
        reach = 0
        for b in _bits(fresh):
            reach |= down[b]
        up = self._up
        for p in _bits(up[a]):
            gained = reach & ~down[p]
            if gained:
                down[p] |= gained
                bit = 1 << p
                for q in _bits(gained):
                    up[q] |= bit

    def _violations(
        self, ranked: list[tuple[float, int, int]], limit: float
    ) -> list[tuple[int, int]]:
        """Pairs (a, b) with ult(a, b) and la - lb > limit among the ranked
        users, sorted by (a, b)."""
        n = len(ranked)
        if n < 2 or not ranked[-1][0] - ranked[0][0] > limit:
            return []  # no pair is further apart than the whole spread
        # ``below`` is a two-pointer window over the users more than limit
        # below a. It is widened by a slack far above rounding error, so no
        # pair can fall out of it, and each candidate is re-tested with the
        # exact expression.
        slack = 1e-12 * (abs(limit) + max(abs(ranked[0][0]), abs(ranked[-1][0])))
        shift = limit - slack
        direct = self._direct
        found = []
        below = 0
        j = 0
        lj = ranked[0][0]
        for la, a_uid, a in ranked:
            edge = la - shift
            while lj < edge:
                below |= 1 << ranked[j][2]
                j += 1
                lj = ranked[j][0] if j < n else math.inf
            candidates = direct[a] & below & ~(1 << a)
            if candidates:
                for lb, b_uid, b in ranked[:j]:
                    if candidates >> b & 1 and la - lb > limit:
                        found.append((a_uid, b_uid))
        found.sort()
        return found


def _bits(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    if not 0.0 < slot_length < math.inf:
        raise ValueError("slot_length must be finite and > 0")
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
            laxities = {uid: deadline - left / g1 for uid, left in residual.items()}
            star, lls, pairs = tracker.step(laxities, order_limit)
            if pairs:
                violations.extend((n, a, b) for a, b in pairs)
            trace.append(  # positional: keyword passing costs more than the record
                TraceRecord(n, t, dict(residual), laxities, star, lls, allocation)
            )

        if not active and next_req == len(pending):
            break

        for uid, rate in allocation.items():
            left = residual[uid] - rate * slot_length
            if left <= 0.0:  # completion is this exact-zero clamp, never an epsilon compare
                residual[uid] = 0.0
                active.remove(uid)
                outcomes[uid] = UserOutcome(uid, FlowStatus.COMPLETED, (n + 1) * slot_length)
            else:
                residual[uid] = left
        n += 1

    return SimReport(outcomes=outcomes, trace=trace, laxity_order_violations=violations)


def run_fluid_batch(
    runs: Sequence[tuple[Sequence[DownloadRequest], float]], gains: GainProfile
) -> list[SimReport]:
    """Many untraced fluid runs, given as (requests, slot_length) pairs,
    stepped in lockstep. The reports equal
    ``[run_fluid(requests, gains, dt) for requests, dt in runs]``, outcome
    for outcome and in the same order; a bad run raises the ValueError
    ``run_fluid`` would, that of the first bad run.

    Every run is a lane: a row of [lanes x users] arrays whose columns are
    its users in ascending id, all on one shared slot index n. Each slot
    repeats run_fluid's float operations in its order, so every outcome is
    bit-identical: t = n*dt, the ranking by (D - t) - r/g1 with a stable
    sort (a tie goes to the smaller id, as in ``_l2hpr_rates``), and
    r - rate*dt clamped to exactly 0 at completion.
    """
    errors: dict[int, ValueError] = {}  # lane -> the error run_fluid raises
    lanes: list[list[DownloadRequest]] = []
    slot_lengths: list[float] = []
    events = []  # (admission slot, lane, column)
    for lane, (requests, dt) in enumerate(runs):
        try:
            if not 0.0 < dt < math.inf:
                raise ValueError("slot_length must be finite and > 0")
            if requests:
                validate_requests(requests, same_deadline=True)
            users = sorted(requests, key=lambda r: r.user_id)
            admits = [first_slot_at_or_after(r.arrival_time, dt) for r in users]
        except ValueError as exc:
            errors[lane], users, admits = exc, [], []
        lanes.append(users)
        slot_lengths.append(dt)
        events += [(n, lane, col) for col, n in enumerate(admits)]
    events.sort()
    ev_slot = [n for n, _, _ in events]
    ev_lane = np.array([lane for _, lane, _ in events], dtype=np.intp)
    ev_col = np.array([col for _, _, col in events], dtype=np.intp)

    n_lanes, width = len(lanes), max(map(len, lanes), default=0)
    residual = np.zeros((n_lanes, width))
    for lane, users in enumerate(lanes):
        residual[lane, : len(users)] = [r.initial_size for r in users]
    deadline = np.array([users[0].deadline if users else 0.0 for users in lanes])
    dt = np.array(slot_lengths, dtype=float)
    dt_col, deadline_col = dt[:, None], deadline[:, None]
    k_max, g1 = gains.k_max, gains.gains[1]
    marginal = np.zeros(max(width, k_max))  # rank -> rate; ranks past k_max idle
    marginal[:k_max] = gains.marginal_gains
    columns = np.tile(np.arange(width), (n_lanes, 1))
    row_start = np.arange(n_lanes)[:, None] * width
    alive = np.ones(n_lanes, dtype=bool)  # cleared when a lane exceeds k_max
    active = np.zeros((n_lanes, width), dtype=bool)
    completed = np.zeros((n_lanes, width), dtype=bool)
    end_slot = np.zeros((n_lanes, width), dtype=np.int64)
    end_rank = np.zeros((n_lanes, width), dtype=np.int64)  # order within a slot
    rank = np.empty((n_lanes, width), dtype=np.intp)
    rank_cells = rank.reshape(-1)  # a view: writing here writes rank

    n = next_event = 0
    while next_event < len(events) or active.any():
        t = n * dt
        stop = bisect_right(ev_slot, n, next_event)
        admitted = stop > next_event
        if admitted:
            rows = ev_lane[next_event:stop]
            active[rows, ev_col[next_event:stop]] = alive[rows]
            next_event = stop
        expired = active & (t >= deadline)[:, None]
        if expired.any():  # the end_rank of 0 keeps them in id order
            active &= ~expired
            end_slot[expired] = n
        if admitted:  # only an admission can raise the active count
            count = active.sum(axis=1)
            for lane in np.flatnonzero(count > k_max).tolist():
                errors[lane] = _too_many_active(int(count[lane]), gains)
                alive[lane] = active[lane] = False

        laxity = np.where(active, (deadline_col - t[:, None]) - residual / g1, np.inf)
        order = np.argsort(laxity, axis=1, kind="stable")
        rank_cells[order + row_start] = columns
        left = residual - marginal[rank] * dt_col
        done = active & (left <= 0.0)
        np.copyto(residual, left, where=active)
        if done.any():
            active &= ~done
            completed |= done
            end_slot[done] = n
            end_rank[done] = rank[done]
        n += 1

    if errors:
        raise errors[min(errors)]
    reports = []
    for lane, users in enumerate(lanes):
        k = len(users)
        slots = end_slot[lane, :k]
        times = ((slots + 1) * dt[lane]).tolist()
        done = completed[lane, :k].tolist()
        outcomes = {}
        for col in np.lexsort((end_rank[lane, :k], slots)).tolist():
            uid = users[col].user_id
            outcomes[uid] = (
                UserOutcome(uid, FlowStatus.COMPLETED, times[col])
                if done[col]
                else UserOutcome(uid, FlowStatus.EXPIRED, None)
            )
        reports.append(SimReport(outcomes=outcomes))
    return reports


_RATE_BLOCK = 4096  # channel draws per refill of run_tdm's rate buffer


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
    chosen flow. Slots run in stretches that end at the next admission, the
    earliest active deadline's slot or a completion. A lone active user is
    served without asking the policy, and a policy named in
    ``policies.HELD`` is asked once per stretch; any other policy is asked
    at every slot. Fixed seed gives a bit-identical report.
    """
    if not 0.0 < slot_length < math.inf:
        raise ValueError("slot_length must be finite and > 0")
    validate_requests(requests)
    ordered = sorted(requests, key=lambda r: (r.arrival_time, r.user_id))
    outcomes: dict[int, UserOutcome] = {}
    trace: list[TraceRecord] | None = [] if record_trace else None
    if not ordered:
        return SimReport(outcomes=outcomes, trace=trace)

    admit_slot = [first_slot_at_or_after(r.arrival_time, slot_length) for r in ordered]
    admit_slot.append(math.inf)  # no admission after the last request
    held = policy.name in HELD
    rng = generator_from(seed)

    def next_block() -> list[float]:
        return sample_normalized_rates(channel, rng, _RATE_BLOCK).tolist()

    select = policy.select_arrays

    buf: list[float] = []  # drawn rates; buf[pos] is the next one
    pos = 0
    # the active users' ids, deadlines and residuals, ascending id
    active: list[int] = []
    dls: list[float] = []
    res: list[float] = []
    # next_expiry is the earliest active deadline; expiry_slot its slot
    next_expiry = expiry_slot = math.inf
    n_requests = len(ordered)
    next_req = 0
    next_admit = admit_slot[0]
    n = 0
    while True:
        if n >= next_admit:
            while admit_slot[next_req] <= n:
                req = ordered[next_req]
                i = bisect_left(active, req.user_id)
                active.insert(i, req.user_id)
                dls.insert(i, req.deadline)
                res.insert(i, req.initial_size)
                if req.deadline < next_expiry:
                    next_expiry = req.deadline
                    expiry_slot = first_slot_at_or_after(next_expiry, slot_length)
                next_req += 1
            next_admit = admit_slot[next_req]
        t = n * slot_length
        if t >= next_expiry:
            kept = []
            for i, u in enumerate(active):
                if t >= dls[i]:
                    outcomes[u] = UserOutcome(u, FlowStatus.EXPIRED, None)
                else:
                    kept.append(i)
            active = [active[i] for i in kept]
            dls = [dls[i] for i in kept]
            res = [res[i] for i in kept]
            next_expiry = min(dls, default=math.inf)
            expiry_slot = _slot_of(next_expiry, slot_length)

        k = len(active)
        if k == 0:
            if next_req == n_requests:
                break
            n = next_admit  # idle until the next admission
            continue

        stop = min(next_admit, expiry_slot)
        if k == 1 or held:
            # hold one choice to the end of the stretch
            i = 0
            if k > 1:
                while pos + k > len(buf):
                    buf, pos = buf[pos:] + next_block(), 0
                laxities = [d - t - r for d, r in zip(dls, res)]
                choice = select(active, laxities, buf[pos : pos + k], dls)
                try:
                    i = active.index(choice)
                except ValueError:
                    raise _not_active(policy, choice, n) from None
            u, left = active[i], res[i]
            p, last = pos + i, len(buf) - k + i  # the served draw; a slot fits while p <= last
            while True:
                while p > last:
                    buf, p = buf[p - i :] + next_block(), i
                    last = len(buf) - k + i
                rate = buf[p]
                p += k
                if record_trace:
                    res[i] = left
                    residuals = dict(zip(active, res))
                    virtual = {v: d - r for v, d, r in zip(active, dls, res)}
                    trace.append(TraceRecord(n, n * slot_length, residuals, virtual, None, None, u))
                left = left - rate * slot_length
                n += 1
                if left <= 0.0 or n == stop:
                    break
            pos = p - i
            if left > 0.0:
                res[i] = left
        else:
            # ask the policy at every slot of the stretch
            left = math.inf
            last = len(buf) - k  # a slot's rates fit while pos <= last
            while True:
                while pos > last:
                    buf, pos = buf[pos:] + next_block(), 0
                    last = len(buf) - k
                rates = buf[pos : pos + k]
                pos += k
                laxities = [d - t - r for d, r in zip(dls, res)]
                choice = select(active, laxities, rates, dls)
                try:
                    i = active.index(choice)
                except ValueError:
                    if choice is not None:
                        raise _not_active(policy, choice, n) from None
                if record_trace:
                    virtual = {v: d - r for v, d, r in zip(active, dls, res)}
                    trace.append(TraceRecord(n, t, dict(zip(active, res)), virtual, None, None, choice))
                n += 1
                if choice is not None:
                    left = res[i] - rates[i] * slot_length
                    if left <= 0.0:
                        break
                    res[i] = left
                if n == stop:
                    break
                t = n * slot_length

        if left <= 0.0:  # the stretch ended at the completion of active[i]
            u = active.pop(i)
            d = dls.pop(i)
            del res[i]
            outcomes[u] = UserOutcome(u, FlowStatus.COMPLETED, n * slot_length)
            if d == next_expiry:  # u held the earliest deadline
                next_expiry = min(dls, default=math.inf)
                expiry_slot = _slot_of(next_expiry, slot_length)

    return SimReport(outcomes=outcomes, trace=trace)


def _slot_of(expiry: float, slot_length: float) -> float:
    """The first slot at or after an expiry time; inf for no expiry."""
    return math.inf if expiry == math.inf else first_slot_at_or_after(expiry, slot_length)


def _not_active(policy, choice, n: int) -> ValueError:
    """The error of a TDM policy choosing a user that is not active."""
    return ValueError(f"policy {policy.name!r} chose inactive user {choice!r} at slot {n}")
