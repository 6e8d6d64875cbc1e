"""Offline schedulability decision for identical-deadline instances.

With a common deadline D a user set S can receive at most
f(S) = sum_j (g_j - g_{j-1}) (D - a_(j)) by D, a_(1) <= a_(2) <= ... its
members' arrival times. f is the rank of a polymatroid (the time integral of
the per-instant symmetric ones), so the instance is schedulable iff
rho = min over S of f(S)/F(S) >= 1, F(S) the set's total file size
(Fujishige, Submodular Functions and Optimization); rho - 1 is the margin.

max over S of t*F(S) - f(S) is an O(M^2) dynamic program over the users in
arrival order whose state is how many members were taken. Dinkelbach
iterations t <- f(S)/F(S) on it reach rho in a few steps; at t = 1 it gives
the most overloaded set, the certificate of an infeasible instance.

Under a common deadline the continuous-time limit of L2HPR is an optimal
schedule, so it is the witness of a feasible instance, computed exactly by
an event loop of O(M) events at O(M) each. It is built when a caller first reads
``FeasibilityResult.witness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .capacity import GainProfile
from .core import DownloadRequest, validate_requests

__all__ = [
    "FeasibilityProblem",
    "FeasibilityResult",
    "InfeasibilityCertificate",
    "feasible",
    "replay_witness",
    "witness_text",
    "subset_capacity",
]

_TOL = 1e-9  # a margin down to -_TOL still reads feasible
_MARGIN_BAND = 1e-6  # |margin| at or below this is flagged borderline


@dataclass(frozen=True)
class FeasibilityProblem:
    """Identical-deadline instance: at least one request, distinct user ids,
    one deadline, and no more users than the gain profile has gains for."""

    requests: tuple[DownloadRequest, ...]
    gains: GainProfile

    @classmethod
    def from_requests(
        cls, requests: Sequence[DownloadRequest], gains: GainProfile
    ) -> "FeasibilityProblem":
        return cls(tuple(sorted(requests, key=lambda r: r.user_id)), gains)

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("need at least one request")
        validate_requests(self.requests, same_deadline=True)
        if len(self.requests) > self.gains.k_max:
            raise ValueError(
                f"{len(self.requests)} users exceed gain profile k_max={self.gains.k_max}"
            )

    @property
    def deadline(self) -> float:
        return self.requests[0].deadline

    @cached_property
    def epochs(self) -> tuple[float, ...]:
        """The epoch partition: the distinct arrival times and the deadline,
        ascending."""
        return tuple(sorted({r.arrival_time for r in self.requests} | {self.deadline}))


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """A user set whose total demand exceeds the capacity available to it
    between its first arrival and the deadline."""

    user_ids: tuple[int, ...]
    window: tuple[float, float]
    demand: float
    capacity: float

    def as_text(self) -> str:
        ids = ",".join(map(str, self.user_ids))
        return (
            f"users {{{ids}}} demand {self.demand:.12g} over window "
            f"[{self.window[0]:.12g}, {self.window[1]:.12g}] "
            f"but only {self.capacity:.12g} is achievable"
        )


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    margin: float  # rho - 1: signed headroom of the demand scale
    borderline: bool
    certificate: InfeasibilityCertificate | None
    problem: FeasibilityProblem = field(repr=False, compare=False)

    @cached_property
    def witness(self) -> tuple[dict[int, float], ...] | None:
        """Per-interval average rates of the L2HPR schedule, which finishes
        every file (see ``_witness``), or None for an infeasible instance.

        Built on first read and cached, so a verdict alone does not pay for it.
        """
        return _witness(self.problem, 1.0 + self.margin) if self.feasible else None


def subset_capacity(
    arrival_times: Sequence[float], deadline: float, gains: GainProfile
) -> float:
    """Data deliverable to a user set by the deadline: integral of g over the
    number of set members arrived so far."""
    times = sorted(arrival_times)
    g = gains.gains
    total = 0.0
    for j in range(1, len(times)):
        total += g[j] * (times[j] - times[j - 1])
    total += g[len(times)] * (deadline - times[-1])
    return total


def _most_overloaded(sizes: np.ndarray, cost: np.ndarray, t: float) -> list[int]:
    """A nonempty set S maximising t*F(S) - f(S), as ascending positions.

    Users are in arrival order; taking user i as the (j+1)-th member of S adds
    t*sizes[i] to the first term and cost[i, j] = (g_{j+1} - g_j)(D - a_i)
    to the second.
    """
    n = len(sizes)
    best = np.full(n + 1, -np.inf)  # best[j]: j members taken so far
    best[0] = 0.0
    took = np.zeros((n, n), dtype=bool)  # took[i, j]: user i became member j+1
    for i, row in enumerate(t * sizes[:, None] - cost):
        cand = best[:-1] + row
        took[i] = cand > best[1:]
        np.maximum(best[1:], cand, out=best[1:])
    j = int(np.argmax(best[1:])) + 1
    members = []
    for i in range(n - 1, -1, -1):
        if j and took[i, j - 1]:
            members.append(i)
            j -= 1
    return members[::-1]


def feasible(problem: FeasibilityProblem) -> FeasibilityResult:
    """Decide schedulability; a feasible verdict builds its replayable
    witness when first read, an infeasible one carries a certificate.

    Instances with |margin| <= _MARGIN_BAND are flagged borderline: they sit
    too close to the capacity boundary for any finite slot length to resolve.
    """
    reqs = sorted(problem.requests, key=lambda r: r.arrival_time)
    deadline = problem.deadline
    sizes = np.array([r.initial_size for r in reqs])
    cost = np.multiply.outer(
        [deadline - r.arrival_time for r in reqs], np.diff(problem.gains.gains)[: len(reqs)]
    )

    def capacity_and_demand(members: list[int]) -> tuple[float, float]:
        chosen = [reqs[i] for i in members]
        cap = subset_capacity([r.arrival_time for r in chosen], deadline, problem.gains)
        return cap, sum(r.initial_size for r in chosen)

    # Dinkelbach from the full set: each step strictly lowers rho until no
    # set has a smaller ratio
    rho, members = math.inf, list(range(len(reqs)))
    while True:
        cap, demand = capacity_and_demand(members)
        if not cap / demand < rho:
            break
        rho = cap / demand
        members = _most_overloaded(sizes, cost, rho)

    margin = rho - 1.0
    is_feasible = margin >= -_TOL
    certificate = None
    if not is_feasible:
        members = _most_overloaded(sizes, cost, 1.0)
        cap, demand = capacity_and_demand(members)
        certificate = InfeasibilityCertificate(
            user_ids=tuple(sorted(reqs[i].user_id for i in members)),
            window=(reqs[members[0]].arrival_time, deadline),
            demand=demand,
            capacity=cap,
        )
    return FeasibilityResult(
        is_feasible, margin, abs(margin) <= _MARGIN_BAND, certificate, problem
    )


def _l2hpr_limit(
    arrivals: Sequence[float], sizes: Sequence[float], gains: Sequence[float]
) -> tuple[list[list[float]], list[float]]:
    """The continuous-time limit of L2HPR under one common deadline, exactly.

    Users rank by residual, largest first, and a group of m tied users at
    ranks j+1..j+m gets (g_{j+m} - g_j)/m each, so tied users stay tied: the
    level algorithm of Horvath, Lam and Sethi (J. ACM 24(1), 1977) with the
    marginal gains as processor speeds. Between events every rate is
    constant; the events are an arrival, the merge of two adjacent groups
    and the completion of the bottom group.

    Returns every user's residual at each distinct arrival time (a user yet
    to arrive holds its size) and every user's completion time. Residuals
    never rise: a merge keeps the lower level, and a level stops at 0.
    """
    pending = sorted(range(len(sizes)), key=lambda i: arrivals[i], reverse=True)
    left, done = list(sizes), [math.inf] * len(sizes)
    snapshots: list[list[float]] = []
    groups: list[list] = []  # [level, members], levels nonincreasing
    t = 0.0
    while pending or groups:
        rates, j = [], 0
        for _, members in groups:
            rates.append((gains[j + len(members)] - gains[j]) / len(members))
            j += len(members)
        # event k: group k meets the group below, the bottom one meeting
        # level 0 at rate 0 (completion); event -1: the next arrival
        levels = [level for level, _ in groups] + [0.0]
        rates.append(0.0)
        events = [
            ((levels[k] - levels[k + 1]) / (rates[k] - rates[k + 1]), k) for k in range(len(groups))
        ]
        if pending:
            events.append((arrivals[pending[-1]] - t, -1))
        dt, event = min(events)
        dt = max(dt, 0.0)
        for group, rate in zip(groups, rates):
            group[0] = max(group[0] - rate * dt, 0.0)
        t = arrivals[pending[-1]] if event < 0 else t + dt
        if event < 0:
            for level, members in groups:
                for i in members:
                    left[i] = level
            snapshots.append(list(left))
            while pending and arrivals[pending[-1]] == t:
                # a newcomer tied with a group meets it at once, at dt = 0
                i = pending.pop()
                k = next((k for k, grp in enumerate(groups) if grp[0] <= sizes[i]), len(groups))
                groups.insert(k, [sizes[i], [i]])
        elif event == len(groups) - 1:
            for i in groups.pop()[1]:
                left[i], done[i] = 0.0, t
        else:
            lower = groups.pop(event + 1)
            groups[event][0] = min(groups[event][0], lower[0])
            groups[event][1].extend(lower[1])
    return snapshots, done


def _witness(problem: FeasibilityProblem, rho: float) -> tuple[dict[int, float], ...]:
    """Per-interval rates that finish every file: the average rates of the
    L2HPR limit over the epoch partition, keyed by the users arrived by each
    interval's start.

    The limit runs on sizes scaled by s = min(1, rho), so it ends by the
    deadline even for a verdict accepted with rho just below 1, and the rates
    are scaled by (1 + 1e-9)/s, so replay delivers every file with a little
    to spare. Averages of rate vectors in the region stay in the region.
    """
    reqs, epochs = problem.requests, problem.epochs
    s = min(1.0, rho)
    snapshots, _ = _l2hpr_limit(
        [r.arrival_time for r in reqs], [s * r.initial_size for r in reqs], problem.gains.gains
    )
    snapshots.append([0.0] * len(reqs))  # every file is done by the deadline
    scale = (1.0 + 1e-9) / s
    return tuple(
        {
            r.user_id: (before[i] - after[i]) * scale / (end - start)
            for i, r in enumerate(reqs)
            if r.arrival_time <= start
        }
        for start, end, before, after in zip(epochs, epochs[1:], snapshots, snapshots[1:])
    )


def witness_text(
    problem: FeasibilityProblem, witness: Sequence[dict[int, float]]
) -> str:
    """Plain-text dump of a per-interval witness allocation for debugging."""
    lines = []
    for k, rates in enumerate(witness):
        start, end = problem.epochs[k], problem.epochs[k + 1]
        lines.append(f"interval {k} [{start:.12g}, {end:.12g}):")
        lines.extend(f"  user {uid}: rate {rates[uid]:.12g}" for uid in sorted(rates))
    return "\n".join(lines) + "\n"


def replay_witness(
    problem: FeasibilityProblem, witness: Sequence[dict[int, float]]
) -> bool:
    """Drive the per-interval witness rates through the residual-size
    recursion; true iff every user finishes by the deadline."""
    residual = {r.user_id: r.initial_size for r in problem.requests}
    arrival = {r.user_id: r.arrival_time for r in problem.requests}
    for k, rates in enumerate(witness):
        start, end = problem.epochs[k], problem.epochs[k + 1]
        for uid, rate in rates.items():
            if rate < 0.0 or arrival[uid] > start:
                return False
            residual[uid] = max(0.0, residual[uid] - rate * (end - start))
    return all(v == 0.0 for v in residual.values())
