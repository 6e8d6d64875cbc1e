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
the most overloaded set, the certificate of an infeasible instance. Only the
witness of a feasible instance needs a linear program, and only it imports
scipy; it is built when a caller first reads ``FeasibilityResult.witness``,
so a verdict alone never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .capacity import GainProfile
from .channel import ChannelModel
from .core import DownloadRequest, common_deadline, validate_requests
from .engine import run_fluid, run_tdm
from .seeding import child_seed, generator_from
from .traffic import FileSizeLaw, IdenticalDeadlineSpec, gen_identical_deadline

__all__ = [
    "FeasibilityProblem",
    "FeasibilityResult",
    "InfeasibilityCertificate",
    "feasible",
    "replay_witness",
    "witness_text",
    "subset_capacity",
    "FrontierPoint",
    "schedulability_frontier",
]


@dataclass(frozen=True)
class FeasibilityProblem:
    """Identical-deadline instance plus its epoch partition."""

    requests: tuple[DownloadRequest, ...]
    gains: GainProfile
    epochs: tuple[float, ...]

    @classmethod
    def from_requests(
        cls, requests: Sequence[DownloadRequest], gains: GainProfile
    ) -> "FeasibilityProblem":
        reqs = tuple(sorted(requests, key=lambda r: r.user_id))
        if not reqs:
            raise ValueError("need at least one request")
        validate_requests(reqs, same_deadline=True)
        deadline = reqs[0].deadline
        if len(reqs) > gains.k_max:
            raise ValueError(
                f"{len(reqs)} users exceed gain profile k_max={gains.k_max}"
            )
        epochs = tuple(sorted({r.arrival_time for r in reqs} | {deadline}))
        return cls(reqs, gains, epochs)

    def __post_init__(self) -> None:
        for a, b in zip(self.epochs, self.epochs[1:]):
            if not b > a:
                raise ValueError("epochs must be strictly increasing")
        if self.requests:
            deadline = common_deadline(self.requests)
            if self.epochs[-1] != deadline:
                raise ValueError("last epoch must equal the common deadline")

    @property
    def deadline(self) -> float:
        return self.epochs[-1]


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
        """Per-interval rates that finish every file (see ``_witness``), or
        None for an infeasible instance.

        Built from the witness LP on first read and cached, so an LP failure
        surfaces here as RuntimeError, not in ``feasible``.
        """
        return _witness(self.problem) if self.feasible else None


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


def feasible(
    problem: FeasibilityProblem,
    tol: float = 1e-9,
    margin_band: float = 1e-6,
) -> FeasibilityResult:
    """Decide schedulability; a feasible verdict builds its replayable
    witness when first read, an infeasible one carries a certificate.

    Instances with |margin| <= margin_band are flagged borderline: they sit
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
    is_feasible = margin >= -tol
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
        is_feasible, margin, abs(margin) <= margin_band, certificate, problem
    )


def _witness(problem: FeasibilityProblem) -> tuple[dict[int, float], ...]:
    """Per-interval rates that finish every file, from the LP that maximises
    the common demand scale t over the epoch partition.

    y[i,k] is the data user i gets in interval k of length l_k, from users
    arrived by its start. The m largest y[.,k] must sum to at most g_m*l_k;
    for 1 < m < n_k that is m*lam + sum_i u_i <= g_m*l_k with u_i >= y[i,k] -
    lam, u_i >= 0 and lam free (Ogryczak and Tamir, 2003). Rates are scaled
    by (1 + 1e-9)/t*, so replay delivers every file with a little to spare.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    reqs, g = problem.requests, problem.gains.gains
    bounds: list[tuple[float | None, float | None]] = [(0.0, None)]  # column 0: t
    ub: list[tuple[int, int, float]] = []  # (row, column, value) entries of A_ub
    b_ub: list[float] = []
    eq = [(i, 0, -r.initial_size) for i, r in enumerate(reqs)]
    intervals = []  # (length, [(request index, column of y)])

    def columns(n: int, low: float | None, high: float | None = None) -> range:
        bounds.extend([(low, high)] * n)
        return range(len(bounds) - n, len(bounds))

    for start, end in zip(problem.epochs, problem.epochs[1:]):
        length = end - start
        eligible = [i for i, r in enumerate(reqs) if r.arrival_time <= start]
        ys = columns(len(eligible), 0.0, g[1] * length)
        intervals.append((length, list(zip(eligible, ys))))
        eq += [(i, y, 1.0) for i, y in zip(eligible, ys)]
        ub += [(len(b_ub), y, 1.0) for y in ys]
        b_ub.append(g[len(ys)] * length)
        for m in range(2, len(ys)):
            lam = columns(1, None)[0]
            excess = columns(len(ys), 0.0)
            ub += [(len(b_ub), lam, float(m))] + [(len(b_ub), u, 1.0) for u in excess]
            b_ub.append(g[m] * length)
            for y, u in zip(ys, excess):
                ub += [(len(b_ub), y, 1.0), (len(b_ub), lam, -1.0), (len(b_ub), u, -1.0)]
                b_ub.append(0.0)

    def matrix(entries: list[tuple[int, int, float]], n_rows: int):
        rows, cols, values = zip(*entries)
        return coo_matrix((values, (rows, cols)), shape=(n_rows, len(bounds))).tocsr()

    c = np.zeros(len(bounds))
    c[0] = -1.0  # maximize t
    res = linprog(
        c,
        A_ub=matrix(ub, len(b_ub)),
        b_ub=b_ub,
        A_eq=matrix(eq, len(reqs)),
        b_eq=np.zeros(len(reqs)),
        bounds=bounds,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"witness LP failed: {res.message}")
    scale = (1.0 + 1e-9) / float(res.x[0])
    return tuple(
        {reqs[i].user_id: float(res.x[y]) * scale / length for i, y in users}
        for length, users in intervals
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


@dataclass(frozen=True)
class FrontierPoint:
    deadline: float
    seed: int
    oracle_feasible: bool
    oracle_borderline: bool
    margin: float
    policy_schedulable: dict[str, bool]


def schedulability_frontier(
    spec: IdenticalDeadlineSpec,
    law: FileSizeLaw,
    gains: GainProfile,
    deadlines: Sequence[float],
    seeds: Sequence[int],
    slot_length_frac: float = 1e-3,
    tdm_policies: Sequence = (),
    channel: ChannelModel | None = None,
) -> list[FrontierPoint]:
    """Oracle feasibility and per-policy completion across a deadline sweep.

    Each seed reuses its file sizes across the sweep (arrival times scale
    with a*D), so the feasible count is non-decreasing in the deadline.
    """
    if tdm_policies and channel is None:
        raise ValueError("TDM policies need a channel model")
    points = []
    for d in deadlines:
        spec_d = replace(spec, deadline=d)
        for seed in seeds:
            requests = gen_identical_deadline(spec_d, law, generator_from(seed))
            verdict = feasible(FeasibilityProblem.from_requests(requests, gains))
            sched: dict[str, bool] = {}
            report = run_fluid(requests, gains, slot_length=slot_length_frac * d)
            sched["l2hpr"] = report.schedulable
            for idx, policy in enumerate(tdm_policies):
                rep = run_tdm(
                    requests,
                    channel,
                    policy,
                    slot_length=slot_length_frac * d,
                    seed=child_seed(seed, 1000 + idx),
                )
                sched[policy.name] = rep.schedulable
            points.append(
                FrontierPoint(
                    deadline=d,
                    seed=seed,
                    oracle_feasible=verdict.feasible,
                    oracle_borderline=verdict.borderline,
                    margin=verdict.margin,
                    policy_schedulable=sched,
                )
            )
    return points
