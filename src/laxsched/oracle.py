"""Offline schedulability decision for identical-deadline instances.

Feasibility over the polymatroid region is a linear program on the epoch
partition (between consecutive arrivals the active set is constant, and any
schedule can be averaged within an interval): allocate data y[i,k] to user i
in interval k so that every user's total equals its file size while, in
every interval, the m largest allocations stay below g_m times the interval
length. The LP maximizes the common demand scale t*, so t* >= 1 means
feasible and t* - 1 is a signed feasibility margin.

The exponential family of subset constraints is generated lazily: solve,
sort each interval's allocation, add the most violated prefix constraint,
repeat. The family is finite, so this terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

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

# 2^M subset certification is only affordable up to this many users.
CERTIFICATE_USER_LIMIT = 12


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
    margin: float  # t* - 1: signed headroom of the demand scale
    borderline: bool
    witness: tuple[dict[int, float], ...] | None
    certificate: InfeasibilityCertificate | None


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


def _find_certificate(problem: FeasibilityProblem) -> InfeasibilityCertificate | None:
    reqs = problem.requests
    best = None
    best_gap = 0.0
    for mask in range(1, 1 << len(reqs)):
        subset = [reqs[i] for i in range(len(reqs)) if mask >> i & 1]
        cap = subset_capacity([r.arrival_time for r in subset], problem.deadline, problem.gains)
        demand = sum(r.initial_size for r in subset)
        gap = demand - cap
        if gap > best_gap:
            best_gap = gap
            best = InfeasibilityCertificate(
                user_ids=tuple(r.user_id for r in subset),
                window=(min(r.arrival_time for r in subset), problem.deadline),
                demand=demand,
                capacity=cap,
            )
    return best


def feasible(
    problem: FeasibilityProblem,
    tol: float = 1e-9,
    margin_band: float = 1e-6,
    max_rounds: int = 500,
) -> FeasibilityResult:
    """Decide schedulability; return a replayable witness or a certificate.

    Instances with |margin| <= margin_band are flagged borderline: they sit
    too close to the capacity boundary for any finite slot length to resolve.
    """
    reqs = problem.requests
    n = len(reqs)
    deadline = problem.deadline
    g = problem.gains.gains
    lengths = [b - a for a, b in zip(problem.epochs, problem.epochs[1:])]
    n_iv = len(lengths)

    eligible = [
        [i for i, r in enumerate(reqs) if r.arrival_time <= problem.epochs[k]]
        for k in range(n_iv)
    ]
    var_index: dict[tuple[int, int], int] = {}
    for k in range(n_iv):
        for i in eligible[k]:
            var_index[(i, k)] = len(var_index)
    t_var = len(var_index)
    n_vars = t_var + 1

    c = np.zeros(n_vars)
    c[t_var] = -1.0  # maximize t

    a_eq = np.zeros((n, n_vars))
    for (i, k), v in var_index.items():
        a_eq[i, v] = 1.0
    for i, r in enumerate(reqs):
        a_eq[i, t_var] = -r.initial_size
    b_eq = np.zeros(n)

    bounds = [(0.0, None)] * n_vars
    for (i, k), v in var_index.items():
        bounds[v] = (0.0, g[1] * lengths[k])

    # start from the full-set constraint of every interval; tighter prefixes
    # are generated lazily
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()

    def add_constraint(k: int, users: tuple[int, ...]) -> bool:
        key = (k, users)
        if key in seen:
            return False
        seen.add(key)
        row = np.zeros(n_vars)
        for i in users:
            row[var_index[(i, k)]] = 1.0
        rows.append(row)
        rhs.append(g[len(users)] * lengths[k])
        return True

    for k in range(n_iv):
        if eligible[k]:
            add_constraint(k, tuple(eligible[k]))

    atol = tol * max(1.0, deadline)
    res = None
    for _ in range(max_rounds):
        res = linprog(
            c,
            A_ub=np.array(rows),
            b_ub=np.array(rhs),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
        )
        if not res.success:
            raise RuntimeError(f"feasibility LP failed: {res.message}")
        y = res.x
        added = False
        for k in range(n_iv):
            users = eligible[k]
            if len(users) < 2:
                continue
            ordered = sorted(users, key=lambda i: -y[var_index[(i, k)]])
            prefix = 0.0
            worst_excess = atol
            worst_m = None
            for m, i in enumerate(ordered, start=1):
                prefix += y[var_index[(i, k)]]
                excess = prefix - g[m] * lengths[k]
                if excess > worst_excess:
                    worst_excess = excess
                    worst_m = m
            if worst_m is not None:
                added |= add_constraint(k, tuple(sorted(ordered[:worst_m])))
        if not added:
            break
    else:
        raise RuntimeError("constraint generation did not converge")

    t_star = float(res.x[t_var])
    margin = t_star - 1.0
    is_feasible = margin >= -tol
    borderline = abs(margin) <= margin_band

    witness = None
    certificate = None
    if is_feasible:
        scale = (1.0 + 1e-9) / max(t_star, 1.0)  # pad so replay clamps to exactly 0
        witness = tuple(
            {
                reqs[i].user_id: float(res.x[var_index[(i, k)]]) * scale / lengths[k]
                for i in eligible[k]
            }
            for k in range(n_iv)
        )
    elif n <= CERTIFICATE_USER_LIMIT:
        certificate = _find_certificate(problem)

    return FeasibilityResult(is_feasible, margin, borderline, witness, certificate)


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
