"""Independent oracles used to verify the library: quadrature gain values,
brute-force region/subset checks, and an exhaustive grid allocation search.

Everything here is computed by a different route than the implementation
under test (closed forms, quadrature, or exhaustive enumeration), except
one bit-for-bit reference kept from earlier code: ``reference_run_tdm``,
the TDM slot loop as it was before the lone-user stretch and the rate
buffer, for ``engine.run_tdm``. It decodes each slot's draws with
``np.log1p`` on their own, so it agrees with the engine's block decode only
while a block of draws decodes to the bits of its draws one slot at a time.
The ``urgency_*`` functions are the three framework urgencies written from
their definitions, the reference that ``policies.FrameworkPolicy``'s inline
weights are tested against.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
from bisect import insort
from typing import Sequence

import numpy as np
from scipy import integrate, special

import laxsched
from laxsched.channel import ChannelModel
from laxsched.core import DownloadRequest, FlowStatus, first_slot_at_or_after, validate_requests
from laxsched.engine import SimReport, TraceRecord, UserOutcome
from laxsched.seeding import generator_from

_LN2 = math.log(2.0)


def gain_quadrature(k: int) -> float:
    """E[ln(1 + max of k Exp(1))] / E[ln(1 + Exp(1))] by adaptive quadrature."""
    c1 = math.e * special.exp1(1.0)
    if k == 1:
        return 1.0
    val, _ = integrate.quad(
        lambda x: math.log1p(x) * k * math.exp(-x) * (1.0 - math.exp(-x)) ** (k - 1),
        0.0,
        np.inf,
        limit=200,
    )
    return val / c1


def spectral_efficiency_closed(mean_sinr: float) -> float:
    """Closed form e^(1/s) * E1(1/s) / ln 2 for exponential SINR of mean s."""
    inv = 1.0 / mean_sinr
    return math.exp(inv) * special.exp1(inv) / math.log(2.0)


def spectral_efficiency_quadrature(mean_sinr: float) -> float:
    """E[log2(1 + g)], g ~ exponential(mean_sinr), by adaptive quadrature at
    a relative tolerance of 1e-13."""
    val, _ = integrate.quad(
        lambda u: math.log1p(mean_sinr * u) * math.exp(-u),
        0.0,
        np.inf,
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    return val / math.log(2.0)


def quadrature_gain_profile(k_max: int):
    """Quadrature-derived gain tuple g_0..g_K (strict concavity holds exactly)."""
    return (0.0, 1.0, *(gain_quadrature(k) for k in range(2, k_max + 1)))


def brute_force_in_region(gains: tuple[float, ...], rates, atol: float = 1e-12) -> bool:
    """Membership by checking every one of the 2^k subset constraints."""
    rates = list(rates)
    if any(r < 0.0 or r > 1.0 + atol for r in rates):
        return False
    idx = range(len(rates))
    for size in range(1, len(rates) + 1):
        for subset in itertools.combinations(idx, size):
            if sum(rates[i] for i in subset) > gains[size] + atol:
                return False
    return True


def subset_capacity_independent(arrivals, deadline: float, gains) -> float:
    """Deliverable data for a user set: integral of g over #arrived members."""
    times = sorted(arrivals)
    total = 0.0
    for j in range(1, len(times)):
        total += gains[j] * (times[j] - times[j - 1])
    total += gains[len(times)] * (deadline - times[-1])
    return total


def _subsets(requests):
    """Every nonempty user subset as a list of requests, over all 2^M masks."""
    n = len(requests)
    for mask in range(1, 1 << n):
        yield [requests[i] for i in range(n) if mask >> i & 1]


def subset_feasible(requests, gains: tuple[float, ...], slack: float = 0.0) -> bool:
    """Necessary condition checked exhaustively: every user subset's demand
    fits the capacity available between its first arrival and the deadline."""
    deadline = requests[0].deadline
    for subset in _subsets(requests):
        demand = sum(r.initial_size for r in subset)
        cap = subset_capacity_independent(
            [r.arrival_time for r in subset], deadline, gains
        )
        if demand > cap + slack:
            return False
    return True


def brute_force_rho(requests, gains) -> float:
    """min over nonempty sets S of f(S)/F(S), enumerated over 2^M subsets."""
    deadline = requests[0].deadline
    return min(
        subset_capacity_independent([r.arrival_time for r in s], deadline, gains)
        / sum(r.initial_size for r in s)
        for s in _subsets(requests)
    )


def brute_force_max_gap(requests, gains) -> float:
    """max over nonempty sets S of F(S) - f(S), enumerated over 2^M subsets."""
    deadline = requests[0].deadline
    return max(
        sum(r.initial_size for r in s)
        - subset_capacity_independent([r.arrival_time for r in s], deadline, gains)
        for s in _subsets(requests)
    )


def witness_region_problems(requests, epochs, witness, gains, tol: float) -> list[str]:
    """Everything wrong with a per-interval rate witness: it must serve only
    users that have arrived by an interval's start, keep every rate
    nonnegative and the m largest rates within g_m, and deliver every file.
    tol is an allowance in data units (rate times interval length)."""
    arrival = {r.user_id: r.arrival_time for r in requests}
    delivered = dict.fromkeys(arrival, 0.0)
    problems = []
    if len(witness) != len(epochs) - 1:
        return [f"{len(witness)} intervals for {len(epochs)} epochs"]
    for k, rates in enumerate(witness):
        length = epochs[k + 1] - epochs[k]
        for uid, rate in rates.items():
            if rate < 0.0 or (rate > 0.0 and arrival[uid] > epochs[k]):
                problems.append(f"interval {k}: user {uid} has rate {rate!r}")
            delivered[uid] += rate * length
        ordered = sorted(rates.values(), reverse=True)
        for m in range(1, len(ordered) + 1):
            if (sum(ordered[:m]) - gains[m]) * length > tol:
                problems.append(f"interval {k}: {m} largest rates exceed g_{m}")
    problems += [
        f"user {r.user_id} gets {delivered[r.user_id]!r} of {r.initial_size!r}"
        for r in requests
        if delivered[r.user_id] < r.initial_size - tol
    ]
    return problems


def _grid_vectors(n_users: int, gains: tuple[float, ...], q: int):
    """All region-feasible rate vectors with entries on the grid {0, 1/q, .., 1}."""
    values = [j / q for j in range(q + 1)]
    out = []
    for vec in itertools.product(values, repeat=n_users):
        if brute_force_in_region(gains, vec):
            out.append(vec)
    return out


def single_interval_completable(
    residuals, length: float, gains: tuple[float, ...], atol: float = 1e-9
) -> bool:
    """Exact test: constant rates residual/length must lie in the region."""
    active = sorted((r for r in residuals if r > atol), reverse=True)
    if not active:
        return True
    if len(active) > len(gains) - 1:
        return False
    prefix = 0.0
    for m, r in enumerate(active, start=1):
        if r > gains[1] * length + atol:
            return False
        prefix += r
        if prefix > gains[m] * length + atol:
            return False
    return True


def exhaustive_grid_feasible(requests, gains: tuple[float, ...], q: int = 16) -> bool:
    """Search piecewise-constant schedules on the epoch partition: rates on a
    1/q grid in every interval except the last, which is decided exactly by
    the single-interval drain test. Pareto-dominated residual states are
    pruned between intervals.

    A hit is a genuine schedule (soundness is unconditional); a miss only
    rules out grid schedules, so feasible-vs-grid comparisons must skip a
    margin band tied to the grid resolution.
    """
    reqs = sorted(requests, key=lambda r: r.user_id)
    deadline = reqs[0].deadline
    epochs = sorted({r.arrival_time for r in reqs} | {deadline})
    states = {tuple(r.initial_size for r in reqs)}
    for k in range(len(epochs) - 2):
        start, length = epochs[k], epochs[k + 1] - epochs[k]
        eligible = [i for i, r in enumerate(reqs) if r.arrival_time <= start]
        vectors = _grid_vectors(len(eligible), gains, q)
        nxt: set[tuple[float, ...]] = set()
        for state in states:
            for vec in vectors:
                new = list(state)
                for i, rate in zip(eligible, vec):
                    new[i] = max(0.0, round(new[i] - rate * length, 12))
                nxt.add(tuple(new))
        # Pareto prune: drop states componentwise >= another kept state
        ordered = sorted(nxt, key=sum)
        frontier: list[tuple[float, ...]] = []
        for cand in ordered:
            if not any(all(c >= f for c, f in zip(cand, keep)) for keep in frontier):
                frontier.append(cand)
        states = set(frontier)
    last_len = epochs[-1] - epochs[-2]
    return any(single_interval_completable(s, last_len, gains) for s in states)


def lognormal_untruncated_moments(log_mu: float, log_sigma: float) -> tuple[float, float]:
    """Closed-form (mean, std) of the untruncated lognormal."""
    mean = math.exp(log_mu + log_sigma**2 / 2.0)
    var = (math.exp(log_sigma**2) - 1.0) * math.exp(2.0 * log_mu + log_sigma**2)
    return mean, math.sqrt(var)


def lognormal_truncated_mean(log_mu: float, log_sigma: float, cap: float) -> float:
    """Closed-form E[X | X <= cap] for a lognormal."""
    from scipy.stats import norm

    s2 = log_sigma**2
    num = math.exp(log_mu + s2 / 2.0) * norm.cdf((math.log(cap) - log_mu - s2) / log_sigma)
    den = norm.cdf((math.log(cap) - log_mu) / log_sigma)
    return num / den


def urgency_maxweight(laxity: float, alpha: float, epsilon: float) -> float:
    """max(L, eps)^(-alpha); strictly decreasing on [eps, inf)."""
    return max(laxity, epsilon) ** (-alpha)


def urgency_exp(
    laxity: float,
    beta: float,
    zeta: float,
    eta: float,
    group_mean_scaled_laxity: float,
    epsilon: float,
) -> float:
    """exp(-beta*max(L,eps) / (zeta + Lbar^eta)) where Lbar is the mean of
    beta*max(L,eps) over the likely-completable group. Value in (0, 1]."""
    return math.exp(
        -beta * max(laxity, epsilon) / (zeta + group_mean_scaled_laxity**eta)
    )


def urgency_log(laxity: float, beta: float, zeta: float, epsilon: float) -> float:
    """1 / ln(zeta + beta*max(L,eps)); requires zeta + beta*eps > 1.

    Natural log; the argmax is base-invariant so the base only rescales
    weights, but positivity must hold for every clamped laxity.
    """
    arg = zeta + beta * max(laxity, epsilon)
    if arg <= 1.0:
        raise ValueError("zeta + beta*clamped laxity must exceed 1")
    return 1.0 / math.log(arg)


def framework_choice(uids, laxities, rates, urgency, delta=-2.0, epsilon=1e-3):
    """The laxity-threshold rule written from its definition: among users
    with laxity >= delta serve the largest rate * urgency, else the largest
    rate; the smallest id wins ties. ``urgency`` maps the clamped laxities
    max(L, epsilon) of the users at or above delta to their urgencies."""
    plus = [i for i, lax in enumerate(laxities) if lax >= delta]
    if plus:
        weights = urgency([max(laxities[i], epsilon) for i in plus])
        scores = {uids[i]: rates[i] * w for i, w in zip(plus, weights)}
    else:
        scores = dict(zip(uids, rates))
    if not scores:
        return None
    best = max(scores.values())
    return min(u for u, score in scores.items() if score == best)


class ReferenceUlt:
    """The used-to-be-less-than relation straight from its definition: ult is
    the union over the slots seen of {(a, b): l_a <= l_b}, and iult its
    reflexive transitive closure by Warshall's algorithm."""

    def __init__(self):
        self.users: list[int] = []
        self.direct: set[tuple[int, int]] = set()

    def update(self, laxities):
        for a in laxities:
            if a not in self.users:
                self.users.append(a)
        for a, la in laxities.items():
            for b, lb in laxities.items():
                if la <= lb:
                    self.direct.add((a, b))

    def closure(self) -> set[tuple[int, int]]:
        reach = {a: {a} | {b for x, b in self.direct if x == a} for a in self.users}
        for k in self.users:
            for i in self.users:
                if k in reach[i]:
                    reach[i] |= reach[k]
        return {(a, b) for a in self.users for b in reach[a]}

    def least_laxity_set(self, laxities) -> set[int]:
        star = min(laxities, key=lambda u: (laxities[u], u))
        closure = self.closure()
        return {star} | {a for a in laxities if (a, star) in closure}

    def order_violations(self, laxities, limit) -> set[tuple[int, int]]:
        return {
            (a, b)
            for a, b in self.direct
            if a != b and a in laxities and b in laxities and laxities[a] - laxities[b] > limit
        }


TRACE_HEADER = "slot,user_id,residual,virtual_laxity,in_LLS,decision"


def reference_write_trace(path, report) -> None:
    """The trace writer as first written, one f-string per row: the byte-for-
    byte reference for the CLI's writer."""
    lines = [TRACE_HEADER]
    for rec in report.trace or []:
        if isinstance(rec.decision, dict):  # fluid: per-user allocated rate
            for uid in sorted(rec.decision):
                in_lls = int(rec.least_laxity_set is not None and uid in rec.least_laxity_set)
                lines.append(
                    f"{rec.slot_index},{uid},{rec.residuals[uid]:.12g},"
                    f"{rec.virtual_laxities[uid]:.12g},{in_lls},{rec.decision[uid]:.12g}"
                )
        else:  # tdm: chosen-user flag
            for uid in sorted(rec.residuals):
                lines.append(
                    f"{rec.slot_index},{uid},{rec.residuals[uid]:.12g},"
                    f"{rec.virtual_laxities[uid]:.12g},0,{int(rec.decision == uid)}"
                )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def checkout_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's
    laxsched."""
    src = str(pathlib.Path(laxsched.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def modules_after(code: str, *names: str) -> list[str]:
    """The loaded modules that are one of ``names`` or inside one, once
    ``code`` has run in a fresh interpreter that imports this checkout's
    laxsched."""
    report = (
        f"import sys, json; names = {names!r}; print(json.dumps(sorted("
        "m for m in sys.modules if any(m == n or m.startswith(n + '.') for n in names))))"
    )
    env = checkout_env()
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules loaded once ``code`` has run in a fresh interpreter
    that imports this checkout's laxsched."""
    return modules_after(code, "scipy")


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


def reference_run_tdm(
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
        rates = (np.log1p(gammas) * rate_scale).tolist()
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
