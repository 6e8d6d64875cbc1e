"""Checks on laxsched's outputs, computed apart from the library.

Nothing here imports laxsched. The rules are written from the model's
definitions: the polymatroid capacity region with rank g(|S|), its
time-integral over a batch with staggered arrivals, the laxity-threshold
TDM framework with its three urgency functions, and the Max C/I, EDF and LLF
baselines. The CSV checks hold the formats the CLI documents and the
identities every row must satisfy; none compares against stored output.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

RUN_HEADER = (
    "sweep_value,replication,seed,policy,n_users,n_completed,n_expired,"
    "schedulable,violation_rate"
)
ORACLE_HEADER = "sweep_value,replication,feasible,borderline"
FIG3_HEADER = (
    "sweep_value,policy,replications,total_users,total_expired,violation_probability"
)
TRACE_HEADER = "slot,user_id,residual,virtual_laxity,in_LLS,decision"

# The CLI prints ratios with 12 significant digits.
_PRINTED_REL = 1e-11


# ---------------------------------------------------------------------------
# Schedulability ratio of an identical-deadline batch


@lru_cache(maxsize=2)
def _subset_tables(m: int, gains: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """For every nonempty subset of m arrival-sorted users: its membership
    bits, and the gain increment g_j - g_{j-1} each member earns as the j-th
    of the subset to arrive (0 for non-members)."""
    masks = np.arange(1, 1 << m, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(m)) & 1
    ranks = np.cumsum(bits, axis=1)
    increments = np.diff(np.asarray(gains, dtype=float))  # [j - 1] -> g_j - g_{j-1}
    return bits.astype(float), bits * increments[ranks - 1]


def schedulability_ratio(arrivals, sizes, deadline: float, gains) -> float:
    """rho = min over nonempty user sets S of f(S) / F(S), by enumeration.

    f(S) is the data the region can deliver to S by the deadline: the
    integral over [0, D] of g(number of members of S arrived by t). With the
    members' arrivals sorted, that is sum_j (g_j - g_{j-1}) (D - a_(j)).
    F(S) is the members' total file size. The batch is schedulable inside
    the region exactly when rho >= 1.
    """
    a = np.asarray(arrivals, dtype=float)
    f_sizes = np.asarray(sizes, dtype=float)
    m = a.size
    if m == 0 or f_sizes.size != m:
        raise ValueError("need equal, nonzero numbers of arrivals and sizes")
    if len(gains) < m + 1:
        raise ValueError(f"gain sequence covers {len(gains) - 1} users, batch has {m}")
    order = np.argsort(a, kind="stable")
    bits, weights = _subset_tables(m, tuple(gains[: m + 1]))
    capacity = weights @ (deadline - a[order])
    demand = bits @ f_sizes[order]
    return float(np.min(capacity / demand))


def subset_capacity(arrivals, deadline: float, gains) -> float:
    """f(S) for one set, by stepping through its arrival epochs."""
    times = sorted(arrivals) + [deadline]
    return sum(gains[j] * (times[j] - times[j - 1]) for j in range(1, len(times)))


# ---------------------------------------------------------------------------
# Oracle witnesses and certificates


def witness_problems(
    arrivals: dict[int, float],
    sizes: dict[int, float],
    epochs,
    witness,
    gains,
    tol: float,
) -> list[str]:
    """Everything wrong with a per-interval rate witness.

    In each interval [epochs[k], epochs[k+1]) the witness gives a constant
    rate per user. It must serve only users that have arrived by the start
    of the interval, keep every rate nonnegative, keep the m largest rates'
    sum within g_m for every m (the region), and deliver every file by the
    last epoch. tol is an absolute allowance in data units (rate times
    seconds) for the solver's feasibility tolerance.
    """
    problems = []
    if len(witness) != len(epochs) - 1:
        return [f"{len(witness)} intervals for {len(epochs)} epochs"]
    delivered = dict.fromkeys(sizes, 0.0)
    for k, rates in enumerate(witness):
        start, end = epochs[k], epochs[k + 1]
        length = end - start
        for uid, rate in rates.items():
            if uid not in sizes:
                problems.append(f"interval {k}: unknown user {uid}")
            elif rate < 0.0:
                problems.append(f"interval {k}: user {uid} has rate {rate!r}")
            elif rate > 0.0 and arrivals[uid] > start:
                problems.append(f"interval {k}: user {uid} served before arrival")
            else:
                delivered[uid] += rate * length
        prefix = 0.0
        for m, rate in enumerate(sorted(rates.values(), reverse=True), start=1):
            prefix += rate
            if m >= len(gains):
                problems.append(f"interval {k}: {m} users exceed the gain sequence")
                break
            if (prefix - gains[m]) * length > tol:
                problems.append(
                    f"interval {k}: {m} largest rates sum to {prefix!r} > g_{m}={gains[m]!r}"
                )
    for uid, size in sizes.items():
        if delivered[uid] < size - tol:
            problems.append(f"user {uid} gets {delivered[uid]!r} of {size!r}")
    return problems


def certificate_problems(
    user_ids, arrivals: dict[int, float], sizes: dict[int, float], deadline: float, gains
) -> list[str]:
    """A certificate names a user set whose demand exceeds f(set)."""
    if not user_ids:
        return ["empty certificate"]
    unknown = [u for u in user_ids if u not in sizes]
    if unknown:
        return [f"certificate names unknown users {unknown}"]
    demand = sum(sizes[u] for u in user_ids)
    capacity = subset_capacity([arrivals[u] for u in user_ids], deadline, gains)
    if not demand > capacity:
        return [f"certificate demand {demand!r} does not exceed capacity {capacity!r}"]
    return []


# ---------------------------------------------------------------------------
# TDM decision rules, with the published parameters

DELTA = -2.0  # laxity threshold of the likely-completable group
EPSILON = 1e-3  # laxity clamp
KAPPA = 1.0  # per-user weight on normalized rates
MAXWEIGHT_ALPHA = 1.0
EXP_BETA, EXP_ZETA, EXP_ETA = 0.05, 1.0, 0.5
LOG_BETA, LOG_ZETA = 10.0, 10.0

TDM_POLICIES = ("l-maxweight", "l-exp", "l-log", "max-ci", "edf", "llf")


def tdm_weights(policy: str, laxities, rates, deadlines) -> list[float]:
    """The score each user gets under a policy's rule; the policy serves the
    highest score, ties going to the smallest user id.

    The laxity-threshold framework scores users with laxity >= delta by
    kappa * R * U(max(L, eps)): U(x) = x^-alpha (l-maxweight),
    exp(-beta x / (zeta + Lbar^eta)) with Lbar the group mean of beta x
    (l-exp), 1 / ln(zeta + beta x) (l-log). Users below the threshold score
    -inf; when nobody is above it, every user scores its rate. Max C/I scores
    the rate, EDF minus the deadline, LLF minus the laxity.
    """
    n = len(laxities)
    if policy == "max-ci":
        return list(rates)
    if policy == "edf":
        return [-d for d in deadlines]
    if policy == "llf":
        return [-lax for lax in laxities]
    if policy not in TDM_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    group = [i for i in range(n) if laxities[i] >= DELTA]
    if not group:
        return [KAPPA * r for r in rates]
    clamped = [max(lax, EPSILON) for lax in laxities]
    scores = [-math.inf] * n
    if policy == "l-maxweight":
        for i in group:
            scores[i] = KAPPA * rates[i] * clamped[i] ** -MAXWEIGHT_ALPHA
    elif policy == "l-exp":
        lbar = sum(EXP_BETA * clamped[i] for i in group) / len(group)
        scale = EXP_ZETA + lbar**EXP_ETA
        for i in group:
            scores[i] = KAPPA * rates[i] * math.exp(-EXP_BETA * clamped[i] / scale)
    else:
        for i in group:
            scores[i] = KAPPA * rates[i] / math.log(LOG_ZETA + LOG_BETA * clamped[i])
    return scores


def tdm_decision_ok(policy: str, uids, laxities, rates, deadlines, choice) -> bool:
    """Whether a TDM decision is the rule's choice on these arrays.

    The rule's choice is the highest score, smallest user id on ties. A
    different choice is accepted only when its score equals the best to
    1e-12 relative, which floating-point rounding of the same real-valued
    rule can produce.
    """
    if not uids:
        return choice is None
    scores = tdm_weights(policy, laxities, rates, deadlines)
    best = max(range(len(uids)), key=lambda i: (scores[i], -uids[i]))
    if choice == uids[best]:
        return True
    if choice not in uids:
        return False
    top, other = scores[best], scores[list(uids).index(choice)]
    return math.isfinite(top) and abs(top - other) <= 1e-12 * abs(top)


# ---------------------------------------------------------------------------
# CLI output


@dataclass
class CsvVerdict:
    """Rows the CLI output was expected to hold, and which of them failed."""

    expected: int
    failed: int = 0
    flows: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def _rows(text: str, header: str, verdict: CsvVerdict) -> list[dict[str, str]] | None:
    lines = text.split("\n")
    if not text.endswith("\n") or lines[0] != header:
        verdict.fail(verdict.expected, f"header is {lines[0]!r}, expected {header!r}")
        return None
    return list(csv.DictReader(io.StringIO(text)))


def _close(printed: str, exact: float) -> bool:
    return abs(float(printed) - exact) <= _PRINTED_REL * max(1.0, abs(exact))


def _claim(seen: set, key, verdict: CsvVerdict, expected_keys) -> bool:
    if key not in expected_keys:
        verdict.fail(1, f"unexpected row {key}")
        return False
    if key in seen:
        verdict.fail(1, f"duplicate row {key}")
        return False
    seen.add(key)
    return True


def _count_missing(seen: set, expected_keys, verdict: CsvVerdict) -> None:
    missing = len(expected_keys) - len(seen)
    if missing:
        verdict.fail(missing, f"{missing} expected rows missing")


def check_run_csv(text: str, sweep, replications: int, policies) -> CsvVerdict:
    """`laxsched run`: one row per (sweep value, replication, policy) with
    n_completed + n_expired = n_users, schedulable = (n_expired == 0) and
    violation_rate = n_expired / n_users. flows sums n_users."""
    expected_keys = {(float(v), r, p) for v in sweep for r in range(replications) for p in policies}
    verdict = CsvVerdict(expected=len(expected_keys))
    rows = _rows(text, RUN_HEADER, verdict)
    if rows is None:
        return verdict
    seen: set = set()
    for row in rows:
        try:
            key = (float(row["sweep_value"]), int(row["replication"]), row["policy"])
            n, done, expired = int(row["n_users"]), int(row["n_completed"]), int(row["n_expired"])
            sched, viol = int(row["schedulable"]), row["violation_rate"]
        except (TypeError, ValueError):
            verdict.fail(1, f"malformed row {row}")
            continue
        if not _claim(seen, key, verdict, expected_keys):
            continue
        verdict.flows += n
        if n < 1 or done < 0 or expired < 0 or done + expired != n:
            verdict.fail(1, f"{key}: {done} completed + {expired} expired != {n} users")
        elif sched != int(expired == 0):
            verdict.fail(1, f"{key}: schedulable={sched} with {expired} expired")
        elif not _close(viol, expired / n):
            verdict.fail(1, f"{key}: violation_rate {viol} != {expired}/{n}")
    _count_missing(seen, expected_keys, verdict)
    return verdict


def check_oracle_csv(text: str, sweep, replications: int, user_count: int) -> CsvVerdict:
    """`laxsched oracle-check`: one 0/1 verdict row per (sweep value,
    replication). flows counts user_count per row."""
    expected_keys = {(float(v), r) for v in sweep for r in range(replications)}
    verdict = CsvVerdict(expected=len(expected_keys))
    rows = _rows(text, ORACLE_HEADER, verdict)
    if rows is None:
        return verdict
    seen: set = set()
    for row in rows:
        try:
            key = (float(row["sweep_value"]), int(row["replication"]))
            flags = {row["feasible"], row["borderline"]}
        except (TypeError, ValueError):
            verdict.fail(1, f"malformed row {row}")
            continue
        if not _claim(seen, key, verdict, expected_keys):
            continue
        verdict.flows += user_count
        if not flags <= {"0", "1"}:
            verdict.fail(1, f"{key}: flags {row} are not 0/1")
    _count_missing(seen, expected_keys, verdict)
    return verdict


def check_fig3_csv(text: str, sweep, replications: int, policies) -> CsvVerdict:
    """`laxsched reproduce fig2b|fig3b`: one row per (stretch, policy) with
    violation_probability = total_expired / total_users; every policy at one
    stretch sees the same users; no policy violates more deadlines at the
    largest stretch than at the smallest. flows sums total_users."""
    expected_keys = {(float(v), p) for v in sweep for p in policies}
    verdict = CsvVerdict(expected=len(expected_keys))
    rows = _rows(text, FIG3_HEADER, verdict)
    if rows is None:
        return verdict
    seen: set = set()
    users_at: dict[float, set[int]] = {}
    viol: dict[tuple[float, str], float] = {}
    for row in rows:
        try:
            key = (float(row["sweep_value"]), row["policy"])
            reps, users = int(row["replications"]), int(row["total_users"])
            expired, prob = int(row["total_expired"]), row["violation_probability"]
        except (TypeError, ValueError):
            verdict.fail(1, f"malformed row {row}")
            continue
        if not _claim(seen, key, verdict, expected_keys):
            continue
        verdict.flows += users
        users_at.setdefault(key[0], set()).add(users)
        if reps != replications or users < 1 or not 0 <= expired <= users:
            verdict.fail(1, f"{key}: {reps} replications, {expired} of {users} expired")
        elif not _close(prob, expired / users):
            verdict.fail(1, f"{key}: violation_probability {prob} != {expired}/{users}")
        else:
            viol[key] = expired / users
    _count_missing(seen, expected_keys, verdict)
    for value, counts in users_at.items():
        if len(counts) > 1:
            verdict.fail(len(policies), f"stretch {value:g}: policies see users {sorted(counts)}")
    low, high = float(min(sweep)), float(max(sweep))
    for p in policies:
        if (low, p) in viol and (high, p) in viol and viol[(high, p)] > viol[(low, p)]:
            verdict.fail(
                2,
                f"{p}: violation probability {viol[(high, p)]:.4g} at stretch {high:g} "
                f"exceeds {viol[(low, p)]:.4g} at {low:g}",
            )
    return verdict


def check_trace_file(path: str) -> bool:
    """A per-cell trace opens with the documented header and has rows."""
    with open(path) as fh:
        return fh.readline().rstrip("\n") == TRACE_HEADER and bool(fh.readline())
