"""Scheduling decisions: the fluid less-laxity-higher-rate allocation, the
laxity-threshold heuristic framework with three urgency functions, and the
Max C/I, EDF, and LLF baselines.

Every TDM rule is a policy object built by ``make_policy`` with a ``name``
and one method, ``select_arrays(uids, laxities, rates, deadlines)``, which
takes the active users as parallel sequences in ascending user-id order and
returns the user to serve (None for an empty queue). Every tie anywhere is
broken by the smallest user id. Rates passed in here are already normalized
(mean 1). The framework rules take no per-user weight: the paper's weight
kappa is one constant for every user here, and a factor common to every
score changes no choice, so it is left out. ``engine.run_tdm``
serves a lone user itself, the choice every policy here makes for one user
of finite laxity. It steps stretches of slots that end at the next
admission, expiry slot or completion, and asks a policy named in ``HELD``
once per stretch and any other at every slot. A framework policy binds its
urgency's rule as ``select_arrays`` when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .capacity import GainProfile

__all__ = [
    "MaxWeightUrgency",
    "ExpUrgency",
    "LogUrgency",
    "FrameworkParams",
    "FrameworkPolicy",
    "MaxCiPolicy",
    "EdfPolicy",
    "LlfPolicy",
    "make_policy",
    "POLICY_NAMES",
    "HELD",
]


@dataclass(frozen=True)
class MaxWeightUrgency:
    """Polynomial urgency: clamped laxity to the power -alpha."""

    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError("alpha must be > 0")


@dataclass(frozen=True)
class ExpUrgency:
    """Exponential urgency, self-normalized by the group-mean scaled laxity."""

    beta: float = 0.05
    zeta: float = 1.0
    eta: float = 0.5

    def __post_init__(self) -> None:
        if not (self.beta > 0.0 and self.zeta > 0.0):
            raise ValueError("beta and zeta must be > 0")
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")


@dataclass(frozen=True)
class LogUrgency:
    """Logarithmic urgency: 1 / ln(zeta + beta * clamped laxity)."""

    beta: float = 10.0
    zeta: float = 10.0

    def __post_init__(self) -> None:
        if not (self.beta > 0.0 and self.zeta > 0.0):
            raise ValueError("beta and zeta must be > 0")


Urgency = MaxWeightUrgency | ExpUrgency | LogUrgency


@dataclass(frozen=True)
class FrameworkParams:
    """Threshold delta splitting the queue into likely-completable and
    likely-expired groups, the laxity clamp epsilon, and the urgency
    function."""

    urgency: Urgency
    delta: float = -2.0
    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        if math.isnan(self.delta):
            raise ValueError("delta must not be NaN")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be > 0")
        if isinstance(self.urgency, LogUrgency):
            if self.urgency.zeta + self.urgency.beta * self.epsilon <= 1.0:
                raise ValueError(
                    "log urgency needs zeta + beta*epsilon > 1 so the logarithm stays positive"
                )


def _l2hpr_rates(
    uids: Sequence[int], laxities: Sequence[float], gains: GainProfile
) -> dict[int, float]:
    """The fluid allocation on parallel arrays: the user with the j-th
    smallest (laxity, user id) gets the j-th marginal gain g_j - g_{j-1}, so
    k users get g_k in total. The result is keyed in rank order."""
    marginal = gains.marginal_gains
    if len(uids) > len(marginal):
        raise _too_many_active(len(uids), gains)
    rates = {}
    for (_, uid), rate in zip(sorted(zip(laxities, uids)), marginal):
        rates[uid] = rate
    return rates


def _too_many_active(k: int, gains: GainProfile) -> ValueError:
    """The error of a fluid slot with more active users than the profile has
    gains for."""
    return ValueError(f"{k} active users exceed gain profile k_max={gains.k_max}")


# Each framework policy's urgency, by policy name.
_URGENCIES = {"l-maxweight": MaxWeightUrgency, "l-exp": ExpUrgency, "l-log": LogUrgency}


class FrameworkPolicy:
    """TDM policy: the framework rule with a fixed parameter set.

    Among users with laxity >= delta pick the largest R*U(L); if none
    remain, fall back to the highest R. The paper's weight kappa is left
    out, as the module docstring says. With the clamped laxity
    c = max(L, eps), written ``eps if eps > lax else lax``, U is c^(-alpha)
    for l-maxweight, exp(-beta*c / (zeta + Lbar^eta)) for l-exp, where Lbar
    is the mean of beta*c over the users at or above delta, and
    1 / ln(zeta + beta*c) for l-log.

    The urgency's rule is bound as ``select_arrays`` once, at construction.
    """

    def __init__(self, params: FrameworkParams):
        self.params = params
        self.name = next(n for n, u in _URGENCIES.items() if type(params.urgency) is u)
        self.select_arrays = getattr(self, _RULES[self.name])

    def _maxweight(self, uids, laxities, rates, deadlines) -> int | None:
        params = self.params
        delta, eps = params.delta, params.epsilon
        power = -params.urgency.alpha
        best_uid, best_w = None, -math.inf
        for u, lax, r in zip(uids, laxities, rates):
            if lax >= delta:
                w = r * (eps if eps > lax else lax) ** power
                if w > best_w:
                    best_w, best_uid = w, u
        return best_uid if best_uid is not None else self._fallback(uids, laxities, rates)

    def _exp(self, uids, laxities, rates, deadlines) -> int | None:
        params = self.params
        delta, eps = params.delta, params.epsilon
        urg = params.urgency
        # An infinite laxity would make the group mean infinite and every
        # weight inf/inf = NaN: such a user weighs 0 and stays out of the mean.
        beta, inf = urg.beta, math.inf
        scaled = [beta * (eps if eps > lax else lax) for lax in laxities if delta <= lax < inf]
        scale = urg.zeta + (sum(scaled) / len(scaled)) ** urg.eta if scaled else inf
        exp = math.exp
        best_uid, best_w = None, -inf
        for u, lax, r in zip(uids, laxities, rates):
            if lax >= delta:
                w = 0.0
                if lax < inf:
                    w = r * exp(-beta * (eps if eps > lax else lax) / scale)
                if w > best_w:
                    best_w, best_uid = w, u
        return best_uid if best_uid is not None else self._fallback(uids, laxities, rates)

    def _log(self, uids, laxities, rates, deadlines) -> int | None:
        params = self.params
        delta, eps = params.delta, params.epsilon
        beta, zeta = params.urgency.beta, params.urgency.zeta
        log = math.log
        best_uid, best_w = None, -math.inf
        for u, lax, r in zip(uids, laxities, rates):
            if lax >= delta:
                w = r * (1.0 / log(zeta + beta * (eps if eps > lax else lax)))
                if w > best_w:
                    best_w, best_uid = w, u
        return best_uid if best_uid is not None else self._fallback(uids, laxities, rates)

    def _fallback(self, uids, laxities, rates) -> int | None:
        """No user weighed more than -inf: none if any laxity is at or above
        delta, else the highest R."""
        if any(lax >= self.params.delta for lax in laxities):
            return None
        return uids[rates.index(max(rates))] if uids else None


# Each framework policy's rule, by policy name.
_RULES = {"l-maxweight": "_maxweight", "l-exp": "_exp", "l-log": "_log"}


# The baselines take the first extreme that max and min return, found again
# by index: the smallest id on ties.


class MaxCiPolicy:
    name = "max-ci"

    def select_arrays(self, uids, laxities, rates, deadlines) -> int | None:
        return uids[rates.index(max(rates))] if uids else None


class EdfPolicy:
    name = "edf"

    def select_arrays(self, uids, laxities, rates, deadlines) -> int | None:
        return uids[deadlines.index(min(deadlines))] if uids else None


class LlfPolicy:
    name = "llf"

    def select_arrays(self, uids, laxities, rates, deadlines) -> int | None:
        return uids[laxities.index(min(laxities))] if uids else None


POLICY_NAMES = ("l-maxweight", "l-exp", "l-log", "max-ci", "edf", "llf")
# Rules whose choice depends only on the active ids and deadlines: run_tdm holds it.
HELD = frozenset({"edf"})


def make_policy(name: str, params: FrameworkParams | None = None):
    """Build a TDM policy by name; framework policies take their parameters
    (or the published defaults) from ``params``."""
    if name == "max-ci":
        return MaxCiPolicy()
    if name == "edf":
        return EdfPolicy()
    if name == "llf":
        return LlfPolicy()
    urgency = _URGENCIES.get(name)
    if urgency is None:
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    if params is None:
        params = FrameworkParams(urgency=urgency())
    elif not isinstance(params.urgency, urgency):
        raise ValueError(f"params urgency {params.urgency!r} does not match policy {name!r}")
    return FrameworkPolicy(params)
