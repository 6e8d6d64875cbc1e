import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laxsched.capacity import GainProfile
from laxsched.core import DownloadRequest, FlowStatus
from laxsched.engine import run_fluid
from laxsched.policies import (
    EdfPolicy,
    ExpUrgency,
    FrameworkParams,
    FrameworkPolicy,
    LlfPolicy,
    LogUrgency,
    MaxCiPolicy,
    MaxWeightUrgency,
    _l2hpr_rates,
    make_policy,
)

from helpers import framework_choice, urgency_exp, urgency_log, urgency_maxweight

# frozen from independent high-precision evaluation (mpmath, 40 digits)
EXP_URGENCY_EXAMPLE = 0.7461018060799022  # exp(-0.5 / (1 + sqrt(0.5)))
LOG_URGENCY_EXAMPLE = 0.4341060462449408  # 1 / ln(10.01)

GAINS = GainProfile((0.0, 1.0, 1.5))
GAINS4 = GainProfile((0.0, 1.0, 1.394, 1.622, 1.776))


def allocate(sizes, gains, deadline=10.0):
    """The slot-0 fluid allocation for users 1..m with the given sizes: with
    g1 = 1 each laxity is deadline - size."""
    return _l2hpr_rates(list(range(1, len(sizes) + 1)), [deadline - s for s in sizes], gains)


def fluid_batch(sizes, deadline=10.0):
    return [DownloadRequest(i + 1, 0.0, s, deadline) for i, s in enumerate(sizes)]


def select(policy, sizes, rates=None, deadlines=10.0):
    """One slot-0 decision for users 1..m with the given sizes: with g1 = 1
    each laxity is deadline - size. Rates default to 1, and ``deadlines`` is
    one common deadline or one per user."""
    m = len(sizes)
    if not isinstance(deadlines, list):
        deadlines = [deadlines] * m
    rates = [1.0] * m if rates is None else rates
    laxities = [d - s for d, s in zip(deadlines, sizes)]
    return policy.select_arrays(list(range(1, m + 1)), laxities, rates, deadlines)


class TestUrgencyMaxWeight:
    def test_reciprocal(self):
        assert urgency_maxweight(2.0, 1.0, 1e-3) == 0.5

    def test_clamp(self):
        assert urgency_maxweight(-1.0, 1.0, 1e-3) == pytest.approx(1000.0)

    def test_decreasing(self):
        assert urgency_maxweight(4.0, 1.0, 1e-3) < urgency_maxweight(2.0, 1.0, 1e-3)


class TestUrgencyExp:
    def test_single_user_example(self):
        # one user in the group, so the group mean is beta * L = 0.5
        got = urgency_exp(10.0, 0.05, 1.0, 0.5, 0.5, 1e-3)
        assert got == pytest.approx(EXP_URGENCY_EXAMPLE, abs=1e-12)

    def test_bounded_by_one(self):
        assert 0.0 < urgency_exp(3.0, 0.05, 1.0, 0.5, 0.2, 1e-3) <= 1.0

    def test_vanishes_at_large_laxity(self):
        assert urgency_exp(1e6, 0.05, 1.0, 0.5, 1.0, 1e-3) < 1e-10


class TestUrgencyLog:
    def test_clamped_example(self):
        got = urgency_log(0.0, 10.0, 10.0, 1e-3)
        assert got == pytest.approx(LOG_URGENCY_EXAMPLE, abs=1e-12)

    def test_positive_decreasing(self):
        a = urgency_log(1.0, 10.0, 10.0, 1e-3)
        b = urgency_log(5.0, 10.0, 10.0, 1e-3)
        assert 0.0 < b < a

    def test_nonpositive_log_rejected(self):
        with pytest.raises(ValueError):
            urgency_log(-5.0, 1.0, 0.5, 1e-3)  # zeta + beta*eps < 1


class TestFrameworkParams:
    def test_table_defaults(self):
        p = FrameworkParams(urgency=LogUrgency())
        assert p.delta == -2.0
        assert p.epsilon == 1e-3
        assert p.urgency.beta == 10.0 and p.urgency.zeta == 10.0
        assert ExpUrgency() == ExpUrgency(beta=0.05, zeta=1.0, eta=0.5)
        assert MaxWeightUrgency().alpha == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MaxWeightUrgency(alpha=0.0)
        with pytest.raises(ValueError):
            ExpUrgency(beta=-1.0)
        with pytest.raises(ValueError):
            FrameworkParams(urgency=MaxWeightUrgency(), epsilon=0.0)
        with pytest.raises(ValueError):
            # log positivity: zeta + beta*eps must exceed 1
            FrameworkParams(urgency=LogUrgency(beta=1.0, zeta=0.5))

    def test_nan_exp_eta_rejected(self):
        # a NaN eta made l-exp serve nobody once two users were active
        with pytest.raises(ValueError, match="eta must be finite"):
            make_policy("l-exp", FrameworkParams(urgency=ExpUrgency(eta=math.nan)))

    @pytest.mark.parametrize("eta", [math.inf, -math.inf])
    def test_infinite_exp_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must be finite"):
            ExpUrgency(eta=eta)

    def test_nan_delta_rejected(self):
        # a NaN threshold silently fell back to the best rate
        with pytest.raises(ValueError, match="delta must not be NaN"):
            FrameworkParams(urgency=MaxWeightUrgency(), delta=math.nan)

    @given(
        l1=st.floats(1e-3, 1e3),
        l2=st.floats(1e-3, 1e3),
    )
    @example(l1=0.001, l2=0.0010000000000000002)  # one exp urgency for both
    @settings(max_examples=200, deadline=None)
    def test_all_urgencies_strictly_decreasing(self, l1, l2):
        # Each urgency is a monotone function of an exponent: -alpha*ln L for
        # l-maxweight, the exponent of l-exp, ln(zeta + beta*L) for l-log.
        # Laxities whose exponents lie within a few ulps of each other may
        # give one double, so in floating point the property is: never
        # increasing, and strictly decreasing once the exponents are apart.
        lo, hi = min(l1, l2), max(l1, l2)
        cases = [
            (lambda lax: urgency_maxweight(lax, 1.0, 1e-3), lambda lax: -math.log(lax)),
            (
                lambda lax: urgency_exp(lax, 0.05, 1.0, 0.5, 0.7, 1e-3),
                lambda lax: -0.05 * lax / (1.0 + 0.7**0.5),
            ),
            (
                lambda lax: urgency_log(lax, 10.0, 10.0, 1e-3),
                lambda lax: math.log(10.0 + 10.0 * lax),
            ),
        ]
        for urgency, exponent in cases:
            assert urgency(lo) >= urgency(hi)
            x_lo, x_hi = exponent(lo), exponent(hi)
            if abs(x_lo - x_hi) > 8 * math.ulp(max(abs(x_lo), abs(x_hi), 1.0)):
                assert urgency(lo) > urgency(hi)


class TestL2hprAllocate:
    def test_two_user_tie(self):
        alloc = allocate([5.0, 5.0], GAINS)
        assert alloc == {1: 1.0, 2: 0.5}

    def test_single_user_full_rate(self):
        alloc = allocate([3.0], GAINS)
        assert alloc == {1: 1.0}

    def test_total_rate_saturates_gain(self):
        alloc = allocate([5.0, 3.0, 4.0, 2.0], GAINS4)
        assert sum(alloc.values()) == pytest.approx(GAINS4.gains[4], abs=1e-12)
        assert GAINS4.in_region(list(alloc.values()))

    def test_rank_monotone_in_laxity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            sizes = rng.uniform(0.5, 9.0, size=4).tolist()
            alloc = allocate(sizes, GAINS4)
            lax = {u: 10.0 - sizes[u - 1] for u in alloc}
            for a in alloc:
                for b in alloc:
                    if lax[a] < lax[b]:
                        assert alloc[a] > alloc[b]

    def test_empty_queue(self):
        assert _l2hpr_rates([], [], GAINS) == {}

    def test_mixed_deadlines_rejected(self):
        reqs = [DownloadRequest(1, 0.0, 2.0, 10.0), DownloadRequest(2, 0.0, 2.0, 12.0)]
        with pytest.raises(ValueError):
            run_fluid(reqs, GAINS, 0.1)

    def test_too_many_users_rejected(self):
        with pytest.raises(ValueError):
            allocate([1.0, 1.0, 1.0], GAINS)

    def test_non_active_rejected(self):
        # a completed user gets no rate in any later slot
        rep = run_fluid(fluid_batch([0.04, 5.0]), GAINS, 0.1, record_trace=True)
        assert rep.outcomes[1].status is FlowStatus.COMPLETED
        assert rep.outcomes[1].completion_time == 0.1
        assert len(rep.trace) > 1
        for rec in rep.trace[1:]:
            assert rec.residuals[1] == 0.0 and 1 not in rec.decision

    def test_worked_example_after_one_slot(self):
        rep = run_fluid(fluid_batch([5.0, 5.0]), GAINS, 0.1, record_trace=True)
        assert rep.trace[0].decision == {1: 1.0, 2: 0.5}
        assert rep.trace[1].least_virtual_laxity() == pytest.approx(5.0 + 0.5 * 0.1, abs=1e-12)


class TestFrameworkSelect:
    def params(self, **kw):
        return FrameworkParams(urgency=MaxWeightUrgency(alpha=kw.pop("alpha", 1.0)), **kw)

    def policy(self):
        return make_policy("l-maxweight", self.params())

    def test_urgent_user_wins_at_equal_rates(self):
        # laxities 5 and 1
        assert select(self.policy(), [5.0, 9.0], [1.0, 1.0]) == 2

    def test_maxweight_ratio_rule(self):
        # all laxities above delta: pick max R / clamped L
        # laxities 8 and 4; weights: 1/8 = 0.125 vs 0.6/4 = 0.15
        assert select(self.policy(), [2.0, 6.0], [1.0, 0.6]) == 2

    def test_fallback_serves_highest_rate(self):
        # laxities -20 and -30, both below delta
        assert select(self.policy(), [30.0, 40.0], [0.4, 0.9]) == 2

    def test_tie_smallest_id(self):
        assert select(self.policy(), [5.0, 5.0], [1.0, 1.0]) == 1

    def test_empty_queue(self):
        assert select(self.policy(), []) is None

    @pytest.mark.parametrize("name", ["l-maxweight", "l-exp", "l-log"])
    def test_laxities_below_epsilon_are_clamped(self, name):
        # laxities -0.5 and -1.5 lie between delta = -2 and epsilon: both
        # clamp to epsilon, so at equal rates they tie and the smaller id wins
        assert select(make_policy(name), [10.5, 11.5], [1.0, 1.0]) == 1

    @pytest.mark.parametrize("name", ["l-maxweight", "l-exp", "l-log"])
    def test_infinite_laxity_still_chooses(self, name):
        # an infinite laxity weighs 0: a finite candidate wins, and among
        # infinite ones the smallest id
        inf = math.inf
        assert select(make_policy(name), [1.0, 1.0], deadlines=[inf, 10.0]) == 2
        assert select(make_policy(name), [1.0, 1.0], deadlines=[inf, inf]) == 1

    def test_exp_group_mean_over_plus_group_only(self):
        # user 3 sits below delta and must not enter the group mean
        params = FrameworkParams(urgency=ExpUrgency(beta=0.05, zeta=1.0, eta=0.5))
        lbar = (0.05 * 6.0 + 0.05 * 2.0) / 2.0
        w1 = urgency_exp(6.0, 0.05, 1.0, 0.5, lbar, 1e-3)
        w2 = urgency_exp(2.0, 0.05, 1.0, 0.5, lbar, 1e-3)
        expected = 1 if w1 > w2 else 2
        # laxities 6, 2, -30
        policy = make_policy("l-exp", params)
        assert select(policy, [4.0, 8.0, 40.0], [1.0, 1.0, 5.0]) == expected

    def test_scale_invariance_of_rates(self):
        rng = np.random.default_rng(11)
        policy = make_policy("l-log", FrameworkParams(urgency=LogUrgency()))
        for _ in range(50):
            sizes = rng.uniform(0.5, 15.0, size=5).tolist()
            base = rng.uniform(0.1, 3.0, size=5)
            r1 = [float(b) for b in base]
            r2 = [float(b) * 7.3 for b in base]
            assert select(policy, sizes, r1, 12.0) == select(policy, sizes, r2, 12.0)

    def test_degenerate_parameters_reduce_to_max_ci(self):
        # delta -> -inf puts everyone in the tradeoff group; alpha -> 0 makes
        # the urgency flat, so the rule degenerates to the greedy baseline
        rng = np.random.default_rng(23)
        policy = make_policy("l-maxweight", self.params(alpha=1e-12, delta=-1e18))
        greedy = make_policy("max-ci")
        for _ in range(200):
            m = int(rng.integers(1, 7))
            sizes = rng.uniform(0.5, 30.0, size=m).tolist()
            distinct = rng.permutation(np.arange(1, 41))[:m] / 10.0
            rates = [float(r) for r in distinct]
            assert select(policy, sizes, rates, 8.0) == select(greedy, sizes, rates, 8.0)


class TestBaselines:
    def test_max_ci_argmax(self):
        assert select(make_policy("max-ci"), [1.0, 1.0, 1.0], [0.3, 0.9, 0.5]) == 2

    def test_max_ci_single(self):
        assert select(make_policy("max-ci"), [1.0], [0.1]) == 1

    def test_max_ci_tie(self):
        assert select(make_policy("max-ci"), [1.0, 1.0], [0.5, 0.5]) == 1

    def test_max_ci_empty(self):
        assert select(make_policy("max-ci"), []) is None

    def test_edf(self):
        assert select(make_policy("edf"), [1.0, 1.0, 1.0], deadlines=[10.0, 7.0, 9.0]) == 2

    def test_edf_tie(self):
        assert select(make_policy("edf"), [1.0, 1.0], deadlines=[7.0, 7.0]) == 1

    def test_infinite_keys_still_choose(self):
        # every deadline, and so every laxity, infinite: the smallest id
        inf = math.inf
        assert select(make_policy("edf"), [1.0, 1.0], deadlines=[inf, inf]) == 1
        assert select(make_policy("llf"), [1.0, 1.0], deadlines=[inf, inf]) == 1

    def test_edf_empty(self):
        assert select(make_policy("edf"), []) is None

    def test_llf(self):
        # laxities 6, -1, 2
        assert select(make_policy("llf"), [4.0, 11.0, 8.0]) == 2

    def test_llf_tie(self):
        assert select(make_policy("llf"), [4.0, 4.0]) == 1

    def test_llf_empty(self):
        assert select(make_policy("llf"), []) is None


class TestPolicyObjects:
    def test_factory_names(self):
        assert isinstance(make_policy("max-ci"), MaxCiPolicy)
        assert isinstance(make_policy("edf"), EdfPolicy)
        assert isinstance(make_policy("llf"), LlfPolicy)
        for name in ("l-maxweight", "l-exp", "l-log"):
            p = make_policy(name)
            assert isinstance(p, FrameworkPolicy)
            assert p.name == name

    def test_framework_policies_pickle(self):
        # the rule is bound at construction; a copy binds it to itself
        rng = np.random.default_rng(5)
        for name in ("l-maxweight", "l-exp", "l-log"):
            policy = make_policy(name)
            copy = pickle.loads(pickle.dumps(policy))
            assert copy.name == name and copy.params == policy.params
            assert copy.select_arrays.__self__ is copy
            for _ in range(50):
                m = int(rng.integers(1, 6))
                uids = list(range(1, m + 1))
                lax = rng.uniform(-4.0, 9.0, size=m).tolist()
                rates = rng.uniform(0.05, 3.0, size=m).tolist()
                args = (uids, lax, rates, [9.0] * m)
                assert copy.select_arrays(*args) == policy.select_arrays(*args)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_policy("best-rate")

    def test_factory_rejects_mismatched_params(self):
        with pytest.raises(ValueError):
            make_policy("l-log", FrameworkParams(urgency=ExpUrgency()))

    def test_array_path_matches_flow_path(self):
        # every framework policy against the rule and the urgency functions
        # written from their definitions (tests/helpers.py), with the
        # published parameters
        def exp_urgency(clamped):
            lbar = sum(0.05 * c for c in clamped) / len(clamped)
            return [urgency_exp(c, 0.05, 1.0, 0.5, lbar, 1e-3) for c in clamped]

        urgencies = {
            "l-maxweight": lambda clamped: [urgency_maxweight(c, 1.0, 1e-3) for c in clamped],
            "l-exp": exp_urgency,
            "l-log": lambda clamped: [urgency_log(c, 10.0, 10.0, 1e-3) for c in clamped],
        }
        rng = np.random.default_rng(31)
        for name, urgency in urgencies.items():
            policy = make_policy(name)
            for _ in range(50):
                m = int(rng.integers(1, 6))
                uids = list(range(1, m + 1))
                lax = [9.0 - s for s in rng.uniform(0.5, 20.0, size=m).tolist()]
                rates = rng.uniform(0.05, 3.0, size=m).tolist()
                if m > 1 and rng.random() < 0.5:  # an exact tie between users 1 and m
                    lax[-1], rates[-1] = lax[0], rates[0]
                assert policy.select_arrays(uids, lax, rates, [9.0] * m) == framework_choice(
                    uids, lax, rates, urgency
                )
