import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxsched.capacity import GainProfile
from laxsched.channel import ChannelModel, sample_normalized_rates
from laxsched.core import DownloadRequest, FlowStatus
from laxsched.engine import (
    UltTracker,
    least_laxity_limit,
    least_laxity_floor,
    SimReport,
    run_fluid,
    run_fluid_batch,
    run_tdm,
)
from laxsched import engine
from laxsched.policies import POLICY_NAMES, make_policy
from laxsched.seeding import generator_from

from helpers import ReferenceUlt, reference_run_tdm

GAINS = GainProfile((0.0, 1.0, 1.5))
GAINS8 = GainProfile(
    (0.0, 1.0, 1.394097, 1.621773, 1.776493, 1.891485, 1.982625, 2.057353, 2.120555)
)
# strictly concave, with g_1 exactly 1: room for the batch tests' 12 users
GAINS12 = GainProfile(tuple(itertools.accumulate([0.0] + [j**-0.5 for j in range(1, 13)])))
CHANNEL = ChannelModel()


def req(uid, arrival, size, deadline):
    return DownloadRequest(uid, arrival, size, deadline)


LIMIT = 0.1  # the order check's slot length in the tracker tests


class TestUltTracker:
    def test_equal_laxities_set_both_directions(self):
        t = UltTracker()
        t.step({1: 4.0, 2: 4.0}, LIMIT)
        assert t.ult(1, 2) and t.ult(2, 1)

    def test_relation_persists_after_reversal(self):
        t = UltTracker()
        t.step({1: 3.0, 2: 5.0}, LIMIT)
        assert t.ult(1, 2) and not t.ult(2, 1)
        t.step({1: 9.0, 2: 5.0}, LIMIT)
        assert t.ult(1, 2)  # history, not current order
        assert t.ult(2, 1)

    def test_chain_closure(self):
        t = UltTracker()
        t.step({1: 1.0, 2: 2.0}, LIMIT)
        t.step({1: 5.0, 2: 1.0, 3: 2.0}, LIMIT)
        # 1 <= 2 at slot 0, 2 <= 3 at slot 1, but 1 never directly <= 3
        assert t.ult(1, 2) and t.ult(2, 3)
        assert t.iult(1, 3)

    def test_user_joining_a_saturated_relation_is_recorded(self):
        t = UltTracker()
        t.step({1: 4.0, 2: 4.0}, LIMIT)  # every pair now holds both ways
        t.step({1: 4.0, 2: 4.0, 3: 1.0}, LIMIT)
        assert t.ult(3, 1) and t.ult(3, 2)
        assert not t.ult(1, 3) and not t.ult(2, 3)

    def test_relation_and_closure(self):
        t = UltTracker()
        t.step({1: 1.0, 2: 2.0}, LIMIT)
        t.step({1: 5.0, 2: 1.0, 3: 2.0}, LIMIT)
        ids = [u for u in range(5) if t.iult(u, u)]  # the known users
        assert ids == [1, 2, 3]
        assert t.ult(1, 2) and not t.ult(1, 3)
        assert t.iult(1, 3)
        assert all(t.iult(a, b) for a in ids for b in ids if t.ult(a, b))
        assert all(t.iult(a, a) for a in ids)


@st.composite
def laxity_histories(draw, arrival_ordered=False):
    """Slots of laxity maps: exact ties from a coarse grid, users joining
    mid-sequence, and pairs set one LIMIT apart to within a few ulps. With
    arrival_ordered, users never leave and each map lists them in the order
    they joined (the shape run_fluid passes)."""
    uids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=7, unique=True))
    joins = draw(st.lists(st.integers(0, 3), min_size=len(uids), max_size=len(uids)))
    if arrival_ordered:
        uids = [u for _, u in sorted(zip(joins, uids), key=lambda p: p[0])]
        joins = sorted(joins)
    value = st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), st.floats(-5.0, 5.0, allow_nan=False)
    )
    history = []
    for slot in range(draw(st.integers(1, 6))):
        lax = {u: draw(value) for u, j in zip(uids, joins) if j <= slot}
        if len(lax) >= 2 and draw(st.booleans()):
            a, b = draw(st.permutations(list(lax)))[:2]
            edge = lax[b] + LIMIT
            ulps = draw(st.integers(-3, 3))
            for _ in range(abs(ulps)):
                edge = math.nextafter(edge, math.copysign(math.inf, ulps))
            lax[a] = edge
        history.append(lax)
    return history


def known_first(history):
    """Each slot's map reordered as UltTracker.step takes it: the users seen
    in earlier slots first, in the order first seen, then the new ones."""
    seen: dict[int, None] = {}
    ordered = []
    for lax in history:
        seen.update(dict.fromkeys(lax))
        ordered.append({u: lax[u] for u in seen if u in lax})
    return ordered


class TestUltTrackerAgainstDefinition:
    """The bitmask tracker against helpers.ReferenceUlt, the relation built
    from its definition."""

    IDS = range(41)  # the id range laxity_histories draws from

    @classmethod
    def _assert_relation(cls, tracker, ref):
        # over every drawable id, so unseen users must hold no pair either:
        # iult(a, a) marks exactly the users seen, and ult/iult into b give
        # every user directly below, or reaching, b
        closure = ref.closure()
        for a in cls.IDS:
            for b in cls.IDS:
                assert tracker.ult(a, b) == ((a, b) in ref.direct), (a, b)
                assert tracker.iult(a, b) == ((a, b) in closure), (a, b)

    @given(history=laxity_histories())
    @settings(max_examples=300, deadline=None)
    def test_public_api_matches_definition(self, history):
        tracker, ref = UltTracker(), ReferenceUlt()
        for lax in known_first(history):
            if not lax:
                with pytest.raises(ValueError):
                    tracker.step(lax, LIMIT)
                continue
            # the relation so far, checked against this slot's laxities
            # before they are folded in: folding them adds only pairs with
            # la <= lb, none a violation
            before = ref.order_violations(lax, LIMIT)
            star, lls, pairs = tracker.step(lax, LIMIT)
            ref.update(lax)
            self._assert_relation(tracker, ref)
            assert star == min(lax, key=lambda u: (lax[u], u))
            assert lls == ref.least_laxity_set(lax)
            assert pairs == sorted(set(pairs))
            assert set(pairs) == before == ref.order_violations(lax, LIMIT)

    @given(history=laxity_histories(arrival_ordered=True))
    @settings(max_examples=300, deadline=None)
    def test_engine_step_matches_definition(self, history):
        tracker, ref = UltTracker(), ReferenceUlt()
        for lax in history:
            if not lax:
                continue
            star, lls, pairs = tracker.step(lax, LIMIT)
            ref.update(lax)
            self._assert_relation(tracker, ref)
            assert star == min(lax, key=lambda u: (lax[u], u))
            assert lls == ref.least_laxity_set(lax)
            assert pairs == sorted(ref.order_violations(lax, LIMIT))

    def test_engine_step_rejects_reordered_users(self):
        tracker = UltTracker()
        tracker.step({1: 1.0, 2: 2.0}, LIMIT)
        with pytest.raises(ValueError, match="first-seen order"):
            tracker.step({2: 2.0, 1: 1.0}, LIMIT)
        with pytest.raises(ValueError, match="first-seen order"):
            tracker.step({1: 1.0, 3: 2.0}, LIMIT)  # a known user missing

    def test_pair_one_ulp_past_the_limit_is_reported(self):
        tracker = UltTracker()
        tracker.step({1: 1.0, 2: 1.0}, 0.125)
        # 1.125 - 1.0 is exactly the (binary-exact) limit; one ulp more is past it
        assert tracker.step({1: 1.125, 2: 1.0}, 0.125)[2] == []
        past = {1: math.nextafter(1.125, math.inf), 2: 1.0}
        assert tracker.step(past, 0.125)[2] == [(1, 2)]


class TestLeastLaxitySet:
    def test_all_equal_gives_everyone(self):
        t = UltTracker()
        lax = {1: 5.0, 2: 5.0, 3: 5.0}
        assert t.step(lax, LIMIT)[1] == {1, 2, 3}

    def test_incomparable_user_excluded(self):
        t = UltTracker()
        assert t.step({1: 1.0, 2: 9.0}, LIMIT)[:2] == (1, {1})

    def test_two_user_example_after_one_slot(self):
        reqs = [req(1, 0.0, 5.0, 10.0), req(2, 0.0, 5.0, 10.0)]
        rep = run_fluid(reqs, GAINS, 0.1, record_trace=True)
        assert rep.trace[1].least_laxity_set == {1, 2}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            UltTracker().step({}, LIMIT)


class TestLaxityOrderCheck:
    def test_synthetic_violation_detected(self):
        t = UltTracker()
        t.step({1: 1.0, 2: 1.5}, 0.1)
        bad = {1: 3.0, 2: 1.5}  # difference 1.5 >> slot length
        assert (1, 2) in t.step(bad, 0.1)[2]

    def test_clean_run_is_clean(self):
        reqs = [req(1, 0.0, 4.0, 10.0), req(2, 0.0, 6.5, 10.0), req(3, 0.0, 2.0, 10.0)]
        rep = run_fluid(reqs, GAINS8, 0.05, record_trace=True)
        assert rep.laxity_order_violations == []

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_step_preservation(self, data):
        # if a pair's laxity gap is within one slot, that persists after one
        # allocate/advance step of the fluid policy
        m = data.draw(st.integers(2, 6))
        dt = 0.1
        deadline = 10.0
        sizes = [data.draw(st.floats(0.05, 9.0)) for _ in range(m)]
        reqs = [req(i + 1, 0.0, sizes[i], deadline) for i in range(m)]
        trace = run_fluid(reqs, GAINS8, dt, record_trace=True).trace
        # every size exceeds (g2 - g1)*dt, so at most the first-ranked user
        # finishes in slot 0 and slot 1 is traced
        lax_before, lax_after = trace[0].virtual_laxities, trace[1].virtual_laxities
        for a in lax_before:
            for b in lax_before:
                if a != b and lax_before[a] - lax_before[b] <= dt:
                    assert lax_after[a] - lax_after[b] <= dt + 1e-12


class TestLeastLaxityFloor:
    def test_two_user_example_slot_one(self):
        bound = least_laxity_floor([5.0, 5.0], 1, 0.1, GAINS, 2, 10.0)
        assert bound == pytest.approx(4.975, abs=1e-12)
        reqs = [req(1, 0.0, 5.0, 10.0), req(2, 0.0, 5.0, 10.0)]
        rep = run_fluid(reqs, GAINS, 0.1, record_trace=True)
        assert rep.trace[1].least_virtual_laxity() >= bound

    def test_slot_zero_form(self):
        # n = 0 with every user in the set and equal laxity l:
        # bound = min(D, l) - (M-1)dt
        for ell in (3.0, 12.0):
            bound = least_laxity_floor([ell] * 4, 0, 0.1, GAINS8, 4, 10.0)
            assert bound == pytest.approx(min(10.0, ell) - 3 * 0.1, abs=1e-12)

    def test_holds_on_random_runs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            sizes = rng.uniform(0.5, 9.5, size=m)
            reqs = [req(i + 1, 0.0, float(sizes[i]), 10.0) for i in range(m)]
            rep = run_fluid(reqs, GAINS8, 0.02, record_trace=True)
            first = rep.trace[0].virtual_laxities
            for rec in rep.trace:
                members = sorted(rec.least_laxity_set)
                bound = least_laxity_floor(
                    [first[u] for u in members], rec.slot_index, 0.02, GAINS8, m, 10.0
                )
                assert rec.least_virtual_laxity() >= bound - 1e-9 * 10.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            least_laxity_floor([], 0, 0.1, GAINS, 2, 10.0)


class TestLeastLaxityLimit:
    def test_simultaneous_form(self):
        got = least_laxity_limit([0.0, 0.0], [5.0, 5.0], GAINS, 1.0, 10.0)
        assert got == pytest.approx((10.0 + 1.5 * 1.0) / 2.0, abs=1e-12)

    def test_cap_at_deadline(self):
        got = least_laxity_limit([0.0], [9.0], GAINS, 8.0, 10.0)
        assert got == 10.0  # 9 + 8 = 17 capped at D

    def test_single_user(self):
        got = least_laxity_limit([2.0], [4.0], GAINS, 5.0, 10.0)
        assert got == pytest.approx(4.0 + (5.0 - 2.0), abs=1e-12)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            least_laxity_limit([3.0, 1.0], [5.0, 5.0], GAINS, 4.0, 10.0)

    def test_outside_window_rejected(self):
        with pytest.raises(ValueError):
            least_laxity_limit([0.0, 6.0], [5.0, 5.0], GAINS, 4.0, 10.0)
        with pytest.raises(ValueError):
            least_laxity_limit([-1.0], [5.0], GAINS, 4.0, 10.0)


class TestRunFluid:
    def test_worked_two_user_example(self):
        reqs = [req(1, 0.0, 5.0, 10.0), req(2, 0.0, 5.0, 10.0)]
        rep = run_fluid(reqs, GAINS, 0.1, record_trace=True)
        rec = rep.trace[1]
        assert rec.least_virtual_laxity() == pytest.approx(5.05, abs=1e-12)
        assert rec.virtual_laxities == pytest.approx({1: 5.1, 2: 5.05})
        assert rep.schedulable

    def test_boundary_feasible_single_user(self):
        # F = D exactly; binary-exact slot length so the clamp lands on zero
        rep = run_fluid([req(1, 0.0, 10.0, 10.0)], GAINS, 0.125)
        out = rep.outcomes[1]
        assert out.status is FlowStatus.COMPLETED
        assert out.completion_time == 10.0

    def test_empty_requests(self):
        rep = run_fluid([], GAINS, 0.1)
        assert rep.n_users == 0 and rep.schedulable

    def test_mixed_deadlines_rejected(self):
        reqs = [req(1, 0.0, 1.0, 10.0), req(2, 0.0, 1.0, 11.0)]
        with pytest.raises(ValueError):
            run_fluid(reqs, GAINS, 0.1)

    def test_infeasible_instance_expires(self):
        rep = run_fluid([req(1, 0.0, 11.0, 10.0)], GAINS, 0.1)
        assert rep.outcomes[1].status is FlowStatus.EXPIRED
        assert not rep.schedulable
        assert rep.n_expired == 1

    def test_midslot_arrival_served_next_boundary(self):
        # arrival at 0.05 with dt=0.1 is first eligible at t=0.1
        reqs = [req(1, 0.05, 2.0, 10.0)]
        rep = run_fluid(reqs, GAINS, 0.1, record_trace=True)
        assert rep.trace[0].slot_index == 1
        assert rep.trace[0].residuals[1] == 2.0

    def test_conservation_per_slot(self):
        # transmitted data never exceeds g_k * dt; equality when nobody finishes
        reqs = [req(1, 0.0, 4.0, 10.0), req(2, 0.0, 5.0, 10.0)]
        rep = run_fluid(reqs, GAINS, 0.1, record_trace=True)
        for before, after in zip(rep.trace, rep.trace[1:]):
            sent = sum(before.residuals.values()) - sum(after.residuals.values())
            k = sum(1 for v in before.residuals.values() if v > 0.0)
            if k == 0:
                continue
            assert sent <= GAINS.gains[k] * 0.1 + 1e-12
            completed_in_slot = any(
                before.residuals[u] > 0.0 and after.residuals[u] == 0.0
                for u in before.residuals
            )
            if not completed_in_slot:
                assert sent == pytest.approx(GAINS.gains[k] * 0.1, abs=1e-12)

    def test_duplicate_user_ids_rejected(self):
        reqs = [req(1, 0.0, 1.0, 10.0), req(2, 0.0, 1.0, 10.0), req(1, 0.5, 2.0, 10.0)]
        with pytest.raises(ValueError, match="duplicate"):
            run_fluid(reqs, GAINS8, 0.1)

    def test_more_active_users_than_k_max_rejected(self):
        with pytest.raises(ValueError, match="k_max"):
            run_fluid([req(u, 0.0, 1.0, 10.0) for u in (1, 2, 3)], GAINS, 0.1)
        # a third user arriving while two are still active
        staggered = [req(1, 0.0, 5.0, 10.0), req(2, 0.0, 5.0, 10.0), req(3, 1.0, 1.0, 10.0)]
        with pytest.raises(ValueError, match="k_max"):
            run_fluid(staggered, GAINS, 0.1)

    def test_k_max_counts_only_active_users(self):
        # user 1 finishes before user 3 arrives, so at most two are active
        reqs = [req(1, 0.0, 0.1, 10.0), req(2, 0.0, 5.0, 10.0), req(3, 2.0, 1.0, 10.0)]
        rep = run_fluid(reqs, GAINS, 0.1)
        assert rep.n_users == 3 and rep.schedulable

    def test_tracing_does_not_change_outcomes(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            m = int(rng.integers(2, 9))
            sizes = rng.uniform(0.3, 9.0, size=m)
            arrivals = rng.uniform(0.0, 5.0, size=m)
            ids = rng.permutation(m) + 1
            reqs = [
                req(int(ids[i]), float(arrivals[i]), float(sizes[i]), 10.0) for i in range(m)
            ]
            plain = run_fluid(reqs, GAINS8, 0.05)
            traced = run_fluid(reqs, GAINS8, 0.05, record_trace=True)
            assert plain.trace is None and traced.trace
            assert traced.outcomes == plain.outcomes

    def test_staggered_run_tracks_and_completes(self):
        reqs = [req(1, 0.0, 3.0, 10.0), req(2, 2.05, 2.0, 10.0)]
        rep = run_fluid(reqs, GAINS, 0.1, record_trace=True)
        assert rep.schedulable
        assert rep.laxity_order_violations == []
        times = [rec.time for rec in rep.trace if 2 in rec.virtual_laxities]
        assert min(times) >= 2.05


@st.composite
def fluid_lanes(draw):
    """1-12 fluid runs of 0-12 users, with their own slot lengths and
    deadlines. Arrivals and sizes come mostly from coarse grids, so laxities
    tie exactly; some users arrive in the last slot before the deadline, and
    sizes up to 4 against deadlines from 1 make many users expire."""
    lanes = []
    for _ in range(draw(st.integers(1, 12))):
        dt = draw(st.sampled_from([0.1, 0.25, 0.3, 0.5, 1 / 3]))
        deadline = draw(st.sampled_from([1.0, 2.0, 2.7, 3.0, 5.0]))
        grid = [a for a in (0.0, 0.25, 0.5, 1.0) if a < deadline]
        last_slot = [deadline - dt / 2, math.nextafter(deadline, 0.0)]
        arrival = st.one_of(
            st.sampled_from(grid + last_slot),
            st.floats(0.0, deadline, exclude_max=True),
        )
        size = st.one_of(
            st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0]), st.floats(0.05, 4.0)
        )
        uids = draw(st.lists(st.integers(1, 40), max_size=12, unique=True))
        lanes.append(([req(u, draw(arrival), draw(size), deadline) for u in uids], dt))
    return lanes


def first_error(runs, gains):
    """The message of the error the one-by-one loop stops on."""
    with pytest.raises(ValueError) as exc:
        [run_fluid(requests, gains, dt) for requests, dt in runs]
    return str(exc.value)


class TestRunFluidBatch:
    """run_fluid_batch against run_fluid, one run at a time, as the
    reference: equal outcomes in equal order, completion times compared
    exactly, and the same errors."""

    @given(fluid_lanes())
    @settings(max_examples=200, deadline=None)
    def test_matches_run_fluid(self, runs):
        batch = run_fluid_batch(runs, GAINS12)
        one_by_one = [run_fluid(requests, GAINS12, dt) for requests, dt in runs]
        assert [list(r.outcomes.items()) for r in batch] == [
            list(r.outcomes.items()) for r in one_by_one
        ]
        assert batch == one_by_one

    def test_covers_ties_expiries_and_last_slot_arrivals(self):
        # two exact ties (users 2, 3 and users 5, 6), users arriving in the
        # last slot, expiries, and lanes with different slot lengths
        runs = [
            ([req(3, 0.0, 1.0, 2.0), req(2, 0.0, 1.0, 2.0), req(1, 0.5, 0.4, 2.0)], 0.1),
            ([req(6, 0.25, 2.0, 3.0), req(5, 0.25, 2.0, 3.0), req(4, 2.9, 0.5, 3.0)], 0.3),
            ([req(7, 0.0, 4.0, 1.0), req(8, math.nextafter(1.0, 0.0), 0.1, 1.0)], 0.25),
        ]
        batch = run_fluid_batch(runs, GAINS12)
        assert batch == [run_fluid(requests, GAINS12, dt) for requests, dt in runs]
        statuses = [o.status for r in batch for o in r.outcomes.values()]
        assert FlowStatus.EXPIRED in statuses and FlowStatus.COMPLETED in statuses

    def test_empty(self):
        assert run_fluid_batch([], GAINS) == []
        empty, one = run_fluid_batch([([], 0.1), ([req(1, 0.0, 1.0, 10.0)], 0.1)], GAINS)
        assert empty == SimReport(outcomes={}) == run_fluid([], GAINS, 0.1)
        assert one.schedulable

    @pytest.mark.parametrize(
        "bad",
        [
            ([req(1, 0.0, 1.0, 10.0), req(2, 0.0, 1.0, 10.0), req(1, 0.5, 2.0, 10.0)], 0.1),
            ([req(1, 0.0, 1.0, 10.0), req(2, 0.0, 1.0, 11.0)], 0.1),
            ([req(1, 0.0, 1.0, 10.0)], 0.0),
            ([], -0.1),
            ([req(u, 0.0, 1.0, 10.0) for u in (1, 2, 3)], 0.1),
            ([req(1, 0.0, 5.0, 10.0), req(2, 0.0, 5.0, 10.0), req(3, 1.0, 1.0, 10.0)], 0.1),
        ],
        ids=["duplicate-ids", "mixed-deadlines", "zero-slot", "negative-slot", "k_max", "k_max-mid-run"],
    )
    def test_errors_match_run_fluid(self, bad):
        good = ([req(1, 0.0, 1.0, 10.0), req(2, 0.5, 0.5, 10.0)], 0.1)
        runs = [good, bad, good]
        expected = first_error(runs, GAINS)
        with pytest.raises(ValueError) as exc:
            run_fluid_batch(runs, GAINS)
        assert str(exc.value) == expected

    def test_first_bad_run_wins(self):
        # the k_max error of run 0 shows only at slot 10; run 1 is rejected
        # up front, yet the one-by-one loop stops on run 0 first
        late = [req(1, 0.0, 5.0, 10.0), req(2, 0.0, 5.0, 10.0), req(3, 1.0, 1.0, 10.0)]
        duplicate = [req(1, 0.0, 1.0, 10.0), req(1, 0.0, 2.0, 10.0)]
        runs = [(late, 0.1), (duplicate, 0.1)]
        expected = first_error(runs, GAINS)
        assert "k_max" in expected
        with pytest.raises(ValueError) as exc:
            run_fluid_batch(runs, GAINS)
        assert str(exc.value) == expected


class TestRunTdm:
    def test_duplicate_user_ids_rejected(self):
        reqs = [req(1, 0.0, 1.0, 50.0), req(1, 0.0, 1.0, 60.0)]
        with pytest.raises(ValueError, match=r"duplicate user_id\(s\) \[1\]"):
            run_tdm(reqs, CHANNEL, make_policy("edf"), 0.1, seed=1)

    def test_empty_requests(self):
        rep = run_tdm([], CHANNEL, make_policy("max-ci"), 0.1, seed=1)
        assert rep.n_users == 0

    def test_single_user_completes_with_slack(self):
        rep = run_tdm([req(1, 0.0, 5.0, 500.0)], CHANNEL, make_policy("max-ci"), 0.25, seed=2)
        assert rep.outcomes[1].status is FlowStatus.COMPLETED

    @pytest.mark.parametrize("mean_sinr", [1.0, 3.0])
    def test_lone_user_is_served_the_sampled_rates(self, mean_sinr):
        # a lone user draws one rate per slot: its traced residuals are its
        # size minus sample_normalized_rates' draws, bit for bit. The size
        # lasts about 3600 slots, and the last bits of a rate show in the
        # residual once that has shrunk towards the rate itself.
        channel = ChannelModel(mean_sinr=mean_sinr)
        dt, slots, size = 0.25, 4096, 900.0
        for seed in range(3, 9):
            rep = run_tdm(
                [req(1, 0.0, size, slots * dt)], channel, make_policy("max-ci"), dt, seed, True
            )
            rates = sample_normalized_rates(channel, generator_from(seed), slots).tolist()
            expected, left = [], size
            for rate in rates:
                expected.append(left)
                left = left - rate * dt
            got = [r.residuals[1] for r in rep.trace]
            assert rep.outcomes[1].status is FlowStatus.COMPLETED, seed
            assert got == expected[: len(got)], seed

    def test_bit_identical_reports(self):
        reqs = [req(1, 0.0, 3.0, 60.0), req(2, 4.0, 2.0, 50.0), req(3, 9.0, 4.0, 80.0)]
        a = run_tdm(reqs, CHANNEL, make_policy("l-log"), 0.2, seed=7, record_trace=True)
        b = run_tdm(reqs, CHANNEL, make_policy("l-log"), 0.2, seed=7, record_trace=True)
        assert a == b

    def test_one_user_served_per_nonempty_slot(self):
        reqs = [req(1, 0.0, 2.0, 90.0), req(2, 0.0, 2.0, 90.0)]
        rep = run_tdm(reqs, CHANNEL, make_policy("max-ci"), 0.25, seed=3, record_trace=True)
        for before, after in zip(rep.trace, rep.trace[1:]):
            moved = [
                u
                for u in after.residuals
                if u in before.residuals and after.residuals[u] < before.residuals[u]
            ]
            assert len(moved) <= 1
            assert before.decision is not None

    def test_expired_user_not_served(self):
        # user 1 expires at t=1.0; afterwards only user 2 may be chosen
        reqs = [req(1, 0.0, 50.0, 1.0), req(2, 0.0, 3.0, 200.0)]
        rep = run_tdm(reqs, CHANNEL, make_policy("edf"), 0.5, seed=4, record_trace=True)
        assert rep.outcomes[1].status is FlowStatus.EXPIRED
        for rec in rep.trace:
            if rec.time >= 1.0:
                assert rec.decision != 1

    def test_arrival_gap_is_skipped_consistently(self):
        # a long idle gap must not change what comes after it
        reqs = [req(1, 0.0, 1.0, 30.0), req(2, 500.0, 1.0, 540.0)]
        rep = run_tdm(reqs, CHANNEL, make_policy("max-ci"), 0.25, seed=5)
        assert rep.outcomes[2].status is FlowStatus.COMPLETED
        assert rep.outcomes[2].completion_time > 500.0


@st.composite
def tdm_requests(draw):
    """0-7 users on grids, so that deadlines fall on slot boundaries and
    users tie exactly in deadline and laxity; some arrive after an idle gap,
    several at once, and many expire."""
    users = draw(
        st.lists(
            st.tuples(
                st.integers(0, 24),  # arrival, in quarter seconds
                st.sampled_from([0.0, 0.0, 25.0]),  # an idle gap before some arrivals
                st.sampled_from([0.05, 0.3, 1.0, 2.5, 6.0]),  # size
                st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0, 7.5]),  # deadline after arrival
            ),
            max_size=7,
        )
    )
    return [
        req(uid, a / 4 + gap, size, a / 4 + gap + span)
        for uid, (a, gap, size, span) in enumerate(users, start=1)
    ]


def same_run(new, ref):
    """Equal outcomes, in equal order with exact completion times, and equal
    trace records."""
    return list(new.outcomes.items()) == list(ref.outcomes.items()) and new.trace == ref.trace


class CountingPolicy:
    """Serves the least-laxity user, smallest id on ties, and records how
    many users each call was given."""

    name = "counting"

    def __init__(self):
        self.sizes = []

    def select_arrays(self, uids, laxities, rates, deadlines):
        self.sizes.append(len(uids))
        return uids[laxities.index(min(laxities))]


class TestRunTdmMatchesReference:
    """run_tdm against the slot loop it replaced (tests/helpers.py), which
    asks the policy at every busy slot and draws one rate per active user
    per slot: every outcome and trace record must be equal."""

    @given(
        tdm_requests(),
        st.sampled_from([0.1, 0.25, 0.5, 1 / 3, 1.0]),
        st.sampled_from(POLICY_NAMES),
        st.booleans(),
        st.integers(0, 2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, requests, dt, name, traced, seed):
        args = (requests, CHANNEL, make_policy(name), dt, seed, traced)
        assert same_run(run_tdm(*args), reference_run_tdm(*args))

    @pytest.mark.parametrize("name", POLICY_NAMES)
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_seeded_corpus(self, name, traced):
        rng = np.random.default_rng(2024)
        for trial in range(40):
            m = int(rng.integers(1, 9))
            arrivals = np.round(rng.uniform(0.0, 20.0, m) * 4) / 4
            sizes = rng.choice([0.1, 0.7, 2.0, 5.0], m) * rng.uniform(0.5, 1.5, m)
            spans = rng.choice([0.5, 2.0, 5.0, 12.0], m)
            reqs = [
                req(u + 1, float(a), float(s), float(a + d))
                for u, (a, s, d) in enumerate(zip(arrivals, sizes, spans))
            ]
            dt = float(rng.choice([0.1, 0.25, 0.5]))
            args = (reqs, CHANNEL, make_policy(name), dt, trial, traced)
            assert same_run(run_tdm(*args), reference_run_tdm(*args)), (trial, reqs, dt)

    # Lone-user stretches: how each ends, and the slot-boundary cases.
    CASES = {
        # user 2 arrives at 2.0 (slot 8): user 1's stretch ends at the admission
        "ended-by-admission": ([req(1, 0.0, 50.0, 100.0), req(2, 2.0, 1.0, 100.0)], 0.25),
        # 10 * 0.25 == 2.5 exactly: the deadline is a slot boundary
        "ended-by-expiry-on-boundary": ([req(1, 0.0, 100.0, 2.5)], 0.25),
        # 3 * 0.1 > 0.3 in floating point: user 1 expires at slot 3
        "ended-by-expiry-rounded": ([req(1, 0.0, 100.0, 0.3), req(2, 1.0, 0.2, 9.0)], 0.1),
        "ended-by-completion": ([req(1, 0.0, 0.6, 50.0), req(2, 0.0, 0.2, 40.0)], 0.1),
        "idle-gap": ([req(1, 0.0, 0.5, 30.0), req(2, 500.0, 1.0, 540.0)], 0.25),
        "simultaneous-admissions": (
            [req(3, 1.0, 2.0, 9.0), req(1, 1.0, 1.0, 8.0), req(2, 1.0, 3.0, 9.0)],
            0.5,
        ),
        # users 1 and 2 tie in deadline and laxity; 3 ties 1 and 2 in deadline
        "exact-ties": (
            [req(1, 0.0, 2.0, 6.0), req(2, 0.0, 2.0, 6.0), req(3, 0.0, 1.0, 6.0)],
            0.25,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_pinned_cases(self, case, name):
        self.check_seeds(*self.CASES[case], name)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_infinite_deadline(self, name):
        self.check_seeds([req(1, 0.0, 3.0, math.inf), req(2, 4.0, 1.0, 8.0)], 0.5, name)

    @staticmethod
    def check_seeds(requests, dt, name):
        for seed in range(5):
            for traced in (False, True):
                args = (requests, CHANNEL, make_policy(name), dt, seed, traced)
                assert same_run(run_tdm(*args), reference_run_tdm(*args))

    def test_pinned_cases_end_stretches_as_named(self):
        def run(case):
            requests, dt = self.CASES[case]
            return run_tdm(requests, CHANNEL, make_policy("edf"), dt, 1, record_trace=True)

        rep = run("ended-by-admission")
        assert [len(r.residuals) for r in rep.trace[:9]] == [1] * 8 + [2]
        rep = run("ended-by-expiry-on-boundary")
        assert rep.outcomes[1].status is FlowStatus.EXPIRED
        assert [r.slot_index for r in rep.trace] == list(range(10))
        rep = run("ended-by-expiry-rounded")
        assert rep.outcomes[1].status is FlowStatus.EXPIRED
        assert [r.slot_index for r in rep.trace][:3] == [0, 1, 2]
        assert rep.trace[3].slot_index == 10  # idle from slot 3 until user 2 at 1.0
        rep = run("ended-by-completion")
        assert list(rep.outcomes) == [2, 1]  # edf serves 2 first, then 1 alone
        assert all(r.decision == 1 for r in rep.trace if len(r.residuals) == 1)
        last = rep.trace[-1]
        assert rep.outcomes[1].completion_time == (last.slot_index + 1) * 0.1
        rep = run("idle-gap")
        assert rep.trace[-1].slot_index > 2000

    def test_rate_buffer_refills_mid_slot(self, monkeypatch):
        # a block shorter than the active set: a slot's rates span refills
        monkeypatch.setattr(engine, "_RATE_BLOCK", 3)
        requests = [req(u, 0.0, 0.5 * u, 20.0) for u in range(1, 8)]
        for name in POLICY_NAMES:
            args = (requests, CHANNEL, make_policy(name), 0.25, 9, True)
            assert same_run(run_tdm(*args), reference_run_tdm(*args))


class TestLoneUserRule:
    """The policy is asked only when two or more users are active."""

    REQUESTS = [
        req(1, 0.0, 2.0, 40.0),
        req(2, 3.0, 1.5, 12.0),
        req(3, 3.0, 4.0, 9.0),
        req(4, 30.0, 1.0, 31.0),
        req(5, 60.0, 3.0, 70.0),
    ]

    def test_policy_never_sees_one_user(self):
        policy = CountingPolicy()
        run_tdm(self.REQUESTS, CHANNEL, policy, 0.25, seed=4)
        assert policy.sizes and min(policy.sizes) >= 2

    def test_trace_keeps_one_record_per_busy_slot(self):
        policy = CountingPolicy()
        rep = run_tdm(self.REQUESTS, CHANNEL, policy, 0.25, seed=4, record_trace=True)
        ref = reference_run_tdm(self.REQUESTS, CHANNEL, CountingPolicy(), 0.25, 4, True)
        assert rep.trace == ref.trace  # the reference asks at every busy slot
        lone = [r for r in rep.trace if len(r.residuals) == 1]
        assert lone and all(r.decision == next(iter(r.residuals)) for r in lone)
        assert len(policy.sizes) == len(rep.trace) - len(lone)
        slots = [r.slot_index for r in rep.trace]
        assert slots == sorted(set(slots))



class CountingEdf:
    """EDF under its own name, so the engine holds it, counting its calls."""

    name = "edf"

    def __init__(self):
        self.calls = 0
        self._edf = make_policy("edf")

    def select_arrays(self, uids, laxities, rates, deadlines):
        self.calls += 1
        return self._edf.select_arrays(uids, laxities, rates, deadlines)


class NonePolicy:
    """Serves no one while any laxity is negative, else the least-laxity
    user: a custom policy that is never held."""

    name = "none-when-late"

    def __init__(self):
        self.calls = 0

    def select_arrays(self, uids, laxities, rates, deadlines):
        self.calls += 1
        if min(laxities) < 0.0:
            return None
        return uids[laxities.index(min(laxities))]


class ChoosesInactive:
    """Chooses a user id that is never active."""

    def __init__(self, name):
        self.name = name

    def select_arrays(self, uids, laxities, rates, deadlines):
        return 999


def multi_user_runs(trace):
    """Maximal runs of consecutive slots with one unchanged set of two or
    more active users."""
    runs, prev = 0, None
    for rec in trace:
        users = set(rec.residuals)
        if len(users) >= 2 and (
            prev is None or prev.slot_index != rec.slot_index - 1 or set(prev.residuals) != users
        ):
            runs += 1
        prev = rec
    return runs


class TestHeldStretches:
    """A held policy (EDF) is asked once per stretch: it serves its choice
    until an admission, the earliest active deadline's slot or the served
    user's completion. Every outcome and trace record equals the
    reference's, which asks at every busy slot."""

    CASES = {
        # user 3 arrives at 2.0 (slot 8) while EDF serves user 1
        "ended-by-admission": (
            [req(1, 0.0, 50.0, 100.0), req(2, 0.0, 50.0, 120.0), req(3, 2.0, 1.0, 110.0)],
            0.25,
        ),
        # 10 * 0.25 == 2.5 exactly: user 1 expires at slot 10
        "ended-by-expiry-on-boundary": (
            [req(1, 0.0, 100.0, 2.5), req(2, 0.0, 1.0, 9.0), req(3, 0.0, 1.0, 9.5)],
            0.25,
        ),
        # 3 * 0.1 > 0.3 in floating point: user 1 expires at slot 3
        "ended-by-expiry-rounded": (
            [req(1, 0.0, 100.0, 0.3), req(2, 0.0, 0.2, 9.0), req(3, 0.0, 0.5, 9.0)],
            0.1,
        ),
        "ended-by-completion": (
            [req(1, 0.0, 0.6, 8.0), req(2, 0.0, 0.4, 8.0), req(3, 0.0, 2.0, 40.0)],
            0.1,
        ),
        # user 1 (deadline 3) completes first and takes the earliest
        # deadline with it: the stretch of users 2 and 3 runs on past slot
        # 12, the first slot at or after 3.0, with no call there
        "stale-expiry-after-completion": (
            [req(1, 0.0, 0.2, 3.0), req(2, 0.0, 100.0, 9.0), req(3, 0.0, 1.0, 9.5)],
            0.25,
        ),
        "idle-gap": (
            [
                req(1, 0.0, 0.5, 30.0),
                req(2, 0.0, 0.5, 31.0),
                req(3, 500.0, 1.0, 540.0),
                req(4, 500.0, 1.0, 541.0),
            ],
            0.25,
        ),
    }
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference(self, case):
        TestRunTdmMatchesReference.check_seeds(*self.CASES[case], "edf")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_call_per_stretch(self, case):
        requests, dt = self.CASES[case]
        for seed in range(5):
            policy = CountingEdf()
            rep = run_tdm(requests, CHANNEL, policy, dt, seed, record_trace=True)
            ref = reference_run_tdm(requests, CHANNEL, make_policy("edf"), dt, seed, True)
            assert same_run(rep, ref)
            slots = [r.slot_index for r in rep.trace]
            assert slots == sorted(set(slots))  # one record per busy slot
            runs = multi_user_runs(rep.trace)
            assert runs >= 1
            assert policy.calls == runs, seed

    def test_cases_end_stretches_as_named(self):
        def run(case):
            requests, dt = self.CASES[case]
            policy = CountingEdf()
            return policy, run_tdm(requests, CHANNEL, policy, dt, 1, record_trace=True)

        policy, rep = run("ended-by-admission")
        assert [len(r.residuals) for r in rep.trace[:9]] == [2] * 8 + [3]
        assert [r.decision for r in rep.trace[:9]] == [1] * 9
        policy, rep = run("ended-by-expiry-on-boundary")
        assert rep.outcomes[1].status is FlowStatus.EXPIRED
        assert [set(r.residuals) for r in rep.trace[9:11]] == [{1, 2, 3}, {2, 3}]
        policy, rep = run("ended-by-expiry-rounded")
        assert rep.outcomes[1].status is FlowStatus.EXPIRED
        assert [len(r.residuals) for r in rep.trace[2:4]] == [3, 2]
        policy, rep = run("ended-by-completion")
        assert list(rep.outcomes)[:2] == [1, 2]
        policy, rep = run("stale-expiry-after-completion")
        assert rep.outcomes[1].status is FlowStatus.COMPLETED
        assert rep.outcomes[1].completion_time < 3.0
        assert set(rep.trace[12].residuals) == set(rep.trace[11].residuals) == {2, 3}
        policy, rep = run("idle-gap")
        assert rep.trace[-1].slot_index > 2000
        assert policy.calls == 2

    def test_rate_buffer_refills_mid_stretch(self, monkeypatch):
        # a block shorter than the active set: a stretch's slots span refills
        monkeypatch.setattr(engine, "_RATE_BLOCK", 3)
        requests = [req(u, 0.0, 0.5 * u, 20.0) for u in range(1, 8)]
        for seed in range(5):
            for traced in (False, True):
                args = (requests, CHANNEL, make_policy("edf"), 0.25, seed, traced)
                assert same_run(run_tdm(*args), reference_run_tdm(*args))
            policy = CountingEdf()
            rep = run_tdm(requests, CHANNEL, policy, 0.25, seed, record_trace=True)
            assert policy.calls == multi_user_runs(rep.trace) == 6  # users 1-7, 2-7, ..., 6-7

    @pytest.mark.parametrize("make", [CountingPolicy, NonePolicy])
    def test_other_policies_are_asked_every_busy_slot(self, make):
        requests, dt = self.CASES["ended-by-completion"]
        requests = requests + [req(4, 0.0, 3.0, 1.0)]  # late from the start
        for seed in range(5):
            args = (requests, CHANNEL, make(), dt, seed)
            assert same_run(run_tdm(*args), reference_run_tdm(*args))
            policy = make()
            rep = run_tdm(requests, CHANNEL, policy, dt, seed, record_trace=True)
            assert same_run(rep, reference_run_tdm(requests, CHANNEL, make(), dt, seed, True))
            calls = policy.calls if make is NonePolicy else len(policy.sizes)
            assert calls == sum(len(r.residuals) >= 2 for r in rep.trace)
        assert any(r.decision is None for r in rep.trace) == (make is NonePolicy)


class CountingDecoder:
    """Wraps sample_normalized_rates and records each block size decoded."""

    def __init__(self):
        self.sizes = []

    def __call__(self, channel, rng, n):
        self.sizes.append(n)
        return sample_normalized_rates(channel, rng, n)


class TestSharedDraws:
    """Every run of a (channel, seed) reads the same decoded draws in the
    same order: neither the runs before it nor the block size may change a
    report."""

    # 7 users at once: with 1- or 3-draw blocks a slot's rates span refills
    REQUESTS = [req(u, 0.0, 0.5 * u, 20.0) for u in range(1, 8)]
    # a stream of 120 users over about 3 blocks of 4096 draws
    STREAM = [req(u, 0.5 * u, 1.0 + u % 5, 0.5 * u + 6.0 + u % 7) for u in range(1, 121)]

    def test_run_history_never_changes_a_report(self):
        seed, other, dt = 11, 12, 0.05

        def run(name, seed=seed):
            return run_tdm(self.STREAM, CHANNEL, make_policy(name), dt, seed, True)

        forward = {name: run(name) for name in POLICY_NAMES}
        backward = {name: run(name) for name in reversed(POLICY_NAMES)}
        interleaved = {}
        for name in POLICY_NAMES:
            run(name, other)
            interleaved[name] = run(name)
        for name in POLICY_NAMES:
            ref = reference_run_tdm(self.STREAM, CHANNEL, make_policy(name), dt, seed, True)
            for rep in (forward[name], backward[name], interleaved[name]):
                assert same_run(rep, ref), name

    @pytest.mark.parametrize("block", [1, 3])
    def test_past_the_cap(self, monkeypatch, block):
        # a block caps what one decode holds; 7 users read past it every slot
        decoder = CountingDecoder()
        monkeypatch.setattr(engine, "sample_normalized_rates", decoder)
        monkeypatch.setattr(engine, "_RATE_BLOCK", block)
        for seed in range(5):
            for name in POLICY_NAMES:
                args = (self.REQUESTS, CHANNEL, make_policy(name), 0.25, seed, True)
                assert same_run(run_tdm(*args), reference_run_tdm(*args)), (seed, name)
        assert len(decoder.sizes) > 1 and set(decoder.sizes) == {block}

    def test_block_size_is_part_of_the_key(self, monkeypatch):
        # a run of the seed with 4096-draw blocks before it must not change
        # the draws a run of 3-draw blocks reads, nor the size it decodes
        seed = 9
        run_tdm(self.REQUESTS, CHANNEL, make_policy("llf"), 0.25, seed)
        decoder = CountingDecoder()
        monkeypatch.setattr(engine, "sample_normalized_rates", decoder)
        monkeypatch.setattr(engine, "_RATE_BLOCK", 3)
        args = (self.REQUESTS, CHANNEL, make_policy("llf"), 0.25, seed, True)
        assert same_run(run_tdm(*args), reference_run_tdm(*args))
        assert len(decoder.sizes) > 1 and set(decoder.sizes) == {3}


class TestBadInputs:
    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_slot_length_must_be_finite_and_positive(self, dt):
        requests = [req(1, 0.0, 1.0, 10.0), req(2, 0.0, 2.0, 10.0)]
        message = r"^slot_length must be finite and > 0$"
        with pytest.raises(ValueError, match=message):
            run_tdm(requests, CHANNEL, make_policy("edf"), dt, seed=1)
        with pytest.raises(ValueError, match=message):
            run_fluid(requests, GAINS, dt)
        with pytest.raises(ValueError, match=message):
            run_fluid_batch([(requests, dt)], GAINS)

    @pytest.mark.parametrize("name", ["max-ci", "edf"], ids=["per-slot", "stretch-start"])
    def test_choice_outside_active_set(self, name):
        # users 1 and 2 from slot 4 (t = 1.0): the first call is at slot 4
        requests = [req(1, 0.0, 9.0, 50.0), req(2, 1.0, 9.0, 50.0)]
        with pytest.raises(ValueError, match=rf"^policy '{name}' chose inactive user 999 at slot 4$"):
            run_tdm(requests, CHANNEL, ChoosesInactive(name), 0.25, seed=1)
