import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laxsched.capacity import GainProfile
from laxsched.channel import ChannelModel
from laxsched.core import (
    DownloadRequest,
    FlowStatus,
    common_deadline,
    first_slot_at_or_after,
)
from laxsched.engine import run_fluid, run_tdm
from laxsched.policies import _l2hpr_rates, make_policy

# g1 = 1, so a virtual laxity is D - F and an expected laxity D - n*dt - F
GAINS = GainProfile((0.0, 1.0, 1.5, 1.8))


def traced(sizes, deadline=10.0, slot=0.1, arrivals=None):
    """A traced fluid run of users 1..m with a common deadline."""
    arrivals = arrivals or [0.0] * len(sizes)
    reqs = [DownloadRequest(i + 1, a, s, deadline) for i, (a, s) in enumerate(zip(arrivals, sizes))]
    return run_fluid(reqs, GAINS, slot, record_trace=True)


def expected_laxity(record, uid):
    """D - n*dt - F/g1 at a trace record: the virtual laxity less the time."""
    return record.virtual_laxities[uid] - record.time


def staggered_tdm():
    reqs = [
        DownloadRequest(1, 0.0, 2.0, 8.0),
        DownloadRequest(2, 1.0, 3.0, 9.0),
        DownloadRequest(3, 2.5, 0.5, 6.0),
    ]
    return reqs, run_tdm(reqs, ChannelModel(), make_policy("edf"), 0.1, seed=1, record_trace=True)


class TestRequestValidation:
    def test_accepts_valid(self):
        r = DownloadRequest(3, 1.5, 2.0, 9.0)
        assert r.user_id == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(user_id=0),
            dict(arrival_time=-1.0),
            dict(initial_size=0.0),  # zero-size arrivals are rejected, not guessed
            dict(initial_size=-2.0),
            dict(deadline=0.5),  # not after arrival
        ],
    )
    def test_rejects_invalid(self, kwargs):
        base = dict(user_id=1, arrival_time=1.0, initial_size=2.0, deadline=8.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            DownloadRequest(**base)


class TestFlowState:
    # the engines keep a user's residual in a plain dict keyed by id; it must
    # hold what a flow's state would: 0 <= residual <= initial size, and 0
    # exactly once the user has completed

    def test_residual_above_initial_rejected(self):
        reqs, tdm = staggered_tdm()
        fluid = run_fluid(
            [DownloadRequest(r.user_id, r.arrival_time, r.initial_size, 8.0) for r in reqs],
            GAINS,
            0.1,
            record_trace=True,
        )
        size = {r.user_id: r.initial_size for r in reqs}
        for rec in fluid.trace + tdm.trace:
            for uid, left in rec.residuals.items():
                assert 0.0 <= left <= size[uid]

    def test_zero_residual_must_be_completed(self):
        rep = traced([2.0, 3.0, 4.5], deadline=6.0, arrivals=[0.0, 1.0, 2.5])
        assert rep.n_completed and rep.n_expired
        for rec in rep.trace:
            for uid, left in rec.residuals.items():
                out = rep.outcomes[uid]
                done = out.status is FlowStatus.COMPLETED and out.completion_time <= rec.time
                assert (left == 0.0) == done


class TestFirstSlot:
    @given(t=st.floats(0.0, 1e6), dt=st.floats(1e-6, 1e3))
    @example(t=0.3, dt=0.1)  # 0.3 // 0.1 == 2.0, but 2 * 0.1 < 0.3
    @example(t=0.0, dt=0.1)
    @example(t=0.7, dt=0.1)
    @example(t=1.0, dt=0.25)
    @settings(max_examples=300, deadline=None)
    def test_first_boundary_at_or_after(self, t, dt):
        n = first_slot_at_or_after(t, dt)
        assert n >= 0 and n * dt >= t
        assert n == 0 or (n - 1) * dt < t


class TestExpectedLaxity:
    def test_direct_substitution(self):
        assert expected_laxity(traced([4.0]).trace[0], 1) == 6.0

    def test_completed_user(self):
        rec = traced([0.5, 9.0]).trace[20]
        assert rec.residuals[1] == 0.0
        assert expected_laxity(rec, 1) == 8.0

    def test_negative_permitted(self):
        assert expected_laxity(traced([11.0]).trace[0], 1) == -1.0


class TestVirtualExpectedLaxity:
    def test_half_deadline(self):
        assert traced([5.0]).trace[0].virtual_laxities[1] == 5.0

    def test_completed_equals_deadline(self):
        rec = traced([0.5, 9.0]).trace[20]
        assert rec.residuals[1] == 0.0
        assert rec.virtual_laxities[1] == 10.0

    def test_consistency_with_expected_laxity(self):
        # virtual laxity = expected laxity + elapsed time, any slot, and the
        # engine ranks users by expected laxity
        rep = traced([3.7, 9.0, 16.0], deadline=20.0, slot=0.25)
        for n in (0, 5, 31):
            rec = rep.trace[n]
            active = [u for u in sorted(rec.residuals) if rec.residuals[u] > 0.0]
            lax = [20.0 - n * 0.25 - rec.residuals[u] for u in active]
            for u, ell in zip(active, lax):
                assert rec.virtual_laxities[u] == pytest.approx(ell + n * 0.25, abs=1e-12)
            assert rec.decision == _l2hpr_rates(active, lax, GAINS)


class TestCommonDeadline:
    def test_returns_shared(self):
        reqs = [DownloadRequest(i, 0.0, 1.0, 7.0) for i in (1, 2, 3)]
        assert common_deadline(reqs) == 7.0

    def test_mixed_rejected(self):
        reqs = [DownloadRequest(1, 0.0, 1.0, 7.0), DownloadRequest(2, 0.0, 1.0, 8.0)]
        with pytest.raises(ValueError):
            common_deadline(reqs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            common_deadline([])


class TestAdvanceFlow:
    def test_basic_step(self):
        rec = traced([5.0]).trace[1]
        assert rec.residuals[1] == pytest.approx(4.9)
        assert rec.decision == {1: 1.0}

    def test_clamp_to_zero_completes(self):
        # user 1 ranks second and gets 0.5 * 0.1 > 0.03 in slot 0
        rep = traced([0.03, 5.0])
        assert rep.trace[1].residuals[1] == 0.0
        assert rep.outcomes[1].status is FlowStatus.COMPLETED
        assert rep.outcomes[1].completion_time == 0.1

    def test_zero_rate_identity(self):
        # a TDM user not served in a slot keeps its residual exactly
        _, rep = staggered_tdm()
        idle = 0
        for rec, nxt in zip(rep.trace, rep.trace[1:]):
            assert nxt.slot_index == rec.slot_index + 1
            for uid, left in rec.residuals.items():
                if uid != rec.decision and uid in nxt.residuals:
                    assert nxt.residuals[uid] == left
                    idle += 1
        assert idle > 0

    def test_non_active_rejected(self):
        # a completed TDM user is never held or served again
        _, rep = staggered_tdm()
        completed = [o for o in rep.outcomes.values() if o.status is FlowStatus.COMPLETED]
        assert completed
        for o in completed:
            for rec in rep.trace:
                if rec.time >= o.completion_time:
                    assert o.user_id not in rec.residuals and rec.decision != o.user_id

    @given(
        sizes=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=3),
        arrivals=st.lists(st.floats(0.0, 20.0), min_size=3, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_residual_monotone_and_never_negative(self, sizes, arrivals):
        rep = traced(sizes, deadline=60.0, slot=0.5, arrivals=arrivals[: len(sizes)])
        prev = {}
        for rec in rep.trace:
            for uid, left in rec.residuals.items():
                assert 0.0 <= left <= prev.get(uid, sizes[uid - 1])
                prev[uid] = left
                out = rep.outcomes[uid]
                if out.status is FlowStatus.COMPLETED and out.completion_time <= rec.time:
                    assert left == 0.0

    @given(sizes=st.lists(st.floats(1.0, 20.0), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_laxity_increment_identity(self, sizes):
        # across one slot without completion: L[n+1] - L[n] = rate*dt/g1 - dt
        dt = 0.1
        rep = traced(sizes, deadline=30.0, slot=dt)
        for rec, nxt in zip(rep.trace, rep.trace[1:]):
            for uid, rate in rec.decision.items():
                if nxt.residuals[uid] == 0.0:
                    continue
                step = expected_laxity(nxt, uid) - expected_laxity(rec, uid)
                assert step == pytest.approx(rate * dt - dt, abs=1e-9)
