import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laxsched.core import (
    DownloadRequest,
    FlowState,
    FlowStatus,
    advance_flow,
    common_deadline,
    expected_laxity,
    first_slot_at_or_after,
    virtual_expected_laxity,
)


def flow(size=4.0, deadline=10.0, arrival=0.0, uid=1, residual=None):
    req = DownloadRequest(uid, arrival, size, deadline)
    if residual is None:
        return FlowState.new(req)
    status = FlowStatus.COMPLETED if residual == 0.0 else FlowStatus.ACTIVE
    return FlowState(req, residual, status)


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
    def test_residual_above_initial_rejected(self):
        req = DownloadRequest(1, 0.0, 2.0, 8.0)
        with pytest.raises(ValueError):
            FlowState(req, 3.0, FlowStatus.ACTIVE)

    def test_zero_residual_must_be_completed(self):
        req = DownloadRequest(1, 0.0, 2.0, 8.0)
        with pytest.raises(ValueError):
            FlowState(req, 0.0, FlowStatus.ACTIVE)
        with pytest.raises(ValueError):
            FlowState(req, 1.0, FlowStatus.COMPLETED)


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
        assert expected_laxity(flow(size=4.0), 0, 0.1, 1.0) == 6.0

    def test_completed_user(self):
        f = flow(size=4.0, residual=0.0)
        assert expected_laxity(f, 20, 0.1, 1.0) == 8.0

    def test_negative_permitted(self):
        assert expected_laxity(flow(size=11.0, deadline=10.0), 0, 0.1, 1.0) == -1.0


class TestVirtualExpectedLaxity:
    def test_half_deadline(self):
        assert virtual_expected_laxity(flow(size=5.0), 1.0) == 5.0

    def test_completed_equals_deadline(self):
        assert virtual_expected_laxity(flow(size=5.0, residual=0.0), 1.0) == 10.0

    def test_g1_scaling(self):
        assert virtual_expected_laxity(flow(size=2.0), 2.0) == 9.0

    def test_consistency_with_expected_laxity(self):
        # virtual laxity = expected laxity + elapsed time, any slot
        f = flow(size=3.7, residual=1.2)
        for n in (0, 5, 31):
            assert virtual_expected_laxity(f, 1.0) == pytest.approx(
                expected_laxity(f, n, 0.25, 1.0) + n * 0.25, abs=1e-12
            )


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

    def test_accepts_flows(self):
        assert common_deadline([flow(), flow(uid=2)]) == 10.0


class TestAdvanceFlow:
    def test_basic_step(self):
        out = advance_flow(flow(size=5.0), 1.0, 0.1)
        assert out.residual_size == pytest.approx(4.9)
        assert out.status is FlowStatus.ACTIVE

    def test_clamp_to_zero_completes(self):
        out = advance_flow(flow(size=5.0, residual=0.05), 1.0, 0.1)
        assert out.residual_size == 0.0
        assert out.status is FlowStatus.COMPLETED

    def test_zero_rate_identity(self):
        out = advance_flow(flow(size=5.0), 0.0, 0.1)
        assert out.residual_size == 5.0
        assert out.status is FlowStatus.ACTIVE

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            advance_flow(flow(), -0.1, 0.1)

    def test_non_active_rejected(self):
        done = advance_flow(flow(size=1.0, residual=0.01), 1.0, 0.1)
        with pytest.raises(ValueError):
            advance_flow(done, 1.0, 0.1)

    @given(
        size=st.floats(0.1, 50.0),
        rates=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_residual_monotone_and_never_negative(self, size, rates):
        f = flow(size=size, deadline=1e9)
        prev = f.residual_size
        for r in rates:
            if f.status is not FlowStatus.ACTIVE:
                break
            f = advance_flow(f, r, 0.1)
            assert 0.0 <= f.residual_size <= prev
            prev = f.residual_size
        if f.status is FlowStatus.COMPLETED:
            assert f.residual_size == 0.0

    @given(
        size=st.floats(1.0, 50.0),
        rate=st.floats(0.0, 2.0),
        g1=st.floats(0.5, 2.0),
        n=st.integers(0, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_laxity_increment_identity(self, size, rate, g1, n):
        # across one slot without completion: L[n+1] - L[n] = rate*dt/g1 - dt
        dt = 0.1
        f = flow(size=size, deadline=1e4)
        if rate * dt >= size:
            return
        before = expected_laxity(f, n, dt, g1)
        after = expected_laxity(advance_flow(f, rate, dt), n + 1, dt, g1)
        assert after - before == pytest.approx(rate * dt / g1 - dt, abs=1e-9)
