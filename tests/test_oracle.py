import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxsched.capacity import GainProfile, diversity_gains
from laxsched.channel import ChannelModel
from laxsched.cli import _Cells, build_experiment_config, main, parse_config_text
from laxsched.core import DownloadRequest
from laxsched.engine import run_fluid, run_tdm
from laxsched.oracle import (
    FeasibilityProblem,
    _l2hpr_limit,
    _witness,
    feasible,
    replay_witness,
    subset_capacity,
)
from laxsched.policies import make_policy
from laxsched.seeding import generator_from
from laxsched.traffic import FileSizeLaw, IdenticalDeadlineSpec, gen_identical_deadline

from helpers import (
    brute_force_max_gap,
    brute_force_rho,
    exhaustive_grid_feasible,
    quadrature_gain_profile,
    scipy_modules_after,
    subset_feasible,
    witness_region_problems,
)

GAINS = GainProfile(
    (0.0, 1.0, 1.394097, 1.621773, 1.776493, 1.891485, 1.982625, 2.057353)
)


def req(uid, arrival, size, deadline):
    return DownloadRequest(uid, arrival, size, deadline)


def problem(reqs):
    return FeasibilityProblem.from_requests(reqs, GAINS)


class TestProblemConstruction:
    def test_epochs(self):
        p = problem([req(1, 0.0, 1.0, 10.0), req(2, 3.0, 1.0, 10.0), req(3, 3.0, 1.0, 10.0)])
        assert p.epochs == (0.0, 3.0, 10.0)
        assert p.deadline == 10.0

    def test_mixed_deadlines_rejected(self):
        with pytest.raises(ValueError):
            problem([req(1, 0.0, 1.0, 10.0), req(2, 0.0, 1.0, 11.0)])

    def test_duplicate_user_ids_rejected(self):
        reqs = [req(1, 0.0, 1.0, 10.0), req(1, 0.0, 2.0, 10.0)]
        with pytest.raises(ValueError, match=r"duplicate user_id\(s\) \[1\]"):
            problem(reqs)

    def test_too_many_users_rejected(self):
        reqs = [req(i + 1, 0.0, 0.5, 10.0) for i in range(GAINS.k_max + 1)]
        with pytest.raises(ValueError):
            problem(reqs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            problem([])

    @pytest.mark.parametrize(
        "reqs, message",
        [
            # the witness merged the two ids into one key, and replay failed it
            ([req(1, 0.0, 1.0, 10.0), req(1, 0.0, 2.0, 10.0)], r"duplicate user_id\(s\) \[1\]"),
            # these two raised IndexError inside feasible
            ([req(i + 1, 0.0, 0.5, 10.0) for i in range(GAINS.k_max + 1)], "exceed gain profile"),
            ([], "at least one request"),
        ],
        ids=["duplicate-ids", "too-many-users", "empty"],
    )
    def test_direct_construction_checked(self, reqs, message):
        with pytest.raises(ValueError, match=message):
            FeasibilityProblem(tuple(reqs), GAINS)


class TestSingleUser:
    def test_feasible_iff_size_fits_window(self):
        ok = feasible(problem([req(1, 2.0, 7.9, 10.0)]))
        assert ok.feasible and not ok.borderline
        bad = feasible(problem([req(1, 2.0, 8.1, 10.0)]))
        assert not bad.feasible

    def test_boundary_is_borderline(self):
        res = feasible(problem([req(1, 2.0, 8.0, 10.0)]))
        assert res.borderline

    def test_margin_sign(self):
        assert feasible(problem([req(1, 0.0, 5.0, 10.0)])).margin == pytest.approx(1.0)
        assert feasible(problem([req(1, 0.0, 20.0, 10.0)])).margin == pytest.approx(-0.5)


class TestSimultaneousSubsetEquivalence:
    def test_two_user_half_deadline(self):
        res = feasible(problem([req(1, 0.0, 5.0, 10.0), req(2, 0.0, 5.0, 10.0)]))
        assert res.feasible

    def test_matches_brute_force_subsets(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(60):
            m = int(rng.integers(2, 7))
            sizes = rng.uniform(1.0, 9.0, size=m)
            reqs = [req(i + 1, 0.0, float(sizes[i]), 10.0) for i in range(m)]
            res = feasible(problem(reqs))
            if res.borderline:
                continue
            assert res.feasible == subset_feasible(reqs, GAINS.gains)
            checked += 1
        assert checked >= 50

    def test_staggered_matches_subset_condition(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            m = int(rng.integers(2, 6))
            sizes = rng.uniform(1.0, 8.0, size=m)
            arrivals = np.sort(rng.uniform(0.0, 5.0, size=m))
            arrivals[0] = 0.0
            reqs = [
                req(i + 1, float(arrivals[i]), float(sizes[i]), 10.0) for i in range(m)
            ]
            res = feasible(problem(reqs))
            if res.borderline:
                continue
            assert res.feasible == subset_feasible(reqs, GAINS.gains)


class TestWitness:
    def test_replay_completes(self):
        rng = np.random.default_rng(23)
        replayed = 0
        for _ in range(40):
            m = int(rng.integers(1, 6))
            sizes = rng.uniform(0.5, 6.0, size=m)
            arrivals = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 4.0, size=m - 1))))
            reqs = [
                req(i + 1, float(arrivals[i]), float(sizes[i]), 10.0) for i in range(m)
            ]
            prob = problem(reqs)
            res = feasible(prob)
            if not res.feasible:
                continue
            assert replay_witness(prob, res.witness)
            replayed += 1
        assert replayed >= 10

    def test_witness_rates_in_region(self):
        reqs = [req(1, 0.0, 6.0, 10.0), req(2, 3.0, 4.0, 10.0), req(3, 5.0, 3.5, 10.0)]
        prob = problem(reqs)
        res = feasible(prob)
        assert res.feasible
        for rates in res.witness:
            assert GAINS.in_region(list(rates.values()), atol=1e-7)

    def test_infeasible_has_no_witness(self):
        res = feasible(problem([req(1, 0.0, 20.0, 10.0)]))
        assert res.witness is None


class TestLazyWitness:
    REQS = [req(1, 0.0, 6.0, 10.0), req(2, 3.0, 4.0, 10.0), req(3, 5.0, 3.5, 10.0)]

    def test_built_once_and_cached(self):
        res = feasible(problem(self.REQS))
        assert res.witness is res.witness

    def test_equals_eager_witness(self):
        prob = problem(self.REQS)
        res = feasible(prob)
        assert res.witness == _witness(prob, 1.0 + res.margin)

    def test_infeasible_is_none_without_scipy(self):
        code = (
            "from laxsched import DownloadRequest, FeasibilityProblem, GainProfile, feasible\n"
            "gains = GainProfile((0.0, 1.0, 1.394097))\n"
            "reqs = [DownloadRequest(1, 0.0, 9.0, 10.0), DownloadRequest(2, 2.0, 8.0, 10.0)]\n"
            "res = feasible(FeasibilityProblem.from_requests(reqs, gains))\n"
            "assert not res.feasible and res.witness is None"
        )
        assert scipy_modules_after(code) == []

    def test_equality_ignores_whether_witness_was_read(self):
        prob = problem(self.REQS)
        read, unread = feasible(prob), feasible(prob)
        assert read == unread
        assert read.witness is not None
        assert read == unread and unread == read
        assert unread.witness is not None
        assert read == unread


class TestCertificate:
    def test_single_user_certificate(self):
        res = feasible(problem([req(1, 2.0, 8.1, 10.0)]))
        assert res.certificate is not None
        assert res.certificate.user_ids == (1,)
        assert res.certificate.demand > res.certificate.capacity
        assert "users" in res.certificate.as_text()

    def test_certificate_identifies_overload(self):
        rng = np.random.default_rng(25)
        found = 0
        for _ in range(40):
            m = int(rng.integers(2, 6))
            sizes = rng.uniform(2.0, 9.5, size=m)
            reqs = [req(i + 1, 0.0, float(sizes[i]), 10.0) for i in range(m)]
            res = feasible(problem(reqs))
            if res.feasible or res.borderline:
                continue
            cert = res.certificate
            assert cert is not None
            members = [r for r in reqs if r.user_id in cert.user_ids]
            demand = sum(r.initial_size for r in members)
            cap = subset_capacity([r.arrival_time for r in members], 10.0, GAINS)
            assert demand > cap
            found += 1
        assert found >= 5


class TestGridSearchAgreement:
    def tight_gains(self):
        return GainProfile((0.0, 1.0, 1.394097, 1.621773, 1.776493))

    def test_simultaneous_m4_grid(self):
        # one interval, so the search is the exact drain test: agreement holds
        # everywhere outside the borderline band
        gains = self.tight_gains()
        deadline = 4.0
        checked = 0
        for sizes in itertools.product((1.0, 2.0, 3.0), repeat=4):
            reqs = [req(i + 1, 0.0, s, deadline) for i, s in enumerate(sizes)]
            res = feasible(FeasibilityProblem.from_requests(reqs, gains))
            if res.borderline:
                continue
            grid = exhaustive_grid_feasible(reqs, gains.gains, q=16)
            assert grid == res.feasible, f"sizes={sizes} margin={res.margin}"
            checked += 1
        assert checked >= 75

    def test_staggered_m3_grid(self):
        # q=16 rounding in the first interval costs at most m*l1/q of prefix
        # headroom in the last; at margin rho - 1 a schedule has (1 - 1/rho)*g_m
        # spare, so a 0.25 margin band safely covers the grid resolution here
        gains = self.tight_gains()
        deadline = 4.0
        checked = 0
        for sizes in itertools.product((1.0, 2.0, 3.0), repeat=3):
            for second_arrival in (1.0, 2.0):
                reqs = [
                    req(1, 0.0, sizes[0], deadline),
                    req(2, second_arrival, sizes[1], deadline),
                    req(3, second_arrival, sizes[2], deadline),
                ]
                res = feasible(FeasibilityProblem.from_requests(reqs, gains))
                grid = exhaustive_grid_feasible(reqs, gains.gains, q=16)
                if grid:
                    # a grid schedule is a real schedule
                    assert res.feasible
                if abs(res.margin) <= 0.25:
                    continue
                assert grid == res.feasible, f"sizes={sizes} margin={res.margin}"
                checked += 1
        assert checked >= 25


class TestPolicyDominance:
    def test_no_policy_completes_infeasible_instances(self):
        rng = np.random.default_rng(29)
        channel = ChannelModel()
        tested = 0
        while tested < 10:
            m = int(rng.integers(2, 6))
            sizes = rng.uniform(2.0, 9.0, size=m)
            reqs = [req(i + 1, 0.0, float(sizes[i]), 10.0) for i in range(m)]
            res = feasible(problem(reqs))
            if res.feasible or res.borderline:
                continue
            fluid = run_fluid(reqs, GAINS, 0.002)
            assert not fluid.schedulable
            tdm = run_tdm(reqs, channel, make_policy("max-ci"), 0.002, seed=tested)
            assert not tdm.schedulable
            tested += 1


class TestFrontier:
    """Both ends of a deadline sweep, as oracle-check and run_fluid see them."""

    @pytest.fixture(scope="class")
    def verdicts(self, tmp_path_factory):
        # oracle-check on a 4-user batch, 8 replications per deadline
        tmp = tmp_path_factory.mktemp("frontier")
        (tmp / "batch.txt").write_text(
            "mode = fluid\ntraffic.kind = identical\ntraffic.user_count = 4\n"
            "traffic.arrival_spread = 0.5\nsweep.variable = deadline\nsweep.values = 0.5,640\n"
            "policy.names = l2hpr\nreplications = 8\n"
        )
        out = tmp / "oracle.csv"
        assert main(["oracle-check", "--config", str(tmp / "batch.txt"), "--out", str(out)]) == 0
        by_d: dict[str, list[str]] = {}
        for row in out.read_text().splitlines()[1:]:
            deadline, _, is_feasible, _ = row.split(",")
            by_d.setdefault(deadline, []).append(is_feasible)
        return by_d

    def test_tiny_deadline_infeasible(self, verdicts):
        assert verdicts["0.5"] == ["0"] * 8

    def test_huge_deadline_feasible(self, verdicts):
        assert verdicts["640"] == ["1"] * 8

    def test_l2hpr_completes_at_huge_deadline(self):
        requests = gen_identical_deadline(
            IdenticalDeadlineSpec(3, 500.0, 0.0), FileSizeLaw(), generator_from(5)
        )
        assert run_fluid(requests, GAINS, slot_length=1e-3 * 500.0).schedulable


class TestWitnessText:
    def test_dump_format(self):
        reqs = [req(1, 0.0, 4.0, 10.0), req(2, 3.0, 3.0, 10.0)]
        prob = problem(reqs)
        res = feasible(prob)
        assert res.feasible
        from laxsched.oracle import witness_text

        text = witness_text(prob, res.witness)
        assert text.startswith("interval 0 [0, 3):")
        assert "user 1: rate" in text


@st.composite
def tied_instances(draw):
    """M <= 10 users with arrivals on a coarse grid (exact ties), strictly
    concave gains, and a load around the capacity of the whole set."""
    m = draw(st.integers(1, 10))
    ratios = draw(st.lists(st.floats(0.05, 0.95), min_size=m - 1, max_size=m - 1))
    increments = [1.0]
    for r in sorted(ratios, reverse=True):
        increments.append(increments[-1] * r)
    gains = tuple(itertools.accumulate([0.0, *increments]))
    deadline = draw(st.sampled_from([1.0, 10.0, 60.0, 300.0]))
    slots = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    load = draw(st.floats(0.2, 2.0))
    scale = load * gains[m] * deadline / sum(weights)
    reqs = [
        req(i + 1, deadline * slots[i] / 10.0, weights[i] * scale, deadline)
        for i in range(m)
    ]
    return reqs, GainProfile(gains)


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(tied_instances())
    def test_margin_verdict_and_certificate(self, instance):
        reqs, gains = instance
        res = feasible(FeasibilityProblem.from_requests(reqs, gains))
        rho = brute_force_rho(reqs, gains.gains)
        assert abs(res.margin - (rho - 1.0)) <= 1e-12 * rho
        assert res.feasible == (rho >= 1.0 - 1e-9)
        if res.feasible:
            assert res.certificate is None and res.witness is not None
            return
        gap = brute_force_max_gap(reqs, gains.gains)
        cert = res.certificate
        demand = sum(r.initial_size for r in reqs)
        assert cert.demand - cert.capacity == pytest.approx(gap, rel=1e-12, abs=1e-12 * demand)
        first = min(r.arrival_time for r in reqs if r.user_id in cert.user_ids)
        assert cert.window == (first, reqs[0].deadline)

    @settings(max_examples=150, deadline=None)
    @given(tied_instances())
    def test_l2hpr_limit_is_optimal(self, instance):
        # the L2HPR limit ends by D exactly when the instance is feasible, and
        # with the load rescaled to rho = 1 it has no slack: it ends at D
        reqs, gains = instance
        deadline = reqs[0].deadline
        arrivals = [r.arrival_time for r in reqs]
        sizes = [r.initial_size for r in reqs]
        rho = brute_force_rho(reqs, gains.gains)
        _, done = _l2hpr_limit(arrivals, sizes, gains.gains)
        assert (max(done) <= deadline * (1.0 + 1e-9)) == (rho >= 1.0 - 1e-9)
        _, done = _l2hpr_limit(arrivals, [size * rho for size in sizes], gains.gains)
        assert max(done) == pytest.approx(deadline, rel=1e-12)

    def test_witness_in_region_up_to_m15(self):
        # each instance is rescaled to sit just inside capacity (rho in
        # [1, 1.05]), where a witness has next to no slack to hide an error
        gains = GainProfile(quadrature_gain_profile(15))
        rng = np.random.default_rng(31)
        deadline = 100.0
        for trial in range(30):
            m = int(rng.integers(1, 16))
            arrivals = rng.uniform(0.0, 0.5 * deadline, size=m)
            if trial % 2:
                arrivals = np.round(arrivals / 10.0) * 10.0  # exact ties
            sizes = rng.uniform(0.2, 1.0, size=m)
            reqs = [req(i + 1, float(arrivals[i]), float(sizes[i]), deadline) for i in range(m)]
            rho = 1.0 + feasible(FeasibilityProblem.from_requests(reqs, gains)).margin
            scale = rho / (1.0 + rng.uniform(0.0, 0.05))
            reqs = [req(r.user_id, r.arrival_time, r.initial_size * scale, deadline) for r in reqs]
            prob = FeasibilityProblem.from_requests(reqs, gains)
            res = feasible(prob)
            assert res.feasible
            tol = 1e-7 * deadline  # in data units
            assert witness_region_problems(reqs, prob.epochs, res.witness, gains.gains, tol) == []
            assert replay_witness(prob, res.witness)


class TestStaggeredM12:
    """The 21 staggered M = 12 instances of `oracle-check --seed 7` (arrival
    spread 0.5, D = 60..300, 3 replications), on which the former LP cut
    loop raised after 8-13 s each."""

    def test_every_instance_answers_exactly(self):
        text = "\n".join([
            "mode = fluid",
            "traffic.kind = identical",
            "traffic.user_count = 12",
            "traffic.arrival_spread = 0.5",
            "sweep.variable = deadline",
            "sweep.values = 60,100,140,180,220,260,300",
            "policy.names = l2hpr",
            "replications = 3",
        ])
        config = build_experiment_config(parse_config_text(text))
        gains = diversity_gains(config.channel.mean_sinr, config.specs[0].user_count)
        verdicts = []
        for si in range(len(config.sweep_values)):
            for rep in range(config.replications):
                reqs = _Cells(config, 7).requests((si, rep))
                res = feasible(FeasibilityProblem.from_requests(reqs, gains))
                rho = brute_force_rho(reqs, gains.gains)
                assert abs(res.margin - (rho - 1.0)) <= 1e-12 * rho
                verdicts.append(res.feasible)
        assert len(verdicts) == 21
        assert 0 < sum(verdicts) < 21  # both verdicts occur
