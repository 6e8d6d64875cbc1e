"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy suites share
module-scoped fixtures so each instance set is generated and simulated once.
"""

import itertools
import time

import numpy as np
import pytest

from laxsched.capacity import GainProfile, diversity_gains
from laxsched.channel import ChannelModel, sample_normalized_rates
from laxsched.cli import build_experiment_config, cmd_run, parse_config_text
from laxsched.core import DownloadRequest
from laxsched.engine import least_laxity_limit, least_laxity_floor, run_fluid, run_tdm
from laxsched.oracle import FeasibilityProblem, feasible, replay_witness
from laxsched.policies import make_policy
from laxsched.seeding import child_seed, generator_from
from laxsched.traffic import (
    FileSizeLaw,
    StationaryArrivalSpec,
    gen_stationary,
    sample_file_sizes_mb,
)

from helpers import (
    exhaustive_grid_feasible,
    lognormal_untruncated_moments,
)

G2_QUADRATURE = 1.3940970653737912

GAINS2 = GainProfile((0.0, 1.0, 1.5))


def _ok(num, text):
    print(f"\n[acceptance] criterion {num}: PASS - {text}")


@pytest.fixture(scope="module")
def gains15():
    return diversity_gains(1.0, 15)


@pytest.fixture(scope="module")
def gains8(gains15):
    return GainProfile(gains15.gains[:9])


@pytest.fixture(scope="module")
def invariant_suite(gains15):
    """>= 200 random identical-deadline instances (M <= 10, a in {0, 0.5}),
    run under the fluid policy with full laxity tracking."""
    rng = generator_from(42)
    runs = []
    deadline = 10.0
    for trial in range(200):
        m = int(rng.integers(2, 11))
        spread = 0.0 if trial % 2 == 0 else 0.5
        sizes = rng.uniform(0.3, 0.95 * deadline, size=m)
        arrivals = rng.uniform(0.0, spread * deadline, size=m)
        reqs = [
            DownloadRequest(i + 1, float(arrivals[i]), float(sizes[i]), deadline)
            for i in range(m)
        ]
        dt = deadline / 300.0
        report = run_fluid(reqs, gains15, dt, record_trace=True)
        runs.append((m, spread, deadline, dt, report))
    return runs


@pytest.fixture(scope="module")
def convergence_suite(gains8):
    """>= 500 oracle-feasible, non-borderline, simultaneous-arrival instances
    (M <= 8) with their feasibility results."""
    rng = generator_from(1234)
    kept = []
    attempts = 0
    while len(kept) < 500 and attempts < 3000:
        attempts += 1
        m = int(rng.integers(3, 9))
        sizes = rng.uniform(5.0, 40.0, size=m)
        stretch = rng.uniform(1.05, 1.6)
        d = float(stretch * sizes.sum() / gains8.gains[m])
        if sizes.max() >= d:
            continue
        reqs = [
            DownloadRequest(i + 1, 0.0, float(sizes[i]), d) for i in range(m)
        ]
        problem = FeasibilityProblem.from_requests(reqs, gains8)
        res = feasible(problem)
        if res.feasible and not res.borderline:
            kept.append((reqs, d, problem, res))
    assert len(kept) >= 500
    return kept


@pytest.fixture(scope="module")
def staggered_suite(gains8):
    """Staggered twin of the convergence suite: arrivals uniform on [0, D/2]."""
    rng = generator_from(555)
    kept = []
    attempts = 0
    while len(kept) < 500 and attempts < 3000:
        attempts += 1
        m = int(rng.integers(3, 9))
        sizes = rng.uniform(5.0, 40.0, size=m)
        stretch = rng.uniform(1.05, 1.6)
        d = float(stretch * sizes.sum() / gains8.gains[m])
        if sizes.max() >= d:
            continue
        arrivals = np.sort(rng.uniform(0.0, 0.5 * d, size=m))
        arrivals[0] = 0.0
        reqs = [
            DownloadRequest(i + 1, float(arrivals[i]), float(sizes[i]), d)
            for i in range(m)
        ]
        res = feasible(FeasibilityProblem.from_requests(reqs, gains8))
        if res.feasible and not res.borderline:
            kept.append((reqs, d, m))
    assert len(kept) >= 500
    return kept


class TestCriterion1:
    def test_two_user_worked_example(self):
        reqs = [
            DownloadRequest(1, 0.0, 5.0, 10.0),
            DownloadRequest(2, 0.0, 5.0, 10.0),
        ]
        report = run_fluid(reqs, GAINS2, 0.1, record_trace=True)
        observed = report.trace[1].least_virtual_laxity()
        expected = 10.0 / 2.0 + (1.5 - 1.0) / 1.0 * 0.1
        assert observed == pytest.approx(expected, abs=1e-12)

        best = min(
            self._timed_run(reqs) for _ in range(5)
        )
        assert best < 1e-3, f"run took {best * 1e3:.3f} ms"
        _ok(1, f"least virtual laxity {observed} after slot 1; run {best*1e3:.3f} ms")

    @staticmethod
    def _timed_run(reqs):
        t0 = time.perf_counter()
        run_fluid(reqs, GAINS2, 0.1, record_trace=True)
        return time.perf_counter() - t0


class TestCriterion2:
    def test_laxity_order_invariant_every_slot(self, invariant_suite):
        t0 = time.perf_counter()
        for m, spread, deadline, dt, report in invariant_suite:
            assert report.laxity_order_violations == [], (
                f"laxity-order invariant violated (M={m}, a={spread})"
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        _ok(2, f"no laxity-order violations across {len(invariant_suite)} runs")


class TestCriterion3:
    def test_least_laxity_floor_every_slot(self, invariant_suite, gains15):
        checked = 0
        for m, spread, deadline, dt, report in invariant_suite:
            if spread != 0.0:
                continue
            tol = 1e-9 * deadline
            initial = report.trace[0].virtual_laxities
            for rec in report.trace:
                members = sorted(rec.least_laxity_set)
                bound = least_laxity_floor(
                    [initial[u] for u in members], rec.slot_index, dt, gains15, m, deadline
                )
                assert rec.least_virtual_laxity() >= bound - tol
            checked += 1
        assert checked >= 90
        _ok(3, f"slotted laxity lower bound held on {checked} simultaneous runs")


class TestCriterion4:
    def test_completion_converges_in_slot_length(self, convergence_suite, gains8):
        t0 = time.perf_counter()
        total = fine_done = coarse_done = 0
        for reqs, d, problem, res in convergence_suite:
            fine = run_fluid(reqs, gains8, 1e-3 * d)
            coarse = run_fluid(reqs, gains8, 1e-1 * d)
            total += len(reqs)
            fine_done += fine.n_completed
            coarse_done += coarse.n_completed
            assert fine.schedulable, f"fine run left tasks at margin {res.margin:.4f}"
        assert fine_done == total
        assert coarse_done <= fine_done
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        _ok(
            4,
            f"dt=1e-3*D completed {fine_done}/{total} tasks; "
            f"dt=1e-1*D completed {coarse_done} ({elapsed:.0f}s)",
        )


class TestCriterion5:
    def test_staggered_bound_agreement(self, staggered_suite, gains8):
        worst = 0.0
        for reqs, d, m in staggered_suite:
            arrivals = {r.user_id: r.arrival_time for r in reqs}
            initial = {r.user_id: d - r.initial_size for r in reqs}
            for frac in (1e-1, 1e-2, 1e-3):
                dt = frac * d
                report = run_fluid(reqs, gains8, dt, record_trace=True)
                rec = report.trace[-1]
                observed = rec.least_virtual_laxity()
                members = sorted(rec.least_laxity_set, key=lambda u: arrivals[u])
                bound = least_laxity_limit(
                    [arrivals[u] for u in members],
                    [initial[u] for u in members],
                    gains8,
                    rec.time,
                    d,
                )
                tol = (m - 1) * dt + 1e-6 * d
                err = abs(observed - bound)
                worst = max(worst, err / tol)
                assert err <= tol, f"err {err} > tol {tol} at dt={dt} (M={m})"
        _ok(
            5,
            f"continuous-time bound matched on {len(staggered_suite)} staggered "
            f"instances (worst err/tol {worst:.2f})",
        )


class TestCriterion6:
    def test_witness_replay_soundness(self, convergence_suite):
        failures = 0
        for reqs, d, problem, res in convergence_suite:
            if not replay_witness(problem, res.witness):
                failures += 1
        assert failures == 0
        _ok(6, f"all {len(convergence_suite)} witnesses replayed to completion")

    def test_grid_search_agreement_m4(self):
        gains = GainProfile((0.0, 1.0, 1.394097, 1.621773, 1.776493))
        deadline = 4.0
        checked = 0
        for sizes in itertools.product((1.0, 2.0, 3.0), repeat=4):
            reqs = [
                DownloadRequest(i + 1, 0.0, s, deadline) for i, s in enumerate(sizes)
            ]
            res = feasible(FeasibilityProblem.from_requests(reqs, gains))
            if res.borderline:
                continue
            assert exhaustive_grid_feasible(reqs, gains.gains, q=16) == res.feasible
            checked += 1
        for sizes in itertools.product((1.0, 2.0, 3.0), repeat=3):
            reqs = [
                DownloadRequest(1, 0.0, sizes[0], deadline),
                DownloadRequest(2, 1.5, sizes[1], deadline),
                DownloadRequest(3, 1.5, sizes[2], deadline),
            ]
            res = feasible(FeasibilityProblem.from_requests(reqs, gains))
            grid = exhaustive_grid_feasible(reqs, gains.gains, q=16)
            if grid:
                assert res.feasible
            if abs(res.margin) > 0.25:
                assert grid == res.feasible
                checked += 1
        assert checked >= 90
        _ok(6, f"oracle agreed with exhaustive allocation search on {checked} grid instances")


class TestCriterion7:
    # operating point: at stretch 4 the greedy policy's violation probability
    # sits near 1e-2 (pilot runs put it around 0.016)
    XI = 4.0
    ARRIVALS = 100_000

    def test_stationary_policy_ordering(self):
        t0 = time.perf_counter()
        law = FileSizeLaw()
        channel = ChannelModel()
        dt = 0.01 * law.mean_mb * law.norm_factor
        spec = StationaryArrivalSpec(0.05, self.XI, self.ARRIVALS / 0.05)
        reqs = gen_stationary(spec, law, generator_from(2024))
        assert len(reqs) >= self.ARRIVALS

        viol = {}
        for name in ("l-log", "max-ci", "llf", "edf"):
            rep = run_tdm(reqs, channel, make_policy(name), dt, seed=child_seed(2024, 1))
            viol[name] = rep.n_expired / rep.n_users
        elapsed = time.perf_counter() - t0
        assert elapsed < 900.0

        assert 3e-3 <= viol["max-ci"] <= 3e-2, f"operating point drifted: {viol}"
        assert viol["l-log"] <= 0.5 * viol["max-ci"], viol
        assert viol["l-log"] < viol["max-ci"] < viol["llf"], viol
        assert viol["max-ci"] < viol["edf"], viol
        ratio = max(viol["llf"], viol["edf"]) / min(viol["llf"], viol["edf"])
        assert ratio < 3.0, f"channel-oblivious baselines diverged: {viol}"
        _ok(
            7,
            f"violations l-log={viol['l-log']:.2e} max-ci={viol['max-ci']:.2e} "
            f"llf={viol['llf']:.2e} edf={viol['edf']:.2e} ({elapsed:.0f}s)",
        )


class TestCriterion8:
    def test_truncation_cap(self):
        mb = sample_file_sizes_mb(FileSizeLaw(), generator_from(81), 1_000_000)
        assert mb.max() <= 5.0

    def test_moment_matching_closed_form(self):
        law = FileSizeLaw()
        mean, std = lognormal_untruncated_moments(law.log_mu, law.log_sigma)
        assert mean == pytest.approx(2.0, abs=1e-9)
        assert std == pytest.approx(0.722, abs=1e-9)

    def test_normalized_rate_mean(self):
        rates = sample_normalized_rates(ChannelModel(), generator_from(82), 1_000_000)
        mc_err = rates.std() / np.sqrt(rates.size)
        assert abs(rates.mean() - 1.0) <= 3.0 * mc_err
        _ok(
            8,
            f"size cap, closed-form moments, and rate mean 1 ± {3*mc_err:.1e} all hold",
        )


class TestCriterion9:
    def test_gain_profile_quality(self, gains15):
        g = gains15.gains
        assert g[1] == 1.0
        assert all(b > a for a, b in zip(g, g[1:]))
        incs = [b - a for a, b in zip(g, g[1:])]
        assert all(b < a for a, b in zip(incs[1:], incs[2:]))
        assert g[2] == pytest.approx(G2_QUADRATURE, abs=0.01)
        _ok(9, f"g_2={g[2]:.4f} vs quadrature {G2_QUADRATURE:.4f}, profile strictly concave")


class TestCriterion10:
    CONFIG = """
mode = tdm
traffic.kind = stationary
traffic.rate = 0.05
traffic.horizon = 600
sweep.variable = stretch
sweep.values = 2,4
policy.names = l-log,max-ci
replications = 4
slot_length = 0.5
"""

    def test_byte_identical_csv(self, tmp_path):
        cfg = build_experiment_config(parse_config_text(self.CONFIG))
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        cmd_run(cfg, paths[0], base_seed=99, jobs=1, trace=False)
        cmd_run(cfg, paths[1], base_seed=99, jobs=1, trace=False)
        cmd_run(cfg, paths[2], base_seed=99, jobs=8, trace=False)
        a, b, c = (p.read_bytes() for p in paths)
        assert a == b, "repeated invocation differs"
        assert a == c, "--jobs 8 differs from --jobs 1"
        _ok(10, f"byte-identical CSV across reruns and jobs 1 vs 8 ({len(a)} bytes)")
