"""Tests of the benchmark's independent checkers on hand-worked instances."""

import math

import pytest

import checks

# Two users, g = (0, 1, 1.5), common deadline 10. User 1 arrives at 0 with a
# file of 6, user 2 at 4 with a file of 5. The capacities by hand:
#   f({1})    = 1 * 10                = 10, ratio 10/6
#   f({2})    = 1 * 6                 =  6, ratio 6/5
#   f({1, 2}) = 1 * 4 + 1.5 * 6       = 13, ratio 13/11
GAINS2 = (0.0, 1.0, 1.5)
DEADLINE = 10.0


class TestSchedulabilityRatio:
    def test_two_user_worked_example(self):
        rho = checks.schedulability_ratio([0.0, 4.0], [6.0, 5.0], DEADLINE, GAINS2)
        assert rho == pytest.approx(13 / 11, abs=1e-15)

    def test_two_user_single_set_binds(self):
        # a larger second file makes {2} the binding set: 6/5.9 < 13/11.9
        rho = checks.schedulability_ratio([0.0, 4.0], [6.0, 5.9], DEADLINE, GAINS2)
        assert rho == pytest.approx(6 / 5.9, abs=1e-15)

    def test_input_order_does_not_matter(self):
        rho = checks.schedulability_ratio([4.0, 0.0], [5.9, 6.0], DEADLINE, GAINS2)
        assert rho == pytest.approx(6 / 5.9, abs=1e-15)

    def test_simultaneous_arrivals_take_the_largest_files(self):
        # with every arrival at 0, f(S) = g_|S| D, so the worst set of size k
        # holds the k largest files
        gains = (0.0, 1.0, 1.4, 1.6, 1.7)
        sizes = [3.0, 9.0, 5.0, 7.0]
        largest = sorted(sizes, reverse=True)
        expected = min(gains[k] * DEADLINE / sum(largest[:k]) for k in range(1, 5))
        rho = checks.schedulability_ratio([0.0] * 4, sizes, DEADLINE, gains)
        assert rho == pytest.approx(expected, rel=1e-14)

    def test_too_few_gains_rejected(self):
        with pytest.raises(ValueError):
            checks.schedulability_ratio([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], DEADLINE, GAINS2)

    def test_subset_capacity_by_epochs(self):
        assert checks.subset_capacity([4.0, 0.0], DEADLINE, GAINS2) == pytest.approx(13.0)
        assert checks.subset_capacity([4.0], DEADLINE, GAINS2) == pytest.approx(6.0)


class TestWitness:
    arrivals = {1: 0.0, 2: 4.0}
    sizes = {1: 6.0, 2: 5.0}
    epochs = (0.0, 4.0, 10.0)

    def problems(self, witness):
        return checks.witness_problems(
            self.arrivals, self.sizes, self.epochs, witness, GAINS2, tol=1e-9
        )

    def test_valid_witness(self):
        # user 1 alone at rate 1 for 4 s, then 2/6 and 5/6 (sum 7/6 <= 1.5)
        assert self.problems([{1: 1.0}, {1: 2 / 6, 2: 5 / 6}]) == []

    def test_rate_past_its_prefix_bound_rejected(self):
        # one rate raised past g_1 = 1
        problems = self.problems([{1: 1.0}, {1: 2 / 6, 2: 1.2}])
        assert any("1 largest" in p for p in problems)

    def test_pair_past_its_prefix_bound_rejected(self):
        # each rate within g_1, the pair past g_2 = 1.5
        problems = self.problems([{1: 1.0}, {1: 0.8, 2: 0.9}])
        assert any("2 largest" in p for p in problems)

    def test_serving_before_arrival_rejected(self):
        problems = self.problems([{1: 1.0, 2: 0.25}, {1: 2 / 6, 2: 4 / 6}])
        assert any("before arrival" in p for p in problems)

    def test_undelivered_file_rejected(self):
        problems = self.problems([{1: 1.0}, {1: 2 / 6, 2: 0.8}])
        assert any("user 2 gets" in p for p in problems)

    def test_wrong_interval_count_rejected(self):
        assert self.problems([{1: 1.0}]) != []


class TestCertificate:
    def test_overloaded_set_accepted(self):
        # {2} needs 7 but only 6 fits between its arrival and the deadline
        assert checks.certificate_problems((2,), {1: 0.0, 2: 4.0}, {1: 6.0, 2: 7.0}, DEADLINE, GAINS2) == []

    def test_set_within_capacity_rejected(self):
        assert checks.certificate_problems((1, 2), {1: 0.0, 2: 4.0}, {1: 6.0, 2: 5.0}, DEADLINE, GAINS2)

    def test_unknown_user_rejected(self):
        assert checks.certificate_problems((3,), {1: 0.0}, {1: 6.0}, DEADLINE, GAINS2)


def choice(policy, uids, laxities, rates, deadlines=None):
    deadlines = deadlines or [100.0] * len(uids)
    scores = checks.tdm_weights(policy, laxities, rates, deadlines)
    best = max(range(len(uids)), key=lambda i: (scores[i], -uids[i]))
    return uids[best]


class TestTdmRules:
    def test_max_ci_takes_the_best_rate_smallest_id_on_ties(self):
        assert choice("max-ci", [3, 5, 8], [1.0, 1.0, 1.0], [0.5, 2.0, 1.0]) == 5
        assert choice("max-ci", [3, 5], [1.0, 1.0], [1.0, 1.0]) == 3

    def test_edf_and_llf(self):
        assert choice("edf", [1, 2, 3], [9.0, 1.0, 5.0], [1.0] * 3, [30.0, 20.0, 10.0]) == 3
        assert choice("edf", [4, 7], [0.0, 0.0], [1.0, 1.0], [10.0, 10.0]) == 4
        assert choice("llf", [1, 2, 3], [9.0, 1.0, 5.0], [1.0] * 3, [30.0, 20.0, 10.0]) == 2

    def test_maxweight(self):
        # weights R / max(L, eps): 1/1 = 1 against 3/4 = 0.75, then 5/4 = 1.25
        assert choice("l-maxweight", [1, 2], [1.0, 4.0], [1.0, 3.0]) == 1
        assert choice("l-maxweight", [1, 2], [1.0, 4.0], [1.0, 5.0]) == 2

    def test_threshold_excludes_likely_expired_users(self):
        # laxity -3 < delta = -2 takes user 1 out despite its rate
        for policy in ("l-maxweight", "l-exp", "l-log"):
            assert choice(policy, [1, 2], [-3.0, 5.0], [10.0, 1.0]) == 2

    def test_nobody_above_threshold_falls_back_to_the_best_rate(self):
        for policy in ("l-maxweight", "l-exp", "l-log"):
            assert choice(policy, [1, 2], [-3.0, -2.5], [0.5, 0.7]) == 2

    def test_exp_weights_by_hand(self):
        # clamped laxities 1 and 3, Lbar = (0.05 + 0.15) / 2 = 0.1,
        # scale = 1 + sqrt(0.1) = 1.316227766
        w = checks.tdm_weights("l-exp", [1.0, 3.0], [1.0, 1.1], [0.0, 0.0])
        assert w[0] == pytest.approx(math.exp(-0.05 / 1.316227766), rel=1e-9)
        assert w[1] == pytest.approx(1.1 * math.exp(-0.15 / 1.316227766), rel=1e-9)
        assert w == pytest.approx([0.962725, 0.981521], abs=1e-6)

    def test_log_weights_clamp_the_laxity(self):
        # laxity 0.0005 clamps to eps = 1e-3: 1 / ln(10.01) against 1.4 / ln(30)
        w = checks.tdm_weights("l-log", [0.0005, 2.0], [1.0, 1.4], [0.0, 0.0])
        assert w == pytest.approx([0.434106, 0.411620], abs=1e-6)
        assert choice("l-log", [1, 2], [0.0005, 2.0], [1.0, 1.4]) == 1

    def test_decision_ok(self):
        args = ([1, 2], [1.0, 4.0], [1.0, 3.0], [50.0, 60.0])
        assert checks.tdm_decision_ok("l-maxweight", *args, 1)
        assert not checks.tdm_decision_ok("l-maxweight", *args, 2)
        assert not checks.tdm_decision_ok("l-maxweight", *args, 9)
        assert checks.tdm_decision_ok("llf", [], [], [], [], None)
        assert not checks.tdm_decision_ok("llf", [1], [0.0], [1.0], [5.0], None)

    def test_decision_ok_allows_rounding_ties_only(self):
        near = ([1, 2], [1.0, 1.0], [1.0, 1.0 + 4e-16], [5.0, 5.0])
        assert checks.tdm_decision_ok("max-ci", *near, 1)
        apart = ([1, 2], [1.0, 1.0], [1.0, 1.0 + 1e-9], [5.0, 5.0])
        assert not checks.tdm_decision_ok("max-ci", *apart, 1)


RUN_OK = (
    checks.RUN_HEADER
    + "\n60,0,11,l2hpr,15,15,0,1,0\n60,1,12,l2hpr,15,12,3,0,0.2\n"
    + "100,0,13,l2hpr,15,10,5,0,0.333333333333\n100,1,14,l2hpr,15,15,0,1,0\n"
)


class TestCliCsv:
    def test_run_csv_ok(self):
        verdict = checks.check_run_csv(RUN_OK, (60, 100), 2, ("l2hpr",))
        assert (verdict.expected, verdict.failed, verdict.flows) == (4, 0, 60)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("15,12,3,0,0.2", "15,12,2,0,0.2"),  # completed + expired != users
            ("15,12,3,0,0.2", "15,12,3,1,0.2"),  # schedulable with expiries
            ("15,12,3,0,0.2", "15,12,3,0,0.25"),  # wrong violation rate
            ("100,1,14,l2hpr,15,15,0,1,0\n", ""),  # missing row
        ],
    )
    def test_run_csv_bad_row(self, old, new):
        verdict = checks.check_run_csv(RUN_OK.replace(old, new), (60, 100), 2, ("l2hpr",))
        assert verdict.failed == 1

    def test_run_csv_duplicate_row_leaves_its_cell_missing(self):
        verdict = checks.check_run_csv(RUN_OK.replace("100,1,14", "100,0,14"), (60, 100), 2, ("l2hpr",))
        assert verdict.failed == 2

    def test_run_csv_bad_header_fails_every_row(self):
        verdict = checks.check_run_csv(RUN_OK.replace("seed,", ""), (60, 100), 2, ("l2hpr",))
        assert verdict.failed == 4

    def test_oracle_csv(self):
        text = checks.ORACLE_HEADER + "\n60,0,0,0\n100,0,1,0\n"
        ok = checks.check_oracle_csv(text, (60, 100), 1, 8)
        assert (ok.failed, ok.flows) == (0, 16)
        bad = checks.check_oracle_csv(text.replace("100,0,1,0", "100,0,2,0"), (60, 100), 1, 8)
        assert bad.failed == 1

    FIG3 = (
        checks.FIG3_HEADER
        + "\n1.5,edf,1,100,40,0.4\n1.5,llf,1,100,60,0.6\n"
        + "7,edf,1,90,9,0.1\n7,llf,1,90,45,0.5\n"
    )

    def test_fig3_csv_ok(self):
        verdict = checks.check_fig3_csv(self.FIG3, (1.5, 7), 1, ("edf", "llf"))
        assert (verdict.failed, verdict.flows) == (0, 380)

    def test_fig3_more_violations_at_larger_stretch_fails(self):
        text = self.FIG3.replace("7,llf,1,90,45,0.5", "7,llf,1,90,63,0.7")
        assert checks.check_fig3_csv(text, (1.5, 7), 1, ("edf", "llf")).failed == 2

    def test_fig3_policies_see_different_users_fails(self):
        text = self.FIG3.replace("7,llf,1,90,45,0.5", "7,llf,1,91,45,0.494505494505")
        assert checks.check_fig3_csv(text, (1.5, 7), 1, ("edf", "llf")).failed == 2

    def test_fig3_wrong_probability_fails(self):
        text = self.FIG3.replace("1.5,edf,1,100,40,0.4", "1.5,edf,1,100,40,0.41")
        assert checks.check_fig3_csv(text, (1.5, 7), 1, ("edf", "llf")).failed == 1
