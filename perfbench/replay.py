"""Traced replay: a workload's CLI round redone through laxsched's public
functions, with every call into a layer timed from here.

The replay builds the same specs, sweep and replication count as the CLI
round, on instances drawn from seeds of its own. It times:

- traffic.gen_stationary and traffic.gen_identical_deadline;
- capacity.estimate_gains;
- engine.run_tdm, whose policy argument is a TimedPolicy around the policy
  from policies.make_policy, so each select_arrays call is timed as well;
- engine.run_fluid, untraced and traced;
- oracle.feasible, on oracle.FeasibilityProblem.from_requests.

It checks every instance against checks.py. The program itself carries no
instrumentation.
"""

from __future__ import annotations

import random
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np
from laxsched import capacity, engine, oracle, policies, traffic
from laxsched.channel import ChannelModel
from laxsched.core import FlowStatus

import checks
import workloads

# Layers the CLI round itself runs; their summed time is what cli.self_s
# subtracts from the CLI's wall time.
CLI_LAYERS = (
    "capacity.estimate_gains",
    "traffic.gen_stationary",
    "traffic.gen_identical_deadline",
    "engine.run_tdm",
    "engine.run_fluid",
    "engine.run_fluid_traced",
    "oracle.feasible",
)
GAIN_SAMPLES = 200_000  # the CLI's default gains.samples
GAIN_K_MAX = 15  # the CLI's default gains.k_max: max(15, user_count)
FLUID_SLOT_FRACTION = 1e-3  # the CLI's fluid slot: 1e-3 of the deadline
TDM_SLOT_FRACTION = 0.01  # the CLI's TDM slot: 1% of the mean service time
# Absolute allowance, per second of deadline, for the LP's row feasibility
# tolerance (1e-7) and the oracle's cut tolerance (1e-9 D) in witness checks.
WITNESS_TOL_PER_S = 1e-6
ORACLE_TOL = 1e-9  # the oracle's documented margin tolerance


class TimedPolicy:
    """Times each select_arrays call of a TDM policy and logs its inputs and
    choice for checking after the run.

    The log is one flat list of numbers, so that it adds a single object for
    the garbage collector to track however many slots the run has.
    """

    def __init__(self, inner):
        self.name = inner.name
        self._select = inner.select_arrays
        self.durations: list[float] = []
        self.log: list = []

    def select_arrays(self, uids, laxities, rates, deadlines):
        start = perf_counter()
        choice = self._select(uids, laxities, rates, deadlines)
        self.durations.append(perf_counter() - start)
        log = self.log
        log.append(len(uids))
        log.extend(uids)
        log.extend(laxities)
        log.extend(rates)
        log.extend(deadlines)
        log.append(choice)
        return choice

    def decisions(self):
        """(uids, laxities, rates, deadlines, choice) of each logged call."""
        log, i = self.log, 0
        while i < len(log):
            n = log[i]
            yield (
                log[i + 1 : i + 1 + n],
                log[i + 1 + n : i + 1 + 2 * n],
                log[i + 1 + 2 * n : i + 1 + 3 * n],
                log[i + 1 + 3 * n : i + 1 + 4 * n],
                log[i + 1 + 4 * n],
            )
            i += 4 * n + 2


class Replay:
    """Replay rounds of one workload and the per-layer figures they give."""

    def __init__(self, workload: workloads.Workload, bench_seed: int, wrap_policies: bool = True):
        self.workload = workload
        self.bench_seed = bench_seed
        # wrap_policies=False runs the bare policies, which measures the
        # wrapper's own cost; decisions are then not checked.
        self.wrap_policies = wrap_policies
        self.channel = ChannelModel()
        self.law = traffic.FileSizeLaw(mean_rate_bps=self.channel.mean_rate_bps)
        self.calls: dict[str, list[float]] = defaultdict(list)  # seconds per call
        self.per_round: dict[str, list[float]] = defaultdict(list)  # one value per round
        self.active: dict[str, list[int]] = defaultdict(list)  # users per select_arrays call
        self.slots: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.in_band = 0  # fluid instances too close to rho = 1 to judge
        self.feasible_failed = 0
        self.rounds = 0
        self.problems: list[str] = []
        self._round: dict[str, float] = {}

    # -- bookkeeping ------------------------------------------------------

    def _timed(self, layer: str, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.calls[layer].append(elapsed)
            self._round[layer] = self._round.get(layer, 0.0) + elapsed

    def _count(self, key: str, amount: float) -> None:
        self._round[key] = self._round.get(key, 0.0) + amount

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def run_round(self, index: int) -> None:
        self._round = {}
        rng = random.Random(f"replay/{self.workload.name}/{self.bench_seed}/{index}")
        if self.workload.command == "reproduce":
            self._stream_round(rng)
        elif self.workload.command == "run":
            self._fluid_round(rng)
        else:
            self._oracle_round(rng)
        self._close_round()

    def _gains(self, rng: random.Random) -> capacity.GainProfile:
        return self._timed(
            "capacity.estimate_gains",
            capacity.estimate_gains,
            self.channel.mean_sinr,
            GAIN_K_MAX,
            GAIN_SAMPLES,
            rng.getrandbits(63),
        )

    def _batch(self, rng: random.Random, deadline: float) -> list:
        spec = traffic.IdenticalDeadlineSpec(
            self.workload.user_count, deadline, workloads.ARRIVAL_SPREAD
        )
        gen = np.random.default_rng(rng.getrandbits(63))
        return self._timed(
            "traffic.gen_identical_deadline", traffic.gen_identical_deadline, spec, self.law, gen
        )

    # -- workloads --------------------------------------------------------

    def _stream_round(self, rng: random.Random) -> None:
        dt = TDM_SLOT_FRACTION * self.law.mean_mb * self.law.norm_factor
        for stretch in workloads.STRETCHES:
            for _ in range(self.workload.replications):
                spec = traffic.StationaryArrivalSpec(workloads.RATE, stretch, workloads.HORIZON)
                gen = np.random.default_rng(rng.getrandbits(63))
                requests = self._timed("traffic.gen_stationary", traffic.gen_stationary, spec, self.law, gen)
                channel_seed = rng.getrandbits(63)
                for name in checks.TDM_POLICIES:
                    policy = policies.make_policy(name)
                    if self.wrap_policies:
                        policy = TimedPolicy(policy)
                    report = self._timed(
                        "engine.run_tdm", engine.run_tdm, requests, self.channel, policy, dt, seed=channel_seed
                    )
                    self.attempted += 1
                    problems = outcome_problems(requests, report, dt)
                    if self.wrap_policies:
                        bad = self._check_decisions(name, policy)
                        if bad:
                            problems.append(f"{bad} of {len(policy.durations)} decisions break the rule")
                    if problems:
                        self._fail(f"{name} stretch {stretch:g}: {problems[0]}")

    def _check_decisions(self, name: str, policy: TimedPolicy) -> int:
        """Record the policy's per-call figures; return how many of its
        decisions differ from the rule's choice."""
        busy = len(policy.durations)
        self.calls[f"select_arrays.{name}"].extend(policy.durations)
        self._count(f"select_arrays.{name}.calls", busy)
        self._count("run_tdm.busy_slots", busy)
        self._count("run_tdm.select_s", sum(policy.durations))
        active = self.active[name]
        bad = 0
        for decision in policy.decisions():
            active.append(len(decision[0]))
            bad += not checks.tdm_decision_ok(name, *decision)
        return bad

    def _fluid_round(self, rng: random.Random) -> None:
        gains = self._gains(rng)
        runs = []
        for deadline in workloads.DEADLINES:
            dt = FLUID_SLOT_FRACTION * deadline
            for _ in range(self.workload.replications):
                requests = self._batch(rng, deadline)
                if self.workload.trace:
                    report = self._timed(
                        "engine.run_fluid_traced", engine.run_fluid, requests, gains, dt, record_trace=True
                    )
                    self.slots["run_fluid_traced"] += len(report.trace)
                    report.trace = None  # checked below without it; frees memory
                else:
                    report = self._timed("engine.run_fluid", engine.run_fluid, requests, gains, dt)
                    self.slots["run_fluid"] += fluid_slots(report, deadline, dt)
                runs.append((deadline, requests, report))
        # Checks run after the timed calls so that their large arrays do not
        # evict the engine's working set between timed runs.
        band = (self.workload.user_count + 1) * FLUID_SLOT_FRACTION
        for deadline, requests, report in runs:
            self.attempted += 1
            dt = FLUID_SLOT_FRACTION * deadline
            problems = outcome_problems(requests, report, dt)
            rho = checks.schedulability_ratio(
                [r.arrival_time for r in requests],
                [r.initial_size for r in requests],
                deadline,
                gains.gains,
            )
            if abs(rho - 1.0) <= band:
                self.in_band += 1
            elif report.schedulable != (rho >= 1.0):
                problems.append(f"schedulable={report.schedulable} with rho={rho!r}")
            if self.workload.trace:
                if report.laxity_order_violations:
                    problems.append(f"{len(report.laxity_order_violations)} laxity-order violations")
                if report.outcomes != engine.run_fluid(requests, gains, dt).outcomes:
                    problems.append("traced outcomes differ from untraced ones")
            if problems:
                self._fail(f"D={deadline:g}, {len(requests)} users: {problems[0]}")

    def _oracle_round(self, rng: random.Random) -> None:
        gains = self._gains(rng)
        for deadline in workloads.DEADLINES:
            for rep in range(self.workload.replications):
                requests = self._batch(rng, deadline)
                self.attempted += 1
                label = f"D={deadline:g} rep {rep}"
                problem = oracle.FeasibilityProblem.from_requests(requests, gains)
                try:
                    verdict = self._timed("oracle.feasible", oracle.feasible, problem)
                except RuntimeError as exc:
                    self.feasible_failed += 1
                    self._fail(f"{label}: oracle raised {exc}")
                    continue
                problems = verdict_problems(requests, deadline, gains.gains, problem.epochs, verdict)
                if problems:
                    self._fail(f"{label}: {problems[0]}")

    # -- figures ----------------------------------------------------------

    def _close_round(self) -> None:
        figures = self._round
        figures["cli_layers_s"] = sum(figures.get(layer, 0.0) for layer in CLI_LAYERS)
        if "engine.run_tdm" in figures:
            figures["run_tdm.self_s"] = figures["engine.run_tdm"] - figures.get("run_tdm.select_s", 0.0)
        for key, value in figures.items():
            self.per_round[key].append(value)
        self.rounds += 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as (value, unit); 0 for a layer this
        workload does not run. Counts and totals are per round (median over
        rounds); timings are quantiles over every call of the run."""
        out: dict[str, tuple[float, str]] = {}

        def per_round(key: str) -> float:
            values = self.per_round.get(key)
            return statistics.median(values) if values else 0.0

        def calls(layer: str) -> float:
            return len(self.calls.get(layer, [])) / self.rounds if self.rounds else 0.0

        def quantile(layer: str, q: int, scale: float) -> float:
            values = self.calls.get(layer)
            if not values:
                return 0.0
            return scale * (statistics.median(values) if q == 50 else percentile(values, q))

        def per_unit(layer: str, units: float, scale: float) -> float:
            return scale * sum(self.calls.get(layer, [])) / units if units else 0.0

        busy = sum(len(self.active[name]) for name in checks.TDM_POLICIES)
        out["engine.run_tdm.calls"] = (calls("engine.run_tdm"), "count")
        out["engine.run_tdm.ms_p50"] = (quantile("engine.run_tdm", 50, 1e3), "ms")
        out["engine.run_tdm.ms_p90"] = (quantile("engine.run_tdm", 90, 1e3), "ms")
        out["engine.run_tdm.busy_slots"] = (per_round("run_tdm.busy_slots"), "count")
        out["engine.run_tdm.us_per_busy_slot"] = (per_unit("engine.run_tdm", busy, 1e6), "us")
        out["engine.run_tdm.self_s"] = (per_round("run_tdm.self_s"), "s")
        for name in checks.TDM_POLICIES:
            prefix = f"policies.select_arrays.{name}"
            active = self.active.get(name)
            out[f"{prefix}.calls"] = (per_round(f"select_arrays.{name}.calls"), "count")
            out[f"{prefix}.us_p50"] = (quantile(f"select_arrays.{name}", 50, 1e6), "us")
            out[f"{prefix}.active_mean"] = (statistics.fmean(active) if active else 0.0, "count")
        out["engine.run_fluid.calls"] = (calls("engine.run_fluid"), "count")
        out["engine.run_fluid.ms_p50"] = (quantile("engine.run_fluid", 50, 1e3), "ms")
        out["engine.run_fluid.ms_p90"] = (quantile("engine.run_fluid", 90, 1e3), "ms")
        out["engine.run_fluid.us_per_slot"] = (
            per_unit("engine.run_fluid", self.slots["run_fluid"], 1e6),
            "us/slot",
        )
        out["engine.run_fluid_traced.calls"] = (calls("engine.run_fluid_traced"), "count")
        out["engine.run_fluid_traced.ms_p50"] = (quantile("engine.run_fluid_traced", 50, 1e3), "ms")
        out["engine.run_fluid_traced.us_per_slot"] = (
            per_unit("engine.run_fluid_traced", self.slots["run_fluid_traced"], 1e6),
            "us/slot",
        )
        out["oracle.feasible.calls"] = (calls("oracle.feasible"), "count")
        out["oracle.feasible.ms_p50"] = (quantile("oracle.feasible", 50, 1e3), "ms")
        out["oracle.feasible.ms_p90"] = (quantile("oracle.feasible", 90, 1e3), "ms")
        out["oracle.feasible.total_s"] = (per_round("oracle.feasible"), "s")
        out["oracle.feasible.failed"] = (self.feasible_failed, "count")
        out["capacity.estimate_gains.s"] = (quantile("capacity.estimate_gains", 50, 1.0), "s")
        out["traffic.gen_stationary.ms_p50"] = (quantile("traffic.gen_stationary", 50, 1e3), "ms")
        out["traffic.gen_identical_deadline.ms_p50"] = (
            quantile("traffic.gen_identical_deadline", 50, 1e3),
            "ms",
        )
        return out


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def fluid_slots(report, deadline: float, dt: float) -> int:
    """Slots the fluid engine stepped, from its outcomes: up to the deadline
    when a user expired, else up to the last completion."""
    if report.n_expired:
        return round(deadline / dt)
    return max(round(o.completion_time / dt) for o in report.outcomes.values())


def outcome_problems(requests, report, dt: float) -> list[str]:
    """Every request has exactly one outcome; a completed flow finishes
    after its arrival and before its deadline plus one slot."""
    problems = []
    ids = [r.user_id for r in requests]
    if sorted(report.outcomes) != sorted(ids) or len(set(ids)) != len(ids):
        problems.append(f"{len(report.outcomes)} outcomes for {len(ids)} requests")
        return problems
    for r in requests:
        o = report.outcomes[r.user_id]
        if o.status is FlowStatus.COMPLETED:
            if not r.arrival_time < o.completion_time <= r.deadline + dt * (1 + 1e-9):
                problems.append(
                    f"user {r.user_id} completes at {o.completion_time!r}, "
                    f"arrival {r.arrival_time!r}, deadline {r.deadline!r}"
                )
        elif o.status is not FlowStatus.EXPIRED or o.completion_time is not None:
            problems.append(f"user {r.user_id} has outcome {o}")
    return problems


def verdict_problems(requests, deadline: float, gains, epochs, verdict) -> list[str]:
    """The oracle's margin is rho - 1, its flag agrees with rho >= 1, its
    witness is a schedule inside the region that finishes every file, and
    its certificate names a set whose demand exceeds its capacity."""
    problems = []
    arrivals = {r.user_id: r.arrival_time for r in requests}
    sizes = {r.user_id: r.initial_size for r in requests}
    rho = checks.schedulability_ratio(
        [r.arrival_time for r in requests], [r.initial_size for r in requests], deadline, gains
    )
    if not abs(verdict.margin - (rho - 1.0)) <= ORACLE_TOL:
        problems.append(f"margin {verdict.margin!r} != rho - 1 = {rho - 1.0!r}")
    if abs(rho - 1.0) > ORACLE_TOL and verdict.feasible != (rho >= 1.0):
        problems.append(f"feasible={verdict.feasible} with rho={rho!r}")
    if verdict.witness is not None:
        tol = WITNESS_TOL_PER_S * max(1.0, deadline)
        problems += checks.witness_problems(arrivals, sizes, epochs, verdict.witness, gains, tol)
    elif verdict.feasible:
        problems.append("feasible verdict without a witness")
    if verdict.certificate is not None:
        problems += checks.certificate_problems(
            verdict.certificate.user_ids, arrivals, sizes, deadline, gains
        )
    return problems
