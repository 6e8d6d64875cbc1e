"""The benchmark's four workloads: what each CLI round runs and checks.

A round is one `laxsched` command with a fixed number of expected result
rows. Every round of a run takes its CLI seed from the benchmark seed and
the round index, so a benchmark seed fixes the inputs of every round.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import checks

DEADLINES = (60.0, 100.0, 140.0, 180.0, 220.0, 260.0, 300.0)
STRETCHES = (1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
ARRIVAL_SPREAD = 0.5
RATE = 0.05  # Poisson arrivals per second in the stream workload
HORIZON = 2000.0


def batch_config(user_count: int, replications: int) -> str:
    """A staggered identical-deadline batch swept over the deadline."""
    return "\n".join(
        [
            "mode = fluid",
            "traffic.kind = identical",
            f"traffic.user_count = {user_count}",
            f"traffic.arrival_spread = {ARRIVAL_SPREAD:g}",
            "sweep.variable = deadline",
            "sweep.values = " + ",".join(f"{d:g}" for d in DEADLINES),
            "policy.names = l2hpr",
            f"replications = {replications}",
        ]
    ) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # reproduce | run | oracle-check
    replications: int
    user_count: int | None = None  # batch size; None for the Poisson stream
    trace: bool = False

    @property
    def sweep(self) -> tuple[float, ...]:
        return STRETCHES if self.command == "reproduce" else DEADLINES

    @property
    def policies(self) -> tuple[str, ...]:
        return checks.TDM_POLICIES if self.command == "reproduce" else ("l2hpr",)

    @property
    def rows(self) -> int:
        """Expected result rows of one round: one simulation or verdict each."""
        if self.command == "reproduce":
            return len(self.sweep) * len(self.policies)
        return len(self.sweep) * self.replications * len(self.policies)

    def cli_seed(self, bench_seed: int, round_index: int) -> int:
        return random.Random(f"cli/{self.name}/{bench_seed}/{round_index}").getrandbits(63)

    def argv(self, workdir: str, cli_seed: int) -> list[str]:
        """The CLI arguments of one round; writes its config into workdir
        and points the CLI's output at workdir/out."""
        os.makedirs(os.path.join(workdir, "out"))
        out = os.path.join(workdir, "out", "out.csv")
        tail = ["--out", out, "--seed", str(cli_seed), "--jobs", "1"]
        if self.command == "reproduce":
            return ["reproduce", "fig3b", "--replications", str(self.replications), *tail]
        config = os.path.join(workdir, "config.txt")
        with open(config, "w") as fh:
            fh.write(batch_config(self.user_count, self.replications))
        argv = [self.command, "--config", config, *tail]
        return argv + ["--trace"] if self.trace else argv

    def check_output(self, workdir: str) -> checks.CsvVerdict:
        """Check the CSV (and traces) one round left in workdir."""
        try:
            with open(os.path.join(workdir, "out", "out.csv")) as fh:
                text = fh.read()
        except OSError as exc:
            verdict = checks.CsvVerdict(expected=self.rows)
            verdict.fail(self.rows, f"no output: {exc}")
            return verdict
        if self.command == "reproduce":
            return checks.check_fig3_csv(text, self.sweep, self.replications, self.policies)
        if self.command == "oracle-check":
            return checks.check_oracle_csv(text, self.sweep, self.replications, self.user_count)
        verdict = checks.check_run_csv(text, self.sweep, self.replications, self.policies)
        if self.trace:
            trace_dir = os.path.join(workdir, "out", "out.csv.traces")
            for d in self.sweep:
                for rep in range(self.replications):
                    path = os.path.join(trace_dir, f"{d:g}_rep{rep}_l2hpr.csv")
                    if not (os.path.isfile(path) and checks.check_trace_file(path)):
                        verdict.fail(1, f"trace {path} missing or without its header")
        return verdict


# Each workload stresses a different layer; the others do none of its work,
# so a change to one layer should move its own workload and leave the rest.
WORKLOADS = {
    w.name: w
    for w in (
        # run_tdm and select_arrays do nearly all the work
        Workload("stream-tdm", "reproduce", replications=1),
        # the fluid engine's slot loop, plus one gain estimation
        Workload("batch-fluid", "run", replications=30, user_count=15),
        # laxity-history tracking and trace writing on the same batches
        Workload("batch-fluid-trace", "run", replications=3, user_count=15, trace=True),
        # the oracle's LP cut loop; M = 8 is the largest size at which every
        # staggered instance converges quickly
        Workload("oracle-m8", "oracle-check", replications=1, user_count=8),
    )
}
