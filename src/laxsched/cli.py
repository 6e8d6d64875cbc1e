"""Experiment runner: config-driven replication sweeps, oracle checks, and
the preset experiment families.

Config files are flat ``key = value`` text with dotted sections and ``#``
comments. Every key must be one that the config's run reads
(``_CONFIG_KEYS``), and none may repeat; the model keys are the fields of
the model dataclasses, defaults included. Each subcommand declares only the
flags it reads. Results are CSV with a mandatory header, '.' decimals, and
'\\n' line endings; identical (config, seed) pairs produce byte-identical
output regardless of --jobs.

Exit codes: 0 success, 2 config or usage error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields

from .capacity import GainProfile, diversity_gains
from .channel import ChannelModel
from .engine import SimReport, run_fluid, run_fluid_batch, run_tdm
from .oracle import FeasibilityProblem, feasible
from .policies import _URGENCIES, POLICY_NAMES, FrameworkParams, make_policy
from .seeding import child_generator, child_seed
from .traffic import (
    FileSizeLaw,
    IdenticalDeadlineSpec,
    StationaryArrivalSpec,
    gen_identical_deadline,
    gen_stationary,
)

__all__ = ["main", "ConfigError", "ExperimentConfig", "parse_config_text", "load_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

RUN_HEADER = (
    "sweep_value,replication,seed,policy,n_users,n_completed,n_expired,"
    "schedulable,violation_rate"
)
ORACLE_HEADER = "sweep_value,replication,feasible,borderline"
TRACE_HEADER = "slot,user_id,residual,virtual_laxity,in_LLS,decision"

# Most cells one run_fluid_batch call steps together. Per-slot numpy overhead
# is shared by the cells of a call, so the time per cell falls as calls grow
# and flattens out at a few hundred; _run_cells also splits the cells evenly
# over the --jobs workers.
_FLUID_BATCH = 512


class ConfigError(Exception):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; a repeated key is an error."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value
    return out


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _get(kv: dict[str, str], key: str, cast):
    if key not in kv:
        raise ConfigError(f"missing config key {key!r}")
    try:
        value = cast(kv[key])
        if value != value:  # NaN, which no setting means
            raise ValueError(kv[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {kv[key]!r}") from exc
    return value


def _built(what: str, cls, *args, **kwargs):
    """cls(*args, **kwargs), its ValueError turned into a ConfigError."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _fields(cls, *skip: str) -> tuple:
    """The init fields of model dataclass cls, but those named in skip."""
    return tuple(f for f in fields(cls) if f.init and f.name not in skip)


_CAST = {"int": int, "float": float}  # a field's annotation -> its key's cast


def _model_args(kv: dict[str, str], prefix: str, model_fields) -> dict:
    """The arguments that the keys ``prefix + field name`` give, each cast
    by its field's annotation. An unset key leaves its field's default, and
    a field with no default needs its key."""
    return {
        f.name: _get(kv, prefix + f.name, _CAST[f.type])
        for f in model_fields
        if prefix + f.name in kv or f.default is MISSING
    }


# Each traffic kind's spec, the field of it that sweep.variable names, and
# what that field is called in messages.
_TRAFFIC = {
    "identical": (IdenticalDeadlineSpec, "deadline", "deadline"),
    "stationary": (StationaryArrivalSpec, "stretch", "stretch factor"),
}
_CHANNEL = _fields(ChannelModel)
_SIZE = _fields(FileSizeLaw, "mean_rate_bps")  # the channel sets the rate
_FRAMEWORK = tuple(_URGENCIES)
# The prefix of each framework policy's own policy.* keys, and the
# parameters that every framework policy reads under their own names.
_KEY_PREFIX = {"l-maxweight": "", "l-exp": "exp_", "l-log": "log_"}
_SHARED = _fields(FrameworkParams, "urgency")

# Every config key, and the runs that read it: "" every run; a traffic kind,
# the runs of that traffic.kind; a tuple of policies, the runs listing one of
# them (the policy.* overrides). run and oracle-check reject a key that their
# config's run does not read.
_CONFIG_KEYS: dict[str, str | tuple[str, ...]] = {
    "mode": "",
    "traffic.kind": "",
    **{
        f"traffic.{f.name}": kind
        for kind, (spec, swept, _) in _TRAFFIC.items()
        for f in _fields(spec, swept)
    },
    "sweep.variable": "",
    "sweep.values": "",
    "policy.names": "",
    "replications": "",
    "slot_length": "",
    **{f"channel.{f.name}": "" for f in _CHANNEL},
    **{f"size.{f.name}": "" for f in _SIZE},
    **{f"policy.{f.name}": _FRAMEWORK for f in _SHARED},
    **{
        f"policy.{_KEY_PREFIX[name]}{f.name}": (name,)
        for name, urgency in _URGENCIES.items()
        for f in _fields(urgency)
    },
}


def _reject_unknown_keys(kv: dict[str, str]) -> None:
    for key in kv:
        if key not in _CONFIG_KEYS:
            import difflib  # only on this error path, so parsing pays no import

            (near,) = difflib.get_close_matches(key, _CONFIG_KEYS, n=1, cutoff=0.0)
            raise ConfigError(f"unknown config key {key!r}; did you mean {near!r}?")


def _reject_unread_keys(kv: dict[str, str], kind: str, policies) -> None:
    for key in kv:
        scope = _CONFIG_KEYS[key]
        if isinstance(scope, tuple):
            if not set(scope) & set(policies):
                raise ConfigError(
                    f"{key} is read only by {'/'.join(scope)}, not by any policy in policy.names"
                )
        elif scope not in ("", kind):
            raise ConfigError(f"{key} is read only when traffic.kind = {scope}, not {kind}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep experiment, built once from the config: for each sweep
    value its traffic spec and slot length, for each listed policy its
    framework parameters (None for a policy that takes none), and the size
    law and channel that every cell shares."""

    mode: str  # fluid | tdm
    traffic_kind: str  # identical | stationary
    sweep_values: tuple[float, ...]
    specs: tuple[IdenticalDeadlineSpec | StationaryArrivalSpec, ...]
    slot_lengths: tuple[float, ...]
    policies: tuple[str, ...]
    params: tuple[FrameworkParams | None, ...]
    replications: int
    law: FileSizeLaw
    channel: ChannelModel


def build_experiment_config(kv: dict[str, str]) -> ExperimentConfig:
    _reject_unknown_keys(kv)
    mode = _get(kv, "mode", str)
    if mode not in ("fluid", "tdm"):
        raise ConfigError(f"mode must be fluid or tdm, got {mode!r}")
    kind = _get(kv, "traffic.kind", str)
    if kind not in _TRAFFIC:
        raise ConfigError(f"traffic.kind must be identical or stationary, got {kind!r}")

    policies = tuple(
        p.strip() for p in _get(kv, "policy.names", str).split(",") if p.strip()
    )
    if not policies:
        raise ConfigError("policy.names must list at least one policy")
    for i, p in enumerate(policies):
        if p != "l2hpr" and p not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {p!r}")
        if p in policies[:i]:
            raise ConfigError(f"policy.names lists {p!r} more than once")
    if mode == "fluid" and set(policies) != {"l2hpr"}:
        raise ConfigError("fluid mode runs exactly the l2hpr policy")
    if mode == "tdm" and "l2hpr" in policies:
        raise ConfigError("l2hpr is fluid-only; tdm mode takes the heuristic/baseline policies")
    _reject_unread_keys(kv, kind, policies)

    replications = _get(kv, "replications", int)
    if replications < 1:
        raise ConfigError("replications must be >= 1")

    sweep_variable = _get(kv, "sweep.variable", str)
    values_raw = _get(kv, "sweep.values", str)
    try:
        sweep_values = tuple(float(v) for v in values_raw.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad sweep.values {values_raw!r}") from exc
    if not sweep_values:
        raise ConfigError("sweep.values must be nonempty")
    if list(sweep_values) != sorted(sweep_values):
        raise ConfigError("sweep.values must be sorted ascending")
    for low, high in zip(sweep_values, sweep_values[1:]):
        if low == high:
            raise ConfigError(f"sweep.values must be strictly ascending; {high:g} is repeated")

    # every sweep value's spec, checked before any run
    spec, swept, swept_name = _TRAFFIC[kind]
    if mode == "fluid" and kind != "identical":
        raise ConfigError("fluid mode needs identical-deadline traffic")
    if sweep_variable != swept:
        raise ConfigError(f"{kind} traffic sweeps the {swept_name}")
    traffic = _model_args(kv, "traffic.", _fields(spec, swept))
    specs = tuple(
        _built(f"traffic at {v:g}", spec, **traffic, **{swept: v}) for v in sweep_values
    )

    channel = _built("channel", ChannelModel, **_model_args(kv, "channel.", _CHANNEL))
    size = _model_args(kv, "size.", _SIZE)
    law = _built("size law", FileSizeLaw, **size, mean_rate_bps=channel.mean_rate_bps)

    slot_length = _get(kv, "slot_length", float) if "slot_length" in kv else 0.0
    if not 0.0 <= slot_length < math.inf:
        raise ConfigError("slot_length must be finite and > 0 (omit or 0 for the default rule)")
    if slot_length:
        slot_lengths = (slot_length,) * len(sweep_values)
    elif mode == "fluid":
        slot_lengths = tuple(1e-3 * v for v in sweep_values)  # deadline sweep
    else:  # one slot is 1% of the mean flow service time
        slot_lengths = (0.01 * law.mean_mb * law.norm_factor,) * len(sweep_values)

    return ExperimentConfig(
        mode=mode,
        traffic_kind=kind,
        sweep_values=sweep_values,
        specs=specs,
        slot_lengths=slot_lengths,
        policies=policies,
        params=tuple(
            _built(f"parameters for {name}", _framework_params, name, kv) for name in policies
        ),
        replications=replications,
        law=law,
        channel=channel,
    )


def _framework_params(name: str, kv: dict[str, str]) -> FrameworkParams | None:
    """The framework parameters of policy ``name``: the published defaults
    with the config's policy.* overrides applied; None for policies that take none."""
    if name not in _KEY_PREFIX:
        return None
    urgency = _URGENCIES[name]
    own = _model_args(kv, f"policy.{_KEY_PREFIX[name]}", _fields(urgency))
    return FrameworkParams(urgency(**own), **_model_args(kv, "policy.", _SHARED))


def _gains(config: ExperimentConfig) -> GainProfile:
    """The gain table of a batch, which never has more than user_count active."""
    return diversity_gains(config.channel.mean_sinr, config.specs[0].user_count)


def _write_csv(path: str, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_trace(path: str, report: SimReport) -> None:
    """One row per (slot, user): the fluid rows cover the served users and
    give their rates, the TDM rows cover the active users and flag the one
    chosen. Floats are written with 12 significant digits."""
    lines = [TRACE_HEADER]
    add = lines.append
    rate_text: dict[float, str] = {}  # fluid rates are marginal gains: few values
    for rec in report.trace or []:
        head = f"{rec.slot_index},"
        residuals, laxities, decision = rec.residuals, rec.virtual_laxities, rec.decision
        if isinstance(decision, dict):  # fluid: per-user allocated rate
            lls = rec.least_laxity_set or ()
            for uid in sorted(decision):
                rate = decision[uid]
                text = rate_text.get(rate)
                if text is None:
                    text = rate_text[rate] = "%.12g" % rate
                add(
                    "%s%d,%.12g,%.12g,%d,%s"
                    % (head, uid, residuals[uid], laxities[uid], uid in lls, text)
                )
        else:  # tdm: chosen-user flag
            for uid in sorted(residuals):
                add(
                    "%s%d,%.12g,%.12g,0,%d"
                    % (head, uid, residuals[uid], laxities[uid], uid == decision)
                )
    _write_csv(path, lines)


@dataclass(frozen=True)
class _Cells:
    """The (sweep index, replication) cells of one command, and what else each
    reads: the config, the base seed, the gain table of fluid runs and oracle
    checks, and a traced run's directory. _map hands the methods to workers."""

    config: ExperimentConfig
    base_seed: int
    gains: GainProfile | None = None
    trace_dir: str | None = None

    def keys(self) -> list[tuple[int, int]]:
        """Every cell, in output order."""
        reps = range(self.config.replications)
        return [(si, rep) for si in range(len(self.config.sweep_values)) for rep in reps]

    def requests(self, cell: tuple[int, int]) -> list:
        """The requests of a cell, which its runs and its verdict share."""
        si, rep = cell
        config = self.config
        gen = gen_identical_deadline if config.traffic_kind == "identical" else gen_stationary
        return gen(config.specs[si], config.law, child_generator(self.base_seed, si, rep, 0))

    def result(self, cell: tuple[int, int], name: str, report: SimReport) -> tuple:
        """One policy's result tuple for a cell."""
        si, rep = cell
        seed = child_seed(self.base_seed, si, rep)
        counts = (report.n_users, report.n_completed, report.n_expired, report.schedulable)
        return (self.config.sweep_values[si], rep, seed, name, *counts)

    def run(self, cell: tuple[int, int]) -> list[tuple]:
        """Every listed policy on one cell; returns per-policy result tuples."""
        si, rep = cell
        config, trace = self.config, bool(self.trace_dir)
        requests, dt = self.requests(cell), config.slot_lengths[si]
        results = []
        for name, params in zip(config.policies, config.params):
            if name == "l2hpr":
                report = run_fluid(requests, self.gains, dt, record_trace=trace)
            else:
                seed = child_seed(self.base_seed, si, rep, 1)
                policy = make_policy(name, params)
                report = run_tdm(requests, config.channel, policy, dt, seed, record_trace=trace)
            if trace:
                csv_name = f"{config.sweep_values[si]:g}_rep{rep}_{name}.csv"
                _write_trace(os.path.join(self.trace_dir, csv_name), report)
            results.append(self.result(cell, name, report))
        return results

    def run_fluid(self, cells: list[tuple[int, int]]) -> list[list[tuple]]:
        """Untraced fluid cells, stepped together by one run_fluid_batch call.
        Fluid mode runs only l2hpr, so one report serves each listed policy."""
        runs = [(self.requests(cell), self.config.slot_lengths[cell[0]]) for cell in cells]
        return [
            [self.result(cell, name, report) for name in self.config.policies]
            for cell, report in zip(cells, run_fluid_batch(runs, self.gains))
        ]

    def verdict(self, cell: tuple[int, int]) -> str:
        """The oracle-check row of a cell, on the instance its runs simulate."""
        si, rep = cell
        verdict = feasible(FeasibilityProblem.from_requests(self.requests(cell), self.gains))
        flags = f"{int(verdict.feasible)},{int(verdict.borderline)}"
        return f"{self.config.sweep_values[si]:.12g},{rep},{flags}"


def _run_cells(config: ExperimentConfig, base_seed: int, jobs: int, trace_dir=None):
    gains = _gains(config) if config.mode == "fluid" else None
    cells = _Cells(config, base_seed, gains, trace_dir)
    keys = cells.keys()
    if config.mode == "fluid" and not trace_dir:
        size = min(_FLUID_BATCH, -(-len(keys) // jobs))
        chunks = [keys[i : i + size] for i in range(0, len(keys), size)]
        return [result for results in _map(cells.run_fluid, chunks, jobs, 1) for result in results]
    return _map(cells.run, keys, jobs, 8)


def _map(fn, items: list, jobs: int, chunksize: int) -> list:
    """fn over items, in order, on up to jobs worker processes. The pool
    starts every worker on its first submit, so it gets no more workers than
    there are items."""
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [fn(item) for item in items]
    # imported here: loading it costs every serial command about 20 ms
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def cmd_run(config: ExperimentConfig, out_path: str, base_seed: int, jobs: int, trace: bool) -> None:
    trace_dir = None
    if trace:
        # trace files name the sweep value with %g, and sorted values that
        # print alike are neighbours
        values = config.sweep_values
        for low, high in zip(values, values[1:]):
            if f"{low:g}" == f"{high:g}":
                raise ConfigError(
                    f"--trace would write sweep values {low!r} and {high!r} to the same "
                    f"files {high:g}_rep*.csv; give values that differ under %g"
                )
        trace_dir = f"{out_path}.traces"
        os.makedirs(trace_dir, exist_ok=True)
    lines = [RUN_HEADER]
    for cell in _run_cells(config, base_seed, jobs, trace_dir):
        for sweep_value, rep, seed, name, n, done, expired, sched in cell:
            viol = expired / n if n else 0.0
            lines.append(
                f"{sweep_value:.12g},{rep},{seed},{name},{n},{done},{expired},"
                f"{int(sched)},{viol:.12g}"
            )
    _write_csv(out_path, lines)


def cmd_oracle_check(config: ExperimentConfig, out_path: str, base_seed: int, jobs: int = 1) -> None:
    """One verdict per cell, on the instance the cell's runs simulate."""
    if config.traffic_kind != "identical":
        raise ConfigError("oracle-check needs identical-deadline traffic")
    cells = _Cells(config, base_seed, _gains(config))
    _write_csv(out_path, [ORACLE_HEADER, *_map(cells.verdict, cells.keys(), jobs, 8)])


_FIG_SWEEP_D = (60.0, 100.0, 140.0, 180.0, 220.0, 260.0, 300.0)
_FIG_SWEEP_XI = (1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
_FIG_TDM_IDENTICAL = ("l-maxweight", "l-exp", "l-log", "max-ci", "llf")
_FIG_TDM_STATIONARY = ("l-maxweight", "l-exp", "l-log", "max-ci", "edf", "llf")

FIGURE_IDS = ("fig2a", "fig2b", "fig3a", "fig3b")


def _preset_configs(figure_id: str, replications: int) -> list[ExperimentConfig]:
    """The preset experiment families: M=15, a=0.5 batches swept over the
    deadline, and lambda=0.05 stationary streams swept over the stretch."""
    if figure_id in ("fig2a", "fig3a"):
        base = {
            "traffic.kind": "identical",
            "traffic.user_count": "15",
            "traffic.arrival_spread": "0.5",
            "sweep.variable": "deadline",
            "sweep.values": ",".join(f"{v:g}" for v in _FIG_SWEEP_D),
            "replications": str(replications),
        }
        fluid = dict(base, mode="fluid", **{"policy.names": "l2hpr"})
        tdm = dict(base, mode="tdm", **{"policy.names": ",".join(_FIG_TDM_IDENTICAL)})
        return [build_experiment_config(fluid), build_experiment_config(tdm)]
    base = {
        "traffic.kind": "stationary",
        "traffic.rate": "0.05",
        "traffic.horizon": "2000",
        "sweep.variable": "stretch",
        "sweep.values": ",".join(f"{v:g}" for v in _FIG_SWEEP_XI),
        "replications": str(replications),
        "mode": "tdm",
        "policy.names": ",".join(_FIG_TDM_STATIONARY),
    }
    return [build_experiment_config(base)]


def cmd_reproduce(
    figure_id: str, out_path: str, base_seed: int, jobs: int, replications: int
) -> None:
    # aggregate per (sweep value, policy), in config/policy order
    totals: dict[tuple[float, str], list[int]] = {}
    for config in _preset_configs(figure_id, replications):
        for cell in _run_cells(config, base_seed, jobs):
            for sweep_value, rep, seed, name, n, done, expired, sched in cell:
                agg = totals.setdefault((sweep_value, name), [0, 0, 0, 0])
                agg[0] += 1
                agg[1] += int(sched)
                agg[2] += n
                agg[3] += expired
    order = sorted(totals, key=lambda key: key[0])  # stable: first-seen order on ties
    if figure_id.startswith("fig2"):
        lines = ["sweep_value,policy,replications,schedulable_count"]
        for sweep_value, name in order:
            reps, sched, _, _ = totals[(sweep_value, name)]
            lines.append(f"{sweep_value:.12g},{name},{reps},{sched}")
    else:
        lines = ["sweep_value,policy,replications,total_users,total_expired,violation_probability"]
        for sweep_value, name in order:
            reps, _, users, expired = totals[(sweep_value, name)]
            viol = expired / users if users else 0.0
            lines.append(f"{sweep_value:.12g},{name},{reps},{users},{expired},{viol:.12g}")
    _write_csv(out_path, lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laxsched",
        description="Deadline-aware flow-level wireless scheduling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a sweep experiment to CSV")
    p_oracle = sub.add_parser("oracle-check", help="per-instance schedulability CSV")
    p_rep = sub.add_parser("reproduce", help="run a preset experiment family")
    p_rep.add_argument("figure_id", choices=FIGURE_IDS)
    # each command declares only the flags it reads
    for p in (p_run, p_oracle):
        p.add_argument("--config", required=True, help="flat key=value config file")
    for p in (p_run, p_oracle, p_rep):
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--seed", type=int, default=0, help="base seed (u64, default 0)")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_run.add_argument("--trace", action="store_true", help="write per-slot traces")
    p_rep.add_argument(
        "--replications",
        type=int,
        default=1000,
        help="replications per sweep point (default 1000)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if not 0 <= args.seed < 2**64:
            raise ConfigError("--seed must fit in 64 unsigned bits")
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        if args.command == "run":
            config = build_experiment_config(load_config(args.config))
            cmd_run(config, args.out, args.seed, args.jobs, args.trace)
        elif args.command == "oracle-check":
            config = build_experiment_config(load_config(args.config))
            cmd_oracle_check(config, args.out, args.seed, args.jobs)
        else:
            if args.replications < 1:
                raise ConfigError("--replications must be >= 1")
            cmd_reproduce(args.figure_id, args.out, args.seed, args.jobs, args.replications)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
