"""Experiment runner: config-driven replication sweeps, oracle checks, and
the preset experiment families.

Config files are flat ``key = value`` text with dotted sections and ``#``
comments. Every key must be one that the config's run reads
(``_CONFIG_KEYS``), and none may repeat. Results are CSV with a mandatory
header, '.' decimals, and '\\n' line endings; identical (config, seed) pairs
produce byte-identical output regardless of --jobs.

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

from .capacity import diversity_gains
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


def _get(kv: dict[str, str], key: str, cast, default=None):
    if key not in kv:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
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


_FRAMEWORK = tuple(_URGENCIES)
# The prefix of each framework policy's own policy.* keys, and the
# parameters that every framework policy reads under their own names.
_KEY_PREFIX = {"l-maxweight": "", "l-exp": "exp_", "l-log": "log_"}
_SHARED = tuple(f.name for f in fields(FrameworkParams) if f.name != "urgency")

# Every config key, and the runs that read it: "" every run; a traffic kind,
# the runs of that traffic.kind; a tuple of policies, the runs listing one of
# them (the policy.* overrides). run and oracle-check reject a key that their
# config's run does not read.
_CONFIG_KEYS: dict[str, str | tuple[str, ...]] = {
    "mode": "",
    "traffic.kind": "",
    "traffic.user_count": "identical",
    "traffic.arrival_spread": "identical",
    "traffic.rate": "stationary",
    "traffic.horizon": "stationary",
    "sweep.variable": "",
    "sweep.values": "",
    "policy.names": "",
    "replications": "",
    "slot_length": "",
    "channel.bandwidth_hz": "",
    "channel.mean_sinr": "",
    "size.mean_mb": "",
    "size.std_mb": "",
    "size.max_mb": "",
    **{f"policy.{key}": _FRAMEWORK for key in _SHARED},
    **{
        f"policy.{_KEY_PREFIX[name]}{f.name}": (name,)
        for name, urgency in _URGENCIES.items()
        for f in fields(urgency)
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
    if kind not in ("identical", "stationary"):
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
    if kind == "identical":
        if sweep_variable != "deadline":
            raise ConfigError("identical traffic sweeps the deadline")
        user_count = _get(kv, "traffic.user_count", int)
        spread = _get(kv, "traffic.arrival_spread", float, 0.0)
        specs = tuple(
            _built(f"traffic at {v:g}", IdenticalDeadlineSpec, user_count, v, spread)
            for v in sweep_values
        )
    else:
        if mode == "fluid":
            raise ConfigError("fluid mode needs identical-deadline traffic")
        if sweep_variable != "stretch":
            raise ConfigError("stationary traffic sweeps the stretch factor")
        rate = _get(kv, "traffic.rate", float)
        horizon = _get(kv, "traffic.horizon", float)
        specs = tuple(
            _built(f"traffic at {v:g}", StationaryArrivalSpec, rate, v, horizon)
            for v in sweep_values
        )

    channel = _built(
        "channel",
        ChannelModel,
        bandwidth_hz=_get(kv, "channel.bandwidth_hz", float, 800e3),
        mean_sinr=_get(kv, "channel.mean_sinr", float, 1.0),
    )
    law = _built(
        "size law",
        FileSizeLaw,
        mean_mb=_get(kv, "size.mean_mb", float, 2.0),
        std_mb=_get(kv, "size.std_mb", float, 0.722),
        max_mb=_get(kv, "size.max_mb", float, 5.0),
        mean_rate_bps=channel.mean_rate_bps,
    )

    slot_length = _get(kv, "slot_length", float, 0.0)
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

    def given(prefix: str, names) -> dict[str, float]:
        """The values of the keys policy.<prefix><name> that the config sets."""
        keys = {n: f"policy.{prefix}{n}" for n in names}
        return {n: _get(kv, key, float) for n, key in keys.items() if key in kv}

    own = given(_KEY_PREFIX[name], [f.name for f in fields(urgency)])
    return FrameworkParams(urgency(**own), **given("", _SHARED))


def _make_requests(config: ExperimentConfig, si: int, rng):
    """The requests of one cell at sweep index ``si``."""
    gen = gen_identical_deadline if config.traffic_kind == "identical" else gen_stationary
    return gen(config.specs[si], config.law, rng)


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
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _cell_run(payload) -> tuple[list, float]:
    """A cell's requests and slot length."""
    config, _, base_seed, si, _, rep, _ = payload
    requests = _make_requests(config, si, child_generator(base_seed, si, rep, 0))
    return requests, config.slot_lengths[si]


def _result(payload, name: str, report: SimReport) -> tuple:
    """One policy's result tuple for a cell."""
    _, _, base_seed, si, sweep_value, rep, _ = payload
    return (
        sweep_value,
        rep,
        child_seed(base_seed, si, rep),
        name,
        report.n_users,
        report.n_completed,
        report.n_expired,
        report.schedulable,
    )


def _run_cell(payload) -> list[tuple]:
    """One (sweep value, replication) cell; returns per-policy result tuples."""
    config, gains, base_seed, si, sweep_value, rep, trace_dir = payload
    requests, dt = _cell_run(payload)
    results = []
    for name, params in zip(config.policies, config.params):
        if name == "l2hpr":
            report = run_fluid(requests, gains, dt, record_trace=bool(trace_dir))
        else:
            report = run_tdm(
                requests,
                config.channel,
                make_policy(name, params),
                dt,
                seed=child_seed(base_seed, si, rep, 1),
                record_trace=bool(trace_dir),
            )
        if trace_dir:
            _write_trace(
                os.path.join(trace_dir, f"{sweep_value:g}_rep{rep}_{name}.csv"), report
            )
        results.append(_result(payload, name, report))
    return results


def _run_fluid_cells(payloads) -> list[list[tuple]]:
    """Untraced fluid cells, stepped together by one run_fluid_batch call.
    Fluid mode runs only l2hpr, so one report serves each listed policy."""
    reports = run_fluid_batch([_cell_run(p) for p in payloads], payloads[0][1])
    return [
        [_result(p, name, report) for name in p[0].policies]
        for p, report in zip(payloads, reports)
    ]


def _payloads(config: ExperimentConfig, gains, base_seed: int, trace_dir=None) -> list[tuple]:
    """One payload per (sweep value, replication) cell, in output order."""
    return [
        (config, gains, base_seed, si, sweep_value, rep, trace_dir)
        for si, sweep_value in enumerate(config.sweep_values)
        for rep in range(config.replications)
    ]


def _run_cells(config: ExperimentConfig, base_seed: int, jobs: int, trace_dir=None):
    gains = None
    if config.mode == "fluid":  # a batch never has more than user_count active
        gains = diversity_gains(config.channel.mean_sinr, config.specs[0].user_count)
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
    payloads = _payloads(config, gains, base_seed, trace_dir)
    if config.mode == "fluid" and not trace_dir:
        size = min(_FLUID_BATCH, -(-len(payloads) // jobs))
        chunks = [payloads[i : i + size] for i in range(0, len(payloads), size)]
        return [cell for cells in _map(_run_fluid_cells, chunks, jobs, 1) for cell in cells]
    return _map(_run_cell, payloads, jobs, 8)


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
    lines = [RUN_HEADER]
    for cell in _run_cells(config, base_seed, jobs, trace_dir):
        for sweep_value, rep, seed, name, n, done, expired, sched in cell:
            viol = expired / n if n else 0.0
            lines.append(
                f"{sweep_value:.12g},{rep},{seed},{name},{n},{done},{expired},"
                f"{int(sched)},{viol:.12g}"
            )
    with open(out_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_oracle_check(config: ExperimentConfig, out_path: str, base_seed: int) -> None:
    """One verdict per cell, on the instance the cell's runs simulate."""
    if config.traffic_kind != "identical":
        raise ConfigError("oracle-check needs identical-deadline traffic")
    gains = diversity_gains(config.channel.mean_sinr, config.specs[0].user_count)
    lines = [ORACLE_HEADER]
    for payload in _payloads(config, gains, base_seed):
        requests, _ = _cell_run(payload)
        verdict = feasible(FeasibilityProblem.from_requests(requests, gains))
        _, _, _, _, sweep_value, rep, _ = payload
        lines.append(f"{sweep_value:.12g},{rep},{int(verdict.feasible)},{int(verdict.borderline)}")
    with open(out_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    if figure_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    configs = _preset_configs(figure_id, replications)
    # aggregate per (sweep value, policy), in config/policy order
    totals: dict[tuple[float, str], list[int]] = {}
    for config in configs:
        for cell in _run_cells(config, base_seed, jobs):
            for sweep_value, rep, seed, name, n, done, expired, sched in cell:
                key = (sweep_value, name)
                agg = totals.setdefault(key, [0, 0, 0, 0])
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
    with open(out_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laxsched",
        description="Deadline-aware flow-level wireless scheduling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--seed", type=int, help="base seed (u64, default 0)")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p.add_argument("--trace", action="store_true", help="write per-slot traces")

    p_run = sub.add_parser("run", help="run a sweep experiment to CSV")
    common(p_run)

    p_oracle = sub.add_parser("oracle-check", help="per-instance schedulability CSV")
    common(p_oracle)

    p_rep = sub.add_parser("reproduce", help="run a preset experiment family")
    p_rep.add_argument("figure_id", choices=FIGURE_IDS)
    common(p_rep)
    p_rep.add_argument(
        "--replications",
        type=int,
        default=1000,
        help="replications per sweep point (default 1000)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    seed = 0 if args.seed is None else args.seed
    try:
        if not 0 <= seed < 2**64:
            raise ConfigError("--seed must fit in 64 unsigned bits")
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        # reject the flags a command would otherwise ignore
        if args.trace and args.command != "run":
            raise ConfigError(f"--trace applies only to run, not {args.command}")
        if args.jobs > 1 and args.command == "oracle-check":
            raise ConfigError("oracle-check runs serially; --jobs must be 1")
        if args.config and args.command == "reproduce":
            raise ConfigError("reproduce runs fixed presets and takes no --config")
        if not args.config and args.command in ("run", "oracle-check"):
            raise ConfigError(f"{args.command} needs --config")
        kv = load_config(args.config) if args.config else {}
        if args.command == "run":
            cmd_run(build_experiment_config(kv), args.out, seed, args.jobs, args.trace)
        elif args.command == "oracle-check":
            cmd_oracle_check(build_experiment_config(kv), args.out, seed)
        elif args.command == "reproduce":
            if args.replications < 1:
                raise ConfigError("--replications must be >= 1")
            cmd_reproduce(args.figure_id, args.out, seed, args.jobs, args.replications)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
