import argparse
import pathlib
import re

import pytest

from laxsched import cli
from laxsched.capacity import diversity_gains
from laxsched.channel import ChannelModel
from laxsched.cli import (
    ConfigError,
    _write_trace,
    build_experiment_config,
    cmd_oracle_check,
    cmd_run,
    main,
    parse_config_text,
)
from laxsched.core import DownloadRequest
from laxsched.engine import run_fluid, run_tdm
from laxsched.policies import FrameworkParams, MaxWeightUrgency, make_policy
from laxsched.seeding import child_generator, child_seed
from laxsched.traffic import (
    FileSizeLaw,
    IdenticalDeadlineSpec,
    StationaryArrivalSpec,
    gen_stationary,
)

from helpers import reference_write_trace


def tdm_config_text(**overrides):
    base = {
        "mode": "tdm",
        "traffic.kind": "stationary",
        "traffic.rate": "0.05",
        "traffic.horizon": "400",
        "sweep.variable": "stretch",
        "sweep.values": "2,4",
        "policy.names": "l-log,max-ci",
        "replications": "2",
        "slot_length": "0.5",
    }
    base.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in base.items())


def fluid_config_text(**overrides):
    base = {
        "mode": "fluid",
        "traffic.kind": "identical",
        "traffic.user_count": "4",
        "traffic.arrival_spread": "0.5",
        "sweep.variable": "deadline",
        "sweep.values": "50,100,200",
        "policy.names": "l2hpr",
        "replications": "3",
    }
    base.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in base.items())


class TestConfigParsing:
    def test_comments_and_whitespace(self):
        kv = parse_config_text("# header\n a = 1 \n\nb=2  # trailing\n")
        assert kv == {"a": "1", "b": "2"}

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    def test_repeated_key_rejected(self):
        # a repeated key is an error, naming both lines, as a repeated policy
        # name is; it once silently overrode the earlier line
        with pytest.raises(ConfigError, match=r"line 3: 'a' repeats line 1"):
            parse_config_text("a=1\nb=2\na = 3\n")


class TestConfigValidation:
    def test_round_trip(self):
        cfg = build_experiment_config(parse_config_text(fluid_config_text()))
        assert cfg.mode == "fluid"
        assert cfg.sweep_values == (50.0, 100.0, 200.0)

    @pytest.mark.parametrize(
        "override",
        [
            {"replications": "0"},
            {"sweep.values": "100,50"},  # unsorted
            {"sweep.values": ""},
            {"policy.names": "best-rate"},
            {"mode": "warp"},
            {"gains.samples": "20000"},  # unknown: the gain table is exact
            {"gains.k_max": "0"},  # unknown: the table covers the batch
        ],
    )
    def test_rejects_bad_values(self, override):
        with pytest.raises(ConfigError):
            build_experiment_config(
                parse_config_text(fluid_config_text(**override))
            )

    @pytest.mark.parametrize("command", ["run", "oracle-check"])
    def test_repeated_value_rejected_untraced(self, tmp_path, capsys, command):
        text = fluid_config_text(**{"sweep.values": "50,60,60", "replications": "1"})
        assert run_main(tmp_path, text, command) == 2
        err = capsys.readouterr().err
        assert err == "config error: sweep.values must be strictly ascending; 60 is repeated\n"

    def test_fluid_requires_l2hpr_only(self):
        with pytest.raises(ConfigError):
            build_experiment_config(
                parse_config_text(fluid_config_text(**{"policy.names": "max-ci"}))
            )

    def test_tdm_rejects_l2hpr(self):
        with pytest.raises(ConfigError):
            build_experiment_config(
                parse_config_text(tdm_config_text(**{"policy.names": "l2hpr"}))
            )

    def test_fluid_rejects_stationary(self):
        text = tdm_config_text(mode="fluid", **{"policy.names": "l2hpr"})
        with pytest.raises(ConfigError):
            build_experiment_config(parse_config_text(text))

    def test_stationary_stretch_above_one(self):
        with pytest.raises(ConfigError):
            build_experiment_config(parse_config_text(tdm_config_text(**{"sweep.values": "0.5,2"})))

    def test_invalid_policy_params_rejected_at_config_time(self):
        # log urgency with zeta + beta*eps <= 1 cannot produce positive weights
        text = tdm_config_text(
            **{"policy.names": "l-log", "policy.log_zeta": "0.5", "policy.log_beta": "1.0"}
        )
        with pytest.raises(ConfigError):
            build_experiment_config(parse_config_text(text))

    def test_negative_slot_length_rejected(self):
        with pytest.raises(ConfigError):
            build_experiment_config(parse_config_text(tdm_config_text(slot_length="-1")))

    def test_unset_model_keys_take_the_dataclass_defaults(self):
        # no channel.*, size.* or traffic.arrival_spread key: each model is
        # built with its own defaults, which the CLI does not repeat
        text = "\n".join(
            line
            for line in fluid_config_text().splitlines()
            if not line.startswith("traffic.arrival_spread")
        )
        cfg = build_experiment_config(parse_config_text(text))
        assert cfg.channel == ChannelModel()
        assert cfg.law == FileSizeLaw(mean_rate_bps=ChannelModel().mean_rate_bps)
        assert cfg.specs == tuple(IdenticalDeadlineSpec(4, d) for d in (50.0, 100.0, 200.0))

    @pytest.mark.parametrize(
        "kind, key", [("fluid", "traffic.user_count"), ("tdm", "traffic.rate")]
    )
    def test_required_model_key_missing(self, tmp_path, capsys, kind, key):
        # a spec field with no default needs its key
        text = fluid_config_text() if kind == "fluid" else tdm_config_text()
        text = "\n".join(line for line in text.splitlines() if not line.startswith(key))
        assert run_main(tmp_path, text) == 2
        assert capsys.readouterr().err == f"config error: missing config key {key!r}\n"


def run_main(tmp_path, text, command="run"):
    """The exit code of one command on a config text; asserts that a
    failing command wrote no output."""
    cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
    cfg.write_text(text)
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 0 or not out.exists()
    return code


class TestStrictKeys:
    """Every key is known and read by the config's run, and none repeats;
    each of these once ran the defaults and exited 0."""

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("policy.alpah = 7", "unknown config key 'policy.alpah'; did you mean 'policy.alpha'?"),
            ("slot_lenght = 0.5", "unknown config key 'slot_lenght'; did you mean 'slot_length'?"),
            # one weight for every user scaled every score alike: no value
            # of it changed a choice
            ("policy.kappa = 2", "unknown config key 'policy.kappa'; did you mean 'policy.alpha'?"),
            (
                "traffic.user_count = 99",
                "traffic.user_count is read only when traffic.kind = identical, not stationary",
            ),
            (
                "traffic.arrival_spread = 0.5",
                "traffic.arrival_spread is read only when traffic.kind = identical, not stationary",
            ),
            # the gain table is built for the batch; no key sizes it
            ("gains.k_max = 3", "unknown config key 'gains.k_max'; did you mean 'size.max_mb'?"),
            (
                "policy.alpha = 3",
                "policy.alpha is read only by l-maxweight, not by any policy in policy.names",
            ),
            ("replications = 5", "line 10: 'replications' repeats line 8"),
        ],
        ids=[
            "misspelt-override", "misspelt-key", "kappa", "user-count", "spread", "gains", "alpha",
            "repeated",
        ],
    )
    def test_tdm_run_rejects(self, tmp_path, capsys, extra, message):
        assert run_main(tmp_path, tdm_config_text() + f"\n{extra}\n") == 2
        assert f"config error: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "oracle-check"])
    def test_fluid_rejects_stationary_key(self, tmp_path, capsys, command):
        text = fluid_config_text(**{"traffic.rate": "0.05"})
        assert run_main(tmp_path, text, command) == 2
        err = capsys.readouterr().err
        assert "traffic.rate is read only when traffic.kind = stationary, not identical" in err

    def test_override_read_by_a_listed_policy_accepted(self):
        text = tdm_config_text(**{"policy.alpha": "2", "policy.names": "l-maxweight,edf"})
        assert build_experiment_config(parse_config_text(text)).params == (
            FrameworkParams(MaxWeightUrgency(alpha=2.0)),
            None,
        )


# For each policy.* key: an override and one slot's laxities and rates of
# users 1 and 2 on which every policy that reads the key serves a different
# user with the override than with the published defaults.
OVERRIDE_CASES = {
    "policy.delta": ("0", [-1.0, 5.0], [1.0, 1.0]),
    "policy.epsilon": ("100", [0.0, 50.0], [1.0, 1.2]),
    "policy.alpha": ("0.5", [1.0, 2.0], [1.0, 1.5]),
    "policy.exp_beta": ("0.001", [1.0, 10.0], [1.0, 1.2]),
    "policy.exp_zeta": ("100", [1.0, 10.0], [1.0, 1.2]),
    "policy.exp_eta": ("3", [20.0, 100.0], [1.0, 2.0]),
    "policy.log_beta": ("1", [1.0, 10.0], [1.0, 1.5]),
    "policy.log_zeta": ("1000", [1.0, 10.0], [1.0, 1.5]),
}


class TestOverridesChangeChoices:
    """No policy.* key is a no-op: each changes a choice of every policy
    that reads it, and a run writes what its overridden policy gives."""

    @pytest.mark.parametrize(
        "key, name",
        [
            (key, name)
            for key, scope in cli._CONFIG_KEYS.items()
            if isinstance(scope, tuple)
            for name in scope
        ],
    )
    def test_key_changes_a_choice(self, key, name):
        value, laxities, rates = OVERRIDE_CASES[key]

        def choice(**overrides):
            text = tdm_config_text(**{"policy.names": name, **overrides})
            (params,) = build_experiment_config(parse_config_text(text)).params
            return make_policy(name, params).select_arrays([1, 2], laxities, rates, [9.0, 9.0])

        assert {choice(), choice(**{key: value})} == {1, 2}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_override_reaches_the_run(self, tmp_path, jobs):
        # stretch 1.5 at a slot of 0.5 s: the policies' choices decide who
        # expires
        overrides = {"policy.names": "l-maxweight", "sweep.values": "1.5,2", "replications": "3"}
        counts = {}
        for alpha in ("1", "3"):
            out = tmp_path / f"alpha{alpha}.csv"
            cfg = tmp_path / f"alpha{alpha}.txt"
            cfg.write_text(tdm_config_text(**overrides, **{"policy.alpha": alpha}))
            argv = ["run", "--config", str(cfg), "--out", str(out), "--seed", "4"]
            assert main([*argv, "--jobs", str(jobs)]) == 0
            counts[alpha] = [
                tuple(int(x) for x in row.split(",")[4:7])
                for row in out.read_text().splitlines()[1:]
            ]
        # tdm_config_text's traffic, channel and slot length
        channel = ChannelModel()
        law = FileSizeLaw(mean_rate_bps=channel.mean_rate_bps)
        policy = make_policy("l-maxweight", FrameworkParams(MaxWeightUrgency(3.0)))
        expected = []
        for si, stretch in enumerate((1.5, 2.0)):
            for rep in range(3):
                spec = StationaryArrivalSpec(0.05, stretch, 400.0)
                requests = gen_stationary(spec, law, child_generator(4, si, rep, 0))
                report = run_tdm(requests, channel, policy, 0.5, seed=child_seed(4, si, rep, 1))
                expected.append((report.n_users, report.n_completed, report.n_expired))
        assert counts["3"] == expected
        assert counts["1"] != expected


class TestBadValues:
    """A value that a traffic, size or channel model rejects is a config
    error (exit 2) for every sweep value, not a runtime error (exit 3)."""

    @pytest.mark.parametrize(
        "kind, override, message",
        [
            ("fluid", {"traffic.user_count": "0"}, "user_count must be >= 1"),
            ("fluid", {"traffic.arrival_spread": "1.5"}, "arrival_spread must lie in [0, 1)"),
            ("fluid", {"size.mean_mb": "-1"}, "bad size law: mean_mb and std_mb must be finite"),
            ("tdm", {"size.std_mb": "inf"}, "bad size law: mean_mb and std_mb must be finite"),
            ("fluid", {"channel.mean_sinr": "0"}, "bad channel: mean_sinr must be finite and > 0"),
            ("tdm", {"traffic.rate": "-1"}, "rate must be finite and > 0"),
            ("fluid", {"sweep.values": "-5,60"}, "bad traffic at -5: deadline must be finite"),
            ("fluid", {"sweep.values": "60,nan"}, "bad traffic at nan: deadline must be finite"),
            ("fluid", {"sweep.values": "60,inf"}, "bad traffic at inf: deadline must be finite"),
            # a NaN urgency exponent made l-exp serve nobody once two users were active
            (
                "tdm",
                {"policy.names": "l-exp", "policy.exp_eta": "nan"},
                "bad value for 'policy.exp_eta': 'nan'",
            ),
        ],
        ids=[
            "user-count", "spread", "size", "size-std", "sinr", "rate", "negative", "nan", "inf",
            "exp-eta-nan",
        ],
    )
    def test_exit_two(self, tmp_path, capsys, kind, override, message):
        text = fluid_config_text(**override) if kind == "fluid" else tdm_config_text(**override)
        assert run_main(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize(
        "override",
        [
            {"traffic.horizon": "inf"},  # the stream generator would never end
            {"traffic.rate": "inf"},
            {"channel.mean_sinr": "nan"},
            {"channel.bandwidth_hz": "inf"},
            {"size.mean_mb": "nan"},
            {"slot_length": "nan"},
            {"slot_length": "inf"},
        ],
        ids=lambda o: "-".join(*o.items()),
    )
    def test_non_finite_rejected_at_config_time(self, override):
        with pytest.raises(ConfigError):
            build_experiment_config(parse_config_text(tdm_config_text(**override)))


class TestTraceWriter:
    """The CLI's trace writer against the per-row f-string reference in
    helpers, byte for byte."""

    def _assert_same_bytes(self, tmp_path, report):
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        _write_trace(ours, report)
        reference_write_trace(ref, report)
        assert ours.read_bytes() == ref.read_bytes()

    def test_fluid_trace(self, tmp_path):
        # staggered arrivals, ids out of arrival order; user 4 completes
        # while the others are still served
        reqs = [
            DownloadRequest(3, 0.0, 4.0, 10.0),
            DownloadRequest(1, 0.3, 5.5, 10.0),
            DownloadRequest(4, 0.3, 0.4, 10.0),
            DownloadRequest(2, 1.7, 2.5, 10.0),
        ]
        gains = diversity_gains(1.0, 4)  # full-precision rates
        report = run_fluid(reqs, gains, 0.1, record_trace=True)
        done = report.outcomes[4].completion_time
        assert done < max(o.completion_time for o in report.outcomes.values())
        assert any(rec.time > done for rec in report.trace)
        self._assert_same_bytes(tmp_path, report)

    def test_tdm_trace(self, tmp_path):
        reqs = [
            DownloadRequest(2, 0.0, 3.0, 60.0),
            DownloadRequest(1, 4.0, 2.0, 50.0),
            DownloadRequest(3, 9.0, 4.0, 80.0),
        ]
        report = run_tdm(
            reqs, ChannelModel(), make_policy("l-log"), 0.2, seed=7, record_trace=True
        )
        assert report.trace
        self._assert_same_bytes(tmp_path, report)


class TestCmdRun:
    def test_csv_schema(self, tmp_path):
        cfg = build_experiment_config(parse_config_text(fluid_config_text()))
        out = tmp_path / "run.csv"
        cmd_run(cfg, out, base_seed=5, jobs=1, trace=False)
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "sweep_value,replication,seed,policy,n_users,n_completed,n_expired,"
            "schedulable,violation_rate"
        )
        assert len(lines) == 1 + 3 * 3  # sweep points x replications
        first = lines[1].split(",")
        assert first[3] == "l2hpr"
        assert int(first[4]) == 4

    def test_rerun_byte_identical(self, tmp_path):
        cfg = build_experiment_config(parse_config_text(fluid_config_text()))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_run(cfg, a, base_seed=5, jobs=1, trace=False)
        cmd_run(cfg, b, base_seed=5, jobs=1, trace=False)
        assert a.read_bytes() == b.read_bytes()

    def test_tdm_run_and_trace(self, tmp_path):
        cfg = build_experiment_config(parse_config_text(tdm_config_text()))
        out = tmp_path / "run.csv"
        cmd_run(cfg, out, base_seed=1, jobs=1, trace=True)
        lines = out.read_text().splitlines()
        # 2 sweep values x 2 replications x 2 policies
        assert len(lines) == 1 + 8
        traces = sorted((tmp_path / "run.csv.traces").iterdir())
        assert len(traces) == 8
        header = traces[0].read_text().splitlines()[0]
        assert header == "slot,user_id,residual,virtual_laxity,in_LLS,decision"

    def test_untraced_fluid_identical_across_jobs_and_batches(
        self, tmp_path, monkeypatch
    ):
        # untraced fluid cells run in run_fluid_batch chunks; a batch of 2
        # cuts the 9 cells across chunk boundaries at every --jobs level, and
        # the traced run, which steps each cell alone, is the reference
        cfg = build_experiment_config(parse_config_text(fluid_config_text()))
        reference = tmp_path / "traced.csv"
        cmd_run(cfg, reference, base_seed=5, jobs=1, trace=True)
        outputs = {}
        for batch in (cli._FLUID_BATCH, 2):
            monkeypatch.setattr(cli, "_FLUID_BATCH", batch)
            for jobs in (1, 2, 3):
                out = tmp_path / f"batch{batch}_jobs{jobs}.csv"
                cmd_run(cfg, out, base_seed=5, jobs=jobs, trace=False)
                outputs[batch, jobs] = out.read_bytes()
        assert len(outputs) == 6
        assert set(outputs.values()) == {reference.read_bytes()}

    @pytest.mark.parametrize("kind, cells", [("fluid", 9), ("tdm", 8)])
    def test_traces_identical_across_jobs(self, tmp_path, kind, cells):
        text = fluid_config_text() if kind == "fluid" else tdm_config_text()
        cfg = build_experiment_config(parse_config_text(text))
        traces = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}" / "run.csv"
            out.parent.mkdir()
            cmd_run(cfg, out, base_seed=5, jobs=jobs, trace=True)
            trace_dir = tmp_path / f"jobs{jobs}" / "run.csv.traces"
            traces[jobs] = {p.name: p.read_bytes() for p in trace_dir.iterdir()}
        assert len(traces[1]) == cells
        assert traces[2] == traces[1]


class TestTraceNames:
    """Trace files name the sweep value with %g, so two values that print
    alike would share them: each cell's trace once overwrote the other's.
    A repeated value is rejected in every run; values that differ but
    print alike only with --trace."""

    @pytest.mark.parametrize(
        "values, error, untraced_exit",
        [
            ("60,60.0000001", "sweep values 60.0 and 60.0000001 ", 0),
            ("50,60,60", "sweep.values must be strictly ascending; 60 is repeated", 2),
        ],
        ids=["alike", "repeated"],
    )
    def test_values_printing_alike_rejected(self, tmp_path, capsys, values, error, untraced_exit):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "run.csv"
        cfg.write_text(fluid_config_text(**{"sweep.values": values, "replications": "1"}))
        assert main(["run", "--config", str(cfg), "--out", str(out), "--trace"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and error in err
        assert not out.exists() and not (tmp_path / "run.csv.traces").exists()
        # untraced, distinct values are written as before
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == untraced_exit
        assert out.exists() == (untraced_exit == 0)
        if out.exists():
            assert len(out.read_text().splitlines()) == 1 + len(values.split(","))


class TestCmdOracleCheck:
    def test_schema_and_extremes(self, tmp_path):
        text = fluid_config_text(**{"sweep.values": "2,10000"})
        cfg = build_experiment_config(parse_config_text(text))
        out = tmp_path / "oracle.csv"
        cmd_oracle_check(cfg, out, base_seed=2)
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep_value,replication,feasible,borderline"
        rows = [ln.split(",") for ln in lines[1:]]
        tiny = [r for r in rows if r[0] == "2"]
        huge = [r for r in rows if r[0] == "10000"]
        assert all(r[2] == "0" for r in tiny)  # nothing fits a 2-second deadline
        assert all(r[2] == "1" for r in huge)

    def test_rejects_stationary(self, tmp_path):
        cfg = build_experiment_config(parse_config_text(tdm_config_text()))
        with pytest.raises(ConfigError):
            cmd_oracle_check(cfg, tmp_path / "x.csv", base_seed=1)

    @pytest.mark.parametrize(
        "users,deadline",
        [(12, "60"), (15, "180")],  # a staggered M = 12 batch; the paper's fig2 workload
    )
    def test_staggered_batches_answer(self, tmp_path, users, deadline):
        text = fluid_config_text(
            **{"traffic.user_count": str(users), "sweep.values": deadline, "replications": "1"}
        )
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        out = tmp_path / "oracle.csv"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
        assert out.read_text().splitlines()[1].startswith(f"{deadline},0,")


class TestMainEntry:
    def test_success_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(tdm_config_text())
        out = tmp_path / "out.csv"
        code = main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "3"])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("command", ["run", "oracle-check"])
    def test_missing_config_is_usage_error(self, tmp_path, command):
        # --config is required where it is read: argparse's usage error
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_unreadable_config_is_config_error(self, tmp_path):
        code = main(
            ["run", "--config", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_bad_config_value_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(tdm_config_text(replications="0"))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "mode,names,repeated",
        [("fluid", "l2hpr,l2hpr", "l2hpr"), ("tdm", "edf,llf,edf", "edf")],
        ids=["fluid", "tdm"],
    )
    def test_repeated_policy_is_config_error(
        self, tmp_path, capsys, mode, names, repeated
    ):
        cfg = tmp_path / "cfg.txt"
        if mode == "fluid":
            cfg.write_text(fluid_config_text(**{"policy.names": names}))
        else:
            cfg.write_text(tdm_config_text(**{"policy.names": names}))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"policy.names lists {repeated!r} more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_error_exit_three(self, tmp_path):
        # the output goes into a directory that does not exist
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(fluid_config_text(**{"sweep.values": "50"}))
        out = tmp_path / "missing" / "x.csv"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 3

    def test_reproduce_unknown_figure_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "fig9z", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2  # argparse invalid choice

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle-check", "--config", "CFG", "--trace"],
            ["reproduce", "fig3b", "--replications", "1", "--trace"],
            ["reproduce", "fig3b", "--replications", "1", "--config", "CFG"],
        ],
        ids=["oracle-check-trace", "reproduce-trace", "reproduce-config"],
    )
    def test_ignored_flags_rejected(self, tmp_path, capsys, argv):
        # a command declares only the flags it reads: argparse's usage error
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fluid_config_text())
        out = tmp_path / "x.csv"
        argv = [str(cfg) if a == "CFG" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: " in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_check_jobs_write_the_same_bytes(self, tmp_path):
        # the verdict cells go through _map as run's cells do; --jobs 2 once
        # exited 2 ("runs serially")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fluid_config_text())
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            argv = ["oracle-check", "--config", str(cfg), "--out", str(out), "--jobs", jobs]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 1 + 3 * 3

    @pytest.mark.parametrize("command", ["run", "oracle-check", "reproduce"])
    def test_jobs_one_accepted(self, tmp_path, command):
        cfg = tmp_path / "cfg.txt"
        if command == "run":
            cfg.write_text(tdm_config_text())
        else:
            cfg.write_text(fluid_config_text(**{"sweep.values": "50", "replications": "1"}))
        if command == "reproduce":
            head = ["reproduce", "fig3b", "--replications", "1"]
        else:
            head = [command, "--config", str(cfg)]
        out = tmp_path / "x.csv"
        assert main([*head, "--out", str(out), "--jobs", "1"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command", ["run", "oracle-check"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            # the table is exact and built for the batch, so no key sets its
            # sample count, its size or its file
            (
                "gains.samples = 20000",
                "config error: unknown config key 'gains.samples'; did you mean 'policy.names'?",
            ),
            (
                "gains.k_max = 0",
                "config error: unknown config key 'gains.k_max'; did you mean 'size.max_mb'?",
            ),
            (
                "gains.path = gains.csv",
                "config error: unknown config key 'gains.path'; did you mean 'traffic.rate'?",
            ),
        ],
        ids=["samples", "k_max", "path"],
    )
    def test_bad_gain_settings_are_config_errors(
        self, tmp_path, capsys, command, setting, message
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fluid_config_text() + f"\n{setting}\n")
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "oracle-check"])
    def test_k_max_below_user_count_rejected_before_estimating(
        self, tmp_path, monkeypatch, command
    ):
        # gains.k_max is no longer a key: the config is rejected before any
        # gain table is built
        def build(*args):
            raise AssertionError("gains built for a config that is rejected")

        monkeypatch.setattr(cli, "diversity_gains", build)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fluid_config_text(**{"gains.k_max": "3"}))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_gains_subcommand_rejected(self, tmp_path):
        # the table is built from each config, so there is none to save
        out = tmp_path / "g.csv"
        with pytest.raises(SystemExit) as exc:
            main(["gains", "--out", str(out)])
        assert exc.value.code == 2  # argparse invalid choice
        assert not out.exists()


def documented_flags() -> dict[str, set[str]]:
    """The README's flag table: for each subcommand, the flags it takes."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    (header,) = re.findall(r"^\| flag \|(.*)\|$", text, re.M)
    commands = re.findall(r"`([a-z-]+)`", header)
    flags: dict[str, set[str]] = {command: set() for command in commands}
    for flag, cells in re.findall(r"^\| `(--[a-z]+)[^|]*\|(.*)\|$", text, re.M):
        for command, cell in zip(commands, cells.split("|")):
            if cell.strip():
                flags[command].add(flag)
    return flags


FLAGS = documented_flags()
# a valid command line of each subcommand without its optional flags, and the
# value given to each flag (1 if not listed)
BASE_ARGV = {
    "run": ["run", "--config", "CFG"],
    "oracle-check": ["oracle-check", "--config", "CFG"],
    "reproduce": ["reproduce", "fig3b", "--replications", "1"],
}
FLAG_VALUE = {"--config": ["CFG"], "--trace": []}


class TestFlags:
    """Each subcommand declares exactly the flags that the README's table
    gives it, and any other flag is an argparse usage error: a flag added
    later must be declared on the commands that read it."""

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_parser_takes_the_documented_flags(self, command):
        (subparsers,) = (
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        declared = {s for a in subparsers.choices[command]._actions for s in a.option_strings}
        assert declared - {"-h", "--help"} == FLAGS[command]

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command in sorted(FLAGS)
            for flag in sorted(set().union(*FLAGS.values()) - FLAGS[command])
        ],
    )
    def test_other_flags_are_usage_errors(self, tmp_path, capsys, command, flag):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "x.csv"
        cfg.write_text(fluid_config_text(**{"sweep.values": "50", "replications": "1"}))
        argv = [*BASE_ARGV[command], "--out", str(out)]
        extra = [flag, *FLAG_VALUE.get(flag, ["1"])]
        argv, extra = ([str(cfg) if a == "CFG" else a for a in v] for v in (argv, extra))
        assert main(argv) == 0  # the command line is valid without the flag
        out.unlink()
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestWorkerCount:
    """A process pool starts all its workers on the first submit, so --jobs
    far above the cell count must not start that many. A fake pool records
    the worker count and maps serially: no process is started."""

    @pytest.fixture
    def pools(self, monkeypatch):
        import concurrent.futures

        created = []

        class SerialPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return created

    @pytest.mark.parametrize("kind, cells", [("fluid", 9), ("tdm", 4)])
    def test_workers_capped_at_cells(self, tmp_path, pools, kind, cells):
        text = fluid_config_text() if kind == "fluid" else tdm_config_text()
        cfg = build_experiment_config(parse_config_text(text))
        serial = tmp_path / "serial.csv"
        cmd_run(cfg, serial, base_seed=5, jobs=1, trace=False)
        assert pools == []
        for jobs in (2, 5000):
            out = tmp_path / f"jobs{jobs}.csv"
            cmd_run(cfg, out, base_seed=5, jobs=jobs, trace=False)
            assert out.read_bytes() == serial.read_bytes()
        assert pools == [2, cells]

    def test_one_item_runs_in_process(self, pools):
        assert cli._map(abs, [-3], 5000, 1) == [3]
        assert pools == []


class TestReproduce:
    def test_fig3b_smoke(self, tmp_path):
        out = tmp_path / "fig3b.csv"
        code = main(
            [
                "reproduce",
                "fig3b",
                "--out",
                str(out),
                "--seed",
                "7",
                "--replications",
                "1",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "sweep_value,policy,replications,total_users,total_expired,violation_probability"
        )
        # 7 stretch values x 6 policies
        assert len(lines) == 1 + 7 * 6
