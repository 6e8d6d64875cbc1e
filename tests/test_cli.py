import pytest

from laxsched import cli
from laxsched.capacity import GainProfile, diversity_gains
from laxsched.channel import ChannelModel
from laxsched.cli import (
    ConfigError,
    _write_trace,
    build_experiment_config,
    cmd_gains,
    cmd_oracle_check,
    cmd_run,
    main,
    parse_config_text,
)
from laxsched.core import DownloadRequest
from laxsched.engine import run_fluid, run_tdm
from laxsched.policies import make_policy

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


def fluid_config_text(gains_path, **overrides):
    base = {
        "mode": "fluid",
        "traffic.kind": "identical",
        "traffic.user_count": "4",
        "traffic.arrival_spread": "0.5",
        "sweep.variable": "deadline",
        "sweep.values": "50,100,200",
        "policy.names": "l2hpr",
        "replications": "3",
        "gains.path": str(gains_path),
    }
    base.update(overrides)  # an override of None drops the key
    return "\n".join(f"{k} = {v}" for k, v in base.items() if v is not None)


@pytest.fixture(scope="module")
def gains_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("gains") / "gains.csv"
    GainProfile((0.0, 1.0, 1.394097, 1.621773, 1.776493, 1.891485)).save(path)
    return path


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
    def test_round_trip(self, gains_file):
        cfg = build_experiment_config(parse_config_text(fluid_config_text(gains_file)))
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
            {"gains.k_max": "0"},
        ],
    )
    def test_rejects_bad_values(self, gains_file, override):
        with pytest.raises(ConfigError):
            build_experiment_config(
                parse_config_text(fluid_config_text(gains_file, **override))
            )

    def test_fluid_requires_l2hpr_only(self, gains_file):
        with pytest.raises(ConfigError):
            build_experiment_config(
                parse_config_text(fluid_config_text(gains_file, **{"policy.names": "max-ci"}))
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
            (
                "traffic.user_count = 99",
                "traffic.user_count is read only when traffic.kind = identical, not stationary",
            ),
            (
                "traffic.arrival_spread = 0.5",
                "traffic.arrival_spread is read only when traffic.kind = identical, not stationary",
            ),
            ("gains.k_max = 3", "gains.k_max is read only when mode = fluid, not tdm"),
            (
                "policy.alpha = 3",
                "policy.alpha is read only by l-maxweight, not by any policy in policy.names",
            ),
            ("replications = 5", "line 10: 'replications' repeats line 8"),
        ],
        ids=[
            "misspelt-override", "misspelt-key", "user-count", "spread", "gains", "alpha", "repeated"
        ],
    )
    def test_tdm_run_rejects(self, tmp_path, capsys, extra, message):
        assert run_main(tmp_path, tdm_config_text() + f"\n{extra}\n") == 2
        assert f"config error: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "oracle-check"])
    def test_fluid_rejects_stationary_key(self, tmp_path, gains_file, capsys, command):
        text = fluid_config_text(gains_file, **{"traffic.rate": "0.05"})
        assert run_main(tmp_path, text, command) == 2
        err = capsys.readouterr().err
        assert "traffic.rate is read only when traffic.kind = stationary, not identical" in err

    def test_override_read_by_a_listed_policy_accepted(self):
        text = tdm_config_text(**{"policy.alpha": "2", "policy.names": "l-maxweight,edf"})
        assert build_experiment_config(parse_config_text(text)).framework_overrides == {
            "alpha": 2.0
        }

    def test_gains_rejects_only_unknown_keys(self, tmp_path, capsys):
        assert run_main(tmp_path, "gains.kmax = 4\n", "gains") == 2
        assert "did you mean 'gains.k_max'?" in capsys.readouterr().err
        # a tdm run config's keys are known, so gains takes it
        text = tdm_config_text() + "\ngains.k_max = 20\n"
        assert run_main(tmp_path, text, "gains") == 0


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
            ("gains", {"channel.mean_sinr": "0"}, "bad channel: mean_sinr must be finite and > 0"),
            # a NaN urgency exponent made l-exp serve nobody once two users were active
            (
                "tdm",
                {"policy.names": "l-exp", "policy.exp_eta": "nan"},
                "bad value for 'policy.exp_eta': 'nan'",
            ),
        ],
        ids=[
            "user-count", "spread", "size", "size-std", "sinr", "rate", "negative", "nan", "inf",
            "gains-sinr", "exp-eta-nan",
        ],
    )
    def test_exit_two(self, tmp_path, gains_file, capsys, kind, override, message):
        if kind == "fluid":
            text = fluid_config_text(gains_file, **override)
        elif kind == "tdm":
            text = tdm_config_text(**override)
        else:
            text = "".join(f"{k} = {v}\n" for k, v in override.items())
        assert run_main(tmp_path, text, "gains" if kind == "gains" else "run") == 2
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


class TestCmdGains:
    def test_writes_valid_table(self, tmp_path):
        out = tmp_path / "g.csv"
        cmd_gains({"gains.k_max": "6"}, out)
        profile = GainProfile.load(out)  # validates monotone/concave
        assert profile.gains[1] == 1.0
        assert profile.k_max == 6

    def test_same_seed_byte_identical(self, tmp_path):
        # the table takes no seed: two writes of one config are the same bytes
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        kv = {"gains.k_max": "5"}
        cmd_gains(kv, a)
        cmd_gains(kv, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text() == diversity_gains(1.0, 5).to_table()

    def test_k_max_defaults_to_user_count(self, tmp_path):
        out = tmp_path / "g.csv"
        cmd_gains({"traffic.user_count": "20"}, out)
        assert GainProfile.load(out).k_max == 20
        cmd_gains({"traffic.user_count": "4"}, out)
        assert GainProfile.load(out).k_max == 15

    def test_written_table_feeds_run(self, tmp_path):
        # a 20-user table that gains writes loads and feeds a run
        cfg = tmp_path / "cfg.txt"
        overrides = {
            "gains.path": None,
            "traffic.user_count": "20",
            "sweep.values": "100",
            "replications": "1",
        }
        cfg.write_text(fluid_config_text(None, **overrides))
        table = tmp_path / "g.csv"
        assert main(["gains", "--config", str(cfg), "--out", str(table)]) == 0
        assert GainProfile.load(table).k_max == 20
        cfg.write_text(fluid_config_text(table, **dict(overrides, **{"gains.path": table})))
        out = tmp_path / "run.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        assert out.read_text().splitlines()[1].split(",")[4] == "20"


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
    def test_csv_schema(self, tmp_path, gains_file):
        cfg = build_experiment_config(parse_config_text(fluid_config_text(gains_file)))
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

    def test_rerun_byte_identical(self, tmp_path, gains_file):
        cfg = build_experiment_config(parse_config_text(fluid_config_text(gains_file)))
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
        self, tmp_path, gains_file, monkeypatch
    ):
        # untraced fluid cells run in run_fluid_batch chunks; a batch of 2
        # cuts the 9 cells across chunk boundaries at every --jobs level, and
        # the traced run, which steps each cell alone, is the reference
        cfg = build_experiment_config(parse_config_text(fluid_config_text(gains_file)))
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
    def test_traces_identical_across_jobs(self, tmp_path, gains_file, kind, cells):
        text = fluid_config_text(gains_file) if kind == "fluid" else tdm_config_text()
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


class TestCmdOracleCheck:
    def test_schema_and_extremes(self, tmp_path, gains_file):
        text = fluid_config_text(gains_file, **{"sweep.values": "2,10000"})
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
            None,
            **{
                "gains.path": None,
                "traffic.user_count": str(users),
                "sweep.values": deadline,
                "replications": "1",
            },
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

    def test_missing_config_is_config_error(self, tmp_path):
        code = main(["run", "--out", str(tmp_path / "x.csv")])
        assert code == 2

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
        self, tmp_path, gains_file, capsys, mode, names, repeated
    ):
        cfg = tmp_path / "cfg.txt"
        if mode == "fluid":
            cfg.write_text(fluid_config_text(gains_file, **{"policy.names": names}))
        else:
            cfg.write_text(tdm_config_text(**{"policy.names": names}))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"policy.names lists {repeated!r} more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_error_exit_three(self, tmp_path):
        # config points at a gains table that does not exist
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            fluid_config_text(tmp_path / "missing_gains.csv", **{"sweep.values": "50"})
        )
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_reproduce_unknown_figure_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "fig9z", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2  # argparse invalid choice

    @pytest.mark.parametrize(
        "argv",
        [
            ["gains", "--config", "CFG", "--trace"],
            ["oracle-check", "--config", "CFG", "--trace"],
            ["reproduce", "fig3b", "--replications", "1", "--trace"],
            ["gains", "--config", "CFG", "--jobs", "2"],
            ["oracle-check", "--config", "CFG", "--jobs", "2"],
            ["reproduce", "fig3b", "--replications", "1", "--config", "CFG"],
            # the gain table is exact and reads no seed
            ["gains", "--config", "CFG", "--seed", "1"],
            ["gains", "--config", "CFG", "--seed", "0"],
        ],
        ids=[
            "gains-trace",
            "oracle-check-trace",
            "reproduce-trace",
            "gains-jobs",
            "oracle-check-jobs",
            "reproduce-config",
            "gains-seed",
            "gains-seed-zero",
        ],
    )
    def test_ignored_flags_rejected(self, tmp_path, gains_file, capsys, argv):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fluid_config_text(gains_file))
        out = tmp_path / "x.csv"
        argv = [str(cfg) if a == "CFG" else a for a in argv]
        assert main([*argv, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gains", "run", "oracle-check", "reproduce"])
    def test_jobs_one_accepted(self, tmp_path, gains_file, command):
        cfg = tmp_path / "cfg.txt"
        if command == "run":
            cfg.write_text(tdm_config_text())
        else:
            text = fluid_config_text(gains_file, **{"sweep.values": "50", "replications": "1"})
            cfg.write_text(text + "\ngains.k_max = 4\n")
        if command == "reproduce":
            head = ["reproduce", "fig3b", "--replications", "1"]
        else:
            head = [command, "--config", str(cfg)]
        out = tmp_path / "x.csv"
        assert main([*head, "--out", str(out), "--jobs", "1"]) == 0
        assert out.exists()

    def test_oracle_check_k_max_below_user_count_is_config_error(self, tmp_path, gains_file):
        cfg = tmp_path / "cfg.txt"
        # a built profile (no gains.path) of k_max 3 for 4 users
        overrides = {"gains.path": None, "gains.k_max": "3"}
        cfg.write_text(fluid_config_text(gains_file, **overrides))
        code = main(["oracle-check", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("command", ["gains", "run", "oracle-check"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            # the table is exact, so there is no sample count to set
            (
                "gains.samples = 20000",
                "config error: unknown config key 'gains.samples'; did you mean 'gains.path'?",
            ),
            ("gains.k_max = 0", "config error: gains.k_max must be >= 1"),
        ],
        ids=["samples", "k_max"],
    )
    def test_bad_gain_settings_are_config_errors(
        self, tmp_path, gains_file, capsys, command, setting, message
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fluid_config_text(None, **{"gains.path": None}) + f"\n{setting}\n")
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "oracle-check"])
    def test_k_max_below_user_count_rejected_before_estimating(
        self, tmp_path, monkeypatch, command
    ):
        def build(*args):
            raise AssertionError("gains built for a config that is rejected")

        monkeypatch.setattr(cli, "diversity_gains", build)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fluid_config_text(None, **{"gains.path": None, "gains.k_max": "3"}))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_gains_via_main(self, tmp_path):
        out = tmp_path / "g.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("gains.k_max = 4\n")
        code = main(["gains", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert GainProfile.load(out).k_max == 4


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
