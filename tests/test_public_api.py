"""Tooling checks against stale names: every exported name resolves, every
name the demos import from laxsched exists, and the README's config keys and
subcommands are the CLI's. Demos 01-03 also run as subprocesses and must exit
0; demo 04 takes many seconds, so it is only parsed."""

import argparse
import ast
import importlib
import pathlib
import pkgutil
import re
import subprocess
import sys
import threading

import pytest

import laxsched
from laxsched import cli, policies

from helpers import checkout_env, modules_after, scipy_modules_after

ROOT = pathlib.Path(__file__).parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(laxsched.__path__) if m.name != "__main__")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_DEMOS = [d for d in DEMOS if d.name[:2] in ("01", "02", "03")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"laxsched.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"laxsched.{name}.__all__ lists undefined names {missing}"


def test_package_exports_every_engine_name():
    # the simulation loops (run_fluid, run_fluid_batch, run_tdm) and their
    # report types are used from the package root, as the README shows
    from laxsched import engine

    assert "run_fluid_batch" in engine.__all__
    missing = [n for n in engine.__all__ if getattr(laxsched, n, None) is not getattr(engine, n)]
    assert not missing, f"laxsched does not export engine names {missing}"


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "laxsched":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert not missing, f"{demo.name} imports undefined names {missing}"


def test_quick_demos_found():
    assert len(QUICK_DEMOS) == 3


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    out = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=checkout_env(), timeout=120
    )
    assert out.returncode == 0, out.stderr
    if demo.name.startswith("01"):
        assert "laxity-order violations: 0\n" in out.stdout


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: importing the package and the CLI
    # never loads it
    assert scipy_modules_after("import laxsched, laxsched.cli") == []


def test_serial_use_loads_no_process_pool():
    # cli._map imports the process pool only for --jobs > 1, and the gain
    # table is a fixed quadrature
    code = "import laxsched.cli\nlaxsched.diversity_gains(1.0, 4)"
    assert modules_after(code, "concurrent.futures", "multiprocessing") == []


def test_no_threads(tmp_path):
    # the library starts no thread: no module imports threading, and a fluid
    # run and an oracle check (each building its gain table) end with as
    # many threads as they began with
    for path in sorted(pathlib.Path(laxsched.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert "threading" not in {n.split(".")[0] for n in names}, path.name
    config = tmp_path / "batch.txt"
    config.write_text(
        "mode = fluid\ntraffic.kind = identical\ntraffic.user_count = 4\n"
        "traffic.arrival_spread = 0.5\nsweep.variable = deadline\nsweep.values = 2,200\n"
        "policy.names = l2hpr\nreplications = 2\n"
    )
    before = threading.active_count()
    for command in ("run", "oracle-check"):
        argv = [command, "--config", str(config), "--out", str(tmp_path / f"{command}.csv")]
        assert cli.main(argv) == 0
        assert threading.active_count() == before


def test_verdicts_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency: the package, the CLI's
    # oracle-check and run, and reading, replaying and printing witnesses
    # load no scipy
    config = tmp_path / "batch.txt"
    config.write_text(
        "mode = fluid\ntraffic.kind = identical\ntraffic.user_count = 4\n"
        "traffic.arrival_spread = 0.5\nsweep.variable = deadline\nsweep.values = 2,200\n"
        "policy.names = l2hpr\nreplications = 2\n"
    )
    out = tmp_path / "oracle.csv"
    code = f"""
import laxsched, laxsched.cli
from laxsched import DownloadRequest, FeasibilityProblem, GainProfile, feasible, replay_witness, witness_text
from laxsched.cli import main
assert main(["oracle-check", "--config", {str(config)!r}, "--out", {str(out)!r}, "--seed", "3"]) == 0
assert main(["run", "--config", {str(config)!r}, "--out", {str(tmp_path / "run.csv")!r}, "--seed", "3"]) == 0
gains = GainProfile((0.0, 1.0, 1.394097))
for sizes, is_feasible in (((6.0, 4.0), True), ((9.0, 8.0), False)):
    reqs = [DownloadRequest(1, 0.0, sizes[0], 10.0), DownloadRequest(2, 2.0, sizes[1], 10.0)]
    problem = FeasibilityProblem.from_requests(reqs, gains)
    verdict = feasible(problem)
    assert verdict.feasible == is_feasible
    if is_feasible:
        assert replay_witness(problem, verdict.witness)
        print(witness_text(problem, verdict.witness))
    else:
        assert verdict.witness is None
"""
    assert scipy_modules_after(code) == []
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[2] for r in rows] == ["0", "0", "1", "1"]  # feasible rows at D = 200


def _readme_config() -> str:
    (block,) = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return block


def test_readme_names_every_config_key():
    # the example's keys plus those its comment lines name are the CLI's keys
    block = _readme_config()
    named = {
        key
        for line in block.splitlines()
        if line.startswith("#")
        for key in re.findall(r"[a-z]+(?:[._][a-z]+)+", line)
    }
    assert set(cli.parse_config_text(block)) | named == set(cli._CONFIG_KEYS)


def test_readme_names_every_subcommand():
    # the "Subcommands:" sentence and the shell examples name the parser's
    # subcommands, no more and no fewer
    text = (ROOT / "README.md").read_text()
    (sentence,) = re.findall(r"Subcommands:(.*?)\.", text, re.S)
    examples = {
        line.split()[1]
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
        if line.startswith("laxsched ")
    }
    (subparsers,) = (
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(re.findall(r"`([a-z-]+)`", sentence)) == examples == set(subparsers.choices)


def test_readme_names_the_held_policies():
    # the TDM bullet's "Held policies:" sentence names exactly policies.HELD
    (sentence,) = re.findall(r"Held policies:(.*?)\.", (ROOT / "README.md").read_text(), re.S)
    assert set(re.findall(r"`([a-z-]+)`", sentence)) == policies.HELD


def test_example_configs_load(monkeypatch):
    # the README example, the four presets, the benchmark's batch config and
    # the tests' config builders; the tests' inline configs load in the
    # tests that run them
    import test_acceptance
    import test_cli

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    texts = [
        _readme_config(),
        workloads.batch_config(15, 3),
        test_acceptance.TestCriterion10.CONFIG,
        test_cli.tdm_config_text(),
        test_cli.fluid_config_text(),
    ]
    for text in texts:
        cli.build_experiment_config(cli.parse_config_text(text))
    for figure_id in cli.FIGURE_IDS:
        assert cli._preset_configs(figure_id, 1)
