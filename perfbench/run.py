"""laxsched benchmark: four CLI workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload stream-tdm --seed 1 --seconds 20 --trace 0

--workload names one of the workloads in workloads.py, or `all` to run
every one in turn. With --trace 0 the run repeats whole CLI rounds, each in
a fresh interpreter, for about --seconds and reports the end-to-end
metrics: setup_s, wall_s, flows_per_s and peak_rss_mb, each the median over
rounds. With --trace 1 it runs one CLI round, then replays rounds of the
same work through the library's public functions (replay.py) for the rest
of --seconds and reports the per-layer metrics. Both check every output.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when the run finished,
whatever its checks found, and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SCRATCH = os.path.join(ROOT, ".perfbench_runs")  # per-round outputs, removed after each round
MIN_ROUNDS = 3  # CLI rounds per --trace 0 run, however short --seconds is
ROUND_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a round did not end)."""


def worker_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def cli_round(workload: workloads.Workload, seed: int, index: int) -> dict:
    """One CLI command in a fresh interpreter, its costs and its checks."""
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH)
    try:
        argv = workload.argv(workdir, workload.cli_seed(seed, index))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, json.dumps(argv)],
                capture_output=True,
                text=True,
                env=worker_env(),
                cwd=ROOT,
                timeout=ROUND_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload.name} round {index} ran past {ROUND_TIMEOUT_S} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        report = json.loads(lines[-1])
        if report["exit"] != 0:
            verdict = checks.CsvVerdict(expected=workload.rows)
            verdict.fail(workload.rows, f"CLI exit {report['exit']}: {proc.stderr.strip()[-500:]}")
        else:
            verdict = workload.check_output(workdir)
        out_dir = os.path.join(workdir, "out")
        sizes = [
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out_dir) for f in files
        ]
        return {
            "setup_s": report["ready"] - spawned,
            "wall_s": report["wall_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "verdict": verdict,
            "output_files": len(sizes),
            "output_bytes": sum(sizes),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def warm_up() -> None:
    """Import the program once, untimed, so its files are in the page cache
    (and its bytecode written, where Python writes bytecode) before set-up
    is measured, and check that the copy imported is the one under src/."""
    proc = subprocess.run(
        [sys.executable, "-c", "import laxsched.cli; print(laxsched.cli.__file__)"],
        capture_output=True,
        text=True,
        env=worker_env(),
        cwd=ROOT,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import laxsched.cli from {SRC}: {proc.stderr.strip()[-2000:]}")
    imported = os.path.realpath(proc.stdout.strip())
    if not imported.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"laxsched.cli imports from {imported}, not from {SRC}")


def fits(started: float, loop_started: float, rounds: int, seconds: float) -> bool:
    """Whether one more round of the mean length so far ends within
    seconds of started."""
    now = time.monotonic()
    return now - started + (now - loop_started) / rounds <= seconds


def end_to_end(workload: workloads.Workload, seed: int, seconds: float) -> dict:
    warm_up()
    started = time.monotonic()
    rounds = []
    while len(rounds) < MIN_ROUNDS or fits(started, started, len(rounds), seconds):
        rounds.append(cli_round(workload, seed, len(rounds)))
    verdicts = [r["verdict"] for r in rounds]
    return {
        "verdicts": verdicts,
        "replay": None,
        "metrics": {
            "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
            "flows_per_s": (
                statistics.median(v.flows / r["wall_s"] for r, v in zip(rounds, verdicts)),
                "flows/s",
            ),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        },
    }


def per_layer(workload: workloads.Workload, seed: int, seconds: float) -> dict:
    sys.path.insert(0, SRC)
    import replay  # imports laxsched, so only once SRC is on the path

    warm_up()
    started = time.monotonic()
    cli = cli_round(workload, seed, 0)
    run = replay.Replay(workload, seed)
    replay_started = time.monotonic()
    while run.rounds == 0 or fits(started, replay_started, run.rounds, seconds):
        run.run_round(run.rounds)
    metrics = run.metrics()
    metrics["cli.output_files"] = (cli["output_files"], "count")
    metrics["cli.output_bytes"] = (cli["output_bytes"], "bytes")
    metrics["cli.self_s"] = (cli["wall_s"] - statistics.median(run.per_round["cli_layers_s"]), "s")
    return {"verdicts": [cli["verdict"]], "replay": run, "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    result = (per_layer if trace else end_to_end)(workload, seed, seconds)
    attempted = sum(v.expected for v in result["verdicts"])
    failed = sum(min(v.failed, v.expected) for v in result["verdicts"])
    problems = [p for v in result["verdicts"] for p in v.problems]
    run = result["replay"]
    if run is not None:
        attempted += run.attempted
        failed += run.failed
        problems += run.problems
        if run.in_band:
            print(f"{name}: {run.in_band} fluid instances within the band around rho = 1 not judged")
    for problem in problems:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    for metric, (value, unit) in result["metrics"].items():
        print(f"{name}  {metric} = {value:.6g} {unit}")
    print(f"{name}  attempted = {attempted}, failed = {failed}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "laxsched", "cli.py")):
        print(f"perfbench: no laxsched sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
