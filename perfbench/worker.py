"""Run one laxsched CLI command in a fresh interpreter and report its cost.

Usage: python3 perfbench/worker.py '<JSON list of CLI arguments>'

Nothing but the standard library's sys and time is imported before
laxsched.cli, so the monotonic clock reading taken once it is imported
marks the end of set-up; the parent subtracts its own reading taken just
before starting this process. The last line of output is a JSON object:
ready (monotonic seconds), exit (the CLI's exit code), wall_s (the
command's wall time after set-up) and peak_rss_mb (this process's peak
resident memory).
"""

import sys
import time

import laxsched.cli

ready = time.monotonic()

import json  # noqa: E402 - imported after the set-up clock reading
import resource  # noqa: E402


def main() -> None:
    argv = json.loads(sys.argv[1])
    start = time.perf_counter()
    code = laxsched.cli.main(argv)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"ready": ready, "exit": code, "wall_s": wall, "peak_rss_mb": peak_kb / 1024}))


if __name__ == "__main__":
    main()
