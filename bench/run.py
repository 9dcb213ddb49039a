"""Benchmark entry point.

    python3 bench/run.py --workload dense|extension|cli --seed N --seconds S --trace 0|1

Runs the workload in a worker process (bench/worker.py, which pins BLAS and
OpenMP to one thread), and prints one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Untraced runs report the end-to-end metrics;
traced runs (--trace 1) report the per-layer metrics instead.

setup_s is the median over SETUP_SAMPLES fresh worker processes of the time
from starting the process to its first timed operation (its ``ready`` line).
The last of them goes on to the timed rounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
# Set-up and shutdown allowance on top of --seconds before a worker is killed.
GRACE_SECONDS = 120.0


def start_worker(args, setup_only):
    """Run one worker; returns (seconds until ready, its last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(args.seconds + GRACE_SECONDS, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != "ready":
        raise SystemExit("worker failed (exit %s)" % code)
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    samples = 1 if args.trace else SETUP_SAMPLES
    setup = [start_worker(args, setup_only=True)[0] for _ in range(samples - 1)]
    ready, line = start_worker(args, setup_only=False)
    setup.append(ready)
    result = json.loads(line)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
