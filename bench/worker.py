"""One benchmark workload in one process, on one thread.

Started by run.py.  It sets up (imports, seeded inputs, input files, warm-up),
prints ``ready``, then runs whole rounds of the workload's fixed batch in a
closed loop with one client until ``--seconds`` have passed, checks every
output, and prints one JSON line with its counts and metrics.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:        # before jtri imports numpy
    os.environ[_var] = "1"
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import jtri  # noqa: E402

if not os.path.abspath(jtri.__file__).startswith(SRC + os.sep):
    raise SystemExit("jtri must come from %s, found %s" % (SRC, jtri.__file__))

import tracer  # noqa: E402
import workloads  # noqa: E402
from jtri import cli, gtd, joint, matcore, multicast, spacetime  # noqa: E402

# Per-layer metric names and units, as BENCHMARK.json lists them.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    LAYERS = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}


class Outcome:
    __slots__ = ("op", "seconds", "reasons", "worst", "size")

    def __init__(self, op, seconds, reasons, worst, size):
        self.op, self.seconds, self.reasons, self.worst, self.size = (
            op, seconds, reasons, worst, size)


def run_op(op, wrap=None):
    call = op.call if wrap is None else wrap(op.call)
    start = perf_counter()
    try:
        result = call()
    except Exception as exc:   # a raising operation is a counted failure
        return Outcome(op, perf_counter() - start,
                       ["raised %s: %s" % (type(exc).__name__, exc)], None, 0)
    seconds = perf_counter() - start
    # Every round repeats the same operations, so a result whose bits equal
    # the last checked one reuses its verdict instead of being checked again.
    key = op.digest(result)
    if op.checked is not None and op.checked[0] == key:
        verdict = op.checked[1]
    else:
        verdict = op.check(result)
        op.checked = (key, verdict)
    # operations without factors (tables, examples, simulate) record no residual
    worst = verdict.worst if verdict.worst > 0 else None
    return Outcome(op, seconds, verdict.reasons, worst, op.size(result))


def run_round(ops, trace=None):
    if trace is None:
        return [run_op(op) for op in ops], None
    trace.begin_round()
    trace.install()
    try:
        outcomes = [run_op(op, trace.op) for op in ops]
    finally:
        trace.uninstall()
    return outcomes, trace.end_round()


def op_seconds(outcomes):
    return sum(o.seconds for o in outcomes)


def end_to_end(wl, rounds):
    times = {}
    for outcomes in rounds:
        for o in outcomes:
            times.setdefault(o.op.cls, []).append(o.seconds)
    worst = max((o.worst for outcomes in rounds for o in outcomes if o.worst is not None),
                default=math.inf)
    return {
        "ops_per_s": (len(wl.ops) / statistics.median(op_seconds(r) for r in rounds), "1/s"),
        "small_op_s": (statistics.median(times[wl.small]), "s"),
        "big_op_s": (statistics.median(times[wl.big]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "result_mb": (sum(o.size for o in rounds[0]) / 1e6, "MB"),
        "accuracy_digits": (-math.log10(min(max(worst, 1e-300), 1.0)), "digits"),
    }


def per_layer(wl, untraced, traced):
    values = tracer.median_layers([layers for _, layers in traced], LAYERS)
    if wl.name == "cli":
        values["cli.output_mb"] = sum(o.size for o in traced[0][0]) / 1e6
    # the first round also pays for first-touch memory; leave it out
    plain = statistics.median(op_seconds(r) for r in untraced[1:] or untraced)
    with_trace = statistics.median(op_seconds(r) for r, _ in traced)
    values["trace.overhead_pct"] = (with_trace / plain - 1.0) * 100.0
    return {name: (values[name], unit) for name, unit in LAYERS.items()}


def report_failures(rounds):
    by_class = {}
    for outcomes in rounds:
        for o in outcomes:
            if o.reasons:
                entry = by_class.setdefault(o.op.cls, [0, o.reasons[0]])
                entry[0] += 1
    for cls, (count, reason) in sorted(by_class.items()):
        print("failed %s x%d: %s" % (cls, count, reason), file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = os.path.join(ROOT, ".bench_run", "%s-%d-%d" % (args.workload, args.seed,
                                                             os.getpid()))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        for op in wl.warmup:
            outcome = run_op(op)
            if outcome.reasons:
                raise SystemExit("warm-up %s failed: %s" % (op.cls, outcome.reasons[0]))
        print("ready", flush=True)
        if args.setup_only:
            return 0

        trace = tracer.Tracer((matcore, gtd, joint, spacetime, multicast, cli), cli) \
            if args.trace else None
        untraced, traced = [], []
        start = perf_counter()
        while True:
            # the traced run alternates untraced and traced rounds, which
            # gives the tracing overhead from one process
            if trace is not None and len(untraced) > len(traced):
                traced.append(run_round(wl.ops, trace))
            else:
                untraced.append(run_round(wl.ops)[0])
            if perf_counter() - start >= args.seconds and (trace is None or traced):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = untraced + [outcomes for outcomes, _ in traced]
    report_failures(rounds)
    attempted = sum(len(r) for r in rounds)
    failures = [o for r in rounds for o in r if o.reasons]
    if trace is not None:
        metrics = per_layer(wl, untraced, traced)
        os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
        trace.write(os.path.join(ROOT, ".bench_run",
                                 "trace-%s-%d.tsv" % (args.workload, args.seed)))
    else:
        metrics = end_to_end(wl, untraced)
    print(json.dumps({
        "correct": all(o.op.known_fault for o in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
