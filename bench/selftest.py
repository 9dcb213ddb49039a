"""Self-test of the benchmark's checks: each must accept a correct result
and reject a deliberately corrupted copy of it.

    python3 bench/selftest.py

Runs in a few seconds and exits non-zero if any check lets a corruption
through.
"""

import copy
import csv
import io
import json
import os
import shutil
import sys
import tempfile
from types import SimpleNamespace

import worker  # pins BLAS threads and puts the checkout's jtri on the path
import workloads
from jtri import gtd


def expect(label, verdict, reason):
    """``reason`` None: the verdict must pass; else a reason must start with it."""
    if reason is None:
        ok = verdict.ok
    else:
        ok = any(r.startswith(reason) for r in verdict.reasons)
    print("%s %s%s" % ("PASS" if ok else "FAIL", label,
                       "" if ok else ": %s" % (verdict.reasons or "accepted")))
    return ok


def factor_cases():
    rng = workloads.np.random.default_rng(7)
    a = workloads.cgauss(rng, 8)
    check = workloads.check_gtd(a, workloads.checks.geometric_mean_sv(a))
    good = gtd.gmd(a)
    results = [expect("gmd result accepted", check(good), None)]
    for label, reason, corrupt in (
            ("mass below the diagonal", "subdiag",
             lambda f: f.r.__setitem__((7, 0), 1e-6 * abs(f.r[0, 0]))),
            ("non-unitary u", "orth", lambda f: f.u.__setitem__(
                (slice(None), 0), f.u[:, 0] * (1.0 + 1e-6))),
            ("diagonal off by 1e-6", "diag", lambda f: f.r.__setitem__(
                (0, 0), f.r[0, 0] * (1.0 + 1e-6)))):
        bad = SimpleNamespace(u=good.u.copy(), r=good.r.copy(), v=good.v.copy())
        corrupt(bad)
        results.append(expect(label + " rejected", check(bad), reason))
    return results


def cli_cases(workdir):
    wl = workloads.cli_workload(0, workdir)
    ops = {op.cls: op for op in wl.ops}
    results = []

    sim = ops["simulate.jet"]
    code = sim.call()
    results.append(expect("simulate output accepted", sim.check(code), None))
    out = sim.call.__self__.out
    with open(out, "r", encoding="utf-8") as fh:
        good = json.load(fh)
    bad = copy.deepcopy(good)
    stream = bad["streams"][0]
    shift = 10.0 * stream["std_error"]
    stream["measured_snr"] += shift if stream["measured_snr"] >= stream["predicted_snr"] \
        else -shift
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(bad, fh)
    results.append(expect("measured SNR moved by 10 standard errors rejected",
                          sim.check(code), "measured SNR"))

    tables = ops["tables"]
    code = tables.call()
    results.append(expect("tables output accepted", tables.check(code), None))
    out = tables.call.__self__.out
    with open(out, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(io.StringIO(fh.read())))
    rows[3][1] = str(int(rows[3][1]) + 1)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    results.append(expect("wrong tables row rejected", tables.check(code), "gmd_extensions"))
    return results


def main():
    scratch = os.path.join(worker.ROOT, ".bench_run")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        results = factor_cases() + cli_cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%d/%d checks behave" % (sum(results), len(results)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
