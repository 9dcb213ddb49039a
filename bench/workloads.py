"""The benchmark's workloads: seeded inputs and the operations run on them.

Each workload function returns a ``Workload``: a fixed batch of operations
(one round) plus a warm-up list.  Every round repeats the same operations on
the same inputs, so counts, sizes and the failed share are identical from
round to round and from run to run.  Inputs come from ``--seed``; the only
exceptions are the gtd target permutations and the ill-conditioned ``gmd``
class, which use fixed keys so that call counts and the expected failures do
not depend on the seed.

The program sees only the generated inputs: jtri is called through its
public functions and through ``jtri.cli.main(argv)``.
"""

import csv
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import checks
from jtri import cli, gtd, joint, spacetime

# Fixed keys, independent of --seed.
PERMUTATION_KEY = 20130617
ILLCOND_KEYS = ((16, 1000), (16, 1002), (32, 1003), (64, 1000))
# Margin on F1 for the extension inputs, which sit clearly on one side of
# the exact-form boundary.
FEASIBILITY_MARGIN = 0.25
# Rates of the 2x2 closed-form inputs lie below the critical rate 8.33.
RATELESS3_RATES = (0.5, 8.0)


@dataclass
class Op:
    cls: str                    # operation class; timings are grouped by it
    call: object                # () -> result
    check: object               # (result) -> checks.Verdict
    size: object = checks.nbytes  # (result) -> bytes produced
    digest: object = checks.digest  # (result) -> hash of the result's bits
    known_fault: bool = False   # fails today through a defect of the program
    checked: tuple = None       # (digest, verdict) of the last checked result


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list
    small: str                  # smallest operation class
    big: str                    # largest operation class


def first_of_each(ops, family, skip=()):
    """Warm-up list: the first operation of each family, minus ``skip`` classes."""
    seen = {}
    for op in ops:
        if op.cls not in skip:
            seen.setdefault(family(op.cls), op)
    return list(seen.values())


# --- input generation ---------------------------------------------------------


def cgauss(rng, n, m=None):
    m = n if m is None else m
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def haar(rng, n):
    q, r = np.linalg.qr(cgauss(rng, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def scale_to_absdet(a, log_absdet=0.0):
    """a scaled so that log|det a| = log_absdet (slogdet, exact for any n)."""
    n = a.shape[0]
    return a * np.exp((log_absdet - np.linalg.slogdet(a)[1]) / n)


def _adj2(m):
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def _det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def f1_value(a1, a2):
    """Closed-form F1 = det(S1 adj S2 - S2 adj S1), S_k = A_k^H A_k - I."""
    s1 = a1.conj().T @ a1 - np.eye(2)
    s2 = a2.conj().T @ a2 - np.eye(2)
    return float(_det2(s1 @ _adj2(s2) - s2 @ _adj2(s1)).real)


def unit_pair(rng, sign):
    """Random 2x2 unit-|det| pair with sign * F1 above the margin."""
    while True:
        a1 = scale_to_absdet(cgauss(rng, 2))
        a2 = scale_to_absdet(cgauss(rng, 2))
        if sign * f1_value(a1, a2) > FEASIBILITY_MARGIN:
            return a1, a2


def rateless3_pair(rate):
    """Residual 2x2 pair of the three-rate rateless problem at total rate C
    (the paper's worked family); both have unit |det| and the pair admits
    an exact joint unit-diagonal form below the critical rate
    6 log2((3 + sqrt 5) / 2)."""
    b = 2.0 ** (rate / 12.0)
    core = np.sqrt(1.0 - b ** 2 + b ** 8)
    a1 = np.array([[core / b ** 2,
                    (b ** 6 - 1.0) / (b * np.sqrt((1.0 - b ** 2 + b ** 8) * (1.0 + b ** 2 + b ** 4)))],
                   [0.0, b ** 2 / core]], dtype=complex)
    return a1, np.diag([b, 1.0 / b]).astype(complex)


def shuffled_target(a, perm):
    """Feasible gtd target: sqrt(sigma_i * g) in the fixed order ``perm``.

    Halfway (on the log scale) between the singular values and their
    geometric mean g, so it lies strictly inside the majorization region.
    """
    s = np.linalg.svd(a, compute_uv=False)
    g = np.exp(np.mean(np.log(s)))
    return np.sqrt(s * g)[perm]


def block_roots(a, sizes):
    """Feasible block |det|^(1/size) targets, in non-increasing order.

    Each block takes the next ``size`` singular values (largest first);
    its root is halfway, on the log scale, between their geometric mean and
    that of all singular values.  Blocks stay in this order because a
    shuffled order repeats target values, and the program's reordering then
    does a roundoff-dependent number of swaps, so call counts would vary.
    """
    s = np.linalg.svd(a, compute_uv=False)
    g = np.exp(np.mean(np.log(s)))
    bounds = np.cumsum((0,) + tuple(sizes))
    return [np.sqrt(np.exp(np.mean(np.log(s[lo:hi]))) * g)
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def illcond_input(n, key):
    """Fixed n x n input with evenly log-spaced singular values and a
    condition number between 1e10 and 1e11."""
    rng = np.random.default_rng(key)
    cond = 10.0 ** rng.uniform(10.0, 11.0)
    s = np.logspace(0.0, -np.log10(cond), n)
    return haar(rng, n) @ np.diag(s) @ haar(rng, n).conj().T


# --- checks on library results ------------------------------------------------


def check_gtd(a, target):
    def check(fac):
        v = checks.Verdict()
        checks.check_single(v, a, fac.u, fac.r, fac.v, target)
        return v
    return check


def check_joint(mats, target=None):
    def check(fac):
        v = checks.Verdict()
        v.require(len(fac.users) == len(mats), "one factor pair per matrix")
        if v.ok:
            checks.check_joint(v, mats, fac.v, fac.users, target)
        return v
    return check


def check_spacetime(mats, n_ext, exponent, unit_diag):
    def check(fac):
        v = checks.Verdict()
        checks.check_spacetime(v, mats, n_ext, fac.v, fac.users, exponent, unit_diag)
        return v
    return check


# --- dense --------------------------------------------------------------------


def dense(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    fixed = np.random.default_rng(PERMUTATION_KEY)
    ops = []

    def gmd_op(cls, a, known_fault=False):
        g = checks.geometric_mean_sv(a)
        ops.append(Op(cls, lambda: gtd.gmd(a), check_gtd(a, g), known_fault=known_fault))

    for n, count in ((4, 8), (16, 4), (64, 2), (256, 2)):
        for _ in range(count):
            gmd_op("gmd.n%d" % n, cgauss(rng, n))
    for n, count in ((16, 2), (64, 2), (128, 1)):
        perm = fixed.permutation(n)
        for _ in range(count):
            a = cgauss(rng, n)
            t = shuffled_target(a, perm)
            ops.append(Op("gtd.n%d" % n, lambda a=a, t=t: gtd.gtd(a, t), check_gtd(a, t)))
    for sizes, count in (((4, 8, 4), 2), ((16, 32, 16), 1)):
        n = sum(sizes)
        for _ in range(count):
            a = cgauss(rng, n)
            roots = block_roots(a, sizes)
            spec = gtd.BlockSpec(block_sizes=list(sizes),
                                 block_dets=[r ** k for r, k in zip(roots, sizes)])
            ops.append(Op("block_gtd.n%d" % n, lambda a=a, spec=spec: gtd.block_gtd(a, spec),
                          check_gtd(a, np.repeat(roots, sizes))))
    for n, count in ((4, 4), (16, 2), (64, 1)):
        for _ in range(count):
            a = cgauss(rng, n)
            b = scale_to_absdet(cgauss(rng, n), np.linalg.slogdet(a)[1])
            ops.append(Op("jet2.n%d" % n, lambda a=a, b=b: joint.jet2(a, b),
                          check_joint([a, b])))
    # 2x2 closed forms on the paper's rateless family; random F1-feasible
    # pairs are left out, since the witness solver is inaccurate on a few
    # of them (see README)
    for _ in range(24):
        a1, a2 = rateless3_pair(rng.uniform(*RATELESS3_RATES))
        ops.append(Op("construct_2gmd.n2", lambda a1=a1, a2=a2: joint.construct_2gmd(a1, a2),
                      check_joint([a1, a2], 1.0)))
    for n, key in ILLCOND_KEYS:
        gmd_op("gmd.illcond", illcond_input(n, key), known_fault=True)

    return Workload("dense", ops, first_of_each(ops, lambda c: c.split(".")[0]),
                    small="construct_2gmd.n2", big="gmd.n256")


# --- extension ----------------------------------------------------------------


def extension(seed, workdir):
    rng = np.random.default_rng([seed, 2])
    ops = []
    index = 0
    for n_ext, count in ((4, 8), (8, 2), (16, 2), (32, 1), (64, 1), (128, 1), (256, 1)):
        for _ in range(count):
            # alternate triples whose first pair has no exact form (F1 < 0)
            a1, a2 = unit_pair(rng, sign=-1 if index % 2 == 0 else 1)
            mats = [a1, a2, scale_to_absdet(cgauss(rng, 2))]
            index += 1
            ops.append(Op("nearly_kgmd.n2k3.N%d" % n_ext,
                          lambda m=mats, N=n_ext: spacetime.nearly_kgmd(m, N),
                          check_spacetime(mats, n_ext, 2, True)))
    for n_ext, count in ((9, 2), (27, 1), (81, 1)):
        for _ in range(count):
            mats = [scale_to_absdet(cgauss(rng, 3)) for _ in range(3)]
            ops.append(Op("nearly_kgmd.n3k3.N%d" % n_ext,
                          lambda m=mats, N=n_ext: spacetime.nearly_kgmd(m, N),
                          check_spacetime(mats, n_ext, 2, True)))
    for n_ext, count in ((4, 2), (16, 1), (64, 1), (128, 1)):
        for _ in range(count):
            log_det = rng.uniform(-1.0, 1.0)
            mats = [scale_to_absdet(cgauss(rng, 2), log_det) for _ in range(4)]
            ops.append(Op("nearly_kjet.n2k4.N%d" % n_ext,
                          lambda m=mats, N=n_ext: spacetime.nearly_kjet(m, N),
                          check_spacetime(mats, n_ext, 2, False)))
    return Workload("extension", ops, first_of_each(ops, lambda c: c.rsplit(".", 1)[0]),
                    small="nearly_kgmd.n2k3.N4", big="nearly_kgmd.n2k3.N256")


# --- cli ----------------------------------------------------------------------


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def equal_rate_users(rng, count, n, power, rate):
    """``count`` random n x n channels scaled so that each has mutual
    information ``rate`` at the white input (power / n) I."""
    cov = np.eye(n) * (power / n)
    users = []
    for _ in range(count):
        h = cgauss(rng, n)
        lam = np.linalg.eigvalsh(h @ cov @ h.conj().T)
        c2 = 1.0
        for _ in range(100):       # Newton on sum log2(1 + c2 lam) = rate
            f = np.sum(np.log2(1.0 + c2 * lam)) - rate
            c2 -= f / (np.sum(lam / (1.0 + c2 * lam)) / np.log(2.0))
        users.append(h * np.sqrt(c2))
    return users, cov


class CliOp:
    """One ``jtri`` invocation: argv, an --out file, and a check on it."""

    def __init__(self, workdir, name, argv, check):
        self.out = os.path.join(workdir, "out-%s" % name)
        self.argv = argv + ["--out", self.out]
        self.check_output = check

    def call(self):
        return cli.main(self.argv)

    def check(self, code):
        v = checks.Verdict()
        v.require(code == 0, "exit code %r" % (code,))
        if v.ok:
            self.check_output(v, self.out)
        return v

    def size(self, code):
        return os.path.getsize(self.out)

    def digest(self, code):
        return "%r %s" % (code, checks.file_digest(self.out) if code == 0 else "")


def _users(obj, key):
    return [(x["u"], x[key]) for x in obj["users"]]


def cli_workload(seed, workdir):
    rng = np.random.default_rng([seed, 3])
    fixed = np.random.default_rng(PERMUTATION_KEY)
    os.makedirs(workdir, exist_ok=True)
    ops = []

    def path(name):
        return os.path.join(workdir, name)

    def add(cls, name, argv, check):
        op = CliOp(workdir, name, argv, check)
        ops.append(Op(cls, op.call, op.check, op.size, op.digest))

    def single(a, target):
        def check(v, out):
            obj = checks.load_json(out)
            checks.check_single(v, a, obj["u"], obj["r"], obj["v"], target)
        return check

    def multi(mats, target=None):
        def check(v, out):
            obj = checks.load_json(out)
            users = _users(obj, "r")
            v.require(len(users) == len(mats), "one factor pair per matrix")
            if v.ok:
                checks.check_joint(v, mats, obj["v"], users, target)
        return check

    # decompose, every kind
    for i in range(16):
        a = cgauss(rng, 4)
        _write_json(path("gmd4-%d.json" % i), checks.matrix_to_json(a))
        add("decompose.gmd.n4", "gmd4-%d.json" % i,
            ["decompose", "--kind", "gmd", "--input", path("gmd4-%d.json" % i)],
            single(a, checks.geometric_mean_sv(a)))
    a = cgauss(rng, 128)
    _write_json(path("gmd128.json"), checks.matrix_to_json(a))
    add("decompose.gmd.n128", "gmd128.json",
        ["decompose", "--kind", "gmd", "--input", path("gmd128.json")],
        single(a, checks.geometric_mean_sv(a)))
    a = cgauss(rng, 16)
    t = shuffled_target(a, fixed.permutation(16))
    _write_json(path("gtd16.json"), dict(checks.matrix_to_json(a), target=t.tolist()))
    add("decompose.gtd.n16", "gtd16.json",
        ["decompose", "--kind", "gtd", "--input", path("gtd16.json")], single(a, t))
    a = cgauss(rng, 16)
    roots = block_roots(a, (8, 8))
    _write_json(path("block16.json"), dict(checks.matrix_to_json(a), block_sizes=[8, 8],
                                           block_dets=[float(r ** 8) for r in roots]))
    add("decompose.block.n16", "block16.json",
        ["decompose", "--kind", "block", "--input", path("block16.json")],
        single(a, np.repeat(roots, 8)))
    a = cgauss(rng, 8)
    pair = [a, scale_to_absdet(cgauss(rng, 8), np.linalg.slogdet(a)[1])]
    _write_json(path("jet8.json"), {"matrices": [checks.matrix_to_json(m) for m in pair]})
    add("decompose.jet.n8", "jet8.json",
        ["decompose", "--kind", "jet", "--input", path("jet8.json")], multi(pair))
    pair = list(rateless3_pair(rng.uniform(*RATELESS3_RATES)))
    _write_json(path("kgmd2.json"), {"matrices": [checks.matrix_to_json(m) for m in pair]})
    add("decompose.kgmd.n2", "kgmd2.json",
        ["decompose", "--kind", "kgmd", "--input", path("kgmd2.json")], multi(pair, 1.0))

    # spacetime: the large outputs make this the JSON-write-heavy part
    def spacetime_check(mats, n_ext, exponent, unit_diag):
        def check(v, out):
            obj = checks.load_json(out)
            n = mats[0].shape[0]
            v.require(obj["kept_dim"] == checks.kept_dim(n, n_ext, exponent),
                      "kept_dim %r" % obj["kept_dim"])
            if v.ok:
                checks.check_spacetime(v, mats, n_ext, obj["v"],
                                       _users(obj, "t"), exponent, unit_diag)
        return check

    triple = [scale_to_absdet(cgauss(rng, 2)) for _ in range(3)]
    log_det = rng.uniform(-1.0, 1.0)
    quad = [scale_to_absdet(cgauss(rng, 2), log_det) for _ in range(4)]
    _write_json(path("triple.json"), {"matrices": [checks.matrix_to_json(m) for m in triple]})
    _write_json(path("quad.json"), {"matrices": [checks.matrix_to_json(m) for m in quad]})
    for mode, mats, name, sizes in (("gmd", triple, "triple.json", (16, 256)),
                                    ("jet", quad, "quad.json", (16, 64))):
        exponent = len(mats) - (1 if mode == "gmd" else 2)
        for n_ext in sizes:
            add("spacetime.%s.N%d" % (mode, n_ext), "st-%s-%d.json" % (mode, n_ext),
                ["spacetime", "--mode", mode, "--extensions", str(n_ext),
                 "--input", path(name)],
                spacetime_check(mats, n_ext, exponent, mode == "gmd"))

    # simulate on equal-rate channels
    power, rate, n = 4.0, 8.0, 4
    for factors, count, trials in (("gmd", 1, 1000000), ("jet", 2, 100000)):
        users, cov = equal_rate_users(rng, count, n, power, rate)
        name = "sim-%s.json" % factors
        _write_json(path(name), {"users": [checks.matrix_to_json(h) for h in users],
                                 "power": power})
        mi = [checks.log2_det_gram(h, cov) for h in users]

        def sim_check(v, out, factors=factors, mi=mi):
            obj = checks.load_json(out)
            checks.check_close(v, "total_rate", obj["total_rate"], mi[0])
            for user in range(len(mi)):
                streams = [s for s in obj["streams"] if s["user"] == user]
                v.require(len(streams) == n, "%d streams for user %d" % (len(streams), user))
                pred = [s["predicted_snr"] for s in streams]
                if factors == "gmd":
                    for p in pred:
                        checks.check_close(v, "predicted_snr", p, 2.0 ** (mi[user] / n) - 1.0)
                checks.check_close(v, "rate sum", float(np.sum(np.log2(1.0 + np.array(pred)))),
                                   mi[user])
                for s in streams:
                    checks.check_snr(v, s["predicted_snr"], s["measured_snr"], s["std_error"])

        add("simulate.%s" % factors, "sim-%s" % factors,
            ["simulate", "--factors", factors, "--trials", str(trials),
             "--seed", str(int(rng.integers(1 << 31))), "--input", path(name)],
            sim_check)

    def tables_check(v, out):
        with open(out, "r", encoding="utf-8") as fh:
            rows = list(csv.DictReader(io.StringIO(fh.read())))
        v.require(len(rows) == len(cli.TABLE_PERCENTS), "%d table rows" % len(rows))
        for row in rows:
            pct = int(row["percent"])
            f = Fraction(*{33: (1, 3), 67: (2, 3)}.get(pct, (pct, 100)))
            for col, exponent in (("gmd_extensions", 2), ("jet_extensions", 1)):
                want = checks.required_extensions(f, 2, exponent)
                v.require(int(row[col]) == want,
                          "%s at %d%%: %s, expected %d" % (col, pct, row[col], want))

    add("tables", "tables.csv", ["tables", "--format", "csv"], tables_check)

    for name, extra, check in _example_checks():
        add("examples.%s" % name, "ex-%s.json" % name, ["examples", "--name", name] + extra,
            check)

    # warm up every command on its small inputs only
    heavy = ("decompose.gmd.n128", "spacetime.gmd.N256",
             "simulate.gmd", "simulate.jet")
    return Workload("cli", ops, first_of_each(ops, lambda c: c, skip=heavy),
                    small="decompose.gmd.n4", big="spacetime.gmd.N256")


def _example_checks():
    """The README's worked examples, each checked against its closed form."""

    def min_rate(channels, cov):
        return min(checks.log2_det_gram(h, cov) for h in channels)

    def unitary(v, obj, key):
        v.factor("orth", checks.orth(obj[key]))

    def rateless2(v, out):
        obj = checks.load_json(out)
        checks.check_close(v, "total_rate", obj["total_rate"], 8.0)
        checks.check_close(v, "multicast_rate", obj["multicast_rate"], 8.0)
        checks.check_close(v, "multicast_rate", min_rate(obj["channels"], np.eye(2)), 8.0)
        unitary(v, obj, "precoder")

    def rateless3(v, out):
        obj = checks.load_json(out)
        critical = 6.0 * np.log2((3.0 + np.sqrt(5.0)) / 2.0)
        checks.check_close(v, "critical_rate", obj["critical_rate"], critical)
        v.require(obj["feasible"] is True and obj["f1"] >= 0.0,
                  "rate 8 is below the critical rate, so an exact form exists")
        if v.ok:
            unitary(v, obj, "precoder")

    def permuted(v, out):
        obj = checks.load_json(out)
        want = float(np.sum(np.log2(1.0 + np.array([1.0, 4.0, 9.0]))))
        checks.check_close(v, "multicast_rate", obj["multicast_rate"], want)
        checks.check_close(v, "multicast_rate", min_rate(obj["channels"], np.eye(3)), want)
        v.require(len(obj["channels"]) == 6, "3! permuted channels")
        unitary(v, obj, "precoder")

    def dof(v, out):
        obj = checks.load_json(out)
        checks.check_close(v, "multicast_rate", obj["multicast_rate"], 4.0)
        checks.check_close(v, "multicast_rate", min_rate(obj["channels"], np.eye(2) / 2.0), 4.0)
        unitary(v, obj, "precoder")

    return (("rateless2", ["--rate", "8"], rateless2),
            ("rateless3", ["--rate", "8"], rateless3),
            ("permuted", ["--gains", "1,2,3"], permuted),
            ("dof2", ["--rate", "4"], dof),
            ("dof3", ["--rate", "4"], dof))


WORKLOADS = {"dense": dense, "extension": extension, "cli": cli_workload}
