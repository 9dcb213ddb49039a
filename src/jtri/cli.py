"""Command-line front end.

Subcommands: decompose, spacetime, tables, examples, simulate.  Matrices
travel as JSON objects {"rows": n, "cols": m, "data": [[re, im], ...]}
(row-major, n and m JSON integers); multi-matrix inputs as
{"matrices": [...]} plus parameters (``target`` for gtd, ``block_sizes``
and ``block_dets`` for block).  Output is JSON; ``tables --format csv``
writes CSV with '.' decimal, ',' separator, LF endings and 12 significant
digits.

Commands put numpy arrays, and ``spacetime`` its matcore.BlockToeplitz
factors, into their output documents as they are; the JSON text is the
pieces of ``matcore.pieces``, all built before the output is opened, so a
command that fails writes nothing.  No output document holds matcore's
mark string as a string.  A non-finite number is never written: it fails
the command with exit 4, in a matrix or as a scalar (a non-finite input
exits 5), except that ``simulate`` reports an infinite SNR as null.

Exit codes: 0 success, 2 parse error, 3 the requested decomposition is
infeasible, 4 numerical failure or out of memory, 5 dimension or
precondition problem.
Identical invocations (including --seed) produce byte-identical output.

``main(argv)`` may be called any number of times in one process.  The
parser is built on the first call and keeps no per-call state.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import matcore, multicast, spacetime
from . import gtd as gtd_mod
from . import joint as joint_mod
from .errors import (
    DimensionError,
    InfeasibleError,
    JtriError,
    NotConstructibleError,
    NumericalError,
    ParseError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
EXIT_DIMENSION = 5

TABLE_PERCENTS = (33, 37, 50, 60, 67, 75, 80, 90)


def table_fraction(percent):
    """Exact capacity fraction intended by a rounded table percentage
    (the thirds are exact: 33 -> 1/3, 67 -> 2/3)."""
    if percent == 33:
        return Fraction(1, 3)
    if percent == 67:
        return Fraction(2, 3)
    return Fraction(int(percent), 100)


def _fmt(x):
    """CSV number format: 12 significant digits."""
    return "%.12g" % x


def _load_payload(args):
    if (args.input is None) == (args.inline is None):
        raise ParseError("exactly one of --input or --inline is required")
    text = args.inline
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError("cannot read %s: %s" % (args.input, exc)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from exc


def _payload_matrices(payload):
    if isinstance(payload, dict) and "matrices" in payload:
        items = payload["matrices"]
    elif isinstance(payload, dict) and "rows" in payload:
        items = [payload]
    else:
        items = payload
    if not isinstance(items, list):
        raise ParseError("expected a matrix object or {\"matrices\": [...]}")
    mats = [matcore.matrix_from_json(m) for m in items]
    if not mats:
        raise ParseError("need at least 1 matrix")
    return mats, payload if isinstance(payload, dict) else {}


def _emit(args, obj):
    """Write a command's output: ``obj`` as JSON and a newline (the pieces
    of :func:`matcore.pieces`), or as it is when it is already text (the CSV
    form of ``tables``).  All of it is built before the --out file or stdout
    is opened, so a command that fails writes nothing.  A stdout without a
    binary buffer (a StringIO under contextlib.redirect_stdout) takes text."""
    pieces = [obj.encode("utf-8")] if isinstance(obj, str) else matcore.pieces(obj) + [b"\n"]
    if args.out:
        with open(args.out, "wb") as fh:
            fh.writelines(pieces)
        return
    sys.stdout.flush()
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        sys.stdout.writelines(piece.decode("utf-8") for piece in pieces)
    else:
        out.writelines(pieces)


def _flag(kind, ok, need):
    """An argparse type: the flag's text read as ``kind`` and kept when
    ``ok`` holds for it; anything else is a usage error (exit 2) saying
    that the flag needs ``need``."""
    def read(text):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("needs %s, got %r" % (need, text))
    return read


def _check_tol(args, residuals):
    """Optional --tol gate: fail the run when any residual diagnostic
    exceeds the caller's bound."""
    if args.tol is None:
        return
    worst = max(residuals.values())
    if worst > args.tol:
        raise NumericalError(
            "residual diagnostic %.3g exceeds --tol %.3g" % (worst, args.tol))


def _recon_rel(a, u, r, v):
    """||u r v^H - a|| / ||a||, with both sides divided by max|a| first so
    the norms neither overflow nor underflow at extreme scales."""
    scale = float(np.max(np.abs(a))) or 1.0
    return float(np.linalg.norm((u @ r @ v.conj().T - a) / scale)
                 / np.linalg.norm(a / scale))


def _residuals(mats, v, users, diag=None, lower=()):
    """Residual diagnostics of a_k = u_k r_k v^H: the worst relative
    reconstruction error and the largest entry on the wrong side of an
    r_k's diagonal (above it for the users indexed in ``lower``, below it
    for the rest), plus the largest diagonal deviation from ``diag``
    relative to its mean when ``diag`` is given."""
    out = {
        "recon_rel": max(_recon_rel(a, u, r, v) for a, (u, r) in zip(mats, users)),
        "triangularity": max(
            float(np.max(np.abs(np.triu(r, 1) if k in lower else np.tril(r, -1))))
            for k, (_, r) in enumerate(users)),
    }
    if diag is not None:
        out["diag_spread"] = float(
            max(np.max(np.abs(np.real(np.diag(r)) - diag)) for _, r in users)
            / np.mean(np.abs(diag)))
    return out


def _json_list(payload, key, types=(int, float), low=-np.inf):
    """payload[key] if it is a list of JSON numbers of ``types`` (bool and
    str are types of their own) at or above ``low``, else ParseError."""
    value = payload.get(key)
    if not isinstance(value, list) or not all(type(x) in types and x >= low for x in value):
        raise ParseError("'%s' needs a list of %s" % (key, "counts" if low > 0 else "numbers"))
    return value


def _cmd_decompose(args):
    mats, payload = _payload_matrices(_load_payload(args))
    kind = args.kind
    if kind in ("gtd", "gmd", "block"):
        if len(mats) != 1:
            raise ParseError("%s expects a single matrix" % kind)
        a = mats[0]
        if kind == "gmd":
            fac = gtd_mod.gmd(a)
        elif kind == "gtd":
            fac = gtd_mod.gtd(a, _json_list(payload, "target"))
        else:
            spec = gtd_mod.BlockSpec(block_sizes=_json_list(payload, "block_sizes", (int,), 1),
                                     block_dets=_json_list(payload, "block_dets"))
            fac = gtd_mod.block_gtd(a, spec)
        out = {
            "kind": kind,
            "u": fac.u, "r": fac.r, "v": fac.v,
            "diag": fac.diag.tolist(),
            "residuals": _residuals([a], fac.v, [(fac.u, fac.r)]),
        }
        if kind == "block":
            out["boundaries"] = fac.boundaries
    elif kind in ("jet", "kgmd"):
        if kind == "jet" and len(mats) < 2:
            raise ParseError("jet expects at least two matrices, got %d" % len(mats))
        construct = joint_mod.kgmd_to_kjet if kind == "jet" else joint_mod.kgmd_exact
        factors = construct(mats)
        out = {
            "kind": kind,
            "v": factors.v,
            "users": [{"u": u, "r": r} for u, r in factors.users],
            "diag": factors.diag.tolist(),
            "residuals": _residuals(mats, factors.v, factors.users, diag=factors.diag),
        }
    else:
        if len(mats) != 2:
            raise ParseError("upper-lower expects two matrices")
        v, u1, r1, u2, r2 = joint_mod.construct_upper_lower(*mats)
        out = {
            "kind": kind,
            "v": v,
            "users": [{"u": u1, "r": r1}, {"u": u2, "r": r2}],
            "residuals": _residuals(mats, v, [(u1, r1), (u2, r2)], lower=(1,)),
        }
    _check_tol(args, out["residuals"])
    _emit(args, out)
    return EXIT_OK


def _cmd_spacetime(args):
    mats, _payload = _payload_matrices(_load_payload(args))
    if args.mode == "jet" and len(mats) < 2:
        raise ParseError("mode 'jet' expects at least two matrices, got %d" % len(mats))
    factors = spacetime.toeplitz_factors(mats, args.extensions, args.mode)
    n = factors.n
    kept = factors.kept_dim
    total = n * factors.n_ext
    out = {
        "mode": args.mode,
        "n": n,
        "users_count": len(factors.users),
        "extensions": factors.n_ext,
        "kept_dim": kept,
        "efficiency": kept / total,
        "min_extensions": spacetime.discarded_uses(n, len(mats), args.mode) + 1,
        "kept_indices": factors.kept_indices,
        "v": factors.v,
        "users": [{"u": u, "t": t} for u, t in factors.users],
        "diag": factors.diag.tolist(),
    }
    _emit(args, out)
    return EXIT_OK


def _cmd_tables(args):
    n, k_users = 2, 3
    lines = ["percent,gmd_extensions,gmd_fraction,jet_extensions,jet_fraction"]
    rows = {"percent": [], "gmd": [], "jet": []}
    for pct in TABLE_PERCENTS:
        frac = table_fraction(pct)
        n_gmd = spacetime.required_extensions(frac, n, k_users, "gmd")
        n_jet = spacetime.required_extensions(frac, n, k_users, "jet")
        f_gmd = (n_gmd - spacetime.discarded_uses(n, k_users, "gmd")) / n_gmd
        f_jet = (n_jet - spacetime.discarded_uses(n, k_users, "jet")) / n_jet
        lines.append("%d,%d,%s,%d,%s" % (pct, n_gmd, _fmt(f_gmd), n_jet, _fmt(f_jet)))
        rows["percent"].append(pct)
        rows["gmd"].append(n_gmd)
        rows["jet"].append(n_jet)
    _emit(args, rows if args.format == "json" else "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_examples(args):
    name = args.name
    if name == "rateless2":
        c = args.rate
        hs = multicast.rateless_channels(2, c)
        cov = np.eye(2, dtype=complex)
        prob = multicast.MulticastProblem(users=hs, cov=cov, power=2.0)
        with multicast.rate_in_range(c):
            gs = [multicast.canonical_matrix(h, cov) for h in hs]
            factors = joint_mod.jet2(gs[0], gs[1])
        rates = multicast.scheme_rates(factors.diag)
        out = {
            "name": name, "rate": c,
            "channels": hs,
            "canonical": gs,
            "precoder": factors.v,
            "diag": factors.diag.tolist(),
            "total_rate": rates.total_rate,
            "multicast_rate": multicast.multicast_rate(prob),
        }
    elif name == "rateless3":
        c = args.rate
        a1, a2 = multicast.rateless3_reduce(c)
        s1 = a1.conj().T @ a1 - np.eye(2)
        s2 = a2.conj().T @ a2 - np.eye(2)
        with multicast.rate_in_range(c):
            try:
                factors = joint_mod.construct_2gmd(a1, a2)
            except NotConstructibleError:
                factors = None
        critical = 6.0 * np.log2((3.0 + np.sqrt(5.0)) / 2.0)
        out = {
            "name": name, "rate": c,
            "reduced_pair": [a1, a2],
            "f1": joint_mod.f1(s1, s2),
            "feasible": factors is not None,
            "critical_rate": critical,
        }
        if factors is not None:
            out["precoder"] = factors.v
            out["witness"] = factors.v[:, :1]
        else:
            out["note"] = "exact construction impossible above the critical rate"
    elif name == "permuted":
        try:
            gains = [float(x) for x in args.gains.split(",")] if args.gains else [1.0, 2.0]
        except ValueError as exc:
            raise ParseError("--gains needs comma-separated numbers") from exc
        if not all(0 < g <= sys.float_info.max for g in gains):
            raise ParseError("--gains needs finite numbers > 0")
        channels = multicast.permuted_channels(gains)
        cov = np.eye(len(gains), dtype=complex)
        prob = multicast.MulticastProblem(users=channels, cov=cov,
                                          power=float(len(gains)))
        out = {
            "name": name, "gains": gains,
            "channels": channels,
            "precoder": multicast.dft_precoder(len(gains)),
            "multicast_rate": multicast.multicast_rate(prob),
        }
    else:
        variant = "two_user" if name == "dof2" else "three_user"
        ex = multicast.dof_mismatch_example(args.rate, variant)
        out = {
            "name": name, "rate": args.rate,
            "gains": [float(g) for g in ex.gains],
            "channels": ex.problem.users,
            "canonical": [multicast.canonical_matrix(h, ex.problem.cov)
                          for h in ex.problem.users],
            "precoder": ex.precoder,
            "multicast_rate": multicast.multicast_rate(ex.problem),
        }
        if ex.t_matrices is not None:
            out["t_matrices"] = ex.t_matrices
    _emit(args, out)
    return EXIT_OK


def _cmd_simulate(args):
    payload = _load_payload(args)
    payload = payload if isinstance(payload, dict) else {}
    users, power = payload.get("users"), payload.get("power", 1.0)
    if (not isinstance(users, list) or not users or type(power) not in (int, float)
            or not 0 < power <= sys.float_info.max):
        raise ParseError("simulate expects {\"users\": [matrix, ...], \"cov\": matrix, "
                         "\"power\": finite number > 0}")
    users = [matcore.matrix_from_json(h) for h in users]
    cov = matcore.matrix_from_json(payload["cov"]) if "cov" in payload else None
    power = float(power)
    if cov is None:
        n_t = users[0].shape[1]
        cov = np.eye(n_t, dtype=complex) * (power / n_t)
    problem = multicast.MulticastProblem(users=users, cov=cov, power=power)
    gs = [multicast.canonical_matrix(h, problem.cov) for h in problem.users]
    source = args.factors
    if source == "svd":
        if len(gs) != 1:
            raise ParseError("svd factors are single-user only")
        fac = matcore.svd(gs[0])
        factors = joint_mod.JointFactors(
            v=fac.v, users=[(fac.u, np.diag(fac.sigma).astype(complex))],
            diag=fac.sigma.copy())
    elif source == "gmd":
        if len(gs) != 1:
            raise ParseError("gmd factors are single-user only; use jet")
        fac = gtd_mod.gmd(gs[0])
        factors = joint_mod.JointFactors(v=fac.v, users=[(fac.u, fac.r)],
                                         diag=fac.diag)
    else:
        if len(gs) < 2:
            raise ParseError("jet factors need at least two users, got %d" % len(gs))
        factors = joint_mod.kgmd_to_kjet(gs)
    reports = multicast.simulate_sic(problem, factors, trials=args.trials,
                                     seed=args.seed)
    rates = multicast.scheme_rates(np.maximum(factors.diag, 1.0))

    def _num(x):
        return None if np.isinf(x) else float(x)

    streams = []
    for user_idx, r in enumerate(reports):
        for j in range(len(r.predicted_snr)):
            streams.append({
                "user": user_idx,
                "stream": j,
                "predicted_snr": _num(r.predicted_snr[j]),
                "measured_snr": _num(r.measured_snr[j]),
                "std_error": _num(r.std_error[j]),
                "rate_bits": float(np.log2(1.0 + max(r.predicted_snr[j], 0.0))),
            })
    out = {
        "seed": int(args.seed),
        "trials": int(args.trials),
        "total_rate": rates.total_rate,
        "streams": streams,
    }
    _emit(args, out)
    return EXIT_OK


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="jtri",
        description="Joint unitary triangularization toolkit: single and "
                    "multi-matrix decompositions, time-extension "
                    "constructions, and multicast scheme utilities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", help="path to a JSON input file")
            p.add_argument("--inline", help="inline JSON input")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("decompose", help="single- or multi-matrix decompositions")
    p.add_argument("--kind", required=True,
                   choices=("gtd", "gmd", "jet", "kgmd", "upper-lower", "block"))
    # NaN would pass every run and -1 fail every one
    p.add_argument("--tol", type=_flag(float, lambda x: x >= 0, "a number >= 0"), default=None,
                   help="fail the run (exit 4) when a residual exceeds this bound")
    add_io(p)

    p = sub.add_parser("spacetime", help="time-extension joint triangularization")
    p.add_argument("--mode", choices=("gmd", "jet"), default="gmd")
    p.add_argument("--extensions", type=int, required=True)
    add_io(p)

    p = sub.add_parser("tables", help="required time extensions per capacity fraction")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_io(p, needs_input=False)

    p = sub.add_parser("examples", help="worked channel families")
    p.add_argument("--name", required=True,
                   choices=("rateless2", "rateless3", "permuted", "dof2", "dof3"))
    p.add_argument("--rate", type=_flag(float, lambda x: 0 < x <= sys.float_info.max,
                                        "a finite number > 0"), default=4.0)
    p.add_argument("--gains", help="comma-separated gains for permuted")
    add_io(p, needs_input=False)

    p = sub.add_parser("simulate", help="successive-cancellation link simulation")
    p.add_argument("--factors", choices=("gmd", "svd", "jet"), default="gmd")
    p.add_argument("--seed", type=_flag(int, lambda s: 0 <= s < 2 ** 128,
                                        "an integer in [0, 2^128)"), default=0)
    p.add_argument("--trials", type=_flag(int, lambda t: t >= 1, "an integer >= 1"),
                   default=100000)
    add_io(p)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()["_cmd_" + args.command](args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except InfeasibleError as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except DimensionError as exc:
        print("dimension error: %s" % exc, file=sys.stderr)
        return EXIT_DIMENSION
    except (JtriError, MemoryError) as exc:
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
