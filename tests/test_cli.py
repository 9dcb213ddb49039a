import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import jtri
from jtri import cli, errors, matcore, multicast, spacetime
from util import matrix_to_json_per_entry, per_entry_document, rand_complex, rand_unit_det


def mat_json(a):
    return matrix_to_json_per_entry(np.asarray(a, dtype=complex))


def run_cli(capsys, args, inline=None):
    argv = list(args)
    if inline is not None:
        argv += ["--inline", json.dumps(inline)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_gmd(capsys):
    code, out, _ = run_cli(capsys, ["decompose", "--kind", "gmd"],
                           mat_json(np.diag([2.0, 0.5])))
    assert code == 0
    payload = json.loads(out)
    assert payload["diag"] == [1.0, 1.0]
    assert payload["residuals"]["recon_rel"] < 1e-9


def test_decompose_gtd_with_target(capsys):
    code, out, _ = run_cli(
        capsys, ["decompose", "--kind", "gtd"],
        dict(mat_json(np.diag([4.0, 1.0])), target=[3, 1.3333333333333333]))
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["diag"][0] - 3.0) < 1e-9


def test_decompose_gtd_infeasible_exit_code(capsys):
    code, _out, err = run_cli(
        capsys, ["decompose", "--kind", "gtd"],
        dict(mat_json(np.diag([4.0, 1.0])), target=[5, 0.8]))
    assert code == cli.EXIT_INFEASIBLE
    assert "prefix" in err


def test_decompose_kgmd_infeasible_names_condition(capsys):
    a1 = np.diag([8.0, 0.125])
    a2 = np.diag([0.125, 8.0])
    code, _out, err = run_cli(
        capsys, ["decompose", "--kind", "kgmd"],
        {"matrices": [mat_json(a1), mat_json(a2)]})
    assert code == cli.EXIT_INFEASIBLE
    assert "F1 = " in err and "< 0" in err


def test_decompose_kgmd_on_the_rate_100_reduced_pair_names_f1(capsys):
    # the forms reach 1e10, and the witness checks |A_k v|^2 = 1 on them
    # unscaled: no vector gives unit diagonals
    a1, a2 = multicast.rateless3_reduce(100.0)
    code, out, err = run_cli(capsys, ["decompose", "--kind", "kgmd"],
                             {"matrices": [mat_json(a1), mat_json(a2)]})
    assert (code, out) == (cli.EXIT_INFEASIBLE, "")
    assert err == ("infeasible: exact joint unit-diagonal triangularization does not "
                   "exist: F1 = -1.17125e+20 < 0\n")


def test_decompose_kgmd_on_forms_that_overflow_is_a_numerical_failure():
    # A^H A of diag(1e160, 1e-160) overflows: one line on stderr, no warning
    inline = {"matrices": [mat_json(np.diag([1e160, 1e-160])), mat_json([[2.0, 1.0], [1.0, 1.0]])]}
    src = os.path.dirname(os.path.dirname(jtri.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "jtri", "decompose", "--kind", "kgmd", "--inline", json.dumps(inline)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (cli.EXIT_NUMERICAL, "")
    assert done.stderr == "numerical failure: a form of the 2x2 existence test is not finite\n"


def test_decompose_jet_rateless_closed_form(capsys):
    c = 4.0
    g1 = np.diag([2.0 ** (c / 2.0), 1.0])
    g2 = 2.0 ** (c / 4.0) * np.eye(2)
    code, out, _ = run_cli(capsys, ["decompose", "--kind", "jet"],
                           {"matrices": [mat_json(g1), mat_json(g2)]})
    assert code == 0
    payload = json.loads(out)
    v = matcore.matrix_from_json(payload["v"])
    expect = np.sqrt(1.0 / (2.0 ** (c / 2.0) + 1.0)) * np.array(
        [[1.0, 2.0 ** (c / 4.0)], [2.0 ** (c / 4.0), -1.0]])
    ratios = v / expect
    assert np.max(np.abs(np.abs(ratios) - 1.0)) < 1e-9
    assert np.max(np.abs(ratios[0, :] - ratios[1, :])) < 1e-9


def test_decompose_recon_rel_at_extreme_scale(capsys, monkeypatch):
    # ||a|| overflows at this scale, so an unscaled residual reads 0
    a = 1e160 * rand_complex(np.random.default_rng(16), 4)
    args = ["decompose", "--kind", "gmd", "--tol", "1e-12"]
    code, out, _ = run_cli(capsys, args, mat_json(a))
    assert code == 0
    assert 0.0 < json.loads(out)["residuals"]["recon_rel"] < 1e-12
    gmd = cli.gtd_mod.gmd

    def corrupted(m):
        fac = gmd(m)
        fac.r = fac.r * (1.0 + 1e-6)
        return fac

    monkeypatch.setattr(cli.gtd_mod, "gmd", corrupted)
    code, _out, err = run_cli(capsys, args, mat_json(a))
    assert code == cli.EXIT_NUMERICAL
    assert "exceeds --tol" in err


def test_decompose_jet_diag_spread_is_relative(capsys):
    rng = np.random.default_rng(17)
    mats = [mat_json(1e6 * rand_unit_det(rng, 4)) for _ in range(2)]
    code, out, _ = run_cli(capsys, ["decompose", "--kind", "jet", "--tol", "1e-12"],
                           {"matrices": mats})
    assert code == 0
    assert json.loads(out)["residuals"]["diag_spread"] < 1e-12


_EYE = json.dumps(mat_json(np.eye(2)))


@pytest.mark.parametrize("args", [
    ["decompose", "--kind", "gmd", "--seed", "1", "--inline", _EYE],
    ["spacetime", "--extensions", "4", "--tol", "1e-9", "--inline", _EYE],
    ["tables", "--trials", "10"],
    ["decompose", "--kind", "gmd", "--format", "csv", "--inline", _EYE],
    ["decompose", "--kind", "gtd", "--target", "1,1", "--inline", _EYE],
    ["decompose", "--kind", "block", "--blocks", "1,1", "--dets", "1,1", "--inline", _EYE],
    ["examples", "--name", "permuted", "--format", "json"],
])
def test_flags_outside_their_command_are_usage_errors(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2


def test_decompose_upper_lower_and_block(capsys):
    b = 2.0
    a1 = np.diag([b, 1.0 / b])
    a2 = np.diag([1.0 / b, b])
    code, out, _ = run_cli(capsys, ["decompose", "--kind", "upper-lower"],
                           {"matrices": [mat_json(a1), mat_json(a2)]})
    assert code == 0
    payload = json.loads(out)
    assert payload["residuals"]["triangularity"] < 1e-9
    a = np.diag([4.0, 2.0, 1.0, 0.125])
    code, out, _ = run_cli(
        capsys,
        ["decompose", "--kind", "block"],
        dict(mat_json(a), block_sizes=[2, 2], block_dets=[6, 0.16666666666666666]))
    assert code == 0
    assert json.loads(out)["boundaries"] == [0, 2]


def test_decompose_parse_error(capsys):
    code, _out, err = run_cli(capsys, ["decompose", "--kind", "gmd", "--inline", "{bad"])
    assert code == cli.EXIT_PARSE
    assert "parse error" in err


@pytest.mark.parametrize("data", ["[[null,0]]", '[["abc",0]]', "[[[1],2]]", '[["1.5",0]]',
                                  "[[1.5,true]]", '[["2",false]]'])
def test_decompose_bad_matrix_entry_is_parse_error(data, capsys):
    inline = '{"rows":1,"cols":1,"data":%s}' % data
    code, out, err = run_cli(capsys, ["decompose", "--kind", "gmd", "--inline", inline])
    assert code == cli.EXIT_PARSE
    assert out == "" and "parse error" in err


@pytest.mark.parametrize("inline", [
    '{"matrices": 5}',
    '{"matrices": null}',
    '{"rows": 1e400, "cols": 1, "data": [[1, 0]]}',
    '{"rows": 2.7, "cols": 1, "data": [[1, 0], [2, 0]]}',
    '{"rows": "2", "cols": 1, "data": [[1, 0], [2, 0]]}',
    '{"rows": true, "cols": 1, "data": [[1, 0]]}',
])
def test_decompose_malformed_matrix_payload_is_parse_error(inline, capsys):
    code, out, err = run_cli(capsys, ["decompose", "--kind", "gmd", "--inline", inline])
    assert code == cli.EXIT_PARSE
    assert out == "" and "parse error" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "abc"])
def test_decompose_tol_must_be_a_non_negative_number(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose", "--kind", "gmd", "--tol", tol, "--inline", _EYE])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --tol" in err


_BLOCK_OK = {"block_sizes": [2, 2], "block_dets": [6, 0.16666666666666666]}


@pytest.mark.parametrize("kind, fields", [
    ("gtd", {}),
    ("gtd", {"target": "ab"}),
    ("gtd", {"target": [4, 2, "1", 0.125]}),
    ("gtd", {"target": [4, 2, True, 0.125]}),
    ("block", {"block_sizes": [2, 2]}),
    ("block", dict(_BLOCK_OK, block_dets=[[2, 0], [0.5, 0]])),
    ("block", dict(_BLOCK_OK, block_dets=["6", 0.16666666666666666])),
    ("block", dict(_BLOCK_OK, block_dets=[6, False])),
    ("block", dict(_BLOCK_OK, block_sizes=[2.0, 2])),
    ("block", dict(_BLOCK_OK, block_sizes=[4, 0])),
    ("block", dict(_BLOCK_OK, block_sizes=[True, 3])),
    ("block", dict(_BLOCK_OK, block_sizes="22")),
])
def test_decompose_malformed_parameters_are_parse_errors(kind, fields, capsys):
    payload = dict(mat_json(np.diag([4.0, 2.0, 1.0, 0.125])), **fields)
    code, out, err = run_cli(capsys, ["decompose", "--kind", kind], payload)
    assert code == cli.EXIT_PARSE
    assert out == "" and "parse error" in err


_H = mat_json(np.diag([1.0, 2.0]))


# power must also be finite and positive; 1e400 reads as inf
@pytest.mark.parametrize("power", ["abc", None, "2", True, 0, -1, float("nan"), 1e400])
def test_simulate_power_must_be_a_number(power, capsys):
    code, out, err = run_cli(capsys, ["simulate", "--trials", "100"],
                             {"users": [_H], "power": power})
    assert code == cli.EXIT_PARSE
    assert out == "" and "parse error" in err


def _error_classes(cls=errors.JtriError):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


# each category's exit code and stderr label; JtriError itself and running
# out of memory are numerical failures without a category of their own
_CATEGORIES = [
    (errors.ParseError, cli.EXIT_PARSE, "parse error"),
    (errors.InfeasibleError, cli.EXIT_INFEASIBLE, "infeasible"),
    (errors.NumericalError, cli.EXIT_NUMERICAL, "numerical failure"),
    (errors.DimensionError, cli.EXIT_DIMENSION, "dimension error"),
    (Exception, cli.EXIT_NUMERICAL, "error"),
]


@pytest.mark.parametrize("cls", _error_classes() + [MemoryError], ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_category(cls, capsys, monkeypatch):
    defined = {c for c in vars(errors).values() if isinstance(c, type)}
    assert set(_error_classes()) == defined
    code, label = next((code, label) for base, code, label in _CATEGORIES
                       if issubclass(cls, base))

    def failing(*args):
        raise cls("boom") if cls is not MemoryError else MemoryError

    monkeypatch.setattr(cli.spacetime, "toeplitz_factors", failing)
    got, out, err = run_cli(capsys, ["spacetime", "--extensions", "1000000"],
                            {"matrices": [mat_json(np.eye(2))]})
    message = "out of memory" if cls is MemoryError else "boom"
    assert (got, out, err) == (code, "", "%s: %s\n" % (label, message))


def test_main_runs_the_command_function_found_at_call_time(capsys, monkeypatch):
    assert cli.main(["tables"]) == cli.EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "_cmd_tables", lambda args: seen.append(args) or 17)
    assert cli.main(["tables"]) == 17
    assert [(args.command, args.format) for args in seen] == [("tables", "json")]
    assert capsys.readouterr().out.startswith("{")


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    init = argparse.ArgumentParser.__init__
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert cli.main(["tables"]) == cli.EXIT_OK
    assert built and built[0] == "jtri"
    del built[:]
    assert cli.main(["tables", "--format", "csv"]) == cli.EXIT_OK
    with pytest.raises(SystemExit):
        cli.main(["examples", "--name", "dof2", "--rate", "nan"])
    assert run_cli(capsys, ["decompose", "--kind", "gmd"], mat_json(np.eye(2)))[0] == 0
    assert built == []


def test_simulate_users_must_be_a_nonempty_list(capsys):
    code, out, err = run_cli(capsys, ["simulate", "--trials", "100"], {"users": []})
    assert code == cli.EXIT_PARSE
    assert out == "" and "parse error" in err


_FLAG_CASES = [
    (["simulate", "--seed", "-1"], 2, "argument --seed: needs an integer in [0, 2^128)"),
    (["simulate", "--seed", str(2 ** 128)], 2, "argument --seed: needs an integer in [0, 2^128)"),
    (["simulate", "--trials", "0"], 2, "argument --trials: needs an integer >= 1"),
    (["examples", "--name", "rateless2", "--rate", "1e6"], 4,
     "numerical failure: rate 1000000.0 is too large: 2^rate overflows a float"),
    (["examples", "--name", "rateless3", "--rate", "1e6"], 4,
     "numerical failure: rate 1000000.0 is too large: 2^rate overflows a float"),
    (["examples", "--name", "dof2", "--rate", "1e6"], 4,
     "numerical failure: rate 1000000.0 is too large: 2^rate overflows a float"),
    (["examples", "--name", "dof3", "--rate", "2000"], 4,
     "numerical failure: rate 2000.0 is too large: 2^rate overflows a float"),
    # 2^rate is finite, 2 * (2^rate - 1) is not
    (["examples", "--name", "dof2", "--rate", "1023.5"], 4,
     "numerical failure: rate 1023.5 is too large: 2^rate overflows a float"),
    (["examples", "--name", "dof3", "--rate", "1023.9"], 4,
     "numerical failure: rate 1023.9 is too large: 2^rate overflows a float"),
    # finite 2^rate, but past what double precision can construct
    (["examples", "--name", "rateless2", "--rate", "600"], 4,
     "numerical failure: rate 600.0 is too large: column residual below 1e-12 of the input norm"),
    (["examples", "--name", "rateless2", "--rate", "nan"], 2,
     "argument --rate: needs a finite number > 0"),
    (["examples", "--name", "dof2", "--rate", "-1"], 2, "argument --rate: needs a finite number > 0"),
    (["examples", "--name", "rateless3", "--rate", "0"], 2,
     "argument --rate: needs a finite number > 0"),
    (["examples", "--name", "permuted", "--gains", "1,-2"], 2,
     "parse error: --gains needs finite numbers > 0"),
    (["examples", "--name", "permuted", "--gains", "1,nan"], 2,
     "parse error: --gains needs finite numbers > 0"),
    (["examples", "--name", "permuted", "--gains", "1,inf"], 2,
     "parse error: --gains needs finite numbers > 0"),
]


@pytest.mark.parametrize("args, code, line", _FLAG_CASES,
                         ids=[" ".join(args) for args, _, _ in _FLAG_CASES])
def test_numeric_flags_out_of_range_exit_with_their_category(args, code, line, capsys):
    # a usage error exits 2 from argparse, with its usage text above the line
    try:
        got = cli.main(args + (["--inline", json.dumps({"users": [_H]})]
                               if args[0] == "simulate" else []))
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    if line.startswith("argument"):
        assert err.splitlines()[-1].endswith("error: %s, got %r" % (line, args[-1]))
    else:
        assert err == line + "\n"


@pytest.mark.parametrize("gains", ["1,,2", "abc"])
def test_examples_gains_must_be_numbers(gains, capsys):
    code, out, err = run_cli(capsys, ["examples", "--name", "permuted", "--gains", gains])
    assert code == cli.EXIT_PARSE
    assert out == "" and "parse error" in err


@pytest.mark.parametrize("args, inline", [
    (["decompose", "--kind", "gmd"], {"matrices": [_H, _H]}),
    (["decompose", "--kind", "upper-lower"], {"matrices": [_H, _H, _H]}),
    (["simulate", "--trials", "100"], [_H]),
    (["simulate", "--trials", "100"], {"power": 2.0}),
    (["simulate", "--factors", "svd", "--trials", "100"], {"users": [_H, _H]}),
    (["simulate", "--factors", "gmd", "--trials", "100"], {"users": [_H, _H]}),
    (["decompose", "--kind", "jet"], {"matrices": [_H]}),
    (["simulate", "--factors", "jet", "--trials", "100"], {"users": [_H]}),
    (["spacetime", "--mode", "jet", "--extensions", "4"], {"matrices": [_H]}),
])
def test_wrong_matrix_counts_are_parse_errors(args, inline, capsys):
    code, out, err = run_cli(capsys, args, inline)
    assert code == cli.EXIT_PARSE
    assert out == "" and "parse error" in err


def test_runtime_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(jtri.__file__))
    code = "import sys, jtri, jtri.cli; sys.exit(int('scipy' in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert done.returncode == 0


def test_decompose_requires_exactly_one_source(capsys):
    code, _out, err = run_cli(capsys, ["decompose", "--kind", "gmd"])
    assert code == cli.EXIT_PARSE


def test_input_file_reads_like_inline(tmp_path, capsys):
    # a payload file, an unreadable path, and a bare list of matrix objects
    mats = [mat_json(np.array([[2, 1], [1, 1]])), mat_json(np.array([[1, 1j], [0, 1]]))]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"matrices": mats}), encoding="utf-8")
    args = ["decompose", "--kind", "jet"]
    code, expect, _ = run_cli(capsys, args, {"matrices": mats})
    assert code == 0
    assert run_cli(capsys, args + ["--input", str(path)])[:2] == (0, expect)
    assert run_cli(capsys, args, mats)[:2] == (0, expect)
    code, out, err = run_cli(capsys, args + ["--input", str(tmp_path / "missing.json")])
    assert code == cli.EXIT_PARSE
    assert out == "" and "cannot read" in err


def test_decompose_numerical_exit(capsys):
    code, _out, err = run_cli(capsys, ["decompose", "--kind", "gmd"],
                              mat_json(np.zeros((2, 2))))
    assert code == cli.EXIT_NUMERICAL


def test_spacetime_command(capsys):
    rng = np.random.default_rng(0)
    mats = [mat_json(rand_unit_det(rng, 2)) for _ in range(3)]
    code, out, _ = run_cli(capsys, ["spacetime", "--mode", "gmd", "--extensions", "4"],
                           {"matrices": mats})
    assert code == 0
    payload = json.loads(out)
    assert payload["kept_dim"] == 2
    assert payload["efficiency"] == 0.25
    assert sorted(payload["kept_indices"]) == [4, 5]
    code, _out, err = run_cli(capsys, ["spacetime", "--mode", "gmd", "--extensions", "2"],
                              {"matrices": mats})
    assert code == cli.EXIT_INFEASIBLE


def test_spacetime_jet_efficiency(capsys):
    # three equal-diagonal users keep N-1 of N uses
    rng = np.random.default_rng(1)
    mats = [mat_json(rand_unit_det(rng, 2)) for _ in range(3)]
    code, out, _ = run_cli(capsys, ["spacetime", "--mode", "jet", "--extensions", "10"],
                           {"matrices": mats})
    assert code == 0
    payload = json.loads(out)
    assert payload["efficiency"] == 0.9
    assert payload["kept_dim"] == 18


def test_tables_csv_rows(capsys):
    code, out, _ = run_cli(capsys, ["tables", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("percent,")
    gmd = [int(line.split(",")[1]) for line in lines[1:]]
    jet = [int(line.split(",")[3]) for line in lines[1:]]
    assert gmd == [5, 5, 6, 8, 9, 12, 15, 30]
    assert jet == [2, 2, 2, 3, 3, 4, 5, 10]
    fractions = [float(line.split(",")[2]) for line in lines[1:]]
    for n_ext, frac in zip(gmd, fractions):
        assert abs(frac - (n_ext - 3) / n_ext) < 1e-12


def test_examples_rateless3_feasibility(capsys):
    code, out, _ = run_cli(capsys, ["examples", "--name", "rateless3", "--rate", "8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert "precoder" in payload
    code, out, _ = run_cli(capsys, ["examples", "--name", "rateless3", "--rate", "9"])
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert abs(payload["critical_rate"] - 8.3309) < 1e-3


@pytest.mark.parametrize("rate", ["100", "1500"])
def test_examples_rateless3_far_above_the_critical_rate_is_infeasible(rate, capsys):
    # the reduced pair's forms reach 1e10 at rate 100 and 3e150 at 1500
    code, out, err = run_cli(capsys, ["examples", "--name", "rateless3", "--rate", rate])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["feasible"] is False and "precoder" not in payload
    assert np.isfinite(payload["f1"]) and payload["f1"] < 0


def test_examples_permuted_and_dof(capsys):
    code, out, _ = run_cli(capsys, ["examples", "--name", "permuted", "--gains", "1,2,3"])
    assert code == 0
    payload = json.loads(out)
    v = matcore.matrix_from_json(payload["precoder"])
    assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-12
    code, out, _ = run_cli(capsys, ["examples", "--name", "dof3", "--rate", "4"])
    payload = json.loads(out)
    t2 = matcore.matrix_from_json(payload["t_matrices"][1])
    assert abs(t2[0, 1] - 3.0) < 1e-12


def test_simulate_round_trip_and_determinism(capsys):
    rng = np.random.default_rng(2)
    h = rand_complex(rng, 2, 2)
    payload = {"users": [mat_json(h)], "power": 2.0}
    args = ["simulate", "--factors", "gmd", "--trials", "3000", "--seed", "17"]
    code, out1, _ = run_cli(capsys, args, payload)
    assert code == 0
    code, out2, _ = run_cli(capsys, args, payload)
    assert out1 == out2
    report = json.loads(out1)
    assert report["seed"] == 17 and report["trials"] == 3000
    streams = report["streams"]
    assert len(streams) == 2
    assert all(s["user"] == 0 for s in streams)
    total = sum(s["rate_bits"] for s in streams)
    assert abs(total - report["total_rate"]) < 1e-9


def test_simulate_multi_user_jet(capsys):
    c = 4.0
    gains = [np.sqrt(2.0 ** c - 1.0), np.sqrt(2.0 ** (c / 2.0) - 1.0)]
    h1 = np.array([[gains[0], 0.0]])
    h2 = gains[1] * np.eye(2)
    payload = {"users": [mat_json(h1), mat_json(h2)],
               "cov": mat_json(np.eye(2)), "power": 2.0}
    code, out, _ = run_cli(
        capsys, ["simulate", "--factors", "jet", "--trials", "20000", "--seed", "3"],
        payload)
    assert code == 0
    report = json.loads(out)
    assert {s["user"] for s in report["streams"]} == {0, 1}
    for s in report["streams"]:
        assert abs(s["measured_snr"] - s["predicted_snr"]) <= 4.0 * s["std_error"]
    assert abs(report["total_rate"] - c) < 1e-6


def test_output_file_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(3)
    a = rand_complex(rng, 3, 3)
    out_path = tmp_path / "factors.json"
    code, _out, _err = run_cli(
        capsys, ["decompose", "--kind", "gmd", "--out", str(out_path)], mat_json(a))
    assert code == 0
    payload = json.loads(out_path.read_text())
    u = matcore.matrix_from_json(payload["u"])
    r = matcore.matrix_from_json(payload["r"])
    v = matcore.matrix_from_json(payload["v"])
    assert np.linalg.norm(u @ r @ v.conj().T - a) < 1e-9 * np.linalg.norm(a)
    assert np.max(np.abs(np.tril(r, -1))) < 1e-9
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-9


def _spy_documents(monkeypatch):
    """Record every document the CLI hands to matcore.pieces."""
    docs = []
    pieces = matcore.pieces

    def spy(obj):
        docs.append(obj)
        return pieces(obj)

    monkeypatch.setattr(matcore, "pieces", spy)
    return docs


# the golden corpus's unit-|det| pair C, G, which needs the mixed
# upper/lower orientation
_C = [[0.5, 0.0], [0.25, 2.0]]
_G = [[0.0, 1.0], [-1.0, 0.5]]


@pytest.mark.parametrize("args, mats", [
    (["spacetime", "--mode", "gmd", "--extensions", "64"], (2, 2, 2)),
    (["spacetime", "--mode", "jet", "--extensions", "16"], (2, 2, 2)),
    (["decompose", "--kind", "jet"], (6, 6)),
    (["decompose", "--kind", "upper-lower"], (_C, _G)),
])
def test_whole_output_matches_per_entry_encoder(args, mats, capsys, monkeypatch):
    # a size stands for a random unit-|det| matrix of that size
    rng = np.random.default_rng(21)
    payload = {"matrices": [mat_json(rand_unit_det(rng, m) if isinstance(m, int) else m)
                            for m in mats]}
    docs = _spy_documents(monkeypatch)
    code, out, _ = run_cli(capsys, args, payload)
    assert code == 0 and len(docs) == 1
    want = json.dumps(per_entry_document(docs[0]), sort_keys=True, separators=(",", ":"))
    assert out == want + "\n"


def test_dumps_peak_memory_is_twice_its_text(capsys, monkeypatch):
    # the time-extension document (n=2, K=3, N=64): the writer's pieces are
    # the text in all, so its traced peak is the pieces and the text they
    # are joined into
    docs = _spy_documents(monkeypatch)
    payload = {"matrices": [mat_json(m) for m in ([[2, 1], [1, 1]], [[1, 1j], [0, 1]], _C)]}
    code, _out, _ = run_cli(capsys, ["spacetime", "--mode", "gmd", "--extensions", "64"],
                            payload)
    assert code == 0
    monkeypatch.undo()
    tracemalloc.start()
    try:
        text = matcore.dumps(docs[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * len(text)


# the golden corpus's unit-|det| matrices A, D and C
_ADC = {"matrices": [mat_json(m) for m in ([[2, 1], [1, 1]], [[1, 1j], [0, 1]], _C)]}


def _dense_spacetime_text(mode, n_ext):
    """The spacetime document of the A, D, C input written by matcore.dumps
    from the dense nearly_kgmd or nearly_kjet factors."""
    mats = [matcore.matrix_from_json(m) for m in _ADC["matrices"]]
    fac = (spacetime.nearly_kgmd if mode == "gmd" else spacetime.nearly_kjet)(mats, n_ext)
    n = fac.n
    return matcore.dumps({
        "mode": mode, "n": n, "users_count": len(fac.users), "extensions": n_ext,
        "kept_dim": fac.kept_dim, "efficiency": fac.kept_dim / (n * n_ext),
        "min_extensions": spacetime.discarded_uses(n, len(mats), mode) + 1,
        "kept_indices": fac.kept_indices, "v": fac.v,
        "users": [{"u": u, "t": t} for u, t in fac.users],
        "diag": [float(d) for d in fac.diag]})


@pytest.mark.parametrize("mode, n_ext", [
    (mode, n_ext) for mode, low in (("gmd", 4), ("jet", 2))
    for n_ext in [*range(low, low + 8), 64, 300]])
def test_spacetime_writes_the_dense_factors_text(mode, n_ext, capsys):
    code, out, _ = run_cli(capsys, ["spacetime", "--mode", mode, "--extensions", str(n_ext)],
                           _ADC)
    assert code == 0
    assert out == _dense_spacetime_text(mode, n_ext) + "\n"


@pytest.mark.parametrize("n_ext", [4, 9, 64])
def test_spacetime_forms_no_dense_factor(n_ext, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a dense factor was formed")

    want = _dense_spacetime_text("gmd", n_ext) + "\n"
    monkeypatch.setattr(matcore.BlockToeplitz, "to_dense", refuse)
    code, out, _ = run_cli(capsys, ["spacetime", "--mode", "gmd", "--extensions", str(n_ext)],
                           _ADC)
    assert (code, out) == (0, want)


def test_spacetime_memory_is_its_text(tmp_path, capsys):
    # every piece is built before the first is written, so the peak is the
    # text and what is formed besides it: a few rows of each factor
    out_path = tmp_path / "st.json"
    argv = ["spacetime", "--mode", "gmd", "--extensions", "256", "--out", str(out_path)]
    tracemalloc.start()
    try:
        code, _out, _ = run_cli(capsys, argv, _ADC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1.3 * out_path.stat().st_size


def test_output_to_a_stdout_without_a_binary_buffer(capsys):
    # contextlib.redirect_stdout hands the CLI a StringIO, which takes text
    for args, inline in ((["spacetime", "--extensions", "5"], _ADC),
                         (["tables", "--format", "csv"], None)):
        code, want, _ = run_cli(capsys, args, inline)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert run_cli(capsys, args, inline)[0] == code == 0
        assert text.getvalue() == want


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_spacetime_too_large_fails_fast_under_a_memory_limit(tmp_path):
    # a million extensions would write about 40 TB: the repeat of the first
    # factor's period fails, before the output is opened
    out_path = tmp_path / "huge.json"
    src = os.path.dirname(os.path.dirname(jtri.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "jtri", "spacetime", "--extensions", "1000000",
         "--inline", json.dumps(_ADC), "--out", str(out_path)],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=_limit_address_space, capture_output=True, text=True, timeout=30)
    assert done.returncode == cli.EXIT_NUMERICAL
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error:")
    assert not out_path.exists()


def test_non_finite_scalar_output_is_numerical_failure(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli.multicast, "multicast_rate", lambda prob: float("nan"))
    out_path = tmp_path / "ex.json"
    code, out, err = run_cli(capsys, ["examples", "--name", "rateless2", "--rate", "4",
                                      "--out", str(out_path)])
    assert code == cli.EXIT_NUMERICAL
    assert out == "" and "non-finite" in err
    assert not out_path.exists()


def test_failing_command_leaves_an_existing_output_file_alone(capsys, monkeypatch, tmp_path):
    # a singular matrix fails before the output is written, a NaN rate while
    # it is built: --out is opened only once all of it is
    out_path = tmp_path / "keep.json"
    sentinel = b'{"kept":true}\n'
    out_path.write_bytes(sentinel)
    singular = {"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}
    code, out, _ = run_cli(capsys, ["decompose", "--kind", "gmd", "--out", str(out_path)],
                           singular)
    assert (code, out) == (cli.EXIT_NUMERICAL, "")
    assert out_path.read_bytes() == sentinel
    monkeypatch.setattr(cli.multicast, "multicast_rate", lambda prob: float("nan"))
    code, out, err = run_cli(capsys, ["examples", "--name", "rateless2", "--rate", "4",
                                      "--out", str(out_path)])
    assert (code, out) == (cli.EXIT_NUMERICAL, "") and "non-finite" in err
    assert out_path.read_bytes() == sentinel


def test_non_finite_matrix_output_is_numerical_failure(capsys, monkeypatch):
    jet2 = cli.joint_mod.jet2

    def nan_precoder(a1, a2):
        factors = jet2(a1, a2)
        factors.v = np.full_like(factors.v, np.nan)
        return factors

    monkeypatch.setattr(cli.joint_mod, "jet2", nan_precoder)
    code, out, err = run_cli(capsys, ["examples", "--name", "rateless2", "--rate", "4"])
    assert code == cli.EXIT_NUMERICAL
    assert out == "" and "non-finite" in err


@pytest.mark.parametrize("args, inline", [
    (["decompose", "--kind", "gmd"], {"rows": 0, "cols": 0, "data": []}),
    (["decompose", "--kind", "jet"], {"matrices": [{"rows": 0, "cols": 0, "data": []}] * 2}),
    (["spacetime", "--mode", "gmd", "--extensions", "2"],
     {"matrices": [{"rows": 0, "cols": 0, "data": []}] * 2}),
])
def test_empty_matrix_is_dimension_error(args, inline, capsys):
    code, out, err = run_cli(capsys, args, inline)
    assert code == cli.EXIT_DIMENSION
    assert out == "" and "nonempty" in err


def test_simulate_reports_infinite_snr_as_null(capsys, monkeypatch):
    simulate_sic = cli.multicast.simulate_sic

    def interference_free(*args, **kwargs):
        reports = simulate_sic(*args, **kwargs)
        reports[0].measured_snr[0] = np.inf
        reports[0].std_error[0] = np.inf
        return reports

    monkeypatch.setattr(cli.multicast, "simulate_sic", interference_free)
    payload = {"users": [mat_json(np.diag([1.0, 2.0]))], "power": 2.0}
    code, out, _ = run_cli(capsys, ["simulate", "--trials", "100"], payload)
    assert code == 0
    stream = json.loads(out)["streams"][0]
    assert stream["measured_snr"] is None and stream["std_error"] is None


def test_simulate_blind_stream_reports_null_snr(capsys):
    # a 1x2 user sees its first input only: the SVD's second stream meets
    # neither interference nor noise
    payload = {"users": [mat_json([[1.0, 0.0]])], "power": 2}
    code, out, _ = run_cli(capsys, ["simulate", "--factors", "svd", "--trials", "1000"],
                           payload)
    assert code == 0
    blind = json.loads(out)["streams"][1]
    assert blind["predicted_snr"] == 0.0
    assert blind["measured_snr"] is None and blind["std_error"] is None
