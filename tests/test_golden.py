"""Golden CLI corpus: every subcommand, run through ``cli.main`` on fixed
inline inputs, must write exactly the stdout stored under ``tests/golden``.

The inputs are short literal matrices (exact binary fractions, unit |det|
where a command needs it), so each case pins the full numeric output of
one command byte for byte.  The stored outputs come from this numpy/LAPACK
build; a different build may round the last digit differently.
"""

import json
from pathlib import Path

import pytest

from jtri import cli

GOLDEN = Path(__file__).parent / "golden"


def _mat(rows):
    """JSON matrix object of a nested list of real or complex entries."""
    data = [[float(complex(z).real), float(complex(z).imag)] for row in rows for z in row]
    return {"rows": len(rows), "cols": len(rows[0]), "data": data}


def _inline(obj):
    return ["--inline", json.dumps(obj, sort_keys=True)]


# unit |det| 2x2 matrices: (A, D) admit an exact joint unit diagonal,
# (C, G) the mixed upper/lower orientation
A = [[2, 1], [1, 1]]
C = [[0.5, 0], [0.25, 2]]
D = [[1, 1j], [0, 1]]
G = [[0, 1], [-1, 0.5]]
J1 = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
J2 = [[1, 0.5, 0.25], [0, 1, 0.5], [0, 0, 1]]
BLOCK = [[4, 1, 0, 0], [0, 2, 0.5, 0], [0, 0, 1, 0], [0, 0, 0, 0.125]]
H = [[1, 0.5], [0.25, 2]]

CASES = {
    "decompose_gmd": ["decompose", "--kind", "gmd", "--inline",
                      '{"rows":2,"cols":2,"data":[[2,0],[0,0],[0,0],[0.5,0]]}'],
    "decompose_gtd": ["decompose", "--kind", "gtd"]
    + _inline(dict(_mat([[4, 1], [0, 1]]), target=[3, 1.3333333333333333])),
    "decompose_block": ["decompose", "--kind", "block"]
    + _inline(dict(_mat(BLOCK), block_sizes=[2, 2], block_dets=[6, 0.16666666666666666])),
    "decompose_jet": ["decompose", "--kind", "jet"]
    + _inline({"matrices": [_mat(J1), _mat(J2)]}),
    "decompose_kgmd": ["decompose", "--kind", "kgmd"]
    + _inline({"matrices": [_mat(A), _mat(D)]}),
    "decompose_upper_lower": ["decompose", "--kind", "upper-lower"]
    + _inline({"matrices": [_mat(C), _mat(G)]}),
    "spacetime_gmd": ["spacetime", "--mode", "gmd", "--extensions", "4"]
    + _inline({"matrices": [_mat(A), _mat(D), _mat(C)]}),
    "spacetime_jet": ["spacetime", "--mode", "jet", "--extensions", "2"]
    + _inline({"matrices": [_mat(A), _mat(D), _mat(C)]}),
    # past 2 n^E extensions, where the factors are written from the rounds
    # run at 2 n^E
    "spacetime_gmd_n9": ["spacetime", "--mode", "gmd", "--extensions", "9"]
    + _inline({"matrices": [_mat(A), _mat(D), _mat(C)]}),
    "spacetime_jet_n5": ["spacetime", "--mode", "jet", "--extensions", "5"]
    + _inline({"matrices": [_mat(A), _mat(D), _mat(C)]}),
    "tables_csv": ["tables", "--format", "csv"],
    "tables_json": ["tables", "--format", "json"],
    "examples_rateless2": ["examples", "--name", "rateless2", "--rate", "4"],
    "examples_rateless3": ["examples", "--name", "rateless3", "--rate", "8"],
    "examples_permuted": ["examples", "--name", "permuted", "--gains", "1,2,3"],
    "examples_dof2": ["examples", "--name", "dof2", "--rate", "4"],
    "examples_dof3": ["examples", "--name", "dof3", "--rate", "4"],
    "simulate_gmd": ["simulate", "--factors", "gmd", "--trials", "2000", "--seed", "7"]
    + _inline({"users": [_mat(H)], "power": 2.0}),
    "simulate_svd": ["simulate", "--factors", "svd", "--trials", "2000", "--seed", "7"]
    + _inline({"users": [_mat(H)], "power": 2.0}),
    "simulate_jet": ["simulate", "--factors", "jet", "--trials", "2000", "--seed", "7"]
    + _inline({"users": [_mat([[1, 0], [0, 2]]), _mat([[2, 0], [0, 1]])], "power": 2.0}),
}


def _golden(name):
    return (GOLDEN / ("%s.out" % name)).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    code = cli.main(CASES[name])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out == _golden(name)


# cli.main is called many times in one process: no call may leave state
# (a flag's value, the parser's defaults) behind for the next one

def test_golden_outputs_in_reverse_order_in_one_process(capsys):
    for name in sorted(CASES, reverse=True):
        assert cli.main(CASES[name]) == cli.EXIT_OK, name
        assert capsys.readouterr().out == _golden(name), name


def test_a_failed_tol_gate_leaves_no_tol_behind(capsys):
    argv = CASES["decompose_gmd"]
    assert cli.main(argv[:3] + ["--tol", "1e-300"] + argv[3:]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().out == ""
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == _golden("decompose_gmd")


def test_a_mode_flag_does_not_carry_to_the_next_call(capsys):
    assert cli.main(CASES["spacetime_jet"]) == cli.EXIT_OK
    assert capsys.readouterr().out == _golden("spacetime_jet")
    # no --mode: the default, gmd, and not the jet of the call before
    argv = ["spacetime", "--extensions", "4"] + _inline({"matrices": [_mat(A), _mat(D), _mat(C)]})
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == _golden("spacetime_gmd")


def test_a_usage_error_leaves_the_next_call_as_it_was(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["examples", "--name", "dof2", "--rate", "nan"])
    assert exc.value.code == cli.EXIT_PARSE
    capsys.readouterr()
    assert cli.main(CASES["tables_csv"]) == cli.EXIT_OK
    assert capsys.readouterr().out == _golden("tables_csv")
