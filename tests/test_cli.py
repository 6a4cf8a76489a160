import ast
import io
import json
import math
import os
import resource
import subprocess
import sys
import textwrap
import warnings
from decimal import ROUND_DOWN, Context
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semifd as sf
from semifd import cli, fdapprox, funcalg, linrep
from semifd.cli import main
from semifd.enumeration import EnumerationTable

from oracles import dense_covariance_errors, pairwise_nesting, scipy_operator_norm


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def run(tmp_path, capsys, config, extra=()):
    status = main(["--config", write_config(tmp_path, config), *extra])
    captured = capsys.readouterr()
    return status, (json.loads(captured.out) if captured.out else None), captured.err


def test_enumerate_braid3(tmp_path, capsys):
    status, report, _ = run(
        tmp_path, capsys, {"command": "enumerate", "presentation": {"builtin": "braid", "n": 3}, "L": 4}
    )
    assert status == 0
    assert report["tables"]["counts"] == [1, 2, 4, 7, 12]
    assert all(c["status"] == "pass" for c in report["checks"])


def test_fdapprox_naturals_kernel_set(tmp_path, capsys):
    status, report, _ = run(
        tmp_path,
        capsys,
        {"command": "fdapprox", "presentation": {"builtin": "nat", "d": 1}, "F": [2], "L": 5},
    )
    assert status == 0
    assert report["tables"]["dim_Y_F"] == 3
    ks = report["tables"]["kernel_set"]
    assert {s.count("x") for s in ks} == {3, 4, 5}


def test_funcalg_hardy_one_plus_z(tmp_path, capsys):
    status, report, _ = run(
        tmp_path,
        capsys,
        {
            "command": "funcalg",
            "kernel": "hardy",
            "phi": [{"exponents": [0], "re": 1.0}, {"exponents": [1], "re": 1.0}],
            "D": 200,
        },
    )
    assert status == 0
    (norm_check,) = [c for c in report["checks"] if c["name"] == "norm-monotone"]
    assert 1.99 <= norm_check["witness"]["norm_lower"] <= 2.0


def test_coaction_qf_spanning(tmp_path, capsys):
    status, report, _ = run(
        tmp_path,
        capsys,
        {
            "command": "coaction",
            "presentation": {"builtin": "braid", "n": 3},
            "map": "length",
            "L_P": 3,
            "L_Q": 4,
            "F": [2],
        },
    )
    assert status == 0
    assert report["tables"]["qf_spanning_cardinality"] == 7


def test_divisors_command(tmp_path, capsys):
    status, report, _ = run(
        tmp_path, capsys, {"command": "divisors", "presentation": {"builtin": "free", "n": 2}, "L": 3}
    )
    assert status == 0
    by_word = {w: r for w, r, _ in report["tables"]["sizes"]}
    assert by_word["a.b"] == 3 and by_word["e"] == 1


def test_unknown_command_is_config_error(tmp_path, capsys):
    status, _, err = run(tmp_path, capsys, {"command": "frobnicate"})
    assert status == 2
    assert "config error" in err


def test_failed_invariant_is_status_1(tmp_path, capsys):
    # a.b = a.a kills left cancellation, so the cancellation check must fail
    config = {
        "command": "enumerate",
        "presentation": {"generators": ["a", "b"], "relations": [["a.b", "a.a"]]},
        "L": 3,
    }
    status, report, _ = run(tmp_path, capsys, config)
    assert status == 1
    (check,) = [c for c in report["checks"] if c["status"] == "fail"]
    assert check["name"] == "cancellation"


def test_bad_presentation_is_config_error(tmp_path, capsys):
    status, _, _ = run(tmp_path, capsys, {"command": "enumerate", "presentation": {"builtin": "nope"}})
    assert status == 2


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert main(["--config", str(path)]) == 2
    capsys.readouterr()


def test_missing_file_is_config_error(capsys):
    assert main(["--config", "/nonexistent/config.json"]) == 2
    capsys.readouterr()


def test_unwritable_out_is_config_error(tmp_path, capsys):
    config = {"command": "enumerate", "presentation": {"builtin": "free", "n": 1}, "L": 2}
    status = main(["--config", write_config(tmp_path, config), "--out", str(tmp_path / "missing" / "report.json")])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1


def test_resource_limit_is_status_3(tmp_path, capsys):
    status, _, err = run(
        tmp_path,
        capsys,
        {"command": "enumerate", "presentation": {"builtin": "free", "n": 2}, "L": 10},
        extra=("--max-words", "50"),
    )
    assert status == 3
    assert "resource limit" in err


def test_fdapprox_sizes_tables_by_word_length(tmp_path, capsys):
    # "s1.s2.s1" has length 3, not 8: the table is enumerated to 7, which
    # fits under the word cap, where length 12 would not
    config = {
        "command": "fdapprox",
        "presentation": {"builtin": "braid", "n": 3},
        "F": ["s1.s2.s1"],
        "L": 4,
    }
    status, report, err = run(tmp_path, capsys, config, extra=("--max-words", "1000"))
    assert status == 0, err
    assert report["tables"]["dim_Y_F"] == 6


def test_reports_are_byte_identical(tmp_path, capsys):
    config = {
        "command": "fdapprox",
        "presentation": {"builtin": "braid", "n": 3},
        "F": ["s1.s2", 2],
        "L": 4,
    }
    outputs = []
    path = write_config(tmp_path, config)
    for i in range(2):
        out = tmp_path / ("r%d.json" % i)
        assert main(["--config", path, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_timing_flag_populates_ms(tmp_path, capsys):
    config = {"command": "enumerate", "presentation": {"builtin": "nat", "d": 1}, "L": 3}
    _, quiet, _ = run(tmp_path, capsys, config)
    assert quiet["ms"] == 0.0
    _, timed, _ = run(tmp_path, capsys, config, extra=("--timing",))
    assert timed["ms"] >= 0.0


def test_successive_calls_do_not_leak_options(tmp_path, capsys):
    # the parser is built once per process; each call parses its own options
    assert cli._parser() is cli._parser()
    config = {"command": "enumerate", "presentation": {"builtin": "free", "n": 2}, "L": 10}
    _, timed, _ = run(tmp_path, capsys, config, extra=("--timing",))
    _, quiet, _ = run(tmp_path, capsys, config)
    assert timed["ms"] > 0.0 and quiet["ms"] == 0.0
    # free(2) to length 10 stores 1,023 x 2 entries before its last level
    assert run(tmp_path, capsys, config, extra=("--max-words", "1000"))[0] == 3
    status, report, _ = run(tmp_path, capsys, config)
    assert status == 0 and report["tables"]["counts"][-1] == 1024


@pytest.mark.parametrize(
    "broken_side, witnesses",
    [
        ("right", {"divisor-bijection": "|R_p| != |L_p| at p=a.b.b", "divisor-nesting": "R_r not inside R_p for r=b, p=a.b.b"}),
        ("left", {"divisor-bijection": "|R_p| != |L_p| at p=a.b.b"}),
        # nested but incomplete: the factorization e = e.e is missing from R_e
        ("right-all", {"divisor-bijection": "|R_p| != |L_p| at p=e", "divisor-nesting": "R_r not inside R_p for r=e, p=e"}),
    ],
)
def test_broken_divisor_set_fails_with_one_line_witness(tmp_path, capsys, monkeypatch, broken_side, witnesses):
    # drop the identity from R_p of p = a.b.b, or from every R_p, or a.b from L_p by a walk
    # from a.b that returns a.b where it returned a.b.b: the checks name p, and the nesting
    # witness is the first r of R_p whose R_r is not inside, else the r of a factorization
    # p = q.r missing from R_p
    real, real_walk = EnumerationTable.divisor_sets, EnumerationTable.left_products

    def dropped(self, n):
        sets = list(real(self, n))
        for p in range(len(sets)) if broken_side == "right-all" else [self.element_from_str("a.b.b").index]:
            sets[p] = sets[p] - {0}
        return sets

    def misrouted(self, v, L):
        ab, abb = self.element_from_str("a.b"), self.element_from_str("a.b.b").index
        return [ab.index if x == abb else x for x in real_walk(self, v, L)] if v == ab else real_walk(self, v, L)

    if broken_side == "left":
        monkeypatch.setattr(EnumerationTable, "left_products", misrouted)
    else:
        monkeypatch.setattr(EnumerationTable, "divisor_sets", dropped)
    config = {"command": "divisors", "presentation": {"builtin": "free", "n": 2}, "L": 3}
    status, report, err = run(tmp_path, capsys, config)
    assert status == 1 and err == ""
    assert {c["name"]: c["witness"] for c in report["checks"] if c["status"] == "fail"} == witnesses
    if broken_side == "right-all":  # nested, so the former pairwise check passes it
        table = sf.enumerate_monoid(sf.free(2), 3)
        assert pairwise_nesting(table, table.divisor_sets(3), 3) is None


def test_coinvariance_fails_with_one_line_witness(tmp_path, capsys, monkeypatch):
    # Y_F for F = {a.b} in free(2) is span{e, b, a.b}; without b it is not closed
    # under right divisors, and the witness names b and the element it divides
    real = fdapprox.build_Y

    def holed(table, F):
        sub = real(table, F)
        labels = tuple(i for i in sub.basis.labels if i != table.element_from_str("b").index)
        return sf.DivisorSubspace(table, sub.F, sf.Basis(sub.basis.tag, labels))

    monkeypatch.setattr(fdapprox, "build_Y", holed)
    config = {"command": "fdapprox", "presentation": {"builtin": "free", "n": 2}, "F": ["a.b"], "L": 2}
    status, report, err = run(tmp_path, capsys, config)
    assert status == 1 and err == ""
    (check,) = [c for c in report["checks"] if c["name"] == "coinvariance"]
    assert check == {
        "name": "coinvariance",
        "status": "fail",
        "witness": "coinvariance broken: right divisor b of a.b is not in Y_F",
    }


def test_stdin_config(tmp_path, capsys, monkeypatch):
    import io

    config = {"command": "enumerate", "presentation": {"builtin": "free", "n": 1}, "L": 3}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(config)))
    assert main(["--config", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tables"]["counts"] == [1, 1, 1, 1]


def test_out_file_and_echoed_config(tmp_path, capsys):
    config = {"command": "enumerate", "presentation": {"builtin": "nat", "d": 2}, "L": 4}
    out = tmp_path / "report.json"
    assert main(["--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["config"] == config
    assert report["tables"]["counts"] == [1, 2, 3, 4, 5]


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, as a strict JSON parser does."""

    def refuse(name):
        raise ValueError("not JSON: %s" % name)

    return json.loads(text, parse_constant=refuse)


def test_report_echoes_the_config_as_it_ran(tmp_path, capsys):
    # 17 significant digits in a custom-kernel coefficient and in phi: the echo keeps every one
    kernel = {"name": "custom", "coefficients": [1.0, 0.30000000000000004, 0.12345678901234568]}
    phi = [{"exponents": [0], "re": 1.2345678901234567}, {"exponents": [1], "re": 1.0, "im": -0.9876543210987654}]
    config = {"command": "funcalg", "kernel": kernel, "phi": phi, "D": 2}
    status = main(["--config", write_config(tmp_path, config)])
    report = strict_json(capsys.readouterr().out)
    assert status == 0 and report["config"] == config
    # computed floats keep 12 significant digits, both where the ladder is tabled and in its witness
    (ladder,) = [c["witness"] for c in report["checks"] if c["name"] == "norm-monotone"]
    assert ladder["norm_lower"] == report["tables"]["norm_lower_bounds"][-1][1]
    for _, value in report["tables"]["norm_lower_bounds"]:
        assert value == float("%.12g" % value)


@pytest.mark.parametrize(
    "kernel, phi, D, norm",
    [
        ("hardy", [[0, 1e308], [1, 1e308]], 100, "inf"),  # overflows past the float range
        ("dirichlet", [[1, 1e-320]], 8, "1.414e-320"),  # subnormal, rounded to nearest: not a lower bound
    ],
    ids=["overflow", "subnormal"],
)
def test_norms_outside_the_normal_range_are_not_certified(tmp_path, capsys, kernel, phi, D, norm):
    terms = [{"exponents": [n], "re": c} for n, c in phi]
    status = main(["--config", write_config(tmp_path, {"command": "funcalg", "kernel": kernel, "phi": terms, "D": D})])
    report = strict_json(capsys.readouterr().out)
    (ladder,) = [c for c in report["checks"] if c["name"] == "norm-monotone"]
    assert status == 1 and "norm_lower_bounds" not in report["tables"]
    assert ladder == {"name": "norm-monotone", "status": "fail",
                      "witness": "norm not certified: %s is not a normal float" % norm}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_finite_config_numbers_are_config_errors(tmp_path, capsys, monkeypatch, token, source):
    # json reads these, but JSON has none of them: an unchecked key would echo them into the report
    text = '{"command": "enumerate", "presentation": {"builtin": "nat", "d": 1}, "L": 2, "note": %s}' % token
    path = tmp_path / "config.json"
    path.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    status = main(["--config", "-" if source == "stdin" else str(path)])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == "config error: config number %s is not a finite float\n" % token


@pytest.mark.parametrize(
    "presentation",
    [
        {"builtin": "nat", "d": True},
        {"builtin": "free", "n": True},
        {"builtin": "braid", "n": True},
        {"builtin": "free", "n": 2.0},
        {"builtin": "raag", "vertices": "ab", "edges": ["ab"]},
        {"builtin": "raag", "vertices": ["a", "b"], "edges": ["ab"]},
        {"builtin": "raag", "vertices": ["a", "b"], "edges": "ab"},
        {"builtin": "raag", "vertices": ["a", "b"], "edges": [["a", 2]]},
    ],
    ids=["nat-bool", "free-bool", "braid-bool", "free-float", "raag-string-vertices", "raag-string-edge",
         "raag-string-edges", "raag-integer-endpoint"],
)
def test_builtin_parameters_of_the_wrong_type_are_config_errors(tmp_path, capsys, presentation):
    status, report, err = run(tmp_path, capsys, {"command": "enumerate", "presentation": presentation, "L": 2})
    assert status == 2 and report is None
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_inline_presentation_document(tmp_path, capsys):
    config = {
        "command": "enumerate",
        "presentation": {"generators": ["a", "b"], "relations": [["a.b.a", "b.a.b"]]},
        "L": 4,
    }
    status, report, _ = run(tmp_path, capsys, config)
    assert status == 0
    assert report["tables"]["counts"] == [1, 2, 4, 7, 12]


@pytest.mark.parametrize(
    "doc",
    [
        {"generators": "ab"},
        {"generators": ["a", 1]},
        {"generators": []},
        {"generators": ["a", "a"]},
        {"generators": ["a", ""]},
        {"generators": ["a.b"], "relations": [["a.b", "a.b"]]},
        {"generators": ["a", "b"], "relations": {"a": "b"}},
        {"generators": ["a", "b"], "relations": [["a.b", 3]]},
        {"generators": ["a", "b"], "relations": [["a.b"]]},
        {"generators": ["a", "b"], "relations": [["a.c", "b.a"]]},
        {"generators": ["a", "b"], "relations": [["a.b", "a"]]},
    ],
)
def test_inline_and_path_presentations_refuse_alike(tmp_path, capsys, doc):
    # the inline document is read as it stands, the file's after json.loads: the same refusal either way
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(doc))
    errors = []
    for presentation in (doc, {"path": str(path)}):
        status, report, err = run(tmp_path, capsys, {"command": "enumerate", "presentation": presentation, "L": 2})
        assert status == 2 and report is None and err.startswith("config error: ") and err.count("\n") == 1
        errors.append(err)
    assert errors[0] == errors[1]


@pytest.mark.parametrize(
    "config",
    [
        {"command": "enumerate", "presentation": {"builtin": "braid", "n": 3}, "L": -1},
        {"command": "enumerate", "presentation": {"builtin": "braid", "n": 3}, "L": "x"},
        {"command": "enumerate", "presentation": {"builtin": "braid", "n": 3}, "L": 2.5},
        {"command": "fdapprox", "presentation": {"builtin": "nat", "d": 1}, "F": [True], "L": 3},
        {"command": "fdapprox", "presentation": {"builtin": "braid", "n": 3}, "F": ["s1.s9"], "L": 3},
        {"command": "coaction", "presentation": {"builtin": "braid", "n": 3}, "map": "abelianization"},
        {"command": "funcalg", "kernel": {"name": "custom", "coefficients": [1.0, 0.5, 0.25]}, "D": 8},
        {"command": "fdapprox", "presentation": {"builtin": "braid", "n": 3}, "F": [], "L": 3},
        {"command": "fdapprox", "presentation": {"builtin": "braid", "n": 3}, "F": "s1", "L": 3},
        {"command": "funcalg", "kernel": {"name": "hardy", "d": "2"}, "D": 4},
        {"command": "funcalg", "kernel": {"name": "hardy", "d": 2.0}, "D": 4},
        {"command": "funcalg", "kernel": {"name": "hardy", "d": True}, "D": 4},
        {"command": "funcalg", "kernel": "hardy", "D": 4, "F": "ab"},
        {"command": "funcalg", "kernel": "hardy", "D": 4, "F": [1.5]},
        {"command": "funcalg", "kernel": "hardy", "D": 4, "F": [-1]},
        {"command": "funcalg", "kernel": "hardy", "D": 4, "phi": [{"exponents": [1.5], "re": 1.0}]},
        {"command": "funcalg", "kernel": "hardy", "D": 4, "phi": [{"exponents": [True], "re": 1.0}]},
        {"command": "funcalg", "kernel": "hardy", "D": 4, "phi": [{"exponents": [1], "re": float("nan")}]},
        {"command": "funcalg", "kernel": "hardy", "D": 4, "phi": [{"exponents": [1], "im": float("inf")}]},
        {"command": "funcalg", "kernel": {"name": "custom", "coefficients": [1.0, float("nan"), 1.0]}, "D": 2},
        {"command": "funcalg", "kernel": {"name": "custom", "coefficients": [1.0, float("inf"), 1.0]}, "D": 2},
        {"command": "enumerate", "presentation": {"generators": ["a", "b"], "relations": [["a.b", 3]]}},
        {"command": "enumerate", "presentation": {"generators": ["a", "b"], "relations": [["a.b"]]}},
        {"command": "enumerate", "presentation": {"builtin": "raag", "vertices": ["a", "b"], "edges": ["a"]}},
        {"command": "divisors", "presentation": {"builtin": "raag", "vertices": [1, 2]}, "L": 2},
        {"command": []},
        {"command": "funcalg", "kernel": {"name": "custom", "coefficients": "1111"}, "D": 2},
        {"command": "funcalg", "kernel": {"name": "custom", "coefficients": {"1": 1, "2": 1, "3": 1}}, "D": 2},
        {"command": "funcalg", "kernel": {"name": "custom", "coefficients": ["1", "0.5", "0.25"]}, "D": 2},
        {"command": "funcalg", "kernel": {"name": "custom", "coefficients": [1, True, True]}, "D": 2},
        {"command": "funcalg", "kernel": "hardy", "D": 4, "phi": [{"exponents": [1], "re": True}]},
        {"command": "funcalg", "kernel": "hardy", "D": 4, "phi": [{"exponents": [10**20], "re": 1.0}]},
    ],
    ids=[
        "negative-L",
        "string-L",
        "float-L",
        "boolean-in-F",
        "unknown-generator-in-F",
        "abelianization-of-braid",
        "custom-kernel-shorter-than-D",
        "fdapprox-empty-F",
        "fdapprox-string-F",
        "funcalg-string-d",
        "funcalg-float-d",
        "funcalg-boolean-d",
        "funcalg-string-F",
        "funcalg-float-in-F",
        "funcalg-negative-in-F",
        "polynomial-float-exponent",
        "polynomial-boolean-exponent",
        "polynomial-nan-coefficient",
        "polynomial-infinite-coefficient",
        "custom-kernel-nan-coefficient",
        "custom-kernel-infinite-coefficient",
        "non-string-relation-word",
        "one-word-relation",
        "raag-one-vertex-edge",
        "raag-integer-vertices",
        "unhashable-command",
        "custom-kernel-string-coefficients",
        "custom-kernel-object-coefficients",
        "custom-kernel-numeric-strings",
        "custom-kernel-boolean-coefficients",
        "polynomial-boolean-coefficient",
        "polynomial-exponent-beyond-int64",
    ],
)
def test_bad_input_is_one_line_config_error(tmp_path, capsys, config):
    status, report, err = run(tmp_path, capsys, config)
    assert status == 2
    assert report is None
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "error, status",
    [
        (sf.InvariantError, 1),
        (sf.CancellativityError, 1),
        (sf.InputError, 2),
        (sf.LengthBoundError, 2),
        (sf.ResourceLimitError, 3),
    ],
)
def test_error_type_decides_the_exit_status(tmp_path, capsys, monkeypatch, error, status):
    # only an InvariantError becomes a failed check in a report; any other error
    # raised inside a check ends the run with its one stderr line
    def raises(self):
        raise error("raised inside the check")

    monkeypatch.setattr(EnumerationTable, "check_cancellation", raises)
    config = {"command": "enumerate", "presentation": {"builtin": "free", "n": 1}, "L": 2}
    got, report, err = run(tmp_path, capsys, config)
    assert got == status
    if status == 1:
        assert err == "" and {"name": "cancellation", "status": "fail", "witness": "raised inside the check"} in report["checks"]
    else:
        assert report is None and err.count("\n") == 1 and err.endswith(": raised inside the check\n")


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_norm_tol_must_be_positive(tmp_path, capsys, tol):
    # refused as input before the config is read; it never reaches the bracket
    phi = [{"exponents": [0], "re": 1.0}, {"exponents": [1], "re": 1.0}]
    config = {"command": "funcalg", "kernel": "hardy", "phi": phi, "D": 8}
    out = tmp_path / "report.json"
    status = main(["--config", write_config(tmp_path, config), "--out", str(out), "--norm-tol", tol])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == "" and not out.exists()
    assert captured.err.startswith("config error: --norm-tol must be a positive number")
    assert captured.err.count("\n") == 1
    assert main(["--config", write_config(tmp_path, config), "--norm-tol", "inf"]) == 0  # asks nothing, holds


def test_scipy_loads_only_for_norms(tmp_path):
    # in a fresh interpreter, since this test process has loaded scipy already:
    # the monoid commands compute no norm, Hardy's (d = 1) Gram is tridiagonal,
    # so no ordering can narrow it, and Drury-Arveson's is put in reverse
    # Cuthill-McKee order by the package itself: scipy.sparse never loads
    phi = [{"exponents": [0], "re": 1.0}, {"exponents": [1], "re": 1.0}]
    da_phi = [{"exponents": [0, 0], "re": 1.0}, {"exponents": [1, 0], "re": 1.0}, {"exponents": [1, 1], "re": 1.0}]
    configs = [
        {"command": "enumerate", "presentation": {"builtin": "braid", "n": 3}, "L": 4},
        {"command": "divisors", "presentation": {"builtin": "free", "n": 2}, "L": 4},
        {"command": "coaction", "presentation": {"builtin": "braid", "n": 3}, "map": "length", "L_P": 3, "L_Q": 4, "F": [2]},
        {"command": "fdapprox", "presentation": {"builtin": "braid", "n": 4}, "F": ["s1.s2.s3.s1.s2.s1.s3.s2"], "L": 8},
        {"command": "funcalg", "kernel": "hardy", "phi": phi, "D": 20},
        {"command": "funcalg", "kernel": {"name": "drury_arveson", "d": 2}, "phi": da_phi, "D": 40},
    ]
    paths = [tmp_path / ("config_%d.json" % k) for k in range(len(configs))]
    for path, config in zip(paths, configs):
        path.write_text(json.dumps(config))
    script = textwrap.dedent(
        """
        import json, sys
        from semifd.cli import main
        scipy = lambda: sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
        *monoids, hardy, da = sys.argv[1:-1]
        statuses = [main(["--config", path, "--out", sys.argv[-1]]) for path in monoids]
        before = scipy()
        statuses.append(main(["--config", hardy, "--out", sys.argv[-1]]))
        after = scipy()
        statuses.append(main(["--config", da, "--out", sys.argv[-1]]))
        print(json.dumps({"statuses": statuses, "before": before, "after": after, "da": scipy()}))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-c", script, *map(str, paths), str(tmp_path / "report.json")]
    result = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True, env=env, timeout=300).stdout)
    assert result["statuses"] == [0] * 6
    assert result["before"] == []
    assert "scipy.linalg" in result["after"] and not [k for k in result["after"] if k.startswith("scipy.sparse")]
    assert "scipy.sparse.linalg" not in result["da"] and not [k for k in result["da"] if k.startswith("scipy.sparse")]


def test_numpy_loads_only_for_numeric_commands(tmp_path):
    # in a fresh interpreter: the table commands run without numpy, the first numeric command loads it, and every
    # name the package exports resolves to the object its own module defines
    configs = [
        {"command": "enumerate", "presentation": {"builtin": "braid", "n": 3}, "L": 4},
        {"command": "divisors", "presentation": {"builtin": "free", "n": 2}, "L": 4},
        {"command": "coaction", "presentation": {"builtin": "braid", "n": 3}, "map": "length", "L_P": 3, "L_Q": 4},
    ]
    paths = [tmp_path / ("config_%d.json" % k) for k in range(len(configs))]
    for path, config in zip(paths, configs):
        path.write_text(json.dumps(config))
    script = textwrap.dedent(
        """
        import importlib, json, sys
        from semifd.cli import main
        loaded = lambda: sorted(k for k in ("numpy", "scipy") if k in sys.modules)
        *paths, out = sys.argv[1:]
        seen, statuses = [loaded()], []
        for path in paths:
            statuses.append(main(["--config", path, "--out", out]))
            seen.append(loaded())
        import semifd
        objects = {name: getattr(semifd, name) for name in semifd.__all__}
        wrong = [name for name, obj in objects.items() if not obj.__module__.startswith("semifd.")
                 or getattr(importlib.import_module(obj.__module__), name) is not obj]
        print(json.dumps({"statuses": statuses, "seen": seen, "wrong": wrong, "all": semifd.__all__}))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-c", script, *map(str, paths), str(tmp_path / "report.json")]
    result = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True, env=env, timeout=300).stdout)
    assert result["statuses"] == [0, 0, 0]
    assert result["seen"] == [[], [], [], ["numpy"]]
    assert result["wrong"] == [] and result["all"] == sorted(result["all"]) and len(result["all"]) == 59


def test_fock_dimension_cap_trips_before_any_basis(tmp_path, capsys, monkeypatch):
    # Drury-Arveson d=3 at D=10^6 would need C(10^6 + 3, 3) ~ 1.7e17 monomials
    def no_basis(*args):
        raise AssertionError("a Fock basis was built")

    monkeypatch.setattr(funcalg, "fock_basis", no_basis)
    config = {"command": "funcalg", "kernel": {"name": "drury_arveson", "d": 3}, "D": 10**6}
    status, report, err = run(tmp_path, capsys, config)
    assert status == 3 and report is None
    assert err.startswith("resource limit: ") and err.count("\n") == 1


def test_gram_band_cap_trips_before_the_band(tmp_path, capsys, monkeypatch):
    # Drury-Arveson d=2 at D=40: the Fock dimension C(42, 2) = 861 passes the
    # cap of 1000. The ladder's first rung, D=10, has a Gram band of
    # half-bandwidth 20 on 66 monomials, 7 once ordered: 8 x 66 = 528 words are
    # allocated. The second, D=20, has half-bandwidth 12 once ordered, and its
    # 13 x 231 = 3,003 words are refused before they are allocated
    bands, real_band = [], linrep._band
    monkeypatch.setattr(linrep, "_band", lambda kd, n, dtype: bands.append((kd + 1, n)) or real_band(kd, n, dtype))
    phi = [{"exponents": [0, 0], "re": 1.0}, {"exponents": [1, 0], "re": 1.0}, {"exponents": [1, 1], "re": 1.0}]
    config = {"command": "funcalg", "kernel": {"name": "drury_arveson", "d": 2}, "phi": phi, "D": 40}
    status, report, err = run(tmp_path, capsys, config, extra=("--max-words", "1000"))
    assert status == 3 and report is None
    assert err == "resource limit: Gram band of 13 x 231 words exceeds cap 1000\n"
    assert bands == [(8, 66)]


def test_drury_arveson_ladder_certifies_at_D120(tmp_path, capsys, monkeypatch):
    # phi = 1 + z1 + z1 z2 at D=120 under the default --max-words: the top rung's
    # Gram band, 241 x 7,381 words in degree order, is 63 x 7,381 once ordered.
    # Each rung is certified on the leading block of the top rung's operator,
    # which is that rung's compression, and its norm is the former routine's float
    norms, real_norm = [], cli.operator_norm
    monkeypatch.setattr(cli, "operator_norm", lambda A, *a: norms.append((A, real_norm(A, *a))) or norms[-1][1])
    terms = [{"exponents": [0, 0], "re": 1.0}, {"exponents": [1, 0], "re": 1.0}, {"exponents": [1, 1], "re": 1.0}]
    config = {"command": "funcalg", "kernel": {"name": "drury_arveson", "d": 2}, "phi": terms, "D": 120}
    status, report, err = run(tmp_path, capsys, config)
    assert status == 0 and err == "" and all(c["status"] == "pass" for c in report["checks"])
    kernel, phi = sf.drury_arveson(2), sf.Polynomial.parse_terms(2, terms)
    assert [dd for dd, _ in report["tables"]["norm_lower_bounds"]] == [30, 60, 120] and len(norms) == 3
    toward_zero = Context(prec=12, rounding=ROUND_DOWN)  # a lower bound keeps 12 digits and stays below
    for (dd, reported), (A, value) in zip(report["tables"]["norm_lower_bounds"], norms):
        basis = sf.fock_basis(kernel, dd)
        assert A == funcalg.multiplication(kernel, phi, basis, basis)
        assert value == scipy_operator_norm(A) and reported == float(toward_zero.create_decimal_from_float(value))


def test_hardy_norm_lower_bounds_stay_below_the_norms():
    # phi = 1 + z compressed to degree <= dd is I + S on dd + 1 dims, of norm 2 cos(pi / (2 dd + 3)):
    # every rung of D = 1..199 reports at most that (rounded to nearest, 115 of them did not)
    args = cli._parser().parse_args(["--config", "-"])
    phi = [{"exponents": [0], "re": 1.0}, {"exponents": [1], "re": 1.0}]
    with mpmath.workdps(40):
        for D in range(1, 200):
            report, status = cli.execute({"command": "funcalg", "kernel": "hardy", "phi": phi, "D": D}, args)
            assert status == 0
            for dd, value in report["tables"]["norm_lower_bounds"]:
                assert mpmath.mpf(value) <= 2 * mpmath.cos(mpmath.pi / (2 * dd + 3)), (D, dd, value)


def test_fdapprox_contractivity_is_exact(tmp_path, capsys, monkeypatch):
    # every compression to Y_F is a 0/1 partial map, certified from its arrays
    def no_norm(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(cli, "operator_norm", no_norm)
    config = {"command": "fdapprox", "presentation": {"builtin": "braid", "n": 4}, "F": ["s1.s2.s3.s1", "s2.s3"], "L": 4}
    status, report, err = run(tmp_path, capsys, config)
    assert status == 0, err
    (check,) = [c for c in report["checks"] if c["name"] == "contractivity"]
    assert check == {"name": "contractivity", "status": "pass", "witness": "all <= 1"}


def test_covariance_needs_coefficients_up_to_D_only(tmp_path, capsys):
    # the covariance check works on the square compression to degree <= min(D, 8)
    config = {
        "command": "funcalg",
        "kernel": {"name": "custom", "coefficients": [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4]},
        "phi": [{"exponents": [0], "re": 1.0}, {"exponents": [3], "re": 0.5}],
        "D": 6,
    }
    status, report, err = run(tmp_path, capsys, config)
    assert status == 0, err
    (check,) = [c for c in report["checks"] if c["name"] == "circle-covariance"]
    assert check == {"name": "circle-covariance", "status": "pass", "witness": "within 1e-12"}


def test_covariance_bound_is_relative_to_the_compression(tmp_path, capsys, monkeypatch):
    # phi = 1e5 (1 + z): G*MG and the rotated compression differ by 1.5e-11, a relative 7e-17
    config = {"command": "funcalg", "kernel": "hardy", "phi": [{"exponents": [n], "re": 1e5} for n in (0, 1)], "D": 8}
    status, report, err = run(tmp_path, capsys, config)
    assert status == 0, err
    (check,) = [c for c in report["checks"] if c["name"] == "circle-covariance"]
    assert check == {"name": "circle-covariance", "status": "pass", "witness": "within 1e-12"}
    # a rotation off by a relative 1e-10 still fails at that scale
    rotate = funcalg.circle_action
    monkeypatch.setattr(funcalg, "circle_action", lambda phi, zeta: rotate(phi, zeta).scale(1 + 1e-10))
    status, report, err = run(tmp_path, capsys, config)
    (check,) = [c for c in report["checks"] if c["name"] == "circle-covariance"]
    assert status == 1 and check["status"] == "fail" and check["witness"].startswith("covariance violated at 8th root 0")


COVARIANCE_CONFIGS = {
    "hardy-1e5": {"command": "funcalg", "kernel": "hardy", "phi": [{"exponents": [n], "re": 1e5} for n in (0, 1)], "D": 8},
    "da2": {"command": "funcalg", "kernel": {"name": "drury_arveson", "d": 2}, "D": 8, "phi": [
        {"exponents": [0, 0], "re": 0.5, "im": -0.25}, {"exponents": [1, 0], "re": 1.0}, {"exponents": [1, 2], "im": 0.75}]},
}


@pytest.mark.parametrize("root", [0, 3])
@pytest.mark.parametrize(
    "change, config",
    [("scale", "hardy-1e5"), ("scale", "da2"), ("drop", "hardy-1e5"), ("drop", "da2"), ("add", "da2")],
)
def test_covariance_witness_is_the_dense_oracle_error(tmp_path, capsys, monkeypatch, change, config, root):
    # the rotation for one 8th root is wrong: scaled by 1 + 1e-10, or a term of phi dropped
    # or added, so that the rotated compression lacks entries of G*MG or has more (the two
    # patterns differ); the check compares CSR arrays, and its err is the former dense maximum
    # to within one ulp (numpy does not promise that a complex product rounds the same on an
    # n x n broadcast as on 1-D arrays)
    config = COVARIANCE_CONFIGS[config]
    kernel = cli._load_kernel(config["kernel"])
    phi = cli._load_polynomial(config["phi"], kernel.d)
    rotate, wrong = funcalg.circle_action, complex(np.exp(2j * np.pi * root / 8)).conjugate()

    def circle_action(p, zeta):
        q = rotate(p, zeta)
        if zeta != wrong:
            return q
        if change == "scale":
            return q.scale(1 + 1e-10)
        extra = {(2,) * kernel.d: 0.5} if change == "add" else {max(q.coeffs): -q.coeffs[max(q.coeffs)]}
        return q + sf.Polynomial(kernel.d, extra)

    monkeypatch.setattr(funcalg, "circle_action", circle_action)
    errs, bound = dense_covariance_errors(kernel, phi, config["D"])
    assert [k for k, err in enumerate(errs) if not err <= bound] == [root]
    basis = sf.fock_basis(kernel, 8)
    patterns = [funcalg.multiplication(kernel, q, basis, basis).indices.size for q in (phi, circle_action(phi, wrong))]
    assert (patterns[0] == patterns[1]) == (change == "scale")
    status, report, err = run(tmp_path, capsys, config)
    (check,) = [c for c in report["checks"] if c["name"] == "circle-covariance"]
    prefix = "covariance violated at 8th root %d: err " % root
    assert status == 1 and check["witness"].startswith(prefix)
    assert abs(float(check["witness"][len(prefix):]) - errs[root]) <= math.ulp(errs[root])


def test_funcalg_job_builds_one_basis_and_one_operator(tmp_path, capsys, monkeypatch):
    # Hardy D=400: rungs of 101, 201 and 401 dims, all above the dense-norm size of 64.
    # The ladder and the covariance check read leading blocks of one M, and nothing densifies
    calls = []
    for owner, name in ((funcalg, "fock_basis"), (funcalg, "multiplication"), (linrep.SparseOperator, "to_dense")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, name=name, real=real: calls.append((name, a)) or real(*a))
    terms = [{"exponents": [0], "re": 1.0}, {"exponents": [1], "re": 0.5, "im": 0.5}, {"exponents": [3], "re": -0.25}]
    status, report, err = run(tmp_path, capsys, {"command": "funcalg", "kernel": "hardy", "phi": terms, "D": 400})
    assert status == 0, err
    assert [dd for dd, _ in report["tables"]["norm_lower_bounds"]] == [100, 200, 400]
    assert [name for name, _ in calls] == ["fock_basis", "multiplication"]
    assert calls[1][1][1] == cli._load_polynomial(terms, 1)  # multiplication(kernel, phi, top, top)


def test_cli_reads_the_numeric_layers_through_their_public_names():
    # the CLI imports no numpy, and reaches linrep, funcalg, fdapprox and coaction through public
    # names only: the CSR layout and the operators' arrays are read in linrep and funcalg alone
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    layers, imported = {"linrep", "funcalg", "fdapprox", "coaction"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            if node.level and node.module in layers:  # from .linrep import name
                assert not [a.name for a in node.names if a.name.startswith("_")], ast.unparse(node)
            elif node.level:  # from . import linrep as alias
                layers |= {a.asname or a.name for a in node.names if a.name in layers}
    assert "coact" in layers and not [m for m in imported if m.split(".")[0] == "numpy"]
    private = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id in layers and node.attr.startswith("_")]
    arrays = [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in ("indptr", "indices", "data")]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert private == [] and arrays == [] and "np" not in names


@pytest.mark.parametrize(
    "config",
    [
        {"command": "fdapprox", "presentation": {"builtin": "nat", "d": 1}, "F": [30_000_000], "L": 1},
        {"command": "fdapprox", "presentation": {"builtin": "nat", "d": 1}, "F": [10**12], "L": 1},
        {"command": "coaction", "presentation": {"builtin": "nat", "d": 1}, "F": [10**12]},
        {"command": "enumerate", "presentation": {"builtin": "nat", "d": 1}, "L": 30_000_000},
        # presentations whose generators plus relation letters exceed the cap
        {"command": "enumerate", "presentation": {"builtin": "nat", "d": 3000}, "L": 2},
        {"command": "enumerate", "presentation": {"builtin": "free", "n": 12_000_000}, "L": 1},
        {"command": "enumerate", "presentation": {"builtin": "braid", "n": 3000}, "L": 2},
        {"command": "coaction", "map": "abelianization", "presentation": {"generators": ["g%d" % i for i in range(3000)]}},
    ],
    ids=[
        "fdapprox-F-3e7", "fdapprox-F-1e12", "coaction-F-1e12", "enumerate-L-3e7",
        "enumerate-nat-3000", "enumerate-free-1.2e7", "enumerate-braid-3000", "coaction-abelianization-3000",
    ],
)
def test_caps_trip_before_allocation(config):
    # each of these once allocated gigabytes before exit 3 was due; in a child whose
    # address space is capped at 1.5 GB a late cap ends in MemoryError or the timeout
    limit = 1536 * 2**20
    proc = subprocess.run(
        [sys.executable, "-m", "semifd.cli", "--config", "-"],
        input=json.dumps(config),
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 3 and proc.stdout == "", proc.stderr[-500:]
    assert proc.stderr.startswith("resource limit: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "kernel, phi, D, check, witness",
    [
        # (1e200)^2 would overflow the Gram band; the norm is certified on A scaled
        # exactly by a power of two, and | ||a I + S|| - a | <= ||S|| = 1 for the shift S
        ("hardy", [[0, 1e200], [1, 1.0]], 100, "norm-monotone", 1e200),
        ("hardy", [[0, 1e160], [1, 1.0]], 8, "norm-monotone", 1e160),
        # 1e308 times a Dirichlet norm ratio above 1 overflows: every error is nan, and nan fails
        ("dirichlet", [[0, 1.0], [3, 1e308]], 8, "circle-covariance", "covariance violated at 8th root 0: err nan"),
    ],
    ids=["overflow-banded", "overflow-dense", "nan-covariance"],
)
def test_non_finite_values_fail_their_check(tmp_path, capsys, kernel, phi, D, check, witness):
    terms = [{"exponents": [n], "re": c} for n, c in phi]
    with warnings.catch_warnings():  # overflow stays silent: stderr holds no RuntimeWarning lines
        warnings.simplefilter("error", RuntimeWarning)
        status, report, err = run(tmp_path, capsys, {"command": "funcalg", "kernel": kernel, "phi": terms, "D": D})
    assert "Traceback" not in err
    (got,) = [c for c in report["checks"] if c["name"] == check]
    if isinstance(witness, str):
        assert status == 1 and got == {"name": check, "status": "fail", "witness": witness}
    else:  # every check passes
        assert status == 0 and got["status"] == "pass" and got["witness"]["norm_lower"] == pytest.approx(witness, rel=1e-11)


def test_tiny_symbol_is_certified(tmp_path, capsys):
    # phi = 1e-80 (1 + z): A*A of 1e-160 entries would underflow without the exact
    # rescaling; the compression to degree <= 8 has norm 2e-80 cos(pi / 19)
    phi = [{"exponents": [0], "re": 1e-80}, {"exponents": [1], "re": 1e-80}]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status, report, err = run(tmp_path, capsys, {"command": "funcalg", "kernel": "hardy", "phi": phi, "D": 8})
    assert status == 0, err
    (check,) = [c for c in report["checks"] if c["name"] == "norm-monotone"]
    assert check["witness"]["norm_lower"] == pytest.approx(2e-80 * math.cos(math.pi / 19), rel=1e-9)


def test_degree_zero_ladder_has_one_rung(tmp_path, capsys):
    # at D = 0 the ladder is [0]: M_z compressed to the constants is 0
    config = {"command": "funcalg", "kernel": "hardy", "phi": [{"exponents": [1], "re": 1.0}], "D": 0}
    status, report, err = run(tmp_path, capsys, config)
    assert status == 0, err
    assert report["tables"]["norm_lower_bounds"] == [[0, 0.0]]
    (check,) = [c for c in report["checks"] if c["name"] == "norm-monotone"]
    assert check["witness"] == {"D": 0, "norm_lower": 0.0}
    # a custom kernel that lists c_0 alone suffices at D = 0
    config = {"command": "funcalg", "kernel": {"name": "custom", "coefficients": [1.0]}, "D": 0}
    status, report, err = run(tmp_path, capsys, config)
    assert status == 0, err
    assert all(c["status"] == "pass" for c in report["checks"])


# -- main on arbitrary configs ---------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _or_json(*plausible):
    """Random JSON one time in four, else a value shaped like the field's, so that deeper code runs too."""
    return st.sampled_from([_JSON] + [st.one_of(*plausible)] * 3).flatmap(lambda s: s)


_NAMES = st.lists(st.sampled_from(["a", "b", "c"]), max_size=3)
_WORD = st.lists(st.sampled_from(["a", "b", "s1", "s2", "x", "y", "e"]), max_size=3).map(".".join)
_KERNELS = st.sampled_from(["hardy", "dirichlet", "drury_arveson", "custom"])
_PRESENTATION = _or_json(
    st.fixed_dictionaries(  # each family reads the parameters it needs
        {
            "builtin": _or_json(st.sampled_from(["free", "nat", "raag", "braid"])),
            "n": _or_json(st.integers(1, 4)),
            "d": _or_json(st.integers(1, 3)),
            "vertices": _or_json(_NAMES.filter(bool)),
            "edges": _or_json(st.lists(_NAMES, max_size=3)),
        }
    ),
    st.fixed_dictionaries(
        {"generators": _or_json(_NAMES)}, optional={"relations": _or_json(st.lists(st.lists(_WORD, max_size=3)))}
    ),
    st.fixed_dictionaries({"path": _or_json(st.sampled_from(["missing.json", "."]))}),
)
_FIELDS = {
    "map": _or_json(st.sampled_from(["length", "abelianization"])),
    "F": _or_json(st.lists(st.integers(0, 4) | _WORD, max_size=3)),
    "kernel": _or_json(
        _KERNELS,
        st.fixed_dictionaries({"name": _or_json(_KERNELS)}, optional={"d": _JSON, "coefficients": _JSON}),
    ),
    "phi": _or_json(st.lists(st.fixed_dictionaries({"exponents": _JSON}, optional={"re": _JSON, "im": _JSON}), max_size=3)),
    **{key: _or_json(st.integers(0, 6)) for key in ("L", "L_P", "L_Q", "D")},
}
_CONFIGS = st.fixed_dictionaries(
    {
        "command": _or_json(st.sampled_from(["enumerate", "divisors", "fdapprox", "coaction", "funcalg"])),
        "presentation": _PRESENTATION,
    },
    optional=_FIELDS,
)


@settings(max_examples=400, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_CONFIGS)
def test_main_never_raises_on_arbitrary_config(config):
    # every outcome is an exit status: 0 or 1 with a report, 2 or 3 with one
    # stderr line and none
    stdin, stdout, stderr = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(json.dumps(config)), io.StringIO(), io.StringIO()
    try:
        status = main(["--config", "-", "--max-words", "20000"])
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr
    assert status in (0, 1, 2, 3)
    if status < 2:
        assert json.loads(out)["checks"] and err == ""
    else:
        assert out == "" and err.count("\n") == 1 and err.startswith(("config error: ", "resource limit: "))
