"""End-to-end tests of the command line interface (in-process via main)."""

import hashlib
import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qsde_elim
from qsde_elim import catalog, cli, errors, linalg, semigroup
from qsde_elim.cli import main, model_to_document, parse_model_document, read_model_file

README = Path(__file__).resolve().parent.parent / "README.md"
FLAGS = {
    "--model", "--rank-tol", "--tol", "--ks", "--horizon", "--steps", "--drive", "--format", "--out"
}


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def two_level_doc(alpha=0.5):
    return {
        "schema_version": 1,
        "builtin": {
            "name": "two_level",
            "parameters": {"delta": 1.0, "gamma": 1.0, "alpha": alpha},
        },
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """Parse JSON the way a strict parser does: NaN and Infinity are errors."""
    return json.loads(text, parse_constant=reject_constant)


# ---------------------------------------------------------------------------
# parse and validation failures (exit 1)


def test_missing_model_file(tmp_path, capsys):
    code, _, err = run(capsys, ["check", "--model", str(tmp_path / "nope.json")])
    assert code == 1
    assert "cannot read model file" in err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["check", "--model", str(path)])
    assert code == 1
    assert "invalid JSON at line" in err


def test_unknown_top_level_field(tmp_path, capsys):
    doc = two_level_doc()
    doc["bogus"] = 1
    path = write_json(tmp_path / "m.json", doc)
    code, _, err = run(capsys, ["check", "--model", path])
    assert code == 1
    assert "unknown field" in err and "bogus" in err


def test_builtin_and_explicit_are_exclusive(tmp_path, capsys):
    doc = two_level_doc()
    doc["explicit"] = {}
    path = write_json(tmp_path / "m.json", doc)
    code, _, err = run(capsys, ["check", "--model", path])
    assert code == 1
    assert "exactly one of" in err

    path = write_json(tmp_path / "m2.json", {"schema_version": 1})
    code, _, err = run(capsys, ["check", "--model", path])
    assert code == 1
    assert "exactly one of" in err


def test_unsupported_schema_version(tmp_path, capsys):
    doc = two_level_doc()
    doc["schema_version"] = 2
    path = write_json(tmp_path / "m.json", doc)
    code, _, err = run(capsys, ["check", "--model", path])
    assert code == 1
    assert "unsupported schema_version" in err


def test_missing_builtin_parameter(tmp_path, capsys):
    doc = two_level_doc()
    del doc["builtin"]["parameters"]["alpha"]
    path = write_json(tmp_path / "m.json", doc)
    code, _, err = run(capsys, ["check", "--model", path])
    assert code == 1
    assert "alpha" in err


def test_unknown_builtin_name(tmp_path, capsys):
    doc = {"schema_version": 1, "builtin": {"name": "teleporter", "parameters": {}}}
    path = write_json(tmp_path / "m.json", doc)
    code, _, err = run(capsys, ["check", "--model", path])
    assert code == 1
    assert "unknown builtin" in err


def test_wrong_matrix_length_names_the_field(tmp_path, capsys):
    doc = model_to_document(catalog.two_level_atom(1.0, 1.0, 0.5))
    doc["explicit"]["Y"] = [[0.0, 0.0]] * 3
    path = write_json(tmp_path / "m.json", doc)
    code, _, err = run(capsys, ["check", "--model", path])
    assert code == 1
    assert "explicit.Y" in err and "4" in err


def test_bad_ks_flag(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", two_level_doc())
    code, _, err = run(capsys, ["converge", "--model", path, "--ks", "1,abc"])
    assert code == 1
    assert "--ks" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--ks", "5"], "unrecognized arguments: --ks 5"),
        (["converge", "--stepss", "11"], "unrecognized arguments: --stepss 11"),
        (["check", "--config", "c.json"], "unrecognized arguments: --config c.json"),
        (["converge", "--steps", "1.5"], "argument --steps: invalid int value: '1.5'"),
        (["converge", "--ks", ""], "argument --ks: expected comma-separated numbers"),
        (["kurtz", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    ],
    ids=["unread-flag", "unknown-flag", "config-file", "non-integer", "empty-list", "bad-choice"],
)
def test_usage_errors_exit_1_with_the_usage(tmp_path, capsys, argv, message):
    # 2 is the structural-assumption code, so a usage error must not use it
    path = write_json(tmp_path / "m.json", two_level_doc())
    code, out, err = run(capsys, argv + ["--model", path])
    assert code == 1
    assert out == ""
    assert err.startswith("usage: qsde-elim")
    assert err.splitlines()[-1].startswith("error: " + message)


def test_missing_model_or_command_is_a_usage_error(capsys):
    for argv in (["check"], []):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: qsde-elim")
        assert "required" in err.splitlines()[-1]


def parser_flags(capsys, command):
    """The flags in the usage line that ``<command> -h`` prints before it exits 0."""
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.startswith(f"usage: qsde-elim {command}")
    return set(re.findall(r"--[a-z][a-z-]*", usage))


def synopsis_flags(text):
    """Flags per subcommand in the first synopsis block of a document."""
    start = text.index("qsde-elim check")
    block = re.split(r"\n\s*\n|```", text[start:], maxsplit=1)[0]
    parts = re.split(r"qsde-elim (\w+)", block)[1:]
    names, bodies = parts[::2], parts[1::2]
    return {name: set(re.findall(r"--[a-z][a-z-]*", body)) for name, body in zip(names, bodies)}


@pytest.mark.parametrize("doc", ["README", "cli docstring"])
def test_synopsis_matches_the_parser(capsys, doc):
    text = README.read_text() if doc == "README" else cli.__doc__
    documented = synopsis_flags(text)
    assert set(documented) == set(cli.COMMANDS)
    for command, flags in documented.items():
        assert flags == parser_flags(capsys, command), command


def test_each_command_rejects_the_flags_it_does_not_read(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", two_level_doc())
    settable = 0
    for command in cli.COMMANDS:
        accepted = parser_flags(capsys, command)
        assert accepted < FLAGS
        settable += len(accepted)
        for flag in sorted(FLAGS - accepted):
            code, out, err = run(capsys, [command, "--model", path, flag, "1"])
            assert code == 1, (command, flag)
            assert out == ""
            assert f"unrecognized arguments: {flag} 1" in err
    assert settable == 21  # one flag per setting a command reads


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--ks", "-1"],
        ["converge", "--steps", "1"],
        ["converge", "--horizon", "0"],
        ["kurtz", "--ks", "0"],
        ["converge", "--ks", "nan"],
    ],
)
def test_bad_sweep_arguments_are_input_errors(tmp_path, capsys, argv):
    path = write_json(tmp_path / "m.json", two_level_doc())
    code, _, err = run(capsys, argv + ["--model", path])
    assert code == 1
    assert err.startswith("error: ")
    assert "non-finite entries" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, rank_tol",
    [
        (["check", "--tol", "nan"], None),
        (["check", "--tol", "inf"], None),
        (["check", "--tol", "-1"], None),
        (["check", "--tol", "0"], None),
        (["check"], "-1"),
        (["check"], "0"),
        (["converge"], "nan"),
        (["eliminate", "--tol", "inf"], None),
        (["kurtz"], "inf"),
    ],
)
def test_bad_tolerances_are_input_errors(tmp_path, capsys, argv, rank_tol):
    path = write_json(tmp_path / "m.json", two_level_doc())
    if rank_tol is not None:
        argv = argv + ["--rank-tol", rank_tol]
    code, out, err = run(capsys, argv + ["--model", path])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "finite positive tolerance" in err


def test_rank_tol_reaches_the_kernel_cutoff(tmp_path, capsys):
    # Y = diag(-0.5 - i, 0): a relative cutoff of 2 puts both states in Ker(Y)
    path = write_json(tmp_path / "m.json", two_level_doc())
    code, out, _ = run(capsys, ["check", "--model", path])
    assert json.loads(out)["ground_rank"] == 1
    code, out, _ = run(capsys, ["check", "--model", path, "--rank-tol", "2"])
    assert json.loads(out)["ground_rank"] == 2


# ---------------------------------------------------------------------------
# check


def test_check_builtin_two_level(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", two_level_doc())
    code, out, _ = run(capsys, ["check", "--model", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["ground_rank"] == 1
    names = [s["name"] for s in doc["sections"]]
    assert names == [
        "unitarity (k=1)",
        "scaling-consistency",
        "inverse-structure",
        "ground-support",
        "limit-unitarity",
    ]
    assert all(s["passed"] for s in doc["sections"])


def test_check_builtin_catalog_family(tmp_path, capsys):
    docs = [
        {
            "schema_version": 1,
            "builtin": {
                "name": "alkali",
                "parameters": {"delta": 1.0, "gamma": 1.0, "bx": 0.2, "by": 0.0, "bz": 0.4},
            },
        },
        {
            "schema_version": 1,
            "builtin": {"name": "cavity_system", "parameters": {"gamma": 1.0, "n_trunc": 3}},
        },
        {
            "schema_version": 1,
            "builtin": {
                "name": "lambda_system",
                "parameters": {"gamma": 1.0, "g": 2.0, "alpha": [0.4, 0.0], "n_trunc": 3},
            },
        },
    ]
    for i, doc in enumerate(docs):
        path = write_json(tmp_path / f"m{i}.json", doc)
        code, out, _ = run(capsys, ["check", "--model", path])
        assert code == 0, out
        assert json.loads(out)["passed"] is True


def test_check_structural_violation_exits_2(tmp_path, capsys):
    # sigma_x coupling drags the ground sector along: F_0 P0 != 0
    p = catalog.pauli_ops()
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    from qsde_elim import ScaledModel

    bad = ScaledModel(Y=m.Y, A=m.A, B=m.B, F=[p.sigma_x], G=m.G, W=m.W)
    path = write_json(tmp_path / "bad.json", model_to_document(bad))
    code, out, _ = run(capsys, ["check", "--model", path])
    assert code == 2
    doc = json.loads(out)
    assert doc["passed"] is False
    inv = next(s for s in doc["sections"] if s["name"] == "inverse-structure")
    assert not inv["passed"]
    offending = [r for r in inv["residuals"] if "F_0" in r["identity"] and r["residual"] > 0.5]
    assert offending


def test_check_with_overflowing_norms_fails(tmp_path, capsys):
    # |alpha|^2 overflows, so every tolerance scaled by the operator norms is
    # infinite; P0·A·P0 = inf must not pass against it
    path = write_json(tmp_path / "m.json", {
        "schema_version": 1,
        "builtin": {"name": "two_level",
                    "parameters": {"delta": 0.0, "gamma": 0.0, "alpha": 9.5e153}},
    })
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = run(capsys, ["check", "--model", path])
    assert code == 2
    doc = json.loads(out)
    assert doc["passed"] is False
    inv = next(s for s in doc["sections"] if s["name"] == "inverse-structure")
    assert inv["tolerance"] is None and not inv["passed"]  # null: the tolerance overflowed


OVERFLOWING_NORMS = {
    "schema_version": 1,
    "builtin": {"name": "two_level", "parameters": {"delta": 0.0, "gamma": 0.0, "alpha": 9.5e153}},
}


@pytest.mark.parametrize(
    "argv, expected",
    [(["check"], 2), (["eliminate"], 2), (["kurtz", "--format", "json", "--ks", "10,100"], 3)],
)
def test_json_is_strict_when_numbers_overflow(tmp_path, capsys, argv, expected):
    path = write_json(tmp_path / "m.json", OVERFLOWING_NORMS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported, not warned about
        code, out, err = run(capsys, argv + ["--model", path])
    assert code == expected
    assert "Warning" not in out
    doc = strict_json(out)
    assert "null" in out  # the overflowed numbers, written as strict JSON can
    if argv[0] == "kurtz":
        # no residual is finite: the report is still written, and the run fails
        assert any(row["corrected"] is None for row in doc["residuals"])
        assert err.splitlines() == ["error: every generator residual overflowed to a non-finite value"]


LIMIT_OVERFLOW = {
    "schema_version": 1,
    "builtin": {
        "name": "lambda_system",
        "parameters": {"gamma": 1.0, "g": -1.2e-29, "alpha": [1e300, -1]},
    },
}


@pytest.mark.parametrize("command", ["check", "eliminate", "converge", "kurtz"])
def test_limit_coefficient_overflow_is_a_numerical_failure(tmp_path, capsys, command):
    # the coefficients are finite, but A·Y1inv·A in K = P0(B - A·Y1inv·A)P0 is not
    path = write_json(tmp_path / "m.json", LIMIT_OVERFLOW)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        code, out, err = run(capsys, [command, "--model", path])
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: limit coefficient K overflowed to non-finite entries"]


OVERFLOWING_SQUARES = {
    "two_level": {"delta": 1e160, "gamma": 1.0, "alpha": 0.5},
    "cavity_system": {"gamma": 1e300},
    "lambda_system": {"gamma": 1.0, "g": 1e300, "alpha": 0.4},
}


@pytest.mark.parametrize("name", list(OVERFLOWING_SQUARES))
@pytest.mark.parametrize(
    "command, expected", [("check", 2), ("eliminate", 2), ("converge", 3), ("kurtz", 0)]
)
def test_a_norm_of_y_whose_squares_overflow_prints_no_warning(tmp_path, capsys, name, command, expected):
    # the entries of Y are finite but their squares are not: the restricted
    # inverse is certified against ||Y|| taken in units of its largest entry
    doc = {"schema_version": 1, "builtin": {"name": name, "parameters": OVERFLOWING_SQUARES[name]}}
    path = write_json(tmp_path / "m.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        code, _, err = run(capsys, [command, "--model", path])
    assert code == expected
    assert "Warning" not in err


SUBNORMAL_EXCITED_BLOCK = {
    "schema_version": 1,
    "explicit": {
        "dim": 2,
        "channels": 1,
        "Y": [[-1e-310, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "A": [[0.0, 0.0]] * 4,
        "B": [[0.0, 0.0]] * 4,
        "F": [[[0.0, 0.0]] * 4],
        "G": [[[0.0, 0.0]] * 4],
        "W": [[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]],
    },
}


@pytest.mark.parametrize("command", ["check", "converge", "kurtz"])
def test_subnormal_excited_block_is_a_numerical_failure(tmp_path, capsys, command):
    # Y's excited block is -1e-310: invertible, but its inverse overflows float64
    path = write_json(tmp_path / "m.json", SUBNORMAL_EXCITED_BLOCK)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        code, out, err = run(capsys, [command, "--model", path])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: restricted inverse overflowed to non-finite entries")


def test_generator_over_budget_exits_1(tmp_path, capsys, monkeypatch):
    # the n_trunc 16 cavity's generator is 64 x 64 (65536 bytes); refused
    # against a smaller budget before anything is assembled
    monkeypatch.setattr(semigroup, "GENERATOR_BUDGET_BYTES", 16 * 64 * 64 - 1)
    path = write_json(tmp_path / "m.json", {
        "schema_version": 1,
        "builtin": {"name": "cavity_system", "parameters": {"n_trunc": 16}},
    })
    code, out, err = run(capsys, ["converge", "--model", path, "--ks", "5", "--steps", "3"])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: a 64 x 64 generator needs 65,536 bytes, over the budget of 65,535 bytes"
    ]


# a builtin at n_trunc 100000, and the dimension it would have
OVERSIZED_BUILTINS = {
    "cavity_system": ({"n_trunc": 100000}, "200,000"),
    "lambda_system": ({"n_trunc": 100000, "gamma": 1.0, "g": 2.0, "alpha": 0.4}, "300,000"),
}


@pytest.mark.parametrize("command", ["check", "converge"])
@pytest.mark.parametrize("name", sorted(OVERSIZED_BUILTINS))
def test_oversized_builtin_is_refused_before_allocation(tmp_path, capsys, monkeypatch, command, name):
    # 6 operators of 16·d² bytes each, far over the 288 MiB peak: refused
    # before any d x d array (np.diag builds the ladder, np.kron the operators)
    def fail(*args, **kwargs):
        raise AssertionError("a d x d array was being built")

    parameters, dim = OVERSIZED_BUILTINS[name]
    path = write_json(tmp_path / "m.json", {
        "schema_version": 1,
        "builtin": {"name": name, "parameters": parameters},
    })
    monkeypatch.setattr(np, "diag", fail)
    monkeypatch.setattr(np, "kron", fail)
    code, out, err = run(capsys, [command, "--model", path])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: a model of dimension {dim} with 1 channel(s) needs ")
    assert err.rstrip().endswith("over the budget of 301,989,888 bytes")


def test_check_singular_restriction_suggests_override(tmp_path, capsys):
    # nilpotent Y: kernel projector exists but the restricted block is singular
    z = [[0.0, 0.0]] * 4
    doc = {
        "schema_version": 1,
        "explicit": {
            "dim": 2,
            "channels": 1,
            "Y": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "A": z,
            "B": z,
            "F": [z],
            "G": [z],
            "W": [[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]],
        },
    }
    path = write_json(tmp_path / "m.json", doc)
    code, out, _ = run(capsys, ["check", "--model", path])
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    assert "y1inv_override" in report["error"]
    # supplying an override lets the checks run; they then fail honestly
    doc["explicit"]["y1inv_override"] = z
    path = write_json(tmp_path / "m2.json", doc)
    code, out, _ = run(capsys, ["check", "--model", path])
    assert code == 2
    report = json.loads(out)
    names = [s["name"] for s in report["sections"]]
    assert "inverse-structure" in names


def test_check_accepts_correct_override(tmp_path, capsys):
    doc = model_to_document(
        catalog.two_level_atom(1.0, 1.0, 0.5), np.diag([-0.4 + 0.8j, 0.0])
    )
    path = write_json(tmp_path / "m.json", doc)
    code, out, _ = run(capsys, ["check", "--model", path])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_report_to_file(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["check", "--model", mpath, "--out", str(out_path)])
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["passed"] is True


# ---------------------------------------------------------------------------
# eliminate


def test_eliminate_writes_limit_and_report(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    out_path = tmp_path / "limit.json"
    code, _, _ = run(capsys, ["eliminate", "--model", mpath, "--out", str(out_path)])
    assert code == 0
    limit_doc = json.loads(out_path.read_text())
    # limit family: Y = A = F = 0, B = K, G = L, W = S
    assert limit_doc["explicit"]["Y"] == [[0.0, 0.0]] * 4
    B = limit_doc["explicit"]["B"]
    np.testing.assert_allclose(B[0], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(B[3], [-0.1, 0.2], atol=1e-12)
    report = json.loads((tmp_path / "limit.json.report.json").read_text())
    assert report["passed"] is True
    assert report["ground_rank"] == 1
    np.testing.assert_allclose(report["p0"][3], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(report["y1inv"][0], [-0.4, 0.8], atol=1e-12)


def test_eliminate_roundtrip_is_bit_identical(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    out_path = tmp_path / "limit.json"
    run(capsys, ["eliminate", "--model", mpath, "--out", str(out_path)])
    text = out_path.read_text()
    mf = read_model_file(out_path)  # schema validation of the emitted file
    again = json.dumps(model_to_document(mf.model), indent=2, sort_keys=False) + "\n"
    assert again == text


def test_eliminate_stdout_combined_document(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, out, _ = run(capsys, ["eliminate", "--model", mpath])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"limit_model", "report"}
    assert doc["report"]["passed"] is True


def test_eliminate_singular_restriction(tmp_path, capsys):
    z = [[0.0, 0.0]] * 4
    doc = {
        "schema_version": 1,
        "explicit": {
            "dim": 2,
            "channels": 1,
            "Y": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "A": z,
            "B": z,
            "F": [z],
            "G": [z],
            "W": [[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]],
        },
    }
    path = write_json(tmp_path / "m.json", doc)
    code, _, err = run(capsys, ["eliminate", "--model", path, "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "y1inv_override" in err


def test_recheck_of_emitted_limit_fails_identity_closure(tmp_path, capsys):
    # the emitted limit scatters within the ground sector only, so its
    # unitarity closes on P0, not on the identity: plain check says no
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    out_path = tmp_path / "limit.json"
    run(capsys, ["eliminate", "--model", mpath, "--out", str(out_path)])
    code, out, _ = run(capsys, ["check", "--model", str(out_path)])
    assert code == 2
    doc = json.loads(out)
    unit = next(s for s in doc["sections"] if s["name"] == "unitarity (k=1)")
    assert not unit["passed"]


# ---------------------------------------------------------------------------
# converge


def test_converge_csv_shape_and_zero_start(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, out, _ = run(
        capsys,
        ["converge", "--model", mpath, "--ks", "2,10,50", "--steps", "11", "--horizon", "1.0"],
    )
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    lines = blocks[0].splitlines()
    assert lines[0] == "k,t,distance"
    assert len(lines) == 1 + 3 * 11
    for line in lines[1:]:
        k, t, dist = (float(x) for x in line.split(","))
        assert dist >= 0.0
        if t == 0.0:
            assert dist == 0.0
    sup_lines = blocks[1].splitlines()
    assert sup_lines[0] == "k,sup_distance"
    sups = {float(r.split(",")[0]): float(r.split(",")[1]) for r in sup_lines[1:]}
    assert sups[50.0] < sups[10.0] < sups[2.0]


def test_converge_json_format(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, out, _ = run(
        capsys,
        ["converge", "--model", mpath, "--ks", "5,25", "--steps", "6", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ks"] == [5.0, 25.0]
    assert len(doc["t_grid"]) == 6
    assert len(doc["distances"]) == 2 and len(doc["distances"][0]) == 6
    assert doc["max_clamp"] < 1e-8


def test_converge_zero_coupling_allowed(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, out, _ = run(capsys, ["converge", "--model", mpath, "--ks", "0", "--steps", "5"])
    assert code == 0
    assert out.splitlines()[0] == "k,t,distance"


DRIVE = {"breakpoints": [0.0, 0.25, 0.5], "amplitudes": [[0.3], [[0.0, -0.2]]]}


def test_converge_drive_file(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    dpath = write_json(tmp_path / "d.json", DRIVE)
    argv = ["converge", "--model", mpath, "--ks", "5", "--steps", "21", "--horizon", "0.5"]
    code, out, _ = run(capsys, argv + ["--drive", dpath])
    assert code == 0
    lines = out.split("\n\n")[0].splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert {r[0] for r in rows} == {"5.0"}
    assert len(rows) == 21
    assert max(float(r[1]) for r in rows) == pytest.approx(0.5)
    # the drive displaces the field: the distances differ from the vacuum's
    code, vacuum, _ = run(capsys, argv)
    assert code == 0 and vacuum != out


@pytest.mark.parametrize(
    "drive, message",
    [
        ({"breakpoints": [0.0, 0.25], "amplitudes": [[0.3]]}, "before the horizon"),
        ({"breakpoints": [0.0, 0.5], "amplitudes": [[0.3]], "phase": 1}, "drive: unknown field"),
        ({"breakpoints": [0.0, 0.5], "amplitudes": [["x"]]}, "drive.amplitudes[0][0]"),
        ({"breakpoints": [0.5, 1.0], "amplitudes": [[0.3]]}, "breakpoints must start at 0"),
        (
            {"breakpoints": [0.0, 0.5], "amplitudes": [0.3]},
            "drive.amplitudes[0]: expected a list of channel amplitudes",
        ),
    ],
    ids=["short-window", "unknown-field", "bad-amplitude", "late-start", "row-not-a-list"],
)
def test_bad_drive_file_is_an_input_error(tmp_path, capsys, drive, message):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    dpath = write_json(tmp_path / "d.json", drive)
    argv = ["converge", "--model", mpath, "--drive", dpath, "--horizon", "0.5"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


def test_short_drive_window_at_a_small_horizon_is_an_input_error(tmp_path, capsys):
    # the window covers half of a 1e-12 horizon: short by less than 1e-12 absolute
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    dpath = write_json(tmp_path / "d.json", {"breakpoints": [0, 5e-13], "amplitudes": [[0.3]]})
    argv = ["converge", "--model", mpath, "--ks", "5", "--steps", "5", "--horizon", "1e-12"]
    code, out, err = run(capsys, argv + ["--drive", dpath])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "before the horizon" in err


def test_missing_drive_file(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, _, err = run(capsys, ["converge", "--model", mpath, "--drive", str(tmp_path / "no.json")])
    assert code == 1
    assert err.startswith("error: cannot read drive file")


def test_converge_to_file_is_deterministic(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, ["converge", "--model", mpath, "--ks", "1,10", "--steps", "21", "--out", str(a)])
    run(capsys, ["converge", "--model", mpath, "--ks", "1,10", "--steps", "21", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def converge_k_sup(tmp_path, capsys, doc, ks: str, steps: str) -> dict[float, float]:
    """k·sup per coupling from a converge call in CSV."""
    mpath = write_json(tmp_path / "m.json", doc)
    code, out, err = run(capsys, ["converge", "--model", mpath, "--ks", ks, "--steps", steps])
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.split("\n\n")[1].splitlines()[1:]]
    return {float(k): float(k) * float(sup) for k, sup in rows}


def test_converge_at_large_k_meets_the_two_level_oracle(tmp_path, capsys):
    # every step is stiff at these couplings; k·sup on the 6-point grid holds
    # the 50-digit value at 1e4 (bench/data/stiff_oracle.json), 0.66332496
    k_sup = converge_k_sup(tmp_path, capsys, two_level_doc(), "1e4,1e5", "6")
    assert k_sup == pytest.approx({1e4: 0.66332496, 1e5: 0.66332496}, rel=1e-5)


def test_converge_at_large_k_keeps_the_cavity_distance_flat(tmp_path, capsys):
    # the default cavity (d = 8) on 21 points: k·sup at 1e4 and 1e5 is its
    # value at k = 100, 0.55494, up to O(1/k)
    doc = {"schema_version": 1, "builtin": {"name": "cavity_system", "parameters": {}}}
    k_sup = converge_k_sup(tmp_path, capsys, doc, "100,1e4,1e5", "21")
    assert k_sup[100.0] == pytest.approx(0.55494, abs=1e-5)
    for k in (1e4, 1e5):
        assert k_sup[k] == pytest.approx(k_sup[100.0], rel=1e-4)


def test_converge_overflow_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # an exponential that overflowed to NaN: the quadratic form is NaN, not a distance
    monkeypatch.setattr(semigroup, "expm", lambda M: np.full(M.shape, np.nan, dtype=complex))
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, out, err = run(capsys, ["converge", "--model", mpath, "--ks", "5", "--steps", "3"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "nan" in err


def test_an_overflow_in_propagation_prints_no_warning(tmp_path, capsys, monkeypatch):
    # products of an exponential near the float64 maximum overflow; the suite
    # turns a numpy warning into an error, so none may reach this far
    monkeypatch.setattr(semigroup, "expm", lambda M: np.full(M.shape, 1e308, dtype=complex))
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, out, err = run(capsys, ["converge", "--model", mpath, "--ks", "5", "--steps", "3"])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: squared distance came out nan")


def test_converge_at_a_vast_horizon_gives_the_decayed_distance(tmp_path, capsys):
    # Every eigenvalue of the two-level skew generator at k = 5 has Re <= -7.8e-4,
    # so at t = 5e299 each mode of exp(t·G) is below exp(-3.9e296): exactly 0 in
    # float64, far beyond the backward error eps·|t·G|.  Then T_t = 0 and the
    # squared distance is <v, 2I v> = 2.
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    skew = semigroup.build_generators(m, qsde_elim.eliminate(m), 5.0)
    assert 5e299 * np.linalg.eigvals(skew).real.max() < -1e296
    assert 5e299 * np.abs(skew).sum(axis=0).max() * np.finfo(float).eps < 1e287
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, out, err = run(
        capsys, ["converge", "--model", mpath, "--horizon", "1e300", "--ks", "5", "--steps", "3"]
    )
    assert code == 0 and err == ""
    root2 = repr(float(np.sqrt(2.0)))
    assert out.splitlines()[1:4] == ["5.0,0.0,0.0", f"5.0,5e+299,{root2}", f"5.0,1e+300,{root2}"]


def test_a_horizon_beyond_the_undamped_modes_is_a_numerical_failure(tmp_path, capsys):
    # The alkali ground sector decouples: its exact distance is 0 at every t, and
    # its skew generator at k = 5 has an eigenvalue with Re λ ≈ 6e-17 (0 up to
    # rounding).  At t = 5e99 the backward error eps·t·|G|₁ ≈ 5e85 leaves no digit
    # of that mode's phase, so no float64 distance exists: exit 3, not √2.
    m = catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4)
    skew = semigroup.build_generators(m, qsde_elim.eliminate(m), 5.0)
    assert abs(np.linalg.eigvals(skew).real).min() < 1e-15
    assert 5e99 * np.linalg.norm(skew, 1) * np.finfo(float).eps > 1e80
    doc = {
        "schema_version": 1,
        "builtin": {
            "name": "alkali",
            "parameters": {"delta": 1.0, "gamma": 1.0, "bx": 0.2, "by": 0.0, "bz": 0.4},
        },
    }
    mpath = write_json(tmp_path / "m.json", doc)
    code, out, err = run(
        capsys, ["converge", "--model", mpath, "--horizon", "1e100", "--ks", "5", "--steps", "3"]
    )
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: horizon 1e+100 at coupling 5: the rounding error")


def test_a_horizon_that_overflows_a_step_is_a_bad_argument(tmp_path, capsys):
    # 5e307 times the generator overflows float64: exit 1, naming the horizon
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, out, err = run(
        capsys, ["converge", "--model", mpath, "--horizon", "1e308", "--ks", "5", "--steps", "3"]
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: horizon 1e+308 overflows")


def test_converge_clamp_beyond_abort_exits_3(tmp_path, capsys, monkeypatch):
    # with a negative abort threshold even an exact zero clamp exceeds it
    monkeypatch.setattr(semigroup, "CLAMP_ABORT", -1.0)
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, out, err = run(capsys, ["converge", "--model", mpath, "--ks", "5", "--steps", "3"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: squared distance came out")


# ---------------------------------------------------------------------------
# kurtz


def test_kurtz_csv_default_couplings_and_slope(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, out, _ = run(capsys, ["kurtz", "--model", mpath])
    assert code == 0
    blocks = out.split("\n\n")
    lines = blocks[0].splitlines()
    assert lines[0] == "label,k,corrected,uncorrected"
    rows = [line.split(",") for line in lines[1:]]
    p0_rows = [r for r in rows if r[0] == "P0"]
    assert [float(r[1]) for r in p0_rows] == [10.0, 30.0, 100.0, 300.0]
    for r in p0_rows:
        assert float(r[2]) < float(r[3])  # corrected beats uncorrected
    slope_lines = blocks[1].splitlines()
    assert slope_lines[0] == "label,slope"
    slopes = {r.split(",")[0]: float(r.split(",")[1]) for r in slope_lines[1:]}
    assert slopes["P0"] == pytest.approx(-1.0, abs=0.1)


def test_kurtz_json_reports_null_slope_for_flat_residuals(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "builtin": {
            "name": "alkali",
            "parameters": {"delta": 1.0, "gamma": 1.0, "bx": 0.2, "by": 0.0, "bz": 0.4},
        },
    }
    mpath = write_json(tmp_path / "m.json", doc)
    code, out, _ = run(capsys, ["kurtz", "--model", mpath, "--format", "json", "--ks", "10,100"])
    assert code == 0
    report = json.loads(out)
    p0_slope = next(s for s in report["slopes"] if s["label"] == "P0")
    assert p0_slope["slope"] is None


# ---------------------------------------------------------------------------
# document serialization helpers


def test_model_document_roundtrip_explicit():
    m = catalog.lambda_system(1.0, 2.0, 0.4, 3)
    doc = model_to_document(m)
    mf = parse_model_document(doc)
    np.testing.assert_allclose(mf.model.Y, m.Y, atol=0)
    np.testing.assert_allclose(mf.model.W, m.W, atol=0)
    assert mf.y1inv_override is None
    assert mf.label == "explicit"


def test_complex_scalar_forms():
    doc = two_level_doc(alpha=[0.3, -0.7])
    mf = parse_model_document(doc)
    expected = catalog.two_level_atom(1.0, 1.0, 0.3 - 0.7j)
    np.testing.assert_allclose(mf.model.A, expected.A, atol=0)


# ---------------------------------------------------------------------------
# import graph


IMPORT_PROBE = """
import json, sys
import qsde_elim
from qsde_elim.cli import main
def loaded():
    return [name in sys.modules for name in ("scipy", "scipy.linalg", "scipy.linalg._matfuncs_expm")]
seen = {"import": loaded()}
for command in ("check", "eliminate", "kurtz"):
    main([command, "--model", sys.argv[1]])
    seen[command] = loaded()
main(["converge", "--model", sys.argv[1], "--ks", "5", "--steps", "3"])
seen["converge"] = loaded()
sys.stderr.write(json.dumps(seen))
"""


def test_expm_kernel_loads_at_converge_and_scipy_linalg_never(tmp_path):
    """The certificate paths need no expm and load nothing of scipy; from scipy
    1.17 on, converge loads scipy's expm kernel alone, never scipy's or
    scipy.linalg's __init__."""
    path = write_json(tmp_path / "m.json", two_level_doc())
    src = str(Path(qsde_elim.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, path],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stderr)
    # before scipy 1.17, or where the kernel fails its check, converge imports
    # scipy.linalg
    scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
    alone = linalg._scipy_version(scipy_dir) >= linalg._KERNEL_ALONE_SINCE
    usable = linalg._kernel() is not None
    # [scipy, scipy.linalg, the kernel] loaded after each step
    assert seen == {
        "import": [False, False, False],
        "check": [False, False, False],
        "eliminate": [False, False, False],
        "kurtz": [False, False, False],
        "converge": [False, False, True] if alone and usable else [True, True, True],
    }


# ---------------------------------------------------------------------------
# recorded CLI bytes: the benchmark's cli-cold calls, run in process


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLI_COLD = _load_bench_module("cli_cold")  # standard library only
CLI_REFERENCE = json.loads((BENCH / "data" / "reference.json").read_text())["cli-cold"]


def test_benchmark_modules_import(monkeypatch):
    # the workloads import public names of the package and of tests/factories.py;
    # losing one must fail here, not first in a benchmark run
    monkeypatch.setitem(sys.modules, "common", _load_bench_module("common"))
    for name in ("driven_catalog", "vacuum_ladder", "certify_batch", "cli_cold"):
        assert hasattr(_load_bench_module(name), "Workload")


def test_every_public_name_resolves():
    assert [name for name in qsde_elim.__all__ if not hasattr(qsde_elim, name)] == []
    assert len(set(qsde_elim.__all__)) == len(qsde_elim.__all__)


def assert_recorded_bytes(item, tmp_path, capsys):
    """The cli-cold call ``item`` exits and prints as recorded in reference.json."""
    command, model = item.split(":")
    path = tmp_path / f"{model}.json"
    path.write_text(json.dumps({"schema_version": 1, "builtin": CLI_COLD.MODELS[model]}))
    code, out, _ = run(capsys, [command, "--model", str(path)])
    want = CLI_REFERENCE[item]
    assert code == want["exit_code"]
    assert hashlib.sha256(out.encode()).hexdigest() == want["stdout_sha256"]


@pytest.mark.parametrize("item", list(CLI_REFERENCE))
def test_cli_bytes_match_recorded_reference(item, tmp_path, capsys):
    # every cli-cold call prints the bytes recorded in bench/data/reference.json
    assert_recorded_bytes(item, tmp_path, capsys)


@pytest.mark.parametrize("model", sorted(CLI_COLD.MODELS))
def test_recorded_converge_calls_never_reach_the_split(model, tmp_path, capsys, monkeypatch):
    # the slow/fast split takes only stiff steps, and at the CLI defaults
    # (k <= 100, 101 points) no step of the recorded models is stiff: their
    # bytes come from dense exponentials alone
    def fail(self, scaled, k):
        raise AssertionError("the slow/fast split was reached")

    monkeypatch.setattr(semigroup._Parts, "decouple", fail)
    assert_recorded_bytes(f"converge:{model}", tmp_path, capsys)


@pytest.mark.parametrize("ks, fmt", [("100", "json"), ("100,100", "json"), ("100", "csv")])
def test_kurtz_with_one_distinct_coupling_reports_no_slope(tmp_path, capsys, ks, fmt):
    # a line through one point has no slope: null in JSON, nan in CSV, and no
    # warning from the fit
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, out, err = run(capsys, ["kurtz", "--model", mpath, "--ks", ks, "--format", fmt])
    assert code == 0
    assert err == ""
    if fmt == "json":
        assert all(s["slope"] is None for s in strict_json(out)["slopes"])
    else:
        slope_lines = out.split("\n\n")[1].splitlines()[1:]
        assert slope_lines and all(line.endswith(",nan") for line in slope_lines)


@pytest.mark.parametrize("argv", [["converge", "--ks", "1e160"], ["kurtz", "--ks", "1e200"]])
def test_an_overflowing_coupling_is_a_bad_argument(tmp_path, capsys, argv):
    # k²·Y overflows float64 at this coupling: exit 1, naming the coupling
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    code, out, err = run(capsys, argv + ["--model", mpath])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: coupling k = {argv[2].replace('e', 'e+')} overflows")


@pytest.mark.parametrize(
    "args, stderr",
    [
        (["kurtz", "--ks", "100"], ""),
        (["converge", "--ks", "1e160"], "error: coupling k = 1e+160 overflows"),
        (["converge", "--horizon", "1e308", "--steps", "3"], "error: horizon 1e+308 overflows"),
    ],
)
def test_cold_cli_stderr_carries_no_warning(tmp_path, args, stderr):
    # the warning filter of the suite does not reach a child process
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    env = dict(os.environ, PYTHONPATH=str(Path(qsde_elim.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "qsde_elim.cli", *args, "--model", mpath],
        capture_output=True, text=True, env=env,
    )
    assert proc.stderr.startswith(stderr)
    assert len(proc.stderr.splitlines()) == (1 if stderr else 0)


def test_a_generator_that_overflows_prints_its_error_line_alone(tmp_path, capsys):
    # K(k) overflows while the generators are formed, then the first time step;
    # the suite turns a numpy warning into an error, so none may reach main
    mpath = write_json(tmp_path / "m.json", two_level_doc(alpha=9.5e153))
    code, out, err = run(capsys, ["converge", "--ks", "1.2e154", "--steps", "3", "--model", mpath])
    assert (code, out, err) == (1, "", "error: horizon 1 overflows float64 in a time step\n")


@pytest.mark.parametrize(
    "name, parameters",
    [("cavity_system", {}), ("lambda_system", {"gamma": 1.0, "g": 2.0, "alpha": 0.4, "n_trunc": 4})],
    ids=["cavity", "lambda"],
)
def test_a_coupling_whose_square_underflows_prints_no_warning(tmp_path, capsys, name, parameters):
    # k² underflows to 0 at k = 1e-200: X2 / k² is not finite and the corrected
    # residual null, without a numpy warning; the rows at k = 1 are those of k = 1 alone
    doc = {"schema_version": 1, "builtin": {"name": name, "parameters": parameters}}
    mpath = write_json(tmp_path / "m.json", doc)
    code, out, err = run(capsys, ["kurtz", "--ks", "1e-200,1", "--format", "json", "--model", mpath])
    assert (code, err) == (0, "")
    rows = strict_json(out)["residuals"]
    assert [row["corrected"] for row in rows if row["k"] == 1e-200] == [None] * (len(rows) // 2)
    _, alone, _ = run(capsys, ["kurtz", "--ks", "1", "--format", "json", "--model", mpath])
    assert [row for row in rows if row["k"] == 1.0] == strict_json(alone)["residuals"]


# ---------------------------------------------------------------------------
# inputs that once ended in a traceback or passed silently


def cavity_doc(**parameters):
    return {"schema_version": 1, "builtin": {"name": "cavity_system", "parameters": parameters}}


def explicit_doc(first_y_entry):
    """two_level as an explicit model, with the first entry of Y replaced."""
    doc = model_to_document(catalog.two_level_atom(1.0, 1.0, 0.5))
    doc["explicit"]["Y"][0] = first_y_entry
    return doc


@pytest.mark.parametrize(
    "model, argv, message",
    [
        (cavity_doc(dim_h="x"), ["check"], "builtin.parameters.dim_h: expected an integer"),
        (cavity_doc(dim_h=3), ["check"], "e00, e10, e11 and dim_h must be given together"),
        (
            cavity_doc(dim_h=-1, e00=[[0, 0]], e10=[[0, 0]], e11=[[0, 0]]),
            ["eliminate"],
            "builtin.parameters.dim_h: expected a positive integer",
        ),
        (two_level_doc(alpha=10**400), ["kurtz"], "builtin.parameters.alpha: expected a number"),
        (two_level_doc(), ["converge", "--ks", "5", "--steps", str(10**15)], "over the budget"),
        (explicit_doc([0.0]), ["check"], "explicit.Y[0]: expected an [re, im] pair of numbers"),
        ({"schema_version": 1, "builtin": 5}, ["check"], "builtin: expected an object"),
        (
            {"schema_version": 1, "builtin": {"name": "two_level", "parameters": [1]}},
            ["check"],
            "builtin.parameters: expected an object",
        ),
        # Python's json writes and reads Infinity
        (explicit_doc([float("inf"), 0.0]), ["check"], "explicit: Y contains non-finite entries"),
    ],
    ids=[
        "dim_h-not-integer", "dim_h-without-blocks", "negative-dim_h", "huge-integer", "huge-steps",
        "matrix-entry-not-a-pair", "builtin-not-an-object", "parameters-not-an-object",
        "explicit-infinity",
    ],
)
def test_bad_input_exits_1_with_one_error_line(tmp_path, capsys, model, argv, message):
    path = write_json(tmp_path / "m.json", model)
    code, out, err = run(capsys, argv + ["--model", path])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


def test_a_check_tolerance_that_overflows_with_the_dimension_still_reports(tmp_path, capsys):
    # the limit's ground projector is validated at tol·max(1, d), inf for tol 1e308:
    # an infinite tolerance passes it, and limit-unitarity is read at 1e308
    doc = {"schema_version": 1, "builtin": {"name": "alkali", "parameters": {
        "delta": 1.0, "gamma": 1.0, "bx": 0.2, "by": 0.0, "bz": 0.4}}}
    path = write_json(tmp_path / "m.json", doc)
    code, out, err = run(capsys, ["check", "--model", path, "--tol", "1e308"])
    assert code == 2 and err == ""
    sections = {s["name"]: s for s in json.loads(out)["sections"]}
    assert sections["limit-unitarity"]["tolerance"] == 1e308
    assert sections["limit-unitarity"]["passed"]


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, ["check", "--model", str(path)])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_ragged_drive_is_an_input_error(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    drive = {"breakpoints": [0.0, 0.25, 0.5], "amplitudes": [[0.3], [0.1, 0.2]]}
    dpath = write_json(tmp_path / "d.json", drive)
    argv = ["converge", "--model", mpath, "--drive", dpath, "--horizon", "0.5"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: drive: ") and "one amplitude per channel" in err


def test_a_drive_with_no_channel_is_an_input_error(tmp_path, capsys):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    dpath = write_json(tmp_path / "d.json", {"breakpoints": [0.0, 1.0], "amplitudes": []})
    code, out, err = run(capsys, ["converge", "--model", mpath, "--drive", dpath])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: drive: ") and "at least one channel" in err


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_unwritable_out_is_an_input_error(tmp_path, capsys, command):
    mpath = write_json(tmp_path / "m.json", two_level_doc())
    target = tmp_path / "missing" / "x.out"
    code, out, err = run(capsys, [command, "--model", mpath, "--out", str(target)])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {target}: ")


# ---------------------------------------------------------------------------
# one exit code per error class


def explicit_two_level(Y, B):
    """A dim 2, one-channel explicit model with A = F = G = 0 and W = I."""
    zero = [[0.0, 0.0]] * 4
    one = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    return {
        "schema_version": 1,
        "explicit": {
            "dim": 2, "channels": 1, "Y": Y, "A": zero, "B": B, "F": [zero], "G": [zero],
            "W": [[one]],
        },
    }


# one bad input per class of qsde_elim.errors and the exit code the cli
# docstring gives it; the CLI's own file errors derive from QsdeElimError alone
ERROR_CLASS_INPUTS = {
    "QsdeElimError": ({"schema_version": 1}, ["check"], 1),
    "InvalidArgument": (two_level_doc(), ["converge", "--ks", "1e160"], 1),
    "ResourceLimit": (two_level_doc(), ["converge", "--steps", str(10**15)], 1),
    # nilpotent Y: its restriction to the complement of its kernel is 0
    "SingularRestriction": (
        explicit_two_level(Y=[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], B=[[0.0, 0.0]] * 4),
        ["eliminate"],
        2,
    ),
    "NumericalFailure": (LIMIT_OVERFLOW, ["eliminate"], 3),
    # B = diag(1, 0) is not dissipative: T_t(P0) = e^{2t} P0 and the squared
    # distance 2 - 2e^{2t} falls far below zero
    "ClampExceeded": (
        explicit_two_level(
            Y=[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
            B=[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        ),
        ["converge", "--ks", "5"],
        3,
    ),
}


class RaisedRecorder(io.StringIO):
    """A stderr that keeps, with each write, the exception being handled."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append((text, sys.exc_info()[1]))
        return super().write(text)


def test_each_error_class_ends_in_its_documented_exit_code(tmp_path, monkeypatch):
    defined = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    assert defined == set(ERROR_CLASS_INPUTS)
    for name, (model, argv, exit_code) in ERROR_CLASS_INPUTS.items():
        stderr = RaisedRecorder()
        monkeypatch.setattr(sys, "stderr", stderr)
        code = main(argv + ["--model", write_json(tmp_path / f"{name}.json", model)])
        raised = [exc for text, exc in stderr.writes if text.startswith("error: ")]
        assert len(raised) == 1, name
        # the most specific class of the module that the exception is an instance of
        nearest = next(c for c in type(raised[0]).__mro__ if c.__module__ == errors.__name__)
        assert (nearest.__name__, code) == (name, exit_code)


# 1x1, Y = -1/2: Y has a trivial kernel, so the ground space is empty
EMPTY_GROUND = {
    "schema_version": 1,
    "explicit": {
        "dim": 1, "channels": 1, "Y": [[-0.5, 0]], "A": [[0, 0]], "B": [[0, 0]],
        "F": [[[1, 0]]], "G": [[[0, 0]]], "W": [[[[1, 0]]]],
    },
}


def test_converge_on_an_empty_ground_space_names_it(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", EMPTY_GROUND)
    for command in ("check", "eliminate", "kurtz"):
        assert run(capsys, [command, "--model", path])[0] == 0, command
    code, out, err = run(capsys, ["converge", "--model", path])
    assert (code, out) == (1, "")
    assert err == "error: the ground space is empty (Y has a trivial kernel)\n"


def readme_builtins():
    """Name -> parameters in the README table of builtins."""
    text = README.read_text()
    table = text[text.index("| name "):].split("\n\n")[0].splitlines()[2:]
    cells = [line.split("|")[1:3] for line in table]
    names = r"`(\w+)`"
    return {re.findall(names, name)[0]: set(re.findall(names, params)) for name, params in cells}


def test_readme_builtin_table_matches_the_builtins():
    builtins = {name: set(readers) for name, (_, readers, _) in cli.BUILTINS.items()}
    assert readme_builtins() == builtins


def test_a_builtin_parameter_is_optional_where_its_builder_has_a_default():
    for name, (build, readers, optional) in cli.BUILTINS.items():
        signature = inspect.signature(build).parameters
        for key in readers:
            # a key the signature does not name goes on to the catalog's default
            has_default = key not in signature or (
                signature[key].default is not inspect.Parameter.empty
            )
            assert has_default == (key in optional), (name, key)


def test_readme_library_quick_start_runs():
    # the "Quick start (library)" block of README, run as written
    text = README.read_text()
    start = text.index("```python\n", text.index("## Quick start (library)")) + len("```python\n")
    code = text[start:text.index("```", start)]
    src = str(Path(qsde_elim.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == [
        "k=     5  max distance on the grid = 0.139398",
        "k=    20  max distance on the grid = 0.033142",
        "k=   100  max distance on the grid = 0.006633",
    ]
