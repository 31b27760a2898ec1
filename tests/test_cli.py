"""CLI surface: commands, flags, exit codes, JSON mode, env override."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import sys
from fractions import Fraction

import pytest

from wanas.algebra import json_text
from wanas.cli import main
from wanas.catalog import ALL_GROUPS, compute_checksum, default_catalog_path
from wanas.poly import MAX_DEGREE, format_rational, parse_rational
from wanas.soliton import SolitonKind, soliton_decide, wan_for_kind
from wanas.verify import MISMATCH, PaperReport, default_grid, verify_paper


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- tensors ---------------------------------------------------------------------


def test_tensors_g7_connection(capsys):
    code, out, _ = run(capsys, "tensors", "--group", "g7", "--tensor", "connection")
    assert code == 0
    assert "nabla0[e1]e1 = alpha*e2" in out


def test_tensors_g3_wan_expanded(capsys):
    code, out, _ = run(capsys, "tensors", "--group", "g3", "--tensor", "wan", "--json")
    assert code == 0
    data = json.loads(out)
    # diagonal Wan entries expanded to the base variables
    assert data["matrix"][0][0] == "1/2*alpha*gamma - 3/2*beta*gamma - 1/2*gamma^2"
    assert data["matrix"][2][2] == "1/2*alpha^2 - alpha*beta + 1/2*beta^2 - 1/2*gamma^2"
    assert data["matrix"][0][1] == "0"


def test_tensors_torsion_at_point(capsys):
    code, out, _ = run(
        capsys, "tensors", "--group", "g1", "--tensor", "torsion", "--at", "alpha=1,beta=0"
    )
    assert code == 0
    assert "T(e1,e3) = e1" in out


# SHA-256 of stdout for tables that R does not enter
_NO_CURVATURE_SHA256 = {
    ("--group", "g1", "--tensor", "torsion"): "4e5f0dceba4062eeed26b1e063170d87b4db0d8fc0342c2fc86604253aff95c1",
    ("--group", "g4", "--tensor", "torsion", "--json"): "64ca61dd18a5b0278c8f7424d590ee798381516e1333f7b412f7003bc09ae53a",
    ("--group", "g1", "--tensor", "wan"): "1bd1c0805883238ccbd8d330161d529f07e8f97fb9669c5f17e9324eb66888be",
    ("--group", "g6", "--tensor", "wan", "--json"): "99246065cab3ac7933a0da0ffc08bdf1df08ce6b84246ff660ae3b422d117861",
}


def test_tensors_reads_only_the_printed_table(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the curvature table was built")

    monkeypatch.setattr("wanas.geometry.curvature", refuse)
    for argv, digest in _NO_CURVATURE_SHA256.items():
        code, out, _ = run(capsys, "tensors", *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_tensors_levi_civita_kind(capsys):
    code, out, _ = run(
        capsys,
        "tensors",
        "--group",
        "g2",
        "--tensor",
        "torsion",
        "--connection-kind",
        "levi-civita",
    )
    assert code == 0
    assert out.count("= 0") == 3  # Levi-Civita is torsion-free


def test_tensors_levi_civita_table_and_label(capsys):
    code, out, _ = run(capsys, "tensors", "--group", "g1", "--tensor", "levi-civita")
    assert code == 0
    assert "nabla[e1]e1 = -alpha*e2 - alpha*e3" in out
    # the connection table under the Levi-Civita base keeps the plain label
    code, out, _ = run(
        capsys,
        "tensors",
        "--group",
        "g1",
        "--tensor",
        "connection",
        "--connection-kind",
        "levi-civita",
    )
    assert code == 0
    assert "nabla[e1]e1 = -alpha*e2 - alpha*e3" in out
    assert "nabla0" not in out


def test_tensors_trilinear_tables(capsys):
    code, out, _ = run(capsys, "tensors", "--group", "g3", "--tensor", "a-tensor")
    assert code == 0
    assert "A(e1,e3)e3" in out
    code, out, _ = run(capsys, "tensors", "--group", "g5", "--tensor", "curvature", "--json")
    assert code == 0
    data = json.loads(out)
    assert "R(e1,e2)e1" in data["entries"]
    code, out, _ = run(capsys, "tensors", "--group", "g1", "--tensor", "wanas")
    assert code == 0
    assert "W(e1,e2)e1" in out


def test_tensors_invalid_point_exits_2(capsys):
    code, _, err = run(
        capsys, "tensors", "--group", "g2", "--tensor", "wan", "--at", "alpha=0,beta=0,gamma=0"
    )
    assert code == 2
    assert "gamma" in err


def test_tensors_decimal_point_rejected(capsys):
    code, _, err = run(
        capsys, "tensors", "--group", "g1", "--tensor", "wan", "--at", "alpha=0.5,beta=1"
    )
    assert code == 2
    assert "invalid" in err


def test_tensors_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tensors", "--group", "g1", "--tensor", "wan", "--frobnicate"])
    assert exc.value.code == 2


def test_tensors_unknown_tensor_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["tensors", "--group", "g1", "--tensor", "nonsense"])
    assert exc.value.code == 2


def test_tensors_requires_group_or_spec_file(capsys):
    code, _, err = run(capsys, "tensors", "--tensor", "wan")
    assert code == 2
    assert "--group" in err


# -- check ------------------------------------------------------------------------


def test_check_g2_first_kind(capsys):
    code, out, _ = run(
        capsys, "check", "--group", "g2", "--kind", "first", "--at", "alpha=0,beta=0,gamma=1"
    )
    assert code == 0
    assert "soliton with c = -2" in out


def test_check_g1_second_kind_no_soliton(capsys):
    code, out, _ = run(
        capsys, "check", "--group", "g1", "--kind", "second", "--at", "alpha=1,beta=2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["outcome"] == "no_soliton"
    assert len(data["verdict"]["witness"]) == 2


def test_check_g5_second_kind(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--group",
        "g5",
        "--kind",
        "second",
        "--at",
        "alpha=1,beta=0,gamma=0,delta=1",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["outcome"] == "soliton"
    assert data["verdict"]["c"] == "2"
    assert data["verdict"]["D"][0][0] == "-2"


def test_check_abelian_any_c(capsys):
    code, out, _ = run(
        capsys, "check", "--group", "g3", "--kind", "first", "--at", "alpha=0,beta=0,gamma=0", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["outcome"] == "any_c"
    assert data["verdict"]["D"][0][0] == "-c"


def test_check_invalid_point_exits_2(capsys):
    code, _, err = run(
        capsys, "check", "--group", "g5", "--kind", "first", "--at", "alpha=1,beta=1,gamma=1,delta=1"
    )
    assert code == 2
    assert "alpha*gamma + beta*delta" in err


def test_check_incomplete_point_exits_2(capsys):
    code, _, err = run(capsys, "check", "--group", "g5", "--kind", "first", "--at", "alpha=1")
    assert code == 2
    assert "beta" in err


def test_check_extraneous_parameter_exits_2(capsys):
    code, _, err = run(
        capsys, "check", "--group", "g1", "--kind", "first", "--at", "alpha=1,beta=0,gamma=1"
    )
    assert code == 2
    assert "gamma" in err


# -- answers past CPython's int/str digit limit (4300 digits by default) -------------

_SEVENS_1450 = "7" * 1450


@pytest.fixture
def digit_limit():
    """The interpreter's int/str digit limit, which ``main`` must leave as it was."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    return sys.get_int_max_str_digits()


def _parse_unlimited(text):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return parse_rational(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_check_and_tensors_print_exact_answers_of_any_size(capsys, catalog, digit_limit):
    """A residual constant or Wan entry of more digits than the limit is
    printed, and exactly: the witness constants parse back to soliton_decide's."""
    at = f"alpha=1,beta={_SEVENS_1450},gamma=1"
    code, out, _ = run(capsys, "check", "--group", "g2", "--kind", "first", "--at", at)
    assert code == 0
    assert out.startswith("g2 (first kind): no soliton (residual(e1,e2)[e2]: ")
    code, out, _ = run(capsys, "check", "--group", "g2", "--kind", "first", "--at", at, "--json")
    assert code == 0
    numeric = catalog.get_group("g2").spec.evaluate({"alpha": 1, "beta": int(_SEVENS_1450), "gamma": 1})
    verdict = soliton_decide(numeric, SolitonKind.FIRST, wan_for_kind(numeric, SolitonKind.FIRST))
    printed = json.loads(out)["verdict"]["witness"]
    assert [(_parse_unlimited(eq["constant"]), _parse_unlimited(eq["slope"])) for eq in printed] == [
        (eq.constant, eq.slope) for eq in verdict.witness
    ]
    assert max(len(eq["constant"]) for eq in printed) > digit_limit
    at = "alpha=1,beta={},gamma=1".format("7" * 2500)
    code, out, _ = run(capsys, "tensors", "--group", "g2", "--tensor", "wan", "--at", at)
    assert code == 0
    assert out.startswith("wan operator")
    assert sys.get_int_max_str_digits() == digit_limit


def test_check_parses_a_point_of_any_size(capsys, digit_limit):
    """An --at value of 4,400 digits parses, and the printed c = -2*gamma^2
    parses back to the exact Fraction."""
    gamma = "7" * 4400
    code, out, _ = run(
        capsys, "check", "--group", "g2", "--kind", "first", "--at", f"alpha=0,beta=0,gamma={gamma}", "--json"
    )
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["outcome"] == "soliton"
    assert _parse_unlimited(verdict["c"]) == -2 * _parse_unlimited(gamma) ** 2
    assert sys.get_int_max_str_digits() == digit_limit


def test_main_restores_the_digit_limit(capsys, digit_limit):
    """``main`` leaves the interpreter's limit as it was, after a success
    and after a usage error."""
    assert run(capsys, "check", "--group", "g2", "--kind", "first", "--at", "alpha=0,beta=0,gamma=1")[0] == 0
    assert sys.get_int_max_str_digits() == digit_limit
    assert run(capsys, "check", "--group", "g2", "--kind", "first", "--at", "alpha=0,beta=0,gamma=0")[0] == 2
    assert sys.get_int_max_str_digits() == digit_limit


# -- classify ----------------------------------------------------------------------


def test_classify_small_ladder(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--group",
        "g2",
        "--kind",
        "first",
        "--grid-ladder=-1,1,2",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["disagree"] == 0
    assert data["points"] == data["agree"] > 0


def test_classify_g4_includes_both_eta_branches(capsys):
    code, out, _ = run(
        capsys, "classify", "--group", "g4", "--kind", "second", "--grid-ladder=-1,1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    # ladder {-1,1} with zeros: 3 alpha x 3 beta x 2 eta admissible points
    assert data["points"] == 18
    assert data["disagree"] == 0


def test_classify_empty_grid_exits_1(capsys):
    # alpha != 0 in g1, so a ladder of zeros leaves no admissible point
    code, out, _ = run(capsys, "classify", "--group", "g1", "--kind", "first", "--grid-ladder", "0")
    assert code == 1
    assert "0 grid points" in out


@pytest.mark.parametrize("command", (["classify", "--group", "g2", "--kind", "first"], ["verify-paper"]))
@pytest.mark.parametrize("flag", ("--min-points", "--max-points"))
@pytest.mark.parametrize("value", ("0", "-1"))
def test_vacuous_grid_bounds_exit_2(command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(command + [flag, value])
    assert exc.value.code == 2


def test_classify_says_when_the_grid_reached_max_points(capsys):
    """A capped grid is its first points in sorted order (for g7 at 50, all
    have alpha = -2 and gamma = 0): the text line says so; JSON is unchanged."""
    argv = ("classify", "--group", "g7", "--kind", "first")
    code, out, _ = run(capsys, *argv, "--max-points", "50")
    assert code == 0
    assert out == (
        "g7 first kind: 50 grid points (the first 50 in sorted order: --max-points reached), "
        "50 agree with the classification theorem\n"
    )
    code, out, _ = run(capsys, *argv, "--max-points", "50", "--json")
    assert code == 0 and json.loads(out)["points"] == 50 and "max-points" not in out
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "g7 first kind: 848 grid points, 848 agree with the classification theorem\n"


@pytest.mark.parametrize("command", ("classify", "verify-paper"))
def test_max_points_help_says_a_capped_grid_keeps_its_first_points(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "keeps its first points in sorted order" in " ".join(capsys.readouterr().out.split())


def test_classify_bad_ladder_exits_2(capsys):
    code, _, err = run(
        capsys, "classify", "--group", "g2", "--kind", "first", "--grid-ladder", "0.5,1"
    )
    assert code == 2
    assert "grid-ladder" in err


# -- verify-paper -------------------------------------------------------------------


def test_verify_paper_single_group(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-paper", "--group", "g4", "--out", str(out_path))
    assert code == 0
    assert "all checks passed" in out
    data = json.loads(out_path.read_text())
    assert data["summary"]["ok"] is True
    assert data["summary"]["mismatch"] == 0
    kinds = {(c["group"], c["kind"]) for c in data["classifications"]}
    assert kinds == {("g4", "first"), ("g4", "second")}


def test_verify_paper_reports_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "verify-paper", "--group", "g1", "--out", str(a))[0] == 0
    assert run(capsys, "verify-paper", "--group", "g1", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_paper_json_prints_the_bytes_it_writes(capsys, tmp_path, monkeypatch):
    # --out with --json serialises the report once and prints exactly the file's bytes
    calls = []
    to_json_dict = PaperReport.to_json_dict
    monkeypatch.setattr(PaperReport, "to_json_dict", lambda self: calls.append(1) or to_json_dict(self))
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-paper", "--group", "g2", "--out", str(out_path), "--json")
    assert code == 0
    assert out.encode() == out_path.read_bytes()
    assert len(calls) == 1


def test_verify_paper_repeated_group_reports_it_once(capsys, tmp_path):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert run(capsys, "verify-paper", "--group", "g1", "--out", str(once))[0] == 0
    code, out, _ = run(
        capsys, "verify-paper", "--group", "g1", "--group", "G1", "--out", str(twice)
    )
    assert code == 0
    assert out.startswith("groups verified: g1\n")
    assert twice.read_bytes() == once.read_bytes()


def test_verify_paper_empty_grid_exits_1(capsys):
    # alpha != 0 in g1, so a ladder of zeros leaves no admissible point
    code, out, _ = run(capsys, "verify-paper", "--group", "g1", "--grid-ladder", "0")
    assert code == 1
    assert "0 points, NOTHING CHECKED" in out
    assert "all agree" not in out
    assert "RESULT: FAILURES found" in out


def test_verify_paper_unknown_group_exits_2(capsys):
    code, _, err = run(capsys, "verify-paper", "--group", "g9")
    assert code == 2
    assert "unknown group" in err


# -- jacobi --------------------------------------------------------------------------


def test_jacobi_catalog_group(capsys):
    code, out, _ = run(capsys, "jacobi", "--group", "g6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert data["residual"] == ["0", "0", "0"]


def test_jacobi_spec_file_violating(capsys, tmp_path):
    bad = {
        "brackets": {
            "e1,e2": ["1", "0", "0"],
            "e1,e3": ["0", "1", "0"],
            "e2,e3": ["0", "0", "0"],
        },
        "signature": [1, 1, -1],
        "constraints": {"eq": [], "neq": []},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "jacobi", "--spec-file", str(path))
    assert code == 1
    assert "Jacobi identity holds" not in out


# -- spec-file escape hatch -------------------------------------------------------------


def test_spec_file_full_pipeline(capsys, tmp_path, catalog):
    path = tmp_path / "g1_copy.json"
    path.write_text(json.dumps(catalog.get_group("g1").spec.to_json_dict()))
    code, out, _ = run(
        capsys, "check", "--spec-file", str(path), "--kind", "first", "--at", "alpha=1,beta=1"
    )
    assert code == 0
    assert "no soliton" in out


def test_spec_file_and_group_are_exclusive(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    code, _, err = run(
        capsys, "tensors", "--group", "g1", "--spec-file", str(path), "--tensor", "wan"
    )
    assert code == 2
    assert "mutually exclusive" in err


NON_LIE = '{"brackets": {"e1,e2": ["1", "0", "0"], "e1,e3": ["0", "1", "0"]}}'
# a misspelt top-level key would drop the constraint alpha != 0
MISSPELT = '{"brackets": {"e1,e2": ["alpha", "0", "0"]}, "constraint": {"neq": ["alpha"]}}'
# c is the soliton scalar, not a group parameter
C_BRACKET = '{"brackets": {"e1,e2": ["c", "0", "0"]}}'


@pytest.mark.parametrize(
    "argv",
    (
        ["tensors", "--group", "g9", "--tensor", "wan"],
        ["check", "--group", "g9", "--kind", "first", "--at", "alpha=1"],
        ["classify", "--group", "g9", "--kind", "first"],
        ["jacobi", "--group", "g9"],
        ["jacobi", "--spec-file", "[1, 2]"],
        ["check", "--spec-file", '{"signature": [1, 1, -1]}', "--kind", "first", "--at", "alpha=1"],
        ["tensors", "--spec-file", '{"brackets": {"e1,e2": 5}}', "--tensor", "wan"],
        ["jacobi", "--spec-file", '{"brackets": {}, "constraints": []}'],
        # brackets that violate the Jacobi identity: not a Lie algebra
        ["check", "--spec-file", NON_LIE, "--kind", "first", "--at", ""],
        ["tensors", "--spec-file", NON_LIE, "--tensor", "wan"],
        # signature entries must be the integers 1 and -1, not a float or a bool
        ["tensors", "--spec-file", '{"brackets": {"e1,e2": ["alpha", "0", "0"]}, "signature": [1.0, 1, -1]}', "--tensor", "wan"],
        ["check", "--spec-file", '{"brackets": {"e1,e2": ["alpha", "0", "0"]}, "signature": [true, 1, -1]}', "--kind", "first", "--at", "alpha=1"],
        # an unknown bracket or constraint key is refused, not dropped
        ["check", "--spec-file", '{"brackets": {"e2,e1": ["1", "0", "0"], "e1,e2": ["0", "0", "1"]}}', "--kind", "first", "--at", ""],
        ["check", "--spec-file", '{"brackets": {"e1,e2": ["alpha", "0", "0"]}, "constraints": {"ne": ["alpha"]}}', "--kind", "first", "--at", "alpha=1"],
        # an unknown top-level key, or the soliton scalar c in a bracket, is refused
        ["check", "--spec-file", MISSPELT, "--kind", "first", "--at", "alpha=0"],
        ["tensors", "--spec-file", MISSPELT, "--tensor", "wan"],
        ["jacobi", "--spec-file", MISSPELT],
        ["check", "--spec-file", C_BRACKET, "--kind", "first", "--at", ""],
        ["tensors", "--spec-file", C_BRACKET, "--tensor", "wan"],
        ["jacobi", "--spec-file", C_BRACKET],
    ),
)
def test_bad_group_or_spec_file_exits_2(capsys, tmp_path, argv):
    """An unknown group or a structurally bad spec document (given inline
    here and written to a file) is one error line and exit 2, no traceback."""
    argv = list(argv)
    if "--spec-file" in argv:
        k = argv.index("--spec-file") + 1
        path = tmp_path / "spec.json"
        path.write_text(argv[k])
        argv[k] = str(path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# a bracket whose own degree passes the bound, and one whose tensor products pass it
PAST_BOUND = '{"brackets": {"e1,e2": ["alpha^%d", "0", "0"]}}' % (MAX_DEGREE + 1)
PRODUCTS_PAST_BOUND = '{"brackets": {"e1,e2": ["alpha^40000*beta", "0", "0"]}}'


@pytest.mark.parametrize("tensor", ("connection", "curvature", "wan"))
@pytest.mark.parametrize("spec", (PAST_BOUND, PRODUCTS_PAST_BOUND), ids=("bracket", "products"))
def test_tensors_refuse_a_degree_past_the_bound(capsys, tmp_path, spec, tensor):
    assert 40001 <= MAX_DEGREE < 2 * 40001
    path = tmp_path / "spec.json"
    path.write_text(spec)
    code, out, err = run(capsys, "tensors", "--spec-file", str(path), "--tensor", tensor)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(MAX_DEGREE) in err


# -- catalog override -------------------------------------------------------------------


def test_catalog_env_override(capsys, tmp_path, monkeypatch):
    copied = tmp_path / "catalog.json"
    shutil.copyfile(default_catalog_path(), copied)
    monkeypatch.setenv("WANAS_CATALOG", str(copied))
    code, out, _ = run(capsys, "jacobi", "--group", "g1")
    assert code == 0
    assert "Jacobi identity holds" in out


def test_corrupt_catalog_env_exits_2(capsys, tmp_path, monkeypatch):
    data = json.loads(open(default_catalog_path()).read())
    data["groups"]["g1"]["claimed"]["wan"][0][0] = "0"
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps(data))
    monkeypatch.setenv("WANAS_CATALOG", str(bad))
    code, _, err = run(capsys, "check", "--group", "g1", "--kind", "first", "--at", "alpha=1,beta=0")
    assert code == 2
    assert "checksum" in err


def test_catalog_with_a_wrong_claim_off_the_variety_exits_1(capsys, tmp_path, monkeypatch):
    """g7's Wan(1,1) claimed off by gamma, which vanishes at the first sorted
    grid points but not on alpha*gamma = 0, is a mismatch under a valid
    checksum."""
    data = json.loads(open(default_catalog_path()).read())
    wan = data["groups"]["g7"]["claimed"]["wan"]
    wan[0][0] = f"({wan[0][0]}) + gamma"
    data["checksum"] = compute_checksum(data["groups"])
    bad = tmp_path / "bad_g7.json"
    bad.write_text(json.dumps(data))
    monkeypatch.setenv("WANAS_CATALOG", str(bad))
    code, out, _ = run(capsys, "verify-paper", "--group", "g7")
    assert code == 1
    assert "table entries: 100 match, 0 match on variety, 1 mismatch" in out
    assert [line.split(":")[0].strip() for line in out.splitlines() if "MISMATCH" in line] == ["MISMATCH g7 wan (1, 1)"]


@pytest.mark.parametrize("equation", ["1-eta^2", "2*eta^2-2"])
def test_a_rescaled_sign_equation_verifies_as_the_shipped_one(capsys, tmp_path, monkeypatch, equation):
    """g4's defining equation eta^2 - 1 = 0 written as another nonzero
    rational multiple has the same variety: under a valid checksum,
    verify-paper --group g4 prints exactly what the shipped catalog gives."""
    code, shipped, _ = run(capsys, "verify-paper", "--group", "g4")
    assert code == 0 and "table entries: 103 match, 0 match on variety, 0 mismatch" in shipped
    assert shipped.count("kind: 200 points, all agree") == 2
    data = json.loads(open(default_catalog_path()).read())
    data["groups"]["g4"]["constraints"]["eq"] = [equation]
    data["checksum"] = compute_checksum(data["groups"])
    rescaled = tmp_path / "catalog.json"
    rescaled.write_text(json.dumps(data))
    monkeypatch.setenv("WANAS_CATALOG", str(rescaled))
    assert run(capsys, "verify-paper", "--group", "g4") == (0, shipped, "")


# -- golden outputs ------------------------------------------------------------------

_TENSORS = (
    "connection", "levi-civita", "torsion", "curvature", "a-tensor", "wanas",
    "abar", "ric", "wan", "wan-tilde",
)
_AT_POINTS = (
    ("g4", "alpha=-1/2,beta=1,eta=-1"),
    ("g5", "alpha=-1/2,beta=1,gamma=-1/2,delta=-1/4"),
    ("g7", "alpha=0,beta=-1/2,gamma=-2,delta=-1/2"),
)

# SHA-256 over every invocation's argv, exit code and stdout, in order
GOLDEN_CLI_SHA256 = {
    "g1": "2c43fdf7ddeb96e3b8303b990049c32342b0c0a3bf0c75e17943c742a15962c3",
    "g2": "1a0acff038d4b5a09b82d971ad7be32f279875c06f0f03989f5642d75554fdb2",
    "g3": "63cb1ed69f14f496c15c9a1882d75a4e855da1adbc27cd4834ab44f7b78b6a50",
    "g4": "9f60b73f18c4f39578f65f6ba487e9db5a9f8fd46279d740f034d24e26f74433",
    "g5": "651ca76f8e70e1593fdc994ce2bdfdc9fa9c80b9140b82a4a3340556f2b25a9d",
    "g6": "91b8712f13773a9a454814555099cd35f31cc9bd67af2901a61e8b4a5a3aece0",
    "g7": "a69f7f50098d23385d98d116267436ae73c71e8171e947e7c7ffa979ce3ab019",
    "at": "81e30b727bf18d768e801c5ea649cb5be427c73d4ce8a01e2dbc50fecd538b93",
    "classify": "ca61c9e0e8a0654acab84bddf221e212fe270d5b1fd7e9079519527d43d273ac",
    "check": "aee7d6b921734151ec4abe7b54aa3ef637deb6be58995c3524a5e75ce980d8af",
}


def _digest(capsys, invocations) -> str:
    h = hashlib.sha256()
    for argv in invocations:
        code, out, _ = run(capsys, *argv)
        h.update(f"{' '.join(argv)}\n{code}\n{out}\n".encode())
    return h.hexdigest()


def _tensor_runs(group, at=()):
    return [
        ("tensors", "--group", group, "--tensor", tensor, "--connection-kind", kind, *at, *fmt)
        for tensor in _TENSORS
        for kind in ("canonical", "levi-civita")
        for fmt in ((), ("--json",))
    ]


def _check_runs(catalog, height_points):
    """`check` at every seeded height point, every 8th point of a small
    default grid (zeros) and the origin where it is admissible (abelian),
    each group, kind and format."""
    runs = []
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        spec = entry.spec
        _, grid = default_grid(entry, min_points=40)
        points = [*height_points[gid], *grid[::8]]
        origin = {v: 0 for v in spec.variables()}
        if not spec.validate_assignment(origin):
            points.append(origin)
        for sigma in points:
            at = ",".join(f"{v}={format_rational(x)}" for v, x in sorted(sigma.items()))
            runs.extend(
                ("check", "--group", gid, "--kind", kind, "--at", at, *fmt)
                for kind in ("first", "second")
                for fmt in ((), ("--json",))
            )
    return runs


def test_golden_cli_outputs(capsys, monkeypatch, catalog, height_points):
    """Every `tensors` table (each group, tensor, connection kind and format,
    symbolic and at three points), every `classify` output and `check` at
    seeded admissible points of every group, byte for byte.  Each `--json`
    payload is written by ``json_text`` as ``json.dumps(payload, indent=2,
    sort_keys=True)`` writes it."""
    written = []

    def checked(payload):
        written.append(json_text(payload))
        assert written[-1] == json.dumps(payload, indent=2, sort_keys=True)
        return written[-1]

    monkeypatch.setattr("wanas.cli.load_catalog", lambda: catalog)
    monkeypatch.setattr("wanas.cli.json_text", checked)
    runs = {gid: _tensor_runs(gid) for gid in ALL_GROUPS}
    runs["at"] = [argv for gid, at in _AT_POINTS for argv in _tensor_runs(gid, ("--at", at))]
    runs["classify"] = [
        ("classify", "--group", gid, "--kind", kind, "--min-points", "40", *fmt)
        for gid in ALL_GROUPS
        for kind in ("first", "second")
        for fmt in ((), ("--json",))
    ]
    runs["check"] = _check_runs(catalog, height_points)
    assert {key: _digest(capsys, argvs) for key, argvs in runs.items()} == GOLDEN_CLI_SHA256
    assert len(written) == sum("--json" in argv for argvs in runs.values() for argv in argvs) > 500


# The `tensors` and `check` pins of the installed-package block of
# .github/workflows/tests.yml, which runs them against the installed `wanas`:
# argv after the command, and the SHA-256 of stdout or its one line.
_CI_TENSORS_SHA256 = {
    ("--group", "g4", "--tensor", "curvature"): "b74ed483108f4347bb3bbeb2ce2c5b6e81464a2fe88af41dacda3abcba09ddbf",
    ("--group", "g6", "--tensor", "levi-civita", "--json"): "6e4e6b11a904ff429d334b6989b40d4b3dc3c7809edf197c66af09af03e1912c",
    ("--group", "g5", "--tensor", "a-tensor", "--json"): "f8474a749c7ac441656493a44931fb1219f07c7bcd754fb4c34f42da2c102686",
    ("--group", "g7", "--tensor", "wanas"): "9b40092b22cd67db604a874d5e89d9ef86317bd61280bedeeb6e17585e722ce2",
    ("--group", "g3", "--tensor", "levi-civita"): "cb6971eb520b6f15fa329dd5437a8cc423ff45f59a3d94f456627a5403495816",
    ("--group", "g6", "--connection-kind", "levi-civita", "--tensor", "wan-tilde", "--json"):
        "801da188c6e74a0f6e0a68bf262709d53c94b920a3c44a350a322161f36fc063",
    ("--group", "g7", "--connection-kind", "levi-civita", "--tensor", "ric"):
        "59f0e81d4f63b5c29548ada373e4cbbec0d6846f83a690434fb821109c632201",
    ("--group", "g6", "--connection-kind", "levi-civita", "--tensor", "curvature", "--json"):
        "2a5fadbfda057b2b2f44910f7d7247257b2a7598cdd64e6b5f02dd655f4ad8a0",
}
_CI_CHECK_LINES = {
    ("--group", "g2", "--kind", "first", "--at", "alpha=0,beta=0,gamma=1"):
        "g2 (first kind): soliton with c = -2, D rows (0, 0, 0); (0, 1, 0); (0, 0, 2)",
    ("--group", "g1", "--kind", "second", "--at", "alpha=1,beta=2"):
        "g1 (second kind): no soliton (residual(e1,e2)[e1]: 17/2 + c = 0, residual(e1,e2)[e3]: -29 - 2*c = 0)",
    ("--group", "g3", "--kind", "first", "--at", "alpha=0,beta=0,gamma=0"):
        "g3 (first kind): soliton for every c, D(c) rows (-c, 0, 0); (0, -c, 0); (0, 0, -c)",
    ("--group", "g6", "--kind", "first", "--at", "alpha=-153/190,beta=-153/190,delta=249/329,gamma=249/329"):
        "g6 (first kind): no soliton (residual(e1,e2)[e2]: -269534141593569/488515662502000 - 153/190*c = 0, "
        "residual(e1,e2)[e3]: -56974769788059/97703132500400 - 153/190*c = 0)",
}
# residual constants of ~4,350 digits, past CPython's int/str limit
_CI_DIGITS_ARGV = ("--group", "g2", "--kind", "first", "--at", f"alpha=1,beta={'7' * 1450},gamma=1")
_CI_DIGITS_SHA256 = "3d81e04a6af7c9d27972f2062ff907d1ebf41644a95939d03e2cbf8f303de781"


def test_installed_package_pins_of_tensors_and_check(capsys, monkeypatch, tmp_path, catalog):
    """Every `tensors` and `check` pin of the workflow's installed-package
    block, through `main` in process, so that a local run catches a pin the
    code no longer meets: each exits 0 with nothing on stderr."""

    def stdout(*argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        return out

    for argv, digest in _CI_TENSORS_SHA256.items():
        assert hashlib.sha256(stdout("tensors", *argv).encode()).hexdigest() == digest, argv
    for argv, line in _CI_CHECK_LINES.items():
        assert stdout("check", *argv) == line + "\n", argv
    assert hashlib.sha256(stdout("check", *_CI_DIGITS_ARGV).encode()).hexdigest() == _CI_DIGITS_SHA256
    # a spec file of g2's brackets decides as the catalog group, and reads no catalog
    spec_file = tmp_path / "g2.json"
    spec_file.write_text(json.dumps(catalog.groups["g2"].spec.to_json_dict()))
    argv = ("check", "--spec-file", str(spec_file), "--kind", "first", "--at", "alpha=0,beta=0,gamma=1")
    expected = "spec-file (first kind): soliton with c = -2, D rows (0, 0, 0); (0, 1, 0); (0, 0, 2)\n"
    assert stdout(*argv) == expected
    monkeypatch.setenv("WANAS_CATALOG", str(tmp_path / "missing.json"))
    assert stdout(*argv) == expected
    stdout("jacobi", "--spec-file", str(spec_file))


# The `classify` pins of the same block: argv after the command, and the line
# that opens stdout.
_CI_CLASSIFY_LINES = {
    **{
        ("--group", gid, "--kind", kind, "--min-points", least): f"{gid} {kind} kind: {n} grid points, {n} agree with the classification theorem"
        for gid, kind, least, n in (("g7", "first", "1000", 1224), ("g3", "first", "513", 729), ("g4", "second", "250", 288))
    },
    ("--group", "g1", "--kind", "second", "--min-points", "300", "--max-points", "100"):
        "g1 second kind: 100 grid points (the first 100 in sorted order: --max-points reached), 100 agree with the classification theorem",
    **{
        ("--group", gid, "--kind", kind, "--grid-ladder=-999/1000,-2/3,5/7,1000/999", "--min-points", "1"):
            f"{gid} {kind} kind: {n} grid points, {n} agree with the classification theorem"
        for gid, kind, n in (("g5", "first", 104), ("g6", "first", 120), ("g7", "second", 200), ("g4", "second", 50))
    },
}


def _wrong_g6_solution_row(group: dict) -> None:
    """g6 case ii's D[0][0] + 1, in both kinds."""
    for kind in ("first", "second"):
        (case,) = [c for c in group["theorems"][kind]["cases"] if c["name"] == "ii"]
        case["d"][0][0] = f"({case['d'][0][0]}) + 1"


def test_installed_package_pins_of_classify(capsys, monkeypatch, tmp_path):
    """Every `classify` pin of the workflow's installed-package block, and
    its planted g6 catalog, through `main` in process: the default ladder
    extended to --min-points, the capped g1 grid, the large-fraction
    ladder, and a wrong solution row that disagrees where its case holds
    (exit 1 from `verify-paper` and `classify`)."""
    from test_cli_contract import _catalog

    for argv, line in _CI_CLASSIFY_LINES.items():
        assert run(capsys, "classify", *argv) == (0, line + "\n", ""), argv
    planted = tmp_path / "bad_g6.json"
    planted.write_text(_catalog(_wrong_g6_solution_row, "g6"))
    monkeypatch.setenv("WANAS_CATALOG", str(planted))
    code, out, err = run(capsys, "verify-paper", "--group", "g6")
    assert (code, err) == (1, "")
    for kind in ("first", "second"):
        assert f"classification g6 {kind} kind: 456 points, 50 DISAGREE" in out.splitlines()
    code, out, err = run(capsys, "classify", "--group", "g6", "--kind", "first")
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == "g6 first kind: 456 grid points, 406 agree with the classification theorem"


def _planted_catalog(catalog):
    """The catalog with four wrong theorem claims: g1 first kind a soliton
    with c = 0 and D = 0 everywhere; g2 first kind's case i with c + 1/7 and
    its second kind no_soliton; g3 first kind (so also its same_as_first
    second kind) no_soliton, which its abelian origin contradicts."""
    from wanas.catalog import TheoremCase, TheoremClaim
    from wanas.poly import Poly

    first, second = SolitonKind.FIRST, SolitonKind.SECOND
    zero = tuple(tuple(Poly.zero() for _ in range(3)) for _ in range(3))
    everywhere = TheoremCase("planted", (), (), (), False, Poly.zero(), zero, (), False)
    g2_first = catalog.theorem_claim("g2", first)
    (case_i,) = g2_first.cases
    planted = {
        "g1": {first: TheoremClaim("g1", first, "cases", (everywhere,))},
        "g2": {
            first: dataclasses.replace(g2_first, cases=(dataclasses.replace(case_i, c=case_i.c + Fraction(1, 7)),)),
            second: TheoremClaim("g2", second, "no_soliton"),
        },
        "g3": {first: TheoremClaim("g3", first, "no_soliton")},
    }
    groups = dict(catalog.groups)
    for gid, claims in planted.items():
        groups[gid] = dataclasses.replace(groups[gid], theorems={**groups[gid].theorems, **claims})
    return dataclasses.replace(catalog, groups=groups)


GOLDEN_PLANTED_SHA256 = "7700e62aadcb33fdae195c75dd8d35d5d1556709de9f235c98ee15df41c11148"


def test_golden_planted_disagreement_outputs(capsys, monkeypatch, catalog):
    """`classify` (text and JSON) and `verify-paper --json` on planted wrong
    claims print every disagreement's two verdicts (soliton c and D,
    no_soliton witnesses, the any_c family) byte for byte, and exit 1."""
    planted = _planted_catalog(catalog)
    monkeypatch.setattr("wanas.cli.load_catalog", lambda: planted)
    invocations = [
        ("classify", "--group", gid, "--kind", kind, "--min-points", "40", *fmt)
        for gid, kind in (("g1", "first"), ("g2", "first"), ("g2", "second"), ("g3", "first"))
        for fmt in ((), ("--json",))
    ]
    invocations.append(("verify-paper", "--group", "g1", "--group", "g2", "--group", "g3", "--json"))
    codes = []
    h = hashlib.sha256()
    for argv in invocations:
        code, out, _ = run(capsys, *argv)
        codes.append(code)
        h.update(f"{' '.join(argv)}\n{code}\n{out}\n".encode())
    assert codes == [1] * len(invocations)
    assert h.hexdigest() == GOLDEN_PLANTED_SHA256


# -- the JSON writer -------------------------------------------------------------------


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def test_json_text_equals_json_dumps_on_reports(catalog):
    """The shipped report, and one with planted disagreements (every
    verdict type) and planted table mismatches whose texts hold quotes,
    backslashes, control characters and non-ASCII text."""
    shipped = verify_paper(catalog).to_json_dict()
    assert json_text(shipped) == _dumps(shipped)
    planted = verify_paper(_planted_catalog(catalog), groups=("g1", "g2", "g3"))
    assert planted.disagreement_count > 0
    texts = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "é ∂ 😀", "\ud800"]
    items = tuple(
        item._replace(verdict=MISMATCH, claimed=texts[k % len(texts)], certificate=texts[(k + 1) % len(texts)])
        if k % 50 == 0 else item
        for k, item in enumerate(planted.items)
    )
    report = dataclasses.replace(planted, items=items).to_json_dict()
    assert report["summary"]["mismatch"] > 0
    assert json_text(report) == _dumps(report)
    assert dataclasses.replace(planted, items=items).to_json() == _dumps(report) + "\n"


def _document(rng, depth: int = 0):
    """A seeded JSON document of the types ``json_text`` writes."""
    strings = ["", "a", 'q"uote', "back\\slash", "\x00\x07\x1f\x7f", "line\nbreak\r\t", "é", "∂x", "😀", "\ud83d", "/", " "]
    pick = rng.randrange(10 if depth < 4 else 6)
    if pick == 0:
        return "".join(rng.choice(strings) for _ in range(rng.randrange(4)))
    if pick == 1:
        return rng.choice([True, False, None])
    if pick == 2:
        return rng.choice([0, -1, 1, 2**64, -(10**30)])
    if pick == 3:
        return rng.choice([1, -1]) * int("7" * rng.choice([1, 100, 4000]))
    if pick in (4, 5):
        return rng.choice(strings)
    children = [_document(rng, depth + 1) for _ in range(rng.choice([0, 1, 3]))]
    if pick == 6:
        return children
    if pick == 7:
        return tuple(children)
    return {rng.choice(strings) + str(k): child for k, child in enumerate(children)}


def test_json_text_equals_json_dumps_on_seeded_documents():
    """600 seeded documents: nested and empty containers, tuples, strings
    with quotes, backslashes, control and non-ASCII characters, booleans,
    None and ints up to 4,000 digits; a float or a set is refused."""
    rng = random.Random(31)
    documents = [_document(rng) for _ in range(600)]
    assert any(isinstance(d, dict) and d for d in documents) and any(d == [] or d == {} for d in documents)
    for document in documents:
        assert json_text(document) == _dumps(document)
    for bad in (1.5, {"a": [2.0]}, {1, 2}, [frozenset()], {1: "a"}):
        with pytest.raises(TypeError):
            json_text(bad)
