"""CLI surface: commands, flags, exit codes, JSON mode, env override."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
from fractions import Fraction

import pytest

from wanas.cli import main
from wanas.catalog import ALL_GROUPS, compute_checksum, default_catalog_path
from wanas.poly import format_rational, parse_rational
from wanas.soliton import SolitonKind, soliton_decide, wan_for_kind
from wanas.verify import PaperReport, default_grid


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
    seeded admissible points of every group, byte for byte."""
    monkeypatch.setattr("wanas.cli.load_catalog", lambda: catalog)
    digests = {gid: _digest(capsys, _tensor_runs(gid)) for gid in ALL_GROUPS}
    digests["at"] = _digest(
        capsys, [argv for gid, at in _AT_POINTS for argv in _tensor_runs(gid, ("--at", at))]
    )
    digests["classify"] = _digest(
        capsys,
        [
            ("classify", "--group", gid, "--kind", kind, "--min-points", "40", *fmt)
            for gid in ALL_GROUPS
            for kind in ("first", "second")
            for fmt in ((), ("--json",))
        ],
    )
    digests["check"] = _digest(capsys, _check_runs(catalog, height_points))
    assert digests == GOLDEN_CLI_SHA256


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


GOLDEN_PLANTED_SHA256 = "c7d104b5aca9ef87fc0663e6400e19b499eb6452f29f61fa8270ae226c830a52"


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
