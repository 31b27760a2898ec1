"""CLI surface: commands, flags, exit codes, JSON mode, env override."""

from __future__ import annotations

import json
import shutil

import pytest

from wanas.cli import main
from wanas.catalog import default_catalog_path


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
    code, _, err = run(capsys, *argv)
    assert code == 2
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
