"""The exit-code contract on inputs outside the documented grammar: each
runs through ``cli.main`` in-process, exits 0, 1 or 2 with no exception
escaping, and an exit 2 prints exactly one ``error:`` line and nothing on
stdout.  An argparse refusal is its ``SystemExit`` code."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from wanas import cli
from wanas.catalog import ALL_GROUPS, compute_checksum, default_catalog_path
from wanas.poly import MAX_DEGREE

DEEP_JSON = '{"brackets": ' + "[" * 100_000 + "]" * 100_000 + "}"


def _bracket(text: str) -> str:
    return json.dumps({"brackets": {"e1,e2": [text, "0", "0"]}})


def _catalog(edit) -> str:
    raw = json.loads(Path(default_catalog_path()).read_text(encoding="utf-8"))
    edit(raw["groups"]["g4"])
    raw["checksum"] = compute_checksum(raw["groups"])
    return json.dumps(raw)


def _misspell_systems(group: dict) -> None:
    group["soliton_sytems"] = group.pop("soliton_systems")


def _case_without_name(group: dict) -> None:
    group["theorems"]["first"]["cases"][0].pop("name")


def _misspelt_case_key(group: dict) -> None:
    group["theorems"]["first"]["cases"][0]["extra_eqq"] = ["alpha"]


def _arabic_indic_digit(group: dict) -> None:
    group["claimed"]["wan"][0][0] += " + 0^٣"


# a groups value that names every group but is a list, under its own checksum
_GROUPS_LIST = json.dumps({"checksum": compute_checksum(list(ALL_GROUPS)), "groups": list(ALL_GROUPS)})

G2 = ["check", "--group", "g2", "--kind", "first", "--at"]
TENSORS = ["tensors", "--spec-file", "{spec}", "--tensor"]
JACOBI = ["jacobi", "--spec-file", "{spec}"]

# (id, argv, spec-file text or None, catalog text or None, expected exit code)
CASES = [
    ("deep_json_spec", TENSORS + ["wan"], DEEP_JSON, None, 2),
    ("deep_parentheses", TENSORS + ["wan"], _bracket("(" * 5000 + "alpha" + ")" * 5000), None, 2),
    ("parentheses_at_the_bound", JACOBI, _bracket("(" * 100 + "alpha" + ")" * 100), None, 0),
    ("parentheses_past_the_bound", JACOBI, _bracket("(" * 101 + "alpha" + ")" * 101), None, 2),
    ("arabic_indic_exponent", JACOBI, _bracket("alpha^٣"), None, 2),
    ("superscript_exponent", JACOBI, _bracket("alpha^²"), None, 2),
    ("exponent_at_the_bound", JACOBI, _bracket(f"alpha^{MAX_DEGREE}"), None, 0),
    ("exponent_at_the_bound_at_a_point", TENSORS + ["wan", "--at", "alpha=2"], _bracket(f"alpha^{MAX_DEGREE}"), None, 0),
    ("exponent_past_the_bound", JACOBI, _bracket(f"alpha^{MAX_DEGREE + 1}"), None, 2),
    ("products_past_the_bound", TENSORS + ["connection"], _bracket(f"alpha^{MAX_DEGREE}"), None, 2),
    ("c_in_a_bracket", TENSORS + ["wan"], _bracket("c"), None, 2),
    ("arabic_indic_at", G2 + ["alpha=٣,beta=1,gamma=1"], None, None, 2),
    ("underscore_at", G2 + ["alpha=1_000,beta=1,gamma=1"], None, None, 2),
    ("zero_denominator_at", G2 + ["alpha=1/0,beta=1,gamma=1"], None, None, 2),
    ("unreduced_at", G2 + ["alpha=2/4,beta=1,gamma=1"], None, None, 0),
    ("arabic_indic_points", ["classify", "--group", "g1", "--kind", "first", "--min-points", "٣", "--max-points", "٤"], None, None, 2),
    ("catalog_without_unimodular", ["verify-paper", "--group", "g4"], None, _catalog(lambda g: g.pop("unimodular")), 2),
    ("catalog_misspelt_key", ["verify-paper", "--group", "g4"], None, _catalog(_misspell_systems), 2),
    ("deep_json_catalog", ["verify-paper", "--group", "g4"], None, DEEP_JSON, 2),
    ("catalog_arabic_indic_digit", ["verify-paper", "--group", "g4"], None, _catalog(_arabic_indic_digit), 2),
    ("catalog_claimed_without_wan", ["verify-paper", "--group", "g4"], None, _catalog(lambda g: g["claimed"].pop("wan")), 2),
    ("catalog_case_without_name", ["verify-paper", "--group", "g4"], None, _catalog(_case_without_name), 2),
    ("catalog_misspelt_case_key", ["verify-paper", "--group", "g4"], None, _catalog(_misspelt_case_key), 2),
    ("catalog_list", ["verify-paper", "--group", "g4"], None, "[]", 2),
    ("catalog_groups_list", ["verify-paper", "--group", "g4"], None, _GROUPS_LIST, 2),
]


@pytest.mark.parametrize("argv, spec, catalog_text, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_exit_code_contract(tmp_path, monkeypatch, capsys, argv, spec, catalog_text, expected):
    if spec is not None:
        (tmp_path / "spec.json").write_text(spec, encoding="utf-8")
    if catalog_text is not None:
        (tmp_path / "catalog.json").write_text(catalog_text, encoding="utf-8")
        monkeypatch.setenv("WANAS_CATALOG", str(tmp_path / "catalog.json"))
    argv = [arg.replace("{spec}", str(tmp_path / "spec.json")) for arg in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err
    assert code == expected, err
    if code == 2:
        assert out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
