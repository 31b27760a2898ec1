"""The exit-code contract on inputs outside the documented grammar: each
runs through ``cli.main`` in-process, exits 0, 1 or 2 with no exception
escaping, and an exit 2 prints exactly one ``error:`` line and nothing on
stdout.  An argparse refusal is its ``SystemExit`` code.  Besides the table
of hand-picked inputs, a seeded generator plants one fault in each of ~250
copies of the shipped catalog and of a spec document, and another plants
faults in ``--at`` points and in the group options."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from wanas import cli
from wanas.algebra import LieAlgebraSpec
from wanas.catalog import ALL_GROUPS, compute_checksum, default_catalog_path
from wanas.poly import MAX_DEGREE

DEEP_JSON = '{"brackets": ' + "[" * 100_000 + "]" * 100_000 + "}"


def _bracket(text: str) -> str:
    return json.dumps({"brackets": {"e1,e2": [text, "0", "0"]}})


def _catalog(edit, group: str = "g4") -> str:
    """The shipped catalog with ``edit`` applied to one group, under a valid checksum."""
    raw = json.loads(Path(default_catalog_path()).read_text(encoding="utf-8"))
    edit(raw["groups"][group])
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


def _any_c_case_named_across_two_lines(group: dict) -> None:
    case = group["theorems"]["first"]["cases"][0]
    case["name"], case["any_c"] = "i\nbis", True


def _plant(*path, value=None):
    """An edit of a g4 group that sets the value at ``path`` (drops it when ``value`` is None)."""
    def edit(group: dict) -> None:
        *head, last = path
        for key in head:
            group = group[key]
        if value is None:
            del group[last]
        else:
            group[last] = value
    return edit


# case ii without its subs beta = 0 holds wherever case i does
_OVERLAPPING_CASES = _plant("theorems", "first", "cases", 1, "subs", "beta")

# (id, planted fault in g4, what the one error line names)
PLANTED = [
    ("brackets_without_e1e2", _plant("brackets", "e1,e2"), "missing catalog groups g4 brackets key 'e1,e2'"),
    ("torsion_without_e1e2", _plant("claimed", "torsion", "e1,e2"), "missing catalog groups g4 claimed torsion key 'e1,e2'"),
    ("brackets_list", _plant("brackets", value=[["0", "0", "0"]] * 3), "catalog groups g4 brackets must be an object"),
    ("notes_number", _plant("notes", value=5), "catalog groups g4 notes must be a list"),
    ("constraint_number", _plant("constraints", "eq", value=[1]), "catalog groups g4 constraints eq[0] must be a string"),
    ("shorthand_number", _plant("shorthands", "b1", value=1), "catalog groups g4 shorthands b1 must be a string"),
    ("subs_list", _plant("theorems", "first", "cases", 0, "subs", value=[["alpha", "0"]]), "catalog groups g4 theorems first cases[0] subs must be an object"),
    ("connection_row_of_two", _plant("claimed", "connection", 0, value=[["0", "0", "0"]] * 2), "catalog groups g4 claimed connection[0] must have 3 items, not 2"),
    ("bracket_of_two", _plant("brackets", "e1,e2", value=["0", "-1"]), "catalog groups g4 brackets e1,e2 must have 3 items, not 2"),
    ("c_in_a_bracket", _plant("brackets", "e1,e2", 0, value="c"), "catalog groups g4: brackets e1,e2 may not involve the soliton scalar c"),
    ("bracket_key_e2e1", _plant("brackets", "e2,e1", value=["0", "1", "0"]), "unknown catalog groups g4 brackets key 'e2,e1'"),
    ("unimodular_string", _plant("unimodular", value="no"), "catalog groups g4 unimodular must be true or false"),
    ("case_name_number", _plant("theorems", "first", "cases", 0, "name", value=5), "catalog groups g4 theorems first cases[0] name must be a string"),
    # a shorthand name is free text, but the error stays one line
    ("shorthand_name_with_a_line_break", _plant("shorthands", "b\n1", value=1), "catalog groups g4 shorthands 'b\\n1' must be a string"),
    # a case name is free text too, quoted without repr in a consistency error
    ("case_name_with_a_line_break", _any_c_case_named_across_two_lines, "theorems first case i\\nbis: give exactly one of c and any_c"),
    # well formed, but a grid solves at most one defining equation
    ("two_defining_equations", _plant("constraints", "eq", value=["eta^2-1", "alpha", "alpha"]), "grids support at most one defining equation, not 2: alpha, alpha"),
    # well formed, but two cases hold at one grid point: the grid's compiled decision finds both
    ("overlapping_cases", _OVERLAPPING_CASES, "g4 first: point matches cases i, ii"),
]
NAMED = {f"catalog_{name}": named for name, _, named in PLANTED}
NAMED.update(dict.fromkeys(("catalog_overlapping_cases_all_groups", "catalog_overlapping_cases_classify"), NAMED["catalog_overlapping_cases"]))
NAMED.update(dict.fromkeys(("out_in_a_missing_directory", "out_a_directory"), "error: could not write report"))

# catalogs that cannot be read as JSON text (a directory, bytes that are not UTF-8), and one
# holding an int past CPython's int/str digit limit, which is valid JSON: it is read, and
# refused by the shape check, not as invalid JSON
CATALOG_DIRECTORY = "<a directory>"
UNREADABLE = [
    ("catalog_a_directory", CATALOG_DIRECTORY, "cannot be read"),
    ("catalog_not_utf8", b'\xff\xfe{"groups": {}}', "is not valid JSON"),
    ("catalog_int_past_the_digit_limit", '{"checksum": ' + "7" * 5000 + "}", "error: missing catalog key 'groups'"),
]
NAMED.update({f"{name}_{command}": named for name, _, named in UNREADABLE for command in ("verify_paper", "tensors")})
# a spec file's int past the digit limit is read as any integer, and refused where a string belongs
NAMED["spec_int_past_the_digit_limit"] = "spec.json: spec brackets e1,e2[0] must be a string"

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
    ("spec_int_past_the_digit_limit", TENSORS + ["wan"], '{"brackets": {"e1,e2": [' + "7" * 5000 + ', "0", "0"]}}', None, 2),
    ("spec_path_with_a_line_break", ["jacobi", "--spec-file", "{spec}\nx"], None, None, 2),
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
    ("out_in_a_missing_directory", ["verify-paper", "--group", "g3", "--out", "{tmp}/missing/r.json"], None, None, 2),
    ("out_a_directory", ["verify-paper", "--group", "g3", "--out", "{tmp}"], None, None, 2),
    ("catalog_overlapping_cases_all_groups", ["verify-paper"], None, _catalog(_OVERLAPPING_CASES), 2),
    ("catalog_overlapping_cases_classify", ["classify", "--group", "g4", "--kind", "first"], None, _catalog(_OVERLAPPING_CASES), 2),
] + [(f"catalog_{name}", ["verify-paper", "--group", "g4"], None, _catalog(edit), 2) for name, edit, _ in PLANTED] + [
    (f"{name}_{command}", argv, None, catalog_text, 2)
    for name, catalog_text, _ in UNREADABLE
    for command, argv in (("verify_paper", ["verify-paper", "--group", "g1"]), ("tensors", ["tensors", "--group", "g1", "--tensor", "wan"]))
]


@pytest.mark.parametrize(
    "argv, spec, catalog_text, expected, named",
    [(*case[1:], NAMED.get(case[0], "")) for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_exit_code_contract(tmp_path, monkeypatch, capsys, argv, spec, catalog_text, expected, named):
    if spec is not None:
        (tmp_path / "spec.json").write_text(spec, encoding="utf-8")
    if catalog_text == CATALOG_DIRECTORY:
        (tmp_path / "catalog.json").mkdir()
    elif isinstance(catalog_text, bytes):
        (tmp_path / "catalog.json").write_bytes(catalog_text)
    elif catalog_text is not None:
        (tmp_path / "catalog.json").write_text(catalog_text, encoding="utf-8")
    if catalog_text is not None:
        monkeypatch.setenv("WANAS_CATALOG", str(tmp_path / "catalog.json"))
    argv = [arg.replace("{spec}", str(tmp_path / "spec.json")).replace("{tmp}", str(tmp_path)) for arg in argv]
    refused = False
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code, refused = exc.code, True
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err
    assert code == expected, err
    assert named in err
    if code == 2:
        assert out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
        # after argparse's usage lines, or alone
        assert refused or (err.startswith("error: ") and len(err.splitlines()) == 1), err


@pytest.mark.parametrize(
    "argv",
    [
        ["jacobi", "--spec-file", "{spec}"],
        ["tensors", "--spec-file", "{spec}", "--tensor", "wan", "--at", "alpha=0,beta=0,gamma=1"],
        ["check", "--spec-file", "{spec}", "--kind", "first", "--at", "alpha=0,beta=0,gamma=1"],
    ],
    ids=["jacobi", "tensors", "check"],
)
def test_spec_file_commands_read_no_catalog(tmp_path, monkeypatch, capsys, catalog, argv):
    """A spec-file command prints the same with WANAS_CATALOG naming the
    shipped catalog or a missing file."""
    spec = tmp_path / "g2.json"
    spec.write_text(json.dumps(catalog.get_group("g2").spec.to_json_dict()), encoding="utf-8")
    argv = [arg.replace("{spec}", str(spec)) for arg in argv]
    runs = []
    for path in (default_catalog_path(), str(tmp_path / "missing.json")):
        monkeypatch.setenv("WANAS_CATALOG", path)
        runs.append((cli.main(argv), *capsys.readouterr()))
    shipped, missing = runs
    assert shipped == missing and shipped[0] == 0 and shipped[1] and not shipped[2]


# -- seeded document mutants -------------------------------------------------------------------

# one value of each JSON type; a retyped node takes one of another type
JSON_VALUES = ("x", 7, True, None, [], {})
# objects whose keys are data (shorthand names, substituted variables), so any key is allowed
OPEN_OBJECTS = ("shorthands", "subs", "branches")


def _nodes(doc, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _name(path) -> str | None:
    """The last object key on ``path``, which names what a node is."""
    return next((key for key in reversed(path) if isinstance(key, str)), None)


def _place(path) -> tuple:
    """A node's place in the format: list indices, group ids and the keys of open objects become '*'."""
    return tuple("*" if isinstance(key, int) or _name(path[:n]) in ("groups", *OPEN_OBJECTS) else key for n, key in enumerate(path))


MUTATIONS = {
    "dropped": lambda path, value: bool(path) and isinstance(path[-1], str),
    "unknown": lambda path, value: isinstance(value, dict) and _name(path) not in OPEN_OBJECTS,
    "retyped": lambda path, value: True,
    "resized": lambda path, value: isinstance(value, list) and bool(value),
}


def _mutants(doc, seed: int):
    """(kind, path, mutant) copies of ``doc`` with one planted fault each: a
    dropped key, an unknown key, a value of another JSON type, or a list one
    item short or long.  Each kind is planted once at every place of the
    document where it applies, at a node of that place chosen by ``seed``."""
    rng = random.Random(seed)
    places: dict[tuple, list] = {}
    for path, value in _nodes(doc):
        places.setdefault(_place(path), []).append((path, value))
    text = json.dumps(doc)
    for kind, applies in MUTATIONS.items():
        for nodes in places.values():
            nodes = [path for path, value in nodes if applies(path, value)]
            if not nodes:
                continue
            path = rng.choice(nodes)
            mutant = json.loads(text)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            node = parent[path[-1]] if path else mutant
            if kind == "dropped":
                del parent[path[-1]]
            elif kind == "unknown":  # a sibling's value, so that only the key is wrong
                node["unknown_key"] = next(iter(node.values()), "0")
            elif kind == "resized" and rng.random() < 0.5:
                node.append(node[-1])
            elif kind == "resized":
                node.pop()
            else:
                other = rng.choice([v for v in JSON_VALUES if type(v) is not type(node)])
                if path:
                    parent[path[-1]] = other
                else:
                    mutant = other
            yield kind, path, mutant


def _run_mutant(capsys, argv, kind, path) -> tuple[int, str]:
    """``cli.main(argv)`` under the contract: (exit code, stdout)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # pragma: no cover - no argv here is an argparse error
        code = exc.code
    out, err = capsys.readouterr()
    where = (kind, path, err)
    assert code in (0, 1, 2), where
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, where
    if kind in ("unknown", "retyped"):
        assert code == 2, where
    return code, out


def test_catalog_mutants_honour_the_contract(tmp_path, monkeypatch, capsys):
    """Every seeded catalog mutant, re-checksummed, through ``verify-paper``
    on the group it touches (g4 for a fault above the groups)."""
    raw = json.loads(Path(default_catalog_path()).read_text(encoding="utf-8"))
    path = tmp_path / "catalog.json"
    monkeypatch.setenv("WANAS_CATALOG", str(path))
    codes = []
    for kind, where, mutant in _mutants(raw, seed=28):
        if isinstance(mutant, dict) and where[:1] != ("checksum",):
            mutant["checksum"] = compute_checksum(mutant.get("groups"))
        path.write_text(json.dumps(mutant), encoding="utf-8")
        group = where[1] if where[:1] == ("groups",) and len(where) > 1 else "g4"
        codes.append(_run_mutant(capsys, ["verify-paper", "--group", group], kind, where)[0])
    assert len(codes) > 150 and set(codes) == {0, 1, 2}


def test_spec_mutants_honour_the_contract(tmp_path, monkeypatch, capsys, catalog):
    """Every seeded mutant of g6's spec document, through ``jacobi``,
    ``tensors`` and ``check`` in turn, with WANAS_CATALOG naming a missing
    file: a spec-file command reads no catalog.  A mutant that exits 0 or 1
    loads, and round-trips through ``to_json_dict`` to the same constants,
    signature and constraints."""
    monkeypatch.setenv("WANAS_CATALOG", str(tmp_path / "missing.json"))
    path = str(tmp_path / "spec.json")
    commands = (
        ["jacobi", "--spec-file", path],
        ["tensors", "--spec-file", path, "--tensor", "wan"],
        ["check", "--spec-file", path, "--kind", "first", "--at", "alpha=1,beta=1,gamma=1,delta=1"],
    )
    codes, loaded = [], 0
    for n, (kind, where, mutant) in enumerate(_mutants(catalog.get_group("g6").spec.to_json_dict(), seed=28)):
        Path(path).write_text(json.dumps(mutant), encoding="utf-8")
        codes.append(_run_mutant(capsys, commands[n % 3], kind, where)[0])
        if codes[-1] != 2:
            spec = LieAlgebraSpec.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
            again = LieAlgebraSpec.from_json_dict(spec.to_json_dict())
            assert (again.constants, again.signature, again.constraints) == (spec.constants, spec.signature, spec.constraints), where
            loaded += 1
    assert len(codes) > 30 and set(codes) == {0, 2} and loaded == codes.count(0)


# -- seeded --at and argv mutants --------------------------------------------------------------

# fault -> (the chunk that replaces the chosen name=value chunk, the exit code)
AT_FAULTS = {
    "decimal": (lambda name, chunk: f"{name}=1.5", 2),
    "zero_denominator": (lambda name, chunk: f"{name}=1/0", 2),
    "unreduced": (lambda name, chunk: f"{name}=2/4", 0),
    "repeated_name": (lambda name, chunk: f"{chunk},{chunk}", 2),
    "unknown_name": (lambda name, chunk: f"{chunk},zeta=1", 2),
    "soliton_scalar": (lambda name, chunk: f"{chunk},c=1", 2),
    "missing_variable": (lambda name, chunk: None, 2),
    "underscore": (lambda name, chunk: f"{name}=1_000", 2),
    "arabic_indic_digit": (lambda name, chunk: f"{name}=٣", 2),
    "superscript_digit": (lambda name, chunk: f"{name}=²", 2),
    "no_name": (lambda name, chunk: "=1", 2),
    "no_value": (lambda name, chunk: f"{name}=", 2),
    "empty_chunk": (lambda name, chunk: f"{chunk},", 0),
    # past CPython's 4300-digit int/str limit, which the answer must not hit
    "digits_4300": (lambda name, chunk: f"{name}={'7' * 4300}", 0),
    "digits_4400": (lambda name, chunk: f"{name}={'7' * 4400}", 0),
}


def _at_mutants(point: str, rng: random.Random):
    """(fault, --at text, exit code) for each fault of AT_FAULTS, planted at a chunk of ``point`` chosen by ``rng``."""
    chunks = point.split(",")
    for fault, (plant, code) in AT_FAULTS.items():
        k = rng.randrange(len(chunks))
        planted = plant(chunks[k].split("=")[0], chunks[k])
        yield fault, ",".join(chunks[:k] + ([] if planted is None else [planted]) + chunks[k + 1 :]), code


def test_generated_at_and_argv_inputs_honour_the_contract(tmp_path, monkeypatch, capsys, catalog):
    """Seeded faults in a valid g2 point and a spec-file (g3) point through
    ``check``, ``tensors`` and ``jacobi``, and argv faults around the group
    options: each exits as its fault says, under the one-line contract."""
    monkeypatch.setattr(cli, "load_catalog", lambda: catalog)
    rng = random.Random(30)
    spec = tmp_path / "g3.json"
    spec.write_text(json.dumps(catalog.get_group("g3").spec.to_json_dict()), encoding="utf-8")
    commands = (["check", "--kind", "first"], ["tensors", "--tensor", "wan"], ["jacobi"])
    for source, point in ((["--group", "g2"], "alpha=0,beta=0,gamma=1"), (["--spec-file", str(spec)], "alpha=1,beta=2,gamma=3")):
        for fault, at, expected in _at_mutants(point, rng):
            command, *rest = rng.choice(commands)
            code, _ = _run_mutant(capsys, [command, *source, *rest, "--at", at], fault, at[:80])
            assert code == expected, (fault, command, at[:80])

    command, *rest = rng.choice(commands[:2])
    rest += ["--at", "alpha=0,beta=0,gamma=1"]
    for fault, argv in (
        ("group_and_spec_file", [command, "--group", "g2", "--spec-file", str(spec), *rest]),
        ("neither", [command, *rest]),
        ("unknown_group", [command, "--group", "g8", *rest]),
        ("verify_unknown_group", ["verify-paper", "--group", "g9"]),
    ):
        assert _run_mutant(capsys, argv, fault, argv)[0] == 2, fault
    # ids are read case-insensitively: G2 is g2, and G1 and g1 are one g1 block
    assert _run_mutant(capsys, [command, "--group", "G2", *rest], "G2", ()) == _run_mutant(capsys, [command, "--group", "g2", *rest], "g2", ())
    repeated = _run_mutant(capsys, ["verify-paper", "--group", "G1", "--group", "g1"], "G1_g1", ())
    assert repeated == _run_mutant(capsys, ["verify-paper", "--group", "g1"], "g1", ())
    assert repeated[1].count("classification g1 first kind") == 1
