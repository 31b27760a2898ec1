"""Catalog integrity: checksum, shorthand identities, claims, predicates."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import re
from fractions import Fraction

import pytest

from wanas import catalog as catalog_module
from wanas import nest as nest_module
from wanas.catalog import (
    ALL_GROUPS,
    AmbiguousCaseError,
    CatalogError,
    TheoremCase,
    TheoremClaim,
    compute_checksum,
    load_catalog,
    predicate_eval,
)
from wanas.poly import Poly, parse_poly
from wanas.soliton import SolitonKind, SolitonVerdict

from matrix_helpers import mat_eq

P = parse_poly
F = Fraction


def _raw_catalog(catalog):
    with open(catalog.path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- loading and integrity -------------------------------------------------------


def test_catalog_loads_all_seven_groups(catalog):
    assert tuple(catalog.groups) == ALL_GROUPS
    assert catalog.schema_version == 1
    assert catalog.get_group("G5").id == "g5"
    with pytest.raises(CatalogError):
        catalog.get_group("g8")


def test_checksum_matches_payload(catalog):
    raw = _raw_catalog(catalog)
    assert raw["checksum"] == compute_checksum(raw["groups"])
    assert catalog.checksum == raw["checksum"]


def test_tampered_catalog_rejected(catalog, tmp_path):
    raw = _raw_catalog(catalog)
    raw["groups"]["g1"]["claimed"]["wan"][0][0] = "0"
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(CatalogError, match="checksum"):
        load_catalog(str(bad))


def test_missing_catalog_rejected(tmp_path):
    with pytest.raises(CatalogError, match="not found"):
        load_catalog(str(tmp_path / "nope.json"))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda group: group.pop("unimodular"), "missing catalog groups g4 key 'unimodular'"),
        (lambda group: group.pop("notes"), "missing catalog groups g4 key 'notes'"),
        (lambda group: group.update(soliton_sytems=group.pop("soliton_systems")), "unknown catalog groups g4 key 'soliton_sytems'"),
    ],
    ids=["without_unimodular", "without_notes", "misspelt_systems"],
)
def test_group_keys_are_exactly_the_schema(catalog, tmp_path, edit, message):
    raw = _raw_catalog(catalog)
    edit(raw["groups"]["g4"])
    raw["checksum"] = compute_checksum(raw["groups"])
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(CatalogError, match=message):
        load_catalog(str(bad))


def _first_case(group: dict) -> dict:
    return group["theorems"]["first"]["cases"][0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda group: group["claimed"].pop("wan"), "missing catalog groups g4 claimed key 'wan'"),
        (lambda group: group["claimed"].update(wan_tilda=[]), "unknown catalog groups g4 claimed key 'wan_tilda'"),
        (lambda group: group.update(claimed=[]), "g4 claimed must be an object"),
        (lambda group: group["constraints"].pop("neq"), "missing catalog groups g4 constraints key 'neq'"),
        (lambda group: group["constraints"].update(ne=[]), "unknown catalog groups g4 constraints key 'ne'"),
        (lambda group: group["soliton_systems"].update(third=[]), "unknown catalog groups g4 soliton_systems key 'third'"),
        (lambda group: group["theorems"].pop("second"), "missing catalog groups g4 theorems key 'second'"),
        (lambda group: group["theorems"]["first"].update(type="some"), "catalog groups g4 theorems first type must be 'cases' or 'no_soliton' or 'same_as_first'"),
        (lambda group: group["theorems"]["first"].pop("type"), "missing catalog groups g4 theorems first key 'type'"),
        (lambda group: group["theorems"]["first"].update(case=[]), "unknown catalog groups g4 theorems first key 'case'"),
        (lambda group: _first_case(group).pop("name"), "missing catalog groups g4 theorems first cases[0] key 'name'"),
        (lambda group: _first_case(group).pop("d"), "missing catalog groups g4 theorems first cases[0] key 'd'"),
        (lambda group: _first_case(group).update(extra_eqq=["alpha"]), "unknown catalog groups g4 theorems first cases[0] key 'extra_eqq'"),
        (lambda group: group["theorems"]["first"]["cases"].append("i"), "catalog groups g4 theorems first cases[2] must be an object"),
    ],
    ids=[
        "claimed_without_wan", "claimed_misspelt", "claimed_list", "constraints_without_neq",
        "constraints_misspelt", "systems_unknown_kind", "theorems_without_second", "theorem_type",
        "theorem_without_type", "theorem_misspelt", "case_without_name", "case_without_d",
        "case_misspelt", "case_string",
    ],
)
def test_keys_below_the_group_are_exactly_the_schema(catalog, tmp_path, edit, message):
    """Every level of a group's data is checked against its keys, so a
    missing key is refused, its path named, and a misspelt one is not dropped."""
    raw = _raw_catalog(catalog)
    edit(raw["groups"]["g4"])
    raw["checksum"] = compute_checksum(raw["groups"])
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(CatalogError, match=re.escape(message)):
        load_catalog(str(bad))


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "catalog must be an object"),
        ('"catalog"', "catalog must be an object"),
        ('{"checksum": "x"}', "missing catalog key 'groups'"),
        ('{"groups": {}, "checksun": "x"}', "unknown catalog key 'checksun'"),
        ('{"groups": ["g1", "g2", "g3", "g4", "g5", "g6", "g7"]}', "catalog groups must be an object"),
        ('{"groups": {"g1": {}}}', "missing catalog groups key 'g2'"),
    ],
    ids=["list", "string", "without_groups", "misspelt_checksum", "groups_list", "groups_missing_g2"],
)
def test_catalog_top_level_is_exactly_the_schema(tmp_path, text, message):
    bad = tmp_path / "catalog.json"
    bad.write_text(text)
    with pytest.raises(CatalogError, match=message):
        load_catalog(str(bad))


def test_catalog_nested_too_deeply_rejected(tmp_path):
    bad = tmp_path / "catalog.json"
    bad.write_text('{"groups": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(CatalogError, match="not valid JSON"):
        load_catalog(str(bad))


def test_rehash_utility_repairs_checksum(catalog, tmp_path):
    from wanas.catalog import _main

    raw = _raw_catalog(catalog)
    raw["groups"]["g3"]["notes"].append("sampled annotation")
    edited = tmp_path / "catalog.json"
    edited.write_text(json.dumps(raw))
    with pytest.raises(CatalogError, match="checksum"):
        load_catalog(str(edited))
    assert _main(["rehash", str(edited)]) == 0
    repaired = load_catalog(str(edited))
    assert "sampled annotation" in repaired.get_group("g3").notes


def test_unimodular_flags(catalog):
    for gid in ("g1", "g2", "g3", "g4"):
        assert catalog.get_group(gid).unimodular
    for gid in ("g5", "g6", "g7"):
        assert not catalog.get_group(gid).unimodular


# -- group constraints as encoded -----------------------------------------------------


def test_standing_constraints_encoding(catalog):
    described = {
        gid: sorted(c.describe() for c in catalog.get_group(gid).spec.constraints)
        for gid in ALL_GROUPS
    }
    assert described["g1"] == ["alpha != 0"]
    assert described["g2"] == ["gamma != 0"]
    assert described["g3"] == []
    assert described["g4"] == ["eta^2 - 1 = 0"]
    assert described["g5"] == ["alpha + delta != 0", "alpha*gamma + beta*delta = 0"]
    assert described["g6"] == ["alpha + delta != 0", "alpha*gamma - beta*delta = 0"]
    assert described["g7"] == ["alpha + delta != 0", "alpha*gamma = 0"]


def test_g1_brackets_match_encoding(catalog):
    c = catalog.get_group("g1").spec.constants
    assert c[0][1] == (P("alpha"), Poly.zero(), P("-beta"))
    assert c[1][2] == (P("beta"), P("alpha"), P("alpha"))


def test_g4_shorthands_available(catalog):
    sh = catalog.get_group("g4").shorthands
    assert sh["b2"] == P("1/2*alpha-eta")
    assert sh["b3"] - sh["b2"] == P("2*eta")


# -- shorthand identities ---------------------------------------------------------------


def test_g3_shorthand_expansion_identities(catalog):
    sh = catalog.get_group("g3").shorthands
    a1, a2, a3 = sh["a1"], sh["a2"], sh["a3"]
    assert a1 == P("1/2*(alpha-beta-gamma)")
    assert a2 == P("1/2*(alpha-beta+gamma)")
    assert a3 == P("1/2*(alpha+beta-gamma)")
    assert a2 - a1 == P("gamma")
    assert a3 - a1 == P("beta")
    assert a1 + a2 + a3 == P("3/2*alpha - 1/2*beta - 1/2*gamma")


def test_g4_shorthand_expansion_identities(catalog):
    sh = catalog.get_group("g4").shorthands
    assert sh["b1"] == P("1/2*alpha+eta-beta")
    assert sh["b1"] - sh["b3"] == P("-beta")


# -- claimed tensors -------------------------------------------------------------------


def test_claimed_round_trips_through_rendering(catalog):
    """Bit-exact round trip: parse(str(p)) == p for every claimed entry."""
    for entry in catalog.groups.values():
        cl = entry.claimed
        polys = [p for row in cl.connection for v in row for p in v]
        polys += [p for plane in cl.torsion for v in plane for p in v]
        polys += [p for plane in cl.a_tensor for row in plane for v in row for p in v]
        for m in (cl.abar, cl.ric, cl.wan, cl.wan_tilde):
            polys += [p for row in m for p in row]
        for p in polys:
            assert parse_poly(str(p)) == p


def test_claimed_examples_from_displays(catalog):
    g2 = catalog.get_group("g2").claimed
    assert g2.connection[1][0] == (Poly.zero(), P("-gamma"), Poly.zero())
    g4 = catalog.get_group("g4").claimed
    assert g4.abar[0][0] == P("(1/2*alpha+eta-beta)*2*(2*eta-beta)+1")
    g7 = catalog.get_group("g7").claimed
    assert g7.ric[2][0] == P("-(gamma*alpha+1/2*delta*gamma)")


def test_wan_tilde_stored_equal_to_wan_for_g3_g5(catalog):
    for gid in ("g3", "g5"):
        cl = catalog.get_group(gid).claimed
        assert mat_eq(cl.wan, cl.wan_tilde)


def test_claimed_pair_tables_antisymmetric(catalog):
    for entry in catalog.groups.values():
        t, a = entry.claimed.torsion, entry.claimed.a_tensor
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert t[i][j][k] == -t[j][i][k]
                    for l in range(3):
                        assert a[i][j][k][l] == -a[j][i][k][l]


# -- theorem claims -----------------------------------------------------------------------


def test_theorem_claim_types(catalog):
    assert catalog.theorem_claim("g1", SolitonKind.FIRST).claim_type == "no_soliton"
    assert catalog.theorem_claim("g1", SolitonKind.SECOND).claim_type == "no_soliton"
    g3_second = catalog.theorem_claim("g3", SolitonKind.SECOND)
    assert g3_second.claim_type == "cases"  # resolved from same_as_first
    assert len(g3_second.cases) == 7
    assert catalog.get_group("g3").theorems[SolitonKind.SECOND].claim_type == "same_as_first"
    assert len(catalog.theorem_claim("g6", SolitonKind.FIRST).cases) == 3
    assert len(catalog.theorem_claim("g4", SolitonKind.FIRST).cases) == 2


def test_g3_case_v_encoding(catalog):
    claim = catalog.theorem_claim("g3", SolitonKind.FIRST)
    case = next(c for c in claim.cases if c.name == "v")
    assert case.c == P("-2*beta^2")
    assert case.d[1][1] == P("2*beta^2")
    assert case.subs_map()["gamma"] == P("beta")


def test_g6_second_kind_case_ii_encoding(catalog):
    claim = catalog.theorem_claim("g6", SolitonKind.SECOND)
    case = next(c for c in claim.cases if c.name == "ii")
    assert case.c == P("-(alpha^2+delta^2)")
    assert case.d[1][1] == P("delta^2")
    assert case.d[2][2] == P("alpha^2+delta^2")
    assert {str(p) for p in case.neq} == {"delta", "alpha + delta"}


def test_g6_case_iii_annotations(catalog):
    for kind in SolitonKind:
        claim = catalog.theorem_claim("g6", kind)
        case = next(c for c in claim.cases if c.name == "iii")
        assert case.constraint_conflict
        assert case.extra_eq == (P("alpha^2-beta^2"),)
        assert len(case.branch_maps()) == 2
    first = next(c for c in catalog.theorem_claim("g6", SolitonKind.FIRST).cases if c.name == "iii")
    second = next(c for c in catalog.theorem_claim("g6", SolitonKind.SECOND).cases if c.name == "iii")
    # the printed D(2,2) entries differ on the page but agree on the variety
    assert first.d[1][1] == P("-beta^2")
    assert second.d[1][1] == P("-alpha^2")
    assert any("alpha^2 = beta^2" in note for note in catalog.get_group("g6").notes)


def test_case_conditions_never_contradict_standing_constraints(catalog, tmp_path):
    # the loader enforces the implication check; a synthetic violation is caught
    raw = _raw_catalog(catalog)
    raw["groups"]["g2"]["theorems"]["first"]["cases"][0]["subs"]["gamma"] = "0"
    raw["checksum"] = compute_checksum(raw["groups"])
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(CatalogError, match="contradicts standing constraints"):
        load_catalog(str(bad))


def test_conflict_annotation_must_be_genuine(catalog, tmp_path):
    raw = _raw_catalog(catalog)
    raw["groups"]["g2"]["theorems"]["first"]["cases"][0]["constraint_conflict"] = True
    raw["checksum"] = compute_checksum(raw["groups"])
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(CatalogError, match="annotated as conflicting"):
        load_catalog(str(bad))


@pytest.mark.parametrize("form", ["neither", "both"])
def test_case_needs_exactly_one_of_c_and_any_c(catalog, tmp_path, monkeypatch, capsys, form):
    """A case with neither c nor any_c: true, or with both, is refused at
    load; the CLI prints one error line and exits 2, with no traceback."""
    from wanas import cli

    raw = _raw_catalog(catalog)
    if form == "neither":
        case = raw["groups"]["g2"]["theorems"]["first"]["cases"][0]
        del case["c"]
    else:
        case = next(c for c in raw["groups"]["g3"]["theorems"]["first"]["cases"] if c.get("any_c"))
        case["c"] = "0"
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps(raw))
    assert catalog_module._main(["rehash", str(bad)]) == 0
    capsys.readouterr()
    with pytest.raises(CatalogError, match="exactly one of c and any_c: true"):
        load_catalog(str(bad))
    monkeypatch.setenv("WANAS_CATALOG", str(bad))
    for argv in (["verify-paper", "--group", "g2"], ["classify", "--group", "g2", "--kind", "first"]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert f"case {case['name']}: give exactly one of c and any_c: true" in err


# -- predicate evaluation --------------------------------------------------------------------


def test_predicate_g2_point(catalog):
    claim = catalog.theorem_claim("g2", SolitonKind.FIRST)
    verdict = predicate_eval(claim, {"alpha": F(0), "beta": F(0), "gamma": F(2)})
    assert verdict.outcome == "soliton"
    assert verdict.c == F(-8)
    assert verdict.d == ((F(0),) * 3, (F(0), F(4), F(0)), (F(0), F(0), F(8)))


def test_predicate_g1_always_no_soliton(catalog):
    claim = catalog.theorem_claim("g1", SolitonKind.FIRST)
    for sigma in ({"alpha": F(1), "beta": F(0)}, {"alpha": F(-2), "beta": F(5)}):
        assert predicate_eval(claim, sigma).outcome == "no_soliton"


def test_predicate_g3_abelian_any_c(catalog):
    claim = catalog.theorem_claim("g3", SolitonKind.FIRST)
    verdict = predicate_eval(claim, {"alpha": F(0), "beta": F(0), "gamma": F(0)})
    assert verdict.outcome == "any_c"
    assert verdict.d[0][0] == P("-c")


def test_predicate_unmatched_point_is_no_soliton(catalog):
    claim = catalog.theorem_claim("g2", SolitonKind.FIRST)
    verdict = predicate_eval(claim, {"alpha": F(1), "beta": F(0), "gamma": F(2)})
    assert verdict.outcome == "no_soliton"


def test_predicate_g5_every_point_matches(catalog):
    claim = catalog.theorem_claim("g5", SolitonKind.SECOND)
    sigma = {"alpha": F(1), "beta": F(1), "gamma": F(2), "delta": F(-2)}
    verdict = predicate_eval(claim, sigma)
    assert verdict.outcome == "soliton"
    assert verdict.c == F(1) + F(9, 2) + F(4)


def test_predicate_ambiguous_cases_detected(catalog):
    # synthetic overlapping cases: both match the same point
    base = catalog.theorem_claim("g2", SolitonKind.FIRST).cases[0]
    clone = TheoremCase(
        name="overlap",
        subs=base.subs,
        extra_eq=base.extra_eq,
        neq=base.neq,
        any_c=base.any_c,
        c=base.c,
        d=base.d,
        branches=base.branches,
        constraint_conflict=False,
    )
    claim = TheoremClaim("g2", SolitonKind.FIRST, "cases", (base, clone))
    with pytest.raises(AmbiguousCaseError):
        predicate_eval(claim, {"alpha": F(0), "beta": F(0), "gamma": F(1)})


def test_catalog_cases_are_mutually_exclusive_on_grids(catalog):
    """No admissible grid point matches two cases of any theorem."""
    from wanas.verify import default_grid

    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        _, points = default_grid(entry, min_points=200)
        for kind in SolitonKind:
            claim = catalog.theorem_claim(gid, kind)
            for sigma in points[:250]:
                predicate_eval(claim, sigma)  # raises AmbiguousCaseError on overlap


def _reference_matches(case, sigma):
    """Whether sigma satisfies a case's conditions, by Poly.evaluate, one
    condition at a time."""
    for var, expr in case.subs:
        if Fraction(sigma[var]) != expr.evaluate(sigma):
            return False
    if any(eq.evaluate(sigma) != 0 for eq in case.extra_eq):
        return False
    return all(nz.evaluate(sigma) != 0 for nz in case.neq)


def _reference_predicate(claim, sigma):
    """predicate_eval with the case conditions, c and D through Poly.evaluate."""
    if claim.claim_type == "no_soliton":
        return SolitonVerdict("no_soliton")
    matched = [case for case in claim.cases if _reference_matches(case, sigma)]
    if len(matched) > 1:
        raise AmbiguousCaseError(claim.group, claim.kind, [c.name for c in matched])
    if not matched:
        return SolitonVerdict("no_soliton")
    (case,) = matched
    numeric = {v: Fraction(x) for v, x in sigma.items()}
    if case.any_c:
        images = {v: Poly.const(x) for v, x in numeric.items()}
        family = tuple(tuple(p.substitute(images) for p in row) for row in case.d)
        return SolitonVerdict("any_c", d=family)
    c_val = case.c.evaluate(numeric)
    d_val = tuple(tuple(Poly.const(p.evaluate(numeric)) for p in row) for row in case.d)
    return SolitonVerdict("soliton", c=c_val, d=d_val)


def _one_case_claims(claim):
    """The claim restricted to each of its cases in turn."""
    return [dataclasses.replace(claim, cases=(case,)) for case in claim.cases]


def _matches(one_case_claim, sigma):
    """Whether sigma satisfies the one case's conditions, by case_at."""
    hit = one_case_claim.case_at(one_case_claim.evaluate(sigma)[0])
    assert hit is None or hit[0] is one_case_claim.cases[0]
    return hit is not None


def test_predicates_equal_reference_at_height_points_and_default_grids(catalog, height_points):
    """The compiled case conditions and solutions give exactly the verdicts
    of the Poly.evaluate formulation, for every group, kind and case."""
    from wanas.verify import default_grid

    for gid in ALL_GROUPS:
        _, grid = default_grid(catalog.get_group(gid))
        for kind in SolitonKind:
            claim = catalog.theorem_claim(gid, kind)
            singles = _one_case_claims(claim)
            for sigma in height_points[gid] + grid:
                for one in singles:
                    assert _matches(one, sigma) == _reference_matches(one.cases[0], sigma)
                assert predicate_eval(claim, sigma) == _reference_predicate(claim, sigma)


def test_case_conditions_equal_reference_off_the_admissible_set(catalog):
    """case_at does not validate the point: compare on a plain product grid of
    each group's parameters, which also reaches cases that no admissible point
    matches (g6 case iii conflicts with alpha + delta != 0)."""
    values = (F(-2), F(-1), F(0), F(1), F(1, 2))
    for gid in ALL_GROUPS:
        variables = catalog.get_group(gid).spec.variables()
        points = [
            dict(zip(variables, combo))
            for combo in itertools.product(values, repeat=len(variables))
        ]
        for kind in SolitonKind:
            for one in _one_case_claims(catalog.theorem_claim(gid, kind)):
                hits = [_matches(one, sigma) for sigma in points]
                assert hits == [_reference_matches(one.cases[0], sigma) for sigma in points]
                assert any(hits), (gid, kind, one.cases[0].name)


def test_loading_compiles_no_evaluator(monkeypatch):
    """The integer evaluators are built on first use, so loading the catalog
    does no work for them: no nest source is generated."""
    generated = []
    original = nest_module._nest_source

    def counting(*args):
        generated.append(args)
        return original(*args)

    monkeypatch.setattr(nest_module, "_nest_source", counting)
    fresh = load_catalog()
    assert generated == []
    for entry in fresh.groups.values():
        assert "_point_values" not in vars(entry.spec)
        assert "claims" not in vars(entry)
        for claim in entry.theorems.values():
            assert not {"layout", "evaluate"} & set(vars(claim))
    claim = fresh.theorem_claim("g2", SolitonKind.FIRST)
    predicate_eval(claim, {"alpha": F(0), "beta": F(0), "gamma": F(1)})
    assert {"layout", "evaluate"} <= set(vars(claim))
    assert len(generated) == 1


def test_theorem_claim_is_one_object_compiled_once(monkeypatch):
    """theorem_claim returns the same claim on every call, same_as_first
    kinds included, so its kernel is compiled once: 200 predicate_eval
    calls on g3 second kind generate the source of its nest once."""
    from wanas.verify import default_grid

    fresh = load_catalog()
    for gid in ALL_GROUPS:
        for kind in SolitonKind:
            assert fresh.theorem_claim(gid, kind) is fresh.theorem_claim(gid, kind)
    _, points = default_grid(fresh.get_group("g3"))
    generated = []
    original = nest_module._nest_source

    def counting(*args):
        generated.append(args)
        return original(*args)

    monkeypatch.setattr(nest_module, "_nest_source", counting)
    outcomes = collections.Counter(
        predicate_eval(fresh.theorem_claim("g3", SolitonKind.SECOND), sigma).outcome
        for sigma in points[:200]
    )
    assert sum(outcomes.values()) == 200 and set(outcomes) == {"soliton", "no_soliton"}
    assert len(generated) == 1


def test_loading_parses_each_distinct_text_once_per_group(monkeypatch):
    """The catalog repeats many polynomial strings ("0" above all); each
    group parses each distinct one once and shares the immutable result."""
    calls = collections.Counter()
    original = catalog_module.parse_poly

    def counting(text, names=None):
        if names is not None:  # a group's table text, not a shorthand definition
            calls[id(names), text] += 1
        return original(text, names)

    monkeypatch.setattr(catalog_module, "parse_poly", counting)
    fresh = load_catalog()
    assert calls and set(calls.values()) == {1}
    assert len({key[0] for key in calls}) == len(ALL_GROUPS)
    g2 = fresh.get_group("g2")
    assert g2.claimed.wan[0][1] is g2.claimed.wan[1][0]  # both "0"
