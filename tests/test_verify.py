"""Verification harness: reproduction verdicts, fault injection, grids,
classification, and report determinism."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import random
import sys
from fractions import Fraction

import pytest

from wanas import verify as verify_module
from wanas.algebra import Constraint, LORENTZ, LieAlgebraSpec, vec3
from wanas.catalog import ALL_GROUPS, CatalogError, ClaimedTensors, GroupEntry, load_catalog
from wanas.geometry import compute_tensors
from wanas.poly import Poly, parse_poly
from wanas.soliton import AffineEquation, SolitonKind, SolitonVerdict
from wanas.verify import (
    BASE_LADDER,
    GridSpec,
    MATCH,
    MATCH_ON_VARIETY,
    MISMATCH,
    check_theorem_cases,
    classify_grid,
    compare_polys,
    default_grid,
    generate_grid,
    reproduce_group,
    verdicts_equal,
    verify_paper,
)

P = parse_poly
F = Fraction


# -- reproduction ------------------------------------------------------------------


def test_reproduce_all_groups_no_mismatch(catalog):
    for gid in ALL_GROUPS:
        reports = reproduce_group(catalog.get_group(gid))
        bad = [r for r in reports if r.verdict == MISMATCH]
        assert not bad, f"{gid}: {[ (r.item, r.location) for r in bad ]}"


def test_reproduce_is_exact_for_every_display(catalog):
    """Stronger than required: every entry reproduces as polynomials, so no
    comparison ever needs the variety fallback."""
    for gid in ALL_GROUPS:
        reports = reproduce_group(catalog.get_group(gid))
        assert all(r.verdict == MATCH for r in reports), gid


def test_reproduce_report_covers_all_items(catalog):
    reports = reproduce_group(catalog.get_group("g1"))
    items = {r.item for r in reports}
    assert items == {"connection", "torsion", "a_tensor", "abar", "ric", "wan", "wan_tilde"}
    # 27 connection + 9 torsion + 27 a-tensor + 4 matrices of 9
    assert len(reports) == 27 + 9 + 27 + 36


def test_fault_injection_detected_at_exact_location(catalog):
    entry = catalog.get_group("g2")
    wrong_wan = tuple(
        tuple(
            P("alpha*beta") if (i, j) == (1, 2) else entry.claimed.wan[i][j]
            for j in range(3)
        )
        for i in range(3)
    )
    corrupted = dataclasses.replace(
        entry, claimed=dataclasses.replace(entry.claimed, wan=wrong_wan)
    )
    reports = reproduce_group(corrupted)
    bad = [r for r in reports if r.verdict == MISMATCH]
    assert len(bad) == 1
    assert bad[0].item == "wan"
    assert bad[0].location == (2, 3)
    assert bad[0].computed == "1/2*alpha*gamma"
    assert bad[0].claimed == "alpha*beta"


def test_abelian_spec_against_zero_claims(catalog):
    zero = vec3(0, 0, 0)
    spec = LieAlgebraSpec((zero, zero, zero), LORENTZ)
    entry = catalog.get_group("g3")
    z9 = tuple(tuple(Poly.zero() for _ in range(3)) for _ in range(3))
    zero_vec_table = tuple(tuple(zero for _ in range(3)) for _ in range(3))
    zero_tri = tuple(tuple(tuple(zero for _ in range(3)) for _ in range(3)) for _ in range(3))
    claimed = dataclasses.replace(
        entry.claimed,
        connection=zero_vec_table,
        torsion=zero_vec_table,
        a_tensor=zero_tri,
        abar=z9,
        ric=z9,
        wan=z9,
        wan_tilde=z9,
    )
    abelian_entry = dataclasses.replace(entry, spec=spec, claimed=claimed)
    reports = reproduce_group(abelian_entry)
    assert all(r.verdict == MATCH for r in reports)


# -- comparison fallbacks ---------------------------------------------------------------


def test_compare_match_on_variety_via_reduction(catalog):
    entry = catalog.get_group("g5")
    computed = P("alpha^2")
    claimed = P("alpha^2 + alpha*gamma + beta*delta")  # differs by the relation
    verdict, certificate = compare_polys(computed, claimed, entry)
    assert verdict == MATCH_ON_VARIETY
    assert "modulo" in certificate


def _forbid_grids(monkeypatch):
    """Make every grid function of wanas.verify raise when called."""

    def refuse(*args, **kwargs):
        raise AssertionError("a table verdict builds no grid")

    for name in ("default_grid", "generate_grid", "_GridKernel"):
        monkeypatch.setattr(verify_module, name, refuse)


def _three_term_spec() -> LieAlgebraSpec:
    """A custom algebra whose defining equation has three terms, so binomial
    reduction is unavailable and no difference is certified modulo it."""
    return LieAlgebraSpec(
        (
            vec3(P("alpha"), 0, 0), vec3(0, P("beta"), 0), vec3(0, 0, P("gamma"))
        ),
        LORENTZ,
        (Constraint("eq", P("alpha+beta+gamma")),),
    )


def test_compare_multiple_of_a_three_term_equation_is_a_mismatch(monkeypatch):
    """A difference that vanishes on the variety of a three-term equation,
    which Poly.reduce refuses, has no exact certificate: it is a mismatch,
    decided with no grid built."""
    _forbid_grids(monkeypatch)
    entry_like = _FakeEntry("custom", _three_term_spec())
    assert compare_polys(P("delta"), P("delta + alpha + beta + gamma"), entry_like) == (MISMATCH, None)


def _spec_with_equations(*equations: str) -> LieAlgebraSpec:
    """A custom algebra in all five parameters with the given eq constraints."""
    return LieAlgebraSpec(
        (
            vec3(P("alpha"), P("beta"), 0), vec3(0, P("gamma"), P("delta")), vec3(P("eta"), 0, 0)
        ),
        LORENTZ,
        tuple(Constraint("eq", P(eq)) for eq in equations),
    )


def test_compare_reduces_by_each_eq_constraint_in_turn():
    """The eta^2 - 1 constraint leaves an eta-normalised difference as it is,
    so a multiple of the binomial after it is certified by reduction."""
    entry_like = _FakeEntry("custom", _spec_with_equations("eta^2 - 1", "alpha*gamma - beta*delta"))
    for multiple in ("1", "eta", "alpha + 3*eta*delta"):
        diff = P(multiple) * P("alpha*gamma - beta*delta")
        assert compare_polys(P("beta^2") + diff, P("beta^2"), entry_like) == (
            MATCH_ON_VARIETY,
            "reduces to 0 modulo alpha*gamma - beta*delta = 0",
        )
    assert compare_polys(P("alpha"), P("beta"), entry_like) == (MISMATCH, None)


def test_compare_reduction_skips_order_increasing_rewrites_else_mismatch(monkeypatch):
    """alpha - beta^2 cannot rewrite alpha (to the larger beta^2), so it is
    reduced by beta; alpha*beta - alpha^2 increases the order for every
    variable, so a multiple of it has no certificate and is a mismatch,
    decided with no grid built."""
    _forbid_grids(monkeypatch)
    entry_like = _FakeEntry("custom", _spec_with_equations("alpha - beta^2"))
    diff = P("gamma*beta") * P("alpha - beta^2")
    assert compare_polys(diff, P("0"), entry_like) == (
        MATCH_ON_VARIETY,
        "reduces to 0 modulo -beta^2 + alpha = 0",
    )
    entry_like = _FakeEntry("custom", _spec_with_equations("alpha*beta - alpha^2"))
    assert compare_polys(P("gamma") * P("alpha*beta - alpha^2"), P("0"), entry_like) == (MISMATCH, None)


def test_reproduce_builds_no_variety_samples_on_the_catalog(catalog, monkeypatch):
    """Reproducing every catalog group builds no grid."""
    _forbid_grids(monkeypatch)
    for gid in ALL_GROUPS:
        reproduce_group(catalog.get_group(gid))


def test_reproduce_reports_multiples_of_a_three_term_equation_as_mismatch(monkeypatch):
    """Two claimed entries that differ from the computed ones by multiples of
    the three-term equation have no exact certificate: both are mismatches,
    and no grid is built."""
    spec = _three_term_spec()
    bundle = compute_tensors(spec)
    relation = P("alpha+beta+gamma")

    def shifted(m, i, j, by):
        return tuple(
            tuple(p + by if (r, k) == (i, j) else p for k, p in enumerate(row))
            for r, row in enumerate(m)
        )

    claimed = ClaimedTensors(
        connection=bundle.connection,
        torsion=bundle.torsion,
        a_tensor=bundle.a_tensor,
        abar=shifted(bundle.abar, 0, 0, relation * P("alpha")),
        ric=bundle.ric,
        wan=shifted(bundle.wan, 1, 2, relation),
        wan_tilde=bundle.wan_tilde,
    )
    entry = GroupEntry("custom", False, spec, {}, claimed, {}, {}, ())
    _forbid_grids(monkeypatch)
    reports = reproduce_group(entry)
    refused = [(r.item, r.location) for r in reports if r.verdict == MISMATCH]
    assert refused == [("abar", (1, 1)), ("wan", (2, 3))]
    for r in reports:
        if r.verdict == MISMATCH:
            assert r.certificate is None
        else:
            assert r.verdict == MATCH


@pytest.mark.parametrize(
    "gid, planted",
    [("g7", "gamma"), ("g5", "alpha + 2"), ("g6", "(alpha + 2)*beta")],
)
def test_reproduce_reports_a_claim_off_the_variety_as_mismatch(catalog, gid, planted, monkeypatch):
    """A Wan(1,1) claim off by a polynomial that vanishes where the first
    sorted grid points lie (alpha = -2, and gamma = 0 for g7) but not on the
    group's variety is a mismatch, reached with no grid built."""
    entry = catalog.get_group(gid)
    wan = [list(row) for row in entry.claimed.wan]
    wan[0][0] += P(planted)
    wrong = dataclasses.replace(entry, claimed=dataclasses.replace(entry.claimed, wan=tuple(map(tuple, wan))))
    _forbid_grids(monkeypatch)
    reports = reproduce_group(wrong)
    assert [(r.item, r.location, r.verdict) for r in reports if r.verdict != MATCH] == [("wan", (1, 1), MISMATCH)]


@pytest.mark.parametrize("gid", ["g5", "g6", "g7"])
def test_compare_certifies_exactly_the_multiples_of_the_defining_equation(catalog, gid):
    """base + q*f against base reduces to 0 modulo the group's equation f;
    adding a monomial free of f's leading variable leaves a nonzero
    remainder, which is a mismatch."""
    entry = catalog.get_group(gid)
    (f,) = [con.poly for con in entry.spec.constraints if con.kind == "eq"]
    names = entry.spec.variables()
    rng = random.Random(f"certify-{gid}")

    def random_poly(max_terms):
        p = Poly.zero()
        for _ in range(rng.randint(1, max_terms)):
            mono = Poly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for v in names:
                mono *= Poly.var(v) ** rng.randint(0, 2)
            p += mono
        return p

    free = [v for v in names if v != f.variables()[0]]
    for _ in range(20):
        base = random_poly(4)
        q = Poly.zero()
        while q.is_zero():
            q = random_poly(3)
        on_variety = base + q * f
        assert compare_polys(on_variety, base, entry) == (MATCH_ON_VARIETY, f"reduces to 0 modulo {f} = 0")
        monomial = Poly.var(rng.choice(free)) ** rng.randint(1, 3) * rng.randint(1, 4)
        assert compare_polys(on_variety + monomial, base, entry) == (MISMATCH, None)


def test_compare_equal_polynomials_match_before_any_difference(catalog, monkeypatch):
    """Equal polynomials match with no difference built or reduced; one equal
    only after the eta^2 = 1 reduction still matches, through it."""
    entry = catalog.get_group("g4")
    reduced = []
    original = verify_module.normalize_eta
    monkeypatch.setattr(verify_module, "normalize_eta", lambda p: reduced.append(p) or original(p))

    p = P("alpha*eta + 1/2*beta^2")
    assert compare_polys(p, P("1/2*beta^2 + eta*alpha"), entry) == (MATCH, None)
    assert compare_polys(Poly.zero(), Poly.zero(), entry) == (MATCH, None)
    assert reduced == []
    assert compare_polys(p * P("eta^2"), p, entry) == (MATCH, None)
    assert compare_polys(P("eta^3*alpha"), P("eta*alpha"), entry) == (MATCH, None)
    assert reduced == [p * P("eta^2") - p, P("eta^3*alpha - eta*alpha")]
    assert compare_polys(p, p + 1, entry) == (MISMATCH, None)


def test_reproduce_reports_a_claim_equal_after_eta_reduction_with_its_own_text(catalog):
    """A claimed entry equal to the computed one only modulo eta^2 = 1 is a
    match that keeps the claimed text; every other item is unchanged."""
    entry = catalog.get_group("g4")
    i, j = next((i, j) for i in range(3) for j in range(3) if entry.claimed.wan[i][j])
    planted = entry.claimed.wan[i][j] * P("eta^2")
    wan = tuple(tuple(planted if (r, s) == (i, j) else entry.claimed.wan[r][s] for s in range(3)) for r in range(3))
    reports = reproduce_group(dataclasses.replace(entry, claimed=dataclasses.replace(entry.claimed, wan=wan)))
    changed = [(got, was) for got, was in zip(reports, reproduce_group(entry)) if got != was]
    assert len(changed) == 1
    got, was = changed[0]
    assert (got.item, got.location, got.verdict, got.certificate) == ("wan", (i + 1, j + 1), MATCH, None)
    assert got.computed == was.computed == was.claimed != got.claimed == str(planted)


def test_compare_mismatch_when_genuinely_different(catalog):
    entry = catalog.get_group("g5")
    verdict, _ = compare_polys(P("alpha^2"), P("alpha^2+1"), entry)
    assert verdict == MISMATCH


def test_compare_mismatch_on_a_variable_the_algebra_lacks():
    """A claimed entry in a parameter the algebra does not have is reported
    as a mismatch, not raised."""
    entry_like = _FakeEntry("custom", _three_term_spec())
    assert compare_polys(P("alpha"), P("alpha+delta"), entry_like) == (
        MISMATCH,
        None,
    )


def test_reproduce_reports_a_claim_in_a_foreign_variable_as_mismatch():
    spec = _three_term_spec()
    bundle = compute_tensors(spec)
    wan = tuple(
        tuple(p + P("delta") if (r, k) == (0, 1) else p for k, p in enumerate(row))
        for r, row in enumerate(bundle.wan)
    )
    claimed = ClaimedTensors(
        connection=bundle.connection,
        torsion=bundle.torsion,
        a_tensor=bundle.a_tensor,
        abar=bundle.abar,
        ric=bundle.ric,
        wan=wan,
        wan_tilde=bundle.wan_tilde,
    )
    entry = GroupEntry("custom", False, spec, {}, claimed, {}, {}, ())
    reports = reproduce_group(entry)
    assert [(r.item, r.location) for r in reports if r.verdict != MATCH] == [("wan", (1, 2))]
    (bad,) = [r for r in reports if r.verdict == MISMATCH]
    assert bad.certificate is None
    assert bad.claimed == str(bundle.wan[0][1] + P("delta"))


@dataclasses.dataclass(frozen=True)
class _FakeEntry:
    id: str
    spec: LieAlgebraSpec


# -- grids -------------------------------------------------------------------------------


def _reference_grid(spec, ladder):
    """generate_grid by brute force, with no max_points: itertools.product
    over every domain, the defining equation's variable solved with
    Poly.evaluate, then each constraint checked with Poly.evaluate (apart
    from the compiled constraint kernel) and sort."""
    variables = spec.variables()
    equations = [con.poly for con in spec.constraints if con.kind == "eq"]
    signs = {v for v in variables if P(f"{v}^2 - 1") in equations}
    nonzero = {v for v in variables if any(con.poly == P(v) for con in spec.constraints if con.kind == "neq")}
    defining = [(eq, eq.variables()[-1]) for eq in equations if not set(eq.variables()) <= signs]

    def domain(v):
        if v in signs:
            return [F(-1), F(1)]
        return sorted(set(ladder) | (set() if v in nonzero else {F(0)}))

    free = [v for v in variables if v not in {x for _, x in defining}]
    candidates = []
    for combo in itertools.product(*(domain(v) for v in free)):
        sigma = dict(zip(free, combo))
        if not defining:
            candidates.append(sigma)
        for eq, x in defining:  # at most one
            at0 = eq.evaluate({**sigma, x: F(0)})
            slope = eq.evaluate({**sigma, x: F(1)}) - at0
            values = [-at0 / slope] if slope else domain(x) if not at0 else []
            candidates.extend({**sigma, x: value} for value in values)
    points = [
        sigma
        for sigma in candidates
        if all((con.poly.evaluate(sigma) == 0) == (con.kind == "eq") for con in spec.constraints)
    ]
    points.sort(key=lambda s: tuple(s[v] for v in variables))
    return points


@pytest.mark.parametrize("gid", ("g5", "g6", "g7"))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_grid_solving_equals_reference_on_height_ladders(catalog, gid, seed):
    rng = random.Random(f"grid:{gid}:{seed}")
    ladder = tuple(
        sorted({F(rng.randint(-1000, 1000), rng.randint(1, 1000)) for _ in range(4)})
    )
    spec = catalog.get_group(gid).spec
    points = generate_grid(spec, GridSpec(gid, ladder, max_points=10**6))
    assert points and points == _reference_grid(spec, ladder)



def test_default_grids_meet_size_envelope(catalog):
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        _, points = default_grid(entry, min_points=200, max_points=5000)
        assert 200 <= len(points) <= 5000, (gid, len(points))


def test_grid_points_all_admissible(catalog):
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        _, points = default_grid(entry)
        for sigma in points:
            assert entry.spec.validate_assignment(sigma) == [], (gid, sigma)


def test_grid_generation_deterministic(catalog):
    entry = catalog.get_group("g6")
    a = default_grid(entry)
    b = default_grid(entry)
    assert a == b
    variables = entry.spec.variables()
    keys = [tuple(s[v] for v in variables) for s in a[1]]
    assert keys == sorted(keys)


def test_grid_respects_sign_variable(catalog):
    entry = catalog.get_group("g4")
    _, points = default_grid(entry)
    etas = {sigma["eta"] for sigma in points}
    assert etas == {F(1), F(-1)}


def test_grid_covers_soliton_slices(catalog):
    # the necessity check is only meaningful if positive points are on the grid
    entry = catalog.get_group("g2")
    _, points = default_grid(entry)
    assert any(s["alpha"] == 0 and s["beta"] == 0 for s in points)
    g6 = catalog.get_group("g6")
    _, points6 = default_grid(g6)
    assert any(s["beta"] == 0 and s["gamma"] == 0 and s["delta"] != 0 for s in points6)


def test_grid_cap_is_enforced(catalog):
    entry = catalog.get_group("g3")
    pts = generate_grid(entry.spec, GridSpec("g3", BASE_LADDER, max_points=100))
    assert len(pts) == 100


def _extension(count):
    return tuple(itertools.islice(verify_module._ladder_extension(), count))


_SEEDED = random.Random("grid-kernel")
GRID_LADDERS = {
    "base": BASE_LADDER,
    "base+1": BASE_LADDER + _extension(1),
    "base+7": BASE_LADDER + _extension(7),
    "duplicates-and-0": (F(2), F(0), F(-1, 3), F(2), F(0), F(5, 2), F(-1, 3)),
    "seeded-height-1000": tuple(
        F(_SEEDED.choice((-1, 1)) * _SEEDED.randint(1, 1000), _SEEDED.randint(1, 1000)) for _ in range(8)
    ),
}


@pytest.mark.parametrize("name", GRID_LADDERS)
@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_generate_grid_equals_brute_force(catalog, gid, name):
    """The points come out in sorted order and stop at max_points: the list,
    order included, is the sorted and truncated brute-force grid."""
    spec, ladder = catalog.get_group(gid).spec, GRID_LADDERS[name]
    reference = _reference_grid(spec, ladder)
    assert reference
    for max_points in (1, 7, 10**6):
        grid = GridSpec(gid, ladder, max_points=max_points)
        assert generate_grid(spec, grid) == reference[:max_points], max_points


def _default_grid_by_regeneration(entry, min_points, max_points):
    """default_grid as it stood before the ladder was extended
    incrementally: the whole grid is generated again at every step."""
    ladder = list(BASE_LADDER)
    extension = verify_module._ladder_extension()
    best = None
    while True:
        grid = GridSpec(entry.id, tuple(ladder), max_points=max_points)
        points = generate_grid(entry.spec, grid)
        if len(points) >= min_points:
            return grid, points
        if best is not None and len(points) <= len(best[1]):
            return best
        best = (grid, points)
        ladder.append(next(extension))


@pytest.mark.parametrize("bounds", [(200, 5000), (1, 5000), (1000, 5000), (5000, 5000), (300, 100)])
@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_default_grid_equals_regeneration(catalog, gid, bounds):
    entry = catalog.get_group(gid)
    assert default_grid(entry, *bounds) == _default_grid_by_regeneration(entry, *bounds)


def test_default_grid_stops_when_the_ladder_gains_nothing():
    """An algebra whose only parameter is a sign variable has two points on
    every ladder: the base ladder is kept, as when regenerating."""
    zero = vec3(0, 0, 0)
    spec = LieAlgebraSpec(
        (vec3(0, 0, P("eta")), zero, zero),
        LORENTZ,
        (Constraint("eq", P("eta^2 - 1")),),
    )
    entry = _FakeEntry("signs", spec)
    grid, points = default_grid(entry)
    assert (grid, points) == _default_grid_by_regeneration(entry, 200, 5000)
    assert grid.ladder == BASE_LADDER and points == [{"eta": F(-1)}, {"eta": F(1)}]


def test_default_grid_evaluates_each_candidate_at_most_twice(catalog, monkeypatch):
    """The g1 ladder is extended 134 times to reach 20,000 points; each step
    evaluates only its new candidates and the grid is generated once, so
    the constraint kernel runs at most twice per candidate of the final
    grid (g1 solves no equation: every kernel call tests one candidate)."""
    from wanas.poly import IntegerEvaluator

    calls = [0]
    original = IntegerEvaluator.__call__

    def counting(self, assignment):
        calls[0] += 1
        return original(self, assignment)

    monkeypatch.setattr(IntegerEvaluator, "__call__", counting)
    grid, points = default_grid(catalog.get_group("g1"), min_points=20000, max_points=100000)
    assert (len(grid.ladder), len(points)) == (141, 20022)
    candidates = len(grid.ladder) * (len(grid.ladder) + 1)  # alpha != 0; beta also takes 0
    assert candidates == len(points)
    assert calls[0] <= 2 * candidates


# -- classification -------------------------------------------------------------------------


def test_classify_g2_first_kind(catalog):
    entry = catalog.get_group("g2")
    _, points = default_grid(entry)
    claim = catalog.theorem_claim("g2", SolitonKind.FIRST)
    report = classify_grid(entry, SolitonKind.FIRST, points, claim)
    assert report.total == len(points)
    assert report.agreements == report.total
    solitons = [r for r in report.points if r.computed.outcome == "soliton"]
    assert solitons, "the soliton slice must be represented on the grid"
    for rec in solitons:
        assert rec.sigma["alpha"] == 0 and rec.sigma["beta"] == 0
        assert rec.computed.c == -2 * rec.sigma["gamma"] ** 2


def test_classify_g1_every_point_no_soliton(catalog):
    entry = catalog.get_group("g1")
    _, points = default_grid(entry)
    for kind in SolitonKind:
        claim = catalog.theorem_claim("g1", kind)
        report = classify_grid(entry, kind, points, claim)
        assert report.agreements == report.total
        assert all(r.computed.outcome == "no_soliton" for r in report.points)


def test_classify_detects_wrong_claim(catalog):
    entry = catalog.get_group("g2")
    _, points = default_grid(entry)
    wrong = dataclasses.replace(
        catalog.theorem_claim("g2", SolitonKind.FIRST), claim_type="no_soliton", cases=()
    )
    report = classify_grid(entry, SolitonKind.FIRST, points, wrong)
    assert report.disagreements


def test_classify_group_keeps_a_no_soliton_claim_apart_from_shared_cases(catalog):
    """A no_soliton claim that carries the cases of the other kind's claim
    matches none of them, in either order, as each kind alone does."""
    from wanas.verify import classify_group

    entry = catalog.get_group("g3")
    _, points = default_grid(entry)
    second = catalog.theorem_claim("g3", SolitonKind.SECOND)
    first = dataclasses.replace(catalog.theorem_claim("g3", SolitonKind.FIRST), claim_type="no_soliton")
    assert first.cases is second.cases
    alone = {kind: classify_grid(entry, kind, points, claim) for kind, claim in ((SolitonKind.FIRST, first), (SolitonKind.SECOND, second))}
    assert alone[SolitonKind.FIRST].disagreements and not alone[SolitonKind.SECOND].disagreements
    for order in ((SolitonKind.FIRST, SolitonKind.SECOND), (SolitonKind.SECOND, SolitonKind.FIRST)):
        claims = {kind: {SolitonKind.FIRST: first, SolitonKind.SECOND: second}[kind] for kind in order}
        assert classify_group(entry, points, claims) == tuple(alone[kind] for kind in order)


def test_only_g3_and_g5_second_kind_share_the_first_kinds_agreement(catalog):
    """Wan - W~an vanishes for g3 and g5 alone, and their same_as_first
    claims carry the first kind's cases: their second kind takes the first
    kind's agreement and compiles no decision rows of its own.  Every
    record keeps its own kind's claim, so its verdicts are of its kind."""
    from wanas.verify import _GroupKernel

    shared = []
    for gid in ALL_GROUPS:
        first, second = (catalog.theorem_claim(gid, kind) for kind in SolitonKind)
        kernel = _GroupKernel(catalog.get_group(gid).spec, [first, second])
        if kernel.shares == [0, 0]:
            shared.append(gid)
            assert [starts[1:3] for starts in kernel.claims] == [kernel.claims[0][1:3]] * 2
        else:
            assert kernel.shares == [0, 1], gid
        # the first kind's own claim for the second kind still decides apart where W~an != Wan
        borrowed = dataclasses.replace(second, claim_type=first.claim_type, cases=first.cases)
        assert _GroupKernel(catalog.get_group(gid).spec, [first, borrowed]).shares == kernel.shares
    assert shared == ["g3", "g5"]
    report = verify_paper(catalog, groups=("g3", "g5"))
    assert report.ok
    for classification in report.classifications:
        kind = classification.kind
        assert {rec._source[1].kind for rec in classification.points} == {kind}
        rec = classification.points[0]
        assert rec.computed.outcome == rec.expected.outcome


def test_group_kernel_reads_every_slope_from_one_bracket_block(catalog):
    """The decide block's rows: the constraints and the nine bracket
    components (the values ``spec._point_values`` gives), nine residual
    constants per deciding kind and the condition rows of each distinct
    cases object.  The solution block's: nine Wan entries per deciding kind
    and the solution rows of each distinct cases object.  No kind compiles
    a slope row of its own."""
    from wanas.soliton import residual_constants, wan_for_kind
    from wanas.verify import _GroupKernel

    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        claims = [catalog.theorem_claim(gid, kind) for kind in SolitonKind]
        kernel = _GroupKernel(entry.spec, claims)
        deciding = len(set(kernel.shares))
        layouts = {id(claim.cases): claim.layout for claim in claims}
        sigma = generate_grid(entry.spec, GridSpec(gid))[0]
        values, den = kernel.decide(sigma)
        bracket_block = len(entry.spec.constraints) + 9
        assert len(values) == bracket_block + 9 * deciding + sum(len(rows) for rows, _, _ in layouts.values()), gid
        own, own_den = entry.spec._point_values(sigma)
        assert [F(v, den) for v in values[:bracket_block]] == [F(v, own_den) for v in own], gid
        assert kernel.slopes == len(entry.spec.constraints)
        solution, solution_den = kernel.solve(sigma)
        assert len(solution) == 9 * deciding + sum(len(rows) for _, rows, _ in layouts.values()), gid
        for claim, constants, wan, _, _ in kernel.claims:
            matrix = wan_for_kind(entry.spec, claim.kind)
            expected = [p.evaluate(sigma) for p in residual_constants(entry.spec, matrix)]
            assert [F(v, den) for v in values[constants : constants + 9]] == expected, gid
            expected = [p.evaluate(sigma) for row in matrix for p in row]
            assert [F(v, solution_den) for v in solution[wan : wan + 9]] == expected, gid


@pytest.mark.parametrize("perturbed", [False, True], ids=["equal_cases", "c_plus_1_7"])
def test_a_second_claim_with_its_own_cases_keeps_its_own_agreement(catalog, perturbed):
    """A g5 second-kind claim whose cases are a separately built tuple, equal
    or with c + 1/7, shares nothing with the first kind: the planted wrong c
    disagrees at every g5 point (all lie in case i) in that kind only."""
    from wanas.verify import _GroupKernel, classify_group

    entry = catalog.get_group("g5")
    _, points = default_grid(entry)
    first = catalog.theorem_claim("g5", SolitonKind.FIRST)
    shift = F(1, 7) if perturbed else 0
    cases = tuple(dataclasses.replace(case, c=case.c + shift) for case in first.cases)
    assert cases is not first.cases and (cases != first.cases) == perturbed
    second = dataclasses.replace(catalog.theorem_claim("g5", SolitonKind.SECOND), cases=cases)
    assert _GroupKernel(entry.spec, [first, second]).shares == [0, 1]
    reports = classify_group(entry, points, {SolitonKind.FIRST: first, SolitonKind.SECOND: second})
    assert [r.total for r in reports] == [449, 449]
    assert reports[0].agreements == 449
    assert reports[1].agreements == (0 if perturbed else 449)
    assert reports == tuple(classify_grid(entry, kind, points, claim) for kind, claim in ((SolitonKind.FIRST, first), (SolitonKind.SECOND, second)))
    if perturbed:
        rec = reports[1].disagreements[0]
        assert rec.expected.c - rec.computed.c == F(1, 7)


def test_verify_paper_twice_in_one_process_gives_the_same_bytes(catalog):
    assert verify_paper(catalog).to_json() == verify_paper(catalog).to_json()


@pytest.mark.parametrize(
    "sigma",
    [
        {"alpha": F(1), "beta": F(0), "gamma": F(0), "delta": F(-1)},  # alpha + delta = 0
        {"alpha": F(1), "beta": F(1), "gamma": F(1), "delta": F(2)},  # alpha*gamma - beta*delta = -1
        {"alpha": F(1), "beta": F(0), "gamma": F(0), "delta": F(1), "c": F(0)},  # c is no parameter
    ],
    ids=["neq", "eq", "c"],
)
def test_classify_grid_refuses_an_inadmissible_point(catalog, sigma):
    """classify_grid raises with exactly validate_assignment's violations,
    for either kind, wherever the point sits in the list."""
    from wanas.algebra import InvalidAssignmentError

    entry = catalog.get_group("g6")
    expected = entry.spec.validate_assignment(sigma)
    assert expected
    good = default_grid(entry, min_points=2, max_points=2)[1]
    for kind in SolitonKind:
        with pytest.raises(InvalidAssignmentError) as err:
            classify_grid(entry, kind, [*good, sigma], catalog.theorem_claim("g6", kind))
        assert err.value.violations == tuple(expected)
        assert str(err.value) == "; ".join(expected)


def test_classify_grid_names_a_missing_variable(catalog):
    from wanas.poly import MissingVariableError

    entry = catalog.get_group("g6")
    sigma = {"alpha": F(1), "beta": F(0), "delta": F(1)}
    for kind in SolitonKind:
        with pytest.raises(MissingVariableError) as err:
            classify_grid(entry, kind, [sigma], catalog.theorem_claim("g6", kind))
        assert err.value.names == ("gamma",)


def test_classify_grid_refuses_overlapping_cases(catalog):
    """A claim with two cases matching one point raises AmbiguousCaseError
    naming both, through classify_grid as through predicate_eval."""
    from wanas.catalog import AmbiguousCaseError, TheoremClaim, predicate_eval

    entry = catalog.get_group("g2")
    base = catalog.theorem_claim("g2", SolitonKind.FIRST).cases[0]
    claim = TheoremClaim("g2", SolitonKind.FIRST, "cases", (base, dataclasses.replace(base, name="overlap")))
    sigma = {"alpha": F(0), "beta": F(0), "gamma": F(1)}
    with pytest.raises(AmbiguousCaseError) as direct:
        predicate_eval(claim, sigma)
    with pytest.raises(AmbiguousCaseError) as classified:
        classify_grid(entry, SolitonKind.FIRST, [{"alpha": F(1), "beta": F(1), "gamma": F(1)}, sigma], claim)
    assert direct.value.matched == classified.value.matched == ("i", "overlap")
    assert str(classified.value) == "g2 first: point matches cases i, overlap"
    # off the overlap the same claim classifies without complaint
    report = classify_grid(entry, SolitonKind.FIRST, [{"alpha": F(1), "beta": F(1), "gamma": F(1)}], claim)
    assert report.agreements == 1


def test_symbolic_evaluation_commutes_with_numeric_pipeline(catalog):
    """classify_grid evaluates the symbolic Wan at each point; that must agree
    with running the whole pipeline on the numeric algebra, and so must its
    agreement with the theorem."""
    from wanas.catalog import predicate_eval
    from wanas.poly import Poly
    from wanas.soliton import soliton_decide, wan_for_kind

    for gid in ("g2", "g4", "g6"):
        entry = catalog.get_group(gid)
        _, points = default_grid(entry)
        for kind in SolitonKind:
            wan_sym = wan_for_kind(entry.spec, kind)
            claim = catalog.theorem_claim(gid, kind)
            report = classify_grid(entry, kind, points[:8], claim)
            for sigma, rec in zip(points[:8], report.points):
                numeric = entry.spec.evaluate(sigma)
                direct = wan_for_kind(numeric, kind)
                for i in range(3):
                    for j in range(3):
                        assert direct[i][j] == Poly.const(wan_sym[i][j].evaluate(sigma))
                expected = predicate_eval(claim, sigma)
                assert rec.agree == verdicts_equal(soliton_decide(numeric, kind, direct), expected)


def test_classify_grid_equals_numeric_pipeline_at_height_points(catalog, height_points):
    """The integer kernel in classify_grid agrees exactly when soliton_decide
    on the full numeric pipeline and predicate_eval give equal verdicts,
    for every group and both kinds, at seeded points of height <= 1000
    with 0, negative values and the large solved coordinate."""
    from wanas.catalog import predicate_eval
    from wanas.soliton import soliton_decide, wan_for_kind

    outcomes = set()
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        points = height_points[gid]
        for kind in SolitonKind:
            claim = catalog.theorem_claim(gid, kind)
            report = classify_grid(entry, kind, points, claim)
            assert report.total == len(points)
            for sigma, rec in zip(points, report.points):
                numeric = entry.spec.evaluate(sigma)
                direct = soliton_decide(numeric, kind, wan_for_kind(numeric, kind))
                assert rec.agree == verdicts_equal(direct, predicate_eval(claim, sigma)), (gid, kind, sigma)
                outcomes.add(direct.outcome)
    assert outcomes == {"soliton", "no_soliton"}


def _decisions(entry, kind, points):
    """soliton_decide on the numeric algebra at each point."""
    from wanas.soliton import soliton_decide, wan_for_kind

    return [soliton_decide(numeric, kind, wan_for_kind(numeric, kind)) for numeric in map(entry.spec.evaluate, points)]


def _fraction_path(entry, kind, points, claim, decisions):
    """classify_grid's report built eagerly from the points' ``_decisions``:
    both verdicts as Fractions and verdicts_equal between them."""
    from wanas.catalog import predicate_eval
    from wanas.verify import ClassificationReport, PointRecord

    records = []
    for sigma, computed in zip(points, decisions):
        expected = predicate_eval(claim, sigma)
        records.append(PointRecord(dict(sigma), computed, expected, verdicts_equal(computed, expected)))
    return ClassificationReport(entry.id, kind, tuple(records))


def test_integer_agreement_equals_fraction_comparison(catalog, height_points):
    """classify_grid compares verdicts in integers; on every group and kind,
    at height points and on the default grids, that equals verdicts_equal on
    the verdicts the records build by soliton_decide and predicate_eval."""
    outcomes = collections.Counter()
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        _, grid_points = default_grid(entry)
        for kind in SolitonKind:
            claim = catalog.theorem_claim(gid, kind)
            for points in (height_points[gid], grid_points):
                report = classify_grid(entry, kind, points, claim)
                for rec in report.points:
                    assert rec.agree == verdicts_equal(rec.computed, rec.expected), (gid, kind, rec.sigma)
                    outcomes[rec.computed.outcome, rec.agree] += 1
    assert set(outcomes) == {("soliton", True), ("no_soliton", True), ("any_c", True)}


def _perturbations(case):
    """The case with c + 1/7, with D[0][1] + 1 and with D[1][1] + 1."""
    def bump(i, j):
        d = [list(row) for row in case.d]
        d[i][j] = d[i][j] + 1
        return dataclasses.replace(case, d=tuple(tuple(row) for row in d))

    return {
        "c + 1/7": dataclasses.replace(case, c=case.c + F(1, 7)),
        "D12 + 1": bump(0, 1),
        "D22 + 1": bump(1, 1),
    }


def test_integer_agreement_finds_perturbed_claims(catalog):
    """A wrong c, a wrong off-diagonal or diagonal D entry and a dropped
    case each disagree at every point of that case, with the report the
    Fraction comparison gives, on every group and kind with cases."""
    checked = 0
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        _, grid_points = default_grid(entry)
        for kind in SolitonKind:
            claim = catalog.theorem_claim(gid, kind)
            for index, case in enumerate(claim.cases):
                one = dataclasses.replace(claim, cases=(case,))
                matched = [one.case_at(one.evaluate(sigma)[0]) is not None for sigma in grid_points]
                hits = [sigma for sigma, hit in zip(grid_points, matched) if hit]
                if case.any_c or not hits:
                    continue
                # a sample of the case's points and of the rest
                hits = hits[:: 1 + len(hits) // 40]
                points = hits + [s for s, hit in zip(grid_points[::25], matched[::25]) if not hit]
                variants = {
                    name: claim.cases[:index] + (wrong,) + claim.cases[index + 1 :]
                    for name, wrong in _perturbations(case).items()
                }
                variants["dropped"] = claim.cases[:index] + claim.cases[index + 1 :]
                decisions = _decisions(entry, kind, points)
                for name, cases in variants.items():
                    wrong_claim = dataclasses.replace(claim, cases=cases)
                    report = classify_grid(entry, kind, points, wrong_claim)
                    expected = _fraction_path(entry, kind, points, wrong_claim, decisions)
                    assert report.to_json_dict() == expected.to_json_dict(), (gid, kind, case.name, name)
                    assert len(report.disagreements) == len(hits), (gid, kind, case.name, name)
                    checked += 1
    assert checked == 4 * 26


def test_integer_agreement_checks_the_whole_any_c_family(catalog):
    """The family D(c) = Wan - c*Id is compared in every power of c: a
    claimed -c^2*Id equals -c*Id at c = 0 and c = 1 but disagrees, as the
    Fraction comparison says; a wrong constant term disagrees too."""
    entry = catalog.get_group("g3")
    claim = catalog.theorem_claim("g3", SolitonKind.FIRST)
    index = next(k for k, case in enumerate(claim.cases) if case.any_c)
    c = Poly.var("c")
    origin = {"alpha": F(0), "beta": F(0), "gamma": F(0)}
    for name, entry_d in (("claimed", -c), ("c^2", -c * c), ("shifted", 1 - c)):
        d = tuple(tuple(entry_d if i == j else Poly.zero() for j in range(3)) for i in range(3))
        cases = list(claim.cases)
        cases[index] = dataclasses.replace(cases[index], d=d)
        wrong = dataclasses.replace(claim, cases=tuple(cases))
        (rec,) = classify_grid(entry, SolitonKind.FIRST, [origin], wrong).points
        assert rec.computed.outcome == rec.expected.outcome == "any_c"
        assert rec.agree == verdicts_equal(rec.computed, rec.expected) == (name == "claimed"), name


def test_a_case_of_the_other_outcome_disagrees(catalog):
    """A case whose c is unique where every c solves, or the reverse, is a
    disagreement read off the decide block alone.  At the g3 origin
    (every c) the any_c case becomes a last case with c = 0 and D = 0 but
    for D[2][2] = -1, whose rows, read as a family D(c), would run past the
    solution block; on g2's soliton slice (one c) its case claims
    D(c) = -c*Id for every c."""
    d = tuple(tuple(Poly.const(-1 if i == j == 2 else 0) for j in range(3)) for i in range(3))
    claim = catalog.theorem_claim("g3", SolitonKind.FIRST)
    any_c = next(case for case in claim.cases if case.any_c)
    one_c = dataclasses.replace(any_c, any_c=False, c=Poly.zero(), d=d)
    wrong = dataclasses.replace(claim, cases=tuple(case for case in claim.cases if not case.any_c) + (one_c,))
    origin = {"alpha": F(0), "beta": F(0), "gamma": F(0)}
    (rec,) = classify_grid(catalog.get_group("g3"), SolitonKind.FIRST, [origin], wrong).points
    assert (rec.computed.outcome, rec.expected.outcome, rec.agree) == ("any_c", "soliton", False)
    entry = catalog.get_group("g2")
    claim = catalog.theorem_claim("g2", SolitonKind.FIRST)
    minus_c = tuple(tuple(-Poly.var("c") if i == j else Poly.zero() for j in range(3)) for i in range(3))
    every_c = tuple(dataclasses.replace(case, any_c=True, c=None, d=minus_c) for case in claim.cases)
    report = classify_grid(entry, SolitonKind.FIRST, default_grid(entry)[1], dataclasses.replace(claim, cases=every_c))
    assert report.disagreements and all(
        (rec.computed.outcome, rec.expected.outcome) == ("soliton", "any_c") for rec in report.disagreements
    )


def _with_entry(d, i, j, p):
    """D with its (i, j) entry replaced by p."""
    return tuple(tuple(p if (r, k) == (i, j) else x for k, x in enumerate(row)) for r, row in enumerate(d))


def test_verdicts_equal_semantics():
    """verdicts_equal compares outcome, c and every D entry, and never the witness."""
    c = Poly.var("c")
    d = tuple(tuple(Poly.const(F(i + 1, 2)) if i == j else Poly.zero() for j in range(3)) for i in range(3))
    soliton = SolitonVerdict("soliton", c=F(1), d=d)
    any_c = SolitonVerdict("any_c", d=tuple(tuple(-c if i == j else Poly.zero() for j in range(3)) for i in range(3)))
    none = SolitonVerdict("no_soliton")
    flat, sloped = AffineEquation((0, 1), 0, F(1), F(0)), AffineEquation((0, 2), 1, F(2), F(-1))
    equal = [
        (soliton, SolitonVerdict("soliton", c=F(1), d=tuple(map(tuple, d)))),
        (soliton, dataclasses.replace(soliton, witness=(sloped,))),
        (any_c, dataclasses.replace(any_c, witness=(flat,))),
        (none, SolitonVerdict("no_soliton", witness=(flat, sloped))),
        (SolitonVerdict("no_soliton", witness=(flat,)), SolitonVerdict("no_soliton", witness=(sloped,))),
    ]
    unequal = [
        (soliton, none),
        (any_c, none),
        (any_c, dataclasses.replace(any_c, outcome="soliton")),
        (soliton, dataclasses.replace(soliton, c=F(2))),
        (soliton, dataclasses.replace(soliton, d=_with_entry(d, 2, 2, Poly.const(F(3, 2)) + 1))),
        (soliton, dataclasses.replace(soliton, d=_with_entry(d, 0, 1, Poly.const(F(1, 7))))),
        (any_c, dataclasses.replace(any_c, d=_with_entry(any_c.d, 1, 1, 1 - c))),
        (any_c, dataclasses.replace(any_c, d=_with_entry(any_c.d, 2, 0, c))),
    ]
    for a, b in equal:
        assert verdicts_equal(a, b) and verdicts_equal(b, a), (a, b)
    for a, b in unequal:
        assert not verdicts_equal(a, b) and not verdicts_equal(b, a), (a, b)


# -- theorem case checks ---------------------------------------------------------------------


def test_theorem_cases_all_pass(catalog):
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        for kind in SolitonKind:
            claim = catalog.theorem_claim(gid, kind)
            for report in check_theorem_cases(entry, kind, claim):
                assert report.verdict == MATCH, (gid, kind, report.location, report.computed)


def test_theorem_case_check_detects_corrupted_any_c_case(catalog):
    """The abelian case claims Wan = c*Id + D(c) with D(c) a derivation for
    every c: a wrong D(c), or the case on a non-abelian algebra, fails."""
    entry = catalog.get_group("g3")
    claim = catalog.theorem_claim("g3", SolitonKind.FIRST)
    index, case = next((n, case) for n, case in enumerate(claim.cases) if case.any_c)
    d = [list(row) for row in case.d]
    d[0][0] = d[0][0] + 1
    wrong_d = dataclasses.replace(case, d=tuple(tuple(row) for row in d))
    not_abelian = dataclasses.replace(case, subs=case.subs[:1])
    for wrong, message in ((wrong_d, "Wan - (c*Id + D) nonzero at (1,1)"), (not_abelian, "derivation residual")):
        wrong_claim = dataclasses.replace(claim, cases=(wrong,))
        (report,) = check_theorem_cases(entry, SolitonKind.FIRST, wrong_claim)
        assert report.verdict == MISMATCH and message in report.computed, report.computed
    (report,) = check_theorem_cases(entry, SolitonKind.FIRST, dataclasses.replace(claim, cases=(case,)))
    assert report.verdict == MATCH


def test_theorem_case_substitution_equals_recomputation(catalog):
    """Substituting each case, then each branch, into the group's decision
    operator from the tensor pipeline equals the operator that
    check_theorem_cases evaluates on the substituted algebra, for every
    group, kind, case and branch."""
    from wanas.geometry import mat_substitute
    from wanas.soliton import wan_for_kind

    checked = 0
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        bundle = compute_tensors(entry.spec)
        for kind in SolitonKind:
            group_wan = bundle.wan if kind is SolitonKind.FIRST else bundle.wan_tilde
            for case in catalog.theorem_claim(gid, kind).cases:
                subs = case.subs_map()
                for branch in case.branch_maps():
                    spec = entry.spec.substitute(subs).substitute(branch)
                    substituted = mat_substitute(mat_substitute(group_wan, subs), branch)
                    assert substituted == wan_for_kind(spec, kind), (gid, kind, case.name, branch)
                    checked += 1
    assert checked == 32


def test_theorem_case_check_detects_corruption(catalog):
    entry = catalog.get_group("g2")
    claim = catalog.theorem_claim("g2", SolitonKind.FIRST)
    case = claim.cases[0]
    wrong_case = dataclasses.replace(case, c=P("-3*gamma^2"))
    wrong_claim = dataclasses.replace(claim, cases=(wrong_case,))
    reports = check_theorem_cases(entry, SolitonKind.FIRST, wrong_claim)
    assert reports[0].verdict == MISMATCH


# -- full report ------------------------------------------------------------------------------


def test_verify_paper_restricted_run(catalog):
    report = verify_paper(catalog, groups=("g1", "g4"))
    assert report.ok
    assert report.groups == ("g1", "g4")
    assert not report.mismatches
    assert {c.group for c in report.classifications} == {"g1", "g4"}
    data = report.to_json_dict()
    assert data["summary"]["ok"] is True
    assert data["summary"]["mismatch"] == 0
    assert set(data) == {"version", "catalog_checksum", "groups", "classifications", "summary"}


def test_verify_paper_report_deterministic(catalog):
    a = verify_paper(catalog, groups=("g4",)).to_json()
    b = verify_paper(catalog, groups=("g4",)).to_json()
    assert a == b


def test_verify_paper_text_summary(catalog):
    report = verify_paper(catalog, groups=("g5",))
    text = report.to_text()
    assert "all checks passed" in text
    assert "classification g5 first kind" in text


def test_verify_paper_custom_ladder(catalog):
    ladder = (F(1), F(-1), F(2), F(-2), F(3), F(1, 2))
    report = verify_paper(catalog, groups=("g2",), ladder=ladder)
    assert report.ok
    for c in report.classifications:
        assert c.total > 0


def test_verify_paper_per_point_path_makes_no_poly_evaluate_call(catalog, monkeypatch):
    """Validation, theorem predicates and grid solving run on compiled
    integer kernels: a full run calls Poly.evaluate from none of them."""
    watched = {"validate_assignment", "predicate_eval", "generate_grid"}
    calls = collections.Counter()
    original = Poly.evaluate

    def counting(self, assignment):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name in watched:
                calls[frame.f_code.co_name] += 1
            frame = frame.f_back
        return original(self, assignment)

    monkeypatch.setattr(Poly, "evaluate", counting)
    report = verify_paper(catalog)
    assert report.ok
    assert sum(c.total for c in report.classifications) == 6246
    assert calls == collections.Counter()


def test_verify_paper_computes_each_catalog_spec_tensors_once(catalog, monkeypatch):
    """Reproduction computes one tensor bundle per group; the theorem cases
    and grid decisions evaluate the Wan forms and compute none.  The forms
    are derived once per process, so they are derived before counting."""
    from wanas import geometry as geometry_module
    from wanas import soliton as soliton_module
    from wanas.algebra import LORENTZ

    geometry_module.wan_forms(LORENTZ)
    calls = collections.Counter()
    original = compute_tensors

    def counting(spec, *args, **kwargs):
        calls[id(spec)] += 1
        return original(spec, *args, **kwargs)

    for module in (geometry_module, verify_module, soliton_module):
        monkeypatch.setattr(module, "compute_tensors", counting, raising=False)
    report = verify_paper(catalog)
    assert report.ok
    assert [calls[id(catalog.get_group(gid).spec)] for gid in ALL_GROUPS] == [1] * 7
    assert sum(calls.values()) == 7  # no theorem case or branch recomputes the tensors


def _count_claim_kernel(monkeypatch, count):
    """Make every call of a TheoremClaim's compiled kernel call ``count``
    first, on claims compiled before as after."""
    from wanas.catalog import TheoremClaim

    compiled = TheoremClaim.evaluate

    def evaluate(claim):
        kernel = compiled.__get__(claim, TheoremClaim)

        def counted(sigma):
            count()
            return kernel(sigma)

        return counted

    monkeypatch.setattr(TheoremClaim, "evaluate", property(evaluate))


def _count_block_calls(monkeypatch):
    """Record every ``_GroupKernel`` built from now on, and, once a run is
    over, the calls of each one's decide and solution block in ``blocks``
    (one (decide, solution) pair per kernel).  Calls are counted per
    evaluator object, so an evaluator freed early shares no count."""
    from wanas.poly import IntegerEvaluator

    kernels, calls, blocks = [], collections.Counter(), []
    original_call, original_init = IntegerEvaluator.__call__, verify_module._GroupKernel.__init__

    def call(self, assignment):
        calls[self] += 1
        return original_call(self, assignment)

    def init(self, *args):
        original_init(self, *args)
        kernels.append(self)

    def counts():
        blocks[:] = [(calls[k.decide], calls[vars(k)["solve"]] if "solve" in vars(k) else 0) for k in kernels]

    monkeypatch.setattr(IntegerEvaluator, "__call__", call)
    monkeypatch.setattr(verify_module._GroupKernel, "__init__", init)
    for name in ("classify_group", "classify_ladder"):

        def classify(*args, original=getattr(verify_module, name)):
            try:
                return original(*args)
            finally:
                counts()

        monkeypatch.setattr(verify_module, name, classify)
    return kernels, blocks


def test_solution_block_is_evaluated_only_at_points_in_a_case(monkeypatch):
    """One verify_paper run evaluates each group's decide block once per
    grid candidate, which it also admits: at every grid point (3,123 in
    all) and at the 343 candidates of g5-g7 that alpha + delta != 0 rejects,
    and nowhere else.  Its solution block only at the 660 points where some
    kind has a matching case and a feasible system; g1, whose claims have
    no case, compiles no solution block.  A fresh catalog, so that each
    claim's layout is built in the run."""
    kernels, blocks = _count_block_calls(monkeypatch)
    report = verify_paper(load_catalog())
    assert report.ok
    totals = [c.total for c in report.classifications[::2]]
    assert totals == [210, 448, 512, 200, 449, 456, 848]
    assert blocks == list(zip([210, 448, 512, 200, 449 + 119, 456 + 112, 848 + 112], [0, 7, 85, 6, 449, 57, 56]))
    assert sum(totals) == 3123 and sum(solved for _, solved in blocks) == 660
    assert "solve" not in vars(kernels[0]) and all("solve" in vars(k) for k in kernels[1:])


def test_a_wrong_diagonal_d_entry_disagrees_exactly_at_its_cases_points(catalog):
    """g6 case ii with D[0][0] + 1 in both kinds' claims disagrees at exactly
    the grid points of that case (beta = gamma = 0, delta != 0), in each
    kind, and the solution block finds it."""
    from wanas.verify import classify_group

    entry = catalog.get_group("g6")
    _, points = default_grid(entry)
    claims = {}
    for kind in SolitonKind:
        claim = catalog.theorem_claim("g6", kind)
        index = next(k for k, case in enumerate(claim.cases) if case.name == "ii")
        d = [list(row) for row in claim.cases[index].d]
        d[0][0] += 1
        wrong = dataclasses.replace(claim.cases[index], d=tuple(map(tuple, d)))
        claims[kind] = dataclasses.replace(claim, cases=claim.cases[:index] + (wrong,) + claim.cases[index + 1 :])
    in_case = [s for s in points if s["beta"] == s["gamma"] == 0 and s["delta"] != 0 and s["alpha"] + s["delta"] != 0]
    assert in_case
    for report in classify_group(entry, points, claims):
        assert [rec.sigma for rec in report.disagreements] == in_case, report.kind
        assert all(rec.expected.d[0][0] - rec.computed.d[0][0] == 1 for rec in report.disagreements)


def test_classification_evaluates_one_kernel_per_point(catalog, monkeypatch):
    """verify_paper admits and classifies both kinds of a grid point with
    one call of the group's decide block, and calls its solution block only
    at the 85 g3 points in a case; it calls no claim kernel, no admission
    block and no predicate_eval, and validates no point on the way: those
    are the only kernel calls of the run."""
    from wanas.algebra import LieAlgebraSpec
    from wanas.poly import IntegerEvaluator

    calls = collections.Counter()
    stage = ["run"]

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[stage[0], name] += 1
            return original(*args, **kwargs)

        return wrapper

    def staged(name, original):
        def wrapper(*args, **kwargs):
            outer, stage[0] = stage[0], name
            try:
                return original(*args, **kwargs)
            finally:
                stage[0] = outer

        return wrapper

    kernels, blocks = _count_block_calls(monkeypatch)
    monkeypatch.setattr(IntegerEvaluator, "__call__", counted("kernel", IntegerEvaluator.__call__))
    _count_claim_kernel(monkeypatch, counted("claim_kernel", lambda: None))
    monkeypatch.setattr(verify_module, "predicate_eval", counted("predicate_eval", verify_module.predicate_eval))
    monkeypatch.setattr(
        LieAlgebraSpec, "validate_assignment", counted("validate", LieAlgebraSpec.validate_assignment)
    )
    for name in ("default_grid", "classify_ladder"):
        monkeypatch.setattr(verify_module, name, staged(name, getattr(verify_module, name)))
    report = verify_paper(catalog, groups=("g3",))
    assert report.ok
    assert [c.total for c in report.classifications] == [512, 512]
    assert blocks == [(512, 85)] and len(kernels) == 1
    assert calls == {("classify_ladder", "kernel"): 512 + 85}
    assert "claim_kernel" not in {name for _, name in calls}


def test_verify_paper_ladder_classifies_as_classify_grid(catalog):
    """The --grid-ladder path classifies both kinds together exactly as the
    one-kind classify_grid does for each kind."""
    ladder = (F(-1), F(1, 2), F(2))
    groups = ("g3", "g4", "g6")
    report = verify_paper(catalog, groups=groups, ladder=ladder)
    expected = []
    for gid in groups:
        entry = catalog.get_group(gid)
        points = generate_grid(entry.spec, GridSpec(gid, ladder))
        for kind in SolitonKind:
            expected.append(classify_grid(entry, kind, points, catalog.theorem_claim(gid, kind)))
    assert report.classifications == tuple(expected)
    assert {r.computed.outcome for c in report.classifications for r in c.points} == {
        "soliton",
        "no_soliton",
        "any_c",
    }


def test_verify_paper_builds_verdicts_only_when_read(catalog, monkeypatch):
    """The run compares in integers and keeps no verdict: no Fraction
    verdict is built and no theorem predicate evaluated until a record is
    read."""
    calls = collections.Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(verify_module, "soliton_decide", counted("soliton_decide", verify_module.soliton_decide))
    monkeypatch.setattr(verify_module, "predicate_eval", counted("predicate_eval", verify_module.predicate_eval))
    _count_claim_kernel(monkeypatch, counted("claim_kernel", lambda: None))
    report = verify_paper(catalog, groups=("g2", "g5"))
    assert report.ok
    assert calls == collections.Counter()

    soliton_point = {"alpha": F(0), "beta": F(0), "gamma": F(1)}
    rec = next(r for r in report.classifications[0].points if r.sigma == soliton_point)
    assert rec.computed.outcome == "soliton"
    assert calls == collections.Counter(soliton_decide=1)
    assert rec.computed == rec.expected  # the first read is kept
    assert calls == collections.Counter(soliton_decide=1, predicate_eval=1, claim_kernel=1)
    rec.computed, rec.expected
    assert calls == collections.Counter(soliton_decide=1, predicate_eval=1, claim_kernel=1)


def test_point_record_given_verdicts_keeps_fields_and_equality(catalog):
    """A record made from its four fields reads them back and compares equal
    to the record classify_grid builds at the same point."""
    from wanas.verify import PointRecord

    entry = catalog.get_group("g2")
    claim = catalog.theorem_claim("g2", SolitonKind.FIRST)
    sigma = {"alpha": F(0), "beta": F(0), "gamma": F(2)}
    lazy = classify_grid(entry, SolitonKind.FIRST, [sigma], claim).points[0]
    computed = SolitonVerdict("soliton", c=F(-8), d=lazy.computed.d)
    given = PointRecord(dict(sigma), computed, lazy.expected, True)
    assert (given.sigma, given.computed, given.expected, given.agree) == (
        sigma,
        computed,
        lazy.expected,
        True,
    )
    assert given == lazy and lazy == given
    assert given != PointRecord(dict(sigma), computed, lazy.expected, False)
    assert given != PointRecord(dict(sigma), SolitonVerdict("no_soliton"), lazy.expected, True)
    assert "c=Fraction(-8, 1)" in repr(given)


def test_verify_paper_verifies_a_repeated_group_once(catalog):
    once = verify_paper(catalog, groups=("g1",))
    twice = verify_paper(catalog, groups=("g1", "g4", "g1"))
    assert twice.groups == ("g1", "g4")
    assert twice.to_json_dict()["groups"][0] == once.to_json_dict()["groups"][0]
    assert twice.classifications[:2] == once.classifications


def test_verify_paper_reads_group_ids_as_the_catalog_does(catalog, monkeypatch):
    """``G1`` names g1, so ``["G1", "g1"]`` is one g1 block; an unknown id is
    refused before any group is verified."""
    assert verify_paper(catalog, groups=["G1", "g1"]).to_json() == verify_paper(catalog, groups=["g1"]).to_json()
    calls = collections.Counter()
    monkeypatch.setattr(verify_module, "reproduce_group", lambda entry: calls.update([entry.id]) or [])
    with pytest.raises(CatalogError, match="unknown group 'g9'"):
        verify_paper(catalog, groups=["g1", "g9"])
    assert calls == collections.Counter()


def test_point_records_of_one_source_compare_without_building_verdicts(catalog, monkeypatch):
    """Records of the same spec and claim objects compare by sigma and agree
    alone; records of equal but distinct sources build and compare verdicts."""
    from wanas.verify import PointRecord

    calls = collections.Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("soliton_decide", "predicate_eval"):
        monkeypatch.setattr(verify_module, name, counted(name, getattr(verify_module, name)))
    entry, kind = catalog.get_group("g2"), SolitonKind.FIRST
    claim = catalog.theorem_claim("g2", kind)
    _, points = default_grid(entry, min_points=40, max_points=40)
    report = classify_grid(entry, kind, points, claim)
    assert report == classify_grid(entry, kind, points, claim)
    first, second = report.points[:2]
    assert first != second
    assert first != PointRecord(dict(first.sigma), None, None, not first.agree, (entry.spec, claim))
    assert first == PointRecord(dict(first.sigma), None, None, first.agree, (entry.spec, claim))
    assert calls == collections.Counter()
    fresh = load_catalog()
    assert report == classify_grid(fresh.get_group("g2"), kind, points, fresh.theorem_claim("g2", kind))
    assert calls == collections.Counter(soliton_decide=2 * len(points), predicate_eval=2 * len(points))
