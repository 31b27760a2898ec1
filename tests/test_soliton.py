"""Soliton decision procedure: derivation residuals, the affine-in-c solve,
symbolic residual systems, and claimed-solution checking."""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction
from typing import Mapping, Sequence

import pytest

from wanas import geometry
from wanas.algebra import LORENTZ, LieAlgebraSpec, MetricSignature, vec3
from wanas.catalog import ALL_GROUPS
from wanas.geometry import compute_tensors, mat_sub, scalar_matrix
from wanas.poly import Poly, parse_poly
from wanas.soliton import (
    AffineEquation,
    SolitonKind,
    check_claimed_solution,
    derivation_residual,
    residual_constants,
    residual_system,
    solve_affine,
    soliton_decide,
    wan_for_kind,
)

from matrix_helpers import generic_two_bracket_specs

P = parse_poly
F = Fraction


def abelian_spec() -> LieAlgebraSpec:
    zero = vec3(0, 0, 0)
    return LieAlgebraSpec((zero, zero, zero), LORENTZ)


def split_in_c(equations: Sequence[Poly]) -> list[tuple[Poly, Poly]]:
    """Each equation of a system affine in c as its (constant, slope) pair of
    polynomials in the parameters."""
    pairs = []
    for eq in equations:
        if eq.degree_in("c") > 1:
            raise ValueError(f"equation is not affine in c: {eq}")
        at0 = eq.substitute({"c": 0})
        pairs.append((at0, eq.substitute({"c": 1}) - at0))
    return pairs


def solve_split_in_c(pairs: Sequence[tuple[Poly, Poly]], sigma: Mapping[str, Fraction]):
    """Solution set in c of split_in_c's pairs at the point sigma: ("any",
    None), ("one", c), or ("none", None)."""
    values = [(a.evaluate(sigma), b.evaluate(sigma)) for a, b in pairs]
    outcome, witness = solve_affine(values)
    return (outcome, -values[witness[0]][0] / values[witness[0]][1] if outcome == "one" else None)


def solve_affine_in_c(equations: Sequence[Poly], sigma: Mapping[str, Fraction]):
    """Solution set in c of a system affine in c, at the point sigma.

    Returns ("any", None), ("one", c), or ("none", None).  Used to compare a
    residual system against an independently printed system at sampled points.
    """
    return solve_split_in_c(split_in_c(equations), sigma)


def numeric_matrix(rows):
    return tuple(tuple(Poly.const(x) for x in row) for row in rows)


def decide_at(entry, kind, sigma):
    numeric = entry.spec.evaluate(sigma)
    wan = wan_for_kind(numeric, kind)
    return soliton_decide(numeric, kind, wan)


# -- derivation residual -----------------------------------------------------------


def test_derivation_residual_abelian_always_zero():
    d = numeric_matrix(((1, 2, 3), (4, 5, 6), (7, 8, 9)))
    res = derivation_residual(d, abelian_spec())
    assert all(p.is_zero() for v in res for p in v)


def test_derivation_residual_g2_diagonal_derivation(groups):
    numeric = groups["g2"].spec.evaluate({"alpha": F(0), "beta": F(0), "gamma": F(1)})
    d = numeric_matrix(((0, 0, 0), (0, 1, 0), (0, 0, 2)))
    res = derivation_residual(d, numeric)
    assert all(p.is_zero() for v in res for p in v)


def test_derivation_residual_g2_non_derivation(groups):
    numeric = groups["g2"].spec.evaluate({"alpha": F(0), "beta": F(0), "gamma": F(1)})
    d = numeric_matrix(((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    res = derivation_residual(d, numeric)
    # D[e1,e2] - [De1,e2] - [e1,De2] = -e2 for [e1,e2] = e2
    assert res[0] == vec3(0, -1, 0)


def test_derivation_residual_is_linear(groups):
    rng = random.Random(777)
    numeric = groups["g1"].spec.evaluate({"alpha": F(2), "beta": F(-1)})
    def rand_mat():
        return numeric_matrix(
            tuple(tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)) for _ in range(3))
        )
    for _ in range(25):
        d1, d2 = rand_mat(), rand_mat()
        both = tuple(
            tuple(d1[i][j] + d2[i][j] for j in range(3)) for i in range(3)
        )
        r1 = derivation_residual(d1, numeric)
        r2 = derivation_residual(d2, numeric)
        r12 = derivation_residual(both, numeric)
        for v1, v2, v12 in zip(r1, r2, r12):
            for a, b, ab in zip(v1, v2, v12):
                assert ab == a + b


# -- soliton_decide ------------------------------------------------------------------


def test_decide_g2_point_first_kind(groups):
    verdict = decide_at(groups["g2"], SolitonKind.FIRST, {"alpha": F(0), "beta": F(0), "gamma": F(1)})
    assert verdict.outcome == "soliton"
    assert verdict.c == F(-2)
    assert verdict.d == ((F(0),) * 3, (F(0), F(1), F(0)), (F(0), F(0), F(2)))


def test_decide_g1_no_soliton_with_witness(groups):
    verdict = decide_at(groups["g1"], SolitonKind.FIRST, {"alpha": F(1), "beta": F(1)})
    assert verdict.outcome == "no_soliton"
    assert len(verdict.witness) == 2
    eq1, eq2 = verdict.witness
    # the witness pair really is contradictory: different unique roots
    assert eq1.slope and eq2.slope
    assert -eq1.constant / eq1.slope != -eq2.constant / eq2.slope


def test_decide_abelian_any_c(groups):
    verdict = decide_at(
        groups["g3"], SolitonKind.FIRST, {"alpha": F(0), "beta": F(0), "gamma": F(0)}
    )
    assert verdict.outcome == "any_c"
    c = Poly.var("c")
    assert verdict.d[0][0] == -c
    assert verdict.d[0][1] == Poly.zero()


def test_decide_g5_point(groups):
    verdict = decide_at(
        groups["g5"],
        SolitonKind.FIRST,
        {"alpha": F(1), "beta": F(0), "gamma": F(0), "delta": F(1)},
    )
    assert verdict.outcome == "soliton"
    assert verdict.c == F(2)
    assert verdict.d == ((F(-2), F(0), F(0)), (F(0), F(-2), F(0)), (F(0),) * 3)


def test_decide_soundness_resubstitution(groups):
    """Whenever a soliton is reported, Wan = c*Id + D and D is a derivation."""
    points = {
        "g2": {"alpha": F(0), "beta": F(0), "gamma": F(-3)},
        "g4": {"alpha": F(0), "beta": F(1), "eta": F(1)},
        "g5": {"alpha": F(1), "beta": F(1), "gamma": F(2), "delta": F(-2)},
        "g7": {"alpha": F(0), "beta": F(2), "gamma": F(0), "delta": F(1)},
    }
    for gid, sigma in points.items():
        entry = groups[gid]
        for kind in SolitonKind:
            numeric = entry.spec.evaluate(sigma)
            wan = wan_for_kind(numeric, kind)
            verdict = soliton_decide(numeric, kind, wan)
            assert verdict.outcome == "soliton", (gid, kind)
            d_polys = verdict.d
            assert all(p.is_constant() for row in d_polys for p in row)
            resid = derivation_residual(d_polys, numeric)
            assert all(p.is_zero() for v in resid for p in v)
            for i in range(3):
                for j in range(3):
                    assert d_polys[i][j] + (verdict.c if i == j else 0) == wan[i][j]


def test_decide_flat_infeasible_equation_witness():
    # [e1,e2] = e3 with the operator e3 -> e1: the residual of D = W - c*Id
    # at (e1,e2) is e1 + c*e3, whose e1 component 1 = 0 has no c in it at all
    spec = LieAlgebraSpec(
        (vec3(0, 0, 1), vec3(0, 0, 0), vec3(0, 0, 0)),
        LORENTZ,
    )
    wan = numeric_matrix(((0, 0, 0), (0, 0, 0), (1, 0, 0)))
    verdict = soliton_decide(spec, SolitonKind.FIRST, wan)
    assert verdict.outcome == "no_soliton"
    assert any(eq.slope == 0 and eq.constant for eq in verdict.witness)


def test_solve_affine_outcomes_and_witnesses():
    # "one" names the equation that fixes the root, here 2 - x = 0, and forms no root
    assert solve_affine([(F(2), F(-1)), (F(0), F(0)), (F(4), F(-2))]) == ("one", (0,))
    assert solve_affine([(F(0), F(0))] * 3) == ("any", ())
    assert solve_affine([]) == ("any", ())
    # the first two flat contradictions, when nothing is sloped
    assert solve_affine([(F(1), F(0)), (F(0), F(0)), (F(2), F(0)), (F(3), F(0))]) == ("none", (0, 2))
    assert solve_affine([(F(0), F(0)), (F(1), F(0))]) == ("none", (1,))
    # the first sloped equation and the first one disagreeing with it, before any flat one
    assert solve_affine([(F(1), F(0)), (F(1), F(1)), (F(2), F(2)), (F(1), F(2))]) == ("none", (1, 3))
    # else the first flat contradiction and the first sloped equation
    assert solve_affine([(F(1), F(1)), (F(5), F(0))]) == ("none", (1, 0))


def two_list_solve(pairs):
    """Reference: the solver as two index lists over all pairs (sloped
    equations, flat contradictions), decided after both are built."""
    sloped = [k for k, (_, slope) in enumerate(pairs) if slope]
    flat_bad = [k for k, (constant, slope) in enumerate(pairs) if constant and not slope]
    if not sloped:
        return ("none", tuple(flat_bad[:2])) if flat_bad else ("any", ())
    first = sloped[0]
    constant, slope = pairs[first]
    for k in sloped[1:]:
        if pairs[k][0] * slope != constant * pairs[k][1]:
            return ("none", (first, k))
    if flat_bad:
        return ("none", (flat_bad[0], first))
    return ("one", (first,))


def test_solve_affine_integer_pairs_over_common_denominator():
    """Integer numerators over a shared positive denominator decide exactly
    like the Fractions they stand for: same outcome and witness.  The
    one-pass solver equals the two-list reference on every system, on each
    of its prefixes and on each of its pairs alone."""
    rng = random.Random(31337)
    outcomes = set()
    for _ in range(500):
        x = F(rng.randint(-5, 5), rng.randint(1, 4))
        pairs = []
        for _ in range(rng.randint(0, 9)):
            pick = rng.random()
            if pick < 0.3:
                pairs.append((0, 0))
            elif pick < 0.4:
                pairs.append((rng.choice((-3, 2, 7)), 0))
            elif pick < 0.9:
                m = rng.choice((-6, -1, 1, 2, 5))
                pairs.append((-x.numerator * m, x.denominator * m))
            else:
                pairs.append((rng.randint(-9, 9), rng.randint(-9, 9)))
        den = rng.randint(1, 60)
        result = solve_affine(pairs)
        for system in [pairs[:n] for n in range(len(pairs) + 1)] + [[pair] for pair in pairs]:
            assert solve_affine(system) == two_list_solve(system), system
        assert result == solve_affine([(F(a, den), F(b, den)) for a, b in pairs])
        outcome, witness = result
        if outcome == "any":
            assert affine_roots(pairs) is None
        elif outcome == "one":
            assert affine_roots(pairs) == {F(-pairs[witness[0]][0], pairs[witness[0]][1])}
        else:
            contradiction = affine_roots([pairs[k] for k in witness])
            assert contradiction is not None and len(contradiction) != 1
        outcomes.add(outcome)
    assert outcomes == {"one", "any", "none"}


def affine_roots(pairs):
    """Oracle: the solutions of a + b*x = 0 for all pairs as a set of
    candidate roots (infeasible when empty or larger than one), None for all x."""
    if any(a and not b for a, b in pairs):
        return set()
    roots = {F(-a, b) for a, b in pairs if b}
    return roots or None


def test_affine_equation_describe():
    def text(constant, slope):
        return AffineEquation((0, 1), 2, F(constant), F(slope)).describe()

    assert text(2, 1) == "residual(e1,e2)[e3]: 2 + c = 0"
    assert text(2, -1) == "residual(e1,e2)[e3]: 2 - c = 0"
    assert text(F(1, 2), F(-3, 2)) == "residual(e1,e2)[e3]: 1/2 - 3/2*c = 0"
    assert text(-1, 0) == "residual(e1,e2)[e3]: -1 = 0"


# -- residual systems -----------------------------------------------------------------


def test_residual_system_affine_in_c(groups):
    for entry in groups.values():
        for kind in SolitonKind:
            for eq in residual_system(entry.spec, kind):
                assert eq.degree_in("c") <= 1


def written_out_affine_pairs(spec, wan):
    """The nine (constant, slope) pairs written out from the three upper
    brackets, independently of ``derivation_residual``: substituting
    D = Wan - c*Id into D[e_i,e_j] - [D e_i, e_j] - [e_i, D e_j] leaves
    constant + slope*c, and the slope is the bracket [e_i, e_j] itself."""
    upper = {(0, 1): spec.constants[0][1], (0, 2): spec.constants[0][2], (1, 2): spec.constants[1][2]}
    zero = (Poly.zero(),) * 3
    table = [[zero] * 3 for _ in range(3)]
    for (i, j), v in upper.items():
        table[i][j], table[j][i] = v, tuple(-x for x in v)
    pairs = []
    for (i, j), cij in upper.items():
        for l in range(3):
            constant = Poly.zero()
            for k in range(3):
                constant = constant + cij[k] * wan[k][l]
                constant = constant - wan[i][k] * table[k][j][l] - wan[j][k] * table[i][k][l]
            pairs.append((constant, cij[l]))
    return tuple(pairs)


def random_integer_tables(count: int) -> list[tuple]:
    """Seeded bracket tables of small integers, Jacobi or not."""
    rng = random.Random(26_2026)
    return [tuple(vec3(*(rng.randint(-3, 3) for _ in range(3))) for _ in range(3)) for _ in range(count)]


@pytest.mark.parametrize("kind", list(SolitonKind))
def test_affine_residuals_match_written_out_formula(groups, kind):
    """For every group, the generic two-bracket algebras and random integer
    tables under all eight signatures: the residual constants equal the
    written-out formula, and the residual system is the derivation residual
    of Wan - c*Id, whose c-coefficient is ``spec.components`` and whose
    c-free part is ``residual_constants``.  The generic algebras use c as a
    bracket placeholder, so that split is read off at c = 0 and c = 1 (the
    residual is affine in c)."""
    c = Poly.var("c")
    specs = [entry.spec for entry in groups.values()]
    for eps in itertools.product((1, -1), repeat=3):
        sig = MetricSignature(eps)
        specs += generic_two_bracket_specs(sig)
        specs += [LieAlgebraSpec(brackets, sig) for brackets in random_integer_tables(4)]
    for spec in specs:
        wan = wan_for_kind(spec, kind)
        constants = residual_constants(spec, wan)
        assert tuple(zip(constants, spec.components)) == written_out_affine_pairs(spec, wan), spec
        system = residual_system(spec, kind)
        shifted = derivation_residual(mat_sub(wan, scalar_matrix(c)), spec)
        assert system == tuple(p for vec in shifted for p in vec), spec
        assert system == tuple(a + c * b for a, b in zip(constants, spec.components)), spec
        at0, at1 = (
            [p for vec in derivation_residual(mat_sub(wan, scalar_matrix(Poly.const(t))), spec) for p in vec]
            for t in (0, 1)
        )
        assert tuple(q - p for p, q in zip(at0, at1)) == spec.components, spec
        assert tuple(at0) == constants, spec


def test_residual_system_abelian_identically_zero():
    system = residual_system(abelian_spec(), SolitonKind.FIRST)
    assert all(eq.is_zero() for eq in system)


def test_residual_system_g5_factored_shape(groups):
    k = P("alpha^2+1/2*(beta+gamma)^2+delta^2")
    c = Poly.var("c")
    factors = {name: Poly.var(name) * (k - c) for name in ("alpha", "beta", "gamma", "delta")}
    system = residual_system(groups["g5"].spec, SolitonKind.FIRST)
    nonzero = [eq for eq in system if not eq.is_zero()]
    assert nonzero
    for eq in nonzero:
        assert any(eq == f or eq == -f for f in factors.values()), str(eq)


def test_residual_system_g3_second_kind_equals_first(groups):
    first = residual_system(groups["g3"].spec, SolitonKind.FIRST)
    second = residual_system(groups["g3"].spec, SolitonKind.SECOND)
    assert first == second


def test_g1_system_unsolvable_at_sampled_points(groups):
    system = residual_system(groups["g1"].spec, SolitonKind.FIRST)
    for alpha in (F(1), F(-2), F(1, 2)):
        for beta in (F(0), F(1), F(-3)):
            sigma = {"alpha": alpha, "beta": beta}
            assert solve_affine_in_c(system, sigma) == ("none", None)


def test_printed_systems_equivalent_at_sampled_points(catalog):
    """The published per-group systems have the same c-solution sets as the
    first-principles residual systems at every 8th default-grid point and at
    every grid point in one of the kind's theorem cases, unique c included."""
    from wanas.verify import default_grid

    for gid, entry in catalog.groups.items():
        _, grid = default_grid(entry)
        for kind, printed in entry.systems.items():
            claim = entry.claims[kind]
            points = [s for i, s in enumerate(grid) if i % 8 == 0 or claim.case_at(claim.evaluate(s)[0])]
            mine, theirs = split_in_c(residual_system(entry.spec, kind)), split_in_c(printed)
            outcomes = set()
            for sigma in points:
                solution = solve_split_in_c(mine, sigma)
                assert solution == solve_split_in_c(theirs, sigma), (gid, kind, sigma)
                outcomes.add(solution[0])
            assert "one" in outcomes, (gid, kind)


def test_solve_affine_in_c_rejects_quadratic():
    with pytest.raises(ValueError):
        solve_affine_in_c([P("c^2")], {})


# -- check_claimed_solution ---------------------------------------------------------------


def test_check_claimed_g4_first_case_i(groups):
    spec = groups["g4"].spec.substitute({"alpha": Poly.zero(), "beta": Poly.zero()})
    d = (
        (Poly.zero(),) * 3,
        (Poly.zero(), Poly.const(1), Poly.var("eta")),
        (Poly.zero(), Poly.zero(), Poly.const(2)),
    )
    failures = check_claimed_solution(spec, SolitonKind.FIRST, Poly.const(-4), d)
    assert failures == []


def test_check_claimed_g7_first(groups):
    subs = {"alpha": Poly.zero(), "gamma": Poly.zero()}
    spec = groups["g7"].spec.substitute(subs)
    k = P("beta^2+delta^2")
    d = (
        (Poly.zero(),) * 3,
        (Poly.zero(), -k, -k),
        (Poly.zero(), k, k),
    )
    failures = check_claimed_solution(spec, SolitonKind.FIRST, P("-beta^2"), d)
    assert failures == []


def test_check_claimed_wrong_degree_fails(groups):
    spec = groups["g2"].spec.substitute({"alpha": Poly.zero(), "beta": Poly.zero()})
    gamma = Poly.var("gamma")
    wrong_d = (
        (Poly.zero(),) * 3,
        (Poly.zero(), gamma, Poly.zero()),
        (Poly.zero(), Poly.zero(), 2 * gamma),
    )
    failures = check_claimed_solution(spec, SolitonKind.FIRST, P("-2*gamma^2"), wrong_d)
    assert failures, "degree-mismatched derivation must be rejected"


def test_check_claimed_g6_case_iii_needs_branches(groups):
    subs = {"gamma": -Poly.var("beta"), "delta": -Poly.var("alpha")}
    spec = groups["g6"].spec.substitute(subs)
    alpha, beta = Poly.var("alpha"), Poly.var("beta")
    d = (
        (Poly.zero(),) * 3,
        (Poly.zero(), -(beta**2), -(alpha * beta)),
        (Poly.zero(), alpha * beta, alpha**2),
    )
    branches = ({"alpha": beta}, {"alpha": -beta})
    assert check_claimed_solution(spec, SolitonKind.FIRST, -(alpha**2), d, branches=branches) == []
    # without the alpha^2 = beta^2 case split the identity genuinely fails
    assert check_claimed_solution(spec, SolitonKind.FIRST, -(alpha**2), d) != []


# -- Wan as quadratic forms in the bracket components ------------------------------------


def _random_brackets(rng):
    """Three brackets of random rationals (about a third of them 0), or of
    random affine polynomials in alpha and beta."""
    def component():
        if rng.random() < 0.3:
            return Poly.zero()
        value = lambda: F(rng.randint(-9, 9), rng.randint(1, 6))
        if rng.random() < 0.5:
            return Poly.const(value())
        return value() + value() * Poly.var("alpha") + value() * Poly.var("beta")

    return [vec3(*(component() for _ in range(3))) for _ in range(3)]


def test_wan_forms_equal_the_pipeline(catalog):
    """wan_for_kind evaluates the derived forms; that equals the tensor
    pipeline's Wan and WanTilde on the catalog algebras, every substituted
    theorem-case and branch algebra, 50 seeded random bracket tables (most
    failing Jacobi) and random tables under a non-Lorentz signature."""
    specs = [catalog.get_group(gid).spec for gid in ALL_GROUPS]
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        for kind in SolitonKind:
            for case in catalog.theorem_claim(gid, kind).cases:
                subs = case.subs_map()
                specs.extend(entry.spec.substitute(subs).substitute(b) for b in case.branch_maps())
    assert len(specs) == 7 + 32
    rng = random.Random("wan-forms")
    tables = [_random_brackets(rng) for _ in range(50)]
    random_specs = [LieAlgebraSpec(tuple(t), LORENTZ) for t in tables]
    assert sum(any(spec.jacobi_residual()) for spec in random_specs) > 25
    specs.extend(random_specs)
    other = MetricSignature((1, -1, 1))
    specs.extend(LieAlgebraSpec(tuple(t), other) for t in tables[:10])
    for n, spec in enumerate(specs):
        bundle = compute_tensors(spec)
        assert wan_for_kind(spec, SolitonKind.FIRST) == bundle.wan, n
        assert wan_for_kind(spec, SolitonKind.SECOND) == bundle.wan_tilde, n


def _patched_pipeline(monkeypatch, extra):
    """geometry.compute_tensors with ``extra(spec)`` added to Wan[0][0]."""

    def patched(spec, *args, **kwargs):
        bundle = compute_tensors(spec, *args, **kwargs)
        wan = [list(row) for row in bundle.wan]
        wan[0][0] = wan[0][0] + extra(spec)
        return dataclasses.replace(bundle, wan=tuple(map(tuple, wan)))

    monkeypatch.setattr(geometry, "compute_tensors", patched)
    geometry.wan_forms.cache_clear()


@pytest.mark.parametrize(
    "extra, message",
    [
        (lambda spec: P("alpha*beta*gamma"), "not quadratic"),
        (lambda spec: P("1"), "not quadratic"),
        # a coefficient that depends on which bracket is zero
        (lambda spec: P("alpha*beta") if not any(spec.constants[0][1]) else Poly.zero(), "differs"),
    ],
    ids=["cubic", "constant", "inconsistent"],
)
def test_wan_forms_refuse_a_pipeline_that_is_not_quadratic(monkeypatch, extra, message):
    _patched_pipeline(monkeypatch, extra)
    try:
        with pytest.raises(ValueError, match=message):
            geometry.wan_forms(LORENTZ)
    finally:
        geometry.wan_forms.cache_clear()
