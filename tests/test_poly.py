"""Exact polynomial arithmetic: worked examples plus randomized ring axioms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from wanas.algebra import PAIRS
from wanas.poly import (
    IntegerEvaluator,
    MissingVariableError,
    Poly,
    PolyParseError,
    UnsupportedRelationError,
    VARIABLES,
    format_rational,
    parse_poly,
    parse_rational,
)
from wanas.soliton import SolitonKind, derivation_residual, wan_for_kind

P = parse_poly
ALPHA, BETA, GAMMA = Poly.var("alpha"), Poly.var("beta"), Poly.var("gamma")
ETA, C = Poly.var("eta"), Poly.var("c")


# -- independent oracle: dict-based term arithmetic -------------------------


def oracle_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, coeff in b.items():
        out[mono] = out.get(mono, Fraction(0)) + coeff
    return {m: c for m, c in out.items() if c}


def oracle_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


# -- addition ----------------------------------------------------------------


def test_add_additive_inverse():
    assert ALPHA + (-ALPHA) == Poly.zero()


def test_add_disjoint_monomials():
    assert ALPHA * BETA + BETA**2 == P("alpha*beta + beta^2")


def test_add_merges_terms_against_oracle():
    p, q = P("alpha^2 + c"), P("alpha^2")
    expected = oracle_add(p.terms, q.terms)
    assert (p + q).terms == expected
    assert p + q == P("2*alpha^2 + c")


# -- multiplication -----------------------------------------------------------


def test_mul_difference_of_squares():
    assert (BETA - 2 * ETA) * (BETA + 2 * ETA) == P("beta^2 - 4*eta^2")


def test_mul_absorbing_zero():
    assert Poly.zero() * P("alpha^3 + c") == Poly.zero()


def test_mul_square_expansion_against_oracle():
    p = ALPHA - BETA
    expected = oracle_mul(p.terms, p.terms)
    assert (p * p).terms == expected
    assert p * p == P("alpha^2 - 2*alpha*beta + beta^2")


def test_mul_degree_is_additive():
    p, q = P("alpha^2*beta + 1/2*c"), P("gamma^3 - delta")
    assert (p * q).degree() == p.degree() + q.degree()


# -- evaluation ----------------------------------------------------------------


def test_eval_direct_substitution():
    assert P("2*gamma^2").evaluate({"gamma": 1}) == 2


def test_eval_zero_polynomial():
    assert Poly.zero().evaluate({}) == 0


def test_eval_hand_arithmetic():
    value = P("alpha^2 + beta^2").evaluate(
        {"alpha": Fraction(1, 2), "beta": Fraction(1, 2)}
    )
    assert value == Fraction(1, 2)


def test_eval_missing_variable():
    with pytest.raises(MissingVariableError) as err:
        P("alpha + beta").evaluate({"alpha": 1})
    assert "beta" in str(err.value)


def test_eval_is_exact_rational():
    value = P("1/3*alpha").evaluate({"alpha": Fraction(1, 7)})
    assert value == Fraction(1, 21)
    assert isinstance(value, Fraction)


# -- substitution ---------------------------------------------------------------


def test_substitute_eta_one_branch():
    assert (ETA**2).substitute({"eta": Poly.const(1)}) == Poly.const(1)


def test_substitute_shorthand_at_gamma_zero():
    a3 = P("1/2*(alpha+beta-gamma)")
    assert a3.substitute({"gamma": Poly.const(0)}) == P("1/2*alpha + 1/2*beta")


def test_substitute_variable_by_polynomial():
    assert (ALPHA * GAMMA).substitute({"gamma": 2 * BETA}) == P("2*alpha*beta")


def test_substitute_is_simultaneous():
    p = P("alpha*beta")
    swapped = p.substitute({"alpha": BETA, "beta": ALPHA})
    assert swapped == p


# -- reduction -------------------------------------------------------------------


def test_reduce_eta_squared():
    assert (ETA**2).reduce(ETA**2 - 1, "eta") == Poly.const(1)


def test_reduce_relation_to_zero():
    relation = P("alpha*gamma - beta*delta")
    assert relation.reduce(relation, "alpha") == Poly.zero()


def test_reduce_repeated_elimination_against_oracle():
    # oracle: eta^(2k+r) == eta^r modulo eta^2 = 1, applied term by term
    p = ETA**3 * BETA
    assert p.reduce(ETA**2 - 1, "eta") == ETA * BETA


def test_reduce_is_idempotent():
    p = P("eta^4 + eta^3*beta + eta^2*c + alpha")
    once = p.reduce(ETA**2 - 1, "eta")
    assert once.reduce(ETA**2 - 1, "eta") == once


def test_reduce_monomial_relation():
    # single-term relation: every multiple of alpha*gamma collapses to 0
    p = P("alpha^2*gamma*beta + alpha*beta")
    assert p.reduce(P("alpha*gamma"), "alpha") == P("alpha*beta")


def test_reduce_rejects_three_term_relation():
    with pytest.raises(UnsupportedRelationError):
        P("alpha").reduce(P("alpha + beta + gamma"), "alpha")


def test_reduce_rejects_order_increasing_rewrite():
    with pytest.raises(UnsupportedRelationError):
        P("alpha").reduce(P("alpha - beta^2"), "alpha")


def test_reduce_rejects_missing_leading_variable():
    with pytest.raises(UnsupportedRelationError):
        P("alpha").reduce(P("beta^2 - 1"), "alpha")


# -- rendering and parsing --------------------------------------------------------


def test_rational_rendering():
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert parse_rational("5/10") == Fraction(1, 2)
    with pytest.raises(PolyParseError):
        parse_rational("0.5")


def test_poly_rendering_sorted_and_signed():
    assert str(P("c + -3/2*alpha^2*beta")) == "-3/2*alpha^2*beta + c"
    assert str(P("beta^2 - 2*alpha*beta + alpha^2")) == "alpha^2 - 2*alpha*beta + beta^2"
    assert str(Poly.zero()) == "0"
    assert str(Poly.const(Fraction(-1, 3))) == "-1/3"


def test_parse_round_trip_is_identity():
    for text in (
        "alpha^2 - 2*alpha*beta + beta^2",
        "-3/2*alpha^2*beta + c",
        "1/2*(beta+gamma)^2 + delta^2",
        "0",
        "-(alpha^2+3/2*beta^2)",
    ):
        p = P(text)
        assert parse_poly(str(p)) == p


def test_parse_rejects_decimals_and_unknown_names():
    with pytest.raises(PolyParseError):
        P("0.5*alpha")
    with pytest.raises(PolyParseError):
        P("alpha + x")
    with pytest.raises(PolyParseError):
        P("alpha +")


def test_parse_division_by_constant_only():
    assert P("(beta-gamma)/2") == P("1/2*beta - 1/2*gamma")
    with pytest.raises(PolyParseError):
        P("beta/gamma")


def test_variable_universe_is_closed():
    assert VARIABLES == ("alpha", "beta", "gamma", "delta", "eta", "c")
    with pytest.raises(PolyParseError):
        Poly.var("omega")


# -- randomized property suite ------------------------------------------------------


def random_poly(rng: random.Random, max_terms: int = 5, max_exp: int = 3) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(
            rng.randint(0, max_exp) if rng.random() < 0.4 else 0 for _ in VARIABLES
        )
        terms[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return Poly(terms)


def random_point(rng: random.Random) -> dict[str, Fraction]:
    return {
        v: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for v in VARIABLES
    }


def _assert_canonical(p: Poly):
    assert all(coeff != 0 for coeff in p.terms.values())


def _reference_evaluate(p: Poly, assignment) -> Fraction:
    """Poly.evaluate as first written: every assigned variable converted,
    then every term multiplied out."""
    missing = [v for v in p.variables() if v not in assignment]
    if missing:
        raise MissingVariableError(missing)
    values = [Fraction(assignment[v]) if v in assignment else Fraction(0) for v in VARIABLES]
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        term = coeff
        for val, e in zip(values, mono):
            if e:
                term *= val**e
        total += term
    return total


def test_evaluate_equals_reference_randomized():
    """Same values, and the same error naming the same sorted variables,
    on full and partial points with Fraction and int coordinates."""
    rng = random.Random(20261018)
    for _ in range(400):
        p = random_poly(rng)
        point = {v: x if x.denominator > 1 else int(x) for v, x in random_point(rng).items()}
        partial = {v: x for v, x in point.items() if rng.random() < 0.6}
        for sigma in (point, partial):
            try:
                expected = _reference_evaluate(p, sigma)
            except MissingVariableError as exc:
                with pytest.raises(MissingVariableError) as err:
                    p.evaluate(sigma)
                assert err.value.names == exc.names
                assert str(err.value) == str(exc)
            else:
                value = p.evaluate(sigma)
                assert value == expected
                assert type(value) is Fraction


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    cases = 0
    for _ in range(400):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        for result in (p + q, p * q, p - q, -p):
            _assert_canonical(result)
        cases += 5
    assert cases >= 1000


def test_evaluation_is_ring_homomorphism_randomized():
    rng = random.Random(987654)
    for _ in range(300):
        p, q = random_poly(rng), random_poly(rng)
        sigma = random_point(rng)
        assert (p + q).evaluate(sigma) == p.evaluate(sigma) + q.evaluate(sigma)
        assert (p * q).evaluate(sigma) == p.evaluate(sigma) * q.evaluate(sigma)


def test_substitution_commutes_with_evaluation_randomized():
    rng = random.Random(55555)
    for _ in range(200):
        p = random_poly(rng)
        image = random_poly(rng, max_terms=3, max_exp=2)
        sigma = random_point(rng)
        substituted = p.substitute({"beta": image})
        direct = p.evaluate({**sigma, "beta": image.evaluate(sigma)})
        assert substituted.evaluate(sigma) == direct


def test_reduce_idempotent_and_congruent_randomized():
    rng = random.Random(13579)
    relation = ETA**2 - 1
    for _ in range(200):
        p = random_poly(rng)
        reduced = p.reduce(relation, "eta")
        assert reduced.reduce(relation, "eta") == reduced
        # congruence: agreement at all points with eta in {1, -1}
        for eta in (1, -1):
            sigma = random_point(rng)
            sigma["eta"] = Fraction(eta)
            assert p.evaluate(sigma) == reduced.evaluate(sigma)
        # no monomial divisible by eta^2 survives
        assert reduced.degree_in("eta") <= 1


# -- the integer evaluator -------------------------------------------------------------


def test_integer_evaluator_shares_one_denominator():
    polys = [P("1/2*alpha^2*beta - 3"), P("2/3*beta"), Poly.zero(), P("7"), P("-alpha")]
    evaluate = IntegerEvaluator(polys)
    assert evaluate.variables == ("alpha", "beta")
    assert evaluate.degrees == (2, 1)
    assert evaluate.scale == 6
    sigma = {"alpha": Fraction(-2, 3), "beta": Fraction(5, 7), "gamma": Fraction(9)}
    numerators, den = evaluate(sigma)
    assert den == 6 * 3**2 * 7
    assert [Fraction(n, den) for n in numerators] == [p.evaluate(sigma) for p in polys]
    assert evaluate({"alpha": 2, "beta": -1}) == ([-30, -4, 0, 42, -12], 6)
    with pytest.raises(MissingVariableError):
        evaluate({"alpha": Fraction(1)})
    assert IntegerEvaluator([])({}) == ([], 1)


def test_integer_evaluator_matches_evaluate_on_catalog_groups(groups, height_points):
    """Exactly Poly.evaluate on every polynomial the grid decision uses (and
    the constraints), at seeded points of height <= 1000 with 0, negative
    values and the large solved coordinate of g5-g7."""
    for gid, entry in groups.items():
        spec = entry.spec
        polys = [p for i, j in PAIRS for p in spec.constants[i, j]]
        polys += [con.poly for con in spec.constraints]
        for kind in SolitonKind:
            wan = wan_for_kind(spec, kind)
            polys += [p for row in wan for p in row]
            polys += [p for vec in derivation_residual(wan, spec) for p in vec]
        evaluate = IntegerEvaluator(polys)
        for sigma in height_points[gid]:
            numerators, den = evaluate(sigma)
            assert den > 0
            assert [Fraction(n, den) for n in numerators] == [p.evaluate(sigma) for p in polys]
