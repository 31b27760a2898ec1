"""Exact polynomial arithmetic: worked examples plus randomized ring axioms."""

from __future__ import annotations

import io
import math
import random
import re
import tokenize
from fractions import Fraction

import pytest

from wanas import poly as poly_module
from wanas.algebra import PAIRS
from wanas.catalog import load_catalog
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
from wanas.verify import verify_paper

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


def test_parse_signs_bind_below_powers():
    alpha, beta = Poly.var("alpha"), Poly.var("beta")
    assert P("-alpha^2") == -(alpha**2)
    assert P("-2^2") == Poly.const(-4)
    assert P("--alpha") == alpha
    assert P("-+-alpha") == alpha
    assert P("alpha*-beta^2") == -(alpha * beta**2)
    assert P("-(alpha+beta)*beta") == -(alpha * beta) - beta**2
    assert P("alpha - -beta") == alpha + beta
    assert P("-0") == Poly.zero()


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
    """Nonzero integer numerators over a positive denominator, with no
    factor common to all of them; zero is the empty map over 1."""
    assert type(p._den) is int and p._den > 0
    assert all(type(k) is int and k != 0 for k in p._terms.values())
    assert math.gcd(p._den, *p._terms.values()) == 1
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


# -- the integer-numerator representation ----------------------------------------------


def _random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        x = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 6, 9, 10)))
        if x or not nonzero:
            return x


def _oracle_substitute(terms: dict, images: dict) -> dict:
    """Term-by-term substitution on Fraction term maps (oracle_add/oracle_mul)."""
    basis = [
        images.get(v, {tuple(int(i == j) for j in range(len(VARIABLES))): Fraction(1)})
        for i, v in enumerate(VARIABLES)
    ]
    total: dict = {}
    for mono, coeff in terms.items():
        term = {(0,) * len(VARIABLES): coeff}
        for img, e in zip(basis, mono):
            for _ in range(e):
                term = oracle_mul(term, img)
        total = oracle_add(total, term)
    return total


def _oracle_reduce_eta_squared(terms: dict, rhs: dict) -> dict:
    """eta^(2k+r) -> rhs^k * eta^r, term by term (rhs free of eta)."""
    eta = VARIABLES.index("eta")
    total: dict = {}
    for mono, coeff in terms.items():
        k, r = divmod(mono[eta], 2)
        term = {mono[:eta] + (r,) + mono[eta + 1 :]: coeff}
        for _ in range(k):
            term = oracle_mul(term, rhs)
        total = oracle_add(total, term)
    return total


def test_canonical_form_randomized():
    """Every operation returns the canonical integer form, and its
    coefficients equal the Fraction reference."""
    rng = random.Random(7_2026)
    for _ in range(300):
        p, q = random_poly(rng), random_poly(rng, max_terms=3, max_exp=2)
        k = _random_rational(rng, nonzero=True)
        const = Poly.const(k)
        n = rng.choice((0, 1, -1, rng.randint(-12, 12)))  # an int factor, short cuts included
        results = [
            (p + q, oracle_add(p.terms, q.terms)),
            (p - q, oracle_add(p.terms, {m: -c for m, c in q.terms.items()})),
            (p * q, oracle_mul(p.terms, q.terms)),
            (p * const, {m: c * k for m, c in p.terms.items()}),
            (const * p, {m: c * k for m, c in p.terms.items()}),
            (p * n, {m: c * n for m, c in p.terms.items() if n}),
            (n * p, {m: c * n for m, c in p.terms.items() if n}),
            (p / k, {m: c / k for m, c in p.terms.items()}),
            (p / -abs(k), {m: c / -abs(k) for m, c in p.terms.items()}),
            (q**2, oracle_mul(q.terms, q.terms)),
            (-p, {m: -c for m, c in p.terms.items()}),
            (Poly(p.terms), p.terms),
        ]
        image = random_poly(rng, max_terms=2, max_exp=1)
        results.append(
            (p.substitute({"beta": image, "c": k}),
             _oracle_substitute(p.terms, {"beta": image.terms, "c": {(0,) * 6: k}}))
        )
        lead, rhs = _random_rational(rng, nonzero=True), _random_rational(rng) * ALPHA ** rng.randint(0, 1)
        relation = lead * ETA**2 - rhs
        rhs_terms = {m: c / lead for m, c in rhs.terms.items()}
        results.append((p.reduce(relation, "eta"), _oracle_reduce_eta_squared(p.terms, rhs_terms)))
        for result, expected in results:
            _assert_canonical(result)
            assert result.terms == expected


def test_equality_across_construction_paths():
    mono = (1, 0, 0, 0, 0, 0)
    paths = [
        (Poly.const(1) / 2) * (2 * ALPHA),
        ALPHA,
        Poly({mono: Fraction(2, 2)}),
        Poly({mono: 1}),
        P("alpha/3 + 2/3*alpha"),
        (ALPHA * Fraction(-2, 3)) / Fraction(-2, 3),
        (ALPHA - 1) * (ALPHA + 1) - ALPHA**2 + ALPHA + 1,
        ALPHA.substitute({"alpha": Poly.const(Fraction(1, 2)) * ALPHA}) * 2,
    ]
    for p in paths:
        assert p == ALPHA
        assert (p._terms, p._den) == ({mono: 1}, 1)
    assert Poly.const(Fraction(6, 4)) == P("3/2") == Fraction(3, 2)
    assert Poly.const(6) / 4 == P("3/2")
    assert Poly.zero() == Poly({mono: 0}) == ALPHA - ALPHA == 0
    assert (Poly.zero()._terms, Poly.zero()._den) == ({}, 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Poly.const(0.1),
        lambda: Poly({(1, 0, 0, 0, 0, 0): 0.25}),
        lambda: ALPHA / 0.5,
        lambda: Poly.const("1/3"),
        lambda: ALPHA.evaluate({"alpha": 0.5}),
        lambda: ALPHA * 0.5,
        lambda: ALPHA + 0.5,
        lambda: format_rational(0.1),
        lambda: format_rational("1/3"),
    ],
    ids=[
        "const", "init", "truediv", "const-str", "evaluate", "mul", "add",
        "format-rational", "format-rational-str",
    ],
)
def test_non_exact_scalars_are_rejected(make):
    """Floats and strings never become exact coefficients or values: every
    entry point raises as_poly's TypeError."""
    with pytest.raises(TypeError, match=r"^cannot coerce (float|str) to Poly$"):
        make()


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


def _random_evaluator_polys(rng: random.Random, names: list[str]) -> list[Poly]:
    """0-6 polynomials in ``names`` only: random terms with negative and
    non-integer coefficients, plus zero and constant polynomials."""
    polys = []
    for _ in range(rng.randint(0, 6)):
        shape = rng.random()
        if shape < 0.1:
            polys.append(Poly.zero())
        elif shape < 0.2:
            polys.append(Poly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
        else:
            terms = {}
            for _ in range(rng.randint(1, 6)):
                mono = tuple(
                    rng.randint(0, 4) if v in names and rng.random() < 0.6 else 0
                    for v in VARIABLES
                )
                terms[mono] = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            polys.append(Poly(terms))
    return polys


def _random_value(rng: random.Random):
    shape = rng.random()
    if shape < 0.15:
        return 0 if rng.random() < 0.5 else Fraction(0)
    if shape < 0.4:
        return rng.randint(-30, 30)  # a plain int
    return Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))


def test_integer_evaluator_kernel_matches_evaluate_randomized():
    rng = random.Random(20261018)
    for _ in range(500):
        names = [v for v in VARIABLES if rng.random() < 0.5]
        polys = _random_evaluator_polys(rng, names)
        evaluate = IntegerEvaluator(polys)
        occurring = {v for p in polys for v in p.variables()}
        assert evaluate.variables == tuple(v for v in VARIABLES if v in occurring)
        for _ in range(3):
            sigma = {v: _random_value(rng) for v in VARIABLES if v in names or rng.random() < 0.3}
            numerators, den = evaluate(sigma)
            assert all(type(n) is int for n in numerators)
            assert den == evaluate.scale * math.prod(
                Fraction(sigma[v]).denominator ** d
                for v, d in zip(evaluate.variables, evaluate.degrees)
            )
            assert [Fraction(n, den) for n in numerators] == [p.evaluate(sigma) for p in polys]


def test_integer_evaluator_compiles_large_polynomials():
    """A 3,003-term row and a degree-64 univariate row compile (the generated
    expressions have bounded depth) and evaluate exactly."""
    big = P("(alpha + 2*beta - gamma/3 + delta + eta + 1)^10")
    assert len(big.terms) == 3003
    tall = P("(2*alpha - 3/5)^61 - alpha^64")
    evaluate = IntegerEvaluator([big, tall, big - tall])
    assert evaluate.degrees == (64, 10, 10, 10, 10)
    for sigma in (
        {"alpha": Fraction(7, 3), "beta": Fraction(-5, 8), "gamma": 2, "delta": 0, "eta": -1},
        {"alpha": Fraction(-1000, 999), "beta": 1, "gamma": Fraction(3, 7), "delta": Fraction(1, 2), "eta": 1},
    ):
        x = {v: Fraction(val) for v, val in sigma.items()}
        want_big = (x["alpha"] + 2 * x["beta"] - x["gamma"] / 3 + x["delta"] + x["eta"] + 1) ** 10
        want_tall = (2 * x["alpha"] - Fraction(3, 5)) ** 61 - x["alpha"] ** 64
        numerators, den = evaluate(sigma)
        assert [Fraction(n, den) for n in numerators] == [want_big, want_tall, want_big - want_tall]


def test_integer_evaluator_missing_variables_are_named_sorted():
    evaluate = IntegerEvaluator([P("eta*alpha - 1"), P("delta^2"), P("gamma")])
    with pytest.raises(MissingVariableError) as info:
        evaluate({"gamma": Fraction(1), "c": Fraction(2)})
    assert info.value.names == ("alpha", "delta", "eta")
    assert str(info.value) == "missing value for variable(s): alpha, delta, eta"
    with pytest.raises(MissingVariableError) as info:
        evaluate({"alpha": 1, "delta": 2})
    assert info.value.names == ("eta", "gamma")


_KERNEL_NAME = re.compile(r"(def|kernel|return|sum|numerator|denominator|[xpqm]\d+|w\d+_\d+)")


def test_integer_evaluator_kernel_source_has_only_its_own_names(monkeypatch):
    """The generated source holds integer literals and names the evaluator
    makes up; nothing of a polynomial or a variable name is copied in."""
    sources = []
    original = poly_module._kernel_source

    def recording(*args):
        sources.append(original(*args))
        return sources[-1]

    monkeypatch.setattr(poly_module, "_kernel_source", recording)
    IntegerEvaluator([P("-1/2*alpha^3*eta + 7*c - 4"), P("eta^2*c"), Poly.zero(), P("-3/7")])
    IntegerEvaluator([P("beta - 1")] * 40 + [P("(beta + c + 1)^12")])
    IntegerEvaluator([])
    assert len(sources) == 3
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert _KERNEL_NAME.fullmatch(tok.string), tok.string
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), tok.string
            else:
                assert tok.type in (
                    tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                    tokenize.DEDENT, tokenize.ENDMARKER,
                ), tok


def test_integer_evaluator_scale_is_lcm_of_coefficient_denominators(monkeypatch):
    """Every evaluator a verify-paper run builds scales by the lcm of the
    reduced denominators of its polynomials' coefficients.  A fresh catalog,
    since the session one holds evaluators compiled by earlier tests.  The
    run compiles one classification kernel per group, so the coverage is
    counted in polynomials (699 in 17 evaluators)."""
    built = []
    original = IntegerEvaluator.__init__

    def recording(self, polys):
        original(self, polys)
        built.append((self, list(polys)))

    monkeypatch.setattr(IntegerEvaluator, "__init__", recording)
    verify_paper(load_catalog())
    assert sum(len(polys) for _, polys in built) > 650
    for evaluate, polys in built:
        assert evaluate.scale == math.lcm(
            *(c.denominator for p in polys for c in p.terms.values())
        )
