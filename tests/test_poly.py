"""Exact polynomial arithmetic: worked examples plus randomized ring axioms."""

from __future__ import annotations

import collections
import inspect
import io
import itertools
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
    MAX_DEGREE,
    DegreeOverflowError,
    IntegerEvaluator,
    MissingVariableError,
    Poly,
    PolyParseError,
    UnsupportedRelationError,
    VARIABLES,
    dot,
    format_rational,
    parse_poly,
    parse_rational,
)
from wanas.soliton import SolitonKind, SolitonVerdict, derivation_residual, wan_for_kind
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


def test_substitute_zero_checks_its_images_first():
    # the zero polynomial is returned as is, but only after the image names
    # and types are checked, as for any other polynomial
    zero = Poly.zero()
    assert zero.substitute({"alpha": BETA + 1}) is zero
    with pytest.raises(PolyParseError):
        zero.substitute({"x": 1})
    with pytest.raises(TypeError, match=r"^cannot coerce float to Poly$"):
        zero.substitute({"alpha": 0.5})


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


@pytest.mark.parametrize(
    "text, cause",
    [
        ("1/0", "zero denominator"),
        ("-3/0", "zero denominator"),
        ("0.5", "not an integer ratio"),
        ("1/x", "not an integer ratio"),
        ("", "not an integer ratio"),
        ("٣", "not an integer ratio"),
        ("1_000", "not an integer ratio"),
        ("1/²", "not an integer ratio"),
    ],
)
def test_parse_rational_names_the_cause(text, cause):
    with pytest.raises(PolyParseError, match=re.escape(f"invalid rational {text!r} ({cause})")):
        parse_rational(text)


def test_poly_rendering_sorted_and_signed():
    assert str(P("c + -3/2*alpha^2*beta")) == "-3/2*alpha^2*beta + c"
    assert str(P("beta^2 - 2*alpha*beta + alpha^2")) == "alpha^2 - 2*alpha*beta + beta^2"
    assert str(Poly.zero()) == "0"
    assert str(Poly.const(Fraction(-1, 3))) == "-1/3"


def render_with_fractions(p: Poly) -> str:
    """The canonical rendering written with Fraction coefficients: terms in
    descending graded-lex order, each magnitude printed by Fraction."""
    if p.is_zero():
        return "0"
    parts = []
    for mono, coeff in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(VARIABLES, mono) if e]
        mag = abs(coeff)
        body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
        sign = "" if coeff > 0 and not parts else "-" if not parts else "+ " if coeff > 0 else "- "
        parts.append(sign + body)
    return " ".join(parts)


def test_rendering_equals_fraction_reference_randomized():
    rng = random.Random(20261019)
    magnitudes = (1, 1, 2, 7, 12, Fraction(1, 2), Fraction(3, 4), Fraction(5, 6), Fraction(12, 35))
    seen = set()
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            mono = tuple(rng.choice((0, 0, 0, 1, 2, 5)) for _ in VARIABLES)
            if rng.random() < 0.15:
                mono = (0,) * len(VARIABLES)  # constant term
            terms[mono] = rng.choice((1, -1)) * rng.choice(magnitudes)
        p = Poly(terms)
        assert str(p) == render_with_fractions(p), terms
        assert parse_poly(str(p)) == p
        for mono, coeff in p.terms.items():
            magnitude = "unit" if abs(coeff) == 1 else "integer" if coeff.denominator == 1 else "fraction"
            seen.add((coeff > 0, magnitude, sum(mono) == 0, max(mono) > 1))
    # both signs of every magnitude, each on a constant, a linear term and a higher power
    assert len(seen) == 2 * 3 * 3


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


@pytest.mark.parametrize("text", ["alpha^٣", "alpha^²", "٣*alpha", "alpha^1_0", "１"])
def test_parse_takes_only_ascii_digits(text):
    with pytest.raises(PolyParseError):
        P(text)


def test_parse_nesting_bound():
    bound = poly_module.MAX_NESTING
    assert P("(" * bound + "alpha" + ")" * bound) == ALPHA
    assert P("-(" * bound + "2" + ")" * bound) == 2 * (-1) ** bound
    assert P(" + ".join(["(alpha)"] * (2 * bound))) == 2 * bound * ALPHA  # siblings do not nest
    for depth in (bound + 1, 100_000):
        with pytest.raises(PolyParseError, match=f"deeper than {bound} levels"):
            P("(" * depth + "alpha" + ")" * depth)


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
    # a leading sign is read by the first factor, as any other sign
    assert P("-alpha^2*beta") == -(alpha**2) * beta
    assert P("- -alpha") == alpha
    assert P("-2/3*alpha") == Fraction(-2, 3) * alpha
    assert P("+-alpha") == -alpha
    assert P("-3^2") == Poly.const(-9)
    for text in ("+", "-", ""):
        with pytest.raises(PolyParseError, match="unexpected end of expression"):
            P(text)


def _parse_outcome(parse, text: str, names=None) -> tuple[str, str]:
    """("ok", str(Poly)) or (the exception's type name, its text)."""
    try:
        return "ok", str(parse(text, names))
    except Exception as exc:  # any exception, so that the two parsers must raise alike
        return type(exc).__name__, str(exc)


# token strings for the parser oracle: names (shorthands, unknown, non-ASCII), numbers (ASCII and
# not, decimals, 1/0), operators (** among them), exponents at and past MAX_DEGREE, and noise
_PARSER_TOKENS = (
    "alpha", "beta", "eta", "c", "b1", "b2", "zeta", "_x", "alpha2", "é", "α", "ß",
    "0", "1", "2", "12", "007", "99999999999999999999", "1.5", "2.", "1/0", "٣", "²", "１", "½",
    "+", "-", "--", "*", "/", "^", "**", "(", ")", "()", " ", "\t", "$", ".",
    "alpha^65535", "beta**65535", "^65536", "^0065536", "gamma^40000", "(delta^40000)", "^0", "^2", "^3", "^-1",
)
# a power of 100 or more of a number, a shorthand or a group: too slow to expand in a tier-1 test
_LARGE_POWER = re.compile(r"(b[12]|[0-9]|\))\s*(\^|\*\*)\s*0*[1-9][0-9]{2}")


def _token_string(rng: random.Random) -> str:
    while True:
        text = rng.choice(["", " "]).join(rng.choice(_PARSER_TOKENS) for _ in range(rng.randint(1, 12)))
        if rng.random() < 0.03:  # nesting at and past MAX_NESTING
            depth = rng.choice([99, 100, 101, 150])
            text = "(" * depth + text + ")" * rng.choice([depth, depth - 1])
        if not _LARGE_POWER.search(text):
            return text


def test_parse_poly_equals_the_reference_parser(monkeypatch):
    """parse_poly gives the Poly, or the error type and text, of the
    reference parser (the parser before terms were built in place) on every
    catalog string with its group's shorthands and on 2,400 seeded token
    strings, a third of them well formed expressions; both outcomes occur
    over 700 times."""
    from parser_reference import reference_parse
    import wanas.catalog as catalog_module

    parsed = []
    original = catalog_module.parse_poly

    def recorded(text, names=None):
        parsed.append((text, names))
        return original(text, names)

    monkeypatch.setattr(catalog_module, "parse_poly", recorded)
    load_catalog()
    assert len(parsed) == 300
    for text, names in parsed:
        assert _parse_outcome(parse_poly, text, names) == _parse_outcome(reference_parse, text, names), text
    rng = random.Random(31)
    names = {"b1": P("alpha + 1"), "b2": P("-beta/3")}
    shapes = ["{a}*{b}^2 - {c}/2", "-({a} + {b})*{c}", "{a}/(2 - {b}^0)", "{a}^2*({b} - 1/3)*{c} + 7", "{a} - -{b}*-{c}"]
    atoms = ["alpha", "eta", "c", "b1", "b2", "3", "0", "(beta - 1)"]
    texts = [_token_string(rng) for _ in range(1600)]
    texts += [rng.choice(shapes).format(a=rng.choice(atoms), b=rng.choice(atoms), c=rng.choice(atoms)) for _ in range(800)]
    outcomes = collections.Counter()
    for text in texts:
        outcome = _parse_outcome(parse_poly, text, names)
        assert outcome == _parse_outcome(reference_parse, text, names), text
        outcomes[outcome[0]] += 1
    assert outcomes["ok"] > 700 and outcomes["PolyParseError"] > 700


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


def test_dot_equals_naive_sum_randomized():
    """dot(terms, den) is sum(n * a * b) / den, in canonical form, with mixed
    denominators, zero and constant factors, n = 0, and sums that cancel."""
    rng = random.Random(20261019)
    cancelled = 0
    for _ in range(300):
        terms = []
        for _ in range(rng.randint(0, 6)):
            a, b = random_poly(rng), random_poly(rng)
            roll = rng.random()
            if roll < 0.15:
                b = Poly.zero()
            elif roll < 0.4:
                b = Poly.const(_random_rational(rng))
            if rng.random() < 0.5:
                a, b = b, a
            terms.append((rng.randint(-3, 3), a, b))
        if terms and rng.random() < 0.3:
            n, a, b = terms[0]
            terms.append((-n, b, a))  # cancels the first product
        den = rng.choice((1, 1, 2, 6, 35))
        naive = sum((n * a * b for n, a, b in terms), Poly.zero()) / den
        result = dot(iter(terms), den)
        assert result == naive
        _assert_canonical(result)
        cancelled += result.is_zero() and bool(terms)
    x, y = P("1/2*alpha + 1/3*beta"), P("2*alpha - 3/5")
    assert dot([(1, x, y), (-1, y, x)]) == Poly.zero()
    assert dot([]) == dot([(0, x, y)]) == dot([(2, x, Poly.zero())]) == Poly.zero()
    assert dot([(3, Poly.const(Fraction(2, 7)), x)], 4) == x * Fraction(3, 14)
    assert cancelled >= 10


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


def test_substitute_equals_oracle_on_theorem_cases(catalog):
    # one dot per substitution equals the term-by-term running sum of the
    # dict oracle, for every theorem case's subs and branch images on each
    # group's brackets, constraints, Wan entries and the case's own c and D
    checked = 0
    for gid, entry in catalog.groups.items():
        wans = [p for kind in SolitonKind for row in wan_for_kind(entry.spec, kind) for p in row]
        polys = list(entry.spec.components) + [con.poly for con in entry.spec.constraints] + wans
        for kind in SolitonKind:
            for case in catalog.theorem_claim(gid, kind).cases:
                own = [p for row in case.d for p in row] + ([case.c] if case.c is not None else [])
                for images in (case.subs_map(), *case.branch_maps()):
                    oracle_images = {name: q.terms for name, q in images.items()}
                    for p in polys + own:
                        expected = _oracle_substitute(p.terms, oracle_images)
                        assert p.substitute(images).terms == expected, (gid, case.name, str(p))
                        checked += 1
    assert checked > 1000


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
    canonical = Poly({mono: 1})
    assert canonical.terms == {mono: 1} and canonical._den == 1
    for p in paths:
        assert p == ALPHA
        assert (p._terms, p._den) == (canonical._terms, canonical._den)
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
        lambda: IntegerEvaluator([ALPHA * BETA])({"alpha": 0.5, "beta": 1}),
        lambda: IntegerEvaluator([ALPHA])({"alpha": "1/3"}),
        lambda: load_catalog().groups["g1"].spec.evaluate({"alpha": 0.5, "beta": 1}),
        lambda: load_catalog().groups["g1"].spec.validate_assignment({"alpha": 0.5, "beta": 1}),
        lambda: load_catalog().groups["g7"].spec.validate_assignment(
            {"alpha": 1, "beta": 1, "gamma": 0.0, "delta": 1}
        ),
        lambda: load_catalog().groups["g3"].spec.evaluate({"alpha": 1, "beta": 0.5, "gamma": 1}),
        # variables that no constraint reads: every g3 variable, and g1's beta
        lambda: load_catalog().groups["g3"].spec.validate_assignment({"alpha": 1, "beta": 0.5, "gamma": 1}),
        lambda: load_catalog().groups["g3"].spec.validate_assignment({"alpha": 0.5, "beta": 1, "gamma": 1}),
        lambda: load_catalog().groups["g1"].spec.validate_assignment({"alpha": 1, "beta": 0.5}),
    ],
    ids=[
        "const", "init", "truediv", "const-str", "evaluate", "mul", "add",
        "format-rational", "format-rational-str", "integer-evaluator",
        "integer-evaluator-str", "spec-evaluate", "validate-assignment",
        "validate-assignment-float-zero", "spec-evaluate-no-constraints", "validate-assignment-no-constraints",
        "validate-assignment-no-constraints-alpha", "validate-assignment-unconstrained-beta",
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
        polys = [p for i, j in PAIRS for p in spec.constants[i][j]]
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


_KERNEL_NAME = re.compile(r"(def|kernel|return|sum|numerator|denominator|[xpqmr]\d+|w\d+_\d+)")


def _kernel_sources(monkeypatch) -> list[str]:
    """Record the source of every kernel compiled from now on."""
    sources: list[str] = []
    original = poly_module._kernel_source

    def recording(*args):
        sources.append(original(*args))
        return sources[-1]

    monkeypatch.setattr(poly_module, "_kernel_source", recording)
    return sources


def test_integer_evaluator_kernel_source_has_only_its_own_names(monkeypatch):
    """The generated source holds integer literals and names the evaluator
    makes up; nothing of a polynomial or a variable name is copied in."""
    sources = _kernel_sources(monkeypatch)
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


def test_integer_evaluator_forms_each_repeated_row_once(monkeypatch):
    """A row of several terms that occurs more than once, however it was
    built, is formed once as a local r_j (numbered in order of first
    occurrence) that the return list repeats; a zero row stays 0 and a
    one-term row its own expression.  Every value equals Poly.evaluate."""
    sources = _kernel_sources(monkeypatch)
    sum_a, sum_b = P("alpha*beta - 2*gamma"), -2 * GAMMA + ALPHA * BETA
    square_a, square_b = P("alpha^2 - gamma^2/4"), (ALPHA - GAMMA / 2) * (ALPHA + GAMMA / 2)
    assert sum_a == sum_b and list(sum_a._terms) != list(sum_b._terms)  # equal, built in other orders
    assert square_a == square_b
    polys = [
        P("alpha*beta"), sum_a, Poly.zero(), square_a, ALPHA * BETA, sum_b,
        P("alpha - alpha"), P("3*gamma"), square_b, P("beta + 1"), 3 * GAMMA, sum_a,
    ]
    evaluate = IntegerEvaluator(polys)
    (source,) = sources
    assignments = re.findall(r"^    (r\d+) = (.*)$", source, re.MULTILINE)
    assert [name for name, _ in assignments] == ["r0", "r1"]
    assert len({expr for _, expr in assignments}) == 2
    (returned,) = re.findall(r"^    return \[(.*)\], ", source, re.MULTILINE)
    values = returned.split(", ")
    assert len(values) == len(polys)
    assert [values[k] for k in (1, 5, 11)] == ["r0"] * 3
    assert [values[k] for k in (3, 8)] == ["r1"] * 2
    assert values[2] == values[6] == "0"
    assert values[0] == values[4] and re.fullmatch(r"(\d+\*)?m\d+", values[0])  # one term: k times its monomial
    assert values[7] == values[10] and not values[7].startswith("r")
    assert not values[9].startswith("r")  # several terms, but once
    for expr in (expr for _, expr in assignments):
        assert source.count(expr) == 1
    rng = random.Random(20261019)
    for _ in range(40):
        sigma = {v: Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for v in ("alpha", "beta", "gamma")}
        numerators, den = evaluate(sigma)
        assert [Fraction(n, den) for n in numerators] == [p.evaluate(sigma) for p in polys]


_SOURCES_OF_A_RUN = r"""
import re
from wanas import poly
from wanas.catalog import load_catalog
from wanas.verify import verify_paper
sources = []
original = poly._kernel_source
poly._kernel_source = lambda *args: sources.append(original(*args)) or sources[-1]
verify_paper(load_catalog())
print(len(sources), sum(len(re.findall(r"^    r\d+ = ", source, re.MULTILINE)) for source in sources))
print("".join(sources))
"""


def test_kernel_sources_of_a_run_do_not_depend_on_the_hash_seed():
    """Repeated rows are found by hashing each row's term set; the sources
    that the kernels of one verify_paper run compile are the same under two
    hash seeds, and they share rows.  18 kernels: each group's decide block
    admits its grid, so only g1 and g4, whose base grids are too small and
    are counted, compile the admission rows."""
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(poly_module.__file__))
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _SOURCES_OF_A_RUN], env=env, capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    kernels, shared = map(int, outputs[0].split("\n", 1)[0].split())
    assert kernels == 18 and shared > 0


def test_integer_evaluator_scale_is_lcm_of_coefficient_denominators(monkeypatch):
    """Every evaluator a verify-paper run builds, and every group's
    solution block, scales by the lcm of the reduced denominators of its
    polynomials' coefficients.  A fresh catalog, since the session one holds
    evaluators compiled by earlier tests.  The run compiles two
    classification blocks per group (g1 only the first), so the coverage is
    counted in polynomials (1,176 in 37 evaluators: the run's 591 in 23, and
    each group's two blocks built again)."""
    from wanas.verify import _GroupKernel

    built = []
    original = IntegerEvaluator.__init__

    def recording(self, polys):
        original(self, polys)
        built.append((self, list(polys)))

    monkeypatch.setattr(IntegerEvaluator, "__init__", recording)
    catalog = load_catalog()
    verify_paper(catalog)
    for gid, entry in catalog.groups.items():
        _GroupKernel(entry.spec, list(entry.claims.values())).solve
    assert sum(len(polys) for _, polys in built) > 650
    for evaluate, polys in built:
        assert evaluate.scale == math.lcm(
            *(c.denominator for p in polys for c in p.terms.values())
        )


# -- shortcuts: each result is field-equal to the general path ------------------------


def _fields(p: Poly) -> tuple:
    return p._terms, p._den


def test_substitute_returns_the_polynomial_itself_when_no_image_variable_occurs():
    rng = random.Random(20261021)
    untouched = touched = 0
    for _ in range(400):
        p = random_poly(rng, max_terms=4, max_exp=2)
        images = {v: random_poly(rng, max_terms=2, max_exp=1) for v in rng.sample(VARIABLES, rng.randint(1, 3))}
        result = p.substitute(images)
        general = Poly(_oracle_substitute(p.terms, {v: q.terms for v, q in images.items()}))
        assert _fields(result) == _fields(general)
        if images.keys().isdisjoint(p.variables()):
            assert result is p
            untouched += 1
        else:
            touched += 1
    assert untouched > 50 and touched > 50


@pytest.mark.parametrize("p", [Poly.zero(), Poly.const(Fraction(-3, 4)), ALPHA], ids=str)
def test_substitute_checks_image_names_before_returning_itself(p):
    assert p.substitute({"beta": GAMMA + 1}) is p
    with pytest.raises(PolyParseError, match="unknown variable 'x' in substitution"):
        p.substitute({"x": 1})
    with pytest.raises(PolyParseError, match="unknown variable 'x' in substitution"):
        p.substitute({"beta": 1, "x": BETA})
    with pytest.raises(TypeError, match=r"^cannot coerce float to Poly$"):
        p.substitute({"beta": 0.5})


def test_variables_equal_the_exponent_scan():
    assert Poly.zero().variables() == ()
    assert Poly.const(7).variables() == ()
    rng = random.Random(20261022)
    for _ in range(300):
        p = random_poly(rng)
        assert p.variables() == tuple(v for i, v in enumerate(VARIABLES) if any(m[i] for m in p.terms))


def test_dot_cancellation_gives_the_canonical_form():
    x, y = P("1/2*alpha + 1/3*beta"), P("2*alpha - 3/5")
    # total cancellation: zero is the empty map over 1
    assert _fields(dot([(1, x, y), (-1, y, x)])) == ({}, 1)
    assert _fields(dot([(2, x, y), (-1, y, x), (-1, x, y)], 6)) == ({}, 1)
    # partial cancellation: the alpha^2 and alpha*beta numerators cancel
    partial = dot([(1, x, y), (-1, x, P("2*alpha"))])
    assert _fields(partial) == _fields(x * Fraction(-3, 5))
    _assert_canonical(partial)
    # the surviving numerators share the factor 2 with the denominator: one gcd takes it out
    shared = dot([(1, P("1/2*alpha + beta"), ALPHA), (-1, P("1/2*alpha"), ALPHA)])
    canonical = Poly({(1, 1, 0, 0, 0, 0): 1})
    assert canonical.terms == {(1, 1, 0, 0, 0, 0): 1}
    assert _fields(shared) == _fields(canonical) and canonical._den == 1
    # nothing cancels: the accumulator is kept as it is
    assert _fields(dot([(1, x, y)])) == _fields(P("alpha^2 + 2/3*alpha*beta - 3/10*alpha - 1/5*beta"))


def test_eq_compares_polynomials_then_exact_scalars():
    assert P("2*alpha") == P("alpha + alpha") and P("3/2") == Fraction(3, 2) and P("4") == 4
    assert Poly.zero() == 0 and 0 == Poly.zero() and ALPHA != 1
    assert ALPHA.__eq__(0.5) is NotImplemented and ALPHA != "alpha"


# -- exact values past CPython's int/str digit limit (4300 digits by default) ------------

_SEVENS = "7" * 4400
_BIG = 7 * (10**4400 - 1) // 9  # the int of _SEVENS, made without a string


def test_rationals_of_any_size_parse_and_render():
    assert parse_rational(_SEVENS) == _BIG
    assert parse_rational(f" -{_SEVENS} / 3 ") == Fraction(-_BIG, 3)
    assert parse_rational(f"1/+{_SEVENS}") == Fraction(1, _BIG)
    assert format_rational(Fraction(10**4400)) == "1" + "0" * 4400
    assert format_rational(Fraction(-_BIG, 10**4400 + 1)) == f"-{_SEVENS}/1{'0' * 4399}1"
    assert format_rational(-_BIG) == f"-{_SEVENS}"


@pytest.mark.parametrize("text", ["+-5", f"{_SEVENS}.5", f"{_SEVENS}e2", f"--{_SEVENS}", f"{_SEVENS}/x"])
def test_parse_rational_of_any_size_still_names_the_cause(text):
    with pytest.raises(PolyParseError, match=r"\(not an integer ratio\)$"):
        parse_rational(text)


def test_polynomials_of_any_size_parse_render_and_evaluate():
    p = P(f"{_SEVENS}*alpha - 1/{_SEVENS}")
    assert p == _BIG * ALPHA - Poly.const(Fraction(1, _BIG))
    assert str(p) == f"{_SEVENS}*alpha - 1/{_SEVENS}"
    # the compiled kernel holds the coefficient _BIG^2 as an integer literal
    numerators, den = IntegerEvaluator([p, P("alpha")])({"alpha": Fraction(2, 3)})
    assert [Fraction(n, den) for n in numerators] == [p.evaluate({"alpha": Fraction(2, 3)}), Fraction(2, 3)]
    verdict = SolitonVerdict("soliton", c=Fraction(_BIG), d=((Poly.const(Fraction(1, _BIG)),) * 3,) * 3)
    data = verdict.to_json_dict()
    assert data["c"] == _SEVENS and data["D"][2][2] == f"1/{_SEVENS}"


# -- packed monomials: a tuple reference, the degree bound, the kernel sources -------------


def _tuple_reduce(terms: dict, relation: dict, leading: int) -> dict | None:
    """Reduction modulo a binomial relation on exponent tuples: rewrite any
    multiple of the leading monomial until none is left (one polynomial is a
    Groebner basis of its ideal, so the order does not matter); None when
    the rewrite does not decrease the term order."""
    (lead,) = [m for m in relation if m[leading]]
    rest = {m: -c / relation[lead] for m, c in relation.items() if m != lead}
    if any((sum(m), m) >= (sum(lead), lead) for m in rest):
        return None
    terms = dict(terms)
    while True:
        hit = next((m for m in terms if all(x >= y for x, y in zip(m, lead))), None)
        if hit is None:
            return terms
        quotient = {tuple(x - y for x, y in zip(hit, lead)): terms.pop(hit)}
        terms = oracle_add(terms, oracle_mul(quotient, rest))


def _random_wide_poly(rng: random.Random) -> Poly:
    """Small exponents, and now and then one of up to 20,000, so that the
    fields of a product fill most of their 16 bits."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        mono = [rng.randint(0, 3) if rng.random() < 0.4 else 0 for _ in VARIABLES]
        if rng.random() < 0.2:
            mono[rng.randrange(len(VARIABLES))] = rng.randint(4, 20000)
        terms[tuple(mono)] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return Poly(terms)


def test_packed_monomials_agree_with_a_tuple_reference():
    """+, *, **, dot, substitute, reduce, degree, degree_in, variables and
    str agree with the same operations on the exponent tuples of .terms;
    str lists the terms in descending (total degree, exponent tuple) order."""
    rng = random.Random(20261020)
    reductions = 0
    for _ in range(300):
        p, q, r = _random_wide_poly(rng), _random_wide_poly(rng), random_poly(rng, max_terms=3, max_exp=2)
        pt, qt, rt = p.terms, q.terms, r.terms
        assert (p + q).terms == oracle_add(pt, qt)
        assert (p - q).terms == oracle_add(pt, {m: -c for m, c in qt.items()})
        assert (p * q).terms == oracle_mul(pt, qt)
        assert (r**3).terms == oracle_mul(oracle_mul(rt, rt), rt)
        n, k = rng.randint(-3, 3), rng.randint(1, 5)
        expected = oracle_add(
            {m: c * n for m, c in oracle_mul(pt, qt).items()}, {m: -c for m, c in oracle_mul(qt, rt).items()}
        )
        assert dot([(n, p, q), (-1, q, r)], k).terms == {m: c / k for m, c in expected.items() if c}
        images = {v: random_poly(rng, max_terms=2, max_exp=1) for v in rng.sample(VARIABLES, 2)}
        assert r.substitute(images).terms == _oracle_substitute(rt, {v: s.terms for v, s in images.items()})
        for s in (p, q, r):
            terms = s.terms
            assert s.degree() == max(map(sum, terms), default=0)
            for i, v in enumerate(VARIABLES):
                assert s.degree_in(v) == max((m[i] for m in terms), default=0)
            assert s.variables() == tuple(v for i, v in enumerate(VARIABLES) if any(m[i] for m in terms))
            order = sorted(terms, key=lambda m: (sum(m), m), reverse=True)
            assert str(s) == render_with_fractions(s)  # its terms in this order
            assert str(s) == (" + ".join(str(Poly({m: terms[m]})) for m in order) or "0").replace("+ -", "- ")
        leading = rng.randrange(len(VARIABLES))
        lead = tuple(rng.randint(1, 2) if i == leading else rng.randint(0, 1) for i in range(len(VARIABLES)))
        other = tuple(0 if i == leading else rng.randint(0, 2) for i in range(len(VARIABLES)))
        relation = Poly({lead: rng.randint(1, 3), other: rng.choice((-2, -1, 1, Fraction(1, 2)))})
        expected = _tuple_reduce(r.terms, relation.terms, leading)
        if expected is None:
            with pytest.raises(UnsupportedRelationError, match="does not decrease"):
                r.reduce(relation, VARIABLES[leading])
        else:
            assert r.reduce(relation, VARIABLES[leading]).terms == expected
            reductions += 1
    assert reductions > 100


def test_reduce_finds_exactly_the_multiples_of_the_leading_monomial():
    """A one-term relation rewrites to 0 exactly the monomials it divides:
    every leading monomial with exponents 0 and 1 against every monomial
    with exponents 0 to 2, so each field's borrow is tested on its own."""
    for lead in itertools.product((0, 1), repeat=len(VARIABLES)):
        if not any(lead):
            continue
        relation, leading = Poly({lead: 1}), VARIABLES[lead.index(1)]
        for mono in itertools.product(range(3), repeat=len(VARIABLES)):
            divides = all(x <= y for x, y in zip(lead, mono))
            assert Poly({mono: 1}).reduce(relation, leading).is_zero() == divides, (lead, mono)


def test_degree_bound_holds_at_its_edge():
    """Degree MAX_DEGREE builds through *, ** and Poly(...); one more raises,
    whether an exponent field or only the degree passes the bound."""
    top = (MAX_DEGREE, 0, 0, 0, 0, 0)
    assert MAX_DEGREE == 2**16 - 1
    assert Poly({top: 1}).terms == {top: 1}
    assert (ALPHA ** MAX_DEGREE).terms == {top: 1}
    assert ((ALPHA**32768) * (ALPHA**32767)).terms == {top: 1}
    split = (ALPHA**40000) * (BETA ** (MAX_DEGREE - 40000))
    assert split.degree() == MAX_DEGREE and split.terms == {(40000, MAX_DEGREE - 40000, 0, 0, 0, 0): 1}
    assert ((ALPHA * BETA) ** 32767).degree() == 2 * 32767
    assert str(ETA ** MAX_DEGREE - 1) == f"eta^{MAX_DEGREE} - 1"
    for past in ((MAX_DEGREE + 1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, MAX_DEGREE)):
        with pytest.raises(ValueError, match=f"degrees are limited to {MAX_DEGREE}"):
            Poly({past: 1})
    for make in (
        lambda: ALPHA ** (MAX_DEGREE + 1),  # the alpha field carries
        lambda: (ALPHA**32768) * (ALPHA**32768),
        lambda: (ALPHA**40000) * (BETA**30000),  # no field carries; the degree passes the bound
        lambda: split * C,
        lambda: (ALPHA * BETA) ** 32768,
        lambda: dot([(1, ALPHA**MAX_DEGREE, P("gamma + 1"))]),
        lambda: (ETA**40000 + 1).substitute({"eta": ETA**2}),
    ):
        with pytest.raises(DegreeOverflowError, match=str(MAX_DEGREE)):
            make()
    assert issubclass(DegreeOverflowError, OverflowError)


def test_parse_refuses_an_exponent_past_the_bound_before_building_a_power(monkeypatch):
    assert P(f"alpha^{MAX_DEGREE}") == ALPHA**MAX_DEGREE
    assert P(f"alpha^000{MAX_DEGREE}") == ALPHA**MAX_DEGREE
    monkeypatch.setattr(Poly, "__pow__", lambda *args: pytest.fail("a power was built"))
    for text in ("alpha^99999999999999999999", f"alpha^{MAX_DEGREE + 1}", f"2^{MAX_DEGREE + 1}", "beta^" + "9" * 5000):
        with pytest.raises(PolyParseError, match=f"is above {MAX_DEGREE}, the limit"):
            P(text)
    monkeypatch.undo()
    for text in ("alpha^40000*alpha^40000", "(alpha^300)^300", "(alpha^40000 + 1)*(beta^30000 - 1)"):
        with pytest.raises(PolyParseError, match=f"above {MAX_DEGREE}"):
            P(text)


def test_kernel_sources_equal_those_of_rows_built_from_terms(monkeypatch):
    """For every polynomial list a verify_paper run compiles, the kernel
    source of rows built from .terms (exponent tuples, scaled Fraction
    coefficients) equals the evaluator's own source."""
    built = []
    original_init, original_source = IntegerEvaluator.__init__, poly_module._kernel_source
    sources = []

    def recording(self, polys):
        original_init(self, polys)
        built.append((self, list(polys), sources[-1]))

    monkeypatch.setattr(poly_module, "_kernel_source", lambda *args: sources.append(original_source(*args)) or sources[-1])
    monkeypatch.setattr(IntegerEvaluator, "__init__", recording)
    verify_paper(load_catalog())
    assert len(built) >= 17
    for evaluate, polys, source in built:
        slots = [VARIABLES.index(v) for v in evaluate.variables]
        rows = []
        for p in polys:
            row = []
            for mono, coeff in p.terms.items():
                scaled = coeff * evaluate.scale
                assert scaled.denominator == 1
                row.append((tuple(mono[i] for i in slots), scaled.numerator))
            rows.append(row)
        degrees = tuple(max((m[i] for p in polys for m in p.terms), default=0) for i in slots)
        assert degrees == evaluate.degrees
        assert poly_module._kernel_source(degrees, evaluate.scale, rows) == source


def test_monomial_memos_are_bounded_and_keyed_by_the_monomial():
    """The monomial-format memos are bounded and take the monomial alone."""
    for helper in (poly_module._support, poly_module._mono_text):
        assert helper.cache_parameters()["maxsize"] is not None
        assert list(inspect.signature(helper).parameters) == ["mono"]
    assert poly_module._mono_text(poly_module._pack((2, 1, 0, 0, 0, 3))) == "alpha^2*beta*c^3"
