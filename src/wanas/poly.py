"""Exact sparse multivariate polynomial arithmetic over the rationals.

The variable universe is closed: the six scalars alpha, beta, gamma, delta,
eta and c.  A polynomial maps monomials to nonzero integer numerators over
one positive denominator, with no factor common to all of them; zero is the
empty map over 1.  Arithmetic is in integers only: a sum puts both operands
over the lcm of their denominators, a product multiplies them, and one gcd
per result restores the canonical form.  Coefficients and values leave as
``Fraction``; only ``int`` and ``Fraction`` scalars come in (anything else
raises ``TypeError``), everything is immutable, and no floating point is
involved anywhere.

Inside this module a monomial is one ``int`` packing the total degree, then
one ``_WIDTH``-bit exponent field per variable, alpha most significant
(Bachmann & Schoenemann, ISSAC 1998; Monagan & Pearce, CASC 2007): a product
of monomials is one addition, and integer order is the graded-lex order with
alpha < beta < gamma < delta < eta < c, which rendering and binomial
reduction use ("3/2*alpha^2*beta", "p/q" for rationals: a canonical wire
format).  The API speaks exponent 6-tuples: ``Poly(terms)`` takes them and
``.terms`` returns them.  No field carries while every degree is at most
``MAX_DEGREE``: ``Poly(...)`` refuses a monomial past it (``ValueError``),
``parse_poly`` an exponent past it (``PolyParseError``), and ``dot``, behind
every product, raises ``DegreeOverflowError`` when it forms one.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

VARIABLES = ("alpha", "beta", "gamma", "delta", "eta", "c")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)

# the packed monomial: degree, then alpha .. c, one _WIDTH-bit field each
_WIDTH = 16
MAX_DEGREE = (1 << _WIDTH) - 1
_SHIFTS = tuple(_WIDTH * (_NVARS - 1 - i) for i in range(_NVARS))
_PAST_MAX = (MAX_DEGREE + 1) << (_WIDTH * _NVARS)  # the least monomial of degree MAX_DEGREE + 1
_BORROWS = sum(1 << (s + _WIDTH) for s in _SHIFTS)  # the bit above each variable's field
_FIELD = {v: MAX_DEGREE << s for v, s in zip(VARIABLES, _SHIFTS)}

Mono = tuple  # exponent 6-tuple, one entry per VARIABLES slot
Scalar = Union[int, Fraction]
PolyLike = Union["Poly", int, Fraction]


class MissingVariableError(KeyError):
    """A polynomial was evaluated without a value for one of its variables."""

    def __init__(self, names: Iterable[str]):
        self.names = tuple(sorted(names))
        super().__init__(f"missing value for variable(s): {', '.join(self.names)}")

    def __str__(self) -> str:  # KeyError would quote the message
        return f"missing value for variable(s): {', '.join(self.names)}"


class UnsupportedRelationError(ValueError):
    """The reduction relation is not a usable (at most binomial) rewrite rule."""


class PolyParseError(ValueError):
    """A polynomial string could not be parsed."""


class DegreeOverflowError(OverflowError):
    """A product would have a monomial of total degree above ``MAX_DEGREE``."""


def _pack(exponents: Mono) -> int:
    mono = sum(exponents)
    for e in exponents:
        mono = mono << _WIDTH | e
    return mono


def _exponents(mono: int) -> Mono:
    return tuple(mono >> s & MAX_DEGREE for s in _SHIFTS)


@functools.lru_cache(maxsize=1 << 12)
def _support(mono: int) -> tuple[tuple[int, int], ...]:
    """(variable index, exponent) for each variable of a monomial, in canonical order."""
    return tuple((i, e) for i, s in enumerate(_SHIFTS) if (e := mono >> s & MAX_DEGREE))


@functools.lru_cache(maxsize=1 << 12)
def _mono_text(mono: int) -> str:
    """"alpha^2*beta" for a monomial; "" for 1."""
    return "*".join(VARIABLES[i] if e == 1 else f"{VARIABLES[i]}^{e}" for i, e in _support(mono))


def _ratio(value: Scalar) -> tuple[int, int]:
    """(numerator, denominator) of an exact scalar in lowest terms."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"cannot coerce {type(value).__name__} to Poly")


class Poly:
    """Immutable sparse polynomial in alpha, beta, gamma, delta, eta, c.

    ``terms`` maps exponent 6-tuples to coefficients; each monomial's total
    degree must be at most ``MAX_DEGREE``.  The coefficient of the packed
    monomial ``mono`` is ``_terms[mono] / _den``: nonzero integer numerators
    over one positive denominator with ``gcd(_den, *numerators) == 1``, so
    equal polynomials have equal fields.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None):
        ratios: dict[int, tuple[int, int]] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != _NVARS or any(not isinstance(e, int) or e < 0 for e in mono):
                    raise ValueError(f"monomial must be {_NVARS} non-negative integer exponents, got {mono}")
                if sum(mono) > MAX_DEGREE:
                    raise ValueError(f"monomial {mono} has degree {sum(mono)}; degrees are limited to {MAX_DEGREE}")
                num, den = _ratio(coeff)
                if num:
                    ratios[_pack(mono)] = (num, den)
        # reduced fractions over the lcm of their denominators share no factor
        den = math.lcm(*(d for _, d in ratios.values()))
        object.__setattr__(self, "_terms", {m: n * (den // d) for m, (n, d) in ratios.items()})
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return _ZERO

    @classmethod
    def const(cls, value: Scalar) -> Poly:
        num, den = _ratio(value)
        if not num:
            return _ZERO
        return _raw({0: num}, den)

    @classmethod
    def var(cls, name: str) -> Poly:
        try:
            idx = _VAR_INDEX[name]
        except KeyError:
            raise PolyParseError(
                f"unknown variable {name!r}; the universe is {', '.join(VARIABLES)}"
            ) from None
        return _VARS[idx]

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict[Mono, Fraction]:
        """Copy of the canonical term map, with Fraction coefficients."""
        den = self._den
        return {_exponents(m): Fraction(k, den) for m, k in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if non-constant)."""
        if not self._terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._terms[0], self._den)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        return max(self._terms, default=0) >> _WIDTH * _NVARS

    def degree_in(self, name: str) -> int:
        shift = _SHIFTS[_VAR_INDEX[name]]
        return max((m >> shift & MAX_DEGREE for m in self._terms), default=0)

    def variables(self) -> tuple[str, ...]:
        """Variables occurring with nonzero exponent, in canonical order."""
        union = functools.reduce(operator.or_, self._terms, 0)
        return tuple([v for v, field in _FIELD.items() if union & field])

    # -- ring operations ----------------------------------------------

    def __add__(self, other: PolyLike) -> Poly:
        return _sum(self, as_poly(other), 1)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return _raw({m: -k for m, k in self._terms.items()}, self._den)

    def __sub__(self, other: PolyLike) -> Poly:
        return _sum(self, as_poly(other), -1)

    def __rsub__(self, other: PolyLike) -> Poly:
        return _sum(as_poly(other), self, -1)

    def __mul__(self, other: PolyLike) -> Poly:
        if isinstance(other, int):
            # an integer scales the numerators; 0 and +-1 need no arithmetic
            if other == 1 or not self._terms:
                return self
            if other == -1:
                return -self
            if not other:
                return _ZERO
            return _canonical({m: k * other for m, k in self._terms.items()}, self._den)
        return dot(((1, self, as_poly(other)),))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> Poly:
        num, den = _ratio(other)
        if not num:
            raise ZeroDivisionError("division of a polynomial by zero")
        if num < 0:
            num, den = -num, -den
        return _canonical({m: k * den for m, k in self._terms.items()}, self._den * num)

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result, base, n = None, self, exponent
        while n:
            if n & 1:  # the first factor is taken as it is, not multiplied by 1
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return _ONE if result is None else result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        return self._den == other._den and self._terms == other._terms

    __hash__ = None  # equal to ints and Fractions under __eq__, so a hash would have to match theirs

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- evaluation, substitution, reduction ----------------------------

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a point; every variable of the polynomial must be assigned.

        One pass over the terms; only the variables that occur are read and
        checked, each once.
        """
        values: list[Scalar | None] = [None] * _NVARS
        total = 0
        for mono, k in self._terms.items():
            term = k
            for i, e in _support(mono):
                val = values[i]
                if val is None:
                    name = VARIABLES[i]
                    if name not in assignment:
                        raise MissingVariableError(v for v in self.variables() if v not in assignment)
                    val = values[i] = assignment[name]
                    _ratio(val)  # only int and Fraction values are exact
                term *= val if e == 1 else val**e
            total += term
        return Fraction(total, self._den)

    def substitute(self, images: Mapping[str, PolyLike]) -> Poly:
        """Simultaneously substitute polynomials for the listed variables; once
        the image types and names are checked, a polynomial in none of them
        (one OR over its keys against their fields) is returned as it is."""
        if not images:
            return self
        for image in images.values():
            if not isinstance(image, (Poly, int, Fraction)):
                as_poly(image)  # raises its TypeError
        mask = 0
        for name in images:
            field = _FIELD.get(name)
            if field is None:
                raise PolyParseError(f"unknown variable {name!r} in substitution")
            mask |= field
        if not functools.reduce(operator.or_, self._terms, 0) & mask:
            return self
        basis = [as_poly(images[v]) if v in images else x for v, x in zip(VARIABLES, _VARS)]
        powers: dict[tuple[int, int], Poly] = {}
        products = []
        for mono, k in self._terms.items():
            term = _ONE
            for i, e in _support(mono):
                power = powers.get((i, e))
                if power is None:
                    power = powers[i, e] = basis[i] ** e
                term = power if term is _ONE else term * power
            products.append((k, term, _ONE))
        return dot(products, self._den)

    def fold_sign(self, name: str) -> Poly:
        """This polynomial modulo name^2 = 1 (a sign variable): one mask per
        term takes the even part of its exponent out of the variable's field
        and the degree field, then one gcd; self when no exponent exceeds 1."""
        shift = _SHIFTS[_VAR_INDEX[name]]
        even_field = (MAX_DEGREE - 1) << shift  # the exponent bits above its parity bit
        if not functools.reduce(operator.or_, self._terms, 0) & even_field:
            return self
        out: dict[int, int] = {}
        for mono, k in self._terms.items():
            even = mono & even_field
            mono -= even + (even << (_WIDTH * _NVARS - shift))
            out[mono] = out.get(mono, 0) + k
        return _canonical({m: k for m, k in out.items() if k}, self._den)

    def reduce(self, relation: Poly, leading: str) -> Poly:
        """Reduce modulo a (at most) binomial rewrite rule.

        ``relation`` must have one or two terms, exactly one of which contains
        ``leading``; that term is rewritten to minus the rest.  The rewrite
        must strictly decrease the graded-lex order, which guarantees
        termination; the result contains no monomial divisible by the leading
        monomial of the relation.
        """
        if leading not in _VAR_INDEX:
            raise UnsupportedRelationError(f"unknown leading variable {leading!r}")
        shift = _SHIFTS[_VAR_INDEX[leading]]
        items = list(relation._terms.items())
        if not 1 <= len(items) <= 2:
            raise UnsupportedRelationError(f"relation must have one or two terms, got {len(items)}: {relation}")
        lead_items = [(m, k) for m, k in items if m >> shift & MAX_DEGREE]
        if len(lead_items) != 1:
            raise UnsupportedRelationError(
                f"leading variable {leading} must occur in exactly one term of {relation}"
            )
        lead_mono, lead_k = lead_items[0]
        rest = [(m, k) for m, k in items if m != lead_mono]
        if rest:
            rhs_mono, rhs_k = rest[0]
            # lead_mono is rewritten to rhs_num / rhs_den * rhs_mono
            rhs = Fraction(-rhs_k, lead_k)
            rhs_num, rhs_den = rhs.numerator, rhs.denominator
            if rhs_mono >= lead_mono:
                raise UnsupportedRelationError(f"rewrite in {relation} does not decrease the term order")
        else:
            rhs_mono, rhs_num, rhs_den = 0, 0, 1

        current = self
        while True:
            hit = None
            for mono in current._terms:
                if not ((mono - lead_mono) ^ mono ^ lead_mono) & _BORROWS:  # no field borrows: divisible
                    hit = mono
                    break
            if hit is None:
                return current
            k = current._terms[hit]
            out = {m: x * rhs_den for m, x in current._terms.items()}
            del out[hit]
            if rhs_num:
                mono = hit - lead_mono + rhs_mono
                acc = out.get(mono, 0) + k * rhs_num
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
            current = _canonical(out, current._den * rhs_den)

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        den = self._den
        parts: list[str] = []
        for mono in self._terms if len(self._terms) == 1 else sorted(self._terms, reverse=True):
            k = self._terms[mono]
            text = _mono_text(mono)
            g = math.gcd(k, den)  # |k| / den in lowest terms, printed as Fraction prints it
            mag = _int_str(abs(k) // g) if g == den else f"{_int_str(abs(k) // g)}/{_int_str(den // g)}"
            body = f"{mag}*{text}" if text and mag != "1" else text or mag
            sign = ("" if k > 0 else "-") if not parts else ("+ " if k > 0 else "- ")
            parts.append(sign + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _raw(terms: dict[int, int], den: int) -> Poly:
    """Wrap an already-canonical numerator dict and denominator without copying."""
    p = object.__new__(Poly)
    object.__setattr__(p, "_terms", terms)
    object.__setattr__(p, "_den", den)
    return p


def _canonical(terms: dict[int, int], den: int) -> Poly:
    """The Poly of nonzero integer numerators over a positive ``den``:
    one gcd takes out their common factor."""
    if not terms:
        return _ZERO
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            terms = {m: k // g for m, k in terms.items()}
            den //= g
    return _raw(terms, den)


def _sum(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign * q, for sign = 1 or -1."""
    if not q._terms:
        return p
    if not p._terms:
        return q if sign == 1 else -q
    den = p._den if p._den == q._den else math.lcm(p._den, q._den)
    f = den // p._den
    out = dict(p._terms) if f == 1 else {m: k * f for m, k in p._terms.items()}
    scale = sign * (den // q._den)
    for mono, k in q._terms.items():
        acc = out.get(mono, 0) + k * scale
        if acc:
            out[mono] = acc
        else:
            del out[mono]
    return _canonical(out, den)


def dot(terms: Iterable[tuple[int, Poly, Poly]], den: int = 1) -> Poly:
    """sum of n * a * b over the (n, a, b) triples, divided by the positive
    integer ``den``, accumulated in one numerator dict.

    The numerators are put over ``den`` times the lcm of the products'
    denominators and reduced by one gcd at the end; a constant factor
    scales numerators instead of forming monomials.  Every product stays a
    key until the final filter, so one ``max`` guards the degree bound.
    """
    products = [(n, a, b) for n, a, b in terms if n and a._terms and b._terms]
    if not products:
        return _ZERO
    lcm = math.lcm(*[a._den * b._den for _, a, b in products])
    out: dict[int, int] = {}
    formed = False
    for n, a, b in products:
        f = n * (lcm // (a._den * b._den))
        at, bt = a._terms, b._terms
        if len(at) == 1 and 0 in at:
            at, bt = bt, at
        if len(bt) == 1 and 0 in bt:
            f *= bt[0]
            for m, k in at.items():
                out[m] = out.get(m, 0) + k * f
        else:
            formed = True
            for ma, ka in at.items():
                ka *= f
                for mb, kb in bt.items():
                    mono = ma + mb
                    out[mono] = out.get(mono, 0) + ka * kb
    if formed and max(out) >= _PAST_MAX:  # a field carried only if the degree passed the bound
        raise DegreeOverflowError(_OVERFLOW)
    if 0 in out.values():  # a numerator cancelled
        out = {m: k for m, k in out.items() if k}
    return _canonical(out, lcm * den)


_OVERFLOW = f"a product has degree above {MAX_DEGREE}, the limit of a monomial"
_ZERO = _raw({}, 1)
_ONE = _raw({0: 1}, 1)
_VARS = tuple(_raw({_pack(tuple(int(i == j) for j in range(_NVARS))): 1}, 1) for i in range(_NVARS))


def as_poly(value: PolyLike) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Poly")


class IntegerEvaluator:
    """A fixed list of polynomials compiled for exact evaluation in integers.

    Compiling scales every coefficient by ``scale``, the lcm of their
    denominators.  At a point x_v = p_v/q_v (lowest terms, q_v > 0) the
    values are integer numerators over one positive denominator
    ``scale * prod_v q_v^d_v``, where d_v is the largest degree of v in the
    list: a term k * prod_v x_v^e_v contributes k * scale * prod_v
    p_v^e_v * q_v^(d_v - e_v).  The variables are those occurring in the
    list, in canonical order.

    The list and the constant 1, whose numerator is that denominator, are
    compiled once into the grid nest of ``nest.grid_nest``; a point is the
    grid of one value per variable.
    """

    __slots__ = ("variables", "degrees", "scale", "_nest")

    def __init__(self, polys: Sequence[Poly]):
        from .nest import grid_nest  # here, not at import: loading the catalog loads no wanas.nest

        names = {v for p in polys for v in p.variables()}
        self.variables = tuple(v for v in VARIABLES if v in names)
        self.scale, rows = _integer_rows(polys, self.variables)
        self.degrees = tuple(map(max, zip(*(mono for row in rows for mono, _ in row))))
        self._nest = grid_nest([*polys, _ONE], self.variables, ())

    def __call__(self, assignment: Mapping[str, Scalar]) -> tuple[list[int], int]:
        """(numerators, denominator) of every polynomial at the point."""
        try:
            domains = [(assignment[v],) for v in self.variables]
        except KeyError:
            raise MissingVariableError(
                v for v in self.variables if v not in assignment
            ) from None
        try:
            _, values = next(self._nest(*domains, True))
            return values[:-1], values[-1]
        except AttributeError as exc:  # a value without .numerator: checked only now
            error = exc
        for (x,) in domains:
            _ratio(x)  # raises the TypeError of a value that is not int or Fraction
        raise error


def _integer_rows(polys: Sequence[Poly], variables: Sequence[str]) -> tuple[int, list[list[tuple[tuple[int, ...], int]]]]:
    """(scale, rows): the lcm of the denominators, each polynomial as (exponents over ``variables``, k * scale) terms."""
    shifts = [_SHIFTS[_VAR_INDEX[v]] for v in variables]
    scale = math.lcm(*(p._den for p in polys))
    return scale, [
        [(tuple(mono >> s & MAX_DEGREE for s in shifts), k * (scale // p._den)) for mono, k in p._terms.items()]
        for p in polys
    ]


def _int_str(n: int) -> str:
    """str(n) past CPython's int/str digit limit (4300 by default), through decimal, which has none."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def is_digits(text: str) -> bool:
    """Whether ``text`` is one or more ASCII digits 0-9 (``str.isdigit`` also takes "٣" and "²")."""
    return text.isascii() and text.isdigit()


def _int(text: str) -> int:
    """The integer of a decimal literal (an optional sign, then ASCII digits)
    of any number of digits: past 640, CPython's least int/str digit limit, through decimal."""
    body = text.strip()
    if not is_digits(body[1:] if body[:1] in "+-" else body):
        raise ValueError(f"invalid integer literal {text!r}")
    return int(body) if len(body) <= 640 else int(Decimal(body))


def format_rational(value: Scalar) -> str:
    """Canonical wire rendering of a rational: "p/q", or "p" when q == 1."""
    num, den = _ratio(value)
    return f"{_int_str(num)}/{_int_str(den)}" if den != 1 else _int_str(num)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" exactly, of any number of digits; decimal notation is rejected."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(_int(num), _int(den))
        return Fraction(_int(text))
    except ZeroDivisionError as exc:
        raise PolyParseError(f"invalid rational {text!r} (zero denominator)") from exc
    except ValueError as exc:
        raise PolyParseError(f"invalid rational {text!r} (not an integer ratio)") from exc


# -- polynomial expression parser ---------------------------------------

MAX_NESTING = 100  # parenthesis levels; the parser recurses once per level
_TOKEN_CHARS = {"+", "-", "*", "/", "^", "(", ")"}
# whitespace, ASCII digits (with a "." and the character after it), a name, or one other character
_TOKEN = re.compile(r"\s+|[0-9]+(?:\..?)?|\w+|.", re.S)
_PLAIN, _PLAIN_TOKEN = re.compile(r"[ \w+\-*/^()]*", re.A), re.compile(r"[0-9]+|[A-Za-z_]\w*|\S", re.A)
_UNIT = {v: next(iter(x._terms)) for v, x in zip(VARIABLES, _VARS)}  # each variable's packed monomial


def _tokenize(text: str) -> list[str]:
    text = text.replace("**", "^")
    if _PLAIN.fullmatch(text):  # spaces, ASCII letters, digits, _ and operators: nothing to refuse
        return _PLAIN_TOKEN.findall(text)
    tokens = [tok for tok in _TOKEN.findall(text) if not tok.isspace()]
    for tok in tokens:
        if "." in tok[1:]:
            raise PolyParseError(f"decimal literals are not allowed (near {tok!r}); use p/q")
        if not (tok[0].isalpha() or tok[0] == "_" or is_digits(tok[0]) or tok in _TOKEN_CHARS):  # "\w" also takes "²"
            raise PolyParseError(f"unexpected character {tok[0]!r} in {text!r}")
    return tokens


class _Parser:
    """Recursive descent: a number or a variable is a factor (integer,
    packed monomial), a parenthesised group or a shorthand a ``Poly``."""

    def __init__(self, tokens: list[str], names: Mapping[str, Poly]):
        self.tokens = [*tokens, None]  # None ends the input
        self.pos = self.depth = 0
        self.names = names

    def take(self) -> str:
        tok = self.tokens[self.pos]
        if tok is None:
            raise PolyParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_expr(self) -> Poly:
        terms = [(1, self.parse_term(), _ONE)]  # a leading sign is the first factor's
        while self.tokens[self.pos] in ("+", "-"):
            terms.append((-1 if self.take() == "-" else 1, self.parse_term(), _ONE))
        return terms[0][1] if len(terms) == 1 else dot(terms)

    def parse_term(self) -> Poly:
        """Each number multiplies one ratio num/den and each variable adds to
        one monomial; a group or shorthand turns the product into a ``Poly``."""
        num, den, mono, product = 1, 1, 0, None
        op = "*"
        while True:
            factor = self.parse_factor()
            if op == "/":
                if isinstance(factor, tuple) and not factor[1] and factor[0]:
                    value: Scalar = factor[0]
                elif isinstance(factor, Poly) and factor.is_constant() and factor:
                    value = factor.constant_value()
                else:
                    raise PolyParseError(f"can only divide by a nonzero rational constant, got {_factor_poly(factor)}")
                if product is None:
                    num, den = num * value.denominator, den * value.numerator
                else:
                    product = product / value
            elif product is None and isinstance(factor, tuple):
                if num and factor[0] and mono + factor[1] >= _PAST_MAX:
                    raise DegreeOverflowError(_OVERFLOW)
                num, mono = num * factor[0], mono + factor[1]
            elif product is None:  # the first group or shorthand: from here on the product is a Poly
                product = factor if (num, den, mono) == (1, 1, 0) else _factor_poly((num, mono), den) * factor
            else:
                product = product * _factor_poly(factor)
            op = self.tokens[self.pos]
            if op != "*" and op != "/":
                return _factor_poly((num, mono), den) if product is None else product
            self.pos += 1

    def parse_factor(self) -> tuple[int, int] | Poly:
        """Signs, an atom and an optional power; the signs apply to the power."""
        tokens, sign = self.tokens, 1
        while tokens[self.pos] in ("+", "-"):
            if tokens[self.pos] == "-":
                sign = -sign
            self.pos += 1
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PolyParseError(f"parentheses nest deeper than {MAX_NESTING} levels")
            base = self.parse_expr()
            if self.take() != ")":
                raise PolyParseError("unbalanced parentheses")
            self.depth -= 1
        elif tok in _UNIT:
            base = (1, _UNIT[tok])
        elif is_digits(tok):
            base = (_int(tok), 0)
        elif tok in self.names:
            base = self.names[tok]
        else:
            allowed = list(VARIABLES) + sorted(self.names)
            raise PolyParseError(f"unknown name {tok!r}; expected one of {', '.join(allowed)}")
        if tokens[self.pos] == "^":
            self.pos += 1
            exp_tok = self.take()
            if not is_digits(exp_tok):
                raise PolyParseError(f"exponent must be a non-negative integer, got {exp_tok!r}")
            # a prefix one digit longer than the bound's, so no int() of a long literal
            exponent = int(exp_tok.lstrip("0")[: len(str(MAX_DEGREE)) + 1] or 0)
            if exponent > MAX_DEGREE:
                raise PolyParseError(f"exponent {exp_tok} is above {MAX_DEGREE}, the limit of a monomial's degree")
            base = base**exponent if isinstance(base, Poly) else (base[0] ** exponent, base[1] * exponent)
        if isinstance(base, Poly):
            return -base if sign < 0 else base
        return (sign * base[0], base[1])


def _factor_poly(factor: tuple[int, int] | Poly, den: int = 1) -> Poly:
    """The Poly of a factor, or of (integer, monomial) over a nonzero ``den``."""
    if isinstance(factor, Poly):
        return factor
    num, mono = factor
    return _canonical({mono: num if den > 0 else -num}, abs(den)) if num else _ZERO


def parse_poly(text: str, names: Mapping[str, Poly] | None = None) -> Poly:
    """Parse a polynomial expression over the fixed variable universe.

    ``names`` can supply extra symbols (shorthands) that expand to
    polynomials.  Supports + - * / ^ and parentheses; division only by
    nonzero rational constants; no decimal literals; digits are ASCII.  A
    degree or exponent above ``MAX_DEGREE``, or parentheses nested deeper
    than ``MAX_NESTING``, raise ``PolyParseError``.
    """
    parser = _Parser(_tokenize(text), names or {})
    try:
        result = parser.parse_expr()
    except DegreeOverflowError as exc:
        raise PolyParseError(str(exc)) from None
    if parser.tokens[parser.pos] is not None:
        raise PolyParseError(f"trailing input at {parser.tokens[parser.pos]!r} in {text!r}")
    return result
