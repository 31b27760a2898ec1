"""Exact sparse multivariate polynomial arithmetic over the rationals.

The variable universe is closed: the six scalars alpha, beta, gamma, delta,
eta and c.  A polynomial maps monomials (exponent 6-tuples, one slot per
variable) to nonzero ``Fraction`` coefficients; the zero polynomial has an
empty term map.  All operations return canonical values (no zero
coefficients stored), everything is immutable, and no floating point is
involved anywhere.

Monomials are ordered graded-lexicographically with alpha < beta < gamma <
delta < eta < c; rendering and binomial reduction both use this order, so
string output is canonical and usable as a wire format ("3/2*alpha^2*beta",
"p/q" for rationals).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

VARIABLES = ("alpha", "beta", "gamma", "delta", "eta", "c")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)
_ZERO_MONO = (0,) * _NVARS

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


def _mono_key(mono: Mono) -> tuple:
    # graded lex: compare total degree first, then the exponent tuple
    return (sum(mono), mono)


def _mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(x - y for x, y in zip(a, b))


class Poly:
    """Immutable sparse polynomial in alpha, beta, gamma, delta, eta, c."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None):
        cleaned: dict[Mono, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != _NVARS or any(
                    not isinstance(e, int) or e < 0 for e in mono
                ):
                    raise ValueError(
                        f"monomial must be {_NVARS} non-negative integer exponents, got {mono}"
                    )
                coeff = Fraction(coeff)
                if coeff:
                    cleaned[mono] = coeff
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return _ZERO

    @classmethod
    def const(cls, value: Scalar) -> Poly:
        value = Fraction(value)
        if not value:
            return _ZERO
        return _raw({_ZERO_MONO: value})

    @classmethod
    def var(cls, name: str) -> Poly:
        try:
            idx = _VAR_INDEX[name]
        except KeyError:
            raise PolyParseError(
                f"unknown variable {name!r}; the universe is {', '.join(VARIABLES)}"
            ) from None
        mono = [0] * _NVARS
        mono[idx] = 1
        return _raw({tuple(mono): _F1})

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict[Mono, Fraction]:
        """Copy of the canonical term map."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m == _ZERO_MONO for m in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if non-constant)."""
        if not self._terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms[_ZERO_MONO]

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self._terms:
            return 0
        return max(sum(m) for m in self._terms)

    def degree_in(self, name: str) -> int:
        idx = _VAR_INDEX[name]
        if not self._terms:
            return 0
        return max(m[idx] for m in self._terms)

    def variables(self) -> tuple[str, ...]:
        """Variables occurring with nonzero exponent, in canonical order."""
        seen = [False] * _NVARS
        for mono in self._terms:
            for i, e in enumerate(mono):
                if e:
                    seen[i] = True
        return tuple(v for v, s in zip(VARIABLES, seen) if s)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: PolyLike) -> Poly:
        other = as_poly(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono, _F0) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return _raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: PolyLike) -> Poly:
        return self + (-as_poly(other))

    def __rsub__(self, other: PolyLike) -> Poly:
        return as_poly(other) + (-self)

    def __mul__(self, other: PolyLike) -> Poly:
        other = as_poly(other)
        if not self._terms or not other._terms:
            return _ZERO
        out: dict[Mono, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = _mono_mul(ma, mb)
                acc = out.get(mono, _F0) + ca * cb
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return _raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> Poly:
        other = Fraction(other)
        if not other:
            raise ZeroDivisionError("division of a polynomial by zero")
        return _raw({m: c / other for m, c in self._terms.items()})

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = _ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # equal to ints and Fractions under __eq__, so a hash would have to match theirs

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- evaluation, substitution, reduction ----------------------------

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a point; every variable of the polynomial must be assigned.

        One pass over the terms; only the variables that occur are read and
        converted, each once.
        """
        values: list[Fraction | None] = [None] * _NVARS
        total = _F0
        for mono, coeff in self._terms.items():
            term = coeff
            for i, e in enumerate(mono):
                if e:
                    val = values[i]
                    if val is None:
                        name = VARIABLES[i]
                        if name not in assignment:
                            raise MissingVariableError(
                                v for v in self.variables() if v not in assignment
                            )
                        val = values[i] = Fraction(assignment[name])
                    term *= val if e == 1 else val**e
            total += term
        return total

    def substitute(self, images: Mapping[str, PolyLike]) -> Poly:
        """Simultaneously substitute polynomials for the listed variables."""
        if not images:
            return self
        images_p = {name: as_poly(p) for name, p in images.items()}
        for name in images_p:
            if name not in _VAR_INDEX:
                raise PolyParseError(f"unknown variable {name!r} in substitution")
        basis = [images_p.get(v, Poly.var(v)) for v in VARIABLES]
        total = _ZERO
        for mono, coeff in self._terms.items():
            term = Poly.const(coeff)
            for img, e in zip(basis, mono):
                if e:
                    term = term * img**e
            total = total + term
        return total

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
        idx = _VAR_INDEX[leading]
        items = list(relation._terms.items())
        if not 1 <= len(items) <= 2:
            raise UnsupportedRelationError(
                "relation must have one or two terms, got "
                f"{len(items)}: {relation}"
            )
        lead_items = [(m, co) for m, co in items if m[idx] > 0]
        if len(lead_items) != 1:
            raise UnsupportedRelationError(
                f"leading variable {leading} must occur in exactly one term of {relation}"
            )
        lead_mono, lead_coeff = lead_items[0]
        rest = [(m, co) for m, co in items if m != lead_mono]
        if rest:
            rhs_mono, rhs_coeff = rest[0]
            rhs_coeff = -rhs_coeff / lead_coeff
            if _mono_key(rhs_mono) >= _mono_key(lead_mono):
                raise UnsupportedRelationError(
                    f"rewrite in {relation} does not decrease the term order"
                )
        else:
            rhs_mono, rhs_coeff = _ZERO_MONO, _F0

        current = self
        while True:
            hit = None
            for mono in current._terms:
                if _mono_divides(lead_mono, mono):
                    hit = mono
                    break
            if hit is None:
                return current
            coeff = current._terms[hit]
            out = dict(current._terms)
            del out[hit]
            if rhs_coeff:
                mono = _mono_mul(_mono_div(hit, lead_mono), rhs_mono)
                acc = out.get(mono, _F0) + coeff * rhs_coeff
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
            current = _raw(out)

    # -- rendering ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in descending graded-lex order (the printing order)."""
        return sorted(self._terms.items(), key=lambda kv: _mono_key(kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(VARIABLES, mono)
                if e
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _raw(terms: dict[Mono, Fraction]) -> Poly:
    """Wrap an already-canonical term dict without copying."""
    p = object.__new__(Poly)
    object.__setattr__(p, "_terms", terms)
    return p


_F0 = Fraction(0)
_F1 = Fraction(1)
_ZERO = Poly()
_ONE = Poly.const(1)


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
    """

    __slots__ = ("variables", "degrees", "scale", "_monos", "_rows")

    def __init__(self, polys: Sequence[Poly]):
        names = {v for p in polys for v in p.variables()}
        self.variables = tuple(v for v in VARIABLES if v in names)
        slots = [_VAR_INDEX[v] for v in self.variables]
        self.degrees = tuple(max(m[i] for p in polys for m in p._terms) for i in slots)
        self.scale = math.lcm(*(c.denominator for p in polys for c in p._terms.values()))
        monos: dict[tuple[int, ...], int] = {}  # exponents over self.variables -> index
        rows = []
        for p in polys:
            row = []
            for mono, coeff in p._terms.items():
                index = monos.setdefault(tuple(mono[i] for i in slots), len(monos))
                row.append((index, coeff.numerator * (self.scale // coeff.denominator)))
            rows.append(tuple(row))
        self._monos = tuple(monos)
        self._rows = tuple(rows)

    def __call__(self, assignment: Mapping[str, Scalar]) -> tuple[list[int], int]:
        """(numerators, denominator) of every polynomial at the point."""
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise MissingVariableError(missing)
        powers = []
        den = self.scale
        for v, d in zip(self.variables, self.degrees):
            x = assignment[v]
            p, q = x.numerator, x.denominator
            powers.append([p**e * q ** (d - e) for e in range(d + 1)])
            den *= q**d
        values = []
        for mono in self._monos:
            value = 1
            for table, e in zip(powers, mono):
                value *= table[e]
            values.append(value)
        return [sum(k * values[m] for m, k in row) for row in self._rows], den


def format_rational(value: Scalar) -> str:
    """Canonical wire rendering of a rational: "p/q", or "p" when q == 1."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" exactly; decimal notation is rejected."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise PolyParseError(
            f"invalid rational {text!r} (expected p or p/q in lowest integer terms)"
        ) from exc


# -- polynomial expression parser ---------------------------------------

_TOKEN_CHARS = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    text = text.replace("**", "^")
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == ".":
                raise PolyParseError(
                    f"decimal literals are not allowed (near {text[i:j + 2]!r}); use p/q"
                )
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise PolyParseError(f"unexpected character {ch!r} in {text!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], names: Mapping[str, Poly]):
        self.tokens = tokens
        self.pos = 0
        self.names = names

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_expr(self) -> Poly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        result = self.parse_term() * sign
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            if op == "*":
                result = result * rhs
            else:
                if not rhs.is_constant() or rhs.is_zero():
                    raise PolyParseError(
                        f"can only divide by a nonzero rational constant, got {rhs}"
                    )
                result = result / rhs.constant_value()
        return result

    def parse_factor(self) -> Poly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            exp_tok = self.take()
            if not exp_tok.isdigit():
                raise PolyParseError(f"exponent must be a non-negative integer, got {exp_tok!r}")
            base = base ** int(exp_tok)
        return base * sign

    def parse_atom(self) -> Poly:
        tok = self.take()
        if tok == "(":
            inner = self.parse_expr()
            if self.take() != ")":
                raise PolyParseError("unbalanced parentheses")
            return inner
        if tok.isdigit():
            return Poly.const(int(tok))
        if tok in _VAR_INDEX:
            return Poly.var(tok)
        if tok in self.names:
            return self.names[tok]
        allowed = list(VARIABLES) + sorted(self.names)
        raise PolyParseError(f"unknown name {tok!r}; expected one of {', '.join(allowed)}")


def parse_poly(text: str, names: Mapping[str, Poly] | None = None) -> Poly:
    """Parse a polynomial expression over the fixed variable universe.

    ``names`` can supply extra symbols (shorthands) that expand to
    polynomials.  Supports + - * / ^ and parentheses; division only by
    nonzero rational constants; no decimal literals.
    """
    parser = _Parser(_tokenize(text), names or {})
    result = parser.parse_expr()
    if parser.peek() is not None:
        raise PolyParseError(f"trailing input at {parser.peek()!r} in {text!r}")
    return result
