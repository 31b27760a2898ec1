"""Three-dimensional metric Lie algebras with polynomial structure constants.

A :class:`LieAlgebraSpec` couples the three brackets [e_i, e_j] =
sum_k c[i][j][k] e_k with i < j (polynomial entries; the rest of the table
follows by antisymmetry), a diagonal metric signature, and the parameter
constraints that carve out the admissible region (equations that must
vanish, expressions that must not).  The basis is fixed and ordered;
indices are 0-based in code, 1-based in rendering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Callable, Mapping, Sequence, TypeVar

from .poly import (
    IntegerEvaluator,
    Poly,
    PolyLike,
    VARIABLES,
    _int,
    as_poly,
    dot,
    format_rational,
    parse_poly,
    parse_rational,
)

Vec3 = tuple[Poly, Poly, Poly]
Assignment = Mapping[str, Fraction]

ZERO_VEC: Vec3 = (Poly.zero(), Poly.zero(), Poly.zero())

# the three basis pairs (i < j), in canonical order, and their wire keys
PAIRS = ((0, 1), (0, 2), (1, 2))
PAIR_KEYS = tuple(f"e{i + 1},e{j + 1}" for i, j in PAIRS)

_T = TypeVar("_T")


class InvalidAssignmentError(ValueError):
    """A parameter assignment violates the algebra's constraints."""

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(violations))


class GridError(ValueError):
    """A spec's constraints are outside what a grid enumerates: two defining equations, or one it cannot solve."""


def vec3(*components: PolyLike) -> Vec3:
    if len(components) != 3:
        raise ValueError("a basis vector expansion needs exactly 3 components")
    return tuple(as_poly(x) for x in components)


def vec_add(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vec_sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vec_neg(a: Vec3) -> Vec3:
    return (-a[0], -a[1], -a[2])


def antisymmetric(
    upper: Sequence[_T], zero: _T, negate: Callable[[_T], _T]
) -> tuple[tuple[_T, ...], ...]:
    """The full 3x3 table t with t[j][i] = negate(t[i][j]) and ``zero`` on
    the diagonal, from its values on PAIRS (in that order)."""
    table = [[zero] * 3 for _ in range(3)]
    for (i, j), value in zip(PAIRS, upper):
        table[i][j] = value
        table[j][i] = negate(value)
    return tuple(tuple(row) for row in table)


@dataclass(frozen=True)
class MetricSignature:
    """Diagonal metric g(e_i, e_j) = eps[i] * delta_ij with int eps entries +-1."""

    eps: tuple[int, int, int]

    def __post_init__(self):
        if len(self.eps) != 3 or any(type(e) is not int or e not in (1, -1) for e in self.eps):
            raise ValueError(f"signature entries must be the integers 1 or -1, got {self.eps}")


LORENTZ = MetricSignature((1, 1, -1))


@dataclass(frozen=True)
class Constraint:
    """An Equation (poly == 0) or NonVanishing (poly != 0) parameter condition."""

    kind: str  # "eq" | "neq"
    poly: Poly

    def __post_init__(self):
        if self.kind not in ("eq", "neq"):
            raise ValueError(f"constraint kind must be 'eq' or 'neq', got {self.kind!r}")
        if "c" in self.poly.variables():
            raise ValueError(f"constraints may not involve the soliton scalar c: {self.poly}")

    def describe(self) -> str:
        op = "=" if self.kind == "eq" else "!="
        return f"{self.poly} {op} 0"


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Three brackets + signature + parameter constraints.

    ``brackets`` holds [e1,e2], [e1,e3] and [e2,e3], in PAIRS order (the
    wire format); the rest of the table follows by antisymmetry.
    """

    brackets: tuple[Vec3, Vec3, Vec3]
    signature: MetricSignature
    constraints: tuple[Constraint, ...] = ()

    @cached_property
    def constants(self) -> tuple[tuple[Vec3, ...], ...]:
        """The full table: [e_i, e_j] = sum_k constants[i][j][k] e_k."""
        return antisymmetric(self.brackets, ZERO_VEC, vec_neg)

    @cached_property
    def components(self) -> tuple[Poly, ...]:
        """The nine bracket components, in PAIRS order."""
        return tuple(x for vec in self.brackets for x in vec)

    def variables(self) -> tuple[str, ...]:
        """All parameters occurring in brackets or constraints, canonical order."""
        return self._variables

    @cached_property
    def _variables(self) -> tuple[str, ...]:
        seen = {v for p in self.components for v in p.variables()}
        for con in self.constraints:
            seen.update(con.poly.variables())
        return tuple(v for v in VARIABLES if v in seen)

    # -- bracket and Jacobi --------------------------------------------

    def bracket(self, x: Sequence[PolyLike], y: Sequence[PolyLike]) -> Vec3:
        """Bilinear antisymmetric extension of the structure constants."""
        x, y = vec3(*x), vec3(*y)
        products = [(x[i] * y[j], self.constants[i][j]) for i in range(3) for j in range(3) if i != j]
        return tuple(dot((1, xy, cij[k]) for xy, cij in products) for k in range(3))

    def basis_vector(self, i: int) -> Vec3:
        return tuple(Poly.const(int(k == i)) for k in range(3))

    def jacobi_residual(self) -> Vec3:
        """Components of [e1,[e2,e3]] + [e2,[e3,e1]] + [e3,[e1,e2]]."""
        e = [self.basis_vector(i) for i in range(3)]
        total = ZERO_VEC
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            total = vec_add(total, self.bracket(e[i], self.bracket(e[j], e[k])))
        return total

    # -- assignments ----------------------------------------------------

    def validate_assignment(self, sigma: Assignment) -> list[str]:
        """Empty list if sigma is admissible, else the violated conditions."""
        if "c" in sigma:
            return ["the soliton scalar c is not a group parameter"]
        values, den = self._admission(sigma)
        # violated: an equation row that is nonzero, a NonVanishing row that is zero
        return [
            f"{con.poly} = {format_rational(Fraction(value, den))}, expected 0" if eq
            else f"{con.poly} = 0, expected nonzero"
            for con, value, eq in zip(self.constraints, values, self._vanishing_rows)
            if eq == bool(value)
        ]

    def admits(self, values: Sequence[int]) -> bool:
        """Whether the constraint values that lead ``values``, in constraint
        order, satisfy them: each equation's vanishes, each NonVanishing's not."""
        return [not v for v in values[: len(self.constraints)]] == self._vanishing_rows

    def admitted(self, evaluate: IntegerEvaluator, sigma: Assignment) -> tuple[list[int], int]:
        """``evaluate(sigma)`` for an evaluator whose leading rows are the
        constraints.  Raises InvalidAssignmentError (with
        validate_assignment's messages) unless sigma is admissible."""
        if "c" not in sigma:
            values, den = evaluate(sigma)
            if self.admits(values):
                return values, den
        raise InvalidAssignmentError(self.validate_assignment(sigma))

    @cached_property
    def _vanishing_rows(self) -> list[bool]:
        return [con.kind == "eq" for con in self.constraints]

    @cached_property
    def _admission(self) -> IntegerEvaluator:
        """The constraints, then as bare rows the variables they lack, so that every value is read and checked."""
        lacked = [Poly.var(v) for v in self.variables() if not any(v in con.poly.variables() for con in self.constraints)]
        return IntegerEvaluator([con.poly for con in self.constraints] + lacked)

    @cached_property
    def _point_values(self) -> IntegerEvaluator:
        """The constraints and then the nine bracket components, compiled
        once: a value is zero exactly when its integer numerator is."""
        return IntegerEvaluator([con.poly for con in self.constraints] + list(self.components))

    def evaluate(self, sigma: Assignment) -> LieAlgebraSpec:
        """The numeric algebra at sigma: brackets and constraints become their
        values there, as constant polynomials.  Raises InvalidAssignmentError
        (with validate_assignment's messages) unless sigma is admissible."""
        values, den = self.admitted(self._point_values, sigma)
        consts = [Poly.const(Fraction(v, den)) for v in values]
        n = len(self.constraints)
        return LieAlgebraSpec(
            tuple(tuple(consts[k : k + 3]) for k in range(n, n + 9, 3)),
            self.signature,
            tuple(Constraint(con.kind, x) for con, x in zip(self.constraints, consts)),
        )

    def substitute(self, images: Mapping[str, PolyLike]) -> LieAlgebraSpec:
        """Substitute parameters in brackets and constraints (no validation)."""
        def sub(p: Poly) -> Poly:
            return p.substitute(images)

        return LieAlgebraSpec(
            tuple(tuple(map(sub, vec)) for vec in self.brackets),
            self.signature,
            tuple(Constraint(con.kind, sub(con.poly)) for con in self.constraints),
        )

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "brackets": {key: [str(p) for p in vec] for key, vec in zip(PAIR_KEYS, self.brackets)},
            "signature": list(self.signature.eps),
            "constraints": {
                "eq": [str(c.poly) for c in self.constraints if c.kind == "eq"],
                "neq": [str(c.poly) for c in self.constraints if c.kind == "neq"],
            },
        }

    @classmethod
    def from_json_dict(cls, data, parse: Callable[[str], Poly] = parse_poly) -> LieAlgebraSpec:
        """Inverse of to_json_dict, reading each polynomial string with
        ``parse``; a document outside SPEC_SHAPE raises ValueError."""
        check_shape(data, SPEC_SHAPE, "spec")
        cons = data.get("constraints", {})

        def vec(key: str) -> Vec3:
            comps = tuple(map(parse, data["brackets"].get(key, ("0", "0", "0"))))
            for p in comps:
                if "c" in p.variables():
                    raise ValueError(f"brackets {key} may not involve the soliton scalar c: {p}")
            return comps

        constraints = tuple(Constraint(kind, parse(s)) for kind in ("eq", "neq") for s in cons.get(kind, ()))
        return cls(tuple(map(vec, PAIR_KEYS)), MetricSignature(tuple(data.get("signature", (1, 1, -1)))), constraints)


def check_shape(value, shape, what: str, error: type[Exception] = ValueError) -> None:
    """Raise ``error``, naming the JSON path ``what``, unless ``value`` has ``shape``:
    ``str``, ``bool`` or ``int`` match exactly, a tuple lists the allowed values,
    ``[s]`` is a list of ``s`` and ``[s] * 3`` one of exactly 3, and a dict an object with
    exactly its keys (a key ending in ``?`` is optional; the key ``str`` allows any)."""
    if isinstance(shape, tuple):
        if not any(type(value) is type(v) and value == v for v in shape):
            raise error(f"{what} must be {' or '.join(map(repr, shape))}")
    elif isinstance(shape, type):
        if type(value) is not shape:
            name = {str: "a string", bool: "true or false", int: "an integer"}[shape]
            raise error(f"{what} must be {name}")
    elif type(value) is not type(shape):
        raise error(f"{what} must be {'a list' if isinstance(shape, list) else 'an object'}")
    elif isinstance(shape, list):
        if len(shape) > 1 and len(value) != len(shape):
            raise error(f"{what} must have {len(shape)} items, not {len(value)}")
        for i, item in enumerate(value):
            check_shape(item, shape[0], f"{what}[{i}]", error)
    else:
        fields = {key.rstrip("?"): sub for key, sub in shape.items() if key is not str}
        for key in value:
            if key not in fields and str not in shape:
                raise error(f"unknown {what} key {key!r}; expected {' or '.join(map(repr, fields))}")
        for key in fields:
            if key in shape and key not in value:
                raise error(f"missing {what} key {key!r}")
        for key, item in value.items():  # an open object's key may hold a line break; the path stays one line
            check_shape(item, fields.get(key, shape.get(str)), f"{what} {key if key.isprintable() else repr(key)}", error)


def json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` of str-keyed dicts,
    lists, tuples, str, int, bool and None, in one recursive writer (the C
    encoder serves no indent); any other type raises TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items, brackets = [json_text(x, inner) for x in value], "[]"
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        items, brackets = [f"{encode_basestring_ascii(k)}: {json_text(value[k], inner)}" for k in sorted(value)], "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return f"{brackets[0]}{inner}{f',{inner}'.join(items)}{indent}{brackets[1]}" if items else brackets


# the spec-file format: to_json_dict's document, each part but the brackets optional
SPEC_SHAPE = {
    "brackets": {f"{key}?": [str] * 3 for key in PAIR_KEYS},
    "signature?": [(1, -1)] * 3,
    "constraints?": {"eq?": [str], "neq?": [str]},
}


def load_spec_file(path: str) -> LieAlgebraSpec:
    """Read a JSON spec file (the CLI escape hatch); a malformed or too deeply nested one raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=_int)  # an integer of any number of digits
        except RecursionError:
            raise ValueError("the JSON document nests too deeply") from None
    return LieAlgebraSpec.from_json_dict(data)


def parse_assignment(text: str) -> dict[str, Fraction]:
    """Parse "alpha=1,beta=-1/2" into an exact assignment (decimals rejected)."""
    sigma: dict[str, Fraction] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"expected name=p/q, got {chunk!r}")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name not in VARIABLES:
            raise ValueError(f"unknown parameter {name!r}; expected one of {', '.join(VARIABLES)}")
        if name in sigma:
            raise ValueError(f"parameter {name} assigned twice")
        sigma[name] = parse_rational(value)
    return sigma
