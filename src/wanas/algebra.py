"""Three-dimensional metric Lie algebras with polynomial structure constants.

A :class:`LieAlgebraSpec` couples an antisymmetric bracket table
[e_i, e_j] = sum_k c[i][j][k] e_k (polynomial entries), a diagonal metric
signature, and the parameter constraints that carve out the admissible
region (equations that must vanish, expressions that must not).  The basis
is fixed and ordered; indices are 0-based in code, 1-based in rendering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence, TypeVar

from .poly import (
    IntegerEvaluator,
    MissingVariableError,
    Poly,
    PolyLike,
    VARIABLES,
    as_poly,
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


def vec_scale(s: PolyLike, a: Vec3) -> Vec3:
    s = as_poly(s)
    return (s * a[0], s * a[1], s * a[2])


def vec_combination(coeffs: Sequence[Poly], vectors: Sequence[Vec3]) -> Vec3:
    """sum_m coeffs[m] * vectors[m], in order, skipping zero coefficients."""
    out = ZERO_VEC
    for s, v in zip(coeffs, vectors):
        if not s.is_zero():
            out = vec_add(out, vec_scale(s, v))
    return out


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


class StructureConstants:
    """Full antisymmetric table c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k."""

    __slots__ = ("table",)

    def __init__(self, table: Sequence[Sequence[Vec3]]):
        t = tuple(tuple(vec3(*row) for row in plane) for plane in table)
        if len(t) != 3 or any(len(plane) != 3 for plane in t):
            raise ValueError("structure constants need a 3x3 table of 3-vectors")
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if t[i][j][k] != -t[j][i][k]:
                        raise ValueError(
                            f"antisymmetry violated at c[{i + 1}][{j + 1}][{k + 1}]"
                        )
        self.table = t

    @classmethod
    def from_brackets(cls, c12: Vec3, c13: Vec3, c23: Vec3) -> StructureConstants:
        """Build the full table from the three upper brackets."""
        return cls(antisymmetric([vec3(*c12), vec3(*c13), vec3(*c23)], ZERO_VEC, vec_neg))

    def __getitem__(self, ij: tuple[int, int]) -> Vec3:
        i, j = ij
        return self.table[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.table == other.table


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
    """Bracket table + signature + parameter constraints."""

    constants: StructureConstants
    signature: MetricSignature
    constraints: tuple[Constraint, ...] = ()

    def variables(self) -> tuple[str, ...]:
        """All parameters occurring in brackets or constraints, canonical order."""
        return self._variables

    @cached_property
    def _variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for i, j in PAIRS:
            for comp in self.constants[i, j]:
                seen.update(comp.variables())
        for con in self.constraints:
            seen.update(con.poly.variables())
        return tuple(v for v in VARIABLES if v in seen)

    # -- bracket and Jacobi --------------------------------------------

    def bracket(self, x: Sequence[PolyLike], y: Sequence[PolyLike]) -> Vec3:
        """Bilinear antisymmetric extension of the structure constants."""
        x = vec3(*x)
        y = vec3(*y)
        out = list(ZERO_VEC)
        for i in range(3):
            if x[i].is_zero():
                continue
            for j in range(3):
                if i == j or y[j].is_zero():
                    continue
                coeff = x[i] * y[j]
                cij = self.constants[i, j]
                for k in range(3):
                    if not cij[k].is_zero():
                        out[k] = out[k] + coeff * cij[k]
        return tuple(out)

    def basis_vector(self, i: int) -> Vec3:
        out = [Poly.zero()] * 3
        out[i] = Poly.const(1)
        return tuple(out)

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
        missing = [v for v in self.variables() if v not in sigma]
        if missing:
            raise MissingVariableError(missing)
        values, den = self._constraint_values(sigma)
        # violated: an equation row that is nonzero, a NonVanishing row that is zero
        return [
            f"{con.poly} = {format_rational(Fraction(value, den))}, expected 0" if eq
            else f"{con.poly} = 0, expected nonzero"
            for con, value, eq in zip(self.constraints, values, self._vanishing_rows)
            if eq == bool(value)
        ]

    def is_admissible(self, sigma: Assignment) -> bool:
        """validate_assignment(sigma) == [] for a sigma with every variable, without the messages."""
        return "c" not in sigma and self.admits(self._constraint_values(sigma)[0])

    def admits(self, values: Sequence[int]) -> bool:
        """Whether the constraint values that lead ``values``, in constraint
        order, satisfy them: each equation's vanishes, each NonVanishing's not."""
        return [not v for v in values[: len(self.constraints)]] == self._vanishing_rows

    @cached_property
    def _constraint_values(self) -> IntegerEvaluator:
        """The constraint polynomials compiled once: a value is zero exactly
        when its integer numerator is."""
        return IntegerEvaluator([con.poly for con in self.constraints])

    @cached_property
    def _vanishing_rows(self) -> list[bool]:
        return [con.kind == "eq" for con in self.constraints]

    def evaluate(self, sigma: Assignment) -> LieAlgebraSpec:
        """The numeric algebra at sigma (constraints checked, then dropped)."""
        violations = self.validate_assignment(sigma)
        if violations:
            raise InvalidAssignmentError(violations)
        return self.substitute({v: Poly.const(sigma[v]) for v in self.variables()})

    def substitute(self, images: Mapping[str, PolyLike]) -> LieAlgebraSpec:
        """Substitute parameters in brackets and constraints (no validation)."""
        def sub(p: Poly) -> Poly:
            return p.substitute(images)

        brackets = [tuple(map(sub, self.constants[i, j])) for i, j in PAIRS]
        constraints = tuple(
            Constraint(con.kind, sub(con.poly)) for con in self.constraints
        )
        return LieAlgebraSpec(
            StructureConstants.from_brackets(*brackets), self.signature, constraints
        )

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "brackets": {
                key: [str(p) for p in self.constants[ij]] for key, ij in zip(PAIR_KEYS, PAIRS)
            },
            "signature": list(self.signature.eps),
            "constraints": {
                "eq": [str(c.poly) for c in self.constraints if c.kind == "eq"],
                "neq": [str(c.poly) for c in self.constraints if c.kind == "neq"],
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> LieAlgebraSpec:
        """Inverse of to_json_dict; a malformed document raises ValueError."""
        if not isinstance(data, Mapping) or not isinstance(data.get("brackets"), Mapping):
            raise ValueError("an algebra spec must be a JSON object with a 'brackets' object")
        signature = data.get("signature", (1, 1, -1))
        cons = data.get("constraints", {})
        if not isinstance(signature, (list, tuple)) or not isinstance(cons, Mapping):
            raise ValueError("'signature' must be a list and 'constraints' an object")

        def polys(what: str, value) -> list[Poly]:
            if not isinstance(value, (list, tuple)) or not all(isinstance(s, str) for s in value):
                raise ValueError(f"{what} must be a list of polynomial strings")
            return [parse_poly(s) for s in value]

        def vec(key: str) -> Vec3:
            comps = polys(f"bracket {key}", data["brackets"].get(key, ["0", "0", "0"]))
            if len(comps) != 3:
                raise ValueError(f"bracket {key} needs 3 components")
            return vec3(*comps)

        constants = StructureConstants.from_brackets(*map(vec, PAIR_KEYS))
        constraints = tuple(
            [Constraint("eq", p) for p in polys("constraints eq", cons.get("eq", ()))]
            + [Constraint("neq", p) for p in polys("constraints neq", cons.get("neq", ()))]
        )
        return cls(constants, MetricSignature(tuple(signature)), constraints)


def load_spec_file(path: str) -> LieAlgebraSpec:
    """Read a non-catalog algebra from a JSON spec file (the CLI escape hatch)."""
    with open(path, "r", encoding="utf-8") as fh:
        return LieAlgebraSpec.from_json_dict(json.load(fh))


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
