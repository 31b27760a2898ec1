"""Algebraic soliton decision for the Wan operator of the canonical connection.

A metric Lie algebra is an algebraic soliton (first kind: Wan operator;
second kind: its form-symmetrization) when Wan = c*Id + D for some scalar c
and a derivation D of the algebra.  That forces D = Wan - c*Id, so at a
rational parameter point solitonhood reduces to feasibility of a system of
nine affine equations in the single unknown c, decided exactly over Q: any
real solution of such a rational affine system is rational, so restricting
c to Q loses no generality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import PAIR_KEYS, PAIRS, LieAlgebraSpec, Vec3
from .geometry import Mat3, mat_sub, mat_substitute, matrix_json, scalar_matrix, wan_forms
from .poly import Poly, Scalar, dot, format_rational


class SolitonKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"


def wan_for_kind(spec: LieAlgebraSpec, kind: SolitonKind) -> Mat3:
    """The decision operator: Wan for FIRST, its symmetrization for SECOND.

    Evaluated from ``geometry.wan_forms``, the quadratic forms in the nine
    bracket components that ``compute_tensors`` gives, one ``dot`` per entry.
    """
    s = spec.components
    return tuple(
        tuple(dot(((n, s[a], s[b]) for a, b, n in terms), den) for den, terms in form_row)
        for form_row in wan_forms(spec.signature)[kind is SolitonKind.SECOND]
    )


# [e_a, e_b][l] = sign * components[base + l] for a != b; residual (pair, l) is the sum of
# n * components[slot] * d[row][col] over its (n, slot, (row, col)) triples
_SLOTS = {(a, b): (sign, 3 * p) for p, (i, j) in enumerate(PAIRS) for a, b, sign in ((i, j, 1), (j, i, -1))}
_RESIDUAL_TERMS = tuple(
    tuple(
        tuple(
            (n * _SLOTS[key][0], _SLOTS[key][1] + comp, entry)
            for k in range(3)
            for n, key, comp, entry in ((1, (i, j), k, (k, l)), (-1, (k, j), l, (i, k)), (-1, (i, k), l, (j, k)))
            if key in _SLOTS
        )
        for l in range(3)
    )
    for i, j in PAIRS
)


def derivation_residual(d: Mat3, spec: LieAlgebraSpec) -> tuple[Vec3, Vec3, Vec3]:
    """D[e_i,e_j] - [D e_i, e_j] - [e_i, D e_j] for the three basis pairs,
    one ``dot`` over ``_RESIDUAL_TERMS`` per component.

    All nine scalar components vanish exactly iff D (row i = image of e_i)
    is a derivation of the algebra.
    """
    s = spec.components
    return tuple(
        tuple(dot((n, s[slot], d[r][col]) for n, slot, (r, col) in terms) for terms in row)
        for row in _RESIDUAL_TERMS
    )


def residual_constants(spec: LieAlgebraSpec, wan: Mat3) -> tuple[Poly, ...]:
    """The constants of the nine residual equations of Wan = c*Id + D, in
    PAIRS order: the derivation residual of Wan.

    The residual of D = Wan - c*Id is constant + slope*c with the slopes
    ``spec.components``: the residual is linear in D and that of -Id is
    [e_i, e_j].
    """
    return tuple(comp for vec in derivation_residual(wan, spec) for comp in vec)


@dataclass(frozen=True)
class AffineEquation:
    """One residual component as an affine condition constant + slope*c = 0."""

    pair: tuple[int, int]
    component: int
    constant: Fraction
    slope: Fraction

    def describe(self) -> str:
        key = PAIR_KEYS[PAIRS.index(self.pair)]
        lhs = format_rational(self.constant)
        if self.slope:
            sign = "+" if self.slope > 0 else "-"
            mag = abs(self.slope)
            lhs += f" {sign} c" if mag == 1 else f" {sign} {format_rational(mag)}*c"
        return f"residual({key})[e{self.component + 1}]: {lhs} = 0"

    def to_json_dict(self) -> dict:
        return {
            "pair": PAIR_KEYS[PAIRS.index(self.pair)],
            "component": f"e{self.component + 1}",
            "constant": format_rational(self.constant),
            "slope": format_rational(self.slope),
        }


@dataclass(frozen=True)
class SolitonVerdict:
    """Outcome of the soliton decision at a rational parameter point.

    outcome is one of:
      "soliton"     unique admissible c; d holds the derivation Wan - c*Id
      "any_c"       the residual system vanishes identically in c (abelian
                    algebra); d holds the family Wan - c*Id, affine in c
      "no_soliton"  the affine system is infeasible; witness holds the
                    contradictory equations
    """

    outcome: str
    c: Fraction | None = None
    d: Mat3 | None = None
    witness: tuple[AffineEquation, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "c": format_rational(self.c) if self.c is not None else None,
            "D": matrix_json(self.d) if self.d is not None else None,
            "witness": [eq.to_json_dict() for eq in self.witness] or None,
        }

    def describe(self) -> str:
        if self.outcome == "no_soliton":  # an expected verdict has no witness
            return f"no soliton ({', '.join(eq.describe() for eq in self.witness)})" if self.witness else "no soliton"
        rows = "; ".join("(" + ", ".join(map(str, row)) + ")" for row in self.d)
        if self.outcome == "any_c":
            return f"soliton for every c, D(c) rows {rows}"
        return f"soliton with c = {format_rational(self.c)}, D rows {rows}"


def solve_affine(pairs: Iterable[tuple[Scalar, Scalar]]):
    """Solve constant + slope*x = 0 over (constant, slope) pairs, in one pass
    over any iterable of them (a list, or a zip read in place).

    The pairs are Fractions, or integer numerators over one shared positive
    denominator: values are only tested for zero and compared by
    cross-multiplication, so both give the same outcome and witness.
    Returns ("one", witness), ("any", ()) or ("none", witness), with no root
    formed: the witness holds indices into ``pairs``; for "one" the equation
    (a, b) that fixes x = -a/b; for "none" the first sloped equation and the
    first one disagreeing with it, else the first flat contradiction and the
    first sloped equation, else the first two flat contradictions.
    """
    first = None
    flat_bad: list[int] = []
    for k, (constant, slope) in enumerate(pairs):
        if not slope:
            if constant and len(flat_bad) < 2:
                flat_bad.append(k)
        elif first is None:
            first, a, b = k, constant, slope
        elif constant * b != a * slope:
            return ("none", (first, k))
    if first is None:
        return ("none", tuple(flat_bad)) if flat_bad else ("any", ())
    return ("none", (flat_bad[0], first)) if flat_bad else ("one", (first,))


def soliton_decide(spec: LieAlgebraSpec, kind: SolitonKind, wan: Mat3) -> SolitonVerdict:
    """Decide solitonhood at a numeric point, exactly.

    ``spec`` must be a numeric algebra (constant structure polynomials) and
    ``wan`` the matching numeric decision operator for ``kind``.  A feasible
    system's D is Wan - c*Id, with c the root or, for "any_c", the variable c.
    """
    pairs = [(a.constant_value(), b.constant_value()) for a, b in zip(residual_constants(spec, wan), spec.components)]
    outcome, witness = solve_affine(pairs)
    if outcome == "none":
        witness = tuple(AffineEquation(PAIRS[k // 3], k % 3, *pairs[k]) for k in witness)
        return SolitonVerdict("no_soliton", witness=witness)
    c_value = None if outcome == "any" else Fraction(-pairs[witness[0]][0], pairs[witness[0]][1])
    d = mat_sub(wan, scalar_matrix(Poly.var("c") if c_value is None else Poly.const(c_value)))
    return SolitonVerdict("any_c" if c_value is None else "soliton", c=c_value, d=d)


def residual_system(spec: LieAlgebraSpec, kind: SolitonKind) -> tuple[Poly, ...]:
    """The nine symbolic residual polynomials before any elimination:
    constant + slope*c, with c a genuine polynomial variable."""
    c = Poly.var("c")
    return tuple(a + b * c for a, b in zip(residual_constants(spec, wan_for_kind(spec, kind)), spec.components))


def normalize_eta(p: Poly) -> Poly:
    """p modulo eta^2 = 1: each eta exponent taken mod 2 by ``Poly.fold_sign``,
    in one pass over the terms (p itself when no eta exponent exceeds 1)."""
    return p.fold_sign("eta")


def check_claimed_solution(
    spec: LieAlgebraSpec,
    kind: SolitonKind,
    c_poly: Poly,
    d: Mat3,
    *,
    branches: Sequence[Mapping[str, Poly]] = ({},),
) -> list[str]:
    """Symbolically verify a claimed (c, D) family; empty result means pass.

    ``spec`` should already carry the family's defining substitutions.  Extra
    equation constraints that are not substitutions (such as a relation
    between two squared parameters) are handled by ``branches``: each branch
    is a substitution map, and every branch must verify.  Identities are
    checked after reduction modulo eta^2 = 1 (when eta occurs).
    """
    failures: list[str] = []
    for branch in branches:
        branch_spec = spec.substitute(branch) if branch else spec
        branch_c = c_poly.substitute(branch)
        branch_d = mat_substitute(d, branch)
        branch_wan = wan_for_kind(branch_spec, kind)
        tag = ""
        if branch:
            tag = " [branch " + ", ".join(f"{k}={v}" for k, v in sorted(branch.items())) + "]"

        for i in range(3):
            for j in range(3):
                claimed = branch_d[i][j] + branch_c if i == j else branch_d[i][j]
                diff = normalize_eta(branch_wan[i][j] - claimed)
                if not diff.is_zero():
                    failures.append(
                        f"Wan - (c*Id + D) nonzero at ({i + 1},{j + 1}): {diff}{tag}"
                    )
        residuals = derivation_residual(branch_d, branch_spec)
        for key, vec in zip(PAIR_KEYS, residuals):
            for l, comp in enumerate(vec):
                reduced = normalize_eta(comp)
                if not reduced.is_zero():
                    failures.append(
                        "derivation residual nonzero at "
                        f"({key})[e{l + 1}]: {reduced}{tag}"
                    )
    return failures
