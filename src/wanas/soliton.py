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
from typing import Mapping, Sequence

from .algebra import PAIR_KEYS, PAIRS, Assignment, LieAlgebraSpec, Vec3
from .geometry import Mat3, mat_sub, mat_substitute, matrix_json, scalar_matrix, wan_forms
from .poly import IntegerEvaluator, Poly, Scalar, format_rational


class SolitonKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"


def wan_for_kind(spec: LieAlgebraSpec, kind: SolitonKind) -> Mat3:
    """The decision operator: Wan for FIRST, its symmetrization for SECOND.

    Evaluated from ``geometry.wan_forms``, the quadratic forms in the nine
    bracket components that ``compute_tensors`` gives: each product of two
    components is formed once.
    """
    s = [comp for pair in PAIRS for comp in spec.constants[pair]]
    products: dict[tuple[int, int], Poly] = {}
    rows = []
    for form_row in wan_forms(spec.signature)[kind is SolitonKind.SECOND]:
        row = []
        for den, terms in form_row:
            total = Poly.zero()
            for a, b, n in terms:
                if s[a] and s[b]:
                    product = products.get((a, b))
                    if product is None:
                        product = products[a, b] = s[a] * s[b]
                    total = total + product * n
            row.append(total / den)
        rows.append(tuple(row))
    return tuple(rows)


def derivation_residual(d: Mat3, spec: LieAlgebraSpec) -> tuple[Vec3, Vec3, Vec3]:
    """D[e_i,e_j] - [D e_i, e_j] - [e_i, D e_j] for the three basis pairs.

    All nine scalar components vanish exactly iff D (row i = image of e_i)
    is a derivation of the algebra.
    """
    c = spec.constants
    residuals = []
    for i, j in PAIRS:
        comps = []
        for l in range(3):
            total = Poly.zero()
            for k in range(3):
                total = total + c[i, j][k] * d[k][l]
                total = total - d[i][k] * c[k, j][l]
                total = total - d[j][k] * c[i, k][l]
            comps.append(total)
        residuals.append(tuple(comps))
    return tuple(residuals)


def affine_residuals(spec: LieAlgebraSpec, wan: Mat3) -> tuple[tuple[Poly, Poly], ...]:
    """The nine residual equations of Wan = c*Id + D as (constant, slope)
    pairs, in PAIRS order: constant + slope*c is the derivation residual of
    D = Wan - c*Id.

    The residual is linear in D and the residual of -Id is [e_i, e_j], so
    the constants are the derivation residual of Wan and the slopes are the
    bracket components.
    """
    constants = [comp for vec in derivation_residual(wan, spec) for comp in vec]
    slopes = [comp for i, j in PAIRS for comp in spec.constants[i, j]]
    return tuple(zip(constants, slopes))


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
                    algebra); d_family holds the affine family Wan - c*Id
      "no_soliton"  the affine system is infeasible; witness holds the
                    contradictory equations
    """

    outcome: str
    c: Fraction | None = None
    d: tuple[tuple[Fraction, ...], ...] | None = None
    d_family: Mat3 | None = None
    witness: tuple[AffineEquation, ...] = ()

    def to_json_dict(self) -> dict:
        data: dict = {"outcome": self.outcome}
        data["c"] = format_rational(self.c) if self.c is not None else None
        if self.d is not None:
            data["D"] = [[format_rational(x) for x in row] for row in self.d]
        elif self.d_family is not None:
            data["D"] = matrix_json(self.d_family)
        else:
            data["D"] = None
        data["witness"] = [eq.to_json_dict() for eq in self.witness] or None
        return data

    def describe(self) -> str:
        if self.outcome == "soliton":
            rows = "; ".join(
                "(" + ", ".join(format_rational(x) for x in row) + ")" for row in self.d
            )
            return f"soliton with c = {format_rational(self.c)}, D rows {rows}"
        if self.outcome == "any_c":
            rows = "; ".join("(" + ", ".join(str(p) for p in row) + ")" for row in self.d_family)
            return f"soliton for every c, D(c) rows {rows}"
        lines = ", ".join(eq.describe() for eq in self.witness)
        return f"no soliton ({lines})"


def solve_affine(pairs: Sequence[tuple[Scalar, Scalar]]):
    """Solve constant + slope*x = 0 over (constant, slope) pairs, in one pass.

    The pairs are Fractions, or integer numerators over one shared positive
    denominator: values are only tested for zero and compared by
    cross-multiplication, so both give the same outcome and witness.
    Returns ("one", x, witness), ("any", None, ()) or ("none", None, witness).
    The witness holds indices into ``pairs``: for "one" the equation that
    fixed x; for "none" the first sloped equation and the first one
    disagreeing with it, else the first flat contradiction and the first
    sloped equation, else the first two flat contradictions.
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
            return ("none", None, (first, k))
    if first is None:
        return ("none", None, tuple(flat_bad)) if flat_bad else ("any", None, ())
    if flat_bad:
        return ("none", None, (flat_bad[0], first))
    return ("one", Fraction(-a, b), (first,))


def soliton_decide(spec: LieAlgebraSpec, kind: SolitonKind, wan: Mat3) -> SolitonVerdict:
    """Decide solitonhood at a numeric point, exactly.

    ``spec`` must be a numeric algebra (constant structure polynomials) and
    ``wan`` the matching numeric decision operator for ``kind``.
    """
    pairs = [(a.constant_value(), b.constant_value()) for a, b in affine_residuals(spec, wan)]
    wan = tuple(tuple(p.constant_value() for p in row) for row in wan)
    return _verdict(pairs, wan)


@dataclass(frozen=True)
class CompiledDecision:
    """``soliton_decide`` at any admissible point of one algebra: a view of
    the 27 ``decision_rows`` that an evaluator holds from row ``start`` on.
    A grid classification compiles them with the constraints and theorem
    cases of the group.  The point is not validated."""

    evaluate: IntegerEvaluator
    start: int

    def split(self, values: Sequence[int]):
        """(pairs, wan): the nine (constant, slope) pairs and the Wan rows
        among the evaluator's values."""
        s = self.start
        pairs = list(zip(values[s : s + 9], values[s + 9 : s + 18]))
        return pairs, (values[s + 18 : s + 21], values[s + 21 : s + 24], values[s + 24 : s + 27])

    def __call__(self, sigma: Assignment) -> SolitonVerdict:
        values, den = self.evaluate(sigma)
        return _verdict(*self.split(values), den)


def decision_rows(spec: LieAlgebraSpec, kind: SolitonKind) -> list[Poly]:
    """The nine constants and then the nine slopes of ``affine_residuals``,
    then the nine Wan entries (row-major)."""
    wan = wan_for_kind(spec, kind)
    constants, slopes = zip(*affine_residuals(spec, wan))
    return [*constants, *slopes, *(p for row in wan for p in row)]


def _verdict(pairs, wan, den: int = 1) -> SolitonVerdict:
    """The verdict from the nine affine pairs and the Wan rows, all values
    over the positive denominator ``den`` (1 for Fraction values).  Fractions
    are made only for what the verdict holds: c, D, the witness, D(c)."""
    outcome, c_value, witness = solve_affine(pairs)
    if outcome == "none":
        witness = tuple(
            AffineEquation(
                PAIRS[k // 3], k % 3, Fraction(pairs[k][0], den), Fraction(pairs[k][1], den)
            )
            for k in witness
        )
        return SolitonVerdict("no_soliton", witness=witness)
    if outcome == "any":
        wan_poly = tuple(tuple(Poly.const(Fraction(x, den)) for x in row) for row in wan)
        return SolitonVerdict("any_c", d_family=mat_sub(wan_poly, scalar_matrix(Poly.var("c"))))
    wan = tuple(tuple(Fraction(x, den) for x in row) for row in wan)
    d = tuple(
        tuple(wan[i][j] - (c_value if i == j else 0) for j in range(3))
        for i in range(3)
    )
    return SolitonVerdict("soliton", c=c_value, d=d)


def residual_system(spec: LieAlgebraSpec, kind: SolitonKind) -> tuple[Poly, ...]:
    """The nine symbolic residual polynomials before any elimination:
    ``affine_residuals`` as constant + slope*c, with c a genuine polynomial
    variable."""
    c = Poly.var("c")
    return tuple(a + b * c for a, b in affine_residuals(spec, wan_for_kind(spec, kind)))


def solve_affine_in_c(equations: Sequence[Poly], sigma: Mapping[str, Fraction]):
    """Solution set in c of a system affine in c, at the point sigma.

    Returns ("any", None), ("one", c), or ("none", None).  Used to compare a
    residual system against an independently printed system at sampled points.
    """
    pairs = []
    for eq in equations:
        if eq.degree_in("c") > 1:
            raise ValueError(f"equation is not affine in c: {eq}")
        at0 = eq.evaluate({**sigma, "c": Fraction(0)})
        at1 = eq.evaluate({**sigma, "c": Fraction(1)})
        pairs.append((at0, at1 - at0))
    outcome, c_value, _ = solve_affine(pairs)
    return (outcome, c_value)


ETA_RELATION = Poly.var("eta") ** 2 - 1


def normalize_eta(p: Poly) -> Poly:
    """p reduced modulo eta^2 = 1 when eta occurs in it."""
    if "eta" in p.variables():
        return p.reduce(ETA_RELATION, "eta")
    return p


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
                claimed = branch_d[i][j] + (branch_c if i == j else Poly.zero())
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
