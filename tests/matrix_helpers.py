"""Matrix helpers that only the tests read: exact equality of two 3x3
polynomial matrices, the identity, the signed contraction of a built
tensor table and its Lorentz shortcut, independent formulas to check
``geometry.contract`` (which contracts component triples) against, and the
product structure J with nabla J by their literal definitions, to check
``geometry.canonical_connection`` against.

The oracles at the end build each Koszul component and each curvature
component from intermediate polynomials, one operation at a time; the
pipeline forms each such entry in one ``dot``, and the tests check that
both give the same polynomial."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from wanas.algebra import LORENTZ, PAIRS, ZERO_VEC, LieAlgebraSpec, MetricSignature, Vec3, vec_sub
from wanas.geometry import Conn, Mat3, Tri, tri_table
from wanas.poly import VARIABLES, Poly, dot


def generic_two_bracket_specs(sig: MetricSignature = LORENTZ) -> list[LieAlgebraSpec]:
    """The three algebras ``wan_forms`` reads: two brackets generic (the six
    polynomial variables as placeholders), the third zero."""
    specs = []
    for generic in itertools.combinations(range(3), 2):
        brackets = [ZERO_VEC] * 3
        for n, p in enumerate(generic):
            brackets[p] = tuple(Poly.var(VARIABLES[3 * n + k]) for k in range(3))
        specs.append(LieAlgebraSpec(tuple(brackets), sig))
    return specs


def vec_combination(coeffs: Sequence[Poly], vectors: Sequence[Vec3]) -> Vec3:
    """sum_m coeffs[m] * vectors[m], one ``dot`` per component."""
    return tuple(dot((1, s, v[k]) for s, v in zip(coeffs, vectors)) for k in range(3))


def identity3() -> Mat3:
    one, zero = Poly.const(1), Poly.zero()
    return (
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
    )


def standard_product_structure() -> Mat3:
    """J = diag(1, 1, -1): J e1 = e1, J e2 = e2, J e3 = -e3."""
    one, zero = Poly.const(1), Poly.zero()
    return (
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, -one),
    )


def nabla_j(conn: Conn, j: Mat3) -> Conn:
    """Components of (nabla_{e_i} J) e_m = nabla_{e_i}(J e_m) - J(nabla_{e_i} e_m)."""
    return tuple(
        tuple(vec_sub(vec_combination(j[m], conn[i]), vec_combination(conn[i][m], j)) for m in range(3))
        for i in range(3)
    )


def mat_eq(a: Mat3, b: Mat3) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def contract(k: Tri, sig: MetricSignature) -> Mat3:
    """Signed Ricci-type trace over the middle slot of a built table:

    s(X, Y) = - g(K(X,e1)Y, e1) - g(K(X,e2)Y, e2) + g(K(X,e3)Y, e3)

    computed literally as the signed sum of g-evaluations; with signature
    (+, +, -) this coincides with -sum_j K[i][j][k][j].
    """
    signs = [s * e for s, e in zip((-1, -1, 1), sig.eps)]
    one = Poly.const(1)
    return tuple(
        tuple(dot((signs[j], k[i][j][kk][j], one) for j in range(3)) for kk in range(3))
        for i in range(3)
    )


def contract_shortcut(k: Tri) -> Mat3:
    """The (+,+,-) shortcut -sum_j K[i][j][kk][j]; equals contract for Lorentz."""
    rows = []
    for i in range(3):
        row = []
        for kk in range(3):
            total = Poly.zero()
            for j in range(3):
                total = total - k[i][j][kk][j]
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)


def koszul_oracle(spec: LieAlgebraSpec, i: int, j: int, k: int) -> Poly:
    """Independent evaluation of 2g(nabla_i e_j, e_k) / (2 eps_k)."""
    eps = spec.signature.eps
    c = spec.constants

    def g(v, m):
        return v[m] * eps[m]

    val = g(c[i][j], k) - g(c[j][k], i) + g(c[k][i], j)
    return val * Fraction(1, 2) * eps[k]


def curvature_chained(conn: Conn, spec: LieAlgebraSpec) -> Tri:
    """R(e_i,e_j)e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_{[e_i,e_j]} e_k,
    each of the three terms a ``vec_combination`` and then two ``vec_sub``s."""
    upper = []
    for (i, j), cij in zip(PAIRS, spec.brackets):
        row = []
        for k in range(3):
            first = vec_combination(conn[j][k], conn[i])
            second = vec_combination(conn[i][k], conn[j])
            third = vec_combination(cij, [conn[m][k] for m in range(3)])
            row.append(vec_sub(vec_sub(first, second), third))
        upper.append(tuple(row))
    return tri_table(upper)
