"""Matrix helpers that only the tests read: exact equality of two 3x3
polynomial matrices, the identity, the Lorentz shortcut of the signed
contraction, an independent formula to check ``geometry.contract`` against,
and the product structure J with nabla J by their literal definitions, to
check ``geometry.canonical_connection`` against."""

from __future__ import annotations

from wanas.algebra import vec_combination, vec_sub
from wanas.geometry import Conn, Mat3, Tri
from wanas.poly import Poly


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
