"""Matrix helpers that only the tests read: exact equality of two 3x3
polynomial matrices, the identity, and the Lorentz shortcut of the signed
contraction, an independent formula to check ``geometry.contract`` against."""

from __future__ import annotations

from wanas.geometry import Mat3, Tri
from wanas.poly import Poly


def identity3() -> Mat3:
    one, zero = Poly.const(1), Poly.zero()
    return (
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
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
