"""The tensor pipeline on a left-invariant metric Lie algebra.

Everything is computed from first principles over exact rationals: the
Levi-Civita connection via the Koszul formula, the canonical connection
nabla0 = nabla - (1/2)(nabla J)J for the product structure J = diag(1,1,-1),
and the derived torsion, curvature, torsion-square, Wanas difference tensor,
signed Ricci-type contractions, and their operators.

Matrix convention (matches the source tables this reproduces): row i of a
3x3 operator matrix holds the coefficients of the image of e_i, i.e. the
matrix left-multiplies the basis column (e1; e2; e3).  This is the
*transpose* of the usual column-action convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    PAIRS,
    LieAlgebraSpec,
    MetricSignature,
    Vec3,
    ZERO_VEC,
    vec_add,
    vec_scale,
    vec_sub,
)
from .poly import Poly

# Component tables, all 0-indexed:
#   Conn[i][j]       components of nabla_{e_i} e_j
#   Tor[i][j]        components of T(e_i, e_j)           (antisymmetric in i,j)
#   Tri[i][j][k]     components of K(e_i, e_j) e_k       (antisymmetric in i,j)
#   Mat3[i][j]       operator row i = image of e_i, or bilinear form s(e_i, e_j)
Conn = tuple[tuple[Vec3, ...], ...]
Tor = tuple[tuple[Vec3, ...], ...]
Tri = tuple[tuple[tuple[Vec3, ...], ...], ...]
Mat3 = tuple[tuple[Poly, ...], ...]


def identity3() -> Mat3:
    one, zero = Poly.const(1), Poly.zero()
    return (
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
    )


def scalar_matrix(value) -> Mat3:
    s = value if isinstance(value, Poly) else Poly.const(value)
    zero = Poly.zero()
    return (
        (s, zero, zero),
        (zero, s, zero),
        (zero, zero, s),
    )


def mat_sub(a: Mat3, b: Mat3) -> Mat3:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_eq(a: Mat3, b: Mat3) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def standard_product_structure() -> Mat3:
    """J = diag(1, 1, -1): J e1 = e1, J e2 = e2, J e3 = -e3."""
    one, zero = Poly.const(1), Poly.zero()
    return (
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, -one),
    )


def apply_operator(m: Mat3, v: Vec3) -> Vec3:
    """Image of a vector under the operator (row i = image of e_i)."""
    out = [Poly.zero()] * 3
    for i in range(3):
        if v[i].is_zero():
            continue
        for k in range(3):
            out[k] = out[k] + v[i] * m[i][k]
    return tuple(out)


def levi_civita(spec: LieAlgebraSpec) -> Conn:
    """Koszul formula for a left-invariant metric:

    2 g(nabla_{e_i} e_j, e_k) =
        g([e_i,e_j], e_k) - g([e_j,e_k], e_i) + g([e_k,e_i], e_j)
    """
    eps = spec.signature.eps
    c = spec.constants
    half = Poly.const(1) / 2
    table = []
    for i in range(3):
        row = []
        for j in range(3):
            comps = []
            for k in range(3):
                inner = (
                    c[i, j][k] * eps[k]
                    - c[j, k][i] * eps[i]
                    + c[k, i][j] * eps[j]
                )
                comps.append(half * eps[k] * inner)
            row.append(tuple(comps))
        table.append(tuple(row))
    return tuple(table)


def nabla_j(conn: Conn, j: Mat3) -> tuple[tuple[Vec3, ...], ...]:
    """Components of (nabla_{e_i} J) e_m = nabla_{e_i}(J e_m) - J(nabla_{e_i} e_m)."""
    table = []
    for i in range(3):
        row = []
        for m in range(3):
            j_em = tuple(j[m][k] for k in range(3))
            nabla_j_em = ZERO_VEC
            for k in range(3):
                if not j_em[k].is_zero():
                    nabla_j_em = vec_add(nabla_j_em, vec_scale(j_em[k], conn[i][k]))
            row.append(vec_sub(nabla_j_em, apply_operator(j, conn[i][m])))
        table.append(tuple(row))
    return tuple(table)


def canonical_connection(
    spec: LieAlgebraSpec, j: Mat3 | None = None, lc: Conn | None = None
) -> Conn:
    """nabla0_X Y = nabla_X Y - (1/2)(nabla_X J)(J Y), from the Koszul nabla.

    ``lc`` is the Levi-Civita table of ``spec`` when the caller already has it.
    """
    if j is None:
        j = standard_product_structure()
    if lc is None:
        lc = levi_civita(spec)
    nj = nabla_j(lc, j)
    table = []
    for i in range(3):
        row = []
        for m in range(3):
            correction = ZERO_VEC
            for k in range(3):
                if not j[m][k].is_zero():
                    correction = vec_add(correction, vec_scale(j[m][k], nj[i][k]))
            row.append(vec_sub(lc[i][m], vec_scale(Poly.const(1) / 2, correction)))
        table.append(tuple(row))
    return tuple(table)


def torsion(conn: Conn, spec: LieAlgebraSpec) -> Tor:
    """T(e_i, e_j) = nabla_{e_i} e_j - nabla_{e_j} e_i - [e_i, e_j]."""
    table = [[ZERO_VEC] * 3 for _ in range(3)]
    for i, j in PAIRS:
        t = vec_sub(vec_sub(conn[i][j], conn[j][i]), spec.constants[i, j])
        table[i][j] = t
        table[j][i] = vec_scale(-1, t)
    return tuple(tuple(row) for row in table)


def curvature(conn: Conn, spec: LieAlgebraSpec) -> Tri:
    """R(e_i,e_j)e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_{[e_i,e_j]} e_k."""
    def nabla_vec(i: int, v: Vec3) -> Vec3:
        out = ZERO_VEC
        for m in range(3):
            if not v[m].is_zero():
                out = vec_add(out, vec_scale(v[m], conn[i][m]))
        return out

    table = [[[ZERO_VEC] * 3 for _ in range(3)] for _ in range(3)]
    for i, j in PAIRS:
        cij = spec.constants[i, j]
        for k in range(3):
            first = nabla_vec(i, conn[j][k])
            second = nabla_vec(j, conn[i][k])
            third = ZERO_VEC
            for m in range(3):
                if not cij[m].is_zero():
                    third = vec_add(third, vec_scale(cij[m], conn[m][k]))
            r = vec_sub(vec_sub(first, second), third)
            table[i][j][k] = r
            table[j][i][k] = vec_scale(-1, r)
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def a_tensor(t: Tor) -> Tri:
    """A(X,Y)Z = T(T(X,Y), Z), expanded by bilinearity of T."""
    table = [[[ZERO_VEC] * 3 for _ in range(3)] for _ in range(3)]
    for i, j in PAIRS:
        tij = t[i][j]
        for k in range(3):
            out = ZERO_VEC
            for m in range(3):
                if not tij[m].is_zero():
                    out = vec_add(out, vec_scale(tij[m], t[m][k]))
            table[i][j][k] = out
            table[j][i][k] = vec_scale(-1, out)
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def wanas_tensor(r: Tri, a: Tri) -> Tri:
    """W = R - A, componentwise."""
    return tuple(
        tuple(
            tuple(vec_sub(r[i][j][k], a[i][j][k]) for k in range(3))
            for j in range(3)
        )
        for i in range(3)
    )


def contract(k: Tri, sig: MetricSignature) -> Mat3:
    """Signed Ricci-type trace over the middle slot:

    s(X, Y) = - g(K(X,e1)Y, e1) - g(K(X,e2)Y, e2) + g(K(X,e3)Y, e3)

    computed literally as the signed sum of g-evaluations; with signature
    (+, +, -) this coincides with -sum_j K[i][j][k][j].
    """
    eps = sig.eps
    signs = (-1, -1, 1)
    rows = []
    for i in range(3):
        row = []
        for kk in range(3):
            total = Poly.zero()
            for j in range(3):
                total = total + signs[j] * eps[j] * k[i][j][kk][j]
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)


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


def operator_from_form(s: Mat3, sig: MetricSignature) -> Mat3:
    """Raise the second index with the diagonal metric: m[i][j] = s[i][j] * eps[j]."""
    eps = sig.eps
    return tuple(tuple(s[i][j] * eps[j] for j in range(3)) for i in range(3))


def form_from_operator(m: Mat3, sig: MetricSignature) -> Mat3:
    """Lower the second index: s[i][j] = m[i][j] * eps[j] (eps[j]^2 = 1)."""
    eps = sig.eps
    return tuple(tuple(m[i][j] * eps[j] for j in range(3)) for i in range(3))


def symmetrize_operator(m: Mat3, sig: MetricSignature) -> Mat3:
    """Symmetrize at the *form* level, then raise back.

    With an indefinite metric this differs from plain matrix symmetrization:
    lower to s, replace s by (s + s^T)/2, raise again.
    """
    s = form_from_operator(m, sig)
    half = Poly.const(1) / 2
    sym = tuple(
        tuple(half * (s[i][j] + s[j][i]) for j in range(3)) for i in range(3)
    )
    return operator_from_form(sym, sig)


def wan_operator(ric: Mat3, abar: Mat3) -> Mat3:
    """Wan = Ric - Abar, entrywise."""
    return mat_sub(ric, abar)


@dataclass(frozen=True)
class TensorBundle:
    """Every stage of the pipeline for one algebra and one base connection."""

    spec: LieAlgebraSpec
    levi_civita: Conn
    connection: Conn
    torsion: Tor
    curvature: Tri
    a_tensor: Tri
    wanas: Tri
    ricci_form: Mat3
    a_form: Mat3
    wan_form: Mat3
    ric: Mat3
    abar: Mat3
    wan: Mat3
    wan_tilde: Mat3


def compute_tensors(spec: LieAlgebraSpec, connection_kind: str = "canonical") -> TensorBundle:
    """Run the full pipeline from the bracket table.

    connection_kind selects the base connection: "canonical" (default) or
    "levi-civita" (whose torsion, hence A, vanishes identically).
    """
    lc = levi_civita(spec)
    if connection_kind == "canonical":
        conn = canonical_connection(spec, lc=lc)
    elif connection_kind == "levi-civita":
        conn = lc
    else:
        raise ValueError(f"unknown connection kind {connection_kind!r}")
    t = torsion(conn, spec)
    r = curvature(conn, spec)
    a = a_tensor(t)
    w = wanas_tensor(r, a)
    sig = spec.signature
    rho = contract(r, sig)
    a_form = contract(a, sig)
    w_form = contract(w, sig)
    ric = operator_from_form(rho, sig)
    abar = operator_from_form(a_form, sig)
    wan = wan_operator(ric, abar)
    wan_tilde = symmetrize_operator(wan, sig)
    return TensorBundle(
        spec=spec,
        levi_civita=lc,
        connection=conn,
        torsion=t,
        curvature=r,
        a_tensor=a,
        wanas=w,
        ricci_form=rho,
        a_form=a_form,
        wan_form=w_form,
        ric=ric,
        abar=abar,
        wan=wan,
        wan_tilde=wan_tilde,
    )


# -- rendering helpers ----------------------------------------------------


def render_vector(v: Vec3) -> str:
    """Human rendering of a basis expansion, e.g. "-alpha*e2 + e3"."""
    parts: list[str] = []
    for k, comp in enumerate(v):
        if comp.is_zero():
            continue
        basis = f"e{k + 1}"
        terms = comp.sorted_terms()
        if len(terms) == 1:
            text = str(comp)
            if text == "1":
                body, negative = basis, False
            elif text == "-1":
                body, negative = basis, True
            elif text.startswith("-"):
                body, negative = f"{text[1:]}*{basis}", True
            else:
                body, negative = f"{text}*{basis}", False
        else:
            body, negative = f"({comp})*{basis}", False
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts) if parts else "0"


def render_matrix(m: Mat3) -> str:
    """Aligned text rendering of a 3x3 polynomial matrix (row i = image of e_i)."""
    cells = [[str(p) for p in row] for row in m]
    widths = [max(len(cells[i][j]) for i in range(3)) for j in range(3)]
    lines = []
    for row in cells:
        padded = [cell.rjust(width) for cell, width in zip(row, widths)]
        lines.append("[ " + "   ".join(padded) + " ]")
    return "\n".join(lines)


def matrix_json(m: Mat3) -> list[list[str]]:
    return [[str(p) for p in row] for row in m]
