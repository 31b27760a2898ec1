"""The tensor pipeline on a left-invariant metric Lie algebra.

Everything is computed from first principles over exact rationals: the
Levi-Civita connection via the Koszul formula, the canonical connection
nabla0 = nabla - (1/2)(nabla J)J for the product structure J = diag(1,1,-1),
and the derived torsion, curvature, torsion-square, Wanas difference tensor,
signed Ricci-type contractions, and their operators.  As J^2 = Id, nabla0 =
(1/2)(nabla + J nabla J) is a projection: it keeps the e_k component of
nabla_{e_i} e_j if e_j and e_k lie in one eigenspace of J, else sets it to 0.

Matrix convention (matches the source tables this reproduces): row i of a
3x3 operator matrix holds the coefficients of the image of e_i, i.e. the
matrix left-multiplies the basis column (e1; e2; e3).  This is the
*transpose* of the usual column-action convention.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .algebra import (
    PAIRS,
    LieAlgebraSpec,
    MetricSignature,
    Vec3,
    ZERO_VEC,
    antisymmetric,
    vec_neg,
    vec_sub,
)
from .poly import VARIABLES, Poly, as_poly, dot

# Component tables, all 0-indexed:
#   Conn[i][j]       components of nabla_{e_i} e_j
#   Tor[i][j]        components of T(e_i, e_j)           (antisymmetric in i,j)
#   Tri[i][j][k]     components of K(e_i, e_j) e_k       (antisymmetric in i,j)
#   Mat3[i][j]       operator row i = image of e_i, or bilinear form s(e_i, e_j)
# and Terms(i, j, k, l), the (n, a, b) triples whose ``dot`` is K(e_i, e_j) e_k[l]
Conn = tuple[tuple[Vec3, ...], ...]
Tor = tuple[tuple[Vec3, ...], ...]
Tri = tuple[tuple[tuple[Vec3, ...], ...], ...]
Mat3 = tuple[tuple[Poly, ...], ...]
Terms = Callable[[int, int, int, int], list[tuple[int, Poly, Poly]]]

# the eigenvalues of the product structure J on e1, e2, e3: J = diag(1, 1, -1)
J_EIGENVALUES = (1, 1, -1)
_ONE = Poly.const(1)


def scalar_matrix(value) -> Mat3:
    s = as_poly(value)
    return tuple(tuple(s if i == j else Poly.zero() for j in range(3)) for i in range(3))


def mat_sub(a: Mat3, b: Mat3) -> Mat3:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_substitute(m: Mat3, images: Mapping[str, Poly]) -> Mat3:
    return tuple(tuple(p.substitute(images) for p in row) for row in m)


def koszul(spec: LieAlgebraSpec, i: int, j: int, k: int) -> Poly:
    """Component k of the Levi-Civita nabla_{e_i} e_j, by the Koszul formula
    for a left-invariant metric:

    2 g(nabla_{e_i} e_j, e_k) =
        g([e_i,e_j], e_k) - g([e_j,e_k], e_i) + g([e_k,e_i], e_j)

    As eps[k]^2 = 1, it is one ``dot`` over the three brackets, over 2 (none when all are zero).
    """
    eps = spec.signature.eps
    c = spec.constants
    brackets = (c[i][j][k], c[j][k][i], c[k][i][j])
    if not any(brackets):
        return Poly.zero()
    signs = (1, -eps[k] * eps[i], eps[k] * eps[j])
    return dot(zip(signs, brackets, (_ONE,) * 3), 2)


def levi_civita(spec: LieAlgebraSpec) -> Conn:
    return tuple(tuple(tuple(koszul(spec, i, j, k) for k in range(3)) for j in range(3)) for i in range(3))


def canonical_connection(spec: LieAlgebraSpec) -> Conn:
    """nabla0_X Y = nabla_X Y - (1/2)(nabla_X J)(J Y), from the Koszul nabla,
    for the standard product structure J, as the eigenspace projection: only
    the 15 Koszul components it keeps are formed."""
    zero = Poly.zero()
    return tuple(
        tuple(
            tuple(koszul(spec, i, j, k) if J_EIGENVALUES[j] == J_EIGENVALUES[k] else zero for k in range(3))
            for j in range(3)
        )
        for i in range(3)
    )


def torsion(conn: Conn, spec: LieAlgebraSpec) -> Tor:
    """T(e_i, e_j) = nabla_{e_i} e_j - nabla_{e_j} e_i - [e_i, e_j]."""
    upper = [vec_sub(vec_sub(conn[i][j], conn[j][i]), spec.constants[i][j]) for i, j in PAIRS]
    return antisymmetric(upper, ZERO_VEC, vec_neg)


def tri_table(upper: Sequence[tuple[Vec3, ...]]) -> Tri:
    """The full Tri table from its three upper pairs, in PAIRS order."""
    return antisymmetric(upper, (ZERO_VEC,) * 3, lambda vecs: tuple(map(vec_neg, vecs)))


def curvature_terms(conn: Conn, spec: LieAlgebraSpec) -> Terms:
    """R(e_i,e_j)e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_{[e_i,e_j]} e_k.

    Component l is the nine triples over m of nabla_j e_k[m] * nabla_i e_m[l]
    - nabla_i e_k[m] * nabla_j e_m[l] - [e_i,e_j][m] * nabla_m e_k[l], less those whose first factor is 0.
    """
    c = spec.constants
    return lambda i, j, k, l: (
        [(1, conn[j][k][m], conn[i][m][l]) for m in range(3) if conn[j][k][m]]
        + [(-1, conn[i][k][m], conn[j][m][l]) for m in range(3) if conn[i][k][m]]
        + [(-1, c[i][j][m], conn[m][k][l]) for m in range(3) if c[i][j][m]]
    )


def a_terms(t: Tor) -> Terms:
    """A(e_i,e_j)e_k = T(T(e_i,e_j), e_k): component l is the triples over m
    of T(e_i,e_j)[m] * T(e_m,e_k)[l] with T(e_i,e_j)[m] nonzero, by bilinearity of T."""
    return lambda i, j, k, l: [(1, t[i][j][m], t[m][k][l]) for m in range(3) if t[i][j][m]]


def tensor_table(terms: Terms) -> Tri:
    """The Tri table whose component K(e_i,e_j)e_k[l] is the ``dot`` of terms(i, j, k, l)."""
    return tri_table([tuple(tuple(dot(terms(i, j, k, l)) for l in range(3)) for k in range(3)) for i, j in PAIRS])


def curvature(conn: Conn, spec: LieAlgebraSpec) -> Tri:
    return tensor_table(curvature_terms(conn, spec))


def a_tensor(t: Tor) -> Tri:
    return tensor_table(a_terms(t))


def contract(terms: Terms, sig: MetricSignature) -> Mat3:
    """Signed Ricci-type trace over the middle slot of the tensor K whose
    components are the ``dot``s of ``terms``:

    s(X, Y) = - g(K(X,e1)Y, e1) - g(K(X,e2)Y, e2) + g(K(X,e3)Y, e3)

    Entry (i, k) is one ``dot`` over the signed triples of K(e_i,e_j)e_k[j]
    for j != i, as K(e_i,e_i) = 0; with signature (+, +, -) it is
    -sum_j K[i][j][k][j].
    """
    signs = [s * e for s, e in zip((-1, -1, 1), sig.eps)]
    return tuple(
        tuple(
            dot([(signs[j] * n, a, b) for j in range(3) if j != i for n, a, b in terms(i, j, k, j)])
            for k in range(3)
        )
        for i in range(3)
    )


def operator_from_form(s: Mat3, sig: MetricSignature) -> Mat3:
    """Raise the second index with the diagonal metric: m[i][j] = s[i][j] * eps[j]."""
    eps = sig.eps
    return tuple(tuple(s[i][j] * eps[j] for j in range(3)) for i in range(3))


def symmetrize_operator(m: Mat3, sig: MetricSignature) -> Mat3:
    """Symmetrize at the *form* level, then raise back.

    With an indefinite metric this differs from plain matrix symmetrization:
    lower to s, replace s by (s + s^T)/2, raise again.  As eps[j]^2 = 1
    that is (m[i][j] + eps[i]*eps[j]*m[j][i]) / 2.
    """
    eps = sig.eps
    return tuple(
        tuple(dot(((1, m[i][j], _ONE), (eps[i] * eps[j], m[j][i], _ONE)), 2) for j in range(3)) for i in range(3)
    )


@dataclass(frozen=True)
class TensorBundle:
    """The pipeline for one algebra and one base connection.  The forms and
    operators are built with the bundle; the Levi-Civita table, R, A and W,
    which no decision reads, are built when first read."""

    spec: LieAlgebraSpec
    connection_kind: str
    connection: Conn
    torsion: Tor
    ricci_form: Mat3
    a_form: Mat3
    ric: Mat3
    abar: Mat3
    wan: Mat3
    wan_tilde: Mat3

    @functools.cached_property
    def levi_civita(self) -> Conn:
        return self.connection if self.connection_kind == "levi-civita" else levi_civita(self.spec)

    @functools.cached_property
    def curvature(self) -> Tri:
        return curvature(self.connection, self.spec)

    @functools.cached_property
    def a_tensor(self) -> Tri:
        return a_tensor(self.torsion)

    @functools.cached_property
    def wanas(self) -> Tri:
        """W = R - A, componentwise."""
        return tuple(
            tuple(tuple(map(vec_sub, r, a)) for r, a in zip(r_i, a_i))
            for r_i, a_i in zip(self.curvature, self.a_tensor)
        )


def compute_tensors(spec: LieAlgebraSpec, connection_kind: str = "canonical") -> TensorBundle:
    """Run the pipeline from the bracket table to Wan and WanTilde; the
    Ricci and A-bar forms contract the triples of R and A, not their tables.

    connection_kind selects the base connection: "canonical" (default) or
    "levi-civita" (whose torsion, hence A, vanishes identically).
    """
    if connection_kind == "canonical":
        conn = canonical_connection(spec)
    elif connection_kind == "levi-civita":
        conn = levi_civita(spec)
    else:
        raise ValueError(f"unknown connection kind {connection_kind!r}")
    t = torsion(conn, spec)
    sig = spec.signature
    rho = contract(curvature_terms(conn, spec), sig)
    a_form = contract(a_terms(t), sig)
    ric = operator_from_form(rho, sig)
    abar = operator_from_form(a_form, sig)
    wan = mat_sub(ric, abar)
    wan_tilde = symmetrize_operator(wan, sig)
    return TensorBundle(
        spec=spec,
        connection_kind=connection_kind,
        connection=conn,
        torsion=t,
        ricci_form=rho,
        a_form=a_form,
        ric=ric,
        abar=abar,
        wan=wan,
        wan_tilde=wan_tilde,
    )


# (den, terms): sum of n * s_a * s_b over the (a, b, n) terms, over den,
# where s holds the nine bracket components in PAIRS order
QuadraticEntry = tuple[int, tuple[tuple[int, int, int], ...]]


@functools.cache
def wan_forms(sig: MetricSignature) -> tuple[tuple[tuple[QuadraticEntry, ...], ...], ...]:
    """Wan and WanTilde of the canonical connection, one 3x3 table of
    quadratic forms in the nine bracket components each.

    Every stage from the brackets to Wan is linear or bilinear in them (the
    metric and J are constant; nothing divides by a parameter).  The
    coefficients are read off ``compute_tensors`` on three algebras, each
    with two brackets generic (the six polynomial variables as placeholders)
    and the third zero.  Raises ValueError unless every term has degree two
    and a coefficient read in two runs agrees.
    """
    readings: list[tuple[set[int], dict]] = []
    for generic in itertools.combinations(range(3), 2):
        slots = [3 * p + k for p in generic for k in range(3)]  # placeholder -> component
        brackets = [ZERO_VEC] * 3
        for n, p in enumerate(generic):
            brackets[p] = tuple(Poly.var(VARIABLES[3 * n + k]) for k in range(3))
        bundle = compute_tensors(LieAlgebraSpec(tuple(brackets), sig))
        found = {}
        for kind, m in enumerate((bundle.wan, bundle.wan_tilde)):
            for i, j in itertools.product(range(3), repeat=2):
                for mono, coeff in m[i][j].terms.items():
                    if sum(mono) != 2:
                        raise ValueError(f"Wan entry ({i + 1},{j + 1}) is not quadratic: {m[i][j]}")
                    a, b = sorted(slots[v] for v, e in enumerate(mono) for _ in range(e))
                    found[kind, i, j, a, b] = coeff
        readings.append((set(slots), found))
    terms = collections.defaultdict(list)  # (kind, i, j) -> [(a, b, coefficient)]
    for key in sorted({key for _, found in readings for key in found}):
        seen = {found.get(key, 0) for comps, found in readings if {key[3], key[4]} <= comps}
        if len(seen) != 1:
            raise ValueError(f"Wan coefficient {key} differs between readings: {sorted(seen)}")
        terms[key[:3]].append((*key[3:], seen.pop()))

    def entry(terms) -> QuadraticEntry:
        den = math.lcm(*(m.denominator for *_, m in terms))
        return den, tuple((a, b, int(m * den)) for a, b, m in terms)

    return tuple(
        tuple(tuple(entry(terms[kind, i, j]) for j in range(3)) for i in range(3)) for kind in range(2)
    )


# -- rendering helpers ----------------------------------------------------


def render_vector(v: Vec3) -> str:
    """Human rendering of a basis expansion, e.g. "-alpha*e2 + e3"."""
    parts: list[str] = []
    for k, comp in enumerate(v):
        if comp.is_zero():
            continue
        basis = f"e{k + 1}"
        if len(comp._terms) == 1:
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
