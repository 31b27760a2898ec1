"""Tensor pipeline: Koszul properties, connection/curvature/torsion examples
from the lemma tables, contraction identities, operator/form duality."""

from __future__ import annotations

import itertools
from fractions import Fraction

from wanas.algebra import (
    LORENTZ,
    ZERO_VEC,
    LieAlgebraSpec,
    MetricSignature,
    vec3,
    vec_combination,
    vec_sub,
)
from wanas.geometry import (
    a_tensor,
    canonical_connection,
    compute_tensors,
    contract,
    curvature,
    levi_civita,
    mat_sub,
    operator_from_form,
    render_matrix,
    render_vector,
    symmetrize_operator,
    torsion,
)
from wanas.poly import VARIABLES, Poly, parse_poly

from matrix_helpers import (
    contract_shortcut,
    identity3,
    mat_eq,
    nabla_j,
    standard_product_structure,
)

P = parse_poly


def abelian_spec() -> LieAlgebraSpec:
    zero = vec3(0, 0, 0)
    return LieAlgebraSpec((zero, zero, zero), LORENTZ)


def koszul_oracle(spec: LieAlgebraSpec, i: int, j: int, k: int) -> Poly:
    """Independent evaluation of 2g(nabla_i e_j, e_k) / (2 eps_k)."""
    eps = spec.signature.eps
    c = spec.constants

    def g(v, m):
        return v[m] * eps[m]

    val = g(c[i][j], k) - g(c[j][k], i) + g(c[k][i], j)
    return val * Fraction(1, 2) * eps[k]


# -- Levi-Civita -----------------------------------------------------------------


def test_levi_civita_abelian_is_flat():
    lc = levi_civita(abelian_spec())
    assert all(p.is_zero() for row in lc for v in row for p in v)


def test_levi_civita_matches_koszul_oracle(groups):
    for entry in groups.values():
        lc = levi_civita(entry.spec)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert lc[i][j][k] == koszul_oracle(entry.spec, i, j, k)


def test_g3_levi_civita_worked_entry(groups):
    lc = levi_civita(groups["g3"].spec)
    a1 = P("1/2*(alpha-beta-gamma)")
    assert lc[0][1] == (Poly.zero(), Poly.zero(), a1)
    # the canonical correction kills the e3 component entirely
    conn = canonical_connection(groups["g3"].spec)
    assert all(p.is_zero() for p in conn[0][1])


def test_abelian_full_pipeline_vanishes():
    bundle = compute_tensors(abelian_spec())
    assert all(p.is_zero() for plane in bundle.torsion for v in plane for p in v)
    for tensor in (bundle.curvature, bundle.a_tensor, bundle.wanas):
        assert all(
            p.is_zero() for plane in tensor for row in plane for v in row for p in v
        )
    for m in (bundle.ric, bundle.abar, bundle.wan, bundle.wan_tilde):
        assert all(p.is_zero() for row in m for p in row)


def test_levi_civita_is_metric_compatible(groups):
    for entry in groups.values():
        eps = entry.spec.signature.eps
        lc = levi_civita(entry.spec)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert (lc[i][j][k] * eps[k] + lc[i][k][j] * eps[j]).is_zero()


def test_levi_civita_is_torsion_free(groups):
    for entry in groups.values():
        lc = levi_civita(entry.spec)
        t = torsion(lc, entry.spec)
        assert all(p.is_zero() for plane in t for v in plane for p in v)


# -- product structure and canonical connection -------------------------------------


def test_product_structure_squares_to_identity():
    j = standard_product_structure()
    squared = tuple(
        tuple(
            sum((j[i][m] * j[m][k] for m in range(3)), Poly.zero())
            for k in range(3)
        )
        for i in range(3)
    )
    assert mat_eq(squared, identity3())


def test_product_structure_is_metric_compatible():
    # g(J e_i, J e_j) == g(e_i, e_j) for the (+,+,-) signature
    j = standard_product_structure()
    eps = LORENTZ.eps
    for i in range(3):
        for k in range(3):
            lhs = sum(
                (j[i][m] * j[k][m] * eps[m] for m in range(3)), Poly.zero()
            )
            rhs = Poly.const(eps[i]) if i == k else Poly.zero()
            assert lhs == rhs


def test_nabla_j_vanishes_for_abelian():
    spec = abelian_spec()
    nj = nabla_j(levi_civita(spec), standard_product_structure())
    assert all(p.is_zero() for row in nj for v in row for p in v)


def test_nabla_j_matches_definition(groups):
    # (nabla_X J)Y = nabla_X(JY) - J(nabla_X Y), expanded independently
    spec = groups["g3"].spec
    j = standard_product_structure()
    lc = levi_civita(spec)
    nj = nabla_j(lc, j)
    sigma = (1, 1, -1)
    for i in range(3):
        for m in range(3):
            direct = tuple(
                sigma[m] * lc[i][m][k] - sigma[k] * lc[i][m][k] for k in range(3)
            )
            assert nj[i][m] == direct


def test_nabla_j_zero_for_block_diagonal_connection():
    # a connection with no mixing between span(e1,e2) and e3 commutes with J
    j = standard_product_structure()
    conn = (
        (vec3(P("alpha"), P("beta"), 0), vec3(1, 0, 0), vec3(0, 0, P("gamma"))),
        (vec3(0, 0, 0), vec3(0, 0, 0), vec3(0, 0, 0)),
        (vec3(0, 0, 0), vec3(0, 0, 0), vec3(0, 0, P("delta"))),
    )
    nj = nabla_j(conn, j)
    assert all(p.is_zero() for row in nj for v in row for p in v)


def test_canonical_connection_reproduces_g1_table(groups):
    conn = canonical_connection(groups["g1"].spec)
    assert conn[0][0] == vec3(0, P("-alpha"), 0)
    assert conn[2][0] == vec3(0, P("1/2*beta"), 0)
    assert all(all(p.is_zero() for p in conn[1][j]) for j in range(3))


def test_canonical_connection_reproduces_g5_entry(groups):
    conn = canonical_connection(groups["g5"].spec)
    assert conn[2][0] == vec3(0, P("-1/2*(beta-gamma)"), 0)


def test_canonical_connection_abelian_vanishes():
    conn = canonical_connection(abelian_spec())
    assert all(p.is_zero() for row in conn for v in row for p in v)


def test_canonical_connection_parallelizes_j(groups):
    j = standard_product_structure()
    for entry in groups.values():
        conn = canonical_connection(entry.spec)
        nj = nabla_j(conn, j)
        assert all(p.is_zero() for row in nj for v in row for p in v), entry.id


def test_canonical_connection_still_metric_compatible(groups):
    for entry in groups.values():
        eps = entry.spec.signature.eps
        conn = canonical_connection(entry.spec)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert (conn[i][j][k] * eps[k] + conn[i][k][j] * eps[j]).is_zero()


def test_canonical_connection_is_its_definition(groups):
    # the eigenspace projection equals nabla - (1/2)(nabla J)J term by term: on
    # every catalog group, on the generic two-bracket algebras wan_forms reads,
    # and on g5's brackets under two more signatures
    specs = [entry.spec for entry in groups.values()]
    for generic in itertools.combinations(range(3), 2):
        brackets = [ZERO_VEC] * 3
        for n, p in enumerate(generic):
            brackets[p] = tuple(Poly.var(VARIABLES[3 * n + k]) for k in range(3))
        specs.append(LieAlgebraSpec(tuple(brackets), LORENTZ))
    for eps in ((1, 1, 1), (-1, 1, 1)):
        specs.append(LieAlgebraSpec(groups["g5"].spec.brackets, MetricSignature(eps)))
    j = standard_product_structure()
    for spec in specs:
        lc = levi_civita(spec)
        nj = nabla_j(lc, j)
        conn = canonical_connection(spec)
        for i in range(3):
            for m in range(3):
                correction = vec_combination(j[m], nj[i])
                expected = vec_sub(lc[i][m], tuple(x / 2 for x in correction))
                assert conn[i][m] == expected, (spec, i, m)


# -- torsion and curvature -------------------------------------------------------------


def test_torsion_g1_worked_example(groups):
    spec = groups["g1"].spec
    t = torsion(canonical_connection(spec), spec)
    assert t[0][1] == vec3(0, 0, P("beta"))


def test_torsion_g7_worked_example(groups):
    spec = groups["g7"].spec
    t = torsion(canonical_connection(spec), spec)
    assert t[1][2] == vec3(P("-(beta+1/2*gamma)"), P("-delta"), P("-delta"))


def test_torsion_antisymmetric(groups):
    for entry in groups.values():
        t = torsion(canonical_connection(entry.spec), entry.spec)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert t[i][j][k] == -t[j][i][k]


def test_curvature_abelian_vanishes():
    spec = abelian_spec()
    r = curvature(canonical_connection(spec), spec)
    assert all(p.is_zero() for plane in r for row in plane for v in row for p in v)


def test_curvature_antisymmetric_first_slots(groups):
    for entry in groups.values():
        bundle = compute_tensors(entry.spec)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        assert bundle.curvature[i][j][k][l] == -bundle.curvature[j][i][k][l]
                        assert bundle.wanas[i][j][k][l] == -bundle.wanas[j][i][k][l]


def test_g5_canonical_ricci_vanishes(groups):
    bundle = compute_tensors(groups["g5"].spec)
    assert all(p.is_zero() for row in bundle.ric for p in row)


def test_g2_ricci_at_point(groups):
    numeric = groups["g2"].spec.evaluate(
        {"alpha": Fraction(0), "beta": Fraction(0), "gamma": Fraction(1)}
    )
    bundle = compute_tensors(numeric)
    expected = ((-1, 0, 0), (0, -1, 0), (0, 0, 0))
    for i in range(3):
        for j in range(3):
            assert bundle.ric[i][j] == Poly.const(expected[i][j])


# -- A-tensor and Wanas tensor -----------------------------------------------------------


def test_a_tensor_g3_worked_example(groups):
    bundle = compute_tensors(groups["g3"].spec)
    assert bundle.a_tensor[0][1][0] == vec3(0, P("1/2*(alpha-beta-gamma)*gamma"), 0)


def test_a_tensor_g6_worked_example(groups):
    bundle = compute_tensors(groups["g6"].spec)
    assert bundle.a_tensor[0][2][2] == vec3(P("1/4*(gamma^2-beta^2)"), 0, 0)


def test_a_tensor_zero_torsion_vanishes():
    zero_t = tuple(tuple(vec3(0, 0, 0) for _ in range(3)) for _ in range(3))
    a = a_tensor(zero_t)
    assert all(p.is_zero() for plane in a for row in plane for v in row for p in v)


def test_wanas_tensor_of_levi_civita_is_curvature(groups):
    # torsion-free base connection: A = 0, so W = R
    bundle = compute_tensors(groups["g2"].spec, "levi-civita")
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert bundle.wanas[i][j][k] == bundle.curvature[i][j][k]
    assert all(p.is_zero() for plane in bundle.torsion for v in plane for p in v)


def test_g3_wan_contraction_entry_at_point(groups):
    numeric = groups["g3"].spec.evaluate(
        {"alpha": Fraction(1), "beta": Fraction(1), "gamma": Fraction(0)}
    )
    bundle = compute_tensors(numeric)
    assert bundle.wan[0][0] == Poly.zero()


# -- contraction and operators ------------------------------------------------------------


def test_contract_zero_tensor():
    zero = tuple(
        tuple(tuple(vec3(0, 0, 0) for _ in range(3)) for _ in range(3))
        for _ in range(3)
    )
    s = contract(zero, LORENTZ)
    assert all(p.is_zero() for row in s for p in row)


def test_contract_g1_ricci_entry(groups):
    bundle = compute_tensors(groups["g1"].spec)
    assert bundle.ricci_form[0][0] == P("-(alpha^2+1/2*beta^2)")


def test_contract_g1_abar_row3(groups):
    bundle = compute_tensors(groups["g1"].spec)
    assert bundle.abar[2][0] == P("1/2*alpha*beta")


def test_contract_shortcut_identity(groups):
    for entry in groups.values():
        bundle = compute_tensors(entry.spec)
        for tensor in (bundle.curvature, bundle.a_tensor, bundle.wanas):
            assert mat_eq(contract(tensor, LORENTZ), contract_shortcut(tensor)), entry.id


def test_operator_from_identity_form():
    m = operator_from_form(identity3(), LORENTZ)
    assert m == ((Poly.const(1), Poly.zero(), Poly.zero()),
                 (Poly.zero(), Poly.const(1), Poly.zero()),
                 (Poly.zero(), Poly.zero(), Poly.const(-1)))


def test_operator_form_round_trip(groups):
    for entry in groups.values():
        bundle = compute_tensors(entry.spec)
        for m in (bundle.ric, bundle.abar, bundle.wan):
            assert mat_eq(operator_from_form(operator_from_form(m, LORENTZ), LORENTZ), m)
            # duality relation m[i][j]*eps[j] == s[i][j]
            s = operator_from_form(m, LORENTZ)
            for i in range(3):
                for j in range(3):
                    assert m[i][j] * LORENTZ.eps[j] == s[i][j]


def test_g1_ric_operator_row3(groups):
    bundle = compute_tensors(groups["g1"].spec)
    assert bundle.ric[2] == (P("1/2*alpha*beta"), P("alpha^2"), Poly.zero())


def test_g7_wan_operator_entry(groups):
    bundle = compute_tensors(groups["g7"].spec)
    assert bundle.wan[0][2] == P("-(alpha*beta+1/2*gamma*delta)")


# -- symmetrization --------------------------------------------------------------------------


def test_symmetrize_g1_wan_entries(groups):
    bundle = compute_tensors(groups["g1"].spec)
    assert bundle.wan_tilde[0][2] == P("1/4*alpha*beta")
    assert bundle.wan_tilde[2][0] == P("-1/4*alpha*beta")


def test_symmetrize_diagonal_operator_unchanged():
    m = ((P("alpha"), Poly.zero(), Poly.zero()),
         (Poly.zero(), P("beta^2"), Poly.zero()),
         (Poly.zero(), Poly.zero(), P("c")))
    assert mat_eq(symmetrize_operator(m, LORENTZ), m)


def test_symmetrize_operator_is_lower_symmetrize_raise():
    # the closed form (m[i][j] + eps[i]*eps[j]*m[j][i]) / 2 against its definition
    m = tuple(tuple(P(f"{i + 1}*alpha + {j + 1}/3*beta^2") for j in range(3)) for i in range(3))
    for eps in itertools.product((1, -1), repeat=3):
        sig = MetricSignature(eps)
        s = operator_from_form(m, sig)  # lowering is the same map, as eps[j]^2 = 1
        sym = tuple(tuple((s[i][j] + s[j][i]) / 2 for j in range(3)) for i in range(3))
        assert mat_eq(symmetrize_operator(m, sig), operator_from_form(sym, sig)), eps


def test_symmetrize_g6_wan_entry(groups):
    bundle = compute_tensors(groups["g6"].spec)
    assert bundle.wan_tilde[1][2] == P("1/2*gamma*alpha+1/4*delta*(beta-gamma)")


def test_symmetrize_differs_from_matrix_symmetrization(groups):
    # with the (+,+,-) metric, form-level and matrix-level symmetrization differ
    bundle = compute_tensors(groups["g1"].spec)
    wan = bundle.wan
    plain = tuple(
        tuple((wan[i][j] + wan[j][i]) / 2 for j in range(3)) for i in range(3)
    )
    assert not mat_eq(bundle.wan_tilde, plain)


def test_symmetrized_form_is_symmetric(groups):
    for entry in groups.values():
        bundle = compute_tensors(entry.spec)
        s = operator_from_form(bundle.wan_tilde, LORENTZ)
        for i in range(3):
            for j in range(3):
                assert s[i][j] == s[j][i]


def test_wan_operator_g5(groups):
    bundle = compute_tensors(groups["g5"].spec)
    k = P("alpha^2+1/2*(beta+gamma)^2+delta^2")
    assert mat_eq(
        bundle.wan,
        ((Poly.zero(),) * 3, (Poly.zero(),) * 3, (Poly.zero(), Poly.zero(), k)),
    )
    assert mat_eq(bundle.wan, mat_sub(bundle.ric, bundle.abar))


def wan_form(bundle):
    """The contracted difference tensor W, as a bilinear form."""
    return contract(bundle.wanas, bundle.spec.signature)


def test_wan_operator_consistent_with_contracted_wanas(groups):
    # the operator of the contracted difference tensor equals Ric - Abar
    for entry in groups.values():
        bundle = compute_tensors(entry.spec)
        assert mat_eq(operator_from_form(wan_form(bundle), LORENTZ), bundle.wan), entry.id


def test_wan_operator_g4_entry(groups):
    bundle = compute_tensors(groups["g4"].spec)
    b1 = P("1/2*alpha+eta-beta")
    b3 = P("1/2*alpha+eta")
    expected = (b3 - 2 * b1) * P("2*eta-beta") - 2
    assert bundle.wan[0][0] == expected


# -- rendering ---------------------------------------------------------------------------------


def test_render_vector():
    assert render_vector(vec3(0, 0, 0)) == "0"
    assert render_vector(vec3(P("-alpha"), 0, 1)) == "-alpha*e1 + e3"
    assert render_vector(vec3(P("alpha-beta"), P("-1"), 0)) == "(alpha - beta)*e1 - e2"


def test_render_matrix_shape():
    text = render_matrix(identity3())
    assert text.count("\n") == 2
    assert text.splitlines()[0].startswith("[")
