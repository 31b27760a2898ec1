"""Metric Lie algebra layer: brackets, Jacobi, assignments, serialization."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from wanas.algebra import (
    Constraint,
    InvalidAssignmentError,
    LieAlgebraSpec,
    LORENTZ,
    MetricSignature,
    load_spec_file,
    parse_assignment,
    vec3,
)
from wanas.poly import MissingVariableError, Poly, format_rational, parse_poly
from wanas.soliton import SolitonKind

P = parse_poly


def abelian_spec() -> LieAlgebraSpec:
    zero = vec3(0, 0, 0)
    return LieAlgebraSpec((zero, zero, zero), LORENTZ)


# -- construction invariants ----------------------------------------------------


def test_signature_requires_unit_entries():
    for eps in ((1, 2, -1), (1.0, 1, -1), (True, 1, -1)):
        with pytest.raises(ValueError):
            MetricSignature(eps)
    assert LORENTZ.eps == (1, 1, -1)


def _assert_table_from_brackets(spec: LieAlgebraSpec):
    c = spec.constants
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert c[j][i][k] == -c[i][j][k]
            if i == j:
                assert all(p.is_zero() for p in c[i][j])
    assert spec.components == tuple(x for vec in spec.brackets for x in vec)
    assert spec.brackets == (c[0][1], c[0][2], c[1][2])


def test_from_brackets_builds_antisymmetric_table(catalog, groups, height_points):
    """Every spec derives its full table and its nine components from its
    three brackets: the catalog's, evaluated at height points, substituted
    by each theorem case, and restored from JSON."""
    for gid, entry in groups.items():
        spec = entry.spec
        specs = [spec, LieAlgebraSpec.from_json_dict(spec.to_json_dict())]
        specs += [spec.evaluate(sigma) for sigma in height_points[gid]]
        for kind in SolitonKind:
            specs += [spec.substitute(case.subs_map()) for case in catalog.theorem_claim(gid, kind).cases]
        for s in specs:
            _assert_table_from_brackets(s)
    assert groups["g1"].spec.constants[1][0] == (P("-alpha"), Poly.zero(), P("beta"))


def test_constraints_never_involve_c():
    with pytest.raises(ValueError):
        Constraint("eq", P("alpha + c"))


# -- bracket ---------------------------------------------------------------------


def test_g1_bracket_of_basis_vectors(groups):
    spec = groups["g1"].spec
    e2, e3 = spec.basis_vector(1), spec.basis_vector(2)
    assert spec.bracket(e2, e3) == vec3(P("beta"), P("alpha"), P("alpha"))


def test_bracket_antisymmetry_on_polynomial_vectors(groups):
    spec = groups["g4"].spec
    x = vec3(P("alpha"), P("beta-1"), P("eta"))
    assert spec.bracket(x, x) == vec3(0, 0, 0)
    y = vec3(1, P("gamma"), 0)
    lhs = spec.bracket(x, y)
    rhs = spec.bracket(y, x)
    assert lhs == tuple(-p for p in rhs)


def test_g5_bracket_e1_e2_vanishes(groups):
    spec = groups["g5"].spec
    assert spec.bracket(spec.basis_vector(0), spec.basis_vector(1)) == vec3(0, 0, 0)


def test_bracket_bilinearity_randomized(groups):
    rng = random.Random(4242)
    spec = groups["g6"].spec
    consts = [Poly.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(4)]
    x, y = spec.basis_vector(0), spec.basis_vector(2)
    z = spec.basis_vector(1)
    a, b = consts[0], consts[1]
    left = spec.bracket(tuple(a * xi + b * zi for xi, zi in zip(x, z)), y)
    right = tuple(
        a * p + b * q
        for p, q in zip(spec.bracket(x, y), spec.bracket(z, y))
    )
    assert left == right


# -- Jacobi ------------------------------------------------------------------------


def oracle_jacobi(spec: LieAlgebraSpec):
    """Brute-force cyclic expansion, independent of jacobi_residual."""
    e = [spec.basis_vector(i) for i in range(3)]
    total = [Poly.zero()] * 3
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = spec.bracket(e[j], e[k])
        outer = spec.bracket(e[i], inner)
        total = [t + o for t, o in zip(total, outer)]
    return total


def test_jacobi_zero_for_all_catalog_groups(groups):
    for gid, entry in groups.items():
        residual = entry.spec.jacobi_residual()
        assert all(p.is_zero() for p in residual), f"{gid}: {[str(p) for p in residual]}"


def test_jacobi_matches_brute_force_oracle(groups):
    for entry in groups.values():
        assert list(entry.spec.jacobi_residual()) == oracle_jacobi(entry.spec)


def test_jacobi_abelian_is_zero():
    assert all(p.is_zero() for p in abelian_spec().jacobi_residual())


def test_jacobi_violating_table_detected():
    # [e1,e2]=e3, [e1,e3]=e2, [e2,e3]=e1 fails Jacobi? build and check the
    # residual is what the cyclic sum says (here it happens to vanish), so use
    # a genuinely failing table: [e1,e2]=e1 with [e1,e3]=e2.
    spec = LieAlgebraSpec(
        (
            vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 0)
        ),
        LORENTZ,
    )
    assert any(not p.is_zero() for p in spec.jacobi_residual())


# -- assignments --------------------------------------------------------------------


def test_validate_g5_admissible_point(groups):
    sigma = {"alpha": Fraction(1), "beta": Fraction(0), "gamma": Fraction(0), "delta": Fraction(1)}
    assert groups["g5"].spec.validate_assignment(sigma) == []


def test_validate_g5_violating_point(groups):
    sigma = {"alpha": Fraction(1), "beta": Fraction(1), "gamma": Fraction(1), "delta": Fraction(1)}
    violations = groups["g5"].spec.validate_assignment(sigma)
    assert len(violations) == 1
    assert "alpha*gamma + beta*delta" in violations[0]


def test_validate_g2_gamma_must_not_vanish(groups):
    sigma = {"alpha": Fraction(0), "beta": Fraction(0), "gamma": Fraction(0)}
    violations = groups["g2"].spec.validate_assignment(sigma)
    assert violations == ["gamma = 0, expected nonzero"]


def test_validate_eta_must_be_sign(groups):
    spec = groups["g4"].spec
    ok = spec.validate_assignment({"alpha": Fraction(0), "beta": Fraction(2), "eta": Fraction(-1)})
    assert ok == []
    bad = spec.validate_assignment({"alpha": Fraction(0), "beta": Fraction(2), "eta": Fraction(2)})
    assert bad and "eta^2 - 1" in bad[0]


def test_validate_rejects_c_and_missing_variables(groups):
    spec = groups["g1"].spec
    assert spec.validate_assignment({"alpha": 1, "beta": 0, "c": 1}) != []
    with pytest.raises(MissingVariableError):
        spec.validate_assignment({"alpha": Fraction(1)})


def _reference_violations(spec, sigma):
    """validate_assignment computed with Poly.evaluate, one constraint at a time."""
    if "c" in sigma:
        return ["the soliton scalar c is not a group parameter"]
    violations = []
    for con in spec.constraints:
        value = con.poly.evaluate(sigma)
        if con.kind == "eq" and value != 0:
            violations.append(f"{con.poly} = {format_rational(value)}, expected 0")
        elif con.kind == "neq" and value == 0:
            violations.append(f"{con.poly} = 0, expected nonzero")
    return violations


def test_validate_equals_reference_at_height_points(groups, height_points):
    for gid, points in height_points.items():
        spec = groups[gid].spec
        for sigma in points:
            assert spec.validate_assignment(sigma) == _reference_violations(spec, sigma) == []


def test_is_admissible_equals_reference(groups, height_points):
    """sigma is admissible (validate_assignment(sigma) == []) exactly when
    the Poly.evaluate reference finds no violation: at admissible points,
    with one coordinate moved off them or to 0, and with the soliton scalar
    c added."""
    for gid, points in height_points.items():
        spec = groups[gid].spec
        for sigma in points:
            assert spec.validate_assignment(sigma) == []
            assert spec.validate_assignment({**sigma, "c": Fraction(1)}) != []
            for v in spec.variables():
                for moved in ({**sigma, v: sigma[v] + Fraction(1, 3)}, {**sigma, v: Fraction(0)}):
                    admissible = spec.validate_assignment(moved) == []
                    assert admissible == (_reference_violations(spec, moved) == []), (gid, moved)


def test_admissibility_reads_only_the_constraints(groups, height_points):
    """validate_assignment evaluates the constraints, and each variable no
    constraint reads as a bare row, never the bracket rows that
    spec.evaluate reads: its evaluator is compiled on its own."""
    for gid, points in height_points.items():
        spec = groups[gid].spec.substitute({})  # a fresh object: nothing compiled yet
        assert spec.validate_assignment(points[0]) == []
        assert "_point_values" not in vars(spec), gid
        n = len(spec.constraints)
        values, den = spec._admission(points[0])
        own, own_den = spec._point_values(points[0])
        assert [Fraction(v, den) for v in values[:n]] == [Fraction(v, own_den) for v in own[:n]], gid
        lacked = [v for v in spec.variables() if not any(v in con.poly.variables() for con in spec.constraints)]
        assert [Fraction(v, den) for v in values[n:]] == [points[0][v] for v in lacked], gid


@pytest.mark.parametrize(
    "gid, point, expected",
    [
        # a violated equation whose value is not an integer
        ("g5", "alpha=1/2,beta=1,gamma=1/3,delta=1", ["alpha*gamma + beta*delta = 7/6, expected 0"]),
        (
            "g5",
            "alpha=1/2,beta=1,gamma=1/3,delta=-1/2",
            ["alpha*gamma + beta*delta = -1/3, expected 0", "alpha + delta = 0, expected nonzero"],
        ),
        ("g6", "alpha=-3/7,beta=5,gamma=2,delta=1/9", ["alpha*gamma - beta*delta = -89/63, expected 0"]),
        ("g7", "alpha=2,beta=0,gamma=-1/4,delta=1", ["alpha*gamma = -1/2, expected 0"]),
        ("g4", "alpha=0,beta=2,eta=2/3", ["eta^2 - 1 = -5/9, expected 0"]),
        ("g2", "alpha=1/2,beta=-3,gamma=0", ["gamma = 0, expected nonzero"]),
        ("g1", "alpha=0,beta=5/2", ["alpha = 0, expected nonzero"]),
        ("g1", "alpha=1,beta=0,c=1", ["the soliton scalar c is not a group parameter"]),
    ],
)
def test_validate_equals_reference_at_violating_points(groups, gid, point, expected):
    spec = groups[gid].spec
    sigma = parse_assignment(point)
    assert spec.validate_assignment(sigma) == _reference_violations(spec, sigma) == expected


def test_evaluate_g2_worked_example(groups):
    numeric = groups["g2"].spec.evaluate(
        {"alpha": Fraction(0), "beta": Fraction(0), "gamma": Fraction(1)}
    )
    e = [numeric.basis_vector(i) for i in range(3)]
    assert numeric.bracket(e[0], e[1]) == vec3(0, 1, 0)
    assert numeric.bracket(e[0], e[2]) == vec3(0, 0, -1)
    assert numeric.bracket(e[1], e[2]) == vec3(0, 0, 0)


def test_evaluate_g3_abelian_point(groups):
    numeric = groups["g3"].spec.evaluate(
        {"alpha": Fraction(0), "beta": Fraction(0), "gamma": Fraction(0)}
    )
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert all(p.is_zero() for p in numeric.constants[i][j])


def test_evaluate_g4_worked_example(groups):
    numeric = groups["g4"].spec.evaluate(
        {"eta": Fraction(1), "alpha": Fraction(0), "beta": Fraction(1)}
    )
    e = [numeric.basis_vector(i) for i in range(3)]
    assert numeric.bracket(e[0], e[1]) == vec3(0, -1, 1)
    assert numeric.bracket(e[0], e[2]) == vec3(0, -1, 1)
    assert numeric.bracket(e[1], e[2]) == vec3(0, 0, 0)


def test_evaluate_rejects_invalid_assignment(groups):
    with pytest.raises(InvalidAssignmentError):
        groups["g1"].spec.evaluate({"alpha": Fraction(0), "beta": Fraction(1)})


def test_evaluate_equals_substitution_at_height_points(groups, height_points):
    """evaluate(sigma) is the spec with each variable replaced by its value,
    and raises what validation raises: at an inadmissible point, with a
    missing variable, and with the soliton scalar c."""
    for gid, points in height_points.items():
        spec = groups[gid].spec
        for sigma in points:
            assert spec.evaluate(sigma) == spec.substitute({v: Poly.const(x) for v, x in sigma.items()})
        sigma = points[0]
        for bad in ({**sigma, "c": Fraction(1)}, *({**sigma, v: Fraction(0)} for v in spec.variables())):
            violations = spec.validate_assignment(bad)
            if violations:
                with pytest.raises(InvalidAssignmentError) as err:
                    spec.evaluate(bad)
                assert err.value.violations == tuple(violations)
        for v in spec.variables():
            with pytest.raises(MissingVariableError) as err:
                spec.evaluate({w: x for w, x in sigma.items() if w != v})
            assert err.value.names == (v,)


def test_numeric_algebras_still_satisfy_jacobi(groups):
    # evaluate at a few valid points per group and recheck the cyclic sum
    points = {
        "g1": {"alpha": Fraction(2), "beta": Fraction(-1, 2)},
        "g2": {"alpha": Fraction(1), "beta": Fraction(-1), "gamma": Fraction(3)},
        "g3": {"alpha": Fraction(1), "beta": Fraction(2), "gamma": Fraction(-2)},
        "g4": {"alpha": Fraction(1, 2), "beta": Fraction(3), "eta": Fraction(-1)},
        "g5": {"alpha": Fraction(1), "beta": Fraction(1), "gamma": Fraction(2), "delta": Fraction(-2)},
        "g6": {"alpha": Fraction(2), "beta": Fraction(2), "gamma": Fraction(1), "delta": Fraction(1)},
        "g7": {"alpha": Fraction(0), "beta": Fraction(1), "gamma": Fraction(2), "delta": Fraction(1)},
    }
    for gid, sigma in points.items():
        numeric = groups[gid].spec.evaluate(sigma)
        assert all(p.is_zero() for p in numeric.jacobi_residual()), gid


def test_spec_json_round_trip(groups):
    for entry in groups.values():
        data = entry.spec.to_json_dict()
        restored = LieAlgebraSpec.from_json_dict(json.loads(json.dumps(data)))
        assert restored.constants == entry.spec.constants
        assert restored.signature == entry.spec.signature
        assert {c.describe() for c in restored.constraints} == {
            c.describe() for c in entry.spec.constraints
        }


def test_load_spec_file(tmp_path, groups):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(groups["g1"].spec.to_json_dict()))
    restored = load_spec_file(str(path))
    assert restored.constants == groups["g1"].spec.constants


def test_load_spec_file_refuses_a_document_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"brackets": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(ValueError, match="nests too deeply"):
        load_spec_file(str(path))


def test_parse_assignment():
    sigma = parse_assignment("alpha=1,beta=-1/2")
    assert sigma == {"alpha": Fraction(1), "beta": Fraction(-1, 2)}
    with pytest.raises(ValueError):
        parse_assignment("alpha=0.5")
    with pytest.raises(ValueError):
        parse_assignment("nu=1")
    with pytest.raises(ValueError):
        parse_assignment("alpha=1,alpha=2")
