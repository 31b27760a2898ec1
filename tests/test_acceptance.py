"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output) and asserts the criterion at its stated tolerance — which
is exact equality throughout: there is no floating point anywhere in the
pipeline.
"""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction

import pytest

from wanas.algebra import LORENTZ
from wanas.catalog import ALL_GROUPS
from wanas.geometry import (
    canonical_connection,
    compute_tensors,
    levi_civita,
    operator_from_form,
    torsion,
)
from wanas.poly import Poly, VARIABLES
from wanas.soliton import (
    SolitonKind,
    derivation_residual,
    wan_for_kind,
)
from wanas.verify import (
    MATCH,
    MATCH_ON_VARIETY,
    MISMATCH,
    check_theorem_cases,
    classify_grid,
    default_grid,
    reproduce_group,
    verify_paper,
)

from matrix_helpers import contract, contract_shortcut, mat_eq

UNIMODULAR = ("g1", "g2", "g3", "g4")
# SHA-256 of the full `verify-paper --out` report: its bytes must never change
REPORT_SHA256 = "0db433fced7be93f28a38a4671032846efa9fdfb675803aa5bb5b7b5b592addb"
ETA_RELATION = Poly.var("eta") ** 2 - 1


def _report(criterion: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {criterion} ({description}): {status}")
    assert ok, f"criterion {criterion}: {description}"


def _normalize(p: Poly) -> Poly:
    if "eta" in p.variables():
        return p.reduce(ETA_RELATION, "eta")
    return p


@pytest.fixture(scope="module")
def paper_run(catalog):
    start = time.perf_counter()
    report = verify_paper(catalog)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_connection_reproduction(catalog):
    start = time.perf_counter()
    ok = True
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        computed = canonical_connection(entry.spec)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    lhs = _normalize(computed[i][j][k])
                    rhs = _normalize(entry.claimed.connection[i][j][k])
                    ok = ok and lhs == rhs
    elapsed = time.perf_counter() - start
    _report(1, "canonical connection equals all seven lemma tables exactly", ok)
    _report(1, f"connection reproduction runtime {elapsed:.3f}s < 1s", elapsed < 1.0)


def test_criterion_2_torsion_reproduction(catalog):
    ok = True
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        t = torsion(canonical_connection(entry.spec), entry.spec)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    ok = ok and _normalize(t[i][j][k]) == _normalize(entry.claimed.torsion[i][j][k])
    _report(2, "torsion matches the printed tables exactly", ok)


def test_criterion_3_matrix_reproduction(catalog):
    zero_mismatch = True
    exact_unimodular = True
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        for report in reproduce_group(entry):
            if report.item not in ("abar", "ric", "wan", "wan_tilde"):
                continue
            if report.verdict == MISMATCH:
                zero_mismatch = False
            if gid in UNIMODULAR and report.verdict != MATCH:
                exact_unimodular = False
            if gid not in UNIMODULAR and report.verdict not in (MATCH, MATCH_ON_VARIETY):
                zero_mismatch = False
    _report(3, "Abar/Ric/Wan/WanTilde displays reproduce with zero mismatches", zero_mismatch)
    _report(3, "unimodular matrix displays reproduce as exact polynomials", exact_unimodular)


def test_criterion_4_theorem_sufficiency(catalog):
    ok = True
    count = 0
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        for kind in SolitonKind:
            claim = catalog.theorem_claim(gid, kind)
            for report in check_theorem_cases(entry, kind, claim):
                count += 1
                ok = ok and report.verdict == MATCH
    _report(4, f"all {count} theorem cases pass the exact (c, D) check", ok and count == 30)


def test_criterion_5_necessity_on_grids(catalog, paper_run):
    report, elapsed = paper_run
    sizes_ok = all(200 <= c.total <= 5000 for c in report.classifications)
    agree_ok = all(c.total == c.agreements for c in report.classifications)
    g1_records = [
        rec
        for c in report.classifications
        if c.group == "g1"
        for rec in c.points
    ]
    g1_ok = bool(g1_records) and all(
        rec.computed.outcome == "no_soliton" for rec in g1_records
    )
    _report(5, "every per-group-per-kind grid has 200..5000 admissible points", sizes_ok)
    _report(5, "soliton decisions agree with the theorems at 100% of grid points", agree_ok)
    _report(5, "every g1 grid point is decided as no-soliton (both kinds)", g1_ok)
    _report(5, f"full verify-paper runtime {elapsed:.1f}s < 30s", elapsed < 30.0)


def test_criterion_6_symmetrized_wan_identities(catalog):
    ok = True
    for gid in ("g3", "g5"):
        bundle = compute_tensors(catalog.get_group(gid).spec)
        ok = ok and mat_eq(bundle.wan, bundle.wan_tilde)
    _report(6, "computed WanTilde equals Wan exactly for g3 and g5", ok)


def test_criterion_7_property_suites(catalog):
    # Jacobi for all seven catalog algebras
    jacobi_ok = all(
        all(p.is_zero() for p in catalog.get_group(gid).spec.jacobi_residual())
        for gid in ALL_GROUPS
    )
    _report(7, "Jacobi residual is identically zero for all seven algebras", jacobi_ok)

    # Levi-Civita metric compatibility and torsion-freeness, exact
    lc_ok = True
    eps = LORENTZ.eps
    for gid in ALL_GROUPS:
        spec = catalog.get_group(gid).spec
        lc = levi_civita(spec)
        t = torsion(lc, spec)
        lc_ok = lc_ok and all(
            (lc[i][j][k] * eps[k] + lc[i][k][j] * eps[j]).is_zero()
            for i in range(3)
            for j in range(3)
            for k in range(3)
        )
        lc_ok = lc_ok and all(p.is_zero() for plane in t for v in plane for p in v)
    _report(7, "Levi-Civita is metric-compatible and torsion-free, exactly", lc_ok)

    # contraction shortcut, operator/form round trip, symmetrized symmetry
    contraction_ok = True
    duality_ok = True
    symmetry_ok = True
    for gid in ALL_GROUPS:
        bundle = compute_tensors(catalog.get_group(gid).spec)
        for tensor in (bundle.curvature, bundle.a_tensor, bundle.wanas):
            contraction_ok = contraction_ok and mat_eq(
                contract(tensor, LORENTZ), contract_shortcut(tensor)
            )
        for m in (bundle.ric, bundle.abar, bundle.wan, bundle.wan_tilde):
            duality_ok = duality_ok and mat_eq(
                operator_from_form(operator_from_form(m, LORENTZ), LORENTZ), m
            )
        s = operator_from_form(bundle.wan_tilde, LORENTZ)
        symmetry_ok = symmetry_ok and all(
            s[i][j] == s[j][i] for i in range(3) for j in range(3)
        )
    _report(7, "signed contraction equals its (+,+,-) shortcut on all tensors", contraction_ok)
    _report(7, "operator/form lower-raise round trip is the identity", duality_ok)
    _report(7, "symmetrized operators have exactly symmetric forms", symmetry_ok)

    # soliton soundness by re-substitution at sampled points
    soundness_ok = True
    for gid in ALL_GROUPS:
        entry = catalog.get_group(gid)
        _, points = default_grid(entry)
        for kind in SolitonKind:
            wan_sym = wan_for_kind(entry.spec, kind)
            report = classify_grid(entry, kind, points[:40], catalog.theorem_claim(gid, kind))
            for rec in report.points:
                sigma, verdict = rec.sigma, rec.computed
                if verdict.outcome == "soliton":
                    numeric = entry.spec.evaluate(sigma)
                    wan = tuple(
                        tuple(Poly.const(p.evaluate(sigma)) for p in row) for row in wan_sym
                    )
                    d = tuple(tuple(Poly.const(x) for x in row) for row in verdict.d)
                    resid = derivation_residual(d, numeric)
                    soundness_ok = soundness_ok and all(
                        p.is_zero() for v in resid for p in v
                    )
                    soundness_ok = soundness_ok and all(
                        wan[i][j] - (Poly.const(verdict.c) if i == j else Poly.zero()) == d[i][j]
                        for i in range(3)
                        for j in range(3)
                    )
    _report(7, "every reported soliton re-substitutes exactly", soundness_ok)

    # randomized polynomial-arithmetic property cases
    rng = random.Random(1234321)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            mono = tuple(
                rng.randint(0, 3) if rng.random() < 0.4 else 0 for _ in VARIABLES
            )
            terms[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        return Poly(terms)

    cases = 0
    algebra_ok = True
    for _ in range(260):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        sigma = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in VARIABLES}
        algebra_ok = algebra_ok and p + q == q + p
        algebra_ok = algebra_ok and (p + q) + r == p + (q + r)
        algebra_ok = algebra_ok and p * q == q * p
        algebra_ok = algebra_ok and p * (q + r) == p * q + p * r
        algebra_ok = algebra_ok and (p * q).evaluate(sigma) == p.evaluate(sigma) * q.evaluate(sigma)
        cases += 5
    _report(7, f"{cases} randomized exact polynomial property cases hold", algebra_ok and cases >= 1000)


def test_criterion_8_determinism(tmp_path, capsys):
    from wanas.cli import main

    a, b = tmp_path / "run1.json", tmp_path / "run2.json"
    code_a = main(["verify-paper", "--out", str(a)])
    code_b = main(["verify-paper", "--out", str(b)])
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    _report(8, "two consecutive verify-paper --out runs are byte-identical", identical)
    digest = hashlib.sha256(a.read_bytes()).hexdigest()
    _report(8, "the verify-paper --out report has its pinned SHA-256", digest == REPORT_SHA256)
    _report(8, "both full verification runs exit 0", code_a == 0 and code_b == 0)
