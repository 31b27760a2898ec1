"""Reproduction harness: recompute every tensor from the brackets, compare
against the catalog's claimed tables, verify each theorem case symbolically,
and classify deterministic parameter grids against the theorem predicates.

Comparison verdicts distinguish "match" (equal as polynomials, with the
eta^2 = 1 reduction where eta occurs) from "match_on_variety" (equal only
modulo the group's defining equation, certified by binomial reduction or by
vanishing at sampled constraint-satisfying points) — collapsing the two
would hide information about how literally a table reproduces.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .algebra import Assignment, Constraint, InvalidAssignmentError, LieAlgebraSpec
from .catalog import (
    ALL_GROUPS,
    Catalog,
    GroupEntry,
    PAIR_KEYS,
    TheoremClaim,
    predicate_eval,
)
from .geometry import compute_tensors
from .poly import IntegerEvaluator, Poly, UnsupportedRelationError, format_rational
from .soliton import (
    ETA_RELATION,
    SolitonKind,
    SolitonVerdict,
    check_claimed_solution,
    compile_decision,
    solve_affine,
    wan_for_kind,
)

_PAIRS_BY_KEY = {"e1,e2": (0, 1), "e1,e3": (0, 2), "e2,e3": (1, 2)}

MATCH = "match"
MATCH_ON_VARIETY = "match_on_variety"
MISMATCH = "mismatch"

BASE_LADDER: tuple[Fraction, ...] = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(3),
)


def _ladder_extension() -> Iterable[Fraction]:
    k = 3
    while True:
        yield Fraction(-k)
        yield Fraction(k + 1)
        k += 1


@dataclass(frozen=True)
class DiscrepancyReport:
    group: str
    item: str      # connection|torsion|a_tensor|abar|ric|wan|wan_tilde|theorem_case
    location: tuple
    computed: str
    claimed: str
    verdict: str   # match|match_on_variety|mismatch
    certificate: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "item": self.item,
            "location": list(self.location),
            "computed": self.computed,
            "claimed": self.claimed,
            "verdict": self.verdict,
            "certificate": self.certificate,
        }


# -- polynomial comparison under the group's constraints --------------------


def _binomial_relation(con: Constraint) -> tuple[Poly, str] | None:
    """A reducible Equation constraint, as (relation, leading variable).

    Needs at most two terms with some variable occurring in exactly one of
    them and a term-order-decreasing rewrite; the eta^2 = 1 equation is
    handled separately and skipped here.
    """
    if con.kind != "eq":
        return None
    if con.poly == ETA_RELATION:
        return None
    terms = con.poly.terms
    if not 1 <= len(terms) <= 2:
        return None
    for leading in con.poly.variables():
        try:
            Poly.const(1).reduce(con.poly, leading)
        except UnsupportedRelationError:
            continue
        return (con.poly, leading)
    return None


def _normalize_eta(p: Poly) -> Poly:
    if "eta" in p.variables():
        return p.reduce(ETA_RELATION, "eta")
    return p


def compare_polys(
    computed: Poly,
    claimed: Poly,
    entry: GroupEntry,
    sample_points: Callable[[], Sequence[Assignment]],
) -> tuple[str, str | None]:
    """(verdict, certificate) for one table entry.

    ``sample_points`` provides the variety samples; it is called only when
    neither exact equality nor a binomial reduction settles the entry.
    """
    diff = _normalize_eta(computed - claimed)
    if diff.is_zero():
        return (MATCH, None)
    for con in entry.spec.constraints:
        rel = _binomial_relation(con)
        if rel is None:
            continue
        relation, leading = rel
        if diff.reduce(relation, leading).is_zero():
            return (MATCH_ON_VARIETY, f"reduces to 0 modulo {con.poly} = 0")
    samples = sample_points()
    if samples and all(diff.evaluate(s) == 0 for s in samples):
        return (
            MATCH_ON_VARIETY,
            f"vanishes at all {len(samples)} sampled variety points",
        )
    return (MISMATCH, None)


# -- grids -------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Deterministic rational grid over a group's admissible parameters."""

    group: str
    ladder: tuple[Fraction, ...] = BASE_LADDER
    include_zero: tuple[tuple[str, bool], ...] = ()
    max_points: int = 5000

    def zero_flags(self) -> dict[str, bool]:
        return dict(self.include_zero)


def _single_var_nonvanishing(spec: LieAlgebraSpec) -> set[str]:
    out = set()
    for con in spec.constraints:
        if con.kind == "neq" and con.poly.degree() == 1 and len(con.poly.terms) == 1:
            vars_ = con.poly.variables()
            if len(vars_) == 1:
                out.add(vars_[0])
    return out


def _is_sign_constraint(con: Constraint) -> str | None:
    """The variable v when the constraint is v^2 - 1 = 0 (domain {1, -1})."""
    if con.kind != "eq":
        return None
    for v in con.poly.variables():
        if con.poly == Poly.var(v) ** 2 - 1:
            return v
    return None


def generate_grid(spec: LieAlgebraSpec, grid: GridSpec) -> list[dict[str, Fraction]]:
    """All admissible points of the grid, sorted by parameter tuple.

    Variables range over the ladder (plus 0 unless excluded); sign variables
    (v^2 = 1) range over {1, -1}.  A single defining equation is handled by
    solving for its highest-ordered variable where the coefficient is
    nonzero, letting that variable range freely where the equation already
    holds, and skipping infeasible combinations.  Every emitted point passes
    validate_assignment.
    """
    variables = list(spec.variables())
    zero_flags = grid.zero_flags()
    no_zero = _single_var_nonvanishing(spec)
    sign_vars = {v for con in spec.constraints if (v := _is_sign_constraint(con))}

    solve_eq: Poly | None = None
    for con in spec.constraints:
        if con.kind != "eq" or _is_sign_constraint(con):
            continue
        if solve_eq is not None:
            raise ValueError("grids support at most one defining equation")
        solve_eq = con.poly

    solved_var = None
    if solve_eq is not None:
        solved_var = solve_eq.variables()[-1]
        if solve_eq.degree_in(solved_var) != 1:
            raise ValueError(f"cannot solve {solve_eq} = 0 for {solved_var}")
        # the equation as constant + slope*solved_var, both free of solved_var
        constant = solve_eq.substitute({solved_var: 0})
        slope = solve_eq.substitute({solved_var: 1}) - constant
        solve_pair = IntegerEvaluator([constant, slope])

    def domain(v: str) -> list[Fraction]:
        if v in sign_vars:
            return [Fraction(-1), Fraction(1)]
        values = list(grid.ladder)
        if zero_flags.get(v, v not in no_zero):
            values.append(Fraction(0))
        return sorted(set(values))

    free_vars = [v for v in variables if v != solved_var]
    points: list[dict[str, Fraction]] = []
    for combo in itertools.product(*(domain(v) for v in free_vars)):
        sigma = dict(zip(free_vars, combo))
        if solved_var is None:
            candidates = [dict(sigma)]
        else:
            pair, _ = solve_pair(sigma)
            outcome, x, _ = solve_affine([pair])
            values = [x] if outcome == "one" else domain(solved_var) if outcome == "any" else []
            candidates = [dict(sigma, **{solved_var: v}) for v in values]
        for candidate in candidates:
            if not spec.validate_assignment(candidate):
                points.append(candidate)

    points.sort(key=lambda s: tuple(s[v] for v in variables))
    return points[: grid.max_points]


def default_grid(entry: GroupEntry, min_points: int = 200, max_points: int = 5000) -> tuple[GridSpec, list[dict[str, Fraction]]]:
    """Base-ladder grid, deterministically extended until >= min_points.

    Extension stops early when it stops gaining points (an algebra with few
    or no free parameters can exhaust its admissible set).
    """
    ladder = list(BASE_LADDER)
    extension = _ladder_extension()
    best: tuple[GridSpec, list[dict[str, Fraction]]] | None = None
    while True:
        grid = GridSpec(entry.id, tuple(ladder), max_points=max_points)
        points = generate_grid(entry.spec, grid)
        if len(points) >= min_points:
            return grid, points
        if best is not None and len(points) <= len(best[1]):
            return best
        best = (grid, points)
        ladder.append(next(extension))


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class PointRecord:
    sigma: dict[str, Fraction]
    computed: SolitonVerdict
    expected: SolitonVerdict
    agree: bool

    def sigma_str(self) -> str:
        return ",".join(f"{v}={format_rational(x)}" for v, x in sorted(self.sigma.items()))


@dataclass(frozen=True)
class ClassificationReport:
    group: str
    kind: SolitonKind
    points: tuple[PointRecord, ...]

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def agreements(self) -> int:
        return sum(1 for p in self.points if p.agree)

    @property
    def disagreements(self) -> tuple[PointRecord, ...]:
        return tuple(p for p in self.points if not p.agree)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "kind": self.kind.value,
            "points": self.total,
            "agree": self.agreements,
            "disagree": self.total - self.agreements,
            "disagreements": [
                {
                    "sigma": rec.sigma_str(),
                    "computed": rec.computed.to_json_dict(),
                    "expected": rec.expected.to_json_dict(),
                }
                for rec in self.disagreements
            ],
        }


def verdicts_equal(a: SolitonVerdict, b: SolitonVerdict) -> bool:
    """Exact agreement: outcome, and c plus D where applicable."""
    if a.outcome != b.outcome:
        return False
    if a.outcome == "soliton":
        return a.c == b.c and a.d == b.d
    if a.outcome == "any_c":
        fam_a, fam_b = a.d_family, b.d_family
        return all(
            fam_a[i][j] == fam_b[i][j] for i in range(3) for j in range(3)
        )
    return True


def classify_grid(
    entry: GroupEntry,
    kind: SolitonKind,
    points: Sequence[Mapping[str, Fraction]],
    claim: TheoremClaim,
) -> ClassificationReport:
    """Decide every grid point from recomputed tensors and compare with the
    theorem predicate: the decision is ``soliton_decide``'s, compiled once
    from the symbolic brackets and Wan operator and run in integers."""
    spec = entry.spec
    decide = compile_decision(spec, kind)
    records = []
    for sigma in points:
        sigma = dict(sigma)
        violations = spec.validate_assignment(sigma)
        if violations:
            raise InvalidAssignmentError(violations)
        computed = decide(sigma)
        expected = predicate_eval(claim, sigma)
        records.append(
            PointRecord(sigma, computed, expected, verdicts_equal(computed, expected))
        )
    return ClassificationReport(entry.id, kind, tuple(records))


# -- reproduction -------------------------------------------------------------


def reproduce_group(entry: GroupEntry) -> list[DiscrepancyReport]:
    """Recompute the full pipeline and compare entrywise against the claims.

    The 50 variety samples are built on the first entry that needs them, if any.
    """
    bundle = compute_tensors(entry.spec)
    claimed = entry.claimed
    samples = functools.cache(lambda: default_grid(entry, min_points=50, max_points=50)[1])
    reports: list[DiscrepancyReport] = []

    def emit(item: str, location: tuple, computed: Poly, claimed_p: Poly):
        verdict, certificate = compare_polys(computed, claimed_p, entry, samples)
        reports.append(
            DiscrepancyReport(
                group=entry.id,
                item=item,
                location=location,
                computed=str(computed),
                claimed=str(claimed_p),
                verdict=verdict,
                certificate=certificate,
            )
        )

    for i in range(3):
        for j in range(3):
            for k in range(3):
                emit(
                    "connection",
                    (f"e{i + 1}", f"e{j + 1}", f"e{k + 1}"),
                    bundle.connection[i][j][k],
                    claimed.connection[i][j][k],
                )
    for key in PAIR_KEYS:
        i, j = _PAIRS_BY_KEY[key]
        for k in range(3):
            emit("torsion", (key, f"e{k + 1}"), bundle.torsion[i][j][k], claimed.torsion[i][j][k])
        for kk in range(3):
            for l in range(3):
                emit(
                    "a_tensor",
                    (key, f"e{kk + 1}", f"e{l + 1}"),
                    bundle.a_tensor[i][j][kk][l],
                    claimed.a_tensor[i][j][kk][l],
                )
    for name, computed_m, claimed_m in (
        ("abar", bundle.abar, claimed.abar),
        ("ric", bundle.ric, claimed.ric),
        ("wan", bundle.wan, claimed.wan),
        ("wan_tilde", bundle.wan_tilde, claimed.wan_tilde),
    ):
        for i in range(3):
            for j in range(3):
                emit(name, (i + 1, j + 1), computed_m[i][j], claimed_m[i][j])
    return reports


def check_theorem_cases(entry: GroupEntry, kind: SolitonKind, claim: TheoremClaim) -> list[DiscrepancyReport]:
    """check_claimed_solution for every case, reported like table entries."""
    reports = []
    for case in claim.cases:
        subs = case.subs_map()
        sub_spec = entry.spec.substitute(subs)
        d = tuple(tuple(p.substitute(subs) for p in row) for row in case.d)
        if case.any_c:
            # the family D(c) = Wan - c*Id is a soliton for every c exactly
            # when the algebra is abelian; verify that plus Wan = c*Id + D
            wan = wan_for_kind(sub_spec, kind)
            failures = []
            for i, j in ((0, 1), (0, 2), (1, 2)):
                if not all(p.is_zero() for p in sub_spec.constants[i, j]):
                    failures.append(f"bracket (e{i + 1},e{j + 1}) nonzero")
            c_var = Poly.var("c")
            for i in range(3):
                for j in range(3):
                    want = d[i][j] + (c_var if i == j else Poly.zero())
                    if wan[i][j] != want:
                        failures.append(f"Wan - (c*Id + D(c)) nonzero at ({i + 1},{j + 1})")
        else:
            c_poly = case.c.substitute(subs)
            failures = check_claimed_solution(
                sub_spec, kind, c_poly, d, branches=case.branch_maps()
            )
        reports.append(
            DiscrepancyReport(
                group=entry.id,
                item="theorem_case",
                location=(kind.value, case.name),
                computed="pass" if not failures else "; ".join(failures),
                claimed="pass",
                verdict=MATCH if not failures else MISMATCH,
            )
        )
    return reports


# -- the full verification run --------------------------------------------------


@dataclass(frozen=True)
class PaperReport:
    groups: tuple[str, ...]
    items: tuple[DiscrepancyReport, ...]
    classifications: tuple[ClassificationReport, ...]
    catalog_checksum: str

    @property
    def mismatches(self) -> tuple[DiscrepancyReport, ...]:
        return tuple(r for r in self.items if r.verdict == MISMATCH)

    @property
    def disagreement_count(self) -> int:
        return sum(c.total - c.agreements for c in self.classifications)

    @property
    def ok(self) -> bool:
        """No mismatch, no disagreement, and no classification left empty:
        a grid without admissible points checks nothing."""
        return (
            not self.mismatches
            and self.disagreement_count == 0
            and all(c.total for c in self.classifications)
        )

    def summary_counts(self) -> dict:
        counts = {MATCH: 0, MATCH_ON_VARIETY: 0, MISMATCH: 0}
        for r in self.items:
            counts[r.verdict] += 1
        return counts

    def to_json_dict(self) -> dict:
        counts = self.summary_counts()
        return {
            "version": 1,
            "catalog_checksum": self.catalog_checksum,
            "groups": [
                {
                    "id": gid,
                    "items": [
                        r.to_json_dict() for r in self.items if r.group == gid
                    ],
                }
                for gid in self.groups
            ],
            "classifications": [c.to_json_dict() for c in self.classifications],
            "summary": {
                "match": counts[MATCH],
                "match_on_variety": counts[MATCH_ON_VARIETY],
                "mismatch": counts[MISMATCH],
                "classified_points": sum(c.total for c in self.classifications),
                "classification_disagreements": self.disagreement_count,
                "ok": self.ok,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        counts = self.summary_counts()
        lines = [f"groups verified: {', '.join(self.groups)}"]
        lines.append(
            f"table entries: {counts[MATCH]} match, "
            f"{counts[MATCH_ON_VARIETY]} match on variety, "
            f"{counts[MISMATCH]} mismatch"
        )
        for r in self.mismatches:
            lines.append(
                f"  MISMATCH {r.group} {r.item} {r.location}: "
                f"computed {r.computed} vs claimed {r.claimed}"
            )
        for c in self.classifications:
            if not c.total:
                status = "NOTHING CHECKED (no admissible grid point)"
            elif c.total == c.agreements:
                status = "all agree"
            else:
                status = f"{c.total - c.agreements} DISAGREE"
            lines.append(
                f"classification {c.group} {c.kind.value} kind: "
                f"{c.total} points, {status}"
            )
        lines.append("RESULT: " + ("all checks passed" if self.ok else "FAILURES found"))
        return "\n".join(lines) + "\n"


def verify_paper(
    catalog: Catalog,
    groups: Sequence[str] | None = None,
    ladder: Sequence[Fraction] | None = None,
    min_points: int = 200,
    max_points: int = 5000,
) -> PaperReport:
    """Reproduce every table, check every theorem case, classify every grid.

    A group listed more than once is verified once, at its first position.
    """
    group_ids = tuple(dict.fromkeys(groups)) if groups else ALL_GROUPS
    items: list[DiscrepancyReport] = []
    classifications: list[ClassificationReport] = []
    for gid in group_ids:
        entry = catalog.get_group(gid)
        items.extend(reproduce_group(entry))
        if ladder is None:
            _, points = default_grid(entry, min_points=min_points, max_points=max_points)
        else:
            points = generate_grid(
                entry.spec, GridSpec(entry.id, tuple(ladder), max_points=max_points)
            )
        for kind in (SolitonKind.FIRST, SolitonKind.SECOND):
            claim = catalog.theorem_claim(gid, kind)
            items.extend(check_theorem_cases(entry, kind, claim))
            classifications.append(classify_grid(entry, kind, points, claim))
    return PaperReport(
        groups=group_ids,
        items=tuple(items),
        classifications=tuple(classifications),
        catalog_checksum=catalog.checksum,
    )
