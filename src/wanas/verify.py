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

from .algebra import (
    PAIR_KEYS,
    PAIRS,
    Assignment,
    Constraint,
    InvalidAssignmentError,
    LieAlgebraSpec,
)
from .catalog import ALL_GROUPS, Catalog, GroupEntry, TheoremClaim, predicate_eval
from .geometry import compute_tensors, mat_substitute
from .poly import IntegerEvaluator, Poly, UnsupportedRelationError, format_rational
from .soliton import (
    ETA_RELATION,
    CompiledDecision,
    SolitonKind,
    SolitonVerdict,
    affine_outcome,
    check_claimed_solution,
    compile_decision,
    family_verdict,
    normalize_eta,
    solve_affine,
)

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


def compare_polys(
    computed: Poly,
    claimed: Poly,
    entry: GroupEntry,
    sample_points: Callable[[], Sequence[Assignment]],
) -> tuple[str, str | None]:
    """(verdict, certificate) for one table entry.

    ``sample_points`` provides the variety samples; it is called only when
    neither exact equality nor a binomial reduction settles the entry.  A
    difference in a variable the algebra does not have is a mismatch.
    """
    diff = normalize_eta(computed - claimed)
    if diff.is_zero():
        return (MATCH, None)
    if not set(diff.variables()) <= set(entry.spec.variables()):
        return (MISMATCH, None)
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
    max_points: int = 5000


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

    Variables range over the ladder (plus 0 unless a constraint v != 0
    excludes it); sign variables (v^2 = 1) range over {1, -1}.  A single
    defining equation is handled by solving for its highest-ordered variable
    where the coefficient is nonzero, letting that variable range freely
    where the equation already holds, and skipping infeasible combinations.
    Every emitted point passes validate_assignment.
    """
    variables = list(spec.variables())
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
        if v not in no_zero:
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


class PointRecord:
    """One classified point: sigma, the computed and expected verdicts, and
    whether they agree.

    ``classify_grid`` keeps only sigma, agree and one ``source`` shared by
    the whole classification (its compiled decision and claim): the
    verdicts are rebuilt from sigma on first read.
    """

    __slots__ = ("sigma", "agree", "_source", "_computed", "_expected")

    def __init__(self, sigma, computed, expected, agree, source=None):
        self.sigma, self._computed, self._expected, self.agree = sigma, computed, expected, agree
        self._source: tuple[CompiledDecision, TheoremClaim] | None = source

    @property
    def computed(self) -> SolitonVerdict:
        if self._computed is None:
            self._computed = self._source[0](self.sigma)
        return self._computed

    @property
    def expected(self) -> SolitonVerdict:
        if self._expected is None:
            self._expected = predicate_eval(self._source[1], self.sigma)
        return self._expected

    def _fields(self) -> tuple:
        return (self.sigma, self.computed, self.expected, self.agree)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointRecord) and self._fields() == other._fields()

    __hash__ = None  # sigma is a dict

    def __repr__(self) -> str:
        return "PointRecord(sigma={!r}, computed={!r}, expected={!r}, agree={!r})".format(*self._fields())

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
        return a.d_family == b.d_family
    return True


def classify_grid(
    entry: GroupEntry,
    kind: SolitonKind,
    points: Sequence[Mapping[str, Fraction]],
    claim: TheoremClaim,
) -> ClassificationReport:
    """Decide every grid point and compare with the theorem predicate: the
    decision is ``soliton_decide``'s, compiled once from the symbolic
    brackets and Wan operator and run in integers, and so is the comparison
    (``_agrees``).  The records build their verdicts when read."""
    spec = entry.spec
    decide = compile_decision(spec, kind)
    source = (decide, claim)
    records = []
    for sigma in points:
        sigma = dict(sigma)
        violations = spec.validate_assignment(sigma)
        if violations:
            raise InvalidAssignmentError(violations)
        records.append(PointRecord(sigma, None, None, _agrees(decide, claim, sigma), source))
    return ClassificationReport(entry.id, kind, tuple(records))


def _agrees(decide: CompiledDecision, claim: TheoremClaim, sigma: Assignment) -> bool:
    """``verdicts_equal(decide(sigma), predicate_eval(claim, sigma))``, with
    no Fraction made unless both sides are any_c.

    All Wan entries w are over den and the matched case's c and D entries
    over den2.  The pair (a, b) that fixed c gives c = -a/b, so c agrees
    when -a*den2 == c*b, an off-diagonal D entry w/den when w*den2 == d*den,
    and a diagonal one w/den + a/b when (w*b + a*den)*den2 == d*den*b.
    """
    pairs, wan, den = decide.integers(sigma)
    outcome, witness = affine_outcome(pairs)
    case = claim.match(sigma)
    if case is None or outcome == "none":
        return case is None and outcome == "none"
    if case.any_c or outcome == "any":
        return (
            case.any_c
            and outcome == "any"
            and verdicts_equal(family_verdict(wan, den), predicate_eval(claim, sigma))
        )
    a, b = pairs[witness[0]]
    (c, *d), den2 = case.solution_numerators(sigma)
    return -a * den2 == c * b and all(
        (w * b + a * den) * den2 == d[3 * i + j] * den * b
        if i == j
        else w * den2 == d[3 * i + j] * den
        for i, row in enumerate(wan)
        for j, w in enumerate(row)
    )


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

    for i, j, k in itertools.product(range(3), repeat=3):
        location = (f"e{i + 1}", f"e{j + 1}", f"e{k + 1}")
        emit("connection", location, bundle.connection[i][j][k], claimed.connection[i][j][k])
    for key, (i, j) in zip(PAIR_KEYS, PAIRS):
        for k in range(3):
            emit("torsion", (key, f"e{k + 1}"), bundle.torsion[i][j][k], claimed.torsion[i][j][k])
        for k, l in itertools.product(range(3), repeat=2):
            location = (key, f"e{k + 1}", f"e{l + 1}")
            emit("a_tensor", location, bundle.a_tensor[i][j][k][l], claimed.a_tensor[i][j][k][l])
    for name, computed_m, claimed_m in (
        ("abar", bundle.abar, claimed.abar),
        ("ric", bundle.ric, claimed.ric),
        ("wan", bundle.wan, claimed.wan),
        ("wan_tilde", bundle.wan_tilde, claimed.wan_tilde),
    ):
        for i, j in itertools.product(range(3), repeat=2):
            emit(name, (i + 1, j + 1), computed_m[i][j], claimed_m[i][j])
    return reports


def check_theorem_cases(entry: GroupEntry, kind: SolitonKind, claim: TheoremClaim) -> list[DiscrepancyReport]:
    """check_claimed_solution for every case, reported like table entries."""
    reports = []
    for case in claim.cases:
        subs = case.subs_map()
        # an any_c case claims Wan = c*Id + D(c) with D(c) a derivation for every c
        c_poly = Poly.var("c") if case.any_c else case.c.substitute(subs)
        failures = check_claimed_solution(
            entry.spec.substitute(subs),
            kind,
            c_poly,
            mat_substitute(case.d, subs),
            branches=case.branch_maps(),
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
    Each group's tensors are computed once, by ``reproduce_group``; the
    theorem cases and grid decisions evaluate ``wan_for_kind``.
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
