"""Reproduction harness: recompute every tensor from the brackets, compare
against the catalog's claimed tables, verify each theorem case symbolically,
and classify deterministic parameter grids against the theorem predicates.

Comparison verdicts distinguish "match" (equal as polynomials, with the
eta^2 = 1 reduction where eta occurs) from "match_on_variety" (equal only
modulo the group's defining equation, certified by a zero remainder under
``Poly.reduce``) — collapsing the two would hide information about how
literally a table reproduces.  A difference no reduction settles is a
"mismatch": agreement at sample points is never a certificate.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import PAIR_KEYS, PAIRS, Constraint, GridError, LieAlgebraSpec, json_text
from .catalog import (
    ALL_GROUPS,
    Catalog,
    GroupEntry,
    TheoremClaim,
    predicate_eval,
)
from .geometry import compute_tensors, mat_substitute
from .nest import grid_nest
from .poly import Poly, UnsupportedRelationError, format_rational
from .soliton import (
    SolitonKind,
    SolitonVerdict,
    check_claimed_solution,
    normalize_eta,
    residual_constants,
    soliton_decide,
    wan_for_kind,
)

MATCH = "match"
MATCH_ON_VARIETY = "match_on_variety"
MISMATCH = "mismatch"

BASE_LADDER: tuple[Fraction, ...] = tuple(map(Fraction, ("-2", "-1", "-1/2", "1/2", "1", "2", "3")))


def _ladder_extension() -> Iterator[Fraction]:
    """-3, 4, -4, 5, ...: the values past the base ladder, in the order grids take them."""
    return (Fraction(x) for k in itertools.count(3) for x in (-k, k + 1))


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


def compare_polys(computed: Poly, claimed: Poly, entry: GroupEntry) -> tuple[str, str | None]:
    """(verdict, certificate) for one table entry.

    A zero remainder modulo one ``eq`` constraint f is membership in (f),
    since one polynomial is a Groebner basis of the ideal it generates.  A
    difference in a variable the algebra does not have is a mismatch.
    """
    if computed == claimed:
        return (MATCH, None)
    diff = normalize_eta(computed - claimed)
    if diff.is_zero():
        return (MATCH, None)
    if not set(diff.variables()) <= set(entry.spec.variables()):
        return (MISMATCH, None)
    for con in entry.spec.constraints:
        if con.kind != "eq":
            continue
        # by the first leading variable that Poly.reduce accepts for the relation
        for leading in con.poly.variables():
            try:
                reduced = diff.reduce(con.poly, leading)
            except UnsupportedRelationError:
                continue
            if reduced.is_zero():
                return (MATCH_ON_VARIETY, f"reduces to 0 modulo {con.poly} = 0")
            break
    return (MISMATCH, None)


# -- grids -------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Deterministic rational grid over a group's admissible parameters."""

    group: str
    ladder: tuple[Fraction, ...] = BASE_LADDER
    max_points: int = 5000


def _is_sign_constraint(con: Constraint) -> str | None:
    """The variable v when the constraint is k*(v^2 - 1) = 0, k != 0 rational (domain {1, -1})."""
    v, *others = con.poly.variables() or ("",)
    if con.kind == "eq" and v and not others and con.poly == (1 - Poly.var(v) ** 2) * con.poly.substitute({v: 0}):
        return v
    return None


class _GridKernel:
    """The admissible points of one algebra's grids, in sorted order, with
    the values of rows led by the constraints (by default, only those), or
    with the decisions of ``systems`` on those rows (see ``grid_nest``).

    Variables run in canonical order, each over its sorted domain.  The
    solved variable is the highest-ordered variable of the defining
    equation, so the equation's (constant, slope) pair is fixed by the
    variables before it: "one" gives x = -a/b, "any" the solved variable's
    domain, "none" nothing.  ``nest`` is the one generator (``grid_nest``)
    of loops, pair and rows: each quantity is formed in the outermost loop
    that binds its variables (a row no test reads, only at a point in some
    case), and a candidate is yielded if admitted.
    """

    def __init__(self, spec: LieAlgebraSpec, rows: Sequence[Poly] | None = None, systems: Sequence = ()):
        self.variables = spec.variables()
        # v != 0 excludes 0 from v's domain; v^2 = 1 makes it {-1, 1}
        self.no_zero = {
            con.poly.variables()[0]
            for con in spec.constraints
            if con.kind == "neq" and con.poly.degree() == 1 and len(con.poly._terms) == 1
        }
        self.sign_vars = {v for con in spec.constraints if (v := _is_sign_constraint(con))}
        eqs = [con.poly for con in spec.constraints if con.kind == "eq" and not _is_sign_constraint(con)]
        if len(eqs) > 1:
            raise GridError(f"grids support at most one defining equation, not {len(eqs)}: {', '.join(map(str, eqs))}")
        # the solved variable's index, past the end when none is
        self.solved, solved = len(self.variables), None
        if eqs:
            (solve_eq,) = eqs
            solved_var = solve_eq.variables()[-1]
            if solve_eq.degree_in(solved_var) != 1:
                raise GridError(f"grids cannot solve {solve_eq} = 0 for {solved_var}")
            self.solved = self.variables.index(solved_var)
            # the equation as constant + slope*solved_var, both free of solved_var
            constant = solve_eq.substitute({solved_var: 0})
            solved = (self.solved, constant, solve_eq.substitute({solved_var: 1}) - constant)
        rows = [con.poly for con in spec.constraints] if rows is None else rows
        self.nest = grid_nest(rows, self.variables, spec._vanishing_rows, solved, systems)

    def domains(self, ladder: Iterable[Fraction]) -> list[list[Fraction]]:
        return [
            [Fraction(-1), Fraction(1)] if v in self.sign_vars
            else sorted({*ladder} if v in self.no_zero else {*ladder, Fraction(0)})
            for v in self.variables
        ]

    def default(self, min_points: int, max_points: int) -> list[Fraction]:
        """The default grid's ladder: the base ladder, extended by
        ``_ladder_extension`` while the grid has fewer than ``min_points``
        points (counted in ``nest``, up to ``max_points``) and gains points.
        A value only adds points, so each step counts the new ones: a new
        point has a free coordinate equal to the value, or the solved one on
        an "any" branch (where its root is not new), and split by the first
        such coordinate i, those before i range over the old lists and those
        after over the new."""
        ladder, domains, extension = list(BASE_LADDER), self.domains(BASE_LADDER), _ladder_extension()
        total = sum(1 for _ in itertools.islice(self.nest(*domains, True), max_points))
        while total < min_points:
            value = next(extension)
            new = self.domains([*ladder, value])
            splits = [i for i, (before, after) in enumerate(zip(domains, new)) if before != after]
            found = (self.nest(*domains[:i], [value], *new[i + 1 :], i != self.solved) for i in splits)
            gained = sum(1 for _ in itertools.islice(itertools.chain.from_iterable(found), max_points - total))
            if not gained:
                break
            ladder.append(value)
            domains, total = new, total + gained
        return ladder

    def points(self, grid: GridSpec) -> list[dict[str, Fraction]]:
        return [sigma for sigma, _ in itertools.islice(self.nest(*self.domains(grid.ladder), True), grid.max_points)]


def generate_grid(spec: LieAlgebraSpec, grid: GridSpec) -> list[dict[str, Fraction]]:
    """The first ``grid.max_points`` admissible points of the grid, sorted by
    parameter tuple, generated in that order (see ``_GridKernel``).

    Variables range over the ladder (plus 0 unless a constraint v != 0
    excludes it); sign variables (v^2 = 1) range over {1, -1}.  A single
    defining equation is handled by solving for its highest-ordered variable
    where the coefficient is nonzero, letting that variable range freely
    where the equation already holds, and skipping infeasible combinations.
    Every emitted point passes validate_assignment.
    """
    return _GridKernel(spec).points(grid)


def default_grid(entry: GroupEntry, min_points: int = 200, max_points: int = 5000) -> tuple[GridSpec, list[dict[str, Fraction]]]:
    """Base-ladder grid, deterministically extended until >= min_points.

    Extension stops early when it stops gaining points (an algebra with few
    or no free parameters can exhaust its admissible set); the counts are
    capped at ``max_points`` (see ``_GridKernel.default``).
    """
    kernel = _GridKernel(entry.spec)  # one constraints-only nest for the ladder and the points
    grid = GridSpec(entry.id, tuple(kernel.default(min_points, max_points)), max_points=max_points)
    return grid, kernel.points(grid)


# -- classification -----------------------------------------------------------


class PointRecord:
    """One classified point: sigma, the computed and expected verdicts, and
    whether they agree.

    ``classify_group`` keeps only sigma, agree and one ``source`` shared by
    the kind's whole classification (the group's spec and the kind's claim):
    the verdicts are built on first read, by ``soliton_decide`` on the
    numeric algebra as ``wanas check`` does and by ``predicate_eval``.
    Records of one source (the same spec and claim objects) compare by
    sigma and agree, with no verdict built.
    """

    __slots__ = ("sigma", "agree", "_source", "_computed", "_expected")

    def __init__(self, sigma, computed, expected, agree, source=None):
        self.sigma, self._computed, self._expected, self.agree = sigma, computed, expected, agree
        self._source: tuple[LieAlgebraSpec, TheoremClaim] | None = source

    @property
    def computed(self) -> SolitonVerdict:
        if self._computed is None:
            numeric, kind = self._source[0].evaluate(self.sigma), self._source[1].kind
            self._computed = soliton_decide(numeric, kind, wan_for_kind(numeric, kind))
        return self._computed

    @property
    def expected(self) -> SolitonVerdict:
        if self._expected is None:
            self._expected = predicate_eval(self._source[1], self.sigma)
        return self._expected

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointRecord) or (self.sigma, self.agree) != (other.sigma, other.agree):
            return False
        if self._source and other._source and all(map(operator.is_, self._source, other._source)):
            return True
        return (self.computed, self.expected) == (other.computed, other.expected)

    __hash__ = None  # sigma is a dict

    def __repr__(self) -> str:
        return f"PointRecord(sigma={self.sigma!r}, computed={self.computed!r}, expected={self.expected!r}, agree={self.agree!r})"

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

    @functools.cached_property
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
    """Exact agreement of outcome, c and D; the witness is not compared."""
    return (a.outcome, a.c, a.d) == (b.outcome, b.c, b.d)


def classify_grid(
    entry: GroupEntry,
    kind: SolitonKind,
    points: Sequence[Mapping[str, Fraction]],
    claim: TheoremClaim,
) -> ClassificationReport:
    """``classify_group`` for one kind."""
    return classify_group(entry, points, {kind: claim})[0]


def classify_group(
    entry: GroupEntry,
    points: Sequence[Mapping[str, Fraction]],
    claims: Mapping[SolitonKind, TheoremClaim],
) -> tuple[ClassificationReport, ...]:
    """Decide every point for each kind and compare with its theorem
    predicate, one report per kind in ``claims`` order (see
    ``_GroupKernel.reports``).  Each point, once ``spec.admitted`` admits
    it, is a one-point grid of the group's nest, no variable solved."""
    spec, kernel = entry.spec, _GroupKernel(entry.spec, list(claims.values()))
    nest = grid_nest(kernel.rows, spec.variables(), spec._vanishing_rows, None, kernel.systems)

    def decided(sigma: dict) -> tuple:
        spec.admitted(spec._admission, sigma)  # raises for an inadmissible point or a missing value
        return sigma, *next(nest(*([sigma[v]] for v in spec.variables()), True))[1:]

    return kernel.reports(entry, claims, map(decided, map(dict, points)))


def classify_ladder(
    entry: GroupEntry, claims: Mapping[SolitonKind, TheoremClaim], ladder: Sequence[Fraction] | None = None,
    min_points: int = 200, max_points: int = 5000,
) -> tuple[ClassificationReport, ...]:
    """``classify_group`` on ``generate_grid``'s grid of ``ladder``, else of
    the base ladder, else (below ``min_points`` and ``max_points`` points) of
    ``_GridKernel.default``'s: the group's nest admits, evaluates and decides
    each candidate of a grid once."""
    kernel = _GroupKernel(entry.spec, list(claims.values()))
    grid = _GridKernel(entry.spec, kernel.rows, kernel.systems)

    def classify(ladder: Sequence[Fraction]) -> tuple[ClassificationReport, ...]:
        return kernel.reports(entry, claims, itertools.islice(grid.nest(*grid.domains(ladder), True), max_points))

    reports = classify(BASE_LADDER if ladder is None else ladder)
    if ladder is None and reports[0].total < min(min_points, max_points):
        return classify(_GridKernel(entry.spec).default(min_points, max_points))
    return reports


class _GroupKernel:
    """The rows that classify a group's points, in one grid nest.

    ``rows``: those the decisions read, the constraints, the nine bracket
    components (every kind's slopes), each deciding claim's kind's
    ``residual_constants`` and each distinct claim's condition rows (by the
    identity of its cases), with one of ``systems`` per deciding claim
    (see ``grid_nest``); then each deciding claim's kind's Wan entries
    (row-major) and each distinct claim's solution rows, which only the
    agreement reads; last the constant 1, whose value is the denominator
    every value shares.  A claim with the same cases object, claim type and
    rows as an earlier one decides alike; ``shares`` holds that one's
    position, else the claim's own.  ``claims`` holds each claim with the
    starts of its constants, Wan entries, condition rows and solution rows."""

    def __init__(self, spec: LieAlgebraSpec, claims: Sequence[TheoremClaim]):
        self.slopes = len(spec.constraints)
        self.rows = [con.poly for con in spec.constraints] + list(spec.components)
        decided = []  # each claim's (constants, Wan entries)
        self.shares: list[int] = []
        for index, claim in enumerate(claims):
            wan = wan_for_kind(spec, claim.kind)
            decided.append((list(residual_constants(spec, wan)), [p for row in wan for p in row]))
            alike = (other.cases is claim.cases and other.claim_type == claim.claim_type for other in claims)
            self.shares.append(next(j for j, same in enumerate(alike) if same and decided[j] == decided[index]))
        # the blocks in row order, constants, conditions, Wan entries, solutions: even ones per share, odd per cases
        keys = [(share, id(claim.cases)) for share, claim in zip(self.shares, claims)]
        starts: dict[tuple[int, int], int] = {}
        for block in range(4):
            for claim, key, (constants, wan) in zip(claims, keys, decided):
                if (block, key[block % 2]) not in starts:
                    starts[block, key[block % 2]] = len(self.rows)
                    self.rows += (constants, claim.layout[0], wan, claim.layout[1])[block]
        self.rows.append(Poly.const(1))  # its value is the denominator that every value shares
        self.claims = [(claim, *(starts[block, key[block % 2]] for block in (0, 2, 1, 3))) for claim, key in zip(claims, keys)]
        self.systems = []  # per deciding claim: its nine (constant, slope) rows, its cases' (vanishing, nonzero) rows
        for index, (claim, constants, _, at, _) in enumerate(self.claims):
            entries = () if claim.claim_type == "no_soliton" else claim.layout[2]  # as case_at reads them
            cases = [(range(at + start, at + nonzero), range(at + nonzero, at + end)) for _, start, nonzero, end, _ in entries]
            self.systems += [([(constants + k, self.slopes + k) for k in range(9)], cases)] if self.shares[index] == index else []

    def reports(
        self, entry: GroupEntry, claims: Mapping[SolitonKind, TheoremClaim], admitted: Iterable[tuple[dict, tuple, list | None]]
    ) -> tuple[ClassificationReport, ...]:
        """One report per kind of ``claims`` (the kernel's) from the (point,
        decisions, values of ``rows`` or None) a nest of ``systems`` yields.
        A point in no case agrees when its system has no solution; in a case,
        ``case_at`` reads it again (so overlapping cases raise) and ``agrees``
        reads it where the system is feasible.  A kind that decides alike
        with an earlier one takes its agreements; each record keeps sigma and
        agree, and builds its verdicts when read."""
        sigmas: list[dict[str, Fraction]] = []
        agreements: list[list[bool]] = [[] for _ in claims]
        deciding = [(agreements[index], *self.claims[index]) for index, share in enumerate(self.shares) if share == index]
        for sigma, decisions, values in admitted:
            sigmas.append(sigma)
            for (agree, claim, _, wan, conditions, solutions), (outcome, a, b, case) in zip(deciding, decisions):
                hit = None if case is None else claim.case_at(values, conditions)
                if hit is None or outcome == "none" or hit[0].any_c != (outcome == "any") or hit[1] is None:
                    agree.append(hit is None and outcome == "none")
                else:
                    agree.append(self.agrees(values, wan, solutions + hit[1], None if outcome == "any" else (a, b)))
        sources = [(entry.spec, claim) for claim in claims.values()]  # one per kind, shared by its records
        return tuple(
            ClassificationReport(
                entry.id, kind, tuple(PointRecord(sigma, None, None, agree, source) for sigma, agree in zip(sigmas, agreements[share]))
            )
            for kind, source, share in zip(claims, sources, self.shares)
        )

    @staticmethod
    def agrees(values: Sequence[int], w: int, s: int, pair: tuple[int, int] | None) -> bool:
        """``verdicts_equal`` of the decision and ``predicate_eval`` in
        integers, with the Wan entries at ``w`` and the case's solution at
        ``s`` of ``values``, all over den, the last value.  The (a, b) that
        fixed c gives c = -a/b: c agrees when -a*den == c*b, a D entry off the
        diagonal when w == d, on it (k = 0, 4, 8) when w*b + a*den == d*b.
        With no pair (every c), D(c) = Wan - c*Id agrees when D(0) == w and
        D(1) - D(0) is -den on the diagonal, 0 off it."""
        den = values[-1]
        if pair is None:
            return all(values[s + k] == values[w + k] and values[s + 9 + k] == (0 if k % 4 else -den) for k in range(9))
        a, b = pair
        return -a * den == values[s] * b and all(
            values[w + k] == values[s + 1 + k] if k % 4 else values[w + k] * b + a * den == values[s + 1 + k] * b
            for k in range(9)
        )


# -- reproduction -------------------------------------------------------------


def reproduce_group(entry: GroupEntry) -> list[DiscrepancyReport]:
    """Recompute the full pipeline and compare entrywise against the claims."""
    bundle = compute_tensors(entry.spec)
    claimed = entry.claimed
    reports: list[DiscrepancyReport] = []

    def emit(item: str, location: tuple, computed: Poly, claimed_p: Poly):
        equal = computed == claimed_p
        verdict, certificate = (MATCH, None) if equal else compare_polys(computed, claimed_p, entry)
        text = str(computed)
        reports.append(
            DiscrepancyReport(
                group=entry.id,
                item=item,
                location=location,
                computed=text,
                claimed=text if equal else str(claimed_p),
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
        return json_text(self.to_json_dict()) + "\n"

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

    Group ids are read as ``Catalog.get_group`` reads them, and all of them
    are looked up before any group is verified; a group listed more than
    once is verified once, at its first position.  Each group's tensors are
    computed once, by ``reproduce_group``; the theorem cases and grid
    decisions evaluate ``wan_for_kind``.
    """
    group_ids = tuple(dict.fromkeys(catalog.get_group(g).id for g in groups)) if groups else ALL_GROUPS
    items: list[DiscrepancyReport] = []
    classifications: list[ClassificationReport] = []
    for gid in group_ids:
        entry = catalog.get_group(gid)
        items.extend(reproduce_group(entry))
        claims = {kind: catalog.theorem_claim(gid, kind) for kind in (SolitonKind.FIRST, SolitonKind.SECOND)}
        # classified first, so a spec that no grid serves raises GridError before any theorem case runs
        classifications.extend(classify_ladder(entry, claims, ladder, min_points, max_points))
        for kind, claim in claims.items():
            items.extend(check_theorem_cases(entry, kind, claim))
    return PaperReport(
        groups=group_ids,
        items=tuple(items),
        classifications=tuple(classifications),
        catalog_checksum=catalog.checksum,
    )
