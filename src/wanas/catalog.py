"""The group catalog: brackets, constraints, claimed tensor tables, printed
soliton systems, and theorem classifications for the seven groups g1-g7.

The data lives in a single versioned JSON file (``data/catalog.json``; the
``WANAS_CATALOG`` environment variable overrides the path) whose integrity
checksum is validated on load.  Claimed tables are stored verbatim as
polynomial strings, with the g3/g4 shorthands expanded at load time; they are
never derived here — the verification harness recomputes everything from the
brackets and compares.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from typing import Mapping, Sequence

from .algebra import (
    PAIR_KEYS,
    Assignment,
    Constraint,
    LieAlgebraSpec,
    LORENTZ,
    Vec3,
    ZERO_VEC,
    antisymmetric,
    check_keys,
    vec_neg,
    vec3,
)
from .geometry import Conn, Mat3, Tor, Tri, tri_table
from .poly import IntegerEvaluator, Poly, PolyParseError, parse_poly
from .soliton import SolitonKind, SolitonVerdict

ALL_GROUPS = ("g1", "g2", "g3", "g4", "g5", "g6", "g7")
_GROUP_KEYS = ("brackets", "claimed", "constraints", "notes", "shorthands", "soliton_systems", "theorems", "unimodular")


class CatalogError(ValueError):
    """The catalog file is missing, corrupt, or internally inconsistent."""


class AmbiguousCaseError(CatalogError):
    """A parameter point matches more than one theorem case."""

    def __init__(self, group: str, kind: SolitonKind, names: Sequence[str]):
        self.matched = tuple(names)
        super().__init__(
            f"{group} {kind.value}: point matches cases {', '.join(names)}"
        )


@dataclass(frozen=True)
class ClaimedTensors:
    """The published tables stored verbatim (shorthands expanded), never derived."""

    connection: Conn
    torsion: Tor
    a_tensor: Tri
    abar: Mat3
    ric: Mat3
    wan: Mat3
    wan_tilde: Mat3


@dataclass(frozen=True)
class TheoremCase:
    name: str
    subs: tuple[tuple[str, Poly], ...]
    extra_eq: tuple[Poly, ...]
    neq: tuple[Poly, ...]
    any_c: bool
    c: Poly | None
    d: Mat3
    branches: tuple[tuple[tuple[str, Poly], ...], ...]
    constraint_conflict: bool

    def subs_map(self) -> dict[str, Poly]:
        return dict(self.subs)

    def branch_maps(self) -> tuple[dict[str, Poly], ...]:
        if not self.branches:
            return ({},)
        return tuple(dict(b) for b in self.branches)


@dataclass(frozen=True)
class TheoremClaim:
    group: str
    kind: SolitonKind
    claim_type: str  # "cases" | "no_soliton" | "same_as_first"
    cases: tuple[TheoremCase, ...] = ()

    @cached_property
    def layout(self) -> tuple[list[Poly], tuple[tuple, ...]]:
        """The rows of the claim's cases and one ``_case_rows`` entry per
        case: a function of ``cases`` alone."""
        rows: list[Poly] = []
        return rows, tuple(_case_rows(case, rows) for case in self.cases)

    @cached_property
    def evaluate(self) -> IntegerEvaluator:
        """The layout's rows compiled once, on first use."""
        return IntegerEvaluator(self.layout[0])

    def case_at(self, values: Sequence[int], offset: int = 0) -> tuple[TheoremCase, int | None] | None:
        """(case, start of its solution) for the one case whose conditions
        hold, its eq rows vanishing and its neq rows not, where the layout's
        rows start at ``offset`` of ``values``; None when no case holds or
        the claim is no_soliton.  Several raise AmbiguousCaseError."""
        entries = () if self.claim_type == "no_soliton" else self.layout[1]
        matched = [
            (case, s if s is None else offset + s)
            for case, start, nonzero, end, s in entries
            if not any(values[offset + start : offset + nonzero]) and all(values[offset + nonzero : offset + end])
        ]
        if len(matched) > 1:
            raise AmbiguousCaseError(self.group, self.kind, [case.name for case, _ in matched])
        return matched[0] if matched else None


def _case_rows(case: TheoremCase, rows: list[Poly]) -> tuple:
    """Append a case's rows and return (case, start, start of the neq rows,
    their end, start of the solution or None).

    The rows: each subs as var - expr and each extra_eq, which must vanish;
    each neq, which must not; then the solution: c and D row-major, or for
    an any_c case D(0) and D(1) - D(0), the two coefficients of D(c) when D
    is affine in c.
    """
    start = len(rows)
    rows += [Poly.var(var) - expr for var, expr in case.subs] + list(case.extra_eq)
    nonzero = len(rows)
    rows += case.neq
    solution: int | None = len(rows)
    entries = [p for row in case.d for p in row]
    if not case.any_c:
        rows += [case.c, *entries]
    elif all(p.degree_in("c") <= 1 for p in entries):
        at0 = [p.substitute({"c": 0}) for p in entries]
        rows += at0 + [p.substitute({"c": 1}) - q for p, q in zip(entries, at0)]
    else:
        solution = None  # no D(c) of higher degree in c is Wan - c*Id
    return (case, start, nonzero, nonzero + len(case.neq), solution)


@dataclass(frozen=True)
class GroupEntry:
    id: str
    unimodular: bool
    spec: LieAlgebraSpec
    shorthands: dict[str, Poly]
    claimed: ClaimedTensors
    systems: dict[SolitonKind, tuple[Poly, ...]]
    theorems: dict[SolitonKind, TheoremClaim]
    notes: tuple[str, ...]

    @cached_property
    def claims(self) -> dict[SolitonKind, TheoremClaim]:
        """``theorems`` with same_as_first resolved to the first kind's cases, built once."""
        first = self.theorems[SolitonKind.FIRST]
        return {
            kind: TheoremClaim(self.id, kind, first.claim_type, first.cases)
            if claim.claim_type == "same_as_first" else claim
            for kind, claim in self.theorems.items()
        }


@dataclass(frozen=True)
class Catalog:
    path: str
    checksum: str
    schema_version: int
    groups: dict[str, GroupEntry]

    def get_group(self, group_id: str) -> GroupEntry:
        gid = group_id.lower()
        if gid not in self.groups:
            raise CatalogError(
                f"unknown group {group_id!r}; expected one of {', '.join(ALL_GROUPS)}"
            )
        return self.groups[gid]

    def theorem_claim(self, group_id: str, kind: SolitonKind) -> TheoremClaim:
        """The claim for (group, kind), with same-as-first resolved to cases;
        the same object on every call."""
        return self.get_group(group_id).claims[kind]


def compute_checksum(groups_data: Mapping) -> str:
    payload = json.dumps(groups_data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def default_catalog_path() -> str:
    override = os.environ.get("WANAS_CATALOG")
    if override:
        return override
    return str(resources.files("wanas").joinpath("data/catalog.json"))


def _mat3(rows: Sequence[Sequence[str]], parse) -> Mat3:
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise CatalogError("matrix data must be 3x3")
    return tuple(tuple(parse(s) for s in row) for row in rows)


def _load_group(gid: str, data: Mapping) -> GroupEntry:
    check_keys(f"{gid} group", data, _GROUP_KEYS, _GROUP_KEYS, CatalogError)
    shorthands = {k: parse_poly(v) for k, v in data["shorthands"].items()}

    @functools.cache
    def p(text: str) -> Poly:
        # Poly is immutable, so the many repeated strings ("0" above all) share one parse
        return parse_poly(text, shorthands)

    def vec(strings: Sequence[str]) -> Vec3:
        return vec3(*map(p, strings))

    spec = LieAlgebraSpec(
        tuple(vec(data["brackets"][key]) for key in PAIR_KEYS),
        LORENTZ,
        tuple(
            [Constraint("eq", p(s)) for s in data["constraints"]["eq"]]
            + [Constraint("neq", p(s)) for s in data["constraints"]["neq"]]
        ),
    )

    cl = data["claimed"]
    connection = tuple(tuple(vec(cl["connection"][i][j]) for j in range(3)) for i in range(3))
    torsion = antisymmetric([vec(cl["torsion"][key]) for key in PAIR_KEYS], ZERO_VEC, vec_neg)
    a_tensor = tri_table(
        [tuple(vec(cl["a_tensor"][key][k]) for k in range(3)) for key in PAIR_KEYS]
    )
    claimed = ClaimedTensors(
        connection=connection,
        torsion=torsion,
        a_tensor=a_tensor,
        abar=_mat3(cl["abar"], p),
        ric=_mat3(cl["ric"], p),
        wan=_mat3(cl["wan"], p),
        wan_tilde=_mat3(cl["wan_tilde"], p),
    )

    systems: dict[SolitonKind, tuple[Poly, ...]] = {}
    for kind_name, eqs in data["soliton_systems"].items():
        kind = SolitonKind(kind_name)
        parsed = tuple(p(s) for s in eqs)
        for eq in parsed:
            if eq.degree_in("c") > 1:
                raise CatalogError(f"{gid} {kind_name}: system equation not affine in c: {eq}")
        systems[kind] = parsed

    theorems: dict[SolitonKind, TheoremClaim] = {}
    for kind_name, th in data["theorems"].items():
        kind = SolitonKind(kind_name)
        claim_type = th["type"]
        cases = []
        for case in th.get("cases", ()):
            if ("c" in case) == bool(case.get("any_c", False)):
                raise CatalogError(
                    f"{gid} {kind_name} case {case['name']}: give exactly one of c and any_c: true"
                )
            subs = tuple(sorted((k, p(v)) for k, v in case.get("subs", {}).items()))
            branches = tuple(
                tuple(sorted((k, p(v)) for k, v in b.items()))
                for b in case.get("branches", ())
            )
            cases.append(
                TheoremCase(
                    name=case["name"],
                    subs=subs,
                    extra_eq=tuple(p(s) for s in case.get("extra_eq", ())),
                    neq=tuple(p(s) for s in case.get("neq", ())),
                    any_c=bool(case.get("any_c", False)),
                    c=p(case["c"]) if "c" in case else None,
                    d=_mat3(case["d"], p),
                    branches=branches,
                    constraint_conflict=bool(case.get("constraint_conflict", False)),
                )
            )
        theorems[kind] = TheoremClaim(gid, kind, claim_type, tuple(cases))

    entry = GroupEntry(
        id=gid,
        unimodular=bool(data["unimodular"]),
        spec=spec,
        shorthands=shorthands,
        claimed=claimed,
        systems=systems,
        theorems=theorems,
        notes=tuple(data["notes"]),
    )
    _check_case_constraints(entry)
    return entry


def _check_case_constraints(entry: GroupEntry) -> None:
    """Theorem case conditions must not contradict the standing constraints.

    Applying a case's defining substitutions to each group constraint must
    not turn an Equation into a nonzero constant or a NonVanishing into the
    zero polynomial.  Cases annotated ``constraint_conflict`` are exempt but
    must genuinely conflict (the annotation is load-checked too).
    """
    for claim in entry.theorems.values():
        for case in claim.cases:
            subs = case.subs_map()
            conflicts = []
            for con in entry.spec.constraints:
                image = con.poly.substitute(subs)
                if con.kind == "eq" and image.is_constant() and not image.is_zero():
                    conflicts.append(f"{con.describe()} becomes {image} = 0")
                if con.kind == "neq" and image.is_zero():
                    conflicts.append(f"{con.describe()} becomes 0 != 0")
            if conflicts and not case.constraint_conflict:
                raise CatalogError(
                    f"{entry.id} {claim.kind.value} case {case.name} contradicts "
                    f"standing constraints: {'; '.join(conflicts)}"
                )
            if case.constraint_conflict and not conflicts:
                raise CatalogError(
                    f"{entry.id} {claim.kind.value} case {case.name} is annotated as "
                    "conflicting but no contradiction was found"
                )


def load_catalog(path: str | None = None) -> Catalog:
    """Load and integrity-check the catalog (checksum over the groups payload)."""
    path = path or default_catalog_path()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise CatalogError(f"catalog file not found: {path}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply to decode
        raise CatalogError(f"catalog file {path} is not valid JSON: {exc}") from None

    expected = raw.get("checksum")
    actual = compute_checksum(raw.get("groups", {}))
    if expected != actual:
        raise CatalogError(
            f"catalog checksum mismatch in {path}: stored {expected}, computed {actual}"
        )

    groups = {}
    for gid in ALL_GROUPS:
        if gid not in raw["groups"]:
            raise CatalogError(f"catalog is missing group {gid}")
        try:
            groups[gid] = _load_group(gid, raw["groups"][gid])
        except PolyParseError as exc:  # a bad polynomial string, e.g. a non-ASCII digit or deep nesting
            raise CatalogError(f"catalog group {gid}: {exc}") from None
    return Catalog(
        path=path,
        checksum=actual,
        schema_version=int(raw.get("schema_version", 0)),
        groups=groups,
    )


def predicate_eval(claim: TheoremClaim, sigma: Assignment) -> SolitonVerdict:
    """Expected verdict at sigma according to the theorem statement."""
    values, den = claim.evaluate(sigma)
    hit = claim.case_at(values)
    if hit is None:
        return SolitonVerdict("no_soliton")
    case, s = hit
    if case.any_c:
        point = {v: Poly.const(x) for v, x in sigma.items()}
        family = tuple(tuple(p.substitute(point) for p in row) for row in case.d)
        return SolitonVerdict("any_c", d_family=family)
    c_val, *d_vals = (Fraction(x, den) for x in values[s : s + 10])
    return SolitonVerdict("soliton", c=c_val, d=tuple(tuple(d_vals[3 * i : 3 * i + 3]) for i in range(3)))


def _main(argv: Sequence[str]) -> int:
    """Tiny maintenance entry point: print or refresh a catalog checksum."""
    if len(argv) >= 1 and argv[0] == "rehash":
        path = argv[1] if len(argv) > 1 else default_catalog_path()
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["checksum"] = compute_checksum(raw.get("groups", {}))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"updated checksum in {path}: {raw['checksum']}")
        return 0
    cat = load_catalog(argv[0] if argv else None)
    print(f"{cat.path}: schema {cat.schema_version}, checksum {cat.checksum}, "
          f"{len(cat.groups)} groups OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_main(sys.argv[1:]))
