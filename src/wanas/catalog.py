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
from typing import Mapping, Sequence

from .algebra import (
    PAIR_KEYS,
    Assignment,
    LieAlgebraSpec,
    Vec3,
    ZERO_VEC,
    antisymmetric,
    check_shape,
    vec_neg,
)
from .geometry import Conn, Mat3, Tor, Tri, mat_substitute, tri_table
from .poly import IntegerEvaluator, Poly, _int, _int_str, parse_poly
from .soliton import SolitonKind, SolitonVerdict

ALL_GROUPS = ("g1", "g2", "g3", "g4", "g5", "g6", "g7")

# the catalog file format (check_shape); every polynomial is a string
_VEC = [str] * 3
_MAT = [_VEC] * 3
_CASE_SHAPE = {
    "name": str, "d": _MAT, "subs?": {str: str}, "extra_eq?": [str], "neq?": [str],
    "any_c?": bool, "c?": str, "branches?": [{str: str}], "constraint_conflict?": bool,
}
GROUP_SHAPE = {
    "brackets": dict.fromkeys(PAIR_KEYS, _VEC),
    "constraints": {"eq": [str], "neq": [str]},
    "shorthands": {str: str},
    "claimed": {
        "connection": [[_VEC] * 3] * 3, "torsion": dict.fromkeys(PAIR_KEYS, _VEC),
        "a_tensor": dict.fromkeys(PAIR_KEYS, [_VEC] * 3), "abar": _MAT, "ric": _MAT, "wan": _MAT, "wan_tilde": _MAT,
    },
    "soliton_systems": {"first?": [str], "second?": [str]},
    "theorems": dict.fromkeys(("first", "second"), {"type": ("cases", "no_soliton", "same_as_first"), "cases?": [_CASE_SHAPE]}),
    "unimodular": bool,
    "notes": [str],
}
CATALOG_SHAPE = {"checksum?": str, "groups": dict.fromkeys(ALL_GROUPS, GROUP_SHAPE), "schema_version?": int}


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
    def layout(self) -> tuple[list[Poly], list[Poly], tuple[tuple, ...]]:
        """The condition rows of the claim's cases, their solution rows and
        one ``_case_rows`` entry per case: a function of ``cases`` alone."""
        conditions, solutions = [], []
        return conditions, solutions, tuple(_case_rows(case, conditions, solutions) for case in self.cases)

    @cached_property
    def evaluate(self) -> IntegerEvaluator:
        """The layout's condition and then solution rows compiled once, on first use."""
        return IntegerEvaluator(self.layout[0] + self.layout[1])

    def case_at(self, values: Sequence[int], offset: int = 0) -> tuple[TheoremCase, int | None] | None:
        """(case, start of its solution rows) for the one case whose
        conditions hold, its eq rows vanishing and its neq rows not, where the
        condition rows start at ``offset`` of ``values``; None when no case
        holds or the claim is no_soliton.  Several raise AmbiguousCaseError."""
        entries = () if self.claim_type == "no_soliton" else self.layout[2]
        matched = [
            (case, s)
            for case, start, nonzero, end, s in entries
            if not any(values[offset + start : offset + nonzero]) and all(values[offset + nonzero : offset + end])
        ]
        if len(matched) > 1:
            raise AmbiguousCaseError(self.group, self.kind, [case.name for case, _ in matched])
        return matched[0] if matched else None


def _case_rows(case: TheoremCase, conditions: list[Poly], solutions: list[Poly]) -> tuple:
    """Append a case's rows and return (case, start of its condition rows,
    start of the neq ones, their end, start of its solution rows or None).

    The conditions: each subs as var - expr and each extra_eq, which must
    vanish; each neq, which must not.  The solution: c and D row-major, or
    for an any_c case D(0) and D(1) - D(0), the two coefficients of D(c)
    when D is affine in c.
    """
    start = len(conditions)
    conditions += [Poly.var(var) - expr for var, expr in case.subs] + list(case.extra_eq)
    nonzero = len(conditions)
    conditions += case.neq
    solution: int | None = len(solutions)
    entries = [p for row in case.d for p in row]
    if not case.any_c:
        solutions += [case.c, *entries]
    elif all(p.degree_in("c") <= 1 for p in entries):
        at0 = [p.substitute({"c": 0}) for p in entries]
        solutions += at0 + [p.substitute({"c": 1}) - q for p, q in zip(entries, at0)]
    else:
        solution = None  # no D(c) of higher degree in c is Wan - c*Id
    return (case, start, nonzero, len(conditions), solution)


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
    """$WANAS_CATALOG if set, else the catalog shipped beside this module."""
    return os.environ.get("WANAS_CATALOG") or os.path.join(os.path.dirname(__file__), "data", "catalog.json")


def _load_group(gid: str, data: Mapping) -> GroupEntry:
    """A group's entry from data of GROUP_SHAPE; an inconsistency raises ValueError."""
    shorthands = {k: parse_poly(v) for k, v in data["shorthands"].items()}

    @functools.cache
    def p(text: str) -> Poly:
        # Poly is immutable, so the many repeated strings ("0" above all) share one parse
        return parse_poly(text, shorthands)

    def vec(strings: Sequence[str]) -> Vec3:
        return tuple(map(p, strings))

    def mat(rows: Sequence[Sequence[str]]) -> Mat3:
        return tuple(map(vec, rows))

    def pairs(images: Mapping[str, str]) -> tuple[tuple[str, Poly], ...]:
        return tuple(sorted((k, p(v)) for k, v in images.items()))

    spec = LieAlgebraSpec.from_json_dict({"brackets": data["brackets"], "constraints": data["constraints"]}, p)

    cl = data["claimed"]
    claimed = ClaimedTensors(
        connection=tuple(map(mat, cl["connection"])),
        torsion=antisymmetric([vec(cl["torsion"][key]) for key in PAIR_KEYS], ZERO_VEC, vec_neg),
        a_tensor=tri_table([mat(cl["a_tensor"][key]) for key in PAIR_KEYS]),
        **{name: mat(cl[name]) for name in ("abar", "ric", "wan", "wan_tilde")},
    )

    systems = {SolitonKind(name): tuple(map(p, eqs)) for name, eqs in data["soliton_systems"].items()}
    for kind, eqs in systems.items():
        for eq in eqs:
            if eq.degree_in("c") > 1:
                raise ValueError(f"soliton_systems {kind.value}: equation not affine in c: {eq}")

    theorems: dict[SolitonKind, TheoremClaim] = {}
    for kind_name, th in data["theorems"].items():
        kind = SolitonKind(kind_name)
        cases = []
        for case in th.get("cases", ()):
            if ("c" in case) == case.get("any_c", False):
                raise ValueError(f"theorems {kind_name} case {case['name']}: give exactly one of c and any_c: true")
            cases.append(
                TheoremCase(
                    name=case["name"],
                    subs=pairs(case.get("subs", {})),
                    extra_eq=tuple(p(s) for s in case.get("extra_eq", ())),
                    neq=tuple(p(s) for s in case.get("neq", ())),
                    any_c=case.get("any_c", False),
                    c=p(case["c"]) if "c" in case else None,
                    d=mat(case["d"]),
                    branches=tuple(map(pairs, case.get("branches", ()))),
                    constraint_conflict=case.get("constraint_conflict", False),
                )
            )
        theorems[kind] = TheoremClaim(gid, kind, th["type"], tuple(cases))

    entry = GroupEntry(
        id=gid,
        unimodular=data["unimodular"],
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
                raise ValueError(
                    f"theorems {claim.kind.value} case {case.name} contradicts "
                    f"standing constraints: {'; '.join(conflicts)}"
                )
            if case.constraint_conflict and not conflicts:
                raise ValueError(
                    f"theorems {claim.kind.value} case {case.name} is annotated as "
                    "conflicting but no contradiction was found"
                )


def load_catalog(path: str | None = None) -> Catalog:
    """Load and integrity-check the catalog (checksum over the groups payload)."""
    path = path or default_catalog_path()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_int=_int)  # an integer of any number of digits
    except FileNotFoundError:
        raise CatalogError(f"catalog file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise CatalogError(f"catalog file {path} cannot be read: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or too deeply nested
        raise CatalogError(f"catalog file {path} is not valid JSON: {exc}") from None

    check_shape(raw, CATALOG_SHAPE, "catalog", CatalogError)
    expected = raw.get("checksum")
    actual = compute_checksum(raw["groups"])
    if expected != actual:
        raise CatalogError(
            f"catalog checksum mismatch in {path}: stored {expected}, computed {actual}"
        )

    groups = {}
    for gid in ALL_GROUPS:
        try:
            groups[gid] = _load_group(gid, raw["groups"][gid])
        except ValueError as exc:  # e.g. a polynomial string that does not parse, or c in a bracket
            raise CatalogError(f"catalog groups {gid}: {exc}") from None
    return Catalog(
        path=path,
        checksum=actual,
        schema_version=raw.get("schema_version", 0),
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
        return SolitonVerdict("any_c", d=mat_substitute(case.d, {v: Poly.const(x) for v, x in sigma.items()}))
    s += len(claim.layout[0])
    c_val, *d_vals = (Fraction(x, den) for x in values[s : s + 10])
    d = tuple(tuple(map(Poly.const, d_vals[3 * i : 3 * i + 3])) for i in range(3))
    return SolitonVerdict("soliton", c=c_val, d=d)


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
    print(f"{cat.path}: schema {_int_str(cat.schema_version)}, checksum {cat.checksum}, "
          f"{len(cat.groups)} groups OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_main(sys.argv[1:]))
