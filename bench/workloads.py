"""The benchmark's three workloads.

Each workload builds its inputs from the seed, runs one operation untraced
(``run``) or traced (``run_traced``), and checks every output (``check``).
The traced forms make the same public calls as the untraced ones, in the
same order, with a span around each; where a per-layer number needs a call
that a public function makes internally, the traced form makes that call
itself (``verify.classify_grid`` and ``soliton.wan_for_kind`` are unrolled).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from wanas import cli
from wanas.algebra import parse_assignment
from wanas.catalog import ALL_GROUPS, AmbiguousCaseError, Catalog, load_catalog, predicate_eval
from wanas.geometry import compute_tensors
from wanas.poly import Poly, format_rational
from wanas.soliton import SolitonKind, residual_system, soliton_decide, wan_for_kind
from wanas.verify import (
    MATCH,
    MISMATCH,
    ClassificationReport,
    GridSpec,
    PaperReport,
    PointRecord,
    check_theorem_cases,
    default_grid,
    generate_grid,
    reproduce_group,
    verdicts_equal,
)

from tracing import Tracer

KINDS = (SolitonKind.FIRST, SolitonKind.SECOND)

# `wanas verify-paper --out` report of the seed code: the bytes must not change.
REPORT_SHA256 = "0db433fced7be93f28a38a4671032846efa9fdfb675803aa5bb5b7b5b592addb"

# One symbolic pass over g1-g7: 693 table entries plus 30 theorem cases, all
# exact matches, and the digest of every item, residual system and operator.
SYMBOLIC_ITEMS = 723
SYMBOLIC_THEOREM_CASES = 30
SYMBOLIC_SHA256 = "974a6def17ec06e239870733b489370a5e2d8e01d47ed2e649e9ed95e01f374f"

# point_checks: random rationals p/q with |p|, q <= HEIGHT, LADDER_SIZE per group.
HEIGHT = 1000
LADDER_SIZE = 8


class PaperVerify:
    """One operation is ``wanas verify-paper --out <tmp>``, the full g1-g7 run.

    The inputs are the catalog's deterministic default grids: the seed is unused.
    """

    name = "paper_verify"
    warmup = 0

    def __init__(self, catalog: Catalog, seed: int, tmpdir: str):
        self.out = os.path.join(tmpdir, "report.json")

    def describe_inputs(self) -> dict:
        return {"grids": "catalog default grids", "report_sha256": REPORT_SHA256}

    def run(self, i: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["verify-paper", "--out", self.out])

    def run_traced(self, i: int, tr: Tracer) -> int:
        """The calls `verify-paper` makes after argument parsing, in order."""
        with tr.span("cli.verify_paper"):
            with tr.span("catalog.load_catalog"):
                catalog = load_catalog()
            items, classifications = [], []
            for gid in ALL_GROUPS:
                with tr.span("catalog.get_group", gid):
                    entry = catalog.get_group(gid)
                with tr.span("verify.reproduce_group", gid):
                    items.extend(reproduce_group(entry))
                with tr.span("verify.default_grid", gid):
                    _, points = default_grid(entry)
                for kind in KINDS:
                    label = f"{gid}.{kind.value}"
                    with tr.span("catalog.theorem_claim", label):
                        claim = catalog.theorem_claim(gid, kind)
                    with tr.span("verify.check_theorem_cases", label):
                        items.extend(check_theorem_cases(entry, kind, claim))
                    classifications.append(_classify_traced(tr, entry, kind, points, claim))
            report = PaperReport(
                groups=ALL_GROUPS,
                items=tuple(items),
                classifications=tuple(classifications),
                catalog_checksum=catalog.checksum,
            )
            with tr.span("verify.report_to_json"):
                text = report.to_json()
            with open(self.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            with tr.span("verify.report_to_text"):
                report.to_text()
        return 0 if report.ok else 1

    def check(self, i: int, exit_code: int) -> bool:
        try:
            with open(self.out, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return False
        os.remove(self.out)
        return exit_code == 0 and hashlib.sha256(data).hexdigest() == REPORT_SHA256


def _classify_traced(tr: Tracer, entry, kind, points, claim) -> ClassificationReport:
    """``verify.classify_grid`` with a span around each call it makes."""
    with tr.span("verify.classify_grid", f"{entry.id}.{kind.value}"):
        with tr.span("soliton.wan_for_kind", entry.id):
            wan_sym = wan_for_kind(entry.spec, kind)
        records = []
        for sigma in points:
            sigma = dict(sigma)
            with tr.span("algebra.evaluate"):
                numeric_spec = entry.spec.evaluate(sigma)
            rows = []
            for row in wan_sym:
                values = []
                for p in row:
                    with tr.span("poly.evaluate"):
                        values.append(Poly.const(p.evaluate(sigma)))
                rows.append(tuple(values))
            with tr.span("soliton.decide"):
                computed = soliton_decide(numeric_spec, kind, tuple(rows))
            with tr.span("catalog.predicate_eval"):
                expected = predicate_eval(claim, sigma)
            with tr.span("verify.verdicts_equal"):
                agree = verdicts_equal(computed, expected)
            records.append(PointRecord(sigma, computed, expected, agree))
    return ClassificationReport(entry.id, kind, tuple(records))


class PointChecks:
    """One operation is the ``wanas check`` path after start-up: one point,
    one kind, from the parameter text to the verdict."""

    name = "point_checks"
    warmup = 50

    def __init__(self, catalog: Catalog, seed: int, tmpdir: str):
        self.catalog = catalog
        self.inputs = make_points(catalog, seed)
        self.outcomes: dict[str, int] = {}

    def describe_inputs(self) -> dict:
        listing = "\n".join(f"{g} {k.value} {t}" for g, k, t in self.inputs)
        return {
            "points": len(self.inputs),
            "points_sha256": hashlib.sha256(listing.encode()).hexdigest(),
            "height": HEIGHT,
            "ladder_size": LADDER_SIZE,
        }

    def run(self, i: int):
        gid, kind, text = self.inputs[i % len(self.inputs)]
        spec = self.catalog.groups[gid].spec
        sigma = parse_assignment(text)
        if spec.validate_assignment(sigma):
            return sigma, None
        numeric = spec.evaluate(sigma)
        wan = wan_for_kind(numeric, kind)
        return sigma, soliton_decide(numeric, kind, wan)

    def run_traced(self, i: int, tr: Tracer):
        gid, kind, text = self.inputs[i % len(self.inputs)]
        spec = self.catalog.groups[gid].spec
        with tr.span("bench.check", gid):
            with tr.span("algebra.parse_assignment"):
                sigma = parse_assignment(text)
            with tr.span("algebra.validate_assignment"):
                violations = spec.validate_assignment(sigma)
            if violations:
                return sigma, None
            with tr.span("algebra.evaluate"):
                numeric = spec.evaluate(sigma)
            with tr.span("soliton.wan_for_kind", gid):
                with tr.span("geometry.compute_tensors", gid):
                    bundle = compute_tensors(numeric)
                wan = bundle.wan if kind is SolitonKind.FIRST else bundle.wan_tilde
            with tr.span("soliton.decide"):
                verdict = soliton_decide(numeric, kind, wan)
        return sigma, verdict

    def check(self, i: int, output) -> bool:
        """The verdict must equal the catalog theorem's at the point."""
        sigma, verdict = output
        if verdict is None:
            return False
        gid, kind, _ = self.inputs[i % len(self.inputs)]
        self.outcomes[verdict.outcome] = self.outcomes.get(verdict.outcome, 0) + 1
        try:
            expected = predicate_eval(self.catalog.theorem_claim(gid, kind), sigma)
        except AmbiguousCaseError:
            return False
        return verdicts_equal(verdict, expected)


def make_points(catalog: Catalog, seed: int) -> list[tuple[str, SolitonKind, str]]:
    """Admissible (group, kind, "name=p/q,...") checks from a seeded ladder.

    Each group gets its own ladder of random rationals; ``generate_grid``
    adds 0 where the constraints allow it and solves the defining equation,
    so g5-g7 points carry large solved Fractions.  The list is shuffled so
    that every prefix mixes groups and kinds.
    """
    inputs = []
    for gid in ALL_GROUPS:
        rng = random.Random(f"{seed}:{gid}")
        ladder: set[Fraction] = set()
        while len(ladder) < LADDER_SIZE:
            x = Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT))
            if x:
                ladder.add(x)
        spec = catalog.groups[gid].spec
        grid = GridSpec(gid, tuple(sorted(ladder)), max_points=10**6)
        for sigma in generate_grid(spec, grid):
            text = ",".join(f"{v}={format_rational(x)}" for v, x in sorted(sigma.items()))
            inputs.extend((gid, kind, text) for kind in KINDS)
    random.Random(seed).shuffle(inputs)
    return inputs


class SymbolicTables:
    """One operation is a symbolic pass over g1-g7: both connections'
    tensors, table reproduction, theorem cases and residual systems.

    There are no per-point decisions; the seed is unused.
    """

    name = "symbolic_tables"
    warmup = 1

    def __init__(self, catalog: Catalog, seed: int, tmpdir: str):
        self.catalog = catalog

    def describe_inputs(self) -> dict:
        return {"groups": list(ALL_GROUPS), "symbolic_sha256": SYMBOLIC_SHA256}

    def run(self, i: int):
        items, outputs = [], []
        for gid in ALL_GROUPS:
            entry = self.catalog.get_group(gid)
            for connection_kind in ("canonical", "levi-civita"):
                outputs.append(compute_tensors(entry.spec, connection_kind))
            items.extend(reproduce_group(entry))
            for kind in KINDS:
                claim = self.catalog.theorem_claim(gid, kind)
                items.extend(check_theorem_cases(entry, kind, claim))
                outputs.append(residual_system(entry.spec, kind))
        return items, outputs

    def run_traced(self, i: int, tr: Tracer):
        items, outputs = [], []
        with tr.span("bench.symbolic_pass"):
            for gid in ALL_GROUPS:
                with tr.span("catalog.get_group", gid):
                    entry = self.catalog.get_group(gid)
                for connection_kind in ("canonical", "levi-civita"):
                    with tr.span("geometry.compute_tensors", gid):
                        outputs.append(compute_tensors(entry.spec, connection_kind))
                with tr.span("verify.reproduce_group", gid):
                    items.extend(reproduce_group(entry))
                for kind in KINDS:
                    label = f"{gid}.{kind.value}"
                    with tr.span("catalog.theorem_claim", label):
                        claim = self.catalog.theorem_claim(gid, kind)
                    with tr.span("verify.check_theorem_cases", label):
                        items.extend(check_theorem_cases(entry, kind, claim))
                    with tr.span("soliton.residual_system", label):
                        outputs.append(residual_system(entry.spec, kind))
        return items, outputs

    def check(self, i: int, output) -> bool:
        items, outputs = output
        cases = [r for r in items if r.item == "theorem_case"]
        return (
            len(items) == SYMBOLIC_ITEMS
            and not any(r.verdict == MISMATCH for r in items)
            and len(cases) == SYMBOLIC_THEOREM_CASES
            and all(r.verdict == MATCH for r in cases)
            and symbolic_digest(items, outputs) == SYMBOLIC_SHA256
        )


def symbolic_digest(items, outputs) -> str:
    """SHA-256 over every report item, Wan operator and residual polynomial."""
    h = hashlib.sha256()
    h.update(json.dumps([r.to_json_dict() for r in items], sort_keys=True).encode())
    for out in outputs:
        if isinstance(out, tuple):  # a residual system
            h.update("\n".join(map(str, out)).encode())
        else:  # a TensorBundle
            for m in (out.wan, out.wan_tilde):
                h.update("\n".join(str(p) for row in m for p in row).encode())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (PaperVerify, PointChecks, SymbolicTables)}

# Traced operations of the other workloads that a traced run adds, so that
# every per-layer metric is measured whichever workload is traced.
COMPLEMENT_OPS = {"paper_verify": 1, "point_checks": 300, "symbolic_tables": 3}


def poly_micro(tr: Tracer, catalog: Catalog, rounds: int = 5) -> None:
    """Poly mul/evaluate/substitute/reduce on polynomials from the pipeline:
    the nine g7 Wan entries and the g6 constraints, at g7 grid points."""
    g7 = catalog.groups["g7"]
    wan = [p for row in compute_tensors(g7.spec).wan for p in row]
    g6_constraints = [con.poly for con in catalog.groups["g6"].spec.constraints]
    # alpha*gamma - beta*delta = 0, rewriting alpha*gamma -> beta*delta
    relation = next(con.poly for con in catalog.groups["g6"].spec.constraints if con.kind == "eq")
    points = generate_grid(g7.spec, GridSpec("g7"))[::37][:16]
    images = [{v: Poly.const(x) for v, x in s.items()} for s in points]
    polys = wan + g6_constraints
    for _ in range(rounds):
        with tr.span("bench.poly_micro"):
            products = []
            for a in wan:
                for b in wan:
                    with tr.span("poly.mul"):
                        products.append(a * b)
            for p in polys:
                for s in points:
                    with tr.span("poly.evaluate"):
                        p.evaluate(s)
            for p in polys:
                for img in images:
                    with tr.span("poly.substitute"):
                        p.substitute(img)
            for p in products:
                with tr.span("poly.reduce"):
                    p.reduce(relation, "alpha")

