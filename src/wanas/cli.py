"""Command-line surface: inspect tensors, check points, classify grids, run
the full catalog verification, and validate Jacobi.

Every command is a thin adapter over the library; no computation logic lives
here, and only --group, ``classify`` and ``verify-paper`` read the catalog.
Exit codes: 0 success, 1 verification discrepancies, 2 usage errors
(including invalid parameter points, bad flags and a polynomial degree above
``poly.MAX_DEGREE``), reported on one ``error:`` line.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Sequence

from .algebra import (
    PAIR_KEYS,
    PAIRS,
    GridError,
    InvalidAssignmentError,
    LieAlgebraSpec,
    json_text,
    load_spec_file,
    parse_assignment,
)
from .catalog import CatalogError, load_catalog
from .geometry import (
    compute_tensors,
    matrix_json,
    render_matrix,
    render_vector,
)
from .poly import DegreeOverflowError, MissingVariableError, PolyParseError, format_rational, is_digits, parse_rational
from .soliton import SolitonKind, soliton_decide, wan_for_kind

_MATRIX_TENSORS = ("abar", "ric", "wan", "wan-tilde")
_TENSOR_CHOICES = (
    "connection",
    "levi-civita",
    "torsion",
    "curvature",
    "a-tensor",
    "wanas",
) + _MATRIX_TENSORS


_MAX_POINTS_HELP = "cap on the grid size (default 5000); a grid that reaches it keeps its first points in sorted order"


class _CliError(Exception):
    """Invalid invocation detected after argparse (still exit code 2)."""


def _fail(message: str) -> None:
    raise _CliError(message)


def _load_algebra(args, at: str | None) -> tuple[str, LieAlgebraSpec, dict[str, Fraction] | None]:
    """The algebra that --group or --spec-file names, evaluated at ``at``
    unless it is None, and that point.  ``check`` passes its required --at
    as it is; ``tensors`` and ``jacobi`` read an empty one as none."""
    if args.spec_file and args.group:
        _fail("--group and --spec-file are mutually exclusive")
    if args.spec_file:
        try:
            gid, spec = "spec-file", load_spec_file(args.spec_file)
        except (OSError, ValueError) as exc:
            _fail(f"could not load spec file {args.spec_file}: {exc}")
    elif args.group:
        entry = load_catalog().get_group(args.group)
        gid, spec = entry.id, entry.spec
    else:
        _fail("one of --group or --spec-file is required")
    if at is None:
        return gid, spec, None
    sigma = _parse_at(spec, at)
    return gid, spec.evaluate(sigma), sigma


def _require_jacobi(gid: str, spec: LieAlgebraSpec) -> None:
    """Refuse a spec-file bracket table that is not a Lie algebra (at the
    --at point when one is given): its tensors and verdicts would mean nothing."""
    if gid != "spec-file":
        return
    residual = spec.jacobi_residual()
    if any(residual):
        _fail(
            "the spec-file brackets violate the Jacobi identity: "
            f"residual {render_vector(residual)}"
        )


def _parse_at(spec: LieAlgebraSpec, text: str) -> dict[str, Fraction]:
    """The --at point, with every variable of ``spec`` and no other name;
    whether it is admissible is ``spec.evaluate``'s check."""
    try:
        sigma = parse_assignment(text)
    except (ValueError, PolyParseError) as exc:
        _fail(f"invalid --at value: {exc}")
    missing = [v for v in spec.variables() if v not in sigma]
    if missing:
        _fail(f"incomplete --at assignment: {MissingVariableError(missing)}")
    extra = [v for v in sigma if v not in spec.variables()]
    if extra:
        _fail(f"--at assigns parameters the algebra does not use: {', '.join(extra)}")
    return sigma


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json_text(payload))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


# -- tensors -------------------------------------------------------------------


def _cmd_tensors(args) -> int:
    gid, spec, sigma = _load_algebra(args, args.at or None)
    _require_jacobi(gid, spec)

    base = "levi-civita" if args.tensor == "levi-civita" else args.connection_kind
    bundle = compute_tensors(spec, base)

    tensor = args.tensor
    payload: dict = {"group": gid, "tensor": tensor, "connection_kind": base}
    if sigma is not None:
        payload["at"] = {v: format_rational(x) for v, x in sorted(sigma.items())}

    if tensor in _MATRIX_TENSORS:
        matrix = getattr(bundle, tensor.replace("-", "_"))
        payload["matrix"] = matrix_json(matrix)
        _emit(args, payload, f"{tensor} operator (row i = image of e_i):\n{render_matrix(matrix)}")
        return 0
    if tensor in ("connection", "levi-civita"):
        table = bundle.levi_civita if tensor == "levi-civita" else bundle.connection
        name = "nabla" if tensor == "levi-civita" or base == "levi-civita" else "nabla0"
        cells = [(f"{name}[e{i + 1}]e{j + 1}", table[i][j]) for i in range(3) for j in range(3)]
    else:
        # read only the requested table: R, A and W are built when first read
        label = {"torsion": "T", "curvature": "R", "a-tensor": "A", "wanas": "W"}[tensor]
        table = getattr(bundle, tensor.replace("-", "_"))
        cells = []
        for key, (i, j) in zip(PAIR_KEYS, PAIRS):
            # T(e_i, e_j) is one vector; the others act on a third basis vector
            vectors = [("", table[i][j])] if tensor == "torsion" else [(f"e{k + 1}", v) for k, v in enumerate(table[i][j])]
            cells.extend((f"{label}({key}){suffix}", v) for suffix, v in vectors)
    payload["entries"] = {name: [str(p) for p in v] for name, v in cells}
    _emit(args, payload, "\n".join(f"{name} = {render_vector(v)}" for name, v in cells))
    return 0


# -- check ---------------------------------------------------------------------


def _cmd_check(args) -> int:
    gid, numeric, sigma = _load_algebra(args, args.at)
    kind = SolitonKind(args.kind)
    _require_jacobi(gid, numeric)
    verdict = soliton_decide(numeric, kind, wan_for_kind(numeric, kind))
    payload = {
        "group": gid,
        "kind": kind.value,
        "at": {v: format_rational(x) for v, x in sorted(sigma.items())},
        "verdict": verdict.to_json_dict(),
    }
    _emit(args, payload, f"{gid} ({kind.value} kind): {verdict.describe()}")
    return 0


# -- classify ------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type of the grid point bounds: a vacuous grid is refused."""
    if not is_digits(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _parse_ladder(text: str) -> tuple[Fraction, ...]:
    try:
        values = tuple(parse_rational(x) for x in text.split(",") if x.strip())
    except PolyParseError as exc:
        _fail(f"invalid --grid-ladder: {exc}")
    if not values:
        _fail("--grid-ladder must list at least one rational")
    return values


def _cmd_classify(args) -> int:
    from .verify import classify_ladder  # the grid layer loads only for the commands that classify
    catalog = load_catalog()
    entry = catalog.get_group(args.group)
    kind = SolitonKind(args.kind)
    ladder = _parse_ladder(args.grid_ladder) if args.grid_ladder else None
    claims = {kind: catalog.theorem_claim(entry.id, kind)}
    (report,) = classify_ladder(entry, claims, ladder, args.min_points, args.max_points)
    payload = report.to_json_dict()
    capped = f" (the first {report.total} in sorted order: --max-points reached)" if report.total == args.max_points else ""
    lines = [
        f"{entry.id} {kind.value} kind: {report.total} grid points{capped}, "
        f"{report.agreements} agree with the classification theorem"
    ]
    for rec in report.disagreements:
        lines.append(
            f"  DISAGREE at {rec.sigma_str()}: computed {rec.computed.describe()}; "
            f"expected {rec.expected.describe()}"
        )
    if not report.total:
        lines.append("  the grid has no admissible points: nothing was checked")
    _emit(args, payload, "\n".join(lines))
    return 0 if report.total and report.total == report.agreements else 1


# -- verify-paper ----------------------------------------------------------------


def _cmd_verify_paper(args) -> int:
    from .verify import verify_paper
    catalog = load_catalog()
    ladder = _parse_ladder(args.grid_ladder) if args.grid_ladder else None
    report = verify_paper(
        catalog,
        groups=args.group,
        ladder=ladder,
        min_points=args.min_points,
        max_points=args.max_points,
    )
    text = report.to_json() if args.out or args.json else None
    if args.out:  # written after the run, so a failed run truncates nothing
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(f"could not write report {args.out}: {exc}")
    if args.json:
        print(text, end="")
    else:
        print(report.to_text(), end="")
    return 0 if report.ok else 1


# -- jacobi ----------------------------------------------------------------------


def _cmd_jacobi(args) -> int:
    gid, spec, _ = _load_algebra(args, args.at or None)
    residual = spec.jacobi_residual()
    payload = {
        "group": gid,
        "residual": [str(p) for p in residual],
        "holds": all(p.is_zero() for p in residual),
    }
    text = f"Jacobi residual: {render_vector(residual)}"
    if payload["holds"]:
        text += "\nJacobi identity holds."
    _emit(args, payload, text)
    return 0 if payload["holds"] else 1


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wanas",
        description=(
            "Exact canonical-connection tensor calculus and algebraic soliton "
            "classification for the three-dimensional Lorentzian Lie groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p):
        p.add_argument("--group", help="catalog group id (g1..g7, case-insensitive)")
        p.add_argument("--spec-file", help="JSON algebra spec to use instead of a catalog group")

    p = sub.add_parser("tensors", help="print a tensor table or operator matrix")
    add_group_args(p)
    p.add_argument("--tensor", required=True, choices=_TENSOR_CHOICES)
    p.add_argument(
        "--connection-kind",
        choices=("canonical", "levi-civita"),
        default="canonical",
        help="base connection for the pipeline (default canonical)",
    )
    p.add_argument("--at", help="evaluate at a point, e.g. alpha=1,beta=-1/2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tensors)

    p = sub.add_parser("check", help="decide solitonhood at a parameter point")
    add_group_args(p)
    p.add_argument("--kind", required=True, choices=("first", "second"))
    p.add_argument("--at", required=True, help="parameter point, e.g. alpha=0,beta=0,gamma=1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="classify a parameter grid against the theorem")
    p.add_argument("--group", required=True)
    p.add_argument("--kind", required=True, choices=("first", "second"))
    p.add_argument("--grid-ladder", help="comma-separated rationals overriding the ladder")
    p.add_argument("--min-points", type=_positive_int, default=200)
    p.add_argument("--max-points", type=_positive_int, default=5000, help=_MAX_POINTS_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "verify-paper", help="recompute and verify every table, theorem, and grid"
    )
    p.add_argument(
        "--group",
        action="append",
        help="restrict to a group (repeatable); default all seven",
    )
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--grid-ladder", help="comma-separated rationals overriding the ladder")
    p.add_argument("--min-points", type=_positive_int, default=200)
    p.add_argument("--max-points", type=_positive_int, default=5000, help=_MAX_POINTS_HELP)
    p.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser("jacobi", help="print the Jacobi residual of an algebra")
    add_group_args(p)
    p.add_argument("--at", help="optional parameter point")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_jacobi)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_CliError, CatalogError, DegreeOverflowError, GridError) as exc:
        message = str(exc)
    except InvalidAssignmentError as exc:
        message = f"invalid parameter point: {exc}"
    # one line, whatever free text (a file name, a catalog case name) the message quotes
    print("error: " + "\\n".join(message.splitlines()), file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
