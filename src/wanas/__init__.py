"""Exact tensor calculus and algebraic soliton classification on the
three-dimensional Lorentzian Lie groups."""

from .algebra import LieAlgebraSpec, LORENTZ
from .catalog import load_catalog
from .geometry import compute_tensors
from .poly import Poly, parse_poly
from .soliton import SolitonKind, soliton_decide, wan_for_kind

__version__ = "0.1.0"

__all__ = [
    "LORENTZ",
    "LieAlgebraSpec",
    "Poly",
    "SolitonKind",
    "compute_tensors",
    "load_catalog",
    "parse_poly",
    "soliton_decide",
    "verify_paper",
    "wan_for_kind",
    "__version__",
]


def __getattr__(name: str):
    """``verify_paper`` on first read (PEP 562): ``wanas.verify`` and ``wanas.nest`` load only where they run."""
    if name == "verify_paper":
        from .verify import verify_paper
        return verify_paper
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
