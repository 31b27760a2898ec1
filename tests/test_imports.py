"""The import graph of a cold start: the verification layer
(``wanas.verify``) loads only for the commands that classify, the grid
nest (``wanas.nest``) also for those that evaluate at a point, and loading
the catalog reads the package data by plain path.

Each check runs in a fresh interpreter, since this test process has long
since imported every module."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import wanas
from wanas import algebra

SRC = os.path.dirname(os.path.dirname(wanas.__file__))
GRID_LAYER = ("wanas.verify", "wanas.nest")


def _loaded(source: str, *flags: str) -> set[str]:
    """The module names in ``sys.modules`` after ``source`` runs in a fresh interpreter."""
    source += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("WANAS_CATALOG", None)
    run = subprocess.run([sys.executable, *flags, "-c", source], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(run.stdout.splitlines()[-1]))


def test_loading_the_catalog_loads_no_grid_layer_and_no_cli():
    loaded = _loaded("import wanas\nfrom wanas.catalog import load_catalog\nload_catalog()")
    assert {"wanas.catalog", "wanas.soliton"} <= loaded
    assert not loaded & {*GRID_LAYER, "wanas.cli"}


def test_tensors_loads_no_grid_layer():
    loaded = _loaded(
        "import contextlib, io\n"
        "from wanas import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['tensors', '--group', 'g4', '--tensor', 'wan']) == 0\n"
    )
    assert "wanas.cli" in loaded and not loaded & set(GRID_LAYER)


def test_check_loads_the_nest_but_not_verify():
    """``check`` evaluates through ``IntegerEvaluator``, which compiles a
    one-point grid nest; the verification layer stays unloaded."""
    loaded = _loaded(
        "import contextlib, io\n"
        "from wanas import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['check', '--group', 'g2', '--kind', 'first', '--at', 'alpha=0,beta=0,gamma=1']) == 0\n"
    )
    assert {"wanas.cli", "wanas.nest"} <= loaded and "wanas.verify" not in loaded


def test_classify_loads_the_grid_layer():
    """The other side of the tests above: the check sees the layer when it is loaded."""
    loaded = _loaded(
        "import contextlib, io\n"
        "from wanas import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['classify', '--group', 'g3', '--kind', 'first', '--min-points', '1']) == 0\n"
    )
    assert set(GRID_LAYER) <= loaded


def test_catalog_path_needs_no_importlib_resources():
    """Under ``python -S`` no site hook has imported ``importlib.resources``
    already, so its absence shows that the catalog load does not import it."""
    loaded = _loaded("from wanas.catalog import load_catalog\nload_catalog()", "-S")
    assert "wanas.catalog" in loaded and "importlib.resources" not in loaded


def test_every_exported_name_resolves_and_verify_paper_is_lazy():
    from wanas import verify

    assert "verify_paper" in dir(wanas) and set(wanas.__all__) <= set(dir(wanas))
    assert all(getattr(wanas, name) is not None for name in wanas.__all__)
    assert wanas.verify_paper is verify.verify_paper
    assert verify.GridError is algebra.GridError  # re-exported beside the grids that raise it
    with pytest.raises(AttributeError, match="no_such_name"):
        wanas.no_such_name
    loaded = _loaded("import wanas\nassert callable(wanas.verify_paper)\nfrom wanas import verify_paper")
    assert set(GRID_LAYER) <= loaded
