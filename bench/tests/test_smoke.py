"""Smoke tests of the benchmark itself.

Run from the repository root:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from wanas.catalog import load_catalog  # noqa: E402


def test_point_checks_tiny_seed_has_no_failed_operations():
    w = workloads.PointChecks(load_catalog(), seed=7, tmpdir="")
    tracer = Tracer()
    failed = sum(not w.check(i, w.run(i)) for i in range(30))
    failed += sum(not w.check(i, w.run_traced(i, tracer)) for i in range(30, 40))
    assert failed == 0
    assert sum(w.outcomes.values()) == 40
    assert {s.name for s in tracer.spans} >= {"bench.check", "soliton.decide"}


def test_point_checks_inputs_depend_only_on_seed():
    catalog = load_catalog()
    a = workloads.PointChecks(catalog, seed=7, tmpdir="").describe_inputs()
    b = workloads.PointChecks(catalog, seed=7, tmpdir="").describe_inputs()
    c = workloads.PointChecks(catalog, seed=8, tmpdir="").describe_inputs()
    assert a == b
    assert a["points_sha256"] != c["points_sha256"]


def test_one_symbolic_pass_has_no_failed_operations():
    w = workloads.SymbolicTables(load_catalog(), seed=0, tmpdir="")
    assert w.check(0, w.run(0))


def test_times_are_scaled_to_the_reference_speed():
    # Reference at twice REF_MS: the machine ran at half the reference speed.
    ref = [2 * calibrate.REF_MS / 1e3] * 3
    metrics, raw = worker.end_to_end([0.010, 0.012, 0.014], ref)
    assert raw["speed_factor"] == 0.5
    assert abs(metrics["op_p50_ms"][0] - 6.0) < 1e-9
    assert abs(metrics["ops_per_s"][0] - 2 * raw["raw_ops_per_s"]) < 1e-9


def test_reference_time_is_taken_out_of_operations():
    class Busy:
        """Each operation spins for 0.3 s of wall time."""

        warmup = 0

        def run(self, i):
            end = perf_counter() + 0.3
            while perf_counter() < end:
                pass

        def check(self, i, output):
            return True

    untraced, traced, ref, failed = worker.closed_loop(Busy(), seconds=0.65)
    assert (len(untraced), traced, failed) == (2, [], 0)
    assert len(ref) >= 4  # one every REF_INTERVAL_S = 0.1 s
    assert all(0.2 < t < 0.3 - 0.9 * min(ref) for t in untraced)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == worker.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb"
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point_checks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
