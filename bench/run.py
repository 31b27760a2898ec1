"""Benchmark of the wanas package: one workload per run.

Run from the root of a source checkout:

    python3 bench/run.py --workload paper_verify --seed 1 --seconds 36 --trace 0

It measures set-up time (import plus catalog load) in fresh interpreters,
then runs the workload in a fresh single-threaded worker process
(bench/worker.py) for ``--seconds``, checking every output.  With
``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics from a traced run.  The last line of stdout is the
result as JSON; the lines before it give the environment and every figure
by name and unit.  Workloads and the reasons for them are in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calibrate import speed_factor, time_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("paper_verify", "point_checks", "symbolic_tables")
SETUP_RUNS = 9
REF_PER_SETUP = 5
DEADLINE_S = 170

SETUP_PROBE = (
    "from time import perf_counter\n"
    "t0 = perf_counter()\n"
    "import wanas\n"
    "from wanas.catalog import load_catalog\n"
    "load_catalog()\n"
    "print(perf_counter() - t0)\n"
)

# Workload-specific names of the generic figures (metric name, scale, unit).
ALIASES = {
    "paper_verify": {"verify_paper_s": ("op_p50_ms", 1e-3, "s")},
    "point_checks": {
        "check_p50_ms": ("op_p50_ms", 1, "ms"),
        "check_p99_ms": ("p99_ms", 1, "ms"),
        "checks_per_s": ("ops_per_s", 1, "1/s"),
    },
    "symbolic_tables": {"symbolic_pass_s": ("op_p50_ms", 1e-3, "s")},
}


def _run_child(args: list[str], start: float) -> str:
    """Run a Python child to completion within the run's deadline."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, DEADLINE_S - (perf_counter() - start)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with code {proc.returncode}")
    return proc.stdout


def setup_seconds(start: float) -> tuple[list[float], list[float]]:
    """Import plus catalog load, each in a fresh interpreter: raw times and
    times scaled by the machine-speed reference (calibrate.py) timed just
    before and just after each probe.

    One untimed probe first, so that every timed one finds compiled bytecode.
    """
    _run_child(["-c", SETUP_PROBE], start)
    raw = []
    refs = [[time_reference() for _ in range(REF_PER_SETUP)]]
    for _ in range(SETUP_RUNS):
        raw.append(float(_run_child(["-c", SETUP_PROBE], start)))
        refs.append([time_reference() for _ in range(REF_PER_SETUP)])
    scaled = [t * speed_factor(before + after) for t, before, after in zip(raw, refs, refs[1:])]
    return raw, scaled


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wanas").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="wanas benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "wanas" / "__init__.py").is_file():
        print(f"error: no wanas sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that the worker is killed and the temporary
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = perf_counter()
    tmpdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        setup, setup_scaled = ([], []) if args.trace else setup_seconds(start)
        out = _run_child(
            [
                str(BENCH / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--tmpdir", tmpdir,
            ],
            start,
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    worker = json.loads(out.strip().splitlines()[-1])
    metrics = worker["metrics"]
    setup_info = {"setup_runs": len(setup)}
    if setup:
        setup_info["raw_setup_s"] = statistics.median(setup)
        metrics = {"setup_s": {"value": statistics.median(setup_scaled), "unit": "s"}, **metrics}
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": source_digest(),
        **setup_info,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        **worker["info"],
    }
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        figures = {name: m["value"] for name, m in metrics.items()}
        figures["p99_ms"] = worker["info"]["p99_ms"]
        for alias, (name, scale, unit) in ALIASES[args.workload].items():
            print(f"{alias} = {figures[name] * scale:.6g} {unit}  ({name})")
    result = {
        "correct": worker["failed"] == 0 and worker["attempted"] > 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
