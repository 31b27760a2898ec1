"""Worker process of the benchmark: one workload, one fresh interpreter.

Started by run.py with ``src`` on PYTHONPATH.  It runs the workload as a
closed loop with one client and no threads, checks every output, and prints
its figures as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from wanas.catalog import ALL_GROUPS, load_catalog

import workloads
from calibrate import sampling, speed_factor
from tracing import Span, Tracer, root_names, self_times

# Name of a traced operation's root span -> what the operation is.
ROOT_KIND = {
    "bench.setup": "setup",
    "bench.poly_micro": "poly_micro",
    "cli.verify_paper": "paper_verify",
    "bench.check": "point_checks",
    "bench.symbolic_pass": "symbolic_tables",
}

# Per-layer timing -> (operation it is taken from, span name, span label or
# None for any, unit).  Each value is the mean span duration; `<name>.calls`
# is the number of spans behind it.
LAYER_TIMINGS: dict[str, tuple[str, str, str | None, str]] = {
    "catalog.load_catalog_ms": ("setup", "catalog.load_catalog", None, "ms"),
    "catalog.predicate_eval_us": ("paper_verify", "catalog.predicate_eval", None, "us"),
    "poly.mul_us": ("poly_micro", "poly.mul", None, "us"),
    "poly.evaluate_us": ("poly_micro", "poly.evaluate", None, "us"),
    "poly.substitute_us": ("poly_micro", "poly.substitute", None, "us"),
    "poly.reduce_us": ("poly_micro", "poly.reduce", None, "us"),
    "algebra.evaluate_us": ("point_checks", "algebra.evaluate", None, "us"),
    "algebra.validate_assignment_us": ("point_checks", "algebra.validate_assignment", None, "us"),
    **{
        f"geometry.compute_tensors_symbolic_ms.{g}": ("symbolic_tables", "geometry.compute_tensors", g, "ms")
        for g in ALL_GROUPS
    },
    "geometry.compute_tensors_numeric_us": ("point_checks", "geometry.compute_tensors", None, "us"),
    "soliton.wan_for_kind_ms": ("paper_verify", "soliton.wan_for_kind", None, "ms"),
    "soliton.residual_system_ms": ("symbolic_tables", "soliton.residual_system", None, "ms"),
    "soliton.decide_us": ("point_checks", "soliton.decide", None, "us"),
    **{
        f"verify.reproduce_group_ms.{g}": ("symbolic_tables", "verify.reproduce_group", g, "ms")
        for g in ALL_GROUPS
    },
    **{f"verify.default_grid_ms.{g}": ("paper_verify", "verify.default_grid", g, "ms") for g in ALL_GROUPS},
    "verify.check_theorem_cases_ms": ("paper_verify", "verify.check_theorem_cases", None, "ms"),
    "verify.report_to_json_ms": ("paper_verify", "verify.report_to_json", None, "ms"),
    "cli.verify_paper_ms": ("paper_verify", "cli.verify_paper", None, "ms"),
}

CLASSIFY_RATES = [f"{g}.{k.value}" for g in ALL_GROUPS for k in workloads.KINDS]

# Layers whose self time is reported per operation of each workload.
SELF_LAYERS = {
    "paper_verify": ("cli", "catalog", "verify", "soliton", "algebra", "poly"),
    "point_checks": ("bench", "algebra", "geometry", "soliton"),
    "symbolic_tables": ("bench", "catalog", "geometry", "verify", "soliton"),
}

SETUP_LOADS = 5

# Wall time between two timings of the ~11 ms reference (see closed_loop).
REF_INTERVAL_S = 0.1


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    names = []
    for name, (_, _, _, unit) in LAYER_TIMINGS.items():
        names += [(name, unit), (f"{name}.calls", "count")]
    for label in CLASSIFY_RATES:
        name = f"verify.classify_points_per_s.{label}"
        names += [(name, "1/s"), (f"{name}.calls", "count")]
    for kind, layers in SELF_LAYERS.items():
        names += [(f"self_ms.{kind}.{layer}", "ms") for layer in layers]
    names.append(("trace_overhead_pct", "%"))
    return names


def closed_loop(workload, seconds: float, tracer: Tracer | None = None):
    """Operations back to back until the next would end after ``seconds``.

    With a tracer, operations alternate untraced and traced.  Without one,
    the machine-speed reference (calibrate.py) interrupts the loop every
    ``REF_INTERVAL_S``, and the time it takes inside an operation is taken
    out of that operation's duration.  Returns the untraced, traced and
    reference durations and the number of failed operations.
    """
    untraced: list[float] = []
    traced: list[float] = []
    failed = 0
    for i in range(workload.warmup):
        failed += not workload.check(i, workload.run(i))
    with contextlib.nullcontext([]) if tracer else sampling(REF_INTERVAL_S) as ref:
        start = perf_counter()
        wall = 0.0
        i = workload.warmup
        while (
            not untraced
            or (tracer is not None and not traced)
            or perf_counter() - start + wall <= seconds
        ):
            trace = tracer is not None and (i - workload.warmup) % 2 == 1
            n0 = len(ref)
            t0 = perf_counter()
            out = workload.run_traced(i, tracer) if trace else workload.run(i)
            t1 = perf_counter()
            wall = t1 - t0
            interrupted = sum(min(e, t1) - max(s, t0) for s, e in ref[n0:] if s < t1 and e > t0)
            (traced if trace else untraced).append(wall - interrupted)
            failed += not workload.check(i, out)
            i += 1
    return untraced, traced, [e - s for s, e in ref], failed


def end_to_end(samples: list[float], ref: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, scaled to the reference speed, and the raw
    figures behind them."""
    speed = speed_factor(ref)
    p50_ms = statistics.median(samples) * 1e3
    per_s = len(samples) / sum(samples)
    metrics = {
        "op_p50_ms": (p50_ms * speed, "ms"),
        "ops_per_s": (per_s / speed, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "speed_factor": speed,
        "ref_samples": len(ref),
        "ref_p50_ms": statistics.median(ref) * 1e3,
        "raw_op_p50_ms": p50_ms,
        "raw_ops_per_s": per_s,
    }
    return metrics, raw


def tail(samples: list[float], speed: float) -> dict:
    """p99, scaled like op_p50_ms, and the samples beyond it: printed, not
    bounded (see README.md)."""
    p99 = statistics.quantiles(samples, n=100, method="inclusive")[98] if len(samples) > 1 else samples[0]
    return {
        "samples": len(samples),
        "p99_ms": p99 * 1e3 * speed,
        "samples_beyond_p99": sum(1 for x in samples if x > p99),
    }


def layer_metrics(spans: list[Span]) -> dict:
    roots = root_names(spans)
    kinds = [ROOT_KIND[roots[s.run]] for s in spans]
    buckets: dict[tuple[str, str], list[int]] = defaultdict(list)
    for idx, (s, kind) in enumerate(zip(spans, kinds)):
        buckets[kind, s.name].append(idx)

    out = {}
    for name, (kind, span_name, label, unit) in LAYER_TIMINGS.items():
        durations = [
            spans[idx].duration
            for idx in buckets[kind, span_name]
            if label is None or spans[idx].label == label
        ]
        if not durations:
            raise RuntimeError(f"no {span_name} spans for {name}")
        scale = {"ms": 1e3, "us": 1e6}[unit]
        out[name] = (sum(durations) / len(durations) * scale, unit)
        out[f"{name}.calls"] = (len(durations), "count")

    decided = defaultdict(int)
    for s in spans:
        if s.name == "soliton.decide":
            decided[s.parent] += 1
    for label in CLASSIFY_RATES:
        grids = [idx for idx in buckets["paper_verify", "verify.classify_grid"] if spans[idx].label == label]
        points = sum(decided[idx] for idx in grids)
        name = f"verify.classify_points_per_s.{label}"
        out[name] = (points / sum(spans[idx].duration for idx in grids), "1/s")
        out[f"{name}.calls"] = (points, "count")

    self_sum: dict[tuple[str, str], float] = defaultdict(float)
    for s, kind, t in zip(spans, kinds, self_times(spans)):
        self_sum[kind, s.layer] += t
    runs = defaultdict(int)
    for name in roots.values():
        runs[ROOT_KIND[name]] += 1
    for kind, layers in SELF_LAYERS.items():
        for layer in layers:
            out[f"self_ms.{kind}.{layer}"] = (self_sum[kind, layer] / runs[kind] * 1e3, "ms")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, tmpdir: str) -> dict:
    tracer = Tracer() if trace else None
    if tracer:
        for _ in range(SETUP_LOADS):
            with tracer.span("bench.setup"), tracer.span("catalog.load_catalog"):
                load_catalog()
    catalog = load_catalog()
    workload = workloads.WORKLOADS[name](catalog, seed, tmpdir)
    untraced, traced, ref, failed = closed_loop(workload, seconds, tracer)
    attempted = workload.warmup + len(untraced) + len(traced)
    info = {"inputs": workload.describe_inputs(), "warmup_ops": workload.warmup}
    if hasattr(workload, "outcomes"):
        total = sum(workload.outcomes.values())
        info["outcome_share"] = {k: v / total for k, v in sorted(workload.outcomes.items())}

    if not tracer:
        metrics, raw = end_to_end(untraced, ref)
        info.update(raw)
        info.update(tail(untraced, raw["speed_factor"]))
    else:
        for other, count in workloads.COMPLEMENT_OPS.items():
            if other == name:
                continue
            extra = workloads.WORKLOADS[other](catalog, seed, tmpdir)
            for i in range(count):
                failed += not extra.check(i, extra.run_traced(i, tracer))
            attempted += count
        workloads.poly_micro(tracer, catalog)
        metrics = layer_metrics(tracer.spans)
        overhead = (statistics.median(traced) / statistics.median(untraced) - 1) * 100
        metrics["trace_overhead_pct"] = (overhead, "%")
        info["samples"] = {"untraced": len(untraced), "traced": len(traced)}
        info["spans"] = len(tracer.spans)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmpdir", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tmpdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
