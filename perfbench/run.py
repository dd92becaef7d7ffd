"""Benchmark for srgft: one workload per run, every output checked.

    python3 perfbench/run.py --workload suite-all --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats complete passes of the workload while another
pass still fits in ``--seconds`` (at least one), each pass from a fresh
import of the package, and prints progress on stderr.  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed``
operations, and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
fixed-input microbenchmarks, one untraced pass, then traced passes, and
reports the per-layer metrics; the spans of the
traced passes go to ``perfbench/_out/trace-<workload>-seed<S>.jsonl``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import common
import micro
import series_algebra
import slice_files
import suite_all
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

SUITE_NAMES = ("bieberbach", "fekete-szego", "caratheodory", "growth", "schwarz",
               "schwarz-pick-counterexample", "rogosinski", "bohr", "hayman", "koebe",
               "convex", "subordination", "quotient")

# spans whose calls and self time are reported under their own names
SPAN_LAYERS = ("series.star_mul", "series.symmetrize", "series.star_reciprocal",
               "series.compose", "series.integrate", "eval.quotient", "eval.series_exact",
               "eval.series_float", "classes.generate", "classes.screen", "checks.task",
               "cli.command")


WORKLOADS = {suite_all.NAME: suite_all.SuiteAll,
             series_algebra.NAME: series_algebra.SeriesAlgebra,
             slice_files.NAME: slice_files.SliceFiles}

# untraced runs time at least this many operations, so that ten lie
# beyond the 90th percentile
MIN_OPS = 100


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _run_pass(workload, spans, clock, layer_trace=None):
    clock.tick()
    mods = common.fresh_import()
    if layer_trace is not None:
        layer_trace.install()
    try:
        result, verify = workload.run_pass(mods, spans, clock)
    finally:
        if layer_trace is not None:
            layer_trace.remove()
    result.work, result.failed, result.errors = verify()
    return result


def _fits(lengths, deadline) -> bool:
    """Whether another pass of the median length ends before the deadline."""
    return not lengths or perf_counter() + statistics.median(lengths) <= deadline


def end_to_end(results, peak_rss_kb) -> dict:
    ops = [d for r in results for d in r.ops]
    return {
        "wall_s": (statistics.median(r.wall_s for r in results), "s"),
        "setup_s": (statistics.median(r.setup_s for r in results), "s"),
        "work_per_s": (statistics.median(r.work / (r.wall_s - r.setup_s) for r in results), "1/s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_p90_s": (statistics.quantiles(ops, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(spans, since, traces, untraced, traced, micro_figures) -> dict:
    """Per-pass layer figures from the traced passes (spans[since:])."""
    n = len(traced)
    totals = spans.totals(since)
    out = {}
    for span in SPAN_LAYERS:
        calls, _, self_s = totals.get(span, (0, 0.0, 0.0))
        out[span + ".calls"] = (calls / n, "count")
        out[span + ".self_s"] = (self_s / n, "s")
    out["eval.function.self_s"] = (totals.get("eval.function", (0, 0.0, 0.0))[2] / n, "s")
    out["quat.mul.calls"] = (sum(t.quat_mul for t in traces) / n, "count")
    out["scalar.fraction_ops"] = (sum(t.fraction_ops for t in traces) / n, "count")
    points = sum(t.points for t in traces)
    steps = sum(t.horner_steps for t in traces)
    out["eval.points"] = (points / n, "count")
    out["eval.distinct_rtheta_ratio"] = (
        sum(t.distinct_ratio() * t.points for t in traces) / points if points else 0.0, "ratio")
    out["eval.horner_steps"] = (steps / n, "count")
    out["eval.horner_useful_ratio"] = (
        sum(t.horner_useful for t in traces) / steps if steps else 0.0, "ratio")

    out["checks.build_s"] = (totals.get("checks.build", (0, 0.0))[1] / n, "s")
    out["checks.dispatch_overhead_s"] = (totals.get("checks.run", (0, 0.0, 0.0))[2] / n, "s")
    per_suite = dict.fromkeys(SUITE_NAMES, 0.0)
    for name, tag, start, end, _ in spans.records[since:]:
        if name in ("checks.build", "checks.task"):
            per_suite[tag] = per_suite.get(tag, 0.0) + end - start
    for suite in SUITE_NAMES:
        out[f"checks.suite.{suite}_s"] = (per_suite[suite] / n, "s")
    out["cli.report_dump_s"] = (totals.get("cli.report_dump", (0, 0.0))[1] / n, "s")
    out["cli.json_load_s"] = (totals.get("cli.json_load", (0, 0.0))[1] / n, "s")
    out["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                               - statistics.median(r.wall_s for r in untraced), "s")
    for name, value in micro_figures.items():
        out[name] = (value, "ms" if name.endswith("_ms") else "us")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "srgft" / "__init__.py").is_file():
        _log(f"error: no srgft package under {src}; run from the root of a source checkout")
        return 2
    sys.path.insert(0, str(src))
    start = perf_counter()
    deadline = start + args.seconds
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    mods = common.fresh_import()
    if not Path(mods.cli.__file__).resolve().is_relative_to(src):
        _log(f"error: srgft imported from {mods.cli.__file__}, not from {src}")
        return 2
    workload = WORKLOADS[args.workload](args.seed, out_dir, mods)

    if args.trace:
        fresh = common.fresh_import()
        micro_figures = micro.run(fresh.series, fresh.classes, fresh.quat)
    spans, clock = tracing.Spans(), common.HostClock()
    untraced, traced, traces, lengths = [], [], [], []
    while not (args.trace and untraced) and (
            _fits(lengths, deadline) or sum(len(r.ops) for r in untraced) < MIN_OPS):
        t0 = perf_counter()
        untraced.append(_run_pass(workload, spans, clock))
        if len(untraced) == 1:
            # memory fragments a little more with every pass; the first
            # pass's peak does not depend on how many passes fit
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        lengths.append(perf_counter() - t0)
        _log(f"pass {len(untraced)}: wall {untraced[-1].wall_s:.3f} s, "
             f"setup {untraced[-1].setup_s:.3f} s, {len(untraced[-1].ops)} ops")
    if args.trace:
        since = len(spans.records)
        lengths = []
        while _fits(lengths, deadline):
            t0 = perf_counter()
            traces.append(tracing.LayerTrace(spans))
            traced.append(_run_pass(workload, spans, clock, traces[-1]))
            lengths.append(perf_counter() - t0)
            _log(f"traced pass {len(traced)}: wall {traced[-1].wall_s:.3f} s")
        spans.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", since)
        figures = per_layer(spans, since, traces, untraced, traced, micro_figures)
    else:
        figures = end_to_end(untraced, peak_rss_kb)

    results = untraced + traced
    errors = [e for r in results for e in r.errors]
    for message in sorted(set(errors)):
        _log(f"check failed: {message}")
    ops = [d for r in results for d in r.ops]
    _log(f"{len(results)} passes, {len(ops)} operations, {perf_counter() - start:.1f} s, "
         f"host probe median {statistics.median(clock.lengths) * 1e3:.3f} ms")
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in figures.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
