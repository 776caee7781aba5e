"""Metric definitions: names, units, and what each per-layer metric
should move.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's tests check that the two agree.  The third field of each
``PER_LAYER`` entry records the end-to-end metric and workload that
the layer metric should move, written down before any change claims a
gain.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "throughput_qps": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "success_rate": ("share", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

TEMPLATES = ("sym-diff", "join", "union-dedup", "nest-group")

#: No timed workload runs the process backend: on a shared 2-CPU host
#: its end-to-end figures spread past their bounds between runs of the
#: same code.  The exchange layer is measured in bulk-serial's traced
#: run, which also sends every request to the process backend.
_PARALLEL = ("none end to end: bulk-serial's traced requests sent to the "
             "process backend with 2 workers")

#: name -> (unit, better, what it should move)
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "core.expr.free_vars_ms": (
        "ms", "lower",
        "latency_p90_ms then latency_p50_ms on warm-small; none on "
        "bulk-serial"),
    "engine.cache.key_ms": (
        "ms", "lower",
        "latency_p90_ms then latency_p50_ms on warm-small; none on "
        "bulk-serial"),
    "engine.cache.hit_rate": (
        "share", "higher",
        "latency_p50_ms on warm-small (about 1) and adhoc-compile "
        "(about 0)"),
    "engine.cache.evictions": (
        "count", "lower", "latency_p50_ms on adhoc-compile"),
    "core.semiring.adapt_ms": (
        "ms", "lower",
        "latency_p50_ms on warm-small, via the Bool and rebind requests"),
    "planner.context.capture_ms": (
        "ms", "lower",
        "latency_p50_ms on warm-small; about 0 on bulk-serial (catalog "
        "statistics)"),
    "planner.compile_ms": (
        "ms", "lower",
        "latency_p50_ms and throughput_qps on adhoc-compile; only the "
        "cache-hit share on warm-small"),
    "planner.normalize_ms": (
        "ms", "lower", "latency_p50_ms and throughput_qps on adhoc-compile"),
    "planner.rewrite_ms": (
        "ms", "lower", "latency_p50_ms and throughput_qps on adhoc-compile"),
    "planner.lower_ms": (
        "ms", "lower", "latency_p50_ms and throughput_qps on adhoc-compile"),
    "planner.codegen_ms": (
        "ms", "lower", "latency_p50_ms and throughput_qps on adhoc-compile"),
    "planner.rule_firings": (
        "count", "lower",
        "latency_p50_ms and throughput_qps on adhoc-compile"),
    "engine.execute_ms": (
        "ms", "lower", "throughput_qps on bulk-serial"),
    "engine.codegen.fused_segments": (
        "count", "higher", "structural evidence for one executor on "
                           "bulk-serial"),
    "engine.codegen.barrier_fallbacks": (
        "count", "lower", "structural evidence for one executor on "
                          "bulk-serial"),
    "core.bag.from_counts_ms": (
        "ms", "lower",
        "latency_p50_ms on bulk-serial and warm-small (replay)"),
    "engine.parallel.partition_ms": (
        "ms", "lower",
        "none end to end: the process backend's codec, replayed on "
        "each request's inputs"),
    "engine.parallel.encode_ms": (
        "ms", "lower",
        "none end to end: the process backend's codec, replayed on "
        "each request's inputs"),
    "engine.parallel.decode_ms": (
        "ms", "lower",
        "none end to end: the process backend's codec, replayed on "
        "each request's inputs"),
    "engine.parallel.bytes_shipped": ("bytes", "lower", _PARALLEL),
    "engine.parallel.morsels": ("count", "lower", _PARALLEL),
    "engine.parallel.segment_cache_hit_rate": ("share", "higher", _PARALLEL),
    "engine.parallel.retries": ("count", "lower", _PARALLEL),
    "engine.parallel.speedup_vs_serial": ("ratio", "higher", _PARALLEL),
    "storage.save_s": ("s", "lower", "setup_s on bulk-serial"),
    "storage.analyze_s": ("s", "lower", "setup_s on bulk-serial"),
    "storage.load_s": ("s", "lower", "setup_s on bulk-serial"),
    "trace.overhead_share": (
        "share", "lower", "none: the cost of the traced replay itself"),
    "trace.unattributed_share": (
        "share", "lower",
        "none: latency the layer spans do not cover"),
}
for _template in TEMPLATES:
    PER_LAYER[f"engine.execute_ms.{_template}"] = (
        "ms", "lower", "throughput_qps on bulk-serial")
    PER_LAYER[f"engine.parallel.speedup_vs_serial.{_template}"] = (
        "ratio", "higher", _PARALLEL)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def render(metrics: Dict[str, float],
           units: Dict[str, str]) -> Dict[str, Dict[str, object]]:
    return {name: {"value": metrics[name], "unit": units[name]}
            for name in units}


def units_of(names: List[str]) -> Dict[str, str]:
    table = {name: unit for name, (unit, _) in END_TO_END.items()}
    table.update({name: spec[0] for name, spec in PER_LAYER.items()})
    return {name: table[name] for name in names}
