"""The benchmark proper: set-up, the timed closed loop, the traced
replay, the correctness checks, and the result line.

``run.py`` is the command-line entry; this module imports the program
under test, so ``run.py`` can fail cleanly when it is missing.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import platform
import resource
import time
from typing import Any, Dict, List, Tuple

from repro.core.bag import Bag
from repro.core.errors import GovernedError, ResourceLimitError
from repro.engine import EngineStats

from perfbench import metrics
from perfbench.metrics import TEMPLATES, median, percentile
from perfbench.trace import LAYER_SPANS, Tracer, Twins, traced_request
from perfbench.workloads import BulkSerial, make_workload

__all__ = ["Checker", "run"]

#: Refusals a governed engine is allowed to give; everything else that
#: raises is an error.
_REFUSALS = (GovernedError, ResourceLimitError, RecursionError)

#: Hard cap on the wall time of the request loop, so that a run ends
#: within its time limit even when checks are slow.
LOOP_WALL_CAP_S = 120.0


def _guarded(fn) -> Tuple[str, Any]:
    try:
        return "ok", fn()
    except _REFUSALS as error:
        return "refused", error
    except Exception as error:  # noqa: BLE001 - every failure is data
        return "error", error


def _same(value: Any, answer: Any) -> bool:
    if isinstance(answer, dict):  # a plain-dict reference
        return isinstance(value, Bag) and dict(value.items()) == answer
    return value == answer


class Checker:
    """Compares each result with its independent reference, outside
    every timed region, and tallies the outcomes."""

    def __init__(self) -> None:
        self._memo: Dict[Any, Tuple[Any, Tuple[str, Any]]] = {}
        self.checked = 0
        self.wrong = 0
        self.refused = 0
        self.shared_refusals = 0
        self.errors = 0
        self.unverified = 0

    def _reference(self, request) -> Tuple[str, Any]:
        """The reference outcome, reused while a slot's inputs are
        unchanged; one entry per slot, so memory stays flat however
        many requests a run sends."""
        if request.reference_key is None:
            return _guarded(request.reference)
        slot, inputs = request.reference_key
        entry = self._memo.get(slot)
        if entry is None or entry[0] != inputs:
            entry = (inputs, _guarded(request.reference))
            self._memo[slot] = entry
        return entry[1]

    def check(self, request, status: str, value: Any) -> bool:
        """Record one request; returns True when it counts as failed:
        it raised, returned a wrong bag, or was refused where the
        reference, under the same limits, answered.  A refusal the
        reference shares is the governed outcome of that query, so it
        is tallied (and costs ``success_rate``) but has not failed."""
        self.checked += 1
        ref_status, answer = self._reference(request)
        if status == "refused":
            self.refused += 1
            if ref_status == "refused":
                self.shared_refusals += 1
                return False
            return True
        if status == "error":
            self.errors += 1
            return True
        if ref_status != "ok":
            self.unverified += 1
            return False
        if not _same(value, answer):
            self.wrong += 1
            return True
        return False

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.errors == 0

    def summary(self) -> str:
        return (f"checked={self.checked} wrong={self.wrong} "
                f"refused={self.refused} (shared with the reference: "
                f"{self.shared_refusals}) errors={self.errors} "
                f"unverified={self.unverified}")


def _setup_steps(workload) -> Dict[str, List[float]]:
    """Run every set-up; returns each step's seconds per set-up."""
    steps: Dict[str, List[float]] = {}
    for _ in range(workload.params["setup_repeats"]):
        gc.collect()
        for name, value in workload.setup().steps.items():
            steps.setdefault(name, []).append(value)
    return steps


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its
    reaped children (the process backend's workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_loop(workload, stream, seconds: float, checker: Checker,
               loop: Dict[str, Any]) -> None:
    """Closed loop, one client: send the next request when the
    previous one returns, for ``seconds`` of wall time and then to the
    end of the current round, so a run holds whole rounds of the
    workload's cycle.  Input generation and checks happen between
    requests, outside the timed region of each request.  Results
    accumulate into ``loop``: every latency, each cycle position's
    kind and template, and per kind the best latency."""
    cache = workload.cache
    cycle = workload.cycle_length()
    best = loop["best"]
    gc.collect()
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if elapsed >= LOOP_WALL_CAP_S or (
                elapsed >= seconds and len(loop["latencies"]) % cycle == 0):
            break
        request = next(stream)
        start = time.perf_counter()
        status, value = _guarded(lambda: workload.run(request, cache))
        latency = time.perf_counter() - start
        position = request.index % cycle
        kind = position if request.kind is None else request.kind
        if kind not in best or latency < best[kind]:
            best[kind] = latency
        loop["positions"][position] = (kind, request.template)
        loop["latencies"].append(latency)
        loop["failed"] += checker.check(request, status, value)


def end_to_end(workload, seconds: float) -> Dict[str, Any]:
    """Set-ups alternate with equal slices of the timed loop, so the
    measured rounds spread over the whole run rather than one stretch
    of it; the request stream runs on across set-ups.

    Every round sends the same requests, so each cycle position is
    timed once per round and its latency is the best of those timings
    (as ``timeit`` takes the best of its repeats), pooled over the
    positions of its kind.  The host is shared and its speed drifts by
    tens of percent from one second to the next; the best of a
    position's repeats measures the program rather than the
    neighbours.  Percentiles and throughput are over the positions'
    best latencies."""
    checker = Checker()
    loop: Dict[str, Any] = {"latencies": [], "best": {}, "positions": {},
                            "failed": 0}
    repeats = workload.params["setup_repeats"]
    setup_seconds: List[float] = []
    stream = None
    try:
        for _ in range(repeats):
            gc.collect()
            setup_seconds.append(workload.setup().seconds)
            if stream is None:
                stream = workload.requests()
            timed_loop(workload, stream, seconds / repeats, checker, loop)
    finally:
        workload.close()
    latencies = loop["latencies"]
    attempted = len(latencies)
    ranked = sorted((loop["best"][kind], template)
                    for kind, template in loop["positions"].values())
    best = [latency for latency, _ in ranked]
    answered = attempted - checker.refused - checker.errors - checker.wrong
    values = {
        "throughput_qps": len(best) / sum(best),
        "latency_p50_ms": percentile(best, 50) * 1e3,
        "latency_p90_ms": percentile(best, 90) * 1e3,
        "success_rate": answered / attempted,
        "setup_s": median(setup_seconds),
        "peak_rss_mb": _peak_rss_mb(),
    }
    print(f"# requests={attempted} rounds={attempted // len(best)} "
          f"positions={len(best)} busy_s={sum(latencies):.3f} "
          f"setup_s={setup_seconds}")
    print(f"# every request, not best-of: p50 "
          f"{percentile(latencies, 50) * 1e3:.3f} ms, p90 "
          f"{percentile(latencies, 90) * 1e3:.3f} ms")
    print(f"# checks: {checker.summary()}")
    by_template: Dict[str, List[float]] = {}
    for latency, template in ranked:
        by_template.setdefault(template, []).append(latency)
    print("# median best ms by template: " + ", ".join(
        f"{template}={_ms(values):.3f} (n={len(values)})"
        for template, values in sorted(by_template.items())))
    for q in (50, 90):
        low = int(len(ranked) * (q - 5) / 100)
        high = max(low + 1, int(len(ranked) * (q + 5) / 100))
        near: Dict[str, int] = {}
        for _, template in ranked[low:high]:
            near[template] = near.get(template, 0) + 1
        print(f"# positions ranked p{q - 5}-p{q + 5} by template: "
              + ", ".join(f"{t}={n}" for t, n in sorted(near.items())))
    return {"correct": checker.correct, "attempted": attempted,
            "failed": loop["failed"], "metrics": values,
            "names": list(metrics.END_TO_END)}


def _ms(values: List[float]) -> float:
    return median(values) * 1e3 if values else 0.0


def traced(workload, out_dir: str) -> Dict[str, Any]:
    """The separate traced run: a fixed number of requests, each sent
    untraced (timed as in the timed loop), then replayed under spans
    on cold copies of its inputs and a second, identically warmed plan
    cache.  On ``bulk-serial`` each request is also sent to the process
    backend, whose exchange counts and time give the parallel
    metrics."""
    setup_steps = _setup_steps(workload)
    checker = Checker()
    tracer = Tracer()
    twins = Twins()
    traced_cache = workload.new_cache()
    workload.warm(traced_cache)
    parallel_cache = None
    if isinstance(workload, BulkSerial):
        parallel_cache = workload.new_cache()
        workload.warm(parallel_cache, **workload.parallel_options)
    before = (traced_cache.stats.hits, traced_cache.stats.misses,
              traced_cache.stats.evictions)
    rows: List[Dict[str, Any]] = []
    failed = 0
    stream = workload.requests()
    wall = time.perf_counter()
    try:
        for _ in range(workload.params["trace_requests"]):
            if time.perf_counter() - wall > LOOP_WALL_CAP_S:
                break
            request = next(stream)
            twin = dataclasses.replace(
                request, database=twins.database(request.database))
            gc.collect()
            start = time.perf_counter()
            sent, value = _guarded(
                lambda: workload.run(request, workload.cache))
            untraced = time.perf_counter() - start
            failed += checker.check(request, sent, value)
            row: Dict[str, Any] = {"template": request.template,
                                   "untraced": untraced}
            if parallel_cache is not None:
                row["exchange"] = EngineStats()
                start = time.perf_counter()
                p_status, p_value = _guarded(lambda: workload.run(
                    request, parallel_cache, stats=row["exchange"],
                    **workload.parallel_options))
                row["parallel"] = time.perf_counter() - start
                if p_status == "error":
                    checker.errors += 1
                elif (p_status == "ok" and sent == "ok"
                      and not _same(p_value, value)):
                    checker.wrong += 1
            stats = EngineStats()
            first_span = len(tracer.spans)
            gc.collect()
            status, outcome = _guarded(lambda: traced_request(
                tracer, workload, twin, traced_cache, stats))
            if status != "ok":
                rows.append(row)
                continue
            if sent == "ok" and not _same(outcome["result"], value):
                checker.wrong += 1
            row.update(_spans_of(tracer, first_span))
            row["stages"] = _stage_seconds(outcome["report"])
            row["firings"] = outcome["report"].total_firings
            row["stats"] = stats
            rows.append(row)
    finally:
        workload.close()
    after = traced_cache.stats
    hits, misses = after.hits - before[0], after.misses - before[1]
    values = _layer_metrics(rows, setup_steps)
    values["engine.cache.hit_rate"] = (hits / (hits + misses)
                                       if hits + misses else 0.0)
    values["engine.cache.evictions"] = after.evictions - before[2]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.name}-"
                                 f"seed{workload.seed}.jsonl")
    tracer.write(path)
    print(f"# spans: {len(tracer.spans)} written to "
          f"{os.path.relpath(path)}")
    print(f"# traced requests={len(rows)}; checks: {checker.summary()}")
    for name in sorted(values):
        if name.startswith("engine.parallel.speedup_vs_serial."):
            template = name.rsplit(".", 1)[1]
            serial = [r["untraced"] for r in rows
                      if r["template"] == template and "parallel" in r]
            parallel = [r["parallel"] for r in rows
                        if r["template"] == template and "parallel" in r]
            if serial:
                print(f"# {name}: serial codegen median "
                      f"{_ms(serial):.3f} ms / process backend median "
                      f"{_ms(parallel):.3f} ms")
    return {"correct": checker.correct, "attempted": len(rows),
            "failed": failed, "metrics": values,
            "names": list(metrics.PER_LAYER)}


def _spans_of(tracer: Tracer, first: int) -> Dict[str, float]:
    """Per-request span seconds by name (replays summed), plus the
    traced request time without replays and the layers' self time."""
    own = tracer.self_seconds(first)
    out: Dict[str, float] = {}
    root = None
    replay_in_root = 0.0
    for index in range(first, len(tracer.spans)):
        span = tracer.spans[index]
        if span.name == "request":
            root = span
            continue
        out[span.name] = out.get(span.name, 0.0) + span.seconds
        if span.replay and span.parent is not None:
            replay_in_root += span.seconds
    out["traced"] = root.seconds - replay_in_root
    out["attributed"] = sum(seconds for index, seconds in own.items()
                            if tracer.spans[index].name in LAYER_SPANS)
    return out


def _stage_seconds(report) -> Dict[str, float]:
    seconds: Dict[str, float] = {}
    for record in report.stages:
        seconds[record.stage] = seconds.get(record.stage, 0.0) \
            + record.seconds
    return seconds


def _layer_metrics(rows: List[Dict[str, Any]],
                   setup_steps: Dict[str, List[float]]
                   ) -> Dict[str, float]:
    done = [row for row in rows if "stats" in row]

    def span_ms(name: str, subset=None) -> float:
        return _ms([row.get(name, 0.0) for row in (subset or done)])

    def stat_total(field: str, key: str = "stats") -> int:
        return sum(getattr(row[key], field) for row in done if key in row)

    values: Dict[str, float] = {
        "core.expr.free_vars_ms": span_ms("core.expr.free_vars"),
        "engine.cache.key_ms": span_ms("engine.cache.key"),
        "core.semiring.adapt_ms": span_ms("core.semiring.adapt"),
        "planner.context.capture_ms": span_ms("planner.context.capture"),
        "planner.compile_ms": span_ms("planner.compile"),
        "engine.execute_ms": span_ms("engine.execute"),
        "core.bag.from_counts_ms": span_ms("core.bag.from_counts"),
        "engine.parallel.partition_ms": span_ms(
            "engine.parallel.partition"),
        "engine.parallel.encode_ms": span_ms("engine.parallel.encode"),
        "engine.parallel.decode_ms": span_ms("engine.parallel.decode"),
        "planner.rule_firings": sum(row["firings"] for row in done),
        "engine.codegen.fused_segments": stat_total("fused_segments"),
        "engine.codegen.barrier_fallbacks": stat_total(
            "barrier_fallbacks"),
        "engine.parallel.bytes_shipped": stat_total("bytes_shipped",
                                                    "exchange"),
        "engine.parallel.morsels": stat_total("morsels_executed",
                                              "exchange"),
    }
    for stage in ("normalize", "rewrite", "lower", "codegen"):
        values[f"planner.{stage}_ms"] = _ms(
            [row["stages"].get(stage, 0.0) for row in done])
    segment_hits = stat_total("segment_cache_hits", "exchange")
    segment_all = segment_hits + stat_total("segment_cache_misses",
                                            "exchange")
    values["engine.parallel.segment_cache_hit_rate"] = (
        segment_hits / segment_all if segment_all else 0.0)
    values["engine.parallel.retries"] = (
        stat_total("morsel_retries", "exchange")
        + stat_total("pool_respawns", "exchange"))
    for template in TEMPLATES:
        subset = [row for row in done if row["template"] == template]
        values[f"engine.execute_ms.{template}"] = (
            span_ms("engine.execute", subset) if subset else 0.0)
        paired = [row for row in subset if "parallel" in row]
        values[f"engine.parallel.speedup_vs_serial.{template}"] = (
            median([row["untraced"] for row in paired])
            / median([row["parallel"] for row in paired])
            if paired else 0.0)
    paired = [row for row in done if "parallel" in row]
    values["engine.parallel.speedup_vs_serial"] = (
        sum(row["untraced"] for row in paired)
        / sum(row["parallel"] for row in paired) if paired else 0.0)
    for name in ("storage.save_s", "storage.analyze_s", "storage.load_s"):
        values[name] = median(setup_steps[name]) \
            if name in setup_steps else 0.0
    untraced = sum(row["untraced"] for row in done)
    values["trace.overhead_share"] = (
        sum(row["traced"] for row in done) / untraced - 1.0
        if untraced else 0.0)
    values["trace.unattributed_share"] = (
        1.0 - sum(row["attributed"] for row in done) / untraced
        if untraced else 0.0)
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: str, out_dir: str
        ) -> Dict[str, Any]:
    """One benchmark run; returns the result object (with the metric
    values rendered by name and unit)."""
    workload = make_workload(workload_name, seed, scale, workdir=out_dir)
    description = workload.describe()
    description.update({"seed": seed, "seconds": seconds,
                        "trace": int(trace),
                        "cpu_count": os.cpu_count(),
                        "python": platform.python_version(),
                        "hash_seed": os.environ.get("PYTHONHASHSEED")})
    print("# " + json.dumps(description, sort_keys=True))
    outcome = (traced(workload, out_dir) if trace
               else end_to_end(workload, seconds))
    names = outcome.pop("names")
    outcome["metrics"] = metrics.render(outcome["metrics"],
                                        metrics.units_of(names))
    return outcome


