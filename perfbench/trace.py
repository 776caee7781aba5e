"""Outside-in tracing: each request replayed through the layers'
public functions, one span per layer boundary.

Nothing under ``src/`` is instrumented.  :func:`traced_request` walks
the same steps ``repro.engine.evaluate`` takes on its serial and
parallel paths, calling each layer's public entry point under a span:

    free_vars -> adapt_bag -> PlanContext.capture -> PlanCache.key_for
    -> planner.compile -> plan.execute(ExecContext)

then replays the result boundary (``Bag.from_counts`` on the result's
counts) and the exchange codec (``split_counts``, ``encode_shard``,
``decode_shard`` on the request's inputs).  Spans marked ``replay``
repeat work the request already did (the plan-cache key is computed
again inside ``planner.compile``) or work it may not do at all (the
codec on a serial plan); they are reported but never attributed to
the request's latency.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.bag import Bag, Tup
from repro.core.eval import Evaluator
from repro.core.semiring import resolve_semiring, semiring_name
from repro.engine import EngineStats, ExecContext, PlanCache
from repro.engine.parallel import (
    ParallelConfig, ParallelPolicy, decode_shard, encode_shard,
    split_counts,
)
from repro.engine.parallel.exchange import adaptive_shards
from repro.planner import PassConfig, PlanContext
from repro.planner import compile as planner_compile

__all__ = ["Span", "Tracer", "Twins", "traced_request", "LAYER_SPANS"]

#: The spans attributed to a request's latency, in call order.
LAYER_SPANS = ("core.expr.free_vars", "core.semiring.adapt",
               "planner.context.capture", "planner.compile",
               "engine.execute")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "replay")

    def __init__(self, name: str, parent: Optional[int], request: int,
                 replay: bool):
        self.name = name
        self.parent = parent
        self.request = request
        self.replay = replay
        self.start = 0.0
        self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self, index: int) -> Dict[str, Any]:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request, "replay": self.replay}


class Tracer:
    """An in-memory span recorder; ``span()`` is a context manager."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.request = -1

    def span(self, name: str, replay: bool = False) -> "_SpanScope":
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.request, replay)
        self.spans.append(span)
        return _SpanScope(self, len(self.spans) - 1, span)

    def self_seconds(self, first: int = 0) -> Dict[int, float]:
        """Span index -> its duration minus its direct children's, for
        the spans recorded from index ``first`` on."""
        own = {index: self.spans[index].seconds
               for index in range(first, len(self.spans))}
        for index in range(first, len(self.spans)):
            parent = self.spans[index].parent
            if parent in own:
                own[parent] -= self.spans[index].seconds
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(span.to_json(index)) + "\n")


class _SpanScope:
    __slots__ = ("tracer", "index", "span")

    def __init__(self, tracer: Tracer, index: int, span: Span):
        self.tracer = tracer
        self.index = index
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.index)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> bool:
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


def cold_copy(value: Any) -> Any:
    """An equal value built from new objects: no cached hashes, no
    memoized statistics — as cold as the original was when first
    seen."""
    if isinstance(value, Bag):
        return Bag.from_counts({cold_copy(element): count
                                for element, count in value.items()})
    if isinstance(value, Tup):
        return Tup(*(cold_copy(item) for item in value.items()))
    return value


class Twins:
    """Cold copies of a workload's input bags, one per original bag
    object.  The traced replay runs on the copies, so it meets fresh
    inputs exactly when the untraced request meets the originals fresh
    (a rebind, a new ad-hoc case) and warm ones otherwise."""

    def __init__(self) -> None:
        self._copies: Dict[int, Tuple[Any, Any]] = {}

    def database(self, database: Dict[str, Any]) -> Dict[str, Any]:
        twin = {}
        for name, value in database.items():
            if not isinstance(value, Bag):
                twin[name] = value
                continue
            entry = self._copies.get(id(value))
            if entry is None or entry[0] is not value:
                entry = (value, cold_copy(value))
                self._copies[id(value)] = entry
            twin[name] = entry[1]
        return twin


def _engine_configs(options: Dict[str, Any]):
    """The parallel policy and run-time config ``evaluate`` would build."""
    if options.get("engine") != "parallel":
        return None, None
    return ParallelPolicy(), ParallelConfig(
        workers=options.get("workers", 2),
        backend=options.get("parallel_backend", "thread"))


def traced_request(tracer: Tracer, workload, request, cache: PlanCache,
                   stats: EngineStats) -> Dict[str, Any]:
    """Replay one request under spans; returns the result and the
    compile report.  Exceptions propagate after the spans close."""
    options = workload.engine_options
    engine = options.get("engine", "physical")
    expr = request.expr
    tracer.request = request.index
    policy, parallel_config = _engine_configs(options)
    with tracer.span("request"):
        with tracer.span("core.expr.free_vars"):
            referenced = expr.free_vars()
        semiring = resolve_semiring(request.semiring)
        with tracer.span("core.semiring.adapt"):
            bindings = dict(request.database)
            if semiring is not None:
                bindings = {name: (semiring.adapt_bag(value, name)
                                   if isinstance(value, Bag)
                                   and name in referenced else value)
                            for name, value in bindings.items()}
        evaluator = Evaluator(limits=workload.limits, track_stats=False,
                              semiring=semiring)
        evaluator.governor.ensure_started()
        config = PassConfig.for_level(
            3 if engine == "codegen" else 1,
            semiring=semiring_name(semiring))
        with tracer.span("planner.context.capture"):
            ctx = PlanContext.capture(
                bindings, catalog=workload.catalog, engine=engine,
                governor=evaluator.governor, cache=cache,
                engine_stats=stats, parallel=policy, config=config)
        with tracer.span("engine.cache.key", replay=True):
            PlanCache.key_for(expr, ctx.arities,
                              (config.cache_tag(), ctx.stats_tag()))
        with tracer.span("planner.compile"):
            compiled = planner_compile(expr, ctx)
        with tracer.span("engine.execute"):
            result = compiled.physical.execute(
                ExecContext(bindings, evaluator, stats=stats,
                            parallel=parallel_config))
    counts = dict(result.items())
    with tracer.span("core.bag.from_counts", replay=True):
        Bag.from_counts(counts)
    shard_config = parallel_config or ParallelConfig(workers=2)
    for name in sorted(referenced):
        value = bindings.get(name)
        if not isinstance(value, Bag):
            continue
        inputs = dict(value.items())
        shards = adaptive_shards(shard_config, [inputs])
        with tracer.span("engine.parallel.partition", replay=True):
            parts = split_counts(inputs, shards)
        with tracer.span("engine.parallel.encode", replay=True):
            blobs = [encode_shard(part) for part in parts]
        with tracer.span("engine.parallel.decode", replay=True):
            for blob in blobs:
                decode_shard(blob)
    return {"result": result, "report": compiled.report,
            "cache_hit": compiled.cache_hit}
