"""Physical plan IR: the lowered operator tree the codegen stage compiles.

A physical plan is a tree (a DAG, where lowering shares common
subexpressions) of :class:`PhysicalNode` objects produced by the
lowering pass (:mod:`repro.engine.lower`).  Nodes are pure plan data —
the kernel choice, its parameters, and the lowering-time estimate
(``estimated``).  They hold no run state and do not execute
themselves: the codegen stage (:mod:`repro.engine.codegen`) compiles
every plan into fused segments over the one kernel set
(:mod:`repro.engine.columnar`), and that is the only way a plan runs.

Per-run state lives in the :class:`ExecContext`: bindings, the
run's :class:`~repro.guard.ResourceGovernor`, the shared-subexpression
memo, and the :class:`EngineStats` counters.  Emitted segments tick the
governor proportionally to the rows each kernel produces and enforce
the intermediate-size budget on every materialised dict, so step
budgets, deadlines, cancellation, and injected faults apply to engine
execution exactly as they do to the tree walker.

Per-node *actual* row counts are run state too: the emitted code
records them into ``EngineStats.node_rows`` (keyed by node identity),
and :func:`render_plan` prints them next to the estimates — so one
cached plan serving two runs shows each run its own counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Tuple,
)

from repro.core.bag import Bag
from repro.core.database import encoding_size
from repro.core.errors import UnboundVariableError
from repro.planner.stats import BagStats

__all__ = [
    "EngineStats", "ExecContext", "PhysicalNode",
    "ScanBag", "ConstSource", "OracleEval", "SharedScan",
    "HashUnion", "HashDifference", "HashIntersect", "HashMaxUnion",
    "HashDedup", "HashJoin", "NestedLoopProduct",
    "StreamingMap", "StreamingSelect", "MultiplicityScale",
    "FlattenBags", "NestBuild", "UnnestExpand", "PowersetExpand",
    "render_plan",
]

#: Governor tick granularity: one governed step per this many rows.
_TICK_EVERY = 128


@dataclass
class EngineStats:
    """Counters describing one or more engine runs."""

    #: kernel name -> number of node executions that used it.
    kernel_counts: Dict[str, int] = field(default_factory=dict)
    #: Total rows produced across all kernel executions.
    rows_emitted: int = 0
    #: Actual rows per plan node (``id(node) -> rows``, summed over
    #: executions): what ``:explain`` prints next to the estimates.
    node_rows: Dict[int, int] = field(default_factory=dict)
    #: Number of expressions lowered to physical plans.
    lowerings: int = 0
    #: Plan-cache hits / misses observed by the engine entry point.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Shared intermediates materialised / served from the run memo.
    shared_materialized: int = 0
    shared_reused: int = 0
    #: Subtrees delegated to the tree-walking oracle.
    oracle_fallbacks: int = 0
    #: Parallel exchange counters: input slots partitioned, morsels
    #: dispatched to workers, gather barriers crossed, and the
    #: governed step count of each executed morsel (in merge order).
    partitions_created: int = 0
    morsels_executed: int = 0
    gather_barriers: int = 0
    worker_steps: List[int] = field(default_factory=list)
    #: Resilience counters: morsels resubmitted after a transient
    #: fault, process pools respawned after worker loss, and one
    #: human-readable record per degradation-ladder demotion
    #: (``"process->thread: ..."``) — ``:explain`` prints these so a
    #: degraded answer is never silent.
    morsel_retries: int = 0
    pool_respawns: int = 0
    demotions: List[str] = field(default_factory=list)
    #: Columnar-morsel counters: bytes crossing the process boundary
    #: (codec-encoded shards out plus encoded results back; retries
    #: re-count because they re-ship), and worker-local compiled
    #: segment cache hits/misses (a hit means a morsel reused a
    #: resident compiled segment instead of recompiling).
    bytes_shipped: int = 0
    segment_cache_hits: int = 0
    segment_cache_misses: int = 0
    #: Codegen counters: fused-segment executions, and executions of
    #: the operators no segment can pipeline through — the barrier
    #: kernels (flatten, nest, unnest, powerset, powerbag) and oracle
    #: subtrees (the ``:explain`` codegen footer prints both).
    fused_segments: int = 0
    barrier_fallbacks: int = 0
    #: Execution-feedback counters: per-relation total rows observed
    #: by ScanBag nodes and the number of scans that produced them.
    #: Both merge by pointwise sum (associative, parallel-safe); the
    #: honest per-scan observation is their ratio
    #: (:meth:`observed_mean_cardinalities`) — a catalog absorbs that,
    #: not the raw totals, so re-scanned partitions don't inflate it.
    observed_cardinalities: Dict[str, int] = field(default_factory=dict)
    observed_scans: Dict[str, int] = field(default_factory=dict)

    def record_scan(self, name: str, cardinality: int) -> None:
        self.observed_cardinalities[name] = (
            self.observed_cardinalities.get(name, 0) + cardinality)
        self.observed_scans[name] = (
            self.observed_scans.get(name, 0) + 1)

    def observed_mean_cardinalities(self) -> Dict[str, float]:
        """Per-relation mean observed cardinality per scan — what the
        storage catalog's feedback loop absorbs."""
        return {name: total / max(1, self.observed_scans.get(name, 1))
                for name, total in
                sorted(self.observed_cardinalities.items())}

    def record_kernel(self, name: str) -> None:
        self.kernel_counts[name] = self.kernel_counts.get(name, 0) + 1

    def merge_from(self, other: "EngineStats") -> None:
        """Fold another stats object into this one, in place."""
        for name, count in other.kernel_counts.items():
            self.kernel_counts[name] = (
                self.kernel_counts.get(name, 0) + count)
        self.rows_emitted += other.rows_emitted
        for key, rows in other.node_rows.items():
            self.node_rows[key] = self.node_rows.get(key, 0) + rows
        self.lowerings += other.lowerings
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.shared_materialized += other.shared_materialized
        self.shared_reused += other.shared_reused
        self.oracle_fallbacks += other.oracle_fallbacks
        self.partitions_created += other.partitions_created
        self.morsels_executed += other.morsels_executed
        self.gather_barriers += other.gather_barriers
        self.worker_steps.extend(other.worker_steps)
        self.morsel_retries += other.morsel_retries
        self.pool_respawns += other.pool_respawns
        self.demotions.extend(other.demotions)
        self.bytes_shipped += other.bytes_shipped
        self.segment_cache_hits += other.segment_cache_hits
        self.segment_cache_misses += other.segment_cache_misses
        self.fused_segments += other.fused_segments
        self.barrier_fallbacks += other.barrier_fallbacks
        for name, total in other.observed_cardinalities.items():
            self.observed_cardinalities[name] = (
                self.observed_cardinalities.get(name, 0) + total)
        for name, scans in other.observed_scans.items():
            self.observed_scans[name] = (
                self.observed_scans.get(name, 0) + scans)

    def merged_with(self, other: "EngineStats") -> "EngineStats":
        """A new stats object combining both operands.

        The merge is associative (every field is a sum, a pointwise
        dict sum, or list concatenation), so folding per-worker stats
        in any grouping yields the same totals —
        ``tests/test_parallel.py`` pins this down.
        """
        merged = EngineStats(
            kernel_counts=dict(self.kernel_counts),
            rows_emitted=self.rows_emitted,
            node_rows=dict(self.node_rows),
            lowerings=self.lowerings,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            shared_materialized=self.shared_materialized,
            shared_reused=self.shared_reused,
            oracle_fallbacks=self.oracle_fallbacks,
            partitions_created=self.partitions_created,
            morsels_executed=self.morsels_executed,
            gather_barriers=self.gather_barriers,
            worker_steps=list(self.worker_steps),
            morsel_retries=self.morsel_retries,
            pool_respawns=self.pool_respawns,
            demotions=list(self.demotions),
            bytes_shipped=self.bytes_shipped,
            segment_cache_hits=self.segment_cache_hits,
            segment_cache_misses=self.segment_cache_misses,
            fused_segments=self.fused_segments,
            barrier_fallbacks=self.barrier_fallbacks,
            observed_cardinalities=dict(self.observed_cardinalities),
            observed_scans=dict(self.observed_scans),
        )
        merged.merge_from(other)
        return merged


class ExecContext:
    """Per-run execution state: bindings, governor, memo, stats.

    ``evaluator`` is a tree-walking
    :class:`~repro.core.eval.Evaluator` sharing the run's governor; it
    evaluates lambda bodies that the lowering pass could not compile to
    closures, and whole subtrees the lowering pass does not know (the
    oracle fallback), so extension operators keep working under the
    physical engine.
    """

    __slots__ = ("bindings", "evaluator", "governor", "stats", "memo",
                 "powerset_budget", "parallel", "semiring", "_env",
                 "_tick_interval", "_last_tick_at")

    def __init__(self, bindings: Mapping[str, Any], evaluator,
                 stats: Optional[EngineStats] = None, parallel=None):
        self.bindings = dict(bindings)
        self.evaluator = evaluator
        self.governor = evaluator.governor
        self.stats = stats if stats is not None else EngineStats()
        self.memo: Dict[int, Dict[Any, int]] = {}
        self.powerset_budget = evaluator.powerset_budget
        #: Multiplicity semiring (None = N fast path); shared with the
        #: lambda/oracle evaluator so fallbacks agree with the kernels.
        self.semiring = getattr(evaluator, "semiring", None)
        #: Optional ParallelConfig: set only under ``engine=parallel``;
        #: Exchange nodes fall back to inline execution without it.
        self.parallel = parallel
        self._env = (self.bindings, None)
        self._tick_interval = _TICK_EVERY
        self._last_tick_at: Optional[float] = None

    def lookup(self, name: str) -> Any:
        if name not in self.bindings:
            raise UnboundVariableError(f"unbound variable {name!r}")
        return self.bindings[name]

    def apply_lambda(self, lam, value: Any) -> Any:
        """Evaluate an uncompiled lambda body via the tree walker."""
        evaluator = self.evaluator
        return evaluator.eval(lam.body,
                              evaluator.bind(self._env, lam.param, value))

    def eval_oracle(self, expr) -> Any:
        """Evaluate a whole subtree via the tree walker."""
        self.stats.oracle_fallbacks += 1
        return self.evaluator.eval(expr, self._env)

    @property
    def tick_interval(self) -> int:
        """Rows between governor ticks; adapts downward near deadlines."""
        return self._tick_interval

    def tick(self) -> None:
        governor = self.governor
        if governor is None:
            return
        governor.tick(self.evaluator.stats)
        # Adaptive granularity: a fixed 128-row interval lets one huge
        # morsel overshoot a deadline by a whole inter-tick gap.  When
        # a single gap consumed >10% of the deadline, halve the
        # interval (floor 1) so the overshoot bound shrinks
        # geometrically as the clock runs down.
        timeout = governor.timeout
        if timeout is not None:
            now = governor.clock()
            last = self._last_tick_at
            self._last_tick_at = now
            if (last is not None and now - last > 0.1 * timeout
                    and self._tick_interval > 1):
                self._tick_interval = max(1, self._tick_interval // 2)

    def check_size(self, counts: Dict[Any, int]) -> None:
        """Enforce the size budget on a materialised intermediate."""
        governor = self.governor
        if governor is None or governor.max_size is None:
            return
        size = 1 + sum((count if isinstance(count, int) else 1)
                       * encoding_size(value)
                       for value, count in counts.items())
        governor.check_size(size, self.evaluator.stats)


class PhysicalNode:
    """Base class of physical operators: the kernel label, the
    lowering-time estimate, and the dataflow children."""

    __slots__ = ("estimated",)

    #: Kernel label shown by ``:explain`` (subclasses override).
    kernel = "?"

    def __init__(self, estimated: Optional[BagStats] = None):
        self.estimated = estimated

    def children(self) -> Tuple["PhysicalNode", ...]:
        return ()

    def _head(self) -> str:
        return f"{type(self).__name__}  kernel={self.kernel}"

    def label(self, actual_rows: Optional[int] = None) -> str:
        parts = [self._head()]
        if self.estimated is not None:
            parts.append(f"est card {self.estimated.cardinality:g}")
        if actual_rows is not None:
            parts.append(f"actual rows {actual_rows}")
        return "  ".join(parts)


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------

class ScanBag(PhysicalNode):
    """Scan a database bag binding."""

    __slots__ = ("name",)
    kernel = "scan"

    def __init__(self, name: str, estimated=None):
        super().__init__(estimated)
        self.name = name

    def _head(self):
        return f"ScanBag {self.name}  kernel={self.kernel}"


class ConstSource(PhysicalNode):
    """A literal bag."""

    __slots__ = ("value",)
    kernel = "const"

    def __init__(self, value: Bag, estimated=None):
        super().__init__(estimated)
        self.value = value


class OracleEval(PhysicalNode):
    """Fallback: delegate an unlowered subtree to the tree walker.

    Keeps the physical engine total over the full expression language
    (IFP, machine encodings, future extension nodes) at interpreter
    speed for exactly that subtree.
    """

    __slots__ = ("expr",)
    kernel = "oracle"

    def __init__(self, expr, estimated=None):
        super().__init__(estimated)
        self.expr = expr


class SharedScan(PhysicalNode):
    """A common subexpression: materialised once per run, then served
    from the run memo (the within-run intermediate-sharing half of the
    plan cache)."""

    __slots__ = ("inner",)
    kernel = "shared"

    def __init__(self, inner: PhysicalNode, estimated=None):
        super().__init__(estimated)
        self.inner = inner

    def children(self):
        return (self.inner,)


# ----------------------------------------------------------------------
# Union family
# ----------------------------------------------------------------------

class _BinaryNode(PhysicalNode):
    __slots__ = ("left", "right")

    def __init__(self, left: PhysicalNode, right: PhysicalNode,
                 estimated=None):
        super().__init__(estimated)
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)


class HashUnion(_BinaryNode):
    """``(+)``: pointwise count sum."""

    __slots__ = ()
    kernel = "additive-union"


class HashDifference(_BinaryNode):
    """``-`` (monus) over both materialised sides."""

    __slots__ = ()
    kernel = "monus"


class HashIntersect(_BinaryNode):
    """``n`` (min): the lowering pass puts the estimated-smaller
    operand on the left, which becomes the probe dict."""

    __slots__ = ()
    kernel = "min-intersect"


class HashMaxUnion(_BinaryNode):
    """``u`` (max): both sides materialised."""

    __slots__ = ()
    kernel = "max-union"


# ----------------------------------------------------------------------
# Unary operators
# ----------------------------------------------------------------------

class _UnaryNode(PhysicalNode):
    __slots__ = ("child",)

    def __init__(self, child: PhysicalNode, estimated=None):
        super().__init__(estimated)
        self.child = child

    def children(self):
        return (self.child,)


class HashDedup(_UnaryNode):
    """``eps``: duplicate elimination."""

    __slots__ = ()
    kernel = "dedup"


class StreamingMap(_UnaryNode):
    """``MAP``: ``fn`` is a compiled closure when the lowering pass
    recognised the lambda shape, otherwise ``None`` and the lambda is
    applied through the evaluator."""

    __slots__ = ("lam", "fn", "compiled")
    kernel = "map"

    def __init__(self, child: PhysicalNode, lam,
                 fn: Optional[Callable[[Any], Any]], estimated=None):
        super().__init__(child, estimated)
        self.lam = lam
        self.fn = fn
        self.compiled = fn is not None


class StreamingSelect(_UnaryNode):
    """``sigma``: filter; predicate compiled when possible."""

    __slots__ = ("make_predicate", "compiled")
    kernel = "select"

    def __init__(self, child: PhysicalNode, make_predicate, compiled:
                 bool, estimated=None):
        super().__init__(child, estimated)
        self.make_predicate = make_predicate
        self.compiled = compiled


class MultiplicityScale(_UnaryNode):
    """Multiply every count by a constant — the lowering of
    ``e (+) e`` and of products with single-tuple constants."""

    __slots__ = ("factor",)
    kernel = "scale"

    def __init__(self, child: PhysicalNode, factor: int, estimated=None):
        super().__init__(child, estimated)
        self.factor = factor

    def label(self, actual_rows=None):
        return super().label(actual_rows) + f"  x{self.factor}"


class FlattenBags(_UnaryNode):
    """``delta``: flatten, scaling inner by outer counts (barrier)."""

    __slots__ = ()
    kernel = "flatten"


class NestBuild(_UnaryNode):
    """``nest_J``: grouping kernel (barrier)."""

    __slots__ = ("indices",)
    kernel = "nest-build"

    def __init__(self, child: PhysicalNode, indices: Tuple[int, ...],
                 estimated=None):
        super().__init__(child, estimated)
        self.indices = indices


class UnnestExpand(_UnaryNode):
    """``unnest_i``: expansion of a bag-valued attribute (barrier)."""

    __slots__ = ("index",)
    kernel = "unnest"

    def __init__(self, child: PhysicalNode, index: int, estimated=None):
        super().__init__(child, estimated)
        self.index = index


class PowersetExpand(_UnaryNode):
    """``P`` / ``P_b``: budget-checked subbag expansion (barrier)."""

    __slots__ = ("duplicate_aware",)

    def __init__(self, child: PhysicalNode, duplicate_aware: bool,
                 estimated=None):
        super().__init__(child, estimated)
        self.duplicate_aware = duplicate_aware

    @property
    def kernel(self) -> str:  # type: ignore[override]
        return "powerbag" if self.duplicate_aware else "powerset"


# ----------------------------------------------------------------------
# Products and joins
# ----------------------------------------------------------------------

class NestedLoopProduct(_BinaryNode):
    """``x``: the left side probes a materialised right side.

    The lowering pass uses this when no equality predicate can be
    fused, or when the estimated inputs are too small for a hash join
    to pay for its table build.
    """

    __slots__ = ()
    kernel = "nested-loop-product"


class HashJoin(_BinaryNode):
    """Fused ``sigma_{alpha_i = alpha_j}(B x B')`` as an equi-join.

    ``left``/``right`` keep the logical product order; ``build_right``
    says which side the lowering pass chose to hash (the estimated
    smaller one).
    """

    __slots__ = ("left_key", "right_key", "build_right")
    kernel = "hash-join"

    def __init__(self, left: PhysicalNode, right: PhysicalNode,
                 left_key: Tuple[int, ...], right_key: Tuple[int, ...],
                 build_right: bool, estimated=None):
        super().__init__(left, right, estimated)
        self.left_key = left_key
        self.right_key = right_key
        self.build_right = build_right

    @staticmethod
    def _key_fn(indices: Tuple[int, ...]):
        if len(indices) == 1:
            index = indices[0]
            return lambda tup: tup.attribute(index)
        return lambda tup: tuple(tup.attribute(i) for i in indices)

    def label(self, actual_rows=None):
        keys = (f"L{list(self.left_key)}=R{list(self.right_key)}"
                f"  build={'right' if self.build_right else 'left'}")
        return super().label(actual_rows) + "  " + keys


def render_plan(node: PhysicalNode, indent: int = 0,
                actual: Optional[Mapping[int, int]] = None) -> str:
    """Render a physical plan tree as text (used by ``:explain``);
    ``actual`` (a run's ``EngineStats.node_rows``) adds each node's
    measured rows."""
    lines = ["  " * indent + node.label(
        None if actual is None else actual.get(id(node)))]
    for child in node.children():
        lines.append(render_plan(child, indent + 1, actual))
    return "\n".join(lines)
