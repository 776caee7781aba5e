"""Hash partitioning and shard-local segment programs.

The bag operators of the paper distribute over a *hash partition of
the value space*: for any deterministic shard function ``s(v)``, all
copies of a value ``v`` — in every operand — land in the same shard,
so monus, min-intersection, max-union, dedup, scaling, and selection
compute their exact per-value multiplicities shard-locally, and the
gather step is a plain count merge.  (This is the semiring view of
multiplicities made operational: each shard carries a sub-semimodule
of the bag, and the partition-compatible operators are module
homomorphisms.)  Two operators consume the *choice* of shard function
instead of merely preserving it:

* hash join — both sides must be partitioned by their join key;
* nest — the input must be partitioned by the group key (the
  complement of the nested attributes).

Everything else (powerset, powerbag, flatten, unnest, oracle
fallbacks) forces a gather barrier: those subtrees are materialised
once, serially, and become partitioned *inputs* of the segment.

A *segment* is the unit shipped to workers: a closure-free program of
kernel steps over input slots (:func:`execute_program`).  Keeping the
program declarative — attribute indices and constants, never compiled
closures — is what makes the process backend possible: a program plus
its shard inputs pickles, a closure does not.  Each worker compiles
the declarative program **once** into a list of columnar step
closures (predicates, mappers, and key projectors prebuilt; kernels
from :mod:`repro.engine.columnar`) and caches it in a process-local
cache keyed by the planner's pass tag plus the program itself, so
every subsequent morsel of the same plan reuses the compiled segment
(:func:`compiled_segment_for`).

:data:`PARTITION_COMPAT` is the compatibility table the docs and the
lowering pass share; :func:`compile_parallel_segment` turns a logical
expression into a program plus leaf partition specs, or ``None`` when
the root operator is not partition-compatible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.core.bag import Tup
from repro.core.database import encoding_size
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Const, Dedup, Expr,
    Intersection, Lam, Map, MaxUnion, Select, Subtraction, Tupling,
    Var, _compare,
)
from repro.core.nest import Nest
from repro.engine.columnar import (
    c_add_union, c_hash_join, c_max_union, c_min_intersect, c_monus,
    c_nest, c_scale_dict, sum_counts,
)

__all__ = [
    "PARTITION_COMPAT", "ParallelPolicy", "ParallelSegment", "LeafSpec",
    "shard_of", "split_counts", "merge_counts", "counts_size",
    "execute_program", "compile_parallel_segment",
    "compiled_segment_for", "clear_segment_cache", "segment_cache_len",
]

#: Kernel name -> how it behaves under a hash partition of the value
#: space.  ``local`` runs shard-local under any value partition;
#: ``key-local`` runs shard-local only when the inputs are partitioned
#: on the operator's key (join key / group key); ``root-local`` runs
#: shard-local but destroys value-disjointness, so it is admitted only
#: as the last step before the gather; ``barrier`` forces a gather —
#: the subtree is materialised serially and partitioned as an input.
PARTITION_COMPAT: Dict[str, str] = {
    "scan": "local",
    "const": "local",
    "additive-union": "local",
    "monus": "local",
    "min-intersect": "local",
    "max-union": "local",
    "dedup": "local",
    "scale": "local",
    "select": "local",
    "map": "root-local",
    "hash-join": "key-local",
    "nest-build": "key-local",
    "flatten": "barrier",
    "unnest": "barrier",
    "powerset": "barrier",
    "powerbag": "barrier",
    "nested-loop-product": "barrier",
    "oracle": "barrier",
    "shared": "barrier",
}


@dataclass(frozen=True)
class ParallelPolicy:
    """Plan-time knobs of the parallelism pass.

    ``threshold`` is the minimum *estimated total input cardinality*
    (summed over the segment's leaves) below which the pass refuses to
    insert an exchange — fanning out a few hundred rows costs more
    than it saves.  A threshold of ``0`` forces exchanges wherever a
    segment compiles (the differential harness uses this to fuzz the
    partition machinery on tiny bags).
    """

    threshold: float = 1024.0


@dataclass
class LeafSpec:
    """One segment input: the subtree feeding the slot plus the
    partition key (attribute indices; ``None`` = whole-value hash)."""

    expr: Expr
    key: Optional[Tuple[int, ...]] = None


@dataclass
class ParallelSegment:
    """A compiled segment: the step program plus its input leaves."""

    program: Tuple[Tuple, ...]
    leaves: List[LeafSpec]


# ----------------------------------------------------------------------
# Shard arithmetic
# ----------------------------------------------------------------------

def _key_projector(indices: Optional[Sequence[int]]
                   ) -> Callable[[Any], Any]:
    if not indices:
        return lambda value: value
    if len(indices) == 1:
        index = indices[0]
        return lambda value: value.attribute(index)
    fixed = tuple(indices)
    return lambda value: tuple(value.attribute(i) for i in fixed)


def shard_of(value: Any, num_shards: int,
             key: Optional[Sequence[int]] = None) -> int:
    """The shard a value belongs to under a key projection."""
    return hash(_key_projector(key)(value)) % num_shards


def split_counts(counts: Dict[Any, int], num_shards: int,
                 key: Optional[Sequence[int]] = None
                 ) -> List[Dict[Any, int]]:
    """Split a count dict into ``num_shards`` disjoint shard dicts.

    The shard of a value is a pure function of the value (optionally
    through a key projection), so every copy of a value — across all
    co-partitioned operands — lands in the same shard.
    """
    shards: List[Dict[Any, int]] = [{} for _ in range(num_shards)]
    if num_shards == 1:
        shards[0].update(counts)
        return shards
    project = _key_projector(key)
    for value, count in counts.items():
        shards[hash(project(value)) % num_shards][value] = count
    return shards


def merge_counts(shards: Sequence[Dict[Any, int]],
                 sr=None) -> Dict[Any, int]:
    """Sum-merge shard results in shard order (the ordered gather)."""
    merged: Dict[Any, int] = {}
    get = merged.get
    if sr is None:
        for shard in shards:
            for value, count in shard.items():
                merged[value] = get(value, 0) + count
        return merged
    add = sr.add
    for shard in shards:
        for value, count in shard.items():
            existing = get(value)
            merged[value] = (count if existing is None
                             else add(existing, count))
    return merged


def counts_size(counts: Dict[Any, int]) -> int:
    """Standard-encoding size of a materialised count dict (the same
    measure :meth:`ExecContext.check_size` applies); non-integer
    semiring annotations weigh one occurrence."""
    return 1 + sum((count if isinstance(count, int) else 1)
                   * encoding_size(value)
                   for value, count in counts.items())


# ----------------------------------------------------------------------
# Segment programs
# ----------------------------------------------------------------------

def _predicate_for(op: str, index: int, rhs: Tuple) -> Callable[[Any], bool]:
    if rhs[0] == "attr":
        other = rhs[1]
        if op == "eq":
            return lambda t: t.attribute(index) == t.attribute(other)
        return lambda t: _compare(op, t.attribute(index),
                                  t.attribute(other))
    constant = rhs[1]
    if op == "eq":
        return lambda t: t.attribute(index) == constant
    return lambda t: _compare(op, t.attribute(index), constant)


def _mapper_for(spec: Tuple) -> Callable[[Any], Any]:
    kind, payload = spec
    if kind == "val":
        part_kind, part = payload
        if part_kind == "attr":
            return lambda t: t.attribute(part)
        return lambda t: part
    parts = payload

    def build(t, parts=parts):
        return Tup(*(t.attribute(p) if k == "attr" else p
                     for k, p in parts))

    return build


def _compile_step(step: Tuple, sr=None) -> Tuple[str, Callable]:
    """Compile one declarative program step into a columnar closure.

    The closure takes ``(slots, tick)`` and returns a fresh count
    dict; predicates, mappers, and key projectors are built **here**,
    once per compiled segment, never per morsel.  Only the join kernel
    consumes ``tick`` directly (it is the one step that can emit far
    more rows than it reads); every other step is governed by the
    driver's proportional post-step ticking.

    ``sr`` is the multiplicity semiring (``None`` = N): the closures
    thread it into the columnar kernels, which keep their own int
    fast paths, so the N specialisation is unchanged.
    """
    op = step[0]
    if op == "union":
        i, j = step[1], step[2]
        return op, lambda slots, tick: c_add_union(slots[i], slots[j],
                                                   sr)
    if op == "monus":
        i, j = step[1], step[2]
        return op, lambda slots, tick: c_monus(slots[i], slots[j], sr)
    if op == "intersect":
        i, j = step[1], step[2]
        return op, lambda slots, tick: c_min_intersect(slots[i],
                                                       slots[j], sr)
    if op == "max":
        i, j = step[1], step[2]
        return op, lambda slots, tick: c_max_union(slots[i], slots[j],
                                                   sr)
    if op == "dedup":
        i = step[1]
        one = 1 if sr is None else sr.one
        return op, lambda slots, tick: dict.fromkeys(slots[i], one)
    if op == "scale":
        i, factor = step[1], step[2]
        return op, lambda slots, tick: c_scale_dict(slots[i], factor,
                                                    sr)
    if op == "select":
        i = step[1]
        predicate = _predicate_for(step[2], step[3], step[4])
        return op, lambda slots, tick: {
            value: count for value, count in slots[i].items()
            if predicate(value)}
    if op == "map":
        i = step[1]
        mapper = _mapper_for(step[2])
        return op, lambda slots, tick: sum_counts(
            map(mapper, slots[i]), slots[i].values(), sr)
    if op == "join":
        i, j = step[1], step[2]
        probe_key = _key_projector((step[3],))
        build_key = _key_projector((step[4],))

        def join(slots, tick, i=i, j=j):
            probe = slots[i]
            values, counts = c_hash_join(
                list(probe.keys()), list(probe.values()), slots[j],
                probe_key, build_key, probe_is_left=True, tick=tick,
                sr=sr)
            return sum_counts(values, counts, sr)

        return op, join
    if op == "nest":
        i, indices = step[1], step[2]
        return op, lambda slots, tick: c_nest(slots[i], indices, sr)
    raise ValueError(f"unknown segment op {op!r}")  # pragma: no cover


#: Worker-local compiled segments: ``(tag, program) -> [(op, fn)]``.
#: Lives at module level so it survives across morsels of one worker
#: process (fork'd children inherit the parent's warm entries too).
#: The tag is the planner's ``PassConfig.cache_tag()`` — a config
#: change (different passes, different selectivity) must compile a
#: fresh segment even for a syntactically identical program.
_SEGMENT_CACHE: Dict[Tuple[Any, Tuple[Tuple, ...]], List[Tuple[str, Callable]]] = {}
_SEGMENT_CACHE_CAP = 256


def compiled_segment_for(program: Sequence[Tuple],
                         tag: Optional[Tuple] = None,
                         stats=None,
                         sr=None) -> List[Tuple[str, Callable]]:
    """The compiled closure list for a program, compiled at most once
    per worker per ``(tag, program)``.  Hit/miss counts land in
    ``stats`` (an :class:`~repro.engine.physical.EngineStats`), which
    the exchange merges back into the parent — so ``:explain`` shows
    how often workers reused a resident segment.  The tag (the
    planner's ``cache_tag()``) already carries the semiring name, so
    N and generic compilations of the same program never collide."""
    key = (tag, tuple(program))
    compiled = _SEGMENT_CACHE.get(key)
    if compiled is not None:
        if stats is not None:
            stats.segment_cache_hits += 1
        return compiled
    compiled = [_compile_step(step, sr) for step in program]
    if len(_SEGMENT_CACHE) >= _SEGMENT_CACHE_CAP:
        _SEGMENT_CACHE.pop(next(iter(_SEGMENT_CACHE)))
    _SEGMENT_CACHE[key] = compiled
    if stats is not None:
        stats.segment_cache_misses += 1
    return compiled


def clear_segment_cache() -> None:
    """Drop every compiled segment (tests; a respawned pool starts
    cold anyway because a fresh process starts with an empty dict)."""
    _SEGMENT_CACHE.clear()


def segment_cache_len() -> int:
    """Number of resident compiled segments in this process."""
    return len(_SEGMENT_CACHE)


def execute_program(program: Sequence[Tuple],
                    inputs: Sequence[Dict[Any, int]],
                    tick: Optional[Callable[[], None]] = None,
                    every: int = 128,
                    check_size: Optional[Callable[[int], None]] = None,
                    stats=None,
                    fault: Optional[Callable[[int], None]] = None,
                    tag: Optional[Tuple] = None,
                    sr=None) -> Dict[Any, int]:
    """Run a segment program over one shard's input dicts.

    Slots ``0..len(inputs)-1`` are the inputs; step ``k`` of the
    program produces slot ``len(inputs)+k``; the last step's dict is
    the shard's result.  ``tick`` is the worker governor's tick (step
    budget / deadline / cancellation), ``check_size`` its
    intermediate-size check, ``stats`` an optional
    :class:`~repro.engine.physical.EngineStats` fed per step.

    The program is compiled (once per worker, see
    :func:`compiled_segment_for`) into columnar closures over the
    dict kernels of :mod:`repro.engine.columnar`; each step runs as
    one bulk dict operation instead of a per-row generator chain.
    Governance is preserved per step: the driver ticks once before a
    step and proportionally to the result size after it (so budgets,
    deadlines, and cancellation trip with the granularity of the
    serial fused segments), the join kernel additionally ticks inside
    per ``TICK_CHUNK`` emitted rows, and every step's materialised
    size passes through ``check_size``.

    ``fault`` is the chaos hook: called with the 0-based program-step
    index *before* the step runs, it may raise to simulate a worker
    dying mid-segment.  Because the input dicts are never mutated —
    every step produces a fresh dict in a new slot — a retry from the
    same inputs is idempotent no matter where a previous attempt died.
    """
    compiled = compiled_segment_for(program, tag=tag, stats=stats,
                                    sr=sr)
    slots: List[Dict[Any, int]] = list(inputs)
    for position, (op, fn) in enumerate(compiled):
        if fault is not None:
            fault(position)
        if tick is not None:
            tick()
        result = fn(slots, tick)
        if tick is not None:
            for _ in range(len(result) // every):
                tick()
        if check_size is not None:
            check_size(counts_size(result))
        if stats is not None:
            stats.record_kernel(f"p-{op}")
            stats.rows_emitted += len(result)
        slots.append(result)
    return slots[-1]


# ----------------------------------------------------------------------
# Segment compilation (logical expression -> program + leaves)
# ----------------------------------------------------------------------

_VP_BINARY = {AdditiveUnion: "union", Subtraction: "monus",
              Intersection: "intersect", MaxUnion: "max"}


def _select_spec(select: Select) -> Optional[Tuple[str, int, Tuple]]:
    """``(op, i, rhs)`` for declarative selections
    ``sigma[t: alpha_i(t) op (alpha_j(t) | const)]``; ``None`` when
    either lambda resists (the evaluator would be needed)."""
    left = select.left.body
    if not (isinstance(left, Attribute)
            and isinstance(left.operand, Var)
            and left.operand.name == select.left.param):
        return None
    right = select.right.body
    if (isinstance(right, Attribute)
            and isinstance(right.operand, Var)
            and right.operand.name == select.right.param):
        return (select.op, left.index, ("attr", right.index))
    if isinstance(right, Const):
        value = right.value
        if isinstance(value, (str, int, float, bool)):
            return (select.op, left.index, ("const", value))
    return None


def _map_spec(lam: Lam) -> Optional[Tuple]:
    """Declarative MAP bodies: a projection, a constant, or a tupling
    of projections/constants."""

    def part_of(body: Expr) -> Optional[Tuple]:
        if (isinstance(body, Attribute) and isinstance(body.operand, Var)
                and body.operand.name == lam.param):
            return ("attr", body.index)
        if isinstance(body, Const) and isinstance(
                body.value, (str, int, float, bool)):
            return ("const", body.value)
        return None

    body = lam.body
    if isinstance(body, Tupling) and body.parts:
        parts = tuple(part_of(part) for part in body.parts)
        if any(part is None for part in parts):
            return None
        return ("tup", parts)
    single = part_of(body)
    if single is None:
        return None
    return ("val", single)


class _SegmentCompiler:
    """One compilation attempt over one expression root.

    ``arity_of`` resolves the tuple arity of a subexpression (needed
    to split join attribute positions and to complement nest indices);
    it may return ``None``, which makes the key operators refuse.
    """

    def __init__(self, arity_of: Callable[[Expr], Optional[int]]):
        self.arity_of = arity_of
        self.steps: List[Tuple] = []
        self.leaves: List[LeafSpec] = []
        # common-subexpression sharing: an expression tree repeats
        # shared subtrees textually (the chain workloads repeat their
        # relations at every level), but a shard is a pure function of
        # (leaf expression, partition key) and a step a pure function
        # of its tuple — so equal leaves and equal steps collapse to
        # one slot instead of being materialised, shipped, and
        # executed once per occurrence.
        self._leaf_slots: Dict[Any, int] = {}
        self._step_refs: Dict[Tuple, int] = {}
        self._current_key: Optional[Tuple[int, ...]] = None

    # -- leaves -----------------------------------------------------------

    def _leaf(self, expr: Expr) -> int:
        slot_key = (self._current_key, expr)
        slot = self._leaf_slots.get(slot_key)
        if slot is None:
            self.leaves.append(LeafSpec(expr, self._current_key))
            slot = len(self.leaves) - 1
            self._leaf_slots[slot_key] = slot
        return slot

    # -- value-preserving trees ------------------------------------------

    def _vp(self, expr: Expr) -> int:
        """Compile a value-preserving subtree; anything else becomes a
        leaf slot (materialised serially, partitioned as input)."""
        cls = type(expr)
        if cls in _VP_BINARY:
            if cls is AdditiveUnion and expr.left == expr.right:
                inner = self._vp(expr.left)
                return self._push(("scale", inner, 2))
            left = self._vp(expr.left)
            right = self._vp(expr.right)
            return self._push((_VP_BINARY[cls], left, right))
        if isinstance(expr, Dedup):
            return self._push(("dedup", self._vp(expr.operand)))
        if isinstance(expr, Select):
            spec = _select_spec(expr)
            if spec is not None and self._join_shape(expr) is None:
                inner = self._vp(expr.operand)
                return self._push(("select", inner, *spec))
        return self._leaf(expr)

    def _push(self, step: Tuple) -> int:
        ref = self._step_refs.get(step)
        if ref is None:
            self.steps.append(step)
            ref = -len(self.steps)  # negative step slot, resolved later
            self._step_refs[step] = ref
        return ref

    # -- key operators ----------------------------------------------------

    def _join_shape(self, expr: Expr):
        """``(left, right, i, j_local)`` when the selection is an
        attribute equality crossing a product boundary."""
        if not (isinstance(expr, Select) and expr.op == "eq"
                and isinstance(expr.operand, Cartesian)):
            return None
        spec = _select_spec(expr)
        if spec is None or spec[2][0] != "attr":
            return None
        product = expr.operand
        left_arity = self.arity_of(product.left)
        if left_arity is None:
            return None
        i, j = sorted((spec[1], spec[2][1]))
        if not (i <= left_arity < j):
            return None
        return (product.left, product.right, i, j - left_arity)

    def _key_side(self, expr: Expr, key: Tuple[int, ...]) -> int:
        """Compile one side of a key operator: a value-preserving tree
        whose leaves are partitioned by the operator's key.  The key
        scopes the CSE map — the same subtree needed under a different
        partitioning is a different shard and keeps its own slot."""
        previous = self._current_key
        self._current_key = key
        try:
            return self._vp(expr)
        finally:
            self._current_key = previous

    # -- entry ------------------------------------------------------------

    def compile(self, expr: Expr) -> Optional[ParallelSegment]:
        map_spec = None
        if isinstance(expr, Map):
            map_spec = _map_spec(expr.lam)
            if map_spec is None:
                return None  # the pass retries on the operand
            expr = expr.operand
        root = self._core(expr)
        if root is None or not self.steps:
            return None
        if map_spec is not None:
            root = self._push(("map", root, map_spec))
        program = self._resolve(root)
        if program is None:
            return None
        return ParallelSegment(program, self.leaves)

    def _core(self, expr: Expr) -> Optional[int]:
        """The segment spine: unary value-preserving operators above at
        most one key operator (join or nest), else a pure VP tree."""
        if isinstance(expr, Dedup):
            inner = self._core(expr.operand)
            if inner is None:
                return None
            return self._push(("dedup", inner))
        join = self._join_shape(expr) if isinstance(expr, Select) else None
        if join is not None:
            left, right, i, j = join
            a = self._key_side(left, (i,))
            b = self._key_side(right, (j,))
            return self._push(("join", a, b, i, j))
        if isinstance(expr, Select):
            spec = _select_spec(expr)
            if spec is None:
                return None
            inner = self._core(expr.operand)
            if inner is None:
                return None
            return self._push(("select", inner, *spec))
        if isinstance(expr, Nest):
            arity = self.arity_of(expr.operand)
            if arity is None:
                return None
            indices = expr.indices
            if max(indices) > arity or min(indices) < 1:
                return None
            rest = tuple(i for i in range(1, arity + 1)
                         if i not in indices)
            if not rest:
                return None  # grouping by the empty key: one global group
            slot = self._key_side(expr.operand, rest)
            return self._push(("nest", slot, indices))
        return self._vp(expr)

    def _resolve(self, root: int) -> Optional[Tuple[Tuple, ...]]:
        """Rewrite negative step references into absolute slot ids
        (leaves occupy ``0..L-1``, step k produces ``L+k``)."""
        base = len(self.leaves)

        def fix(ref: int) -> int:
            return ref if ref >= 0 else base + (-ref - 1)

        resolved = []
        for step in self.steps:
            op = step[0]
            if op in ("union", "monus", "intersect", "max"):
                resolved.append((op, fix(step[1]), fix(step[2])))
            elif op in ("dedup",):
                resolved.append((op, fix(step[1])))
            elif op in ("scale", "map", "nest"):
                resolved.append((op, fix(step[1]), step[2]))
            elif op == "select":
                resolved.append((op, fix(step[1]), *step[2:]))
            elif op == "join":
                resolved.append((op, fix(step[1]), fix(step[2]),
                                 step[3], step[4]))
            else:  # pragma: no cover
                return None
        if fix(root) != base + len(resolved) - 1:
            return None  # the root must be the last step
        return tuple(resolved)


def compile_parallel_segment(expr: Expr,
                             arity_of: Callable[[Expr], Optional[int]]
                             ) -> Optional[ParallelSegment]:
    """Compile an expression into a shard-local segment, or ``None``
    when the root is not partition-compatible (the lowering pass then
    recurses and retries on the children)."""
    segment = _SegmentCompiler(arity_of).compile(expr)
    if segment is None or not segment.program or not segment.leaves:
        return None
    # A segment that is a bare passthrough of one leaf parallelises
    # nothing; require at least one real kernel step over the fan-out.
    return segment
