"""The three seeded query workloads.

Every workload is a closed loop with one client: the next request is
sent only after the previous one has returned.  A workload object
builds its inputs from ``seed`` alone (:meth:`setup`), then yields an
endless, deterministic stream of :class:`Request` objects
(:meth:`requests`).  The engine sees only the generated expressions
and bags; the seed never reaches it.

``scale="smoke"`` shrinks every size so that the benchmark's own tests
can run every workload in seconds.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.bag import Bag, Tup
from repro.core.errors import GovernedError, ResourceLimitError
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Dedup, Expr, Lam, Map, Select,
    Subtraction, Tupling, Var, const, var,
)
from repro.core.nest import Nest, Unnest
from repro.engine import PlanCache, evaluate
from repro.guard import Limits
from repro.storage import Workspace
from repro.testkit.differential import DEFAULT_LIMITS
from repro.testkit.generate import generate_case

from perfbench import reference

__all__ = ["Request", "WORKLOADS", "make_workload"]

#: Governed limits of the bulk workloads: generous, but on, as a
#: production caller would run them.
BULK_LIMITS = Limits(max_steps=500_000_000, timeout=150.0)


@dataclass
class Request:
    """One query of a workload, with everything needed to run and check
    it.  ``template`` names the query family (bulk templates, warm-small
    shape classes, ``adhoc`` for generated cases)."""

    index: int
    template: str
    expr: Expr
    database: Dict[str, Any]
    semiring: Optional[str] = None
    #: ``() -> Bag`` computing the independent reference answer.
    reference: Optional[Callable[[], Any]] = None
    #: ``(slot, inputs)``: consecutive requests of one slot whose
    #: inputs compare equal share one reference answer.
    reference_key: Any = None
    #: Requests of one kind do the same work on the same inputs, so
    #: the timed loop pools their timings; None: the request's cycle
    #: position is its kind.
    kind: Any = None


@dataclass
class Setup:
    """What :meth:`setup` produced, plus how long each step took."""

    seconds: float
    steps: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Query shapes
# ----------------------------------------------------------------------

def _attr(index: int) -> Attribute:
    return Attribute(Var("t"), index)


def sym_diff_step(x: Expr, y: Expr) -> Expr:
    """One level of the symmetric-difference chain:
    ``eps((x - y) (+) (y - x))``."""
    return Dedup(AdditiveUnion(Subtraction(x, y), Subtraction(y, x)))


def sym_diff_chain(depth: int, x: str = "X", y: str = "Y") -> Expr:
    expr: Expr = var(x)
    for _ in range(depth):
        expr = sym_diff_step(expr, var(y))
    return expr


def union_dedup_cascade(levels: int, names: List[str]) -> Expr:
    """``eps(acc (+) A_j)`` iterated over ``names[1:]`` cyclically."""
    expr: Expr = var(names[0])
    others = names[1:]
    for level in range(levels):
        expr = Dedup(AdditiveUnion(expr, var(others[level % len(others)])))
    return expr


def select_join_dedup(left: str, right: str,
                      project: bool = False) -> Expr:
    """``eps(sigma_{2=3}(L x R))``: a hash join on ``L.2 = R.1``, then
    dedup; ``project`` keeps only the path end points."""
    joined: Expr = Select(Lam("t", _attr(2)), Lam("t", _attr(3)),
                          Cartesian(var(left), var(right)))
    if project:
        joined = Map(Lam("t", Tupling(_attr(1), _attr(4))), joined)
    return Dedup(joined)


def map_select_chain(length: int, name: str, atom: int) -> Expr:
    """Alternating swap maps and ``t.1 != atom`` selections."""
    swap = Lam("t", Tupling(_attr(2), _attr(1)))
    expr: Expr = var(name)
    for step in range(length):
        if step % 2 == 0:
            expr = Select(Lam("t", _attr(1)), Lam("t", const(atom)),
                          expr, op="ne")
        expr = Map(swap, expr)
    return expr


def nest_group(name: str) -> Expr:
    """``unnest_2(nest_2(G))``: group by attribute 1, then flatten."""
    return Unnest(Nest(var(name), 2), 2)


def random_graph(rng: random.Random, nodes: int, edges: int) -> Bag:
    """``edges`` draws with replacement over ``nodes`` int nodes, so
    parallel edges (duplicates) occur."""
    return Bag([Tup(rng.randrange(nodes), rng.randrange(nodes))
                for _ in range(edges)])


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """Base class: engine options shared by the timed and traced runs."""

    name = ""
    why = ""
    #: ``engine.evaluate`` keyword arguments of every request.
    engine_options: Dict[str, Any] = {}
    limits: Limits = DEFAULT_LIMITS

    def __init__(self, seed: int, scale: str, workdir: str):
        self.seed = seed
        self.scale = scale
        self.params = self.PARAMS[scale]
        #: where set-up may write (the bulk workspaces)
        self.workdir = workdir
        self.catalog = None

    def describe(self) -> Dict[str, Any]:
        return {"workload": self.name, "loop": "closed", "clients": 1,
                "think_time_s": 0, "scale": self.scale,
                "engine_options": dict(self.engine_options),
                "params": self.params, "why": self.why}

    def new_cache(self) -> PlanCache:
        return PlanCache(capacity=self.params["cache_capacity"])

    def run(self, request: Request, cache: PlanCache,
            **overrides) -> Any:
        """The request as a user sends it: one ``engine.evaluate``."""
        options = dict(self.engine_options)
        options.update(overrides)
        return evaluate(request.expr, request.database, cache=cache,
                        limits=self.limits, semiring=request.semiring,
                        catalog=self.catalog, **options)

    def warm(self, cache: PlanCache, **overrides) -> None:
        """Fill ``cache`` with every plan the requests will use, by
        sending each of them once.  A warm-up request the governor
        refuses has still filled the cache; it is not a timed request,
        so its refusal is not counted."""
        for request in self.warmup_requests():
            try:
                self.run(request, cache, **overrides)
            except (GovernedError, ResourceLimitError):
                pass

    def cycle_length(self) -> int:
        """Requests per repetition of the workload's mix."""
        return 1

    def close(self) -> None:
        """Release what :meth:`setup` acquired."""


class WarmSmall(Workload):
    name = "warm-small"
    why = ("32 small shapes, every request a plan-cache hit, so the "
           "warm path (cache key, free vars, capture, adaptation) "
           "dominates")
    engine_options = {"engine": "codegen"}
    PARAMS = {
        "full": {"relations": 6, "rows": 30, "distinct": 22, "atoms": 8,
                 "shapes": {"sym-diff": [1, 2, 3, 4, 5, 6, 7, 8],
                            "union-dedup": [2, 3, 4, 5, 6, 8, 10, 12],
                            "join": 8, "map-select": [1, 2, 2, 3, 3,
                                                      4, 4, 5]},
                 "passes": 4, "bool_every": 4, "rebind_every": 8,
                 "setup_repeats": 5, "trace_requests": 256,
                 "cache_capacity": 256},
        "smoke": {"relations": 3, "rows": 8, "distinct": 6, "atoms": 4,
                  "shapes": {"sym-diff": [1, 3], "union-dedup": [2],
                             "join": 1, "map-select": [2]},
                  "passes": 2, "bool_every": 4, "rebind_every": 8,
                  "setup_repeats": 2, "trace_requests": 16,
                  "cache_capacity": 256},
    }

    def _rows(self, rng: random.Random) -> List[Tuple[int, int]]:
        """``rows`` pairs over ``atoms`` atoms, ``distinct`` of them
        distinct, every atom in each column of the distinct pairs as
        often as every other (give or take one): seeds vary which
        pairs occur and which repeat, not how much data a request
        reads or how many pairs a join matches."""
        atoms, distinct = self.params["atoms"], self.params["distinct"]
        firsts = [k % atoms for k in range(distinct)]
        seconds = list(firsts)
        while True:
            rng.shuffle(seconds)
            rows = list(zip(firsts, seconds))
            if len(set(rows)) == distinct:
                break
        rows += [rng.choice(rows)
                 for _ in range(self.params["rows"] - distinct)]
        return rows

    @staticmethod
    def _bag(rows: List[Tuple[int, int]]) -> Bag:
        """A fresh bag (new object, new tuples) of ``rows``."""
        return Bag([Tup(a, b) for a, b in rows])

    def setup(self) -> Setup:
        """Seeded relations under a fixed pool: which relations a shape
        reads follows from its position, so seeds differ in data and
        constants, not in the query mix."""
        start = time.perf_counter()
        rng = random.Random(self.seed)
        names = [f"R{i}" for i in range(self.params["relations"])]
        self.base = {name: self._bag(self._rows(rng)) for name in names}
        self.database = dict(self.base)

        def pick(first: int, count: int) -> List[str]:
            return [names[(first + k) % len(names)] for k in range(count)]

        shapes = self.params["shapes"]
        pool: List[Tuple[str, Expr, Optional[int]]] = []
        for index, depth in enumerate(shapes["sym-diff"]):
            pool.append(("sym-diff", sym_diff_chain(depth, *pick(index, 2)),
                         depth))
        for index, levels in enumerate(shapes["union-dedup"]):
            chosen = pick(index, 2 + index % (len(names) - 1))
            pool.append(("union-dedup",
                         union_dedup_cascade(levels, chosen), None))
        for index in range(shapes["join"]):
            pool.append(("join", select_join_dedup(
                *pick(index, 2), project=index % 2 == 1), None))
        for index, length in enumerate(shapes["map-select"]):
            pool.append(("map-select", map_select_chain(
                length, names[index % len(names)],
                rng.randrange(self.params["atoms"])), None))
        self.pool = pool
        self.cache = self.new_cache()
        self.warm(self.cache)
        return Setup(time.perf_counter() - start)

    def warmup_requests(self) -> Iterator[Request]:
        for index, (template, expr, _) in enumerate(self.pool):
            for semiring in (None, "bool"):
                yield Request(index, template, expr, self.database,
                              semiring)

    def _cycle(self) -> List[Tuple[int, Optional[str], Optional[Tuple]]]:
        """The round's requests: ``passes`` seeded shuffles of the pool,
        each entry ``(shape, semiring, rebind)`` where ``rebind`` is
        ``(relation, rows)`` or None."""
        rng = random.Random(self.seed * 7919 + 1)
        bool_every = self.params["bool_every"]
        rebind_every = self.params["rebind_every"]
        cycle = []
        for _ in range(self.params["passes"]):
            order = list(range(len(self.pool)))
            rng.shuffle(order)
            for shape in order:
                index = len(cycle)
                expr = self.pool[shape][1]
                semiring = ("bool" if index % bool_every == bool_every - 1
                            else None)
                rebind = None
                if index % rebind_every == rebind_every - 1:
                    rebind = (rng.choice(sorted(expr.free_vars())),
                              self._rows(rng))
                cycle.append((shape, semiring, rebind))
        return cycle

    def cycle_length(self) -> int:
        return self.params["passes"] * len(self.pool)

    def requests(self) -> Iterator[Request]:
        """Rounds of the same cycle.  Each round starts from the set-up's
        relations; a rebind writes a fresh bag (new object, drawn once
        per position), so every round does the same work, rebinds
        included."""
        cycle = self._cycle()
        index = 0
        while True:
            self.database.clear()
            self.database.update(self.base)
            for position, (shape, semiring, rebind) in enumerate(cycle):
                template, expr, depth = self.pool[shape]
                if rebind is not None:
                    target, rows = rebind
                    self.database[target] = self._bag(rows)
                bound = {name: self.database[name]
                         for name in sorted(expr.free_vars())}
                yield Request(
                    index, template, expr, self.database, semiring,
                    reference=_tree_reference(expr, bound, semiring,
                                              self.limits, depth),
                    reference_key=(position, tuple(bound.items())))
                index += 1


class AdhocCompile(Workload):
    name = "adhoc-compile"
    why = ("512 distinct generated queries cycled through a 64-plan "
           "cache under DEFAULT_LIMITS, so every request misses and "
           "evicts and planner stages block it")
    engine_options = {"engine": "codegen"}
    PARAMS = {
        # the warm-up sends 256 cases through the 64-plan cache: long
        # enough that set-up time does not hinge on a few costly cases;
        # a round of 512 cases is 8 times the cache, so under LRU no
        # request finds its plan; short enough that a run holds about
        # 20 rounds, enough that p50 and p90 depend little on which
        # cases a seed draws
        "full": {"fragment": "mixed", "cache_capacity": 64,
                 "warmup_cases": 256, "cases": 512, "setup_repeats": 5,
                 "trace_requests": 400},
        "smoke": {"fragment": "mixed", "cache_capacity": 8,
                  "warmup_cases": 8, "cases": 24, "setup_repeats": 2,
                  "trace_requests": 24},
    }
    #: Warm-up cases come from an index range no request uses.
    WARMUP_BASE = 10_000_000

    def _case(self, index: int):
        return generate_case(self.seed, index,
                             fragment=self.params["fragment"])

    def setup(self) -> Setup:
        start = time.perf_counter()
        self.cache = self.new_cache()
        self.warm(self.cache)
        return Setup(time.perf_counter() - start)

    def warmup_requests(self) -> Iterator[Request]:
        for offset in range(self.params["warmup_cases"]):
            case = self._case(self.WARMUP_BASE + offset)
            yield Request(offset, "adhoc", case.expr,
                          dict(case.database))

    def cycle_length(self) -> int:
        return self.params["cases"]

    def requests(self) -> Iterator[Request]:
        """Rounds of the same ``cases`` queries.  Each request is
        generated afresh (new expression, new bags), so it meets no
        memo keyed by object identity; the plan cache holds an eighth
        of a round, so it meets no cached plan either."""
        index = 0
        while True:
            for position in range(self.params["cases"]):
                case = self._case(position)
                database = dict(case.database)
                yield Request(index, "adhoc", case.expr, database,
                              reference=_tree_reference(
                                  case.expr, database, None, self.limits,
                                  None),
                              reference_key=(position, None))
                index += 1


class Bulk(Workload):
    """Four large templates over a persisted, ANALYZEd workspace."""

    PARAMS = {
        "full": {"sym_diff": {"nodes": 120, "edges": 12_000, "depth": 6},
                 "join": {"nodes": 1000, "edges": 6_000},
                 "union_dedup": {"relations": 6, "nodes": 120,
                                 "edges": 9_000, "levels": 12},
                 "nest_group": {"nodes": 400, "edges": 12_000},
                 # 4:2:2:2, so that on both engines the fast pair of
                 # templates holds 60% of requests: p50 sits inside
                 # the fast class and p90 inside the slow one
                 "cycle": ["sym-diff", "union-dedup", "sym-diff",
                           "nest-group", "join", "sym-diff",
                           "union-dedup", "nest-group", "sym-diff",
                           "join"],
                 "setup_repeats": 3, "trace_requests": 10,
                 "cache_capacity": 64},
        # just above the parallelism pass's 1024-row threshold, so the
        # smoke traced run's process-backend requests still cross the
        # exchange layer
        "smoke": {"sym_diff": {"nodes": 30, "edges": 600, "depth": 3},
                  "join": {"nodes": 60, "edges": 600},
                  "union_dedup": {"relations": 3, "nodes": 30,
                                  "edges": 400, "levels": 4},
                  "nest_group": {"nodes": 20, "edges": 600},
                  "cycle": ["sym-diff", "union-dedup", "nest-group",
                            "join"],
                  "setup_repeats": 2, "trace_requests": 4,
                  "cache_capacity": 64},
    }
    limits = BULK_LIMITS
    _root: Optional[str] = None

    def generate(self) -> Dict[str, Bag]:
        p = self.params
        rng = random.Random(self.seed)
        sym, join = p["sym_diff"], p["join"]
        ud, ng = p["union_dedup"], p["nest_group"]
        data = {"X": random_graph(rng, sym["nodes"], sym["edges"]),
                "Y": random_graph(rng, sym["nodes"], sym["edges"]),
                "L": random_graph(rng, join["nodes"], join["edges"]),
                "R": random_graph(rng, join["nodes"], join["edges"]),
                "G": random_graph(rng, ng["nodes"], ng["edges"])}
        for i in range(ud["relations"]):
            data[f"A{i}"] = random_graph(rng, ud["nodes"], ud["edges"])
        return data

    def templates(self) -> Dict[str, Expr]:
        p = self.params
        ud = p["union_dedup"]
        return {
            "sym-diff": sym_diff_chain(p["sym_diff"]["depth"]),
            "join": select_join_dedup("L", "R"),
            "union-dedup": union_dedup_cascade(
                ud["levels"], [f"A{i}" for i in range(ud["relations"])]),
            "nest-group": nest_group("G"),
        }

    def setup(self) -> Setup:
        """Generate, persist, ANALYZE, reopen and load, then warm."""
        self.close()
        steps: Dict[str, float] = {}
        start = time.perf_counter()
        data = self.generate()
        steps["generate_s"] = time.perf_counter() - start
        os.makedirs(self.workdir, exist_ok=True)
        self._root = tempfile.mkdtemp(prefix="ws-", dir=self.workdir)
        mark = time.perf_counter()
        workspace = Workspace.create(self._root, name=self.name)
        for name, bag in data.items():
            workspace.save_relation(name, bag)
        steps["storage.save_s"] = time.perf_counter() - mark
        mark = time.perf_counter()
        workspace.analyze()
        steps["storage.analyze_s"] = time.perf_counter() - mark
        del workspace, data
        mark = time.perf_counter()
        reopened = Workspace.open(self._root)
        self.database = reopened.database()
        self.catalog = reopened
        steps["storage.load_s"] = time.perf_counter() - mark
        mark = time.perf_counter()
        self.exprs = self.templates()
        self.cache = self.new_cache()
        self.warm(self.cache)
        steps["warm_s"] = time.perf_counter() - mark
        return Setup(time.perf_counter() - start, steps)

    def warmup_requests(self) -> Iterator[Request]:
        for index, (template, expr) in enumerate(self.exprs.items()):
            yield Request(index, template, expr, self.database)

    def reference_answers(self) -> Dict[str, Dict[Any, int]]:
        """Plain-dict answers of the four templates (no engine code)."""
        p = self.params
        counts = {name: dict(bag.items())
                  for name, bag in self.database.items()}
        ud = p["union_dedup"]
        return {
            "sym-diff": reference.sym_diff_chain(
                counts["X"], counts["Y"], p["sym_diff"]["depth"]),
            "join": reference.join_dedup(counts["L"], counts["R"]),
            "union-dedup": reference.union_dedup_cascade(
                [counts[f"A{i}"] for i in range(ud["relations"])],
                ud["levels"]),
            "nest-group": reference.nest_unnest_group(counts["G"]),
        }

    def cycle_length(self) -> int:
        return len(self.params["cycle"])

    def requests(self) -> Iterator[Request]:
        answers = self.reference_answers()
        index = 0
        while True:
            for template in self.params["cycle"]:
                answer = answers[template]
                yield Request(index, template, self.exprs[template],
                              self.database,
                              reference=lambda answer=answer: answer,
                              reference_key=(template, None),
                              kind=template)
                index += 1

    def close(self) -> None:
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None


class BulkSerial(Bulk):
    name = "bulk-serial"
    why = ("four large templates on serial codegen over an ANALYZEd "
           "workspace; kernels, fused segments, a barrier and the "
           "result boundary do the work")
    engine_options = {"engine": "codegen"}
    #: The traced run also sends every request to the process backend
    #: with these options: the exchange layer's counts and the
    #: parallel speed-up come from there.
    parallel_options = {"engine": "parallel",
                        "parallel_backend": "process", "workers": 2}


def _tree_reference(expr: Expr, bindings: Dict[str, Any],
                    semiring: Optional[str], limits: Limits,
                    sym_depth: Optional[int]) -> Callable[[], Any]:
    """The oracle's answer under the same limits and semiring.

    A symmetric-difference chain names its running operand twice per
    level, so the tree walker's cost doubles with every level; the
    reference therefore walks the chain one level at a time, binding
    each level's oracle result as the next level's operand (the same
    semantics, linear cost).
    """
    def run() -> Any:
        if sym_depth is None:
            return evaluate(expr, bindings, engine="tree", limits=limits,
                            semiring=semiring)
        x_name, y_name = _chain_operands(expr, sym_depth)
        step = sym_diff_step(var("_level"), var(y_name))
        value = bindings[x_name]
        for _ in range(sym_depth):
            value = evaluate(step, {"_level": value,
                                    y_name: bindings[y_name]},
                             engine="tree", limits=limits,
                             semiring=semiring)
        return value
    return run


def _chain_operands(expr: Expr, depth: int) -> Tuple[str, str]:
    """The ``(x, y)`` relation names of :func:`sym_diff_chain`."""
    inner = expr
    for _ in range(depth):
        inner = inner.operand.left.left  # Dedup -> (+) -> (-) -> x
    y = expr.operand.left.right
    return inner.name, y.name


WORKLOADS = {cls.name: cls for cls in
             (WarmSmall, AdhocCompile, BulkSerial)}


def make_workload(name: str, seed: int, scale: str,
                  workdir: str) -> Workload:
    return WORKLOADS[name](seed, scale, workdir)
