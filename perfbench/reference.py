"""Plain-dict reference answers for the four bulk templates.

The tree oracle cannot check the bulk workloads: it re-walks the
shared operand of a symmetric-difference chain at every level and
materialises the whole Cartesian product before the join selection.
These functions compute the same bags with nothing but dicts —
monus, additive union, dedup, a hash join and a grouping — and share
no code with the engine.  The benchmark's own tests check them against
the oracle at small sizes.

Every function takes and returns ``{element: multiplicity}`` dicts
with positive int counts.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.bag import Tup

Counts = Dict[Any, int]


def monus(left: Counts, right: Counts) -> Counts:
    """``left - right``: multiplicities subtract, floored at zero."""
    out = {}
    for value, count in left.items():
        rest = count - right.get(value, 0)
        if rest > 0:
            out[value] = rest
    return out


def additive_union(left: Counts, right: Counts) -> Counts:
    """``left (+) right``: multiplicities add."""
    out = dict(left)
    for value, count in right.items():
        out[value] = out.get(value, 0) + count
    return out


def dedup(counts: Counts) -> Counts:
    """``eps``: every multiplicity becomes one."""
    return {value: 1 for value in counts}


def sym_diff_chain(x: Counts, y: Counts, depth: int) -> Counts:
    """``eps((x - y) (+) (y - x))`` applied ``depth`` times."""
    for _ in range(depth):
        x = dedup(additive_union(monus(x, y), monus(y, x)))
    return x


def join_dedup(left: Counts, right: Counts) -> Counts:
    """``eps(sigma_{2=3}(L x R))`` as a hash join of ``L.2 = R.1``."""
    by_source: Dict[Any, List[Any]] = {}
    for edge in right:
        by_source.setdefault(edge.attribute(1), []).append(edge)
    out = {}
    for edge in left:
        for match in by_source.get(edge.attribute(2), ()):
            out[Tup(edge.attribute(1), edge.attribute(2),
                    match.attribute(1), match.attribute(2))] = 1
    return out


def union_dedup_cascade(relations: List[Counts], levels: int) -> Counts:
    """``eps(acc (+) A_j)`` iterated over ``relations[1:]`` cyclically."""
    acc = relations[0]
    others = relations[1:]
    for level in range(levels):
        acc = dedup(additive_union(acc, others[level % len(others)]))
    return acc


def nest_unnest_group(counts: Counts) -> Counts:
    """``unnest_2(nest_2(G))``: group binary tuples by attribute 1,
    keeping each group's attribute-2 multiplicities, then flatten."""
    groups: Dict[Any, Counts] = {}
    for edge, count in counts.items():
        group = groups.setdefault(edge.attribute(1), {})
        member = edge.attribute(2)
        group[member] = group.get(member, 0) + count
    out = {}
    for key, group in groups.items():
        for member, count in group.items():
            out[Tup(key, member)] = count
    return out
