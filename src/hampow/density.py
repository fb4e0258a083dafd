"""Exact density computations used by the threshold machinery.

The 1-density of a hypergraph F is the maximum of e(H)/(v(H)-1) over
subgraphs H with at least one edge; the rooted variant discounts the root
vertices.  Both are computed exactly (as `fractions.Fraction`) by enumerating
vertex subsets, which is feasible on the structured templates this library
cares about; anything above `MAX_EXACT_VERTICES` vertices is refused, since
the enumeration is exponential.

Subgraphs are taken on their spanned vertex sets: isolated vertices only
lower the ratio, so the maximum is unchanged and enumeration stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hampow.core import Hypergraph, VertexTuple

__all__ = [
    "DensityBudgetError",
    "MAX_EXACT_VERTICES",
    "RootedTemplate",
    "m1_density",
    "m_density",
]

#: Hard ceiling for exact subset enumeration (2^24 subsets).
MAX_EXACT_VERTICES = 24


class DensityBudgetError(ValueError):
    """Raised when an exact density computation would be too large."""


@dataclass(frozen=True)
class RootedTemplate:
    """A template hypergraph together with an independent root tuple.

    The root is independent: no template edge lies entirely inside the root
    set.  The pair is the unit of rooted copy search and rooted density.
    """

    template: Hypergraph
    root: VertexTuple

    def __post_init__(self) -> None:
        root = VertexTuple(self.root)
        object.__setattr__(self, "root", root)
        if any(v < 0 or v >= self.template.n for v in root):
            raise ValueError("root vertices must lie in the template vertex set")
        if len(root) >= self.template.n:
            raise ValueError("root must be a proper subset of the template vertices")
        rs = set(root)
        for e in self.template.edges():
            if set(e) <= rs:
                raise ValueError(f"root is not independent: edge {e} inside root")


def _max_subset_ratio(
    edge_sets: list[frozenset[int]], pool: list[int], rooted: bool
) -> tuple[int, int] | None:
    """Maximum (edge count, denominator) over subsets of ``pool``.

    Walks all subsets in Gray-code order, maintaining the number of edges
    whose pool part is fully selected.  ``rooted`` means the implicit base
    (the root set) is always present, so the denominator is the selected pool
    size; otherwise it is the selected size minus one.
    """
    # Cheap ordering trick: low bit positions flip most often, so give them
    # the pool vertices with the fewest incident edges.
    degree = {v: 0 for v in pool}
    for e in edge_sets:
        for v in e:
            if v in degree:
                degree[v] += 1
    pool = sorted(pool, key=lambda v: (degree[v], v))
    pos = {v: i for i, v in enumerate(pool)}
    incident: list[list[int]] = [[] for _ in pool]
    for e in edge_sets:
        mask = 0
        for v in e:
            if v in pos:
                mask |= 1 << pos[v]
        for v in e:
            if v in pos:
                incident[pos[v]].append(mask)
    best: tuple[int, int] | None = None
    cur = 0
    count = 0
    for i in range(1, 1 << len(pool)):
        b = (i & -i).bit_length() - 1
        bit = 1 << b
        if cur & bit:
            for m in incident[b]:
                if m & cur == m:  # fully present, loses b now
                    count -= 1
            cur ^= bit
        else:
            cur ^= bit
            for m in incident[b]:
                if m & cur == m:
                    count += 1
        if count >= 1:
            den = cur.bit_count() if rooted else cur.bit_count() - 1
            if den >= 1 and (best is None or count * best[1] > best[0] * den):
                best = (count, den)
    return best


def m1_density(template: Hypergraph) -> Fraction:
    """Exact 1-density: max of e(H)/(v(H)-1) over subgraphs with e(H) >= 1."""
    if template.edge_count == 0:
        raise ValueError("1-density is undefined for an edgeless hypergraph")
    if template.n > MAX_EXACT_VERTICES:
        raise DensityBudgetError(
            f"exact 1-density refused for {template.n} > {MAX_EXACT_VERTICES} vertices"
        )
    edge_sets = [frozenset(e) for e in template.edges()]
    best = _max_subset_ratio(edge_sets, list(range(template.n)), rooted=False)
    assert best is not None
    return Fraction(*best)


def m_density(rt: RootedTemplate) -> Fraction:
    """Exact rooted density of (F, X).

    Maximizes e(F')/(v(F') - max(1, |V(F') cap X|)) over subgraphs F' with
    e(F') > 0 that either contain all of X or avoid X entirely; subgraphs
    partially meeting X are excluded, following the definition literally.
    With an empty root this coincides with ``m1_density``.
    """
    template, root = rt.template, set(rt.root)
    if template.edge_count == 0:
        raise ValueError("rooted density is undefined for an edgeless hypergraph")
    if template.n > MAX_EXACT_VERTICES:
        raise DensityBudgetError(
            f"exact rooted density refused for {template.n} > {MAX_EXACT_VERTICES} vertices"
        )
    if not root:
        return m1_density(template)
    pool = [v for v in range(template.n) if v not in root]
    avoiding = [frozenset(e) for e in template.edges() if not (set(e) & root)]
    all_edges = [frozenset(e) for e in template.edges()]
    best: Fraction | None = None
    got = _max_subset_ratio(avoiding, pool, rooted=False)
    if got is not None:
        best = Fraction(*got)
    got = _max_subset_ratio(all_edges, pool, rooted=True)
    if got is not None:
        cand = Fraction(*got)
        best = cand if best is None or cand > best else best
    assert best is not None  # template has an edge, and no edge sits inside X
    return best
