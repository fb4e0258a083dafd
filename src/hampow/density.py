"""Exact density computations used by the threshold machinery.

The 1-density of a hypergraph F is the maximum of e(H)/(v(H)-1) over
subgraphs H with at least one edge; the rooted variant discounts the root
vertices, and the 1-density is the rooted density of an empty root.  One
routine, `_density`, computes both exactly (as `fractions.Fraction`) by
enumerating vertex subsets, which is feasible on the structured templates this
library cares about; anything above `MAX_EXACT_VERTICES` vertices is refused, since
the enumeration is exponential.

Subgraphs are taken on their spanned vertex sets: isolated vertices only
lower the ratio, so the maximum is unchanged and enumeration stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hampow.core import Hypergraph, VertexTuple, _vertex_set

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
        _vertex_set(root, self.template.n)  # a vertex outside the template is refused by name
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


def _density(template: Hypergraph, root: frozenset[int], what: str) -> Fraction:
    """Exact density of (F, root), named ``what`` in its two refusals, which come before any edge is decoded.

    The maximum over subgraphs with an edge that avoid the root, and for a non-empty root over those
    that hold all of it too, whose denominator discounts the root: an empty root gives the 1-density.
    """
    if template.edge_count == 0:
        raise ValueError(f"{what} is undefined for an edgeless hypergraph")
    if template.n > MAX_EXACT_VERTICES:
        raise DensityBudgetError(f"exact {what} refused for {template.n} > {MAX_EXACT_VERTICES} vertices")
    pool = [v for v in range(template.n) if v not in root]
    edge_sets = [frozenset(e) for e in template.edges()]
    got = [_max_subset_ratio([e for e in edge_sets if not e & root], pool, rooted=False)]
    if root:
        got.append(_max_subset_ratio(edge_sets, pool, rooted=True))
    # the template has an edge and no edge lies inside the root, so some walk finds one
    return max(Fraction(*best) for best in got if best is not None)


def m1_density(template: Hypergraph) -> Fraction:
    """Exact 1-density: max of e(H)/(v(H)-1) over subgraphs with e(H) >= 1; :func:`_density` of an empty root."""
    return _density(template, frozenset(), "1-density")


def m_density(rt: RootedTemplate) -> Fraction:
    """Exact rooted density of (F, X), by :func:`_density`.

    Maximizes e(F')/(v(F') - max(1, |V(F') cap X|)) over subgraphs F' with
    e(F') > 0 that either contain all of X or avoid X entirely; subgraphs
    partially meeting X are excluded, following the definition literally.
    With an empty root this coincides with ``m1_density``.
    """
    return _density(rt.template, frozenset(rt.root), "rooted density")
