"""Rooted copy search and the round-based greedy connection algorithm.

The searcher embeds a template into a host graph with the root tuple pinned
to prescribed host vertices and all internal vertices drawn from an allowed
reservoir.  Search is backtracking along a connectivity-aware template order
with candidates drawn from the allowed reservoir and kept when they fit the
already-placed neighbors, tried in ascending host order, so results are
deterministic and the first embedding found is the lexicographically least
assignment along that order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

import hampow.core as core
from hampow.core import (
    Hypergraph,
    VertexTuple,
    _bit_rows,
    _bit_vertices,
    _count,
    _vertex_bits,
    _vertex_set,
    check_uniformity,
    connecting_path_template,
    tight_path_template,
)

__all__ = [
    "ConnectFailure",
    "PathFamily",
    "PhaseFailure",
    "SearchBudgetExceeded",
    "connect_family",
    "connect_paths",
    "partition_reservoir",
    "round_sizes",
]

#: Candidate checks one copy searcher may spend over all its searches (see _CopySearcher).
SEARCH_BUDGET = 1_500_000


class PhaseFailure(Exception):
    """A construction phase did not complete; carries a diagnosis payload."""

    def __init__(self, phase: str, message: str, **details):
        super().__init__(f"{phase}: {message}")
        self.phase = phase
        self.message = message
        self.details = details


class SearchBudgetExceeded(Exception):
    """A bounded copy search ran out of candidate checks before finishing.

    Distinct from a None result: None certifies that no copy exists, while
    this says the (exhaustive) search was cut short.  Phases turn it into a
    fast failure so hopeless sparse hosts do not burn exponential time.
    """


class ConnectFailure(PhaseFailure):
    """Greedy connection rounds ended with unmatched requests."""

    def __init__(self, phase: str, unmatched: list[int], trajectory: list[int], **details):
        super().__init__(
            phase,
            f"{len(unmatched)} request(s) unmatched after {len(trajectory)} round(s)",
            unmatched=unmatched,
            trajectory=trajectory,
            **details,
        )
        self.unmatched = unmatched
        self.trajectory = trajectory


class _CopySearcher:
    """Reusable backtracking search for rooted copies of one template.

    Vertex sets are Python ints, bit w for vertex w.  A candidate fits when it
    forms an edge with every anchor: a stream's fit set is the pool less
    ``used``, ANDed with the anchors' links (:meth:`_fits`).  :meth:`find`
    walks the depths with one fit set and one scanned count each.  A k >= 3
    link miss whose anchor holds the previous depth's image asks, in the
    same ``has_edge`` call, for that anchor's keys under the parent stream's
    next fits (:meth:`_link`), so a parent that moves on through many
    candidates finds their links memoised.  A miss empties the memo of
    k >= 3 links, n / 8 bytes each, when it holds ``core._MEMO_BYTES``, as
    the host's memo of rows does: the budget alone bounds it only by anchors
    times budget, large for many anchors.

    A searcher starts with :data:`SEARCH_BUDGET` candidate checks in
    ``remaining`` and spends them over all its searches, so a phase that
    builds one searcher is bounded as a whole.  On every host, each allowed
    vertex a stream scans costs one unit, whether it fits or is used or
    not, so a stream that runs to its end costs the pool size.  While a
    stream is open, ``used`` holds exactly the images of the shallower
    depths (deeper depths give theirs back before it resumes), so the
    stream leaves them out when it opens and the vertices before the next
    fitting one are charged in one sum (:meth:`_take`); a stream with no fit
    is charged the whole pool when it opens.  Exhaustion leaves
    ``remaining`` at -1 and raises :class:`SearchBudgetExceeded`.
    """

    def __init__(self, host: Hypergraph, template: Hypergraph, root: Sequence[int]):
        if host.k != template.k:
            raise ValueError(
                f"uniformity mismatch: host {host.k}-uniform, template {template.k}-uniform"
            )
        self.remaining = SEARCH_BUDGET
        self._links: dict[tuple[int, ...], int] = {}
        self.host = host
        self.root = tuple(root)
        rs = set(self.root)
        edges = [tuple(e) for e in template.edges()]
        self.root_edges = [e for e in edges if set(e) <= rs]
        # connectivity-aware order over the internal vertices: the least one
        # that shares an edge with a placed vertex, else the least one left
        near = {v: set().union(*(e for e in edges if v in e)) for v in range(template.n)}
        remaining = set(range(template.n)) - rs
        frontier = set().union(*(near[v] for v in rs))
        order: list[int] = []
        while remaining:
            nxt = min(frontier & remaining or remaining)
            order.append(nxt)
            remaining.discard(nxt)
            frontier |= near[nxt]
        self.order = order
        # an edge is anchored at the latest-placed internal vertex it contains:
        # it becomes fully determined (and checkable) exactly there, and the
        # anchor keeps the edge's other template vertices
        pos = {v: i for i, v in enumerate(order)}
        self.anchors: list[list[tuple[int, ...]]] = [[] for _ in order]
        for e in edges:
            internal = [v for v in e if v in pos]
            if not internal:
                continue
            last = max(internal, key=pos.__getitem__)
            self.anchors[pos[last]].append(tuple(u for u in e if u != last))
        # read by k >= 3 links: an anchor's k - 1 >= 2 others give their images as one tuple,
        # the previous depth's at the position kept beside it (None when it holds none)
        self._picks = [
            [(operator.itemgetter(*others), others.index(u) if u in others else None) for others in a]
            for u, a in zip([None] + order, self.anchors)
        ]
        # per depth of a find: its fits not yet taken, the allowed vertices it has
        # scanned, and the run of keys a miss below it asks for
        self._left = [0] * len(order)
        self._scanned = [0] * len(order)
        self._runs = [1] * len(order)
        self._run_cap = 1

    def find(self, y: Sequence[int], bits: int) -> dict[int, int] | None:
        """First embedding with root -> y and internals among the allowed vertices, or None.

        ``bits`` holds the allowed vertices as a bitset of ``range(n)``, bit w
        for vertex w (:func:`_vertex_bits` builds one).  The request is not
        checked here: :func:`connect_family` checks it.  None means no copy
        exists; running out of budget raises :class:`SearchBudgetExceeded`.
        """
        images: dict[int, int] = dict(zip(self.root, y))
        if self.root_edges and not self.host.has_edge(
            np.array([[images[v] for v in e] for e in self.root_edges], dtype=np.int64)
        ).all():
            return None
        if not self.order:
            return images
        # a k >= 3 link asks the host about the allowed vertices, ascending, in
        # calls of about core._PACK_BLOCK rows and at least one key
        pool = None if self.host.k == 2 else _bit_vertices(bits, self.host.n)
        size = bits.bit_count()
        self._run_cap = max(1, core._PACK_BLOCK // max(1, size))
        order, left, scanned, runs = self.order, self._left, self._scanned, self._runs
        last = len(order) - 1
        # one open stream per placed depth; a depth that takes its next fit
        # first gives back the vertex it held
        depth = used = 0
        try:
            left[0], scanned[0], runs[0] = self._fits(0, images, used, pool, bits), 0, 1
            while depth >= 0:
                v_t = order[depth]
                if v_t in images:
                    used ^= 1 << images.pop(v_t)
                w = self._take(depth, bits, size)
                if w is None:
                    depth -= 1
                    continue
                images[v_t] = w
                used |= 1 << w
                if depth == last:
                    return dict(images)
                fits = self._fits(depth + 1, images, used, pool, bits)
                if not fits:  # a stream with no fit scans the whole pool, and this depth takes its next
                    self.remaining -= size
                    if self.remaining < 0:
                        self._charge(0)  # leaves -1 and raises
                    continue
                depth += 1
                left[depth], scanned[depth], runs[depth] = fits, 0, 1
            return None
        finally:
            self._links = {}

    def _fits(self, depth, images, used, pool, bits) -> int:
        """The pool vertices outside the bitset ``used`` that extend the partial embedding, as a bitset.

        ``bits`` holds the allowed vertices as a bitset and ``pool`` (read by k >= 3 links)
        as an ascending int array; a fit must lie in the link of every anchor.
        """
        fits = bits & ~used
        if self.host.k == 2:  # the link of an anchor is the host's row of its one image
            row = self.host.neighbor_bits
            for (u,) in self.anchors[depth]:
                fits &= row(images[u])
            return fits
        # the memo is read here, as a hit costs less than a call
        links = self._links
        run = 0
        for pick, prev in self._picks[depth]:
            if not fits:
                break
            images_of = pick(images)
            key = tuple(sorted(images_of))
            link = links.get(key)
            if link is None:
                keys = [key]
                if prev is not None:
                    # the same call asks for this anchor's keys under the parent stream's
                    # next fits: a run of them that doubles on each later opening of
                    # this depth under that stream that misses
                    if not run:
                        run = self._runs[depth - 1]
                        self._runs[depth - 1] = min(2 * run, self._run_cap)
                    if run > 1:
                        rest, others = self._left[depth - 1], list(images_of)
                        for _ in range(1, run):
                            if not rest:
                                break
                            low = rest & -rest
                            rest ^= low
                            others[prev] = low.bit_length() - 1
                            sibling = tuple(sorted(others))
                            if sibling not in links:
                                keys.append(sibling)
                link = self._link(keys, pool)
            fits &= link
        return fits

    def _take(self, depth: int, bits: int, size: int) -> int | None:
        """The depth's lowest fit not yet taken, or None once none is left.

        The pool vertices up to each fit are charged when it is taken, the
        rest of the ``size`` allowed ones when the stream ends.
        """
        fits = self._left[depth]
        if not fits:
            self._charge(size - self._scanned[depth])
            return None
        low = fits & -fits
        self._left[depth] = fits ^ low
        at = (bits & (low - 1)).bit_count() + 1
        self.remaining -= at - self._scanned[depth]
        if self.remaining < 0:
            self._charge(0)  # leaves -1 and raises
        self._scanned[depth] = at
        return low.bit_length() - 1

    def _link(self, keys: list[tuple[int, ...]], pool: np.ndarray) -> int:
        """Memoise the links of the ascending images ``keys`` of anchors' other vertices; the first key's link.

        A link is the bitset of the pool's w forming an edge with the key, all
        of them from one ``has_edge`` call.  k >= 3 only (a 2-uniform link is
        a host row); memoised for the find.
        """
        host = self.host
        if len(self._links) * ((host.n + 7) // 8) >= core._MEMO_BYTES:
            self._links.clear()
        # built as columns, a pool-long block a key, so has_edge reads the rows of the transpose without a copy
        r = len(keys)
        cols = np.empty((host.k, r, pool.size), dtype=np.int64)
        cols[:-1].T[:] = keys[0] if r == 1 else keys
        cols[-1] = pool
        hits = host.has_edge(cols.reshape(host.k, r * pool.size).T)
        if r == 1:  # a search that takes its first fits asks one key a call: one scatter, no 2-D pack
            link = self._links[keys[0]] = _vertex_bits(pool, host.n, hits)
            return link
        mask = np.zeros((r, host.n), dtype=bool)
        mask.T[pool] = hits.reshape(r, pool.size).T
        links = _bit_rows(mask)
        self._links.update(zip(keys, links))
        return links[0]

    def _charge(self, units: int) -> None:
        """Spend ``units`` candidate checks; past the budget, leave -1 and raise."""
        self.remaining -= units
        if self.remaining < 0:
            self.remaining = -1
            raise SearchBudgetExceeded()


def round_sizes(total: int, rounds: int) -> list[int]:
    """Slice sizes for splitting a reservoir of ``total`` vertices into rounds.

    Round i (1-based) gets max(total // 2^(i+1), total // (2 * rounds))
    vertices, so early rounds get geometrically shrinking slices clamped from
    below.  These sizes always leave vertices over; they form one final
    slice, so the whole reservoir is usable.  An empty reservoir has no slices.
    """
    rounds = _count(rounds, "rounds", 1)
    if total == 0:
        return []
    sizes = [max(total // 2 ** (i + 1), total // (2 * rounds)) for i in range(1, rounds + 1)]
    return sizes + [total - sum(sizes)]


def partition_reservoir(reservoir: Sequence[int], rounds: int) -> list[np.ndarray]:
    """Ascending distinct vertices, as :func:`core._vertex_set` reads them, split into slices of :func:`round_sizes`."""
    if not len(reservoir):
        raise ValueError("reservoir must be nonempty")
    return np.split(reservoir, np.cumsum(round_sizes(len(reservoir), rounds))[:-1])


def connect_family(
    host: Hypergraph,
    template: Hypergraph,
    root: Sequence[int],
    tuples: Sequence[Sequence[int]],
    reservoir: Iterable[int],
    rounds: int | None = None,
    phase: str = "connect",
) -> tuple[list[dict[int, int]], list[int]]:
    """Greedy round-based construction of disjoint rooted copies.

    Copy i maps ``root``, vertices of the template, onto ``tuples[i]``,
    vertices of the host, and its internal vertices into the reservoir; all
    three are read by :func:`core._vertex_set` before any search, and the
    tuples must be pairwise disjoint and avoid the reservoir.  Keeps a set R
    of unmatched tuple indices; round j sweeps R in ascending order,
    searching each tuple inside the round's reservoir slice minus the
    vertices already consumed this round.  Matched indices leave R; copies
    from different rounds are disjoint because the slices are.  Returns the
    copies in tuple order and the size of R after each round.  Raises
    :class:`ConnectFailure`, under ``phase``, naming the surviving indices
    if R is nonempty after the last round, or at once, with
    ``budget_exhausted``, when the family's searcher runs out of budget.
    """
    root = VertexTuple(root)
    _vertex_set(root, template.n)
    tuples = [VertexTuple(t) for t in tuples]
    bad = next((y for y in tuples if len(y) != len(root)), None)
    if bad is not None:
        raise ValueError(f"tuple {bad} does not match the root arity {len(root)}")
    requested = _vertex_set([v for y in tuples for v in y], host.n)
    if requested.size < len(tuples) * len(root):
        raise ValueError("request tuples must be pairwise disjoint")
    pool = _vertex_set(reservoir, host.n)
    if np.intersect1d(requested, pool, assume_unique=True).size:
        raise ValueError("request tuples must avoid the reservoir")
    if rounds is None:
        rounds = max(1, math.ceil(math.log2(max(host.n, 2))))
    t = len(tuples)
    if t == 0:
        return [], []
    need = t * (template.n - len(root))
    if need > pool.size:
        raise ValueError(f"request needs {need} internal vertices but the reservoir has {pool.size}")
    parts = partition_reservoir(pool, rounds)
    details = {
        "round_sizes": [len(p) for p in parts],
        "strict_precondition": need <= pool.size // 4,
    }
    searcher = _CopySearcher(host, template, root)
    embeddings: list[dict[int, int] | None] = [None] * t
    remaining = list(range(t))
    trajectory: list[int] = []
    for part in parts:
        if not remaining:
            break
        free = _vertex_bits(part, host.n)  # the slice less this round's copies
        still: list[int] = []
        for i in remaining:
            try:
                emb = searcher.find(tuples[i], free)
            except SearchBudgetExceeded:
                raise ConnectFailure(
                    phase,
                    unmatched=[j for j in range(t) if embeddings[j] is None],
                    trajectory=trajectory,
                    budget_exhausted=True,
                    **details,
                ) from None
            if emb is None:
                still.append(i)
            else:
                embeddings[i] = emb
                for v in searcher.order:
                    free ^= 1 << emb[v]
        remaining = still
        trajectory.append(len(remaining))
    if remaining:
        raise ConnectFailure(phase, unmatched=remaining, trajectory=trajectory, **details)
    return embeddings, trajectory


@dataclass
class PathFamily:
    """Vertex-disjoint connecting paths, one per endpoint pair."""

    sequences: list[tuple[int, ...]]
    trajectory: list[int]
    end_width: int

    def internal_vertices(self) -> set[int]:
        out: set[int] = set()
        w = self.end_width
        for seq in self.sequences:
            out |= set(seq[w:len(seq) - w])
        return out


def connect_paths(
    host: Hypergraph,
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    reservoir: Iterable[int],
    k: int,
    ell: int,
    mode: str,
    rounds: int | None = None,
    phase: str = "connect",
) -> PathFamily:
    """Connect endpoint tuple pairs with disjoint connecting/tight paths.

    Power mode uses the connecting-path template on a 2-uniform host; tight
    mode uses the tight-path template on a (k+1)-uniform host.  Path i runs
    from a_i to b_i with all internal vertices inside the reservoir.  A
    failure is a :class:`ConnectFailure` under ``phase``.
    """
    check_uniformity(host, k, mode)
    _count(ell, "connector length", 2 * k + 1)
    if mode == "power":
        template = connecting_path_template(k, ell)
    else:
        template = tight_path_template(k, ell)
    root = tuple(range(k)) + tuple(range(ell - k, ell))
    tuples = [tuple(a) + tuple(b) for a, b in pairs]
    embeddings, trajectory = connect_family(host, template, root, tuples, reservoir, rounds, phase)
    sequences = [tuple(emb[v] for v in range(ell)) for emb in embeddings]
    return PathFamily(sequences=sequences, trajectory=trajectory, end_width=k)
