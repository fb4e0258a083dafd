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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from hampow.core import (
    _MEMO_BYTES,
    Hypergraph,
    VertexTuple,
    _bits,
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

#: Bytes of link bitsets one copy search may hold before it empties its memo.
_LINK_MEMO_BYTES = _MEMO_BYTES


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
    forms an edge with every anchor: a stream's set is the pool less ``used``,
    ANDed with the anchors' links (:meth:`_link`).  A miss empties the memo of
    k >= 3 links, n / 8 bytes each, when it holds :data:`_LINK_MEMO_BYTES`: the
    budget alone bounds it only by anchors times budget, large for many anchors.

    A searcher starts with :data:`SEARCH_BUDGET` candidate checks in
    ``remaining`` and spends them over all its searches, so a phase that
    builds one searcher is bounded as a whole.  On every host, each allowed
    vertex a stream scans costs one unit, whether it fits or is used or
    not, so a stream that runs to its end costs the pool size.  While a
    stream is open, ``used`` holds exactly the images of the shallower
    depths (deeper depths give theirs back before it resumes), so the
    stream leaves them out when it opens and the vertices before the next
    fitting one are charged in one sum.  Exhaustion leaves ``remaining`` at
    -1 and raises :class:`SearchBudgetExceeded`.
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

    def find(self, y: Sequence[int], allowed: Sequence[int] | np.ndarray) -> dict[int, int] | None:
        """First embedding with root -> y and internals inside allowed, or None.

        ``allowed`` holds the reservoir in ascending order inside ``range(n)``,
        best as an int64 array, read without a copy.  The request is not checked
        here: :func:`connect_family` checks it.  None means no copy exists;
        running out of budget raises :class:`SearchBudgetExceeded`.
        """
        images: dict[int, int] = dict(zip(self.root, y))
        if self.root_edges and not self.host.has_edge(
            np.array([[images[v] for v in e] for e in self.root_edges], dtype=np.int64)
        ).all():
            return None
        if not self.order:
            return dict(images)
        used = 0
        pool = np.asarray(allowed, dtype=np.int64)
        if pool.size and not 0 <= pool[0] <= pool[-1] < self.host.n:  # a bitset holds no other vertex
            raise ValueError(f"allowed vertices must lie in range({self.host.n})")
        bits = _vertex_bits(pool, self.host.n)
        # one candidate stream per placed depth; a depth that takes its next
        # candidate first gives back the vertex it held
        iters: list[Iterable[int]] = [self._candidates(0, images, used, pool, bits)]
        try:
            while iters:
                depth = len(iters) - 1
                v_t = self.order[depth]
                if v_t in images:
                    used ^= 1 << images.pop(v_t)
                nxt = next(iters[depth], None)
                if nxt is None:
                    iters.pop()
                    continue
                images[v_t] = nxt
                used |= 1 << nxt
                if depth + 1 == len(self.order):
                    return dict(images)
                iters.append(self._candidates(depth + 1, images, used, pool, bits))
            return None
        finally:
            self._links = {}

    def _candidates(self, depth, images, used, pool, bits):
        """Pool vertices outside the bitset ``used`` that extend the partial embedding, ascending.

        ``pool`` holds the allowed vertices as an ascending int64 array and
        ``bits`` as a bitset; a candidate must lie in the link of every anchor.
        """
        fits = bits & ~used
        for others in self.anchors[depth]:
            fits &= self._link(others, images, pool)
        # the pool vertices up to each fitting one are charged in the next()
        # call that yields it, the rest when the stream ends
        scanned = 0
        while fits:
            low = fits & -fits
            fits ^= low
            at = (bits & (low - 1)).bit_count() + 1
            self._charge(at - scanned)
            scanned = at
            yield low.bit_length() - 1
        self._charge(bits.bit_count() - scanned)

    def _link(self, others: tuple[int, ...], images: dict[int, int], pool: np.ndarray) -> int:
        """The bitset of the w forming an edge with the images of an anchor's template vertices ``others``.

        2-uniform, the host's row of the one image; else the pool's vertices, memoised for the find.
        """
        host = self.host
        if host.k == 2:
            return host.neighbor_bits(images[others[0]])
        key = tuple(sorted([images[u] for u in others]))
        bits = self._links.get(key)
        if bits is None:
            if len(self._links) * ((host.n + 7) // 8) >= _LINK_MEMO_BYTES:
                self._links.clear()
            rows = np.empty((pool.size, host.k), dtype=np.int64)
            rows[:, :-1] = key
            rows[:, -1] = pool
            bits = self._links[key] = _vertex_bits(pool, host.n, host.has_edge(rows))
        return bits

    def _charge(self, units: int) -> None:
        """Spend ``units`` candidate checks; past the budget, leave -1 and raise."""
        self.remaining -= units
        if self.remaining < 0:
            self.remaining = -1
            raise SearchBudgetExceeded()


def _vertex_bits(vertices: np.ndarray, n: int, keep: np.ndarray | bool = True) -> int:
    """A bitset of an int array's distinct vertices, each in ``range(n)``, where ``keep`` is true."""
    mask = np.zeros(n, dtype=bool)
    mask[vertices] = keep
    return _bits(mask)


def round_sizes(total: int, rounds: int) -> list[int]:
    """Slice sizes for splitting a reservoir of ``total`` vertices into rounds.

    Round i (1-based) gets max(total // 2^(i+1), total // (2 * rounds))
    vertices, so early rounds get geometrically shrinking slices clamped from
    below.  These sizes always leave vertices over; they form one final
    slice, so the whole reservoir is usable.  An empty reservoir has no slices.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if total == 0:
        return []
    sizes = [max(total // 2 ** (i + 1), total // (2 * rounds)) for i in range(1, rounds + 1)]
    return sizes + [total - sum(sizes)]


def partition_reservoir(reservoir: Iterable[int], rounds: int) -> list[np.ndarray]:
    """The reservoir's vertices, ascending, split into int64 slices of :func:`round_sizes`."""
    w = np.array(sorted(set(reservoir)), dtype=np.int64)  # np.unique imports numpy.ma (~0.7 MB)
    if not w.size:
        raise ValueError("reservoir must be nonempty")
    return np.split(w, np.cumsum(round_sizes(w.size, rounds))[:-1])


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

    Copy i maps ``root`` onto ``tuples[i]`` and its internal vertices into
    the reservoir; the tuples must be pairwise disjoint and avoid the
    reservoir.  Keeps a set R of unmatched tuple indices; round j sweeps R
    in ascending order, searching each tuple inside the round's reservoir
    slice minus the vertices already consumed this round.  Matched indices
    leave R; copies from different rounds are disjoint because the slices
    are.  Returns the copies in tuple order and the size of R after each
    round.  Raises :class:`ConnectFailure`, under ``phase``, naming the
    surviving indices if R is nonempty after the last round, or at once,
    with ``budget_exhausted``, when the family's searcher runs out of budget.
    """
    root = VertexTuple(root)
    tuples = [VertexTuple(t) for t in tuples]
    w = set(reservoir)
    seen: set[int] = set()
    for y in tuples:
        if len(y) != len(root):
            raise ValueError(f"tuple {y} does not match the root arity {len(root)}")
        ys = set(y)
        if ys & seen:
            raise ValueError("request tuples must be pairwise disjoint")
        if ys & w:
            raise ValueError("request tuples must avoid the reservoir")
        seen |= ys
    if rounds is None:
        rounds = max(1, math.ceil(math.log2(max(host.n, 2))))
    t = len(tuples)
    if t == 0:
        return [], []
    need = t * (template.n - len(root))
    if need > len(w):
        raise ValueError(f"request needs {need} internal vertices but the reservoir has {len(w)}")
    parts = partition_reservoir(w, rounds)
    details = {
        "round_sizes": [len(p) for p in parts],
        "strict_precondition": need <= len(w) // 4,
    }
    searcher = _CopySearcher(host, template, root)
    embeddings: list[dict[int, int] | None] = [None] * t
    remaining = list(range(t))
    trajectory: list[int] = []
    for part in parts:
        if not remaining:
            break
        free = np.ones(part.size, dtype=bool)  # the slice less this round's copies
        still: list[int] = []
        for i in remaining:
            try:
                emb = searcher.find(tuples[i], part[free])
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
                free[part.searchsorted([emb[v] for v in searcher.order])] = False
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
    if ell <= 2 * k:
        raise ValueError(f"connector length must exceed 2k = {2 * k}, got {ell}")
    if mode == "power":
        template = connecting_path_template(k, ell)
    else:
        template = tight_path_template(k, ell)
    root = tuple(range(k)) + tuple(range(ell - k, ell))
    tuples = [tuple(a) + tuple(b) for a, b in pairs]
    embeddings, trajectory = connect_family(host, template, root, tuples, reservoir, rounds, phase)
    sequences = [tuple(emb[v] for v in range(ell)) for emb in embeddings]
    return PathFamily(sequences=sequences, trajectory=trajectory, end_width=k)
