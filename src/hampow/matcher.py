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
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from hampow.core import (
    Hypergraph,
    VertexTuple,
    connecting_path_template,
    tight_path_template,
    uniformity,
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

#: Bytes of link masks one copy search may hold before it empties its memo.
_LINK_MEMO_BYTES = 1 << 24


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

    A candidate fits when it forms an edge with every anchor: on any host,
    the fit mask is the AND of the anchors' link masks (:meth:`_link`), each
    a bool over the pool of the vertices w for which the anchor's placed
    images plus w form an edge.  Link masks are memoised for the lifetime of
    one pool, that is one :meth:`find` call, and dropped when it returns.
    The memo holds one pool-length bool per distinct anchor set, and less
    than :data:`_LINK_MEMO_BYTES` plus one mask: a miss that finds it full
    empties it first.  The bound matters on 2-uniform hosts, where a failing
    search can meet every pool vertex as an anchor without spending a unit.

    A searcher starts with :data:`SEARCH_BUDGET` candidate checks in
    ``remaining`` and spends them over all its searches, so a phase that
    builds one searcher is bounded as a whole.  One unit is charged per
    candidate a stream scans, used or not: on a 2-uniform host the allowed
    vertices that fit, on any other host every allowed vertex.  While a
    stream is open, ``used`` holds exactly the images of the shallower
    depths (deeper depths give theirs back before it resumes), so a
    candidate's used check may come at any point of the stream and the
    vertices before the next fitting one are charged in one sum.
    Exhaustion leaves ``remaining`` at -1 and raises
    :class:`SearchBudgetExceeded`.
    """

    def __init__(self, host: Hypergraph, template: Hypergraph, root: Sequence[int]):
        if host.k != template.k:
            raise ValueError(
                f"uniformity mismatch: host {host.k}-uniform, template {template.k}-uniform"
            )
        self.remaining = SEARCH_BUDGET
        self._pool: np.ndarray | None = None
        self._links: dict[tuple[int, ...], np.ndarray] = {}
        self.host = host
        self.template = template
        self.root = tuple(root)
        rs = set(self.root)
        if len(rs) != len(self.root):
            raise ValueError("root vertices must be distinct")
        edges = [tuple(e) for e in template.edges()]
        self.root_edges = [e for e in edges if set(e) <= rs]
        # connectivity-aware order over the internal vertices
        placed = set(rs)
        internals = [v for v in range(template.n) if v not in rs]
        order: list[int] = []
        remaining = set(internals)
        while remaining:
            adjacent = sorted(
                v for v in remaining
                if any(v in e and (set(e) & placed) for e in edges)
            )
            nxt = adjacent[0] if adjacent else min(remaining)
            order.append(nxt)
            placed.add(nxt)
            remaining.discard(nxt)
        self.order = order
        # an edge is anchored at the latest-placed internal vertex it contains:
        # it becomes fully determined (and checkable) exactly there
        pos = {v: i for i, v in enumerate(order)}
        self.anchors: list[list[tuple[int, ...]]] = [[] for _ in order]
        for e in edges:
            internal = [v for v in e if v in pos]
            if not internal:
                continue
            last = max(internal, key=pos.__getitem__)
            self.anchors[pos[last]].append(e)

    def find(self, y: Sequence[int], allowed: Sequence[int]) -> dict[int, int] | None:
        """First embedding with root -> y and internals inside allowed, or None.

        ``allowed`` lists the reservoir in ascending order.  None means no
        copy exists; running out of budget raises
        :class:`SearchBudgetExceeded`.
        """
        host, template = self.host, self.template
        if len(y) != len(self.root):
            raise ValueError(f"root tuple has {len(self.root)} vertices, image has {len(y)}")
        if len(set(y)) != len(y):
            raise ValueError("root image vertices must be distinct")
        for v in y:
            i = bisect_left(allowed, v)
            if i < len(allowed) and allowed[i] == v:
                raise ValueError("root image must be disjoint from the allowed reservoir")
        images: dict[int, int] = dict(zip(self.root, y))
        if self.root_edges and not host.has_edge(
            np.array([[images[v] for v in e] for e in self.root_edges], dtype=np.int64)
        ).all():
            return None
        if not self.order:
            return dict(images)
        used: set[int] = set()
        pool = np.array(allowed, dtype=np.int64)  # a new pool: the link memo starts empty
        # one candidate stream per placed depth; a depth that takes its next
        # candidate first gives back the vertex it held
        iters: list[Iterable[int]] = [self._candidates(0, images, used, allowed, pool)]
        try:
            while iters:
                depth = len(iters) - 1
                v_t = self.order[depth]
                if v_t in images:
                    used.discard(images.pop(v_t))
                nxt = next(iters[depth], None)
                if nxt is None:
                    iters.pop()
                    continue
                images[v_t] = nxt
                used.add(nxt)
                if depth + 1 == len(self.order):
                    return dict(images)
                iters.append(self._candidates(depth + 1, images, used, allowed, pool))
            return None
        finally:
            self._pool, self._links = None, {}

    def _candidates(self, depth, images, used, allowed, pool):
        """Allowed, unused vertices that extend the partial embedding, ascending.

        ``pool`` is ``allowed`` as an int64 array; a candidate must lie in the
        link of every anchor.
        """
        v_t = self.order[depth]
        fits = np.ones(pool.size, dtype=bool)
        for e in self.anchors[depth]:
            fits &= self._link(tuple(sorted(images[u] for u in e if u != v_t)), pool)
        # a 2-uniform host charges each fitting candidate; any other host the
        # vertices up to each fitting one, in the next() call that scans them
        per_candidate = self.host.k == 2
        scanned = 0
        for i in np.flatnonzero(fits).tolist():
            self._charge(1 if per_candidate else i + 1 - scanned)
            scanned = i + 1
            if allowed[i] not in used:
                yield allowed[i]
        if not per_candidate:
            self._charge(pool.size - scanned)

    def _link(self, others: tuple[int, ...], pool: np.ndarray) -> np.ndarray:
        """Bool mask over ``pool``: the w for which ``others`` plus w is an edge.

        ``others`` is an anchor's sorted placed images.  The mask is memoised
        until a call brings a different pool array or the memo is full.
        """
        if pool is not self._pool:
            self._pool, self._links = pool, {}
        mask = self._links.get(others)
        if mask is None:
            if len(self._links) * pool.size >= _LINK_MEMO_BYTES:
                self._links.clear()
            host = self.host
            if host.k == 2:
                nbrs = host.neighbors(others[0])
                if nbrs.size == 0:
                    mask = np.zeros(pool.size, dtype=bool)
                else:
                    # a position past the end clips to the largest neighbour, never a match
                    mask = nbrs.take(nbrs.searchsorted(pool), mode="clip") == pool
            else:
                rows = np.empty((pool.size, host.k), dtype=np.int64)
                rows[:, :-1] = others
                rows[:, -1] = pool
                mask = host.has_edge(rows)
            self._links[others] = mask
        return mask

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
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if total == 0:
        return []
    sizes = [max(total // 2 ** (i + 1), total // (2 * rounds)) for i in range(1, rounds + 1)]
    return sizes + [total - sum(sizes)]


def partition_reservoir(reservoir: Iterable[int], rounds: int) -> list[tuple[int, ...]]:
    """Split a reservoir into slices of :func:`round_sizes`, in canonical vertex order."""
    w = sorted(set(reservoir))
    if not w:
        raise ValueError("reservoir must be nonempty")
    parts = []
    at = 0
    for size in round_sizes(len(w), rounds):
        parts.append(tuple(w[at:at + size]))
        at += size
    return parts


def _default_rounds(n: int) -> int:
    return max(1, math.ceil(math.log2(max(n, 2))))


def connect_family(
    host: Hypergraph,
    template: Hypergraph,
    root: Sequence[int],
    tuples: Sequence[Sequence[int]],
    reservoir: Iterable[int],
    rounds: int | None = None,
) -> tuple[list[dict[int, int]], list[int]]:
    """Greedy round-based construction of disjoint rooted copies.

    Copy i maps ``root`` onto ``tuples[i]`` and its internal vertices into
    the reservoir; the tuples must be pairwise disjoint and avoid the
    reservoir.  Keeps a set R of unmatched tuple indices; round j sweeps R
    in ascending order, searching each tuple inside the round's reservoir
    slice minus the vertices already consumed this round.  Matched indices
    leave R; copies from different rounds are disjoint because the slices
    are.  Returns the copies in tuple order and the size of R after each
    round.  Raises :class:`ConnectFailure` naming the surviving indices if R
    is nonempty after the last round, or at once, with
    ``budget_exhausted``, when the family's searcher runs out of budget.
    """
    root = VertexTuple(root)
    tuples = [VertexTuple(t) for t in tuples]
    w = set(reservoir)
    reservoir = sorted(w)
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
        rounds = _default_rounds(host.n)
    t = len(tuples)
    if t == 0:
        return [], []
    need = t * (template.n - len(root))
    if need > len(reservoir):
        raise ValueError(
            f"request needs {need} internal vertices but the reservoir has "
            f"{len(reservoir)}"
        )
    parts = partition_reservoir(reservoir, rounds)
    details = {
        "round_sizes": [len(p) for p in parts],
        "strict_precondition": need <= len(reservoir) // 4,
    }
    searcher = _CopySearcher(host, template, root)
    embeddings: list[dict[int, int] | None] = [None] * t
    remaining = list(range(t))
    trajectory: list[int] = []
    for part in parts:
        if not remaining:
            break
        used: set[int] = set()
        still: list[int] = []
        for i in remaining:
            try:
                emb = searcher.find(tuples[i], [v for v in part if v not in used])
            except SearchBudgetExceeded:
                raise ConnectFailure(
                    "connect",
                    unmatched=[j for j in range(t) if embeddings[j] is None],
                    trajectory=trajectory,
                    budget_exhausted=True,
                    **details,
                ) from None
            if emb is None:
                still.append(i)
            else:
                embeddings[i] = emb
                used |= {h for tv, h in emb.items() if tv not in root}
        remaining = still
        trajectory.append(len(remaining))
    if remaining:
        raise ConnectFailure("connect", unmatched=remaining, trajectory=trajectory, **details)
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
) -> PathFamily:
    """Connect endpoint tuple pairs with disjoint connecting/tight paths.

    Power mode uses the connecting-path template on a 2-uniform host; tight
    mode uses the tight-path template on a (k+1)-uniform host.  Path i runs
    from a_i to b_i with all internal vertices inside the reservoir.
    """
    w = uniformity(k, mode)
    if ell <= 2 * k:
        raise ValueError(f"connector length must exceed 2k = {2 * k}, got {ell}")
    if host.k != w:
        raise ValueError(f"{mode} mode with k={k} requires a {w}-uniform host, got {host.k}")
    if mode == "power":
        template = connecting_path_template(k, ell)
    else:
        template = tight_path_template(k, ell)
    root = tuple(range(k)) + tuple(range(ell - k, ell))
    tuples = [tuple(a) + tuple(b) for a, b in pairs]
    embeddings, trajectory = connect_family(host, template, root, tuples, reservoir, rounds)
    sequences = [tuple(emb[v] for v in range(ell)) for emb in embeddings]
    return PathFamily(sequences=sequences, trajectory=trajectory, end_width=k)
