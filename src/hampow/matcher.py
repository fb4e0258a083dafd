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

    A searcher starts with :data:`SEARCH_BUDGET` candidate checks in
    ``remaining`` and spends them over all its searches, so a phase that
    builds one searcher is bounded as a whole.  One unit is charged per
    candidate a search step considers, before the used check:

    - on a 2-uniform host, one unit per allowed candidate adjacent to every anchor;
    - on any other host, one unit per allowed vertex scanned.

    Exhaustion raises :class:`SearchBudgetExceeded`.
    """

    def __init__(self, host: Hypergraph, template: Hypergraph, root: Sequence[int]):
        if host.k != template.k:
            raise ValueError(
                f"uniformity mismatch: host {host.k}-uniform, template {template.k}-uniform"
            )
        self.remaining = SEARCH_BUDGET
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
        pool = np.asarray(allowed, dtype=np.int64)
        # one candidate stream per placed depth; a depth that takes its next
        # candidate first gives back the vertex it held
        iters: list[Iterable[int]] = [self._candidates(0, images, used, allowed, pool)]
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

    def _candidates(self, depth, images, used, allowed, pool):
        """Allowed, unused vertices that extend the partial embedding, ascending.

        ``pool`` is ``allowed`` as an int64 array.  On a 2-uniform host a
        candidate must be adjacent to the image of every anchor; on any other
        host the stream tests every allowed vertex against all anchors in one
        ``has_edge`` batch when it opens, then scans them.
        """
        v_t = self.order[depth]
        anchors = self.anchors[depth]
        host = self.host
        if host.k == 2 and anchors:
            cand = pool
            for e in anchors:
                nbrs = host.neighbors(images[next(u for u in e if u != v_t)])
                if nbrs.size == 0:
                    return
                # a position past the end clips to the largest neighbour, never a match
                cand = cand[nbrs.take(nbrs.searchsorted(cand), mode="clip") == cand]
            for w in cand.tolist():
                self.remaining -= 1
                if self.remaining < 0:
                    raise SearchBudgetExceeded()
                if w not in used:
                    yield w
            return
        # rows[a, i]: anchor a with allowed vertex i in the place of v_t
        rows = np.empty((len(anchors), pool.size, host.k), dtype=np.int64)
        for a, e in enumerate(anchors):
            rows[a, :, :-1] = [images[u] for u in e if u != v_t]
            rows[a, :, -1] = pool
        fits = host.has_edge(rows.reshape(-1, host.k)).reshape(len(anchors), pool.size).all(axis=0)
        for w, ok in zip(allowed, fits.tolist()):
            self.remaining -= 1
            if self.remaining < 0:
                raise SearchBudgetExceeded()
            if ok and w not in used:
                yield w


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
