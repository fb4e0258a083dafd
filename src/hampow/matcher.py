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
from dataclasses import dataclass, field
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
    "ConnectionRequest",
    "PathFamily",
    "PhaseFailure",
    "RootedMatching",
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

    def find(
        self,
        y: Sequence[int],
        allowed_sorted: Sequence[int],
        allowed_set: set[int],
    ) -> dict[int, int] | None:
        """First embedding with root -> y and internals inside allowed, or None.

        ``allowed_sorted`` lists ``allowed_set`` in ascending order.  None
        means no copy exists; running out of budget raises
        :class:`SearchBudgetExceeded`.
        """
        host, template = self.host, self.template
        if len(y) != len(self.root):
            raise ValueError(f"root tuple has {len(self.root)} vertices, image has {len(y)}")
        if len(set(y)) != len(y):
            raise ValueError("root image vertices must be distinct")
        if any(v in allowed_set for v in y):
            raise ValueError("root image must be disjoint from the allowed reservoir")
        images: dict[int, int] = dict(zip(self.root, y))
        for e in self.root_edges:
            if not host.has_edge([images[v] for v in e]):
                return None
        if not self.order:
            return dict(images)
        used: set[int] = set()
        pool = np.asarray(allowed_sorted, dtype=np.int64) if host.k == 2 else None
        # one candidate stream per placed depth; a depth that takes its next
        # candidate first gives back the vertex it held
        iters: list[Iterable[int]] = [self._candidates(0, images, used, allowed_sorted, pool)]
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
            iters.append(self._candidates(depth + 1, images, used, allowed_sorted, pool))
        return None

    def _candidates(self, depth, images, used, allowed_sorted, pool):
        """Allowed, unused vertices that extend the partial embedding, ascending.

        ``pool`` is ``allowed_sorted`` as an int64 array on a 2-uniform host,
        where a candidate must be adjacent to the image of every anchor.
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
        for w in allowed_sorted:
            self.remaining -= 1
            if self.remaining < 0:
                raise SearchBudgetExceeded()
            if w in used:
                continue
            ok = True
            for e in anchors:
                image = [images[u] if u != v_t else w for u in e]
                if not host.has_edge(image):
                    ok = False
                    break
            if ok:
                yield w


@dataclass(frozen=True)
class ConnectionRequest:
    """A family of disjoint root-image tuples to connect inside a reservoir."""

    template: Hypergraph
    root: VertexTuple
    tuples: tuple[VertexTuple, ...]
    reservoir: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", VertexTuple(self.root))
        object.__setattr__(self, "tuples", tuple(VertexTuple(t) for t in self.tuples))
        object.__setattr__(self, "reservoir", tuple(sorted(set(self.reservoir))))
        r = len(self.root)
        w = set(self.reservoir)
        seen: set[int] = set()
        for t in self.tuples:
            if len(t) != r:
                raise ValueError(f"tuple {t} does not match the root arity {r}")
            ts = set(t)
            if ts & seen:
                raise ValueError("request tuples must be pairwise disjoint")
            if ts & w:
                raise ValueError("request tuples must avoid the reservoir")
            seen |= ts

    @property
    def internals_per_copy(self) -> int:
        return self.template.n - len(self.root)


@dataclass
class RootedMatching:
    """Vertex-disjoint rooted copies, one per request index."""

    embeddings: list[dict[int, int]]
    trajectory: list[int] = field(default_factory=list)
    round_sizes: list[int] = field(default_factory=list)
    strict_precondition: bool = True

    def internal_vertices(self, root: Sequence[int]) -> set[int]:
        rs = set(root)
        out: set[int] = set()
        for emb in self.embeddings:
            out |= {host for tv, host in emb.items() if tv not in rs}
        return out


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
    req: ConnectionRequest,
    rounds: int | None = None,
) -> RootedMatching:
    """Greedy round-based construction of a rooted matching.

    Keeps a set R of unmatched request indices; round j sweeps R in ascending
    order, searching each tuple inside the round's reservoir slice minus the
    vertices already consumed this round.  Matched indices leave R; matchings
    from different rounds are disjoint because the slices are.  Raises
    :class:`ConnectFailure` naming the surviving indices if R is nonempty
    after the last round, or at once, with ``budget_exhausted``, when the
    family's searcher runs out of budget.
    """
    if rounds is None:
        rounds = _default_rounds(host.n)
    t = len(req.tuples)
    if t == 0:
        return RootedMatching(embeddings=[])
    need = t * req.internals_per_copy
    if need > len(req.reservoir):
        raise ValueError(
            f"request needs {need} internal vertices but the reservoir has "
            f"{len(req.reservoir)}"
        )
    strict = need <= len(req.reservoir) // 4
    parts = partition_reservoir(req.reservoir, rounds)
    searcher = _CopySearcher(host, req.template, req.root)
    embeddings: list[dict[int, int] | None] = [None] * t
    remaining = list(range(t))
    trajectory: list[int] = []
    root_set = set(req.root)
    for part in parts:
        if not remaining:
            break
        part_sorted = list(part)
        part_set = set(part)
        used: set[int] = set()
        still: list[int] = []
        for i in remaining:
            allowed_sorted = [v for v in part_sorted if v not in used]
            try:
                emb = searcher.find(req.tuples[i], allowed_sorted, part_set - used)
            except SearchBudgetExceeded:
                raise ConnectFailure(
                    "connect",
                    unmatched=[j for j in range(t) if embeddings[j] is None],
                    trajectory=trajectory,
                    round_sizes=[len(p) for p in parts],
                    budget_exhausted=True,
                    strict_precondition=strict,
                ) from None
            if emb is None:
                still.append(i)
            else:
                embeddings[i] = emb
                used |= {h for tv, h in emb.items() if tv not in root_set}
        remaining = still
        trajectory.append(len(remaining))
    if remaining:
        raise ConnectFailure(
            "connect",
            unmatched=remaining,
            trajectory=trajectory,
            round_sizes=[len(p) for p in parts],
            strict_precondition=strict,
        )
    return RootedMatching(
        embeddings=[e for e in embeddings if e is not None],
        trajectory=trajectory,
        round_sizes=[len(p) for p in parts],
        strict_precondition=strict,
    )


@dataclass
class PathFamily:
    """Vertex-disjoint connecting paths, one per endpoint pair."""

    sequences: list[tuple[int, ...]]
    embeddings: list[dict[int, int]]
    trajectory: list[int]
    end_width: int = 0

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
    root = VertexTuple(tuple(range(k)) + tuple(range(ell - k, ell)))
    tuples = tuple(VertexTuple(tuple(a) + tuple(b)) for a, b in pairs)
    req = ConnectionRequest(
        template=template, root=root, tuples=tuples, reservoir=tuple(reservoir)
    )
    if not req.tuples:
        return PathFamily(sequences=[], embeddings=[], trajectory=[], end_width=k)
    matching = connect_family(host, req, rounds=rounds)
    sequences = [
        tuple(emb[v] for v in range(ell)) for emb in matching.embeddings
    ]
    return PathFamily(
        sequences=sequences,
        embeddings=matching.embeddings,
        trajectory=matching.trajectory,
        end_width=k,
    )
