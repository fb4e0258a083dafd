"""Backbone gadgets and chained absorbers.

A backbone is a gadget around one special vertex x: a ring of 2k-vertex
blocks, with x spliced into the first block, wired so that a spanning path
between the fixed end tuples exists both through x and around it.  Adding a
connecting path between consecutive blocks yields a single-vertex absorber;
chaining t of them yields an absorber for a t-element vertex set: for every
subset X' of the absorbable set there is a spanning-minus-X' path between
the global end tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from hampow.core import Hypergraph, VertexTuple, _count, check_uniformity, required_edges, uniformity
from hampow.factor import factor_in_window
from hampow.matcher import connect_paths

__all__ = [
    "Backbone",
    "ChainAbsorber",
    "SingleVertexAbsorber",
    "absorb",
    "absorb_single",
    "build_chain_absorber",
    "chain_capacity",
    "chain_vertex_count",
    "default_connector_len",
    "demo_absorber",
    "splice",
]


def splice(
    pieces: Sequence[Sequence[int]], connectors: Sequence[Sequence[int]], k: int
) -> tuple[int, ...]:
    """Join consecutive pieces by the interiors of the connectors between them.

    Connector i joins piece i to piece i+1.  Its first and last k vertices
    are the end tuples it joins, which the pieces already hold, so only its
    interior is inserted.
    """
    order = list(pieces[0])
    for seq, piece in zip(connectors, pieces[1:], strict=True):
        order += seq[k:len(seq) - k]
        order += piece
    return tuple(order)


@dataclass(frozen=True)
class Backbone:
    """The backbone gadget on 1 + 2*k*ell vertices, defined by two spanning paths.

    Vertex 0 is the special (absorbable) vertex x; block i (1-based) occupies
    ids 1 + (i-1)*2k .. i*2k, its first k vertices forming the head tuple
    and its last k the tail tuple.  Each path is a list of pieces, cut where
    a connector from tail(i) to head(i+1) (walked backwards around x) joins
    them; the gadget's edges are exactly those the pieces need.
    """

    k: int
    ell: int
    mode: str
    graph: Hypergraph = field(init=False)
    # each block's head and tail tuples, then the pieces around and through x
    _ends: tuple[tuple[VertexTuple, ...], ...] = field(init=False, repr=False, compare=False)
    _pieces: tuple[tuple[tuple[int, ...], ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = uniformity(self.k, self.mode)
        if _count(self.ell, "backbone length ell", 3) % 2 == 0:
            raise ValueError(f"backbone needs odd ell >= 3, got {self.ell}")
        blocks = [self.block(i) for i in range(1, self.ell + 1)]
        ends = tuple(tuple(VertexTuple(b[j:j + self.k]) for b in blocks) for j in (0, self.k))
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_pieces", (tuple(self._walk(False)), tuple(self._walk(True))))
        paths = [
            Hypergraph(w, self.vertex_count, np.concatenate([
                rows
                for piece in self.pieces(include_x)
                for rows in required_edges(piece, self.k, self.mode)
            ])).edge_codes()
            for include_x in (True, False)
        ]
        codes = np.sort(np.concatenate(paths))
        shared = codes[1:] == codes[:-1]  # the two power paths share pairs
        if self.mode == "tight" and shared.any():
            raise AssertionError("backbone tight paths must be edge-disjoint")
        graph = Hypergraph.from_codes(w, self.vertex_count, codes[np.append(True, ~shared)])
        object.__setattr__(self, "graph", graph)

    @property
    def x(self) -> int:
        return 0

    @property
    def vertex_count(self) -> int:
        return 1 + 2 * self.k * self.ell

    def block(self, i: int) -> tuple[int, ...]:
        base = 1 + self._index(i) * 2 * self.k
        return tuple(range(base, base + 2 * self.k))

    def head(self, i: int) -> VertexTuple:
        return self._ends[0][self._index(i)]

    def tail(self, i: int) -> VertexTuple:
        return self._ends[1][self._index(i)]

    def _index(self, i: int) -> int:
        if not 1 <= i <= self.ell:
            raise ValueError(f"block index {i} out of range 1..{self.ell}")
        return i - 1

    def pieces(self, include_x: bool) -> list[tuple[int, ...]]:
        """The ell pieces of the spanning path from head(1) to tail(ell), computed once.

        Through x: block 1 with x between its tuples, then blocks 2..ell.
        Around x: each piece ends on a reversed tail and the next starts on
        a reversed head, so the connectors are walked backwards.
        """
        return list(self._pieces[include_x])

    def _walk(self, include_x: bool) -> list[tuple[int, ...]]:
        ell = self.ell
        if include_x:
            first = tuple(self.head(1)) + (self.x,) + tuple(self.tail(1))
            return [first] + [self.block(i) for i in range(2, ell + 1)]
        out = [tuple(self.head(1)) + tuple(reversed(self.head(2)))]
        for i in range(1, ell - 1):
            out.append(tuple(reversed(self.tail(i))) + tuple(reversed(self.head(i + 2))))
        out.append(tuple(reversed(self.tail(ell - 1))) + tuple(self.tail(ell)))
        return out


def default_connector_len(k: int, mode: str) -> int:
    """Connector length: 2k+1 in tight mode and for k=1, else 2k+2.

    A power-mode connecting path demands an edge between its two end tuples
    for each pair of them at distance <= k: k(k-1)/2 edges at length 2k+1
    and (k-1)(k-2)/2 at length 2k+2, so none only for k <= 2 (one at k=3,
    three at k=4, six at k=5).  The copy search checks these edges before
    it searches.  Tight mode and k=1 have no end-to-end demand.
    """
    if mode == "tight" or k == 1:
        return 2 * k + 1
    return 2 * k + 2


@dataclass(frozen=True)
class SingleVertexAbsorber:
    """An embedded backbone plus the ell-1 connecting paths between blocks.

    ``connectors[i]`` is the full host vertex sequence from the image of
    tail(i+1) to the image of head(i+2) (0-based list over i).  Connector
    interiors are disjoint from each other and from the backbone image.
    """

    backbone: Backbone
    embedding: dict[int, int]
    connectors: tuple[tuple[int, ...], ...]
    _walks: dict[bool, tuple[int, ...]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bb = self.backbone
        if len(self.connectors) != bb.ell - 1:
            raise ValueError(f"expected {bb.ell - 1} connectors, got {len(self.connectors)}")
        k = bb.k
        g = self.embedding
        for i, seq in enumerate(self.connectors, start=1):
            if tuple(seq[:k]) != tuple(g[v] for v in bb.tail(i)):
                raise ValueError(f"connector {i} does not start at the tail of block {i}")
            if tuple(seq[-k:]) != tuple(g[v] for v in bb.head(i + 1)):
                raise ValueError(f"connector {i} does not end at the head of block {i + 1}")

    @property
    def a(self) -> VertexTuple:
        return VertexTuple(self.embedding[v] for v in self.backbone.head(1))

    @property
    def b(self) -> VertexTuple:
        bb = self.backbone
        return VertexTuple(self.embedding[v] for v in bb.tail(bb.ell))

    @property
    def x(self) -> int:
        return self.embedding[self.backbone.x]


def absorb_single(ab: SingleVertexAbsorber, include_x: bool) -> tuple[int, ...]:
    """Spanning path of the single-vertex absorber, with or without x.

    Both traversals run from the a-tuple to the b-tuple: the embedded
    backbone pieces joined by the connectors, walked forwards through x and
    backwards around it.  Each absorber walks each traversal once.
    """
    walk = ab._walks.get(include_x)
    if walk is None:
        g = ab.embedding
        pieces = [[g[v] for v in piece] for piece in ab.backbone.pieces(include_x)]
        connectors = ab.connectors if include_x else [seq[::-1] for seq in ab.connectors]
        walk = ab._walks[include_x] = splice(pieces, connectors, ab.backbone.k)
    return walk


@dataclass(frozen=True)
class ChainAbsorber:
    """Single-vertex absorbers chained end to end.

    ``chain_connectors[i]`` runs from absorbers[i].b to absorbers[i+1].a.
    The absorbable set consists of the special vertices of the links; the
    global end tuples are the first link's a and the last link's b.
    """

    absorbers: tuple[SingleVertexAbsorber, ...]
    chain_connectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.chain_connectors) != max(len(self.absorbers) - 1, 0):
            raise ValueError("need exactly one chain connector between consecutive links")
        k = self.absorbers[0].backbone.k if self.absorbers else 0
        for i, seq in enumerate(self.chain_connectors):
            if tuple(seq[:k]) != tuple(self.absorbers[i].b):
                raise ValueError(f"chain connector {i} does not start at link {i}'s b-tuple")
            if tuple(seq[-k:]) != tuple(self.absorbers[i + 1].a):
                raise ValueError(f"chain connector {i} does not end at link {i + 1}'s a-tuple")

    @property
    def absorbable(self) -> tuple[int, ...]:
        return tuple(ab.x for ab in self.absorbers)

    @property
    def a(self) -> VertexTuple:
        return self.absorbers[0].a

    @property
    def b(self) -> VertexTuple:
        return self.absorbers[-1].b

    def vertices(self) -> set[int]:
        return set(absorb(self, ()))


def absorb(chain: ChainAbsorber, exclude: Iterable[int]) -> tuple[int, ...]:
    """Spanning path of the chain covering exactly its vertices minus ``exclude``.

    ``exclude`` must be a subset of the absorbable set.  The result runs from
    chain.a to chain.b; each link contributes its with-x or without-x
    traversal depending on membership in ``exclude``.
    """
    skip = set(exclude)
    extra = skip - set(chain.absorbable)
    if extra:
        raise ValueError(f"can only absorb designated vertices, got foreign {sorted(extra)}")
    links = [absorb_single(ab, include_x=ab.x not in skip) for ab in chain.absorbers]
    return splice(links, chain.chain_connectors, chain.absorbers[0].backbone.k)


def chain_vertex_count(k: int, ell: int, connector_len: int, t: int) -> int:
    """Vertices of a t-link chain with the given connector length."""
    interior = connector_len - 2 * k
    per_link = (1 + 2 * k * ell) + (ell - 1) * interior
    return t * per_link + max(t - 1, 0) * interior


def chain_capacity(n: int, k: int, mode: str, ell: int) -> int:
    """Most links a chain absorber with ell-block backbones has on an n-vertex host.

    The chain takes at most n/2 vertices, the backbone copies fit in residue
    class 0 mod 3 (the factor window) and the intra-link connectors'
    interiors in class 1.  The chain connectors, fewer and no longer than
    the intra-link ones, then fit in class 2.
    """
    interior = default_connector_len(k, mode) - 2 * k
    v_backbone = 1 + 2 * k * ell
    return min(
        # chain_vertex_count(t) = t * (v_backbone + ell * interior) - interior
        (n // 2 + interior) // (v_backbone + ell * interior),
        (n + 2) // 3 // v_backbone,
        (n + 1) // 3 // ((ell - 1) * interior),
    )


def build_chain_absorber(
    host: Hypergraph, k: int, mode: str, *, ell: int, absorb_size: int
) -> ChainAbsorber:
    """Build a chain absorber with ``absorb_size`` links inside a random host.

    The vertex set is equipartitioned by residue mod 3: backbone copies are
    found in the first part (greedy window factor), the intra-link connectors
    in the second, the chain connectors in the third.  Connectors have length
    :func:`default_connector_len`.  Each phase's copy searches share one
    searcher's budget, so hopeless sparse hosts fail fast instead of
    backtracking exponentially.  All phases are deterministic given the host.
    """
    n = host.n
    check_uniformity(host, k, mode)
    t = _count(absorb_size, "absorb_size", 1)
    backbone = Backbone(k, ell, mode)
    capacity = chain_capacity(n, k, mode, ell)
    if t > capacity:
        raise ValueError(
            f"a chain absorber of {t} links with ell={ell} does not fit in {n} vertices; "
            f"at most {capacity} do"
        )
    connector_len = default_connector_len(k, mode)
    w1, w2, w3 = (range(c, n, 3) for c in range(3))

    copies = factor_in_window(host, backbone.graph, w1, quota=t)

    intra_pairs = []
    for g in copies:
        for j in range(1, ell):
            a = tuple(g[v] for v in backbone.tail(j))
            b = tuple(g[v] for v in backbone.head(j + 1))
            intra_pairs.append((a, b))
    intra = connect_paths(host, intra_pairs, w2, k, connector_len, mode, phase="intra-connect")

    links = []
    for i, g in enumerate(copies):
        conns = tuple(
            intra.sequences[i * (ell - 1) + j] for j in range(ell - 1)
        )
        links.append(SingleVertexAbsorber(backbone=backbone, embedding=g, connectors=conns))

    if t > 1:
        chain_pairs = [
            (tuple(links[i].b), tuple(links[i + 1].a)) for i in range(t - 1)
        ]
        chain = connect_paths(host, chain_pairs, w3, k, connector_len, mode, phase="chain-connect")
        chain_seqs = tuple(chain.sequences)
    else:
        chain_seqs = ()
    result = ChainAbsorber(absorbers=tuple(links), chain_connectors=chain_seqs)
    assert len(result.vertices()) == chain_vertex_count(k, ell, connector_len, t)
    return result


def demo_absorber(k: int, ell: int, mode: str) -> tuple[Hypergraph, SingleVertexAbsorber]:
    """A single-vertex absorber on a complete host, for demos and tests."""
    backbone = Backbone(k, ell, mode)
    interior = default_connector_len(k, mode) - 2 * k
    nb = backbone.graph.n
    n = nb + (ell - 1) * interior
    host = Hypergraph.complete(uniformity(k, mode), n)
    embedding = {v: v for v in range(nb)}
    connectors = []
    nxt = nb
    for i in range(1, ell):
        inner = tuple(range(nxt, nxt + interior))
        nxt += interior
        seq = tuple(backbone.tail(i)) + inner + tuple(backbone.head(i + 1))
        connectors.append(seq)
    ab = SingleVertexAbsorber(
        backbone=backbone, embedding=embedding, connectors=tuple(connectors)
    )
    return host, ab
