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

from dataclasses import dataclass
from typing import Iterable, Sequence

from hampow.core import Hypergraph, VertexTuple, required_edges, uniformity
from hampow.factor import factor_in_window
from hampow.matcher import ConnectFailure, PhaseFailure, connect_paths

__all__ = [
    "Backbone",
    "BackboneLayout",
    "ChainAbsorber",
    "SingleVertexAbsorber",
    "absorb",
    "absorb_single",
    "backbone_layout",
    "backbone_template",
    "build_chain_absorber",
    "chain_vertex_count",
    "default_connector_len",
    "demo_absorber",
]


@dataclass(frozen=True)
class BackboneLayout:
    """Vertex naming scheme of the backbone on 1 + 2*k*ell vertices.

    Vertex 0 is the special (absorbable) vertex; block i (1-based) occupies
    ids 1 + (i-1)*2k .. i*2k, its first k vertices forming the head tuple
    and its last k the tail tuple.
    """

    k: int
    ell: int

    @property
    def x(self) -> int:
        return 0

    @property
    def vertex_count(self) -> int:
        return 1 + 2 * self.k * self.ell

    def block(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.ell:
            raise ValueError(f"block index {i} out of range 1..{self.ell}")
        base = 1 + (i - 1) * 2 * self.k
        return tuple(range(base, base + 2 * self.k))

    def head(self, i: int) -> VertexTuple:
        return VertexTuple(self.block(i)[: self.k])

    def tail(self, i: int) -> VertexTuple:
        return VertexTuple(self.block(i)[self.k:])


def backbone_layout(k: int, ell: int) -> BackboneLayout:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ell < 3 or ell % 2 == 0:
        raise ValueError(f"backbone needs odd ell >= 3, got {ell}")
    return BackboneLayout(k=k, ell=ell)


def _backbone_sequences(lay: BackboneLayout) -> list[tuple[int, ...]]:
    k, ell = lay.k, lay.ell
    seqs = [tuple(lay.head(1)) + (lay.x,) + tuple(lay.tail(1))]
    for i in range(2, ell + 1):
        seqs.append(tuple(lay.block(i)))
    seqs.append(tuple(lay.head(2)) + tuple(reversed(lay.head(1))))
    for i in range(1, ell - 1):
        seqs.append(tuple(lay.head(i + 2)) + tuple(lay.tail(i)))
    seqs.append(tuple(reversed(lay.tail(ell))) + tuple(lay.tail(ell - 1)))
    return seqs


@dataclass(frozen=True)
class Backbone:
    """A backbone template: the gadget graph plus its tuple bookkeeping."""

    k: int
    ell: int
    mode: str
    layout: BackboneLayout
    graph: Hypergraph

    @property
    def x(self) -> int:
        return self.layout.x

    def head(self, i: int) -> VertexTuple:
        return self.layout.head(i)

    def tail(self, i: int) -> VertexTuple:
        return self.layout.tail(i)


def _build_backbone(k: int, ell: int, mode: str) -> Backbone:
    lay = backbone_layout(k, ell)
    edges: set[tuple[int, ...]] = set()
    for seq in _backbone_sequences(lay):
        path = required_edges(seq, k, mode)
        if mode == "tight" and edges & path:
            raise AssertionError("backbone tight paths must be edge-disjoint")
        edges |= path
    graph = Hypergraph(uniformity(k, mode), lay.vertex_count, edges)
    return Backbone(k=k, ell=ell, mode=mode, layout=lay, graph=graph)


def backbone_template(k: int, ell: int, mode: str) -> Backbone:
    """The backbone gadget; 2-uniform in power mode, (k+1)-uniform in tight mode."""
    if ell < 5 or ell % 2 == 0:
        raise ValueError(f"backbone template needs odd ell >= 5, got {ell}")
    return _build_backbone(k, ell, mode)


def default_connector_len(k: int, mode: str) -> int:
    """Shortest connector usable in random hosts.

    At length 2k+1 a power-mode connecting path demands direct edges between
    its two end tuples, which a random host rarely supplies; length 2k+2
    avoids that.  Tight mode (and k=1) has no such end-to-end demand.
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

    def __post_init__(self) -> None:
        lay = self.backbone.layout
        if len(self.connectors) != lay.ell - 1:
            raise ValueError(f"expected {lay.ell - 1} connectors, got {len(self.connectors)}")
        k = lay.k
        g = self.embedding
        for i, seq in enumerate(self.connectors, start=1):
            if tuple(seq[:k]) != tuple(g[v] for v in lay.tail(i)):
                raise ValueError(f"connector {i} does not start at the tail of block {i}")
            if tuple(seq[-k:]) != tuple(g[v] for v in lay.head(i + 1)):
                raise ValueError(f"connector {i} does not end at the head of block {i + 1}")

    @property
    def a(self) -> VertexTuple:
        lay = self.backbone.layout
        return VertexTuple(self.embedding[v] for v in lay.head(1))

    @property
    def b(self) -> VertexTuple:
        lay = self.backbone.layout
        return VertexTuple(self.embedding[v] for v in lay.tail(lay.ell))

    @property
    def x(self) -> int:
        return self.embedding[self.backbone.x]

    def vertices(self) -> set[int]:
        out = set(self.embedding.values())
        k = self.backbone.k
        for seq in self.connectors:
            out |= set(seq[k:-k])
        return out


def _connector_interior(seq: Sequence[int], k: int) -> tuple[int, ...]:
    return tuple(seq[k:len(seq) - k])


def absorb_single(ab: SingleVertexAbsorber, include_x: bool) -> tuple[int, ...]:
    """Spanning path of the single-vertex absorber, with or without x.

    Both traversals run from the a-tuple to the b-tuple.  Including x walks
    block 1 through x and then each connector forward; excluding x enters
    each next block head first and walks the connectors backwards, covering
    every vertex except x.
    """
    lay = ab.backbone.layout
    g = ab.embedding
    k, ell = lay.k, lay.ell

    def img(vs: Iterable[int]) -> list[int]:
        return [g[v] for v in vs]

    if include_x:
        order = img(lay.head(1)) + [g[lay.x]] + img(lay.tail(1))
        for i in range(1, ell):
            order += list(_connector_interior(ab.connectors[i - 1], k))
            order += img(lay.block(i + 1))
        return tuple(order)
    order = img(lay.head(1))
    for i in range(1, ell):
        order += img(reversed(lay.head(i + 1)))
        order += list(reversed(_connector_interior(ab.connectors[i - 1], k)))
        order += img(reversed(lay.tail(i)))
    order += img(lay.tail(ell))
    return tuple(order)


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
        out: set[int] = set()
        for ab in self.absorbers:
            out |= ab.vertices()
        k = self.absorbers[0].backbone.k
        for seq in self.chain_connectors:
            out |= set(seq[k:-k])
        return out


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
    k = chain.absorbers[0].backbone.k
    order: list[int] = []
    for i, ab in enumerate(chain.absorbers):
        order += list(absorb_single(ab, include_x=ab.x not in skip))
        if i + 1 < len(chain.absorbers):
            order += list(_connector_interior(chain.chain_connectors[i], k))
    return tuple(order)


def chain_vertex_count(k: int, ell: int, connector_len: int, t: int) -> int:
    """Vertices of a t-link chain with the given connector length."""
    interior = connector_len - 2 * k
    per_link = (1 + 2 * k * ell) + (ell - 1) * interior
    return t * per_link + max(t - 1, 0) * interior


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
    w = uniformity(k, mode)
    if host.k != w:
        raise ValueError(f"{mode} mode with k={k} requires a {w}-uniform host")
    if absorb_size < 1:
        raise ValueError(f"absorb_size must be >= 1, got {absorb_size}")
    t = absorb_size
    connector_len = default_connector_len(k, mode)
    backbone = backbone_template(k, ell, mode)
    w1 = [v for v in range(n) if v % 3 == 0]
    w2 = [v for v in range(n) if v % 3 == 1]
    w3 = [v for v in range(n) if v % 3 == 2]
    interior = connector_len - 2 * k
    total = chain_vertex_count(k, ell, connector_len, t)
    if total > n // 2:
        raise ValueError(
            f"chain absorber would use {total} > n/2 = {n // 2} vertices; "
            "reduce absorb_size or ell"
        )
    if t * backbone.graph.n > len(w1):
        raise ValueError(
            f"{t} backbone copies need {t * backbone.graph.n} vertices "
            f"but the factor window has {len(w1)}"
        )
    if t * (ell - 1) * interior > len(w2) or max(t - 1, 0) * interior > len(w3):
        raise ValueError("connector demand exceeds the connection reservoirs")

    copies = factor_in_window(host, backbone.graph, w1, quota=t)

    intra_pairs = []
    for g in copies:
        for j in range(1, ell):
            a = tuple(g[v] for v in backbone.tail(j))
            b = tuple(g[v] for v in backbone.head(j + 1))
            intra_pairs.append((a, b))
    try:
        intra = connect_paths(host, intra_pairs, w2, k, connector_len, mode)
    except ConnectFailure as e:
        raise PhaseFailure("intra-connect", e.message, **e.details) from e

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
        try:
            chain = connect_paths(host, chain_pairs, w3, k, connector_len, mode)
        except ConnectFailure as e:
            raise PhaseFailure("chain-connect", e.message, **e.details) from e
        chain_seqs = tuple(chain.sequences)
    else:
        chain_seqs = ()
    result = ChainAbsorber(absorbers=tuple(links), chain_connectors=chain_seqs)
    assert len(result.vertices()) == total
    return result


def demo_absorber(k: int, ell: int, mode: str) -> tuple[Hypergraph, SingleVertexAbsorber]:
    """A single-vertex absorber on a complete host, for demos and tests."""
    backbone = backbone_template(k, ell, mode)
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
