"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's own algorithms: densities recount
edges per vertex subset (or, above the enumeration limit, solve max-closure
min-cuts with networkx), copy search tries raw injections, and cycle checks
enumerate required pairs and windows directly.  The three-round sampler is
checked against a candidate-by-candidate edge-form replay of its three
gap streams (its three hashed coins for k >= 3), the reservoir-walking
copy-search candidates against the neighbour-intersection generator they
replaced, and the k >= 3 candidate
stream's charges against a scan that charges one vertex at a time.
``hopcroft_karp`` is the matching without its greedy first pass, and
``per_step_cover`` the cover that asks the host once per step.
``is_edge`` asks the host about one vertex set as a one-row batch,
``is_embedding`` checks a copy edge by edge, and
``middle_connecting_path_template`` is the connecting path without the
edges between its end blocks, for rooted densities.  The degeneracy helpers (peeling, ordering check and the
backbone's explicit ordering) back the criterion-3 analysis of the backbone
gadget.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Mapping

import numpy as np
import pytest

from hampow.absorber import Backbone
from hampow.core import Hypergraph, VertexTuple, _encode_rows, required_edges
from hampow.matcher import PhaseFailure, SearchBudgetExceeded
from hampow.randmodels import BipartiteGraph, derive, mix, three_round_rate


def naive_m1(template: Hypergraph) -> Fraction:
    """1-density by direct enumeration of vertex subsets (recounts edges)."""
    edges = [set(e) for e in template.edges()]
    assert edges, "oracle needs at least one edge"
    best = None
    verts = range(template.n)
    for size in range(2, template.n + 1):
        for subset in combinations(verts, size):
            ss = set(subset)
            count = sum(1 for e in edges if e <= ss)
            if count >= 1:
                cand = Fraction(count, size - 1)
                if best is None or cand > best:
                    best = cand
    return best


def mincut_m1(template: Hypergraph) -> Fraction:
    """1-density by parametric max-closure min-cuts, for any template size.

    For a candidate value a/b and a forced vertex r, the best subgraph
    through r of b*e(H) - a*(v(H)-1) is a maximum-weight closure: each edge
    is worth b and needs its vertices, each vertex other than r costs a.
    The closure is read off a minimum s-t cut.  A positive optimum yields a
    denser subgraph, whose ratio becomes the next candidate (Dinkelbach's
    iteration); when no forced vertex gives a positive optimum, the
    candidate is the exact maximum.  Integer capacities keep it exact.
    """
    nx = pytest.importorskip("networkx")
    edges = [frozenset(e) for e in template.edges()]
    assert edges, "oracle needs at least one edge"

    def ratio(verts: set[int]) -> Fraction:
        return Fraction(sum(1 for e in edges if e <= verts), len(verts) - 1)

    best = ratio(set().union(*edges))
    improved = True
    while improved:
        improved = False
        a, b = best.numerator, best.denominator
        for r in range(template.n):
            net = nx.DiGraph()
            for idx, e in enumerate(edges):
                net.add_edge("s", ("e", idx), capacity=b)
                for v in e - {r}:
                    net.add_edge(("e", idx), ("v", v))  # no capacity: infinite
            for v in range(template.n):
                if v != r:
                    net.add_edge(("v", v), "t", capacity=a)
            cut, (source_side, _) = nx.minimum_cut(net, "s", "t")
            if b * len(edges) - cut > 0:
                verts = {r} | {
                    node[1] for node in source_side if isinstance(node, tuple) and node[0] == "v"
                }
                best = ratio(verts)
                improved = True
                break
    return best


def naive_m_rooted(template: Hypergraph, root: tuple[int, ...]) -> Fraction:
    """Rooted density by two-pass subset enumeration."""
    edges = [set(e) for e in template.edges()]
    root_set = set(root)
    others = [v for v in range(template.n) if v not in root_set]
    best = None
    # subgraphs avoiding the root entirely
    for size in range(2, len(others) + 1):
        for subset in combinations(others, size):
            ss = set(subset)
            count = sum(1 for e in edges if e <= ss)
            if count >= 1:
                cand = Fraction(count, size - 1)
                if best is None or cand > best:
                    best = cand
    # subgraphs containing the whole root (root vertices may sit isolated)
    for size in range(0, len(others) + 1):
        for subset in combinations(others, size):
            ss = set(subset) | root_set
            count = sum(1 for e in edges if e <= ss)
            if count >= 1:
                den = (size + len(root_set)) - max(1, len(root_set))
                if den >= 1:
                    cand = Fraction(count, den)
                    if best is None or cand > best:
                        best = cand
    assert best is not None
    return best


def is_edge(host: Hypergraph, vertices: Iterable[int]) -> bool:
    """Membership of one vertex set of integers, asked as a one-row ``has_edge`` batch."""
    return bool(host.has_edge(np.array([list(vertices)], dtype=np.int64))[0])


def is_embedding(template: Hypergraph, host: Hypergraph, f: Mapping[int, int]) -> bool:
    """True iff ``f`` is injective on V(template) and maps edges to edges."""
    if template.k != host.k:
        raise ValueError(
            f"uniformity mismatch: template is {template.k}-uniform, host {host.k}-uniform"
        )
    if len(f) != template.n:
        return False
    images = set(f.values())
    if len(images) != template.n:
        return False
    if any(v < 0 or v >= host.n for v in images):
        return False
    return all(is_edge(host, [f[v] for v in e]) for e in template.edges())


def middle_connecting_path_template(k: int, ell: int) -> Hypergraph:
    """Connecting path keeping only edges that meet the interior.

    Every edge must have an endpoint outside both end blocks, so the end
    tuple is always independent; this is the right object for rooted density
    computations.  Coincides with ``core.connecting_path_template`` for
    ell >= 3k.
    """
    if k < 1:
        raise ValueError(f"path power must be >= 1, got {k}")
    if ell <= 2 * k:
        raise ValueError(f"connecting path needs ell >= {2 * k + 1}, got {ell}")
    middle = set(range(k, ell - k))
    pairs = [e for e in row_set(required_edges(range(ell), k, "power")) if set(e) & middle]
    return Hypergraph(2, ell, pairs)


def brute_rooted_copy_exists(
    host: Hypergraph,
    template: Hypergraph,
    root: tuple[int, ...],
    y: tuple[int, ...],
    allowed: set[int],
) -> bool:
    """Existence of a rooted copy by trying every injection of the internals."""
    internals = [v for v in range(template.n) if v not in set(root)]
    edges = [tuple(e) for e in template.edges()]
    pool = sorted(allowed)
    for images in permutations(pool, len(internals)):
        f = dict(zip(root, y))
        f.update(zip(internals, images))
        if all(is_edge(host, [f[v] for v in e]) for e in edges):
            return True
    return False


def brute_first_rooted_copy(
    host: Hypergraph,
    template: Hypergraph,
    root: tuple[int, ...],
    order: list[int],
    y: tuple[int, ...],
    allowed: set[int],
):
    """First embedding in lexicographic candidate order along ``order``.

    Plain nested search without pruning; mirrors the searcher's variable
    order so first-found answers are comparable.
    """
    edges = [tuple(e) for e in template.edges()]
    pool = sorted(allowed)
    f = dict(zip(root, y))

    def extend(i: int):
        if i == len(order):
            return dict(f)
        for w in pool:
            if w in f.values():
                continue
            f[order[i]] = w
            ok = all(
                is_edge(host, [f[v] for v in e])
                for e in edges
                if all(v in f for v in e)
            )
            if ok:
                got = extend(i + 1)
                if got is not None:
                    return got
            del f[order[i]]
        return None

    return extend(0)


def row_set(batches: Iterable[np.ndarray]) -> set[tuple[int, ...]]:
    """The rows of these batches as a set of tuples; every row must be strictly increasing."""
    rows = {tuple(r) for batch in batches for r in batch.tolist()}
    assert all(a < b for r in rows for a, b in zip(r, r[1:]))
    return rows


def power_cycle_pairs(order: tuple[int, ...], k: int, cyclic: bool = True) -> set[tuple[int, int]]:
    """Edge set of the k-th power of the cycle (or path) written along ``order``."""
    n = len(order)
    pairs = set()
    for i in range(n):
        for d in range(1, k + 1):
            if not cyclic and i + d >= n:
                break
            u, v = order[i], order[(i + d) % n]
            if u != v:
                pairs.add((min(u, v), max(u, v)))
    return pairs


def tight_windows(order: tuple[int, ...], w: int, cyclic: bool = True) -> set[tuple[int, ...]]:
    """Edge set of the tight cycle (or path) with w-vertex windows along ``order``."""
    n = len(order)
    starts = range(n) if cyclic else range(n - w + 1)
    return {tuple(sorted(order[(i + d) % n] for d in range(w))) for i in starts}


def edge_twin(g: Hypergraph) -> Hypergraph:
    """The same edge set as ``g``, stored as its edges."""
    return Hypergraph.from_codes(g.k, g.n, g.edge_codes())


def complement_twin(g: Hypergraph) -> Hypergraph:
    """The same edge set as ``g``, stored as its non-edges."""
    rows = np.array(list(combinations(range(g.n), g.k)), dtype=np.int64).reshape(-1, g.k)
    codes = _encode_rows(rows[~g.has_edge(rows)].T, g.n)
    return Hypergraph.from_codes(g.k, g.n, codes, complement=True)


def common_codes(rounds: list[np.ndarray]) -> np.ndarray:
    """The codes found in all three sorted, unique rounds, by two whole-round intersections.

    This is how ``sample_three_rounds`` found the dense union before it merged
    the rounds a stretch at a time.
    """
    common = np.intersect1d(rounds[0], rounds[1], assume_unique=True)
    return np.intersect1d(common, rounds[2], assume_unique=True)


def three_rounds_by_enumeration(
    k: int, n: int, p: float, seed: int
) -> tuple[Hypergraph, Hypergraph, Hypergraph, Hypergraph]:
    """sample_three_rounds replayed one candidate at a time, all in edge form.

    For k >= 3 and p < 1 the candidate at place c (its lexicographic rank)
    is an edge of round i when variate c of ``derive(seed, i)``'s stream is
    below q.  Otherwise round i (i = 0, 1, 2) stores its non-edges when
    q > 1/2 and its edges otherwise, each candidate at rate
    r = min(q, 1 - q).  Walking the
    k-subsets in lexicographic order, its j-th stored candidate comes
    1 + floor(log(1 - u) / log(1 - r)) places after the one before (the
    first one at place 0 + that floor), where u is variate j of
    ``derive(seed, i)``: none when r = 0.  A candidate is an edge of round i
    when it is stored there and the round stores edges, or is not stored and
    the round stores non-edges; it is an edge of the union when it is one of
    some round.
    """
    q = three_round_rate(p)
    dense = q > 0.5
    r = 1.0 - q if dense else q

    def stored_places(i: int):
        stream, j, place = derive(seed, i), 0, -1
        while r > 0.0:
            u = (mix(stream, j) >> 11) * 2.0 ** -53
            place += 1 + math.floor(math.log1p(-u) / math.log1p(-r))
            j += 1
            yield place

    streams = [stored_places(i) for i in range(3)]
    upcoming = [next(s, math.inf) for s in streams]
    hashed = [derive(seed, i) for i in range(3)] if k > 2 and p < 1.0 else None
    members: list[list[tuple[int, ...]]] = [[], [], [], []]
    for place, e in enumerate(combinations(range(n), k)):
        in_round = []
        for i in range(3):
            if hashed:
                in_round.append((mix(hashed[i], place) >> 11) * 2.0 ** -53 < q)
                continue
            stored = upcoming[i] == place
            if stored:
                upcoming[i] = next(streams[i])
            in_round.append(stored != dense)
        for i, inside in enumerate(in_round + [any(in_round)]):
            if inside:
                members[i].append(e)
    g1, g2, g3, union = (Hypergraph(k, n, m) for m in members)
    return g1, g2, g3, union


def intersection_candidates(searcher, depth, images, used, allowed_set):
    """The 2-uniform copy-search candidates as the neighbour-intersection scan made them.

    Intersects the neighbourhoods of the anchors' placed vertices and keeps
    the allowed, unused vertices of the intersection, ascending.
    """
    v_t = searcher.order[depth]
    arrays = [
        searcher.host.neighbors(images[next(u for u in e if u != v_t)])
        for e in searcher.anchors[depth]
    ]
    cand = arrays[0]
    for arr in arrays[1:]:
        cand = np.intersect1d(cand, arr, assume_unique=True)
    for w in cand.tolist():
        if w in allowed_set and w not in used:
            yield w


def charged_scan(searcher, depth, images, used, allowed):
    """The copy-search candidate stream, charged vertex by vertex.

    Scans the allowed vertices in order, asking the host about each anchor
    with one one-row ``has_edge`` batch.  Every scanned vertex costs one unit
    of ``searcher.remaining`` before its fit and used checks, and the stream
    raises ``SearchBudgetExceeded`` at the vertex that takes the count
    below 0.
    """
    v_t = searcher.order[depth]
    for w in allowed:
        searcher.remaining -= 1
        if searcher.remaining < 0:
            raise SearchBudgetExceeded()
        fits = all(
            is_edge(searcher.host, [images[u] for u in e if u != v_t] + [w])
            for e in searcher.anchors[depth]
        )
        if fits and w not in used:
            yield w


# -- cover by perfect matchings ------------------------------------------------


def hopcroft_karp(B: BipartiteGraph) -> dict[int, int] | None:
    """A perfect matching of a balanced bipartite graph, or None, by plain Hopcroft-Karp.

    Hopcroft & Karp, SIAM J. Comput. 1973: BFS layers from the free left
    vertices, then DFS augmentations along them, over sorted adjacency.
    """
    s = B.left
    if s == 0:
        return {}
    adj = B.adjacency()
    INF = float("inf")
    match_l: list[int | None] = [None] * s
    match_r: list[int | None] = [None] * s
    dist = [0.0] * s

    def bfs() -> bool:
        q = deque()
        for u in range(s):
            if match_l[u] is None:
                dist[u] = 0.0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w is None:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(root: int) -> bool:
        stack = [(root, iter(adj[root]))]
        via: list[int] = []
        while stack:
            u, rest = stack[-1]
            for v in rest:
                w = match_r[v]
                if w is None:
                    via.append(v)
                    for (x, _), y in zip(stack, via):
                        match_l[x] = y
                        match_r[y] = x
                    return True
                if dist[w] == dist[u] + 1:
                    via.append(v)
                    stack.append((w, iter(adj[w])))
                    break
            else:
                dist[u] = INF
                stack.pop()
                if via:
                    via.pop()
        return False

    size = 0
    while bfs():
        for u in range(s):
            if match_l[u] is None and dfs(u):
                size += 1
    if size != s:
        return None
    return {u: match_l[u] for u in range(s)}


def mask_graph(mask: np.ndarray) -> BipartiteGraph:
    """The bipartite graph whose edges are the True entries of a left x right bool mask."""
    return BipartiteGraph(*mask.shape, np.flatnonzero(mask))


def per_step_cover(
    host: Hypergraph, uncovered: Iterable[int], borrowed: Iterable[int], t: int, k: int, mode: str
) -> tuple[tuple[int, ...], ...]:
    """The cover by perfect matchings, asking the host about each step's windows at that step."""
    pool = sorted(set(uncovered) | set(borrowed))
    s = len(pool) // t
    parts = tuple(tuple(pool[j * s:(j + 1) * s]) for j in range(t))
    paths = np.empty((s, t), dtype=np.int64)
    paths[:, 0] = parts[0]
    needed = np.concatenate([*required_edges(np.arange(k + 1), k, mode)])
    windows = needed[needed[:, -1] == k, :-1] - k
    for j in range(1, t):
        part = np.array(parts[j], dtype=np.int64)
        cols = windows + j
        cols = cols[cols[:, 0] >= 0]
        rows = np.empty((len(cols), s, s, host.k), dtype=np.int64)
        rows[..., :-1] = paths[:, cols].transpose(1, 0, 2)[:, :, None]
        rows[..., -1] = part
        fits = host.has_edge(rows.reshape(-1, host.k)).reshape(-1, s, s).all(axis=0)
        matching = hopcroft_karp(mask_graph(fits))
        if matching is None:
            raise PhaseFailure(
                "cover", f"no perfect matching when extending into part {j + 1} of {t}",
                step=j + 1, parts=t, paths=s,
            )
        paths[:, j] = part[[matching[i] for i in range(s)]]
    return tuple(map(tuple, paths.tolist()))


# -- degeneracy machinery -----------------------------------------------------


def is_degenerate_ordering(template: Hypergraph, ordering: Iterable[int], k: int) -> bool:
    """Check a k-degeneracy witness.

    True iff for every vertex v, the number of edges containing v and lying
    entirely within v's prefix of the ordering is at most k.  Equivalently,
    every edge is "closed" by its last vertex, and no vertex closes more
    than k edges.
    """
    order = list(ordering)
    if sorted(order) != list(range(template.n)):
        raise ValueError("ordering is not a permutation of the vertex set")
    position = {v: i for i, v in enumerate(order)}
    closed = [0] * template.n
    for e in template.edges():
        closer = max(e, key=position.__getitem__)
        closed[closer] += 1
        if closed[closer] > k:
            return False
    return True


def degeneracy(template: Hypergraph) -> tuple[int, VertexTuple]:
    """Exact degeneracy by min-incidence peeling, with a witnessing ordering.

    Returns (d, ordering) where the ordering passes
    ``is_degenerate_ordering(template, ordering, d)``.  Every subgraph F'
    then satisfies e(F') <= d * (v(F') - 1), so m1(template) <= d.
    """
    n = template.n
    edges = [set(e) for e in template.edges()]
    incident: list[list[int]] = [[] for _ in range(n)]
    for idx, e in enumerate(edges):
        for v in e:
            incident[v].append(idx)
    alive_edge = [True] * len(edges)
    counts = [len(incident[v]) for v in range(n)]
    removed = [False] * n
    removal: list[int] = []
    d = 0
    for _ in range(n):
        v = min((u for u in range(n) if not removed[u]), key=lambda u: (counts[u], u))
        d = max(d, counts[v])
        removed[v] = True
        removal.append(v)
        for idx in incident[v]:
            if alive_edge[idx]:
                alive_edge[idx] = False
                for u in edges[idx]:
                    if not removed[u]:
                        counts[u] -= 1
    return d, VertexTuple(reversed(removal))


def backbone_degeneracy_ordering(k: int, ell: int) -> VertexTuple:
    """The explicit backbone vertex ordering used in the degeneracy argument.

    Starts at the special vertex and the reversed first head tuple, walks the
    even-indexed blocks upward, the odd-indexed blocks downward, and finishes
    with the first tail tuple.
    """
    b = Backbone(k, ell, "power")
    order: list[int] = [b.x]
    order += list(reversed(b.head(1)))
    for i in range(2, ell, 2):
        order += list(reversed(b.head(i)))
        order += list(b.tail(i))
    for i in range(ell, 2, -2):
        order += list(b.tail(i))
        order += list(reversed(b.head(i)))
    order += list(b.tail(1))
    return VertexTuple(order)
