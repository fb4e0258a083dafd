"""Seeded binomial random (hyper)graph models and the 3-round exposure tools.

All randomness is counter-based: candidate edge i draws the uniform variate
``finalize(seed + (i+1) * GOLDEN)`` where ``finalize`` is the splitmix64
output function.  Identical (seed, parameters) therefore produce bit-identical
samples on every platform and library version, and streams can be generated
in vectorized chunks.  Derived seeds (per trial, per retry, per phase) come
from the same mixing function via :func:`derive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hampow.core import Hypergraph, _encode_rows

__all__ = [
    "BipartiteGraph",
    "derive",
    "mix",
    "sample_bipartite",
    "sample_three_rounds",
    "sample_uniform_hypergraph",
    "split_edges_three",
    "three_round_rate",
    "uniform_stream",
    "unrank_combinations",
]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _check_edge_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")


def mix(seed: int, index: int) -> int:
    """splitmix64 output for stream position ``index`` of ``seed``."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive(seed: int, *indices: int) -> int:
    """Fold indices into a seed; the documented trial/phase derivation rule."""
    out = seed & _MASK
    for i in indices:
        out = mix(out, i)
    return out


def uniform_stream(seed: int, start: int, stop: int) -> np.ndarray:
    """Uniform [0,1) variates for stream positions [start, stop)."""
    idx = np.arange(start, stop, dtype=np.uint64) + np.uint64(1)
    z = (np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


_CHUNK = 1 << 22


def _binomials(n: int, k: int) -> np.ndarray:
    """C(n - x, k) for x = 0..n, as int64 (exact for this library's ranges)."""
    out = np.zeros(n + 1, dtype=np.int64)
    for x in range(n + 1):
        out[x] = math.comb(n - x, k)
    return out


def unrank_combinations(n: int, k: int, ranks: np.ndarray) -> np.ndarray:
    """Decode lexicographic combination ranks into sorted k-tuples (rows)."""
    ranks = np.asarray(ranks, dtype=np.int64)
    m = ranks.size
    out = np.empty((m, k), dtype=np.int64)
    base = np.zeros(m, dtype=np.int64)
    rem = ranks.copy()
    for level in range(k):
        k_rem = k - level
        counts = _binomials(n, k_rem)  # counts[x] = C(n-x, k_rem), decreasing
        # first element a >= base with  counts[base] - counts[a] <= rem
        target = counts[base] - rem
        a = np.searchsorted(-counts, -target, side="right") - 1
        a = np.maximum(a, base)
        rem = rem - (counts[base] - counts[a])
        out[:, level] = a
        base = a + 1
    return out


def sample_uniform_hypergraph(k: int, n: int, p: float, seed: int) -> Hypergraph:
    """Sample the binomial k-uniform hypergraph on n vertices.

    Each of the C(n, k) possible edges is present independently with
    probability p.  One uniform is drawn per candidate edge in lexicographic
    order, so the sample is bit-reproducible.
    """
    _check_edge_probability(p)
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if p == 1.0:
        return Hypergraph.complete(k, n)
    total = math.comb(n, k)
    if p == 0.0 or total == 0:
        return Hypergraph(k, n, ())
    picked = []
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        u = uniform_stream(seed, lo, hi)
        sel = np.flatnonzero(u < p)
        if sel.size:
            picked.append(sel.astype(np.int64) + lo)
    ranks = np.concatenate(picked) if picked else np.empty(0, dtype=np.int64)
    rows = unrank_combinations(n, k, ranks)
    return Hypergraph.from_codes(k, n, _encode_rows(rows, n))


def three_round_rate(p: float) -> float:
    """The per-round rate q with 1 - (1-q)^3 = p.

    A union of three independent q-rate exposures has edge rate exactly p.
    """
    _check_edge_probability(p)
    return 1.0 - (1.0 - p) ** (1.0 / 3.0)


def sample_three_rounds(
    k: int, n: int, p: float, seed: int
) -> tuple[Hypergraph, Hypergraph, Hypergraph, Hypergraph]:
    """Three independent G(n, q) exposures with union rate p, plus the union.

    Per candidate edge, one uniform variate is mapped through the joint law
    of three independent Bernoulli(q) coins (q = three_round_rate(p)), so the
    result is distributed exactly as three independent samples.  Each result
    stores the side of its edge set expected to be smaller: a round stores its
    non-edges when q > 1/2, the union when p > 1/2.  Only candidates that
    some result stores are ever decoded.  Returns (G1, G2, G3, union).
    """
    _check_edge_probability(p)
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if p == 1.0:
        g = Hypergraph.complete(k, n)
        return g, g, g, g
    q = three_round_rate(p)
    probs = np.array(
        [
            q ** bin(pattern).count("1") * (1.0 - q) ** (3 - bin(pattern).count("1"))
            for pattern in range(8)
        ]
    )
    # a variate falls in pattern t when it lies between the cumulative
    # probabilities of patterns < t and <= t
    bounds = np.cumsum(probs)[:-1]
    # bit i of a pattern puts the candidate in round i + 1; stores[r, pattern]
    # says whether result r (the rounds, then the union) stores such a candidate
    patterns8 = np.arange(8)
    is_edge = np.array([(patterns8 >> i) & 1 == 1 for i in range(3)] + [patterns8 > 0])
    dense = np.array([q > 0.5] * 3 + [p > 0.5])
    stores = is_edge != dense[:, None]
    needed = stores.any(axis=0)
    total = math.comb(n, k)
    kept_ranks: list[np.ndarray] = []
    kept_patterns: list[np.ndarray] = []
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        u = uniform_stream(seed, lo, hi)
        pattern = np.searchsorted(bounds, u, side="right").astype(np.int8)
        sel = np.flatnonzero(needed[pattern])
        if sel.size:
            kept_ranks.append(sel.astype(np.int64) + lo)
            kept_patterns.append(pattern[sel])
    if kept_ranks:
        ranks = np.concatenate(kept_ranks)
        patterns = np.concatenate(kept_patterns)
        codes = _encode_rows(unrank_combinations(n, k, ranks), n)
    else:
        patterns = np.empty(0, dtype=np.int8)
        codes = np.empty(0, dtype=np.int64)
    # a result that stores every decoded candidate shares the codes array
    g1, g2, g3, union = (
        Hypergraph.from_codes(
            k, n,
            codes if np.array_equal(stores[r], needed) else codes[stores[r][patterns]],
            complement=bool(dense[r]),
        )
        for r in range(4)
    )
    return g1, g2, g3, union


def split_edges_three(
    G: Hypergraph, seed: int, p: float | None = None
) -> tuple[Hypergraph, Hypergraph, Hypergraph]:
    """Randomly split the edges of G into three overlapping parts.

    Each edge of G receives an independent draw of three Bernoulli(q)
    indicators conditioned on at least one success (q solves 1-(1-q)^3 = p),
    so that when G ~ G(n, p) each part is distributed as G(n, q), the parts
    are independent, and their union is exactly G.  When the generation rate
    p is unknown it is estimated as m / C(n, k).
    """
    if G.is_complete:
        return G, G, G
    m = G.edge_count
    if m == 0:
        empty = Hypergraph(G.k, G.n, ())
        return empty, empty, empty
    if p is None:
        p = m / math.comb(G.n, G.k)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"split rate must be in (0, 1], got {p}")
    if p == 1.0:
        return G, G, G
    q = three_round_rate(p)
    codes = G.edge_codes()
    flags = np.zeros((m, 3), dtype=bool)
    pending = np.arange(m)
    round_no = 0
    while pending.size:
        sub = derive(seed, 3, round_no)
        u = uniform_stream(sub, 0, 3 * pending.size).reshape(-1, 3)
        draw = u < q
        hit = draw.any(axis=1)
        flags[pending[hit]] = draw[hit]
        pending = pending[~hit]
        round_no += 1
    parts = tuple(
        Hypergraph.from_codes(G.k, G.n, codes[flags[:, i]]) for i in range(3)
    )
    return parts  # type: ignore[return-value]


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on left x right index sets {0..left-1} x {0..right-1}."""

    left: int
    right: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for l, r in self.edges:
            if not (0 <= l < self.left and 0 <= r < self.right):
                raise ValueError(f"edge ({l}, {r}) out of range")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.left)]
        for l, r in sorted(self.edges):
            adj[l].append(r)
        return adj


def sample_bipartite(s: int, p: float, seed: int) -> BipartiteGraph:
    """Binomial bipartite graph with both sides of size s and edge rate p."""
    _check_edge_probability(p)
    if s < 0:
        raise ValueError(f"side size must be >= 0, got {s}")
    total = s * s
    picked: list[np.ndarray] = []
    if p > 0.0:
        for lo in range(0, total, _CHUNK):
            hi = min(lo + _CHUNK, total)
            u = uniform_stream(seed, lo, hi)
            sel = np.flatnonzero(u < p) if p < 1.0 else np.arange(hi - lo)
            if sel.size:
                picked.append(sel.astype(np.int64) + lo)
    if picked:
        ranks = np.concatenate(picked)
        edges = frozenset(
            (int(r) // s, int(r) % s) for r in ranks
        )
    else:
        edges = frozenset()
    return BipartiteGraph(s, s, edges)
