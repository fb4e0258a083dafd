"""Seeded binomial random (hyper)graph models and the 3-round exposure tools.

All randomness is counter-based: position i of a seed's stream is the
uniform variate ``finalize(seed + (i+1) * GOLDEN)`` (its top 53 bits), where
``finalize`` is the splitmix64 output function.  ``sample_uniform_hypergraph``
and ``sample_bipartite`` give candidate edge i position i of the seed's
stream; ``sample_three_rounds`` visits only the candidates it keeps, skipping
between them with geometric gaps from one derived stream and drawing their
round patterns from another.  Identical (seed, parameters) therefore produce
identical samples, and streams can be generated in vectorized chunks.
Derived seeds (per trial, per retry, per phase) come from the same mixing
function via :func:`derive`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import cached_property

import numpy as np

from hampow.core import Hypergraph

__all__ = [
    "BipartiteGraph",
    "derive",
    "expected_stored_codes",
    "mix",
    "sample_bipartite",
    "sample_three_rounds",
    "sample_uniform_hypergraph",
    "split_edges_three",
    "three_round_rate",
    "uniform_stream",
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
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0 ** -53
    return u


_CHUNK = 1 << 22


def _kept_positions(seed: int, total: int, p: float) -> np.ndarray:
    """Ascending stream positions i < total whose variate is below p."""
    kept = [np.empty(0, dtype=np.int64)]
    for lo in range(0, total if p > 0.0 else 0, _CHUNK):
        u = uniform_stream(seed, lo, min(lo + _CHUNK, total))
        kept.append(np.flatnonzero(u < p) + lo)
    return np.concatenate(kept)


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
    # a candidate's stream position is its lexicographic rank: its code
    return Hypergraph.from_codes(k, n, _kept_positions(seed, math.comb(n, k), p))


def three_round_rate(p: float) -> float:
    """The per-round rate q with 1 - (1-q)^3 = p.

    A union of three independent q-rate exposures has edge rate exactly p.
    """
    _check_edge_probability(p)
    return 1.0 - (1.0 - p) ** (1.0 / 3.0)


def _three_round_law(p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(probs, stores, dense): the three round coins' joint law and stored sides.

    probs[t] is the probability of pattern t (bit i: in round i + 1; any bit:
    in the union).  Results 0-2 are the rounds, 3 the union; dense[r] says
    that result r stores its non-edges, the side expected to be smaller (a
    round when q > 1/2, the union when p > 1/2), and stores[r, t] that it
    stores a candidate of pattern t.
    """
    q = three_round_rate(p)
    patterns = np.arange(8)
    in_round = (patterns >> np.arange(3)[:, None]) & 1 == 1
    ones = in_round.sum(axis=0)
    probs = q ** ones * (1.0 - q) ** (3 - ones)
    is_edge = np.vstack([in_round, patterns > 0])
    dense = np.array([q > 0.5] * 3 + [p > 0.5])
    return probs, is_edge != dense[:, None], dense


def expected_stored_codes(k: int, n: int, p: float) -> float:
    """Expected number of codes the four results of sample_three_rounds store.

    The sum over the three rounds and the union of P(the result stores a
    candidate) * C(n, k); each code takes 8 bytes.
    """
    probs, stores, _ = _three_round_law(p)
    return float((stores @ probs).sum()) * math.comb(n, k)


#: Most candidates sample_three_rounds draws at once.
_BATCH = 1 << 20


def sample_three_rounds(
    k: int, n: int, p: float, seed: int
) -> tuple[Hypergraph, Hypergraph, Hypergraph, Hypergraph]:
    """Three independent G(n, q) exposures with union rate p, plus the union.

    Each candidate edge gets a pattern from the joint law of three
    independent Bernoulli(q) coins (q = three_round_rate(p)), and each
    result stores the side expected to be smaller (_three_round_law).  Only
    the needed candidates, those some result stores (probability r), are
    visited (Batagelj & Brandes, Phys. Rev. E 71, 2005): the j-th gap between
    their lexicographic ranks is Geometric(r), by inversion of variate j of
    ``derive(seed, 0)``, and the j-th draws its pattern from the law
    conditioned on being needed with variate j of ``derive(seed, 1)``.  The
    ranks are the stored codes, so work and memory follow the needed
    candidates, drawn one batch at a time.
    Returns (G1, G2, G3, union).
    """
    _check_edge_probability(p)
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if p == 1.0:
        g = Hypergraph.complete(k, n)
        return g, g, g, g
    probs, stores, dense = _three_round_law(p)
    needed = stores.any(axis=0)
    needed_patterns = np.flatnonzero(needed)
    cumulative = np.cumsum(probs[needed_patterns])
    r = min(float(cumulative[-1]), 1.0)
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-r)  # -inf when r = 1: every gap is 0
    total = math.comb(n, k)
    gap_seed, pattern_seed = derive(seed, 0), derive(seed, 1)
    code_parts = [np.empty(0, dtype=np.int64)]
    pattern_parts = [np.empty(0, dtype=np.int8)]
    last = -1  # rank of the last needed candidate
    kept = 0
    while True:
        # enough gaps to pass the last rank, most often in this batch
        expected = r * (total - 1 - last)
        size = int(min(expected + 4 * math.sqrt(expected) + 16, _BATCH))
        gaps = uniform_stream(gap_seed, kept, kept + size)
        np.log1p(np.negative(gaps, out=gaps), out=gaps)
        # r = 0 gives inf or nan here, which fmin caps at total: no rank is kept
        with np.errstate(divide="ignore", invalid="ignore"):
            gaps /= log_miss
        ranks = np.fmin(np.floor(gaps, out=gaps), total, out=gaps).astype(np.int64)
        ranks += 1
        np.cumsum(ranks, out=ranks)
        ranks += last
        ranks = ranks[: np.searchsorted(ranks, total)]
        if ranks.size:
            u = uniform_stream(pattern_seed, kept, kept + ranks.size)
            pick = np.searchsorted(cumulative[:-1], u * r, side="right")
            pattern_parts.append(needed_patterns[pick].astype(np.int8))
            code_parts.append(ranks)  # a candidate's rank is its code
            last = int(ranks[-1])
            kept += ranks.size
        if ranks.size < size:
            break
    codes = np.concatenate(code_parts)
    patterns = np.concatenate(pattern_parts)
    del code_parts, pattern_parts  # before the rounds' codes are selected
    bits = np.empty_like(patterns)  # one result's 0/1 selection at a time, read as bool

    def stored(i: int) -> np.ndarray:
        # a result that stores every needed candidate shares the codes array
        if np.array_equal(stores[i], needed):
            return codes
        # bit i of a pattern: an edge of round i + 1; any bit: of the union
        if i == 3:
            np.not_equal(patterns, 0, out=bits.view(bool))
        else:
            np.right_shift(patterns, i, out=bits)
            np.bitwise_and(bits, 1, out=bits)
        if dense[i]:
            np.bitwise_xor(bits, 1, out=bits)
        return codes[bits.view(bool)]

    g1, g2, g3, union = (
        Hypergraph.from_codes(k, n, stored(i), complement=bool(dense[i])) for i in range(4)
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


class BipartiteGraph:
    """Bipartite graph on left x right index sets {0..left-1} x {0..right-1}.

    ``rows[l]`` lists left vertex l's right neighbours, ascending and in
    range; :meth:`from_edges` builds them from an edge set and checks it.
    """

    def __init__(self, left: int, right: int, rows: list[list[int]]):
        if len(rows) != left:
            raise ValueError(f"expected {left} rows, got {len(rows)}")
        self.left = left
        self.right = right
        self._adj = rows

    @classmethod
    def from_edges(cls, left: int, right: int, edges: Iterable[tuple[int, int]]) -> BipartiteGraph:
        """The graph with the given (left, right) edges."""
        rows: list[list[int]] = [[] for _ in range(left)]
        for l, r in sorted(set(edges)):
            if not (0 <= l < left and 0 <= r < right):
                raise ValueError(f"edge ({l}, {r}) out of range")
            rows[l].append(r)
        return cls(left, right, rows)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> BipartiteGraph:
        """The graph whose edges are the True entries of a left x right bool mask."""
        return cls(*mask.shape, [np.flatnonzero(row).tolist() for row in mask])

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((l, r) for l, row in enumerate(self._adj) for r in row)

    def adjacency(self) -> list[list[int]]:
        """Each left vertex's right neighbours, ascending; shared, so read only."""
        return self._adj


def sample_bipartite(s: int, p: float, seed: int) -> BipartiteGraph:
    """Binomial bipartite graph with both sides of size s and edge rate p."""
    _check_edge_probability(p)
    if s < 0:
        raise ValueError(f"side size must be >= 0, got {s}")
    rows: list[list[int]] = [[] for _ in range(s)]
    for r in _kept_positions(seed, s * s, p).tolist():  # ranks ascend, so rows do too
        rows[r // s].append(r % s)
    return BipartiteGraph(s, s, rows)
