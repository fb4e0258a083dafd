"""Seeded binomial random (hyper)graph models and the 3-round exposure tools.

All randomness is counter-based: position i of a seed's stream is the
uniform variate ``finalize(seed + (i+1) * GOLDEN)`` (its top 53 bits), where
``finalize`` is the splitmix64 output function.  One stream rule serves
every sample: the j-th candidate (in rank order) a sample stores lies a
Geometric gap past the one before, by inversion of position j of its seed's
stream.  Hosts, bipartite graphs and each exposure round (on its own derived
seed) all draw this way.  Identical (seed, parameters) therefore produce
identical samples, and streams can be generated in vectorized chunks.
Derived seeds (per trial, per retry, per phase) come from the same mixing
function via :func:`derive`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from hampow.core import Hypergraph, _in_sorted

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


def three_round_rate(p: float) -> float:
    """The per-round rate q with 1 - (1-q)^3 = p.

    A union of three independent q-rate exposures has edge rate exactly p.
    """
    _check_edge_probability(p)
    return 1.0 - (1.0 - p) ** (1.0 / 3.0)


def expected_stored_codes(k: int, n: int, p: float) -> float:
    """Expected codes (8 bytes each) sample_three_rounds stores, each result its smaller side."""
    q = three_round_rate(p)
    return (3 * min(q, 1.0 - q) + min(p, 1.0 - p)) * math.comb(n, k)


#: Most variates a round draws at once, and about the codes the union merges at once.
_BATCH = 1 << 16


def _bernoulli_ranks(seed: int, total: int, rate: float) -> np.ndarray:
    """Ascending ranks below total, each kept independently at the given rate.

    Geometric skipping (Batagelj & Brandes, Phys. Rev. E 71, 2005): the j-th
    gap between kept ranks is Geometric(rate), by inversion of variate j of
    ``seed``'s stream, so one variate is drawn per kept rank, one batch at a
    time.  The batches fill one array sized for a rare excess over the
    expected count, then shrunk in place.
    """
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-rate)
    expected = rate * total
    out = np.empty(int(expected + 8 * math.sqrt(expected) + 16), dtype=np.int64)
    last = -1  # the last kept rank
    kept = 0
    while True:
        # the ranks expected to be left and one sd more: mostly one batch passes the last
        expected = rate * (total - 1 - last)
        size = int(min(expected + math.sqrt(expected) + 16, _BATCH))
        gaps = uniform_stream(seed, kept, kept + size)
        np.log1p(np.negative(gaps, out=gaps), out=gaps)
        # rate = 0, or one so small that the quotient overflows, gives inf or
        # nan here, which fmin caps at total: no rank is kept
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gaps /= log_miss
        ranks = np.fmin(gaps, total, out=gaps).astype(np.int64)  # gaps >= 0: the cast floors
        ranks += 1
        np.cumsum(ranks, out=ranks)
        ranks += last
        ranks = ranks[: np.searchsorted(ranks, total)]
        if kept + ranks.size > out.size:
            out.resize(2 * (kept + ranks.size), refcheck=False)
        out[kept : kept + ranks.size] = ranks
        kept += ranks.size
        if ranks.size < size:
            break
        last = int(ranks[-1])
    out.resize(kept, refcheck=False)
    return out


def sample_uniform_hypergraph(k: int, n: int, p: float, seed: int) -> Hypergraph:
    """Sample the binomial k-uniform hypergraph on n vertices.

    Each of the C(n, k) possible edges is present independently with
    probability p.  The sample stores its smaller side: its edges, drawn at
    rate p, or for p > 1/2 its non-edges, drawn at rate 1 - p.  That side is
    drawn by _bernoulli_ranks from ``seed``'s stream on its first read.
    """
    _check_edge_probability(p)
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    # a candidate's lexicographic rank is its code, so the drawn ranks are stored as they are
    draw = functools.partial(_bernoulli_ranks, seed, math.comb(n, k), min(p, 1.0 - p))
    return Hypergraph.from_codes(k, n, draw, complement=p > 0.5)


def _merged(rounds: list[np.ndarray], total: int) -> np.ndarray:
    """The sorted union of sorted codes below total, merged a stretch of about _BATCH at a time."""
    union = np.empty(sum(codes.size for codes in rounds), dtype=np.int64)
    stretches = union.size // _BATCH + 1
    cuts = np.array([total * b // stretches for b in range(stretches + 1)], dtype=np.int64)
    starts = [np.searchsorted(codes, cuts) for codes in rounds]
    size = 0
    for b in range(cuts.size - 1):
        pieces = [codes[at[b] : at[b + 1]] for codes, at in zip(rounds, starts)]
        part = union[size : size + sum(piece.size for piece in pieces)]
        np.concatenate(pieces, out=part)  # past the union so far: the stretch needs no copy
        part.sort()
        fresh = np.ones(part.size, dtype=bool)
        np.not_equal(part[1:], part[:-1], out=fresh[1:])
        part = part[fresh]
        union[size : size + part.size] = part
        size += part.size
    union.resize(size, refcheck=False)
    return union


def sample_three_rounds(
    k: int, n: int, p: float, seed: int
) -> tuple[Hypergraph, Hypergraph, Hypergraph, Hypergraph]:
    """Three independent G(n, q) exposures with union rate p, plus the union.

    With q = three_round_rate(p), round i (i = 0, 1, 2) is
    ``sample_uniform_hypergraph(k, n, q, derive(seed, i))``.  Each result
    stores its smaller side: a round its edges at rate q <= 1/2, or its
    non-edges at rate 1 - q < 1/2.  The union is
    - for p <= 1/2, the rounds' edges merged;
    - for q > 1/2, the codes in all three rounds' non-edges;
    - in between, the candidates no round has, found in one C(n, k) mask.
    When q <= 1/2 nothing is drawn before a result is first read: round i
    on its own first read, and the union from the rounds on its first read,
    so an attempt that fails in its first phase draws one round.  When
    q > 1/2 all four are drawn before this returns.
    Returns (G1, G2, G3, union).
    """
    q = three_round_rate(p)
    g1, g2, g3 = (sample_uniform_hypergraph(k, n, q, derive(seed, i)) for i in range(3))
    total = math.comb(n, k)
    dense = q > 0.5

    def union() -> np.ndarray:
        rounds = [g._codes for g in (g1, g2, g3)]
        if dense:
            common = rounds[0][_in_sorted(rounds[0], rounds[1])]
            return common[_in_sorted(common, rounds[2])]
        if p > 0.5:
            absent = np.ones(total, dtype=bool)
            for codes in rounds:
                absent[codes] = False
            return np.flatnonzero(absent)
        return _merged(rounds, total)

    # The dense union stays eager, and so draws the rounds, for the traced
    # benchmark: perfbench/spans.py reads the union's edge_count right after
    # its sampling span, so a deferred draw would put the rounds and the
    # intersection (~40 ms at n = 3000) outside every span, below the layer
    # coverage its tests assert.  It can defer too once the spans live in src/.
    return g1, g2, g3, Hypergraph.from_codes(k, n, union() if dense else union, complement=p > 0.5)


def split_edges_three(G: Hypergraph, seed: int) -> tuple[Hypergraph, Hypergraph, Hypergraph]:
    """Randomly split the edges of G into three overlapping parts.

    Each edge of G receives an independent draw of three Bernoulli(q)
    indicators conditioned on at least one success (q solves 1-(1-q)^3 = p,
    the edge rate p estimated as m / C(n, k)), so that when G ~ G(n, p) each
    part is distributed as G(n, q), the parts are independent, and their
    union is exactly G.
    """
    m = G.edge_count
    if m == 0:
        empty = Hypergraph(G.k, G.n, ())
        return empty, empty, empty
    p = m / math.comb(G.n, G.k)
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
    range.
    """

    def __init__(self, left: int, right: int, rows: list[list[int]]):
        if len(rows) != left:
            raise ValueError(f"expected {left} rows, got {len(rows)}")
        self.left = left
        self.right = right
        self._adj = rows

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> BipartiteGraph:
        """The graph whose edges are the True entries of a left x right bool mask."""
        return cls(*mask.shape, [np.flatnonzero(row).tolist() for row in mask])

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj))

    def adjacency(self) -> list[list[int]]:
        """Each left vertex's right neighbours, ascending; shared, so read only."""
        return self._adj


def sample_bipartite(s: int, p: float, seed: int) -> BipartiteGraph:
    """Binomial bipartite graph with both sides of size s and edge rate p."""
    _check_edge_probability(p)
    if s < 0:
        raise ValueError(f"side size must be >= 0, got {s}")
    rows: list[list[int]] = [[] for _ in range(s)]
    for r in _bernoulli_ranks(seed, s * s, p).tolist():  # ranks ascend, so rows do too
        rows[r // s].append(r % s)
    return BipartiteGraph(s, s, rows)
