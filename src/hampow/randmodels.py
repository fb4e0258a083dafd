"""Seeded binomial random (hyper)graph models and the 3-round exposure tools.

All randomness is counter-based: position i of a seed's stream is the
uniform variate ``finalize(seed + (i+1) * GOLDEN)`` (its top 53 bits), where
``finalize`` is the splitmix64 output function.  One stream rule serves
every stored sample: the j-th candidate (in rank order) it stores lies a
Geometric gap past the one before, by inversion of position j of its seed's
stream.  Hosts, bipartite graphs and each 2-uniform exposure round (on its
own derived seed) draw this way.  A k >= 3 round draws and stores nothing:
candidate code c is its edge when position c of its seed's stream is below
q, a coin ``has_edge`` hashes, and its union admits c when some round does.
Identical (seed, parameters) therefore produce identical samples.
Derived seeds (per trial, per retry, per phase) come from the same mixing
function via :func:`derive`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from hampow.core import _BLOCK, Hypergraph, _absent_codes, _count, _row_lines, check_encodable, code_dtype

__all__ = [
    "BipartiteGraph",
    "check_stored_codes",
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
    out = _count(seed, "seed", -math.inf) & _MASK
    for i in indices:
        out = mix(out, i)
    return out


#: The finaliser's multipliers and shifts as uint64 scalars, made once: making one
#: costs ~0.3 us, a twentieth of hashing a k >= 3 link batch of 333 codes.
_U_GOLDEN, _U_MIX1, _U_MIX2, _U_11, _U_27, _U_30, _U_31 = map(np.uint64, (_GOLDEN, _MIX1, _MIX2, 11, 27, 30, 31))


def _mixed(seed: int, positions: np.ndarray) -> np.ndarray:
    """The splitmix64 output at these positions of seed's stream, in place of their uint64 array.

    Its three shifts go to one temporary, so a call allocates one array.
    """
    z = positions
    z *= _U_GOLDEN
    z += np.uint64((seed + _GOLDEN) & _MASK)  # position i is seed + (i + 1) * golden
    t = z >> _U_30
    z ^= t
    z *= _U_MIX1
    np.right_shift(z, _U_27, out=t)
    z ^= t
    z *= _U_MIX2
    np.right_shift(z, _U_31, out=t)
    z ^= t
    return z


def uniform_stream(seed: int, start: int, stop: int) -> np.ndarray:
    """Uniform [0,1) variates for stream positions [start, stop)."""
    z = _mixed(seed, np.arange(start, stop, dtype=np.uint64))
    z >>= _U_11  # the top 53 bits
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
    """Expected codes sample_three_rounds stores, each result its smaller side: none for k >= 3, which hashes."""
    q = three_round_rate(p)
    return 0.0 if k > 2 else (3 * min(q, 1.0 - q) + min(p, 1.0 - p)) * math.comb(n, k)


#: Most bytes the expected stored codes (8 bytes each) of a sampled 2-uniform
#: host's three rounds and union may take; a larger model host is refused.
MODEL_BYTES_LIMIT = 1 << 30


def check_stored_codes(k: int, n: int, p: float) -> None:
    """Refuse the k-uniform G(n, p) whose three rounds and union would store more than MODEL_BYTES_LIMIT."""
    check_encodable(k, n)  # raises first, so the estimate cannot overflow
    need = 8 * expected_stored_codes(k, n, p)  # int64 codes: a bound for int32 ones too
    if need > MODEL_BYTES_LIMIT:
        raise ValueError(f"refusing to sample the {k}-uniform host with n={n}, p={p}: its three rounds and union "
                         f"would store about {need / 8:.4g} codes ({need:.4g} bytes), "
                         f"over the limit of {MODEL_BYTES_LIMIT} bytes")


#: Most variates a round draws at once, and about the codes the union merges at once.
_BATCH = 1 << 16


def _bernoulli_ranks(seed: int, total: int, rate: float) -> np.ndarray:
    """Ascending ranks below total, each kept independently at the given rate.

    Geometric skipping (Batagelj & Brandes, Phys. Rev. E 71, 2005): the j-th
    gap between kept ranks is Geometric(rate), by inversion of variate j of
    ``seed``'s stream, so one variate is drawn per kept rank, one batch at a
    time.  Each batch is computed in int64, each gap capped at 2 ** 62, and
    cut at its first rank >= total (total < 2 ** 62 by check_encodable).  It
    fills one array of ``code_dtype(total)``, sized for a rare excess over
    the expected count, then shrunk in place.
    """
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-rate)
    expected = rate * total
    out = np.empty(int(expected + 8 * math.sqrt(expected) + 16), dtype=code_dtype(total))
    last = -1  # the last kept rank
    kept = 0
    while True:
        # the ranks expected to be left and one sd more: mostly one batch passes the last
        expected = rate * (total - 1 - last)
        size = int(min(expected + math.sqrt(expected) + 16, _BATCH))
        gaps = uniform_stream(seed, kept, kept + size)
        np.log1p(np.negative(gaps, out=gaps), out=gaps)
        # rate = 0, or one so small that the quotient overflows, gives inf or
        # nan here, which fmin caps at 2 ** 62, exact and past every total
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gaps /= log_miss
        ranks = np.fmin(gaps, 2.0 ** 62, out=gaps).astype(np.int64)  # gaps >= 0: the cast floors
        ranks += 1
        ranks[0] += last
        np.cumsum(ranks, out=ranks)
        # the first rank past the candidates is below 2 ** 63, but the sums after it may wrap
        cut = int((ranks >= total).argmax())  # 0 also when no rank is past
        ranks = ranks[: cut if ranks[cut] >= total else size]
        if kept + ranks.size > out.size:
            out.resize(2 * (kept + ranks.size), refcheck=False)
        out[kept : kept + ranks.size] = ranks
        kept += ranks.size
        if ranks.size < size:
            break
        last = int(ranks[-1])
        del ranks  # so the next batch's temporaries can reuse its memory
    out.resize(kept, refcheck=False)
    return out


def sample_uniform_hypergraph(k: int, n: int, p: float, seed: int) -> Hypergraph:
    """Sample the binomial k-uniform hypergraph on n vertices.

    Each of the C(n, k) possible edges is present independently with
    probability p.  The sample stores its smaller side: its edges, drawn at
    rate p, or for p > 1/2 its non-edges, drawn at rate 1 - p.  That side is
    drawn by _bernoulli_ranks from ``seed``'s stream on its first read, by a
    draw that keeps what it drew (:func:`sample_three_rounds` reads it).
    """
    _check_edge_probability(p)
    k = _count(k, "uniformity", 2)
    check_encodable(k, n := _count(n, "vertex count n", k))  # before C(n, k), whose work grows with k
    # a candidate's lexicographic rank is its code, so the drawn ranks are stored as they are
    seed = _count(seed, "seed", -math.inf)  # read now: the draw is deferred
    draw = functools.cache(functools.partial(_bernoulli_ranks, seed, math.comb(n, k), min(p, 1.0 - p)))
    return Hypergraph.from_codes(k, n, draw, complement=p > 0.5)


def _merged(rounds: list[np.ndarray], total: int, times: int = 1) -> np.ndarray:
    """The sorted codes below total found in at least ``times`` of these sorted, unique rounds.

    ``times`` = 1 is their union, ``times`` = len(rounds) their intersection.
    They are merged a stretch of about _BATCH codes at a time, so no
    temporary holds more than a stretch.  A code found in ``times`` rounds
    is in at least one of any len(rounds) - times + 1 of them, which bounds
    the result.  The result and the stretch cuts take the rounds' dtype.
    """
    sizes = sorted(codes.size for codes in rounds)
    out = np.empty(sum(sizes[: len(rounds) - times + 1]), dtype=rounds[0].dtype)
    stretches = sum(sizes) // _BATCH + 1
    cuts = np.array([total * b // stretches for b in range(stretches + 1)], dtype=out.dtype)
    starts = [np.searchsorted(codes, cuts) for codes in rounds]
    size = 0
    for b in range(stretches):
        part = np.concatenate([codes[at[b] : at[b + 1]] for codes, at in zip(rounds, starts)])
        part.sort()
        # each round holds a code once, so a code found `times` times opens a run of that length
        keep = np.zeros(part.size, dtype=bool)
        np.equal(part[times - 1 :], part[: part.size - times + 1], out=keep[: part.size - times + 1])
        keep[1:] &= part[1:] != part[:-1]
        found = np.count_nonzero(keep)
        np.compress(keep, part, out=out[size : size + found])
        size += found
    out.resize(size, refcheck=False)
    return out


def _coin_hits(seeds: tuple[int, ...], threshold: int, codes: np.ndarray) -> np.ndarray:
    """Which int codes c some seed sends below threshold <= 2 ** 53 - 1: the top 53 bits of position c of its stream.

    Those bits are below the threshold exactly when the whole output is below threshold * 2 ** 11.
    """
    bound = np.uint64(threshold << 11)
    hit = _mixed(seeds[0], codes.astype(np.uint64)) < bound
    for seed in seeds[1:]:
        hit |= _mixed(seed, codes.astype(np.uint64)) < bound
    return hit


@dataclass(frozen=True)
class _Coins:
    """A hashed host's membership of int codes: :func:`_coin_hits` under its seeds and threshold.

    Equal rules admit equal codes, so two hosts of one k and n that hash by equal rules are equal.
    """

    seeds: tuple[int, ...]
    threshold: int

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        return _coin_hits(self.seeds, self.threshold, codes)


def _coin_codes(coins: Callable[[np.ndarray], np.ndarray], total: int, complement: bool) -> np.ndarray:
    """The ranks below total that ``coins`` admits, or with ``complement`` those it does not, ascending.

    The ranks are hashed :data:`_BATCH` at a time, the kept ones in ``code_dtype(total)``.
    """
    dtype = code_dtype(total)
    parts = [np.empty(0, dtype=dtype)]
    for lo in range(0, total, _BATCH):
        ranks = np.arange(lo, min(lo + _BATCH, total), dtype=dtype)
        parts.append(ranks[coins(ranks) != complement])
    return np.concatenate(parts)


def _hashed(k: int, n: int, seeds: tuple[int, ...], threshold: int, complement: bool) -> Hypergraph:
    """The host whose edges hit on some seed: ``has_edge`` hashes, and the stored side is walked on its first read."""
    coins = _Coins(seeds, threshold)
    g = Hypergraph.from_codes(k, n, functools.partial(_coin_codes, coins, math.comb(n, k), complement), complement)
    g._coins = coins
    return g


def sample_three_rounds(
    k: int, n: int, p: float, seed: int
) -> tuple[Hypergraph, Hypergraph, Hypergraph, Hypergraph]:
    """Three independent G(n, q) exposures with union rate p, plus the union.

    With q = three_round_rate(p), round i (i = 0, 1, 2) has the stream
    ``derive(seed, i)``.  Each result stores its smaller side: a round its
    edges at rate q <= 1/2, or its non-edges at rate 1 - q < 1/2, and the
    union its non-edges when p > 1/2.

    For k >= 3 and p < 1 nothing is drawn or stored: candidate code c is an
    edge of round i exactly when ``uniform_stream(derive(seed, i), c, c + 1)[0] < q``,
    and of the union when it is one of some round.  ``has_edge`` hashes the
    codes it is asked about, and the stored side of each result is walked
    from all C(n, k) ranks only when it is first read.

    Otherwise (2-uniform rounds, whose copy search reads packed rows of
    stored pairs, or p = 1, where all four are complete) round i is
    ``sample_uniform_hypergraph(k, n, q, derive(seed, i))``, and the union is
    - for p <= 1/2, the rounds' edges merged;
    - for q > 1/2, the codes in all three rounds' non-edges, merged;
    - in between, the candidates no round has.
    When q <= 1/2 nothing is drawn before a result is first read: round i
    on its own first read, and the union from the rounds on its first read,
    so an attempt that fails in its first phase draws one round.  When
    q > 1/2 all four are drawn before this returns.
    Returns (G1, G2, G3, union).
    """
    q = three_round_rate(p)
    seeds = [derive(seed, i) for i in range(3)]
    if _count(k, "uniformity", 2) > 2 and p < 1.0:
        check_encodable(k, n := _count(n, "vertex count n", k))
        threshold = math.ceil(q * 2.0 ** 53)  # the top 53 bits of c's variate are below it exactly when u < q
        g1, g2, g3 = (_hashed(k, n, (s,), threshold, q > 0.5) for s in seeds)
        return g1, g2, g3, _hashed(k, n, tuple(seeds), threshold, p > 0.5)
    g1, g2, g3 = (sample_uniform_hypergraph(k, n, q, s) for s in seeds)
    # the union reads the rounds' codes through their draws, so it holds
    # their codes but not the rounds, whose adjacencies go with them
    draws = [g._draw for g in (g1, g2, g3)]
    total = math.comb(n, k)
    dense = q > 0.5

    def union() -> np.ndarray:
        rounds = [draw() for draw in draws]
        if dense:
            return _merged(rounds, total, times=3)
        return _absent_codes(rounds, total) if p > 0.5 else _merged(rounds, total)

    # The dense union stays eager, and so draws the rounds, for the traced
    # benchmark: perfbench/spans.py reads the union's edge_count right after
    # its sampling span, so a deferred draw would put the rounds and their
    # merge (~22 ms at n = 3000 on a 2-core box, ~5 of them the merge)
    # outside every span, below the layer coverage its tests assert.  It can
    # defer too once the spans live in src/.
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

    Its edges are stored as one sorted int64 array of cells ``l * right + r``,
    so a graph costs what it keeps, not one object per left vertex.
    """

    def __init__(self, left: int, right: int, cells: np.ndarray | Callable[[], np.ndarray]):
        """The graph whose edges are these cells, ascending, unique and below left * right.

        ``cells`` may also be a function of no arguments that returns them, called on their first read.
        """
        self.left = left
        self.right = right
        self._cells = cells

    @functools.cached_property
    def cells(self) -> np.ndarray:
        return np.asarray(self._cells() if callable(self._cells) else self._cells, dtype=np.int64)

    @property
    def edge_count(self) -> int:
        return int(self.cells.size)

    def adjacency(self) -> list[list[int]]:
        """Each left vertex's right neighbours, ascending, built anew on each call."""
        lefts, rights = divmod(self.cells, max(self.right, 1))
        starts = np.searchsorted(lefts, np.arange(self.left + 1)).tolist()
        rights = rights.tolist()
        return [rights[a:b] for a, b in zip(starts, starts[1:])]

    def text_blocks(self) -> Iterator[bytes]:
        """Text format in byte blocks: ``bip left right m``, then one ``l r`` edge per line, ascending."""
        yield f"bip {self.left} {self.right} {self.edge_count}\n".encode()
        for lo in range(0, self.cells.size, _BLOCK):
            yield _row_lines(np.column_stack(divmod(self.cells[lo:lo + _BLOCK], self.right)))


def sample_bipartite(s: int, p: float, seed: int) -> BipartiteGraph:
    """Binomial bipartite graph with both sides of size s and edge rate p, drawn on the first read of its cells."""
    _check_edge_probability(p)
    check_encodable(2, s := _count(s, "side size s", 0))  # the cells l * s + r are int64
    # the ranks of the s x s cells ascend, as the stored cells do
    return BipartiteGraph(s, s, functools.partial(_bernoulli_ranks, _count(seed, "seed", -math.inf), s * s, p))
