"""Uniform hypergraphs, path templates, embeddings and cycle certificates.

Vertices are dense 0-based integers.  A graph is simply the 2-uniform case;
there is one code path for both.  Hypergraphs are immutable after
construction and safe to share between threads.  A hypergraph may defer
drawing its codes until their first read (``Hypergraph.from_codes`` with a
function); the draw is deterministic, so two threads that race on the first
read store identical arrays and sharing stays safe.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "CycleCertificate",
    "Hypergraph",
    "MAX_VERTICES",
    "VertexTuple",
    "check_encodable",
    "check_uniformity",
    "code_dtype",
    "connecting_path_template",
    "is_path",
    "missing_edge",
    "power_path_template",
    "required_edges",
    "tight_path_template",
    "uniformity",
    "verify_certificate",
]


def _vertex(v: int) -> int:
    """v as a Python int, read by ``operator.index``: a float is refused, never truncated."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"vertex {v!r} is not an integer") from None


def _count(value: int, name: str, least: float) -> int:
    """A size or count as a Python int, read by ``operator.index``; a float or a value below ``least`` is refused by name."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _vertex_set(vertices: Iterable[int], n: int) -> np.ndarray:
    """The distinct vertices ascending, as int64; one that is no integer or lies outside ``range(n)`` is refused."""
    vs = sorted(set(map(_vertex, vertices)))  # np.unique imports numpy.ma (~0.7 MB)
    if vs and not 0 <= vs[0] <= vs[-1] < n:
        raise ValueError(f"vertex {vs[0] if vs[0] < 0 else next(v for v in vs if v >= n)} outside range({n})")
    return np.array(vs, dtype=np.int64)


class VertexTuple(tuple):
    """Ordered tuple of distinct integer vertices (NumPy integers too; a float is refused)."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[int] = ()) -> "VertexTuple":
        t = super().__new__(cls, map(_vertex, vertices))
        if len(set(t)) != len(t):
            raise ValueError(f"vertices must be distinct, got {tuple(t)}")
        return t


class Hypergraph:
    """Immutable k-uniform hypergraph on the vertex set ``{0, .., n-1}``.

    An edge's code is the lexicographic rank of its sorted vertex tuple among
    all k-subsets; the codes are kept in a sorted array of
    ``code_dtype(math.comb(n, k))``, int32 when every code fits.  A hypergraph
    stores whichever side of its edge set its producer expects to be smaller:
    the edges themselves, or (complement form) the non-edges.  The complete
    hypergraph is the complement form with nothing stored, so dense hosts of
    any uniformity stay usable.  Every query, equality and the text format
    depend on the edge set only, never on the stored side.  A hashed model
    host (``_coins``) answers ``has_edge`` from its codes' coins, never its
    stored side, which it walks from all C(n, k) codes when that is read; two
    hashed hosts with equal rules are equal without that walk.
    """

    __slots__ = ("k", "n", "_codes", "_complement", "_adj", "_rows", "_draw", "_coins")

    def __init__(self, k: int, n: int, edges: np.ndarray | Iterable[Iterable[int]]):
        """The graph whose edges are the rows of an (m, k) int array, or these vertex sequences.

        An edge's vertices may come in any order.  The first edge of another
        width, with a repeated vertex, or with a vertex outside ``range(n)`` or
        not an integer is refused by name, and so is a repeated edge.
        """
        self.k = _count(k, "uniformity", 2)
        self.n = _count(n, "vertex count n", 0)
        check_encodable(self.k, self.n)
        array = isinstance(edges, np.ndarray) and edges.dtype.kind in "biu"
        if not array or edges.shape[1:] != (self.k,):
            edges = _edge_array(edges, self.k, self.n)  # names an edge of another width or a float vertex
        self._codes = _sorted_codes(edges, self.k, self.n)
        self._complement = False
        self._adj = None
        self._rows: dict[int, int] = {}
        self._coins: Callable[[np.ndarray], np.ndarray] | None = None  # a hashed host's membership of codes

    # -- constructors ------------------------------------------------------

    @classmethod
    def complete(cls, k: int, n: int) -> "Hypergraph":
        """Complete k-uniform hypergraph: the complement form of no non-edges."""
        return cls.from_codes(k, n, np.empty(0, dtype=np.int64), complement=True)

    @classmethod
    def from_codes(
        cls, k: int, n: int, codes: np.ndarray | Callable[[], np.ndarray],
        complement: bool = False,
    ) -> "Hypergraph":
        """Internal fast path: ``codes`` must be sorted, unique, valid.

        They are the edges, or with ``complement`` the non-edges.  ``codes``
        may also be a function of no arguments that returns them: it is
        called on their first read, the array it returns is kept, and the
        function is dropped.
        """
        g = cls(k, n, ())
        if callable(codes):
            del g._codes  # an unset slot: its first read goes to __getattr__
            g._draw = codes
        else:
            g._codes = np.asarray(codes, dtype=code_dtype(math.comb(g.n, g.k)))
        g._complement = complement
        return g

    def __getattr__(self, name: str) -> np.ndarray:
        # only a slot never set gets here; once drawn, ``_codes`` is read directly
        if name != "_codes":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        draw = self._draw
        if draw is None:  # another thread drew them meanwhile
            return self._codes
        self._codes = codes = np.asarray(draw(), dtype=code_dtype(math.comb(self.n, self.k)))
        self._draw = None  # what the draw holds (a union's rounds) goes with it
        return codes

    # -- basic queries -----------------------------------------------------

    @property
    def is_complete(self) -> bool:
        return self._complement and self._codes.size == 0

    @property
    def edge_count(self) -> int:
        if self._complement:
            return math.comb(self.n, self.k) - int(self._codes.size)
        return int(self._codes.size)

    def has_edge(self, rows: np.ndarray) -> np.ndarray:
        """Edge membership of each row of an (m, w) int array, in any vertex order, as an m-long bool array.

        A row of the wrong width, with a repeated vertex or a vertex outside ``range(n)`` is no edge, and
        neither is a row of a float array (a cast would truncate).  Anything but a 2-D array is refused.
        """
        if not isinstance(rows, np.ndarray) or rows.ndim != 2:
            raise ValueError("has_edge asks about the rows of a 2-D array")
        if rows.dtype.kind not in "biu" or rows.shape[1] != self.k:
            return np.zeros(rows.shape[0], dtype=bool)
        cols, distinct, inside = _edge_columns(rows, self.n)
        distinct &= inside  # a row that is no edge may get a meaningless (wrapped) code
        codes = _encode_rows(cols, self.n)
        if self._coins is not None:  # a hashed host asks its coins, never its codes
            return distinct & self._coins(codes)
        return distinct & (_in_sorted(codes, self._codes) != self._complement)

    def edges(self) -> Iterator[tuple[int, ...]]:
        """Edges as sorted tuples, in canonical (lexicographic) order."""
        return map(tuple, _decode_codes(self.edge_codes(), self.n, self.k).tolist())

    def edge_codes(self) -> np.ndarray:
        """Sorted codes of the edges, in the stored codes' dtype (built on each call in complement form)."""
        if not self._complement:
            return self._codes
        return _absent_codes([self._codes], math.comb(self.n, self.k))

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted array of the neighbours of v (2-uniform only): the set bits of v's row."""
        return _bit_vertices(self._row(v), self.n)

    def neighbor_bits(self, v: int) -> int:
        """The neighbours of v (2-uniform only) as a Python int whose bit w is w.

        The host keeps the rows, n / 8 bytes each, until a miss finds :data:`_MEMO_BYTES` of them.
        """
        bits = self._rows.get(_vertex(v))  # 1.0 would hash as 1
        if bits is None:
            if self._adj is None:  # perfbench/spans.py times the adjacency's first build in neighbors
                self.neighbors(v)
            if len(self._rows) * ((self.n + 7) // 8) >= _MEMO_BYTES:
                self._rows.clear()
            bits = self._rows[v] = self._row(v)
        return bits

    def _row(self, v: int) -> int:
        """v's row of the adjacency as a bitset: a Python int whose bit w is set for each neighbour w.

        The first call builds the adjacency of the stored pairs in the smaller of two layouts:
        packed rows, n * ceil(n / 8) bytes, or a CSR of two int32 ids a stored pair.
        In complement form the row read from either is v's non-edges, flipped here and only here.
        """
        if self.k != 2:
            raise ValueError("the adjacency requires a 2-uniform hypergraph")
        v = _vertex(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside range({self.n})")
        if self._adj is None:
            if self.n * ((self.n + 7) // 8) <= 8 * self._codes.size:
                self._adj = _packed_rows(self._codes, self.n)
            else:
                self._adj = _csr(self._codes, self.n)
        if isinstance(self._adj, np.ndarray):
            bits = int.from_bytes(self._adj[v], "little")
        else:
            starts, dst = self._adj
            # numpy's own cast of an int32 index costs ~2 us of a ~6 us call
            bits = _vertex_bits(dst[starts[v]:starts[v + 1]].astype(np.intp), self.n)
        if self._complement:  # every other vertex but v itself
            bits ^= ((1 << self.n) - 1) ^ (1 << v)
        return bits

    # -- equality / text ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        if (self.k, self.n) != (other.k, other.n):
            return False
        if self._coins is not None and self._coins == other._coins:
            return True  # one hash rule admits one edge set, read without a walk of the codes
        if self._complement == other._complement:
            return bool(np.array_equal(self._codes, other._codes))
        # the stored sides of equal edge sets in opposite forms partition
        # the candidate edges
        return (
            self._codes.size + other._codes.size == math.comb(self.n, self.k)
            and np.intersect1d(self._codes, other._codes, assume_unique=True).size == 0
        )

    def __hash__(self) -> int:
        # equal hosts share k and n in every form; the edge count of a hashed host walks all C(n, k) codes
        return hash((self.k, self.n))

    def __repr__(self) -> str:
        if self._coins is not None:  # a hashed host's codes are a walk of all C(n, k) candidates
            return f"Hypergraph(hashed k={self.k}, n={self.n})"
        tag = "complete " if self.is_complete else ""
        return f"Hypergraph({tag}k={self.k}, n={self.n}, m={self.edge_count})"

    def text_blocks(self) -> Iterator[bytes]:
        """The text format as bytes, formatted a block at a time: the header, then edge lines."""
        codes = self.edge_codes()
        yield f"{self.k} {self.n} {codes.size}\n".encode()
        for lo in range(0, codes.size, _BLOCK):
            yield _row_lines(_decode_codes(codes[lo:lo + _BLOCK], self.n, self.k))

    def to_text(self) -> str:
        """Bit-exact text format: ``k n m`` then one sorted edge per line."""
        return b"".join(self.text_blocks()).decode()

    @classmethod
    def from_text(cls, text: str) -> "Hypergraph":
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty hypergraph text")
        head = lines[0].split()
        if len(head) != 3:
            raise ValueError(f"bad header {lines[0]!r}, expected 'k n m'")
        k, n, m = (int(x) for x in head)
        if n > MAX_VERTICES:
            raise ValueError(f"n={n} exceeds the limit of {MAX_VERTICES} vertices")
        _count(m, "edge count", 0)
        if len(lines) < 1 + m:
            raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
        extra = next((line for line in lines[1 + m:] if line.strip()), None)
        if extra is not None:
            raise ValueError(f"unexpected line {extra!r} after {m} edge lines")
        cls(k, n, ())  # the header alone must describe a graph
        body = lines[1:1 + m]
        try:
            with warnings.catch_warnings():
                # all-blank lines warn "input contained no data"; the parse below names the defect
                warnings.simplefilter("ignore")
                rows = np.loadtxt(body, dtype=np.int64, ndmin=2, comments=None)
        except (ValueError, OverflowError):
            rows = None
        if rows is None or rows.shape != (m, k):
            # line by line: int() names a non-integer, _edge_array a blank or ragged line
            rows = _edge_array([[int(x) for x in line.split()] for line in body], k, n)
        bad = np.flatnonzero(np.any(rows[:, 1:] <= rows[:, :-1], axis=1))
        if bad.size:
            raise ValueError(f"edge line {body[bad[0]]!r} is not strictly increasing")
        return cls(k, n, rows)


#: Edges formatted, or checked and encoded, per block: the temporaries stay small.
_BLOCK = 1 << 14

#: Fewest pairs the packed row build sets at once (else one per 64 bytes of rows):
#: its ~10 bytes a pair of temporaries stay under half the rows' bytes from n = 1500 up.
_PACK_BLOCK = _BLOCK // 4

#: Bytes of vertex bitsets one owner (a host's rows, a copy search's links) may hold.
_MEMO_BYTES = 1 << 24


def _bit_rows(mask: np.ndarray) -> list[int]:
    """The rows of a 2-D bool array as vertex bitsets: Python ints, bit u for column u."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    width = packed.shape[1]
    if width <= 8:  # a row is one little-endian 64-bit word
        words = np.zeros((len(packed), 8), dtype=np.uint8)
        words[:, :width] = packed
        return words.view("<u8").ravel().tolist()
    raw = packed.tobytes()
    return [int.from_bytes(raw[lo:lo + width], "little") for lo in range(0, len(raw), width)]


def _vertex_bits(pool: np.ndarray, n: int, keep: np.ndarray | bool = True) -> int:
    """A bitset of an int array's vertices in ``range(n)``, as :func:`_vertex_set` reads them, where ``keep`` is true."""
    mask = np.zeros(n, dtype=bool)
    mask[pool] = keep
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _bit_vertices(bits: int, n: int) -> np.ndarray:
    """The vertices of a bitset of ``range(n)``, ascending: :func:`_vertex_bits` undone."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, count=n, bitorder="little"))


def _comb(x: np.ndarray, s: int) -> np.ndarray:
    """C(x, s), s >= 1, for each entry of an int64 array x >= 0; exact while x ** s < 2 ** 62."""
    f = x
    for i in range(1, s):
        f = f * (x - i)  # a falling factorial: no step exceeds x ** s
    return f // math.factorial(s) if s > 1 else f


@functools.lru_cache(maxsize=8)
def _rank_table(n: int, k: int) -> np.ndarray:
    """The read-only (k - 1, n) int64 table of a rank's terms, 1 <= n, for :func:`_encode_rows`.

    Entry (j, c) is C(n - 1 - c, k - j), save that row 0 holds C(n, k) - n less it.
    """
    x = np.arange(n - 1, -1, -1, dtype=np.int64)
    table = np.stack([_comb(x, k - j) for j in range(k - 1)])
    np.subtract(math.comb(n, k) - n, table[0], out=table[0])
    table.flags.writeable = False
    return table


def _encode_rows(cols: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Lexicographic ranks of sorted edges given as their k int64 vertex columns.

    Mirrored by a -> n - 1 - a, lex order turns into reversed colex order:
    the rank is C(n, k) - 1 less C(n - 1 - c, k - j) for the vertex c of
    each column j, the last term being n - 1 - c.  On a host the pipeline
    may run, n <= MAX_VERTICES, the other terms are read from
    :func:`_rank_table` (at most 1.6 MB: (k - 1) * n <= 2 * 10 ** 5 there
    for every encodable k), else computed as falling factorials.  A vertex
    outside ``range(n)`` gets a meaningless code.
    """
    k = len(cols)
    if 0 < n <= MAX_VERTICES:
        table = _rank_table(n, k)
        codes = table[0].take(cols[0], mode="clip")
        for j in range(1, k - 1):
            codes -= table[j].take(cols[j], mode="clip")
        codes += cols[-1]
        return codes
    codes = np.full(cols[0].shape[0], math.comb(n, k) - 1, dtype=np.int64)
    for j, col in enumerate(cols):
        codes -= _comb(n - 1 - col, k - j)
    return codes


def code_dtype(total: int) -> type[np.signedinteger]:
    """The dtype that stores codes below ``total``: int32 when total <= 2**31 - 1, else int64."""
    return np.int32 if total <= np.iinfo(np.int32).max else np.int64


def _in_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Bool mask: which of the 1-D int array ``values`` occur in the ascending array ``table``.

    The keys are searched in the table's dtype, as numpy would otherwise copy
    the whole table to a wider one; a key that wraps in that cast still differs
    from the element found, which is compared with the key itself.  They are
    searched a block at a time, so the positions found stay small too.
    """
    if table.size == 0:
        return np.zeros(values.shape, dtype=bool)
    if values.size > _BLOCK:
        return np.concatenate([_in_sorted(values[lo:lo + _BLOCK], table)
                               for lo in range(0, values.size, _BLOCK)])
    at = table.searchsorted(values.astype(table.dtype, copy=False))
    # a position past the end clips to the largest entry, never a match
    return table.take(at, mode="clip") == values


def _absent_codes(stored: Sequence[np.ndarray], total: int) -> np.ndarray:
    """The codes below total in none of these sorted arrays, ascending, in their dtype.

    They are read off one bool mask a block at a time: no full-length int64 copy.
    """
    keep = np.ones(total, dtype=bool)
    for codes in stored:
        keep[codes] = False
    out = np.empty(np.count_nonzero(keep), dtype=stored[0].dtype)
    size = 0
    step = _BLOCK << 6
    for lo in range(0, total, step):
        found = np.flatnonzero(keep[lo:lo + step])
        found += lo
        out[size:size + found.size] = found
        size += found.size
    return out


def _decode_codes(codes: np.ndarray, n: int, k: int) -> np.ndarray:
    """The sorted edges with these ranks, in any order, as the rows of an (m, k) array.

    Level j of the mirrored edge's colex rank ``rest`` is the largest b with
    C(b, k - j) <= rest: a float root, by AM-GM above it only by rounding,
    then exact steps.
    """
    total = math.comb(n, k)
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= total):
        raise ValueError(f"edge code outside [0, C({n}, {k}))")
    rows = np.empty((codes.size, k), dtype=np.int64)
    rest = total - 1 - codes
    for j in range(k - 1):
        s = k - j
        b = np.floor((rest * float(math.factorial(s))) ** (1 / s) + (s - 1) / 2).astype(np.int64)
        while True:
            low = _comb(b, s)
            # C(b + 1, s) = C(b, s) + C(b, s - 1)
            step = (low + _comb(b, s - 1) <= rest).view(np.int8) - (low > rest).view(np.int8)
            if not step.any():
                break
            b += step
        rest -= low
        rows[:, j] = n - 1 - b
    rows[:, k - 1] = n - 1 - rest
    return rows


def _pair_positions(codes: np.ndarray, n: int, line: int, per: int) -> Iterator[np.ndarray]:
    """Positions u * line + w, then w * line + u, of the pairs {u < w} with these sorted codes.

    ``line`` >= n is a row's length: n for the CSR's keys, whole bytes of
    bits for the packed rows.  Row u's pairs (u, w > u) are the run of codes
    from first[u], the code of (u, u + 1), so w = code - first[u] + u + 1 and
    each position is an affine map of the code with one coefficient per row.
    They come a stretch of whole rows, about ``per`` pairs, at a time: one
    array of ``code_dtype(n * line)`` an orientation.
    """
    dtype = code_dtype(n * line)
    u = np.arange(n + 1)
    first = u * (2 * n - 1 - u) // 2  # first[n] = C(n, 2), so first fits the codes' dtype
    starts = codes.searchsorted(first.astype(codes.dtype, copy=False))
    first -= u + 1  # w = code - first[u]
    across = (u * line - first).astype(dtype)  # (u, w) is code + across[u]
    # (w, u) is line * code + down[u]: in dtype, down and line * code wrap
    # modulo its range, and their sum, below n * line, comes out exact
    down = (u - line * first).astype(dtype)
    del u, first
    count = np.diff(starts)
    # a stretch begins at each row whose first code enters another block of per pairs
    cuts = [*np.flatnonzero(np.diff(starts[:-1] // per, prepend=-1)).tolist(), n]
    for a, b in zip(cuts, cuts[1:]):
        block = codes[starts[a]:starts[b]]
        pos = np.repeat(across[a:b], count[a:b])
        pos += block
        yield pos
        pos = block.astype(dtype)
        pos *= line
        pos += np.repeat(down[a:b], count[a:b])
        yield pos


def _csr(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row starts and ascending int32 rows of both orientations of the pairs with these sorted codes.

    Each pair {u, w} becomes the keys u * n + w and w * n + u, its
    :func:`_pair_positions` in rows n long, sorted in place as one array:
    row u is the run of keys in [u * n, (u + 1) * n).
    """
    keys = np.empty(2 * codes.size, dtype=code_dtype(n * n))
    size = 0
    for pos in _pair_positions(codes, n, n, max(_PACK_BLOCK, keys.nbytes // 64)):
        keys[size:size + pos.size] = pos
        size += pos.size
    keys.sort()
    starts = keys.searchsorted(np.arange(n + 1, dtype=keys.dtype) * n)
    for lo in range(0, keys.size, _BLOCK):  # numpy's % by a scalar is several times slower
        part = keys[lo:lo + _BLOCK]
        part -= part // n * n  # vertex ids: n < 2 ** 31 by check_encodable
    return starts, keys.astype(np.int32, copy=False)


def _packed_rows(codes: np.ndarray, n: int) -> np.ndarray:
    """The (n, ceil(n / 8)) uint8 rows whose bit w % 8 of byte (v, w // 8) says {v, w} is a stored pair.

    They hold the pairs with these sorted codes, whichever side of the edge
    set those are: :meth:`Hypergraph._row` flips a complement host's row.
    Bit (v, w) is bit v * 8 * width + w of the rows; the pairs set their two
    bits, their :func:`_pair_positions`, a stretch of about
    max(_PACK_BLOCK, rows' bytes / 64) pairs at a time.
    """
    width = (n + 7) // 8
    rows = np.zeros((n, width), dtype=np.uint8)
    flat = rows.reshape(-1)
    for pos in _pair_positions(codes, n, 8 * width, max(_PACK_BLOCK, rows.nbytes // 64)):
        bit = pos.astype(np.uint8)  # the low byte
        bit &= 7
        np.left_shift(1, bit, out=bit)
        pos >>= 3
        np.add.at(flat, pos, bit)  # no two pairs share a bit, so a byte's sum is their OR
    return rows


def _edge_columns(rows: np.ndarray, n: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """An (m, w >= 2) int array's int64 columns with each row ascending.

    Also which rows have distinct vertices, and which lie inside ``range(n)``.
    """
    cols = list(np.ascontiguousarray(rows.T, dtype=np.int64))
    for end in range(len(cols) - 1, 0, -1):  # a bubble network of compare-exchanges
        for j in range(end):
            a, b = cols[j], cols[j + 1]
            cols[j], cols[j + 1] = np.minimum(a, b), np.maximum(a, b)
    distinct = cols[0] < cols[1]
    for a, b in zip(cols[1:], cols[2:]):
        distinct &= a < b
    return cols, distinct, (cols[0] >= 0) & (cols[-1] < n)


def _edge_array(edges: Iterable[Iterable[int]], k: int, n: int) -> np.ndarray:
    """Vertex sequences as an (m, k) int64 array; names one of another length, past int64 or a float."""
    rows = [tuple(map(_vertex, e)) for e in edges]
    bad = next((e for e in rows if len(e) != k), None)
    if bad is not None:
        raise ValueError(f"edge {bad} must have {k} distinct vertices")
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, k)
    except OverflowError:
        bad = next(e for e in rows if not all(-2 ** 63 <= v < 2 ** 63 for v in e))
        raise ValueError(f"edge {tuple(sorted(bad))} out of range [0, {n})") from None


def _sorted_codes(rows: np.ndarray, k: int, n: int) -> np.ndarray:
    """Ascending codes of the edges that are the rows of an (m, k) int array.

    They are checked as :class:`Hypergraph` says, a block at a time.
    """
    codes = np.empty(len(rows), dtype=code_dtype(math.comb(n, k)))
    for lo in range(0, len(rows), _BLOCK):
        cols, distinct, inside = _edge_columns(rows[lo:lo + _BLOCK], n)
        bad = ~(distinct & inside)
        if bad.any():
            i = int(bad.argmax())
            edge = tuple(rows[lo + i].tolist())
            if not distinct[i]:
                raise ValueError(f"edge {edge} must have {k} distinct vertices")
            raise ValueError(f"edge {tuple(sorted(edge))} out of range [0, {n})")
        codes[lo:lo + _BLOCK] = _encode_rows(cols, n)
    codes.sort()
    if np.any(codes[1:] == codes[:-1]):
        raise ValueError("duplicate edges are not allowed")
    return codes


def _row_lines(rows: np.ndarray) -> bytes:
    """The rows of a nonnegative (m, w) int array as text lines of w space-separated integers."""
    w = rows.shape[1]
    values = rows.ravel()
    if values.size == 0:
        return b""
    digits = len(str(int(values.max())))
    width = np.ones(values.size, dtype=np.int64)
    for d in range(1, digits):
        width += values >= 10 ** d
    # every value is followed by one separator byte: a space or a newline
    ends = np.cumsum(width + 1) - 1
    buf = np.full(int(ends[-1]) + 1, ord(" "), dtype=np.uint8)
    buf[ends[w - 1::w]] = ord("\n")
    for d in range(digits):
        has = width > d
        buf[ends[has] - 1 - d] = values[has] // 10 ** d % 10 + ord("0")
    return buf.tobytes()


#: Most vertices a host may have: the pipeline's lists, sets and cover matrices
#: grow with n, and a find at this limit fits in 2 GB (README, "Sampling a host").
MAX_VERTICES = 100_000


def check_encodable(k: int, n: int) -> None:
    """Refuse n, k whose edge rank codes take falling factorials past int64 (n ** k)."""
    # k >= 62 is out of range for every n > 1, without computing a huge n ** k
    if n > 1 and (k >= 62 or n ** k >= 2 ** 62):
        raise ValueError(f"n={n}, k={k} exceeds the edge-encoding range of int64 rank codes")


# -- the two modes -----------------------------------------------------------


def uniformity(k: int, mode: str) -> int:
    """Host uniformity of a mode for k >= 1: 2 for k-th powers, k+1 for tight cycles."""
    k = _count(k, "k", 1)
    if mode == "power":
        return 2
    if mode == "tight":
        return k + 1
    raise ValueError(f"mode must be 'power' or 'tight', got {mode!r}")


def check_uniformity(host: Hypergraph, k: int, mode: str) -> None:
    """Refuse a host whose uniformity is not the one ``mode`` with this k needs."""
    w = uniformity(k, mode)
    if host.k != w:
        raise ValueError(f"{mode} mode with k={k} needs a {w}-uniform host, got {host.k}-uniform")


def required_edges(
    seq: Sequence[int] | np.ndarray, k: int, mode: str, cyclic: bool = False
) -> Iterator[np.ndarray]:
    """The host edges a k-power path or tight path along ``seq`` needs, as batches of sorted rows.

    Power mode: one (m, 2) batch per offset d, the pairs at distance d along
    the sequence, for d <= min(k, n - 1).  Tight mode: one (m, k+1) batch of
    every window of k+1 consecutive vertices.  With ``cyclic`` the distances
    and windows wrap around; on a cycle d <= min(k, n // 2), as offset n - d
    repeats the pairs of d (offset n / 2 gives each of its pairs twice).
    Cyclic tight mode needs at least k+1 vertices; the vertices are distinct
    integers, and a float is refused, never truncated, as is one past int64.
    """
    w = uniformity(k, mode)
    s = np.asarray(seq)
    try:  # a cast would truncate a float: such a sequence is read by _vertex
        s = np.asarray(s if s.dtype.kind in "iu" else [_vertex(v) for v in seq], dtype=np.int64)
    except OverflowError:  # a vertex past int64 lies in no host
        raise ValueError(f"vertex {max(seq, key=abs)} outside int64") from None
    n = s.size
    if mode == "tight":
        ext = np.concatenate((s, s[:w - 1])) if cyclic else s
        if ext.size < w:  # a sequence shorter than one window needs no edge
            return iter((np.empty((0, w), dtype=np.int64),))
        return iter((np.sort(np.lib.stride_tricks.sliding_window_view(ext, w), axis=1),))

    def pairs(d: int) -> np.ndarray:
        a, b = (s, np.roll(s, -d)) if cyclic else (s[:n - d], s[d:])
        return np.column_stack((np.minimum(a, b), np.maximum(a, b)))

    return map(pairs, range(1, min(k, n // 2 if cyclic else n - 1) + 1))


# -- path templates ---------------------------------------------------------


def power_path_template(k: int, ell: int) -> Hypergraph:
    """k-th power of a path on ``ell`` vertices: edges {i, j} with 0 < j-i <= k."""
    _count(ell, "path length", 2)
    return Hypergraph(2, ell, np.concatenate([*required_edges(np.arange(ell), k, "power")]))


def connecting_path_template(k: int, ell: int) -> Hypergraph:
    """Power path with the edges inside the two end blocks removed.

    Edges with both endpoints among the first k vertices, or both among the
    last k, are dropped; everything else of the k-power path stays.  The end
    blocks then behave like free sockets for prescribed endpoint tuples.

    For ell < 3k this keeps edges running directly between the two end
    blocks (they are required when such a path is spliced between two
    structures).
    """
    _count(ell, "connecting path length", 2 * k + 1)
    rows = np.concatenate([*required_edges(np.arange(ell), k, "power")])
    return Hypergraph(2, ell, rows[(rows[:, 1] >= k) & (rows[:, 0] < ell - k)])


def tight_path_template(k: int, ell: int) -> Hypergraph:
    """(k+1)-uniform path: consecutive windows {i, .., i+k}, ell-k edges."""
    _count(ell, "tight path length", k + 1)
    return Hypergraph(k + 1, ell, np.concatenate([*required_edges(np.arange(ell), k, "tight")]))


# -- path and cycle validation ----------------------------------------------


def missing_edge(
    host: Hypergraph, seq: Sequence[int] | np.ndarray, k: int, mode: str, cyclic: bool = False
) -> tuple[int, ...] | None:
    """The first row of :func:`required_edges` that is no host edge, as a tuple, or None.

    Each batch is asked with one ``has_edge`` call, and the walk stops at the
    first batch with a non-edge, so only one batch is held at a time.
    """
    for rows in required_edges(seq, k, mode, cyclic):
        hit = host.has_edge(rows)
        if not hit.all():
            return tuple(rows[hit.argmin()].tolist())
    return None


def is_path(host: Hypergraph, seq: Iterable[int], k: int, mode: str) -> bool:
    """True iff ``seq`` is a k-power (or tight) path of the host: distinct vertices, no edge missing."""
    check_uniformity(host, k, mode)
    s = list(seq)
    return len(set(s)) == len(s) and missing_edge(host, s, k, mode) is None


@dataclass(frozen=True)
class CycleCertificate:
    """A cyclic vertex ordering claimed to be a spanning power/tight cycle.

    ``mode`` is ``"power"`` (k-th power of a Hamilton cycle in a graph) or
    ``"tight"`` (tight Hamilton cycle in a (k+1)-uniform hypergraph, whose
    windows have k+1 vertices).
    """

    mode: str
    k: int
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        uniformity(self.k, self.mode)  # rejects a k that is no integer or below 1, and an unknown mode

    def to_text(self) -> str:
        head = f"{self.mode} {self.k} {len(self.order)}"
        return head + "\n" + " ".join(str(v) for v in self.order) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CycleCertificate":
        lines = text.splitlines()
        if len(lines) < 2:
            raise ValueError("certificate text needs a header and an ordering line")
        head = lines[0].split()
        if len(head) != 3:
            raise ValueError(f"bad header {lines[0]!r}, expected 'mode k n'")
        mode, k, n = head
        order = tuple(int(x) for x in lines[1].split())
        if len(order) != int(n):
            raise ValueError(f"expected {n} vertices, found {len(order)}")
        extra = next((line for line in lines[2:] if line.strip()), None)
        if extra is not None:
            raise ValueError(f"unexpected line {extra!r} after the ordering line")
        return cls(mode=mode, k=int(k), order=order)


def verify_certificate(host: Hypergraph, cert: CycleCertificate) -> bool:
    """Check a certificate against the host graph.

    Every edge :func:`required_edges` names for the cyclic ordering must be
    a host edge.  Structural defects (wrong permutation, mode/uniformity
    mismatch, a host shorter than one window) raise ``ValueError``.  Its
    batches are asked one at a time, so memory stays linear in n whatever k is.
    """
    n = host.n
    if len(cert.order) != n or set(cert.order) != set(range(n)):
        raise ValueError("certificate ordering is not a permutation of the vertex set")
    check_uniformity(host, cert.k, cert.mode)
    if cert.mode == "tight" and n < host.k:
        raise ValueError(f"host has fewer vertices than one window ({host.k})")
    return missing_edge(host, cert.order, cert.k, cert.mode, cyclic=True) is None
