"""Uniform hypergraphs, path templates, embeddings and cycle certificates.

Vertices are dense 0-based integers.  A graph is simply the 2-uniform case;
there is one code path for both.  Hypergraphs are immutable after
construction and safe to share between threads.  A hypergraph may defer
drawing its codes until their first read (``Hypergraph.from_codes`` with a
function); the draw is deterministic, so two threads that race on the first
read store identical arrays and sharing stays safe.
"""

from __future__ import annotations

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
    depend on the edge set only, never on the stored side.
    """

    __slots__ = ("k", "n", "_codes", "_complement", "_adj", "_rows", "_draw")

    def __init__(self, k: int, n: int, edges: np.ndarray | Iterable[Iterable[int]]):
        """The graph whose edges are the rows of an (m, k) int array, or these vertex sequences.

        An edge's vertices may come in any order.  The first edge of another
        width, with a repeated vertex, or with a vertex outside ``range(n)`` or
        not an integer is refused by name, and so is a repeated edge.
        """
        self.k = int(k)
        self.n = int(n)
        if self.k < 2:
            raise ValueError(f"uniformity must be >= 2, got {k}")
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        check_encodable(self.k, self.n)
        array = isinstance(edges, np.ndarray) and edges.dtype.kind in "biu"
        if not array or edges.shape[1:] != (self.k,):
            edges = _edge_array(edges, self.k, self.n)  # names an edge of another width or a float vertex
        self._codes = _sorted_codes(edges, self.k, self.n)
        self._complement = False
        self._adj = None
        self._rows: dict[int, int] = {}

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
        called on their first read, and the array it returns is kept.
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
        dtype = code_dtype(math.comb(self.n, self.k))
        self._codes = codes = np.asarray(self._draw(), dtype=dtype)
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

    def has_edge(self, vertices: np.ndarray | Iterable[int]) -> np.ndarray | bool:
        """Edge membership of vertex sets, in any vertex order.

        An (m, w) int array asks about each of its rows and gives an m-long
        bool array; any other vertex sequence is one set and gives a bool.
        A set of the wrong size, with a repeated vertex or with a vertex
        outside ``range(n)`` or not an integer (any row of a float array)
        is no edge.  An empty batch is a ``(0, w)`` array: a 1-D empty
        array reads as one (empty) vertex set.
        """
        batch = isinstance(vertices, np.ndarray) and vertices.ndim == 2
        if batch:
            rows = vertices
            if rows.dtype.kind not in "biu":  # a cast would truncate
                return np.zeros(rows.shape[0], dtype=bool)
        else:
            try:
                rows = np.array([[_vertex(v) for v in vertices]], dtype=np.int64)
            except (ValueError, OverflowError):
                return False  # a vertex that is no integer, or that no int64 holds
        if rows.shape[1] != self.k:
            return np.zeros(rows.shape[0], dtype=bool) if batch else False
        cols, distinct, inside = _edge_columns(rows, self.n)
        ok = distinct & inside  # a row that is no edge may get a meaningless (wrapped) code
        hit = ok & (_in_sorted(_encode_rows(cols, self.n), self._codes) != self._complement)
        return hit if batch else bool(hit[0])

    def edges(self) -> Iterator[tuple[int, ...]]:
        """Edges as sorted tuples, in canonical (lexicographic) order."""
        return map(tuple, _decode_codes(self.edge_codes(), self.n, self.k).tolist())

    def edge_codes(self) -> np.ndarray:
        """Sorted codes of the edges, in the stored codes' dtype (built on each call in complement form)."""
        if not self._complement:
            return self._codes
        keep = np.ones(math.comb(self.n, self.k), dtype=bool)
        keep[self._codes] = False
        return _true_positions(keep, self._codes.dtype)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted array of the neighbours of v (2-uniform only): the true positions of v's row."""
        return np.flatnonzero(self._row(v))

    def neighbor_bits(self, v: int) -> int:
        """The neighbours of v (2-uniform only) as a Python int whose bit w is w.

        The host keeps the rows, n / 8 bytes each, until a miss finds :data:`_MEMO_BYTES` of them.
        """
        bits = self._rows.get(_vertex(v))  # 1.0 would hash as 1
        if bits is None:
            if self._adj is None:  # perfbench/spans.py times the rows' first build in neighbors
                self.neighbors(v)
            if len(self._rows) * ((self.n + 7) // 8) >= _MEMO_BYTES:
                self._rows.clear()
            bits = self._rows[v] = _bits(self._row(v))
        return bits

    def _row(self, v: int) -> np.ndarray:
        """v's n-long bool row of the adjacency, from the stored CSR row, built on the first call."""
        if self.k != 2:
            raise ValueError("the adjacency requires a 2-uniform hypergraph")
        v = _vertex(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside range({self.n})")
        if self._adj is None:
            self._adj = _csr(self._codes, self.n)
        starts, dst = self._adj
        row = np.empty(self.n, dtype=bool)
        row.fill(self._complement)
        # numpy's own cast of an int32 index costs ~2 us of a ~6 us call
        row[dst[starts[v]:starts[v + 1]].astype(np.intp)] = not self._complement
        row[v] = False
        return row

    # -- equality / text ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        if (self.k, self.n) != (other.k, other.n):
            return False
        if self._complement == other._complement:
            return bool(np.array_equal(self._codes, other._codes))
        # the stored sides of equal edge sets in opposite forms partition
        # the candidate edges
        return (
            self._codes.size + other._codes.size == math.comb(self.n, self.k)
            and np.intersect1d(self._codes, other._codes, assume_unique=True).size == 0
        )

    def __hash__(self) -> int:
        # the edge count is the cheap invariant both forms share
        return hash((self.k, self.n, self.edge_count))

    def __repr__(self) -> str:
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
        if m < 0:
            raise ValueError(f"edge count must be >= 0, got {m}")
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

#: Bytes of vertex bitsets one owner (a host's rows, a copy search's links) may hold.
_MEMO_BYTES = 1 << 24


def _bits(mask: np.ndarray) -> int:
    """The true positions of a 1-D bool array as the set bits of a Python int."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _comb(x: np.ndarray, s: int) -> np.ndarray:
    """C(x, s), s >= 1, for each entry of an int64 array x >= 0; exact while x ** s < 2 ** 62."""
    f = x
    for i in range(1, s):
        f = f * (x - i)  # a falling factorial: no step exceeds x ** s
    return f // math.factorial(s) if s > 1 else f


def _encode_rows(cols: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Lexicographic ranks of sorted edges given as their k int64 vertex columns.

    Mirrored by a -> n - 1 - a, lex order turns into reversed colex order.
    """
    k = len(cols)
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


def _true_positions(mask: np.ndarray, dtype: type[np.signedinteger]) -> np.ndarray:
    """``np.flatnonzero(mask)`` in dtype, found a block at a time: no full-length int64 copy."""
    out = np.empty(np.count_nonzero(mask), dtype=dtype)
    size = 0
    step = _BLOCK << 6
    for lo in range(0, mask.size, step):
        found = np.flatnonzero(mask[lo:lo + step])
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


def _csr(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row starts and ascending int32 rows of both orientations of the pairs with these sorted codes.

    Row u's pairs (u, w > u) are the run of codes from first[u], the code of
    (u, u + 1).  Each pair {u, w} becomes the keys u * n + w and w * n + u,
    sorted in place as one array: row u is the run of keys in [u * n, (u + 1) * n).
    """
    u = np.arange(n + 1)
    first = u * (2 * n - 1 - u) // 2  # first[n] = C(n, 2), so first fits the codes' dtype
    up_count = np.diff(codes.searchsorted(first.astype(codes.dtype, copy=False)))
    dtype = code_dtype(n * n)  # every key is below n * n
    keys = np.empty(2 * codes.size, dtype=dtype)
    low, high = keys[:codes.size], keys[codes.size:]
    low[:] = np.repeat(u[:-1].astype(dtype), up_count)
    high[:] = codes
    high -= np.repeat((first - u - 1)[:-1].astype(dtype), up_count)  # the larger vertex w
    low *= n
    low += high  # u * n + w
    high *= n
    high += low // n  # w * n + u
    keys.sort()
    starts = keys.searchsorted(u.astype(dtype) * n)
    for lo in range(0, keys.size, _BLOCK):  # numpy's % by a scalar is several times slower
        part = keys[lo:lo + _BLOCK]
        part -= part // n * n  # vertex ids: n < 2 ** 31 by check_encodable
    return starts, keys.astype(np.int32, copy=False)


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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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
    Cyclic tight mode needs at least k+1 vertices; the vertices are distinct.
    """
    w = uniformity(k, mode)
    s = np.asarray(seq, dtype=np.int64)
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
    if ell < 2:
        raise ValueError(f"path length must be >= 2, got {ell}")
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
    if ell <= 2 * k:
        raise ValueError(f"connecting path needs ell >= {2 * k + 1}, got {ell}")
    rows = np.concatenate([*required_edges(np.arange(ell), k, "power")])
    return Hypergraph(2, ell, rows[(rows[:, 1] >= k) & (rows[:, 0] < ell - k)])


def tight_path_template(k: int, ell: int) -> Hypergraph:
    """(k+1)-uniform path: consecutive windows {i, .., i+k}, ell-k edges."""
    if ell <= k:
        raise ValueError(f"tight path needs ell >= {k + 1}, got {ell}")
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
        uniformity(self.k, self.mode)  # rejects k < 1 and an unknown mode

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
