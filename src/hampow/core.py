"""Uniform hypergraphs, path templates, embeddings and cycle certificates.

Vertices are dense 0-based integers.  A graph is simply the 2-uniform case;
there is one code path for both.  Hypergraphs are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "CycleCertificate",
    "Hypergraph",
    "MAX_VERTICES",
    "VertexTuple",
    "check_encodable",
    "connecting_path_template",
    "is_power_path",
    "is_tight_path",
    "power_path_template",
    "required_edges",
    "tight_path_template",
    "uniformity",
    "verify_certificate",
]


class VertexTuple(tuple):
    """Ordered tuple of distinct vertices."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[int] = ()) -> "VertexTuple":
        t = super().__new__(cls, (int(v) for v in vertices))
        if len(set(t)) != len(t):
            raise ValueError(f"vertices must be distinct, got {tuple(t)}")
        return t


class Hypergraph:
    """Immutable k-uniform hypergraph on the vertex set ``{0, .., n-1}``.

    An edge's code is the lexicographic rank of its sorted vertex tuple among
    all k-subsets; the codes are kept in a sorted array.  A hypergraph
    stores whichever side of its edge set its producer expects to be smaller:
    the edges themselves, or (complement form) the non-edges.  The complete
    hypergraph is the complement form with nothing stored, so dense hosts of
    any uniformity stay usable.  Every query, equality and the text format
    depend on the edge set only, never on the stored side.
    """

    __slots__ = ("k", "n", "_codes", "_complement", "_adj")

    def __init__(self, k: int, n: int, edges: Iterable[Iterable[int]]):
        self.k = int(k)
        self.n = int(n)
        if self.k < 2:
            raise ValueError(f"uniformity must be >= 2, got {k}")
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        check_encodable(self.k, self.n)
        rows = []
        for edge in edges:
            vs = sorted(int(v) for v in edge)
            if len(vs) != self.k or len(set(vs)) != self.k:
                raise ValueError(f"edge {tuple(edge)} must have {self.k} distinct vertices")
            if vs[0] < 0 or vs[-1] >= self.n:
                raise ValueError(f"edge {tuple(vs)} out of range [0, {self.n})")
            rows.append(vs)
        self._codes = _sorted_codes(np.array(rows, dtype=np.int64).reshape(-1, self.k), self.n)
        self._complement = False
        self._adj = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def complete(cls, k: int, n: int) -> "Hypergraph":
        """Complete k-uniform hypergraph: the complement form of no non-edges."""
        return cls.from_codes(k, n, np.empty(0, dtype=np.int64), complement=True)

    @classmethod
    def from_codes(
        cls, k: int, n: int, codes: np.ndarray, complement: bool = False
    ) -> "Hypergraph":
        """Internal fast path: ``codes`` must be sorted, unique, valid.

        They are the edges, or with ``complement`` the non-edges.
        """
        g = cls(k, n, ())
        g._codes = np.asarray(codes, dtype=np.int64)
        g._complement = complement
        return g

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
        outside ``range(n)`` is no edge.  An empty batch is a ``(0, w)``
        array: a 1-D empty array reads as one (empty) vertex set.
        """
        batch = isinstance(vertices, np.ndarray) and vertices.ndim == 2
        if batch:
            rows = vertices.astype(np.int64)
        else:
            vs = [int(v) for v in vertices]
            try:
                rows = np.array([vs], dtype=np.int64)
            except OverflowError:
                return False  # a vertex no int64 holds is out of range
        if rows.shape[1] != self.k:
            return np.zeros(rows.shape[0], dtype=bool) if batch else False
        rows.sort(axis=1)
        ok = (rows[:, 0] >= 0) & (rows[:, -1] < self.n) & np.all(rows[:, 1:] > rows[:, :-1], axis=1)
        # a row that is no edge is encoded as zeros, so no stray vertex overflows
        codes = _encode_rows(np.where(ok[:, None], rows, 0), self.n)
        i = np.searchsorted(self._codes, codes)
        stored = i < self._codes.size
        stored[stored] = self._codes[i[stored]] == codes[stored]
        hit = ok & (stored != self._complement)
        return hit if batch else bool(hit[0])

    def edges(self) -> Iterator[tuple[int, ...]]:
        """Edges as sorted tuples, in canonical (lexicographic) order."""
        return map(tuple, _decode_codes(self.edge_codes(), self.n, self.k).tolist())

    def edge_codes(self) -> np.ndarray:
        """Sorted codes of the edges (built on each call in complement form)."""
        if not self._complement:
            return self._codes
        keep = np.ones(math.comb(self.n, self.k), dtype=bool)
        keep[self._codes] = False
        return np.flatnonzero(keep)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array (2-uniform only)."""
        if self.k != 2:
            raise ValueError("neighbors() requires a 2-uniform hypergraph")
        if self._adj is None:
            # CSR over both orientations of the stored pairs (the neighbours,
            # or the non-neighbours), sorted as src * n + dst
            u, w = _decode_codes(self._codes, self.n, 2).T
            src, dst = np.divmod(np.sort(np.concatenate([u * self.n + w, w * self.n + u])), self.n)
            starts = np.searchsorted(src, np.arange(self.n + 1))
            self._adj = (starts, dst)
        starts, dst = self._adj
        row = dst[starts[v]:starts[v + 1]]
        if not self._complement:
            return row
        keep = np.ones(self.n, dtype=bool)
        keep[row] = False
        keep[v] = False
        return np.flatnonzero(keep)

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

    def to_text(self) -> str:
        """Bit-exact text format: ``k n m`` then one sorted edge per line."""
        codes = self.edge_codes()
        chunks = [f"{self.k} {self.n} {codes.size}\n".encode()]
        for lo in range(0, codes.size, _TEXT_CHUNK):
            chunks.append(_edge_lines(codes[lo:lo + _TEXT_CHUNK], self.n, self.k))
        return b"".join(chunks).decode()

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
        g = cls._from_edge_lines(k, n, lines[1:1 + m])
        if g is not None:
            return g
        # the line-by-line parse names the first defect
        edges = []
        for line in lines[1:1 + m]:
            vs = [int(x) for x in line.split()]
            if any(a >= b for a, b in zip(vs, vs[1:])):
                raise ValueError(f"edge line {line!r} is not strictly increasing")
            edges.append(vs)
        return cls(k, n, edges)

    @classmethod
    def _from_edge_lines(cls, k: int, n: int, lines: list[str]) -> "Hypergraph | None":
        """Vectorised parse of edge lines: None on a defect, but a repeated edge raises."""
        if not lines:
            return None
        try:
            g = cls(k, n, ())
            with warnings.catch_warnings():
                # all-blank lines warn "input contained no data"; the fallback names the defect
                warnings.simplefilter("ignore")
                rows = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
        except (ValueError, OverflowError):
            return None
        if rows.shape != (len(lines), k):
            return None  # a blank line, or lines of the wrong width
        if rows.min() < 0 or rows.max() >= n or np.any(rows[:, 1:] <= rows[:, :-1]):
            return None
        g._codes = _sorted_codes(rows, n)
        return g


#: Edges formatted per block in :meth:`Hypergraph.to_text`.
_TEXT_CHUNK = 1 << 20


def _comb(x: np.ndarray, s: int) -> np.ndarray:
    """C(x, s), s >= 1, for each entry of an int64 array x >= 0; exact while x ** s < 2 ** 62."""
    f = x.copy()
    for i in range(1, s):
        f *= x - i  # a falling factorial: no step exceeds x ** s
    return f // math.factorial(s) if s > 1 else f


def _encode_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Lexicographic ranks of sorted edges given as the rows of an int64 array.

    Mirrored by a -> n - 1 - a, lex order turns into reversed colex order.
    """
    k = rows.shape[1]
    codes = np.full(rows.shape[0], math.comb(n, k) - 1, dtype=np.int64)
    for j in range(k):
        codes -= _comb(n - 1 - rows[:, j], k - j)
    return codes


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


def _sorted_codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Ascending codes of sorted edges given as rows; no edge may repeat."""
    codes = np.sort(_encode_rows(rows, n))
    if np.any(codes[1:] == codes[:-1]):
        raise ValueError("duplicate edges are not allowed")
    return codes


def _edge_lines(codes: np.ndarray, n: int, k: int) -> bytes:
    """The edges with these codes as text lines of k space-separated vertex ids."""
    values = _decode_codes(codes, n, k).ravel()
    if values.size == 0:
        return b""
    digits = len(str(int(values.max())))
    width = np.ones(values.size, dtype=np.int64)
    for d in range(1, digits):
        width += values >= 10 ** d
    # every value is followed by one separator byte: a space or a newline
    ends = np.cumsum(width + 1) - 1
    buf = np.full(int(ends[-1]) + 1, ord(" "), dtype=np.uint8)
    buf[ends[k - 1::k]] = ord("\n")
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
    """Host uniformity of a mode: 2 for k-th powers, k+1 for tight cycles."""
    if mode == "power":
        return 2
    if mode == "tight":
        return k + 1
    raise ValueError(f"mode must be 'power' or 'tight', got {mode!r}")


def required_edges(
    seq: Iterable[int], k: int, mode: str, cyclic: bool = False
) -> set[tuple[int, ...]]:
    """Sorted host edges that a k-power path or tight path along ``seq`` needs.

    Power mode: every pair at distance <= k along the sequence.  Tight mode:
    every window of k+1 consecutive vertices.  With ``cyclic`` the distances
    and windows wrap around; a pair that wraps onto one vertex (a cycle on at
    most k vertices) needs no edge.  Cyclic tight mode needs at least k+1
    vertices.
    """
    s = list(seq)
    n = len(s)
    w = uniformity(k, mode)
    if mode == "tight":
        ext = s + s[:w - 1] if cyclic else s
        return {tuple(sorted(ext[i:i + w])) for i in range(len(ext) - w + 1)}
    out = set()
    reach = min(k, n - 1)  # a longer offset only repeats a pair
    for i in range(n):
        for j in range(i + 1, i + reach + 1 if cyclic else min(i + reach + 1, n)):
            u, v = s[i], s[j % n]
            if u != v:
                out.add((u, v) if u < v else (v, u))
    return out


# -- path templates ---------------------------------------------------------


def power_path_template(k: int, ell: int) -> Hypergraph:
    """k-th power of a path on ``ell`` vertices: edges {i, j} with 0 < j-i <= k."""
    if k < 1:
        raise ValueError(f"path power must be >= 1, got {k}")
    if ell < 2:
        raise ValueError(f"path length must be >= 2, got {ell}")
    return Hypergraph(2, ell, required_edges(range(ell), k, "power"))


def connecting_path_template(k: int, ell: int) -> Hypergraph:
    """Power path with the edges inside the two end blocks removed.

    Edges with both endpoints among the first k vertices, or both among the
    last k, are dropped; everything else of the k-power path stays.  The end
    blocks then behave like free sockets for prescribed endpoint tuples.

    For ell < 3k this keeps edges running directly between the two end
    blocks (they are required when such a path is spliced between two
    structures).
    """
    if k < 1:
        raise ValueError(f"path power must be >= 1, got {k}")
    if ell <= 2 * k:
        raise ValueError(f"connecting path needs ell >= {2 * k + 1}, got {ell}")
    first = set(range(k))
    last = set(range(ell - k, ell))
    pairs = [
        (i, j)
        for i, j in required_edges(range(ell), k, "power")
        if not ({i, j} <= first or {i, j} <= last)
    ]
    return Hypergraph(2, ell, pairs)


def tight_path_template(k: int, ell: int) -> Hypergraph:
    """(k+1)-uniform path: consecutive windows {i, .., i+k}, ell-k edges."""
    if k < 1:
        raise ValueError(f"path parameter must be >= 1, got {k}")
    if ell <= k:
        raise ValueError(f"tight path needs ell >= {k + 1}, got {ell}")
    return Hypergraph(k + 1, ell, required_edges(range(ell), k, "tight"))


# -- path and cycle validation ----------------------------------------------


def is_power_path(host: Hypergraph, seq: Iterable[int], k: int) -> bool:
    """True iff every pair of ``seq`` at distance <= k is a host edge."""
    if host.k != 2:
        raise ValueError("power paths live in 2-uniform hosts")
    s = list(seq)
    if len(set(s)) != len(s):
        return False
    return _has_all(host, required_edges(s, k, "power"))


def is_tight_path(host: Hypergraph, seq: Iterable[int]) -> bool:
    """True iff every window of host-uniformity consecutive vertices is an edge."""
    s = list(seq)
    if len(set(s)) != len(s):
        return False
    # a sequence shorter than one window needs no edge
    return _has_all(host, required_edges(s, host.k - 1, "tight"))


def _has_all(host: Hypergraph, edges: set[tuple[int, ...]]) -> bool:
    """True iff every one of these host-uniformity vertex sets is a host edge."""
    rows = np.array(list(edges), dtype=np.int64).reshape(-1, host.k)
    return bool(host.has_edge(rows).all())


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
        uniformity(self.k, self.mode)  # rejects an unknown mode
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

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
        return cls(mode=mode, k=int(k), order=order)


def verify_certificate(host: Hypergraph, cert: CycleCertificate) -> bool:
    """Check a certificate against the host graph.

    Power mode: every pair at cyclic distance <= k in the ordering must be a
    host edge.  Tight mode: every window of host-uniformity many consecutive
    vertices (indices mod n) must be an edge.  Structural defects (wrong
    permutation, mode/uniformity mismatch) raise ``ValueError``.
    """
    n = host.n
    order = cert.order
    if len(order) != n or set(order) != set(range(n)):
        raise ValueError("certificate ordering is not a permutation of the vertex set")
    w = uniformity(cert.k, cert.mode)
    if host.k != w:
        raise ValueError(
            f"{cert.mode}-mode certificate with k={cert.k} requires a "
            f"{w}-uniform host, got {host.k}-uniform"
        )
    if cert.mode == "tight" and n < w:
        raise ValueError(f"host has fewer vertices than one window ({w})")
    return _has_all(host, required_edges(order, cert.k, cert.mode, cyclic=True))
