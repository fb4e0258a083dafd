"""Lower-tail bound parameters for counts of template copies in random hosts.

Works with the family of *lexicographic* copies: every choice of v(H) host
vertices determines exactly one copy (the order-preserving one), so the
family size is C(n, v(H)).  Expected counts and the pair-overlap parameter
are returned as logs, which no host overflows; a brute-force enumeration
oracle is provided for small instances and is the ground truth in tests.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from hampow.core import Hypergraph, _count, _decode_codes, _encode_rows, check_encodable
from hampow.density import MAX_EXACT_VERTICES, m1_density
from hampow.randmodels import _check_edge_probability

__all__ = [
    "JansonParams",
    "exact_mu_delta",
    "log_delta_upper_bound",
    "log_expected_lex_copies",
]

#: Copies :func:`exact_mu_delta` may enumerate: C(n, v(H)) past it is refused.
EXACT_COPY_BUDGET = 100_000


@dataclass(frozen=True)
class JansonParams:
    """Parameters (mu, delta, gamma) of the lower-tail inequality, mu and delta as logs.

    Natural logs (-inf for 0) keep figures past a float's range.  ``bound``
    bounds P[X < (1 - gamma) mu] by exp(-gamma^2 mu^2 / (2 (mu + delta)))
    when mu > 0; it is the vacuous 1.0 when mu = 0.
    """

    log_mu: float
    log_delta: float
    gamma: float
    bound: float

    @classmethod
    def compute(cls, mu: float, delta: float, gamma: float) -> "JansonParams":
        if mu < 0 or delta < 0:
            raise ValueError("mu and delta must be nonnegative")
        return cls.from_logs(*(math.log(x) if x > 0 else -math.inf for x in (mu, delta)), gamma)

    @classmethod
    def from_logs(cls, log_mu: float, log_delta: float, gamma: float) -> "JansonParams":
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        bound = 1.0
        if log_mu > -math.inf:
            # the log of gamma^2 mu^2 / (2 (mu + delta)), capped inside exp's range
            exponent = 2.0 * math.log(gamma) + 2.0 * log_mu - _logsumexp([log_mu, log_delta])
            bound = math.exp(-math.exp(min(exponent - math.log(2.0), 709.0)))
        return cls(log_mu=log_mu, log_delta=log_delta, gamma=gamma, bound=bound)


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _logsumexp(values: list[float]) -> float:
    finite = [v for v in values if v != float("-inf")]
    if not finite:
        return float("-inf")
    top = max(finite)
    return top + math.log(sum(math.exp(v - top) for v in finite))


def log_expected_lex_copies(n: int, template: Hypergraph, p: float) -> float:
    """log mu, where mu = C(n, v(H)) * p^e(H); -inf when mu = 0."""
    _check_edge_probability(p)
    v, n = template.n, _count(n, "vertex count n", 0)
    if v > n:
        raise ValueError(f"template has {v} vertices but the host only {n}")
    e = template.edge_count
    if p == 0.0:
        return -math.inf if e > 0 else _log_comb(n, v)
    return _log_comb(n, v) + e * math.log(p)


def log_delta_upper_bound(n: int, template: Hypergraph, p: float) -> float:
    """log of a closed-form upper bound on the pair-overlap parameter delta.

    Sums, over the overlap size j from the uniformity up to v(H)-1, the
    number of ways to choose an overlapping ordered pair of lexicographic
    copies times p^(2 e(H) - (j-1) m1(H)).  Above MAX_EXACT_VERTICES template
    vertices, m1 is bounded by the most edges whose last vertex is one vertex
    (a subgraph's first vertex is the last of none of its edges).  An empty
    range, or p = 0, gives a bound of 0 (log -inf).
    """
    _check_edge_probability(p)
    if template.edge_count == 0:
        raise ValueError("delta bound is undefined for an edgeless template")
    v, e, n = template.n, template.edge_count, _count(n, "vertex count n", 0)
    if p == 0.0:
        return -math.inf
    if v <= MAX_EXACT_VERTICES:
        m1 = float(m1_density(template))
    else:
        m1 = float(np.bincount(_decode_codes(template.edge_codes(), v, template.k)[:, -1]).max())
    logp = math.log(p)
    return _logsumexp([
        _log_comb(n, j) + 2.0 * _log_comb(n - j, v - j) + (2.0 * e - (j - 1) * m1) * logp
        for j in range(template.k, v)
    ])


def exact_mu_delta(n: int, template: Hypergraph, p: float) -> tuple[float, float]:
    """Enumerate all lexicographic copies and edge-sharing ordered pairs.

    The oracle: mu is the copy count times p^e; delta sums
    p^(2 e - |shared edges|) over ordered pairs of distinct copies sharing at
    least one edge.  Refuses hosts with more than :data:`EXACT_COPY_BUDGET` copies.
    """
    _check_edge_probability(p)
    v, n = template.n, _count(n, "vertex count n", 0)
    if v > n:
        raise ValueError(f"template has {v} vertices but the host only {n}")
    n_copies = math.comb(n, v)
    if n_copies > EXACT_COPY_BUDGET:
        raise ValueError(f"enumeration budget exceeded: C({n},{v}) = {n_copies} > {EXACT_COPY_BUDGET}")
    check_encodable(template.k, n)
    tmpl_edges = np.array(list(template.edges()), dtype=np.int64).reshape(-1, template.k)
    e_count = len(tmpl_edges)
    copies = np.array(list(combinations(range(n), v)), dtype=np.int64).reshape(n_copies, v)
    rows = np.sort(copies[:, tmpl_edges], axis=2).reshape(-1, template.k)
    by_edge: dict[int, list[int]] = {}
    for idx, codes in enumerate(_encode_rows(rows.T, n).reshape(n_copies, e_count).tolist()):
        for c in set(codes):
            by_edge.setdefault(c, []).append(idx)
    mu = n_copies * p ** e_count
    shared: Counter[tuple[int, int]] = Counter()
    for ids in by_edge.values():
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                shared[ids[a], ids[b]] += 1
    # ordered pairs per overlap, summed in ascending overlap, so that the
    # float sum's order does not follow the edge codes' values
    pairs = Counter(shared.values())
    delta = sum(2 * pairs[j] * p ** (2 * e_count - j) for j in sorted(pairs))
    return mu, float(delta)
