"""Lower-tail bound parameters for counts of template copies in random hosts.

Works with the family of *lexicographic* copies: every choice of v(H) host
vertices determines exactly one copy (the order-preserving one), so the
family size is C(n, v(H)).  Expected counts and the pair-overlap parameter
are evaluated in log space; a brute-force enumeration oracle is provided for
small instances and is the ground truth in tests.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from hampow.core import Hypergraph, _encode_rows, check_encodable
from hampow.density import m1_density
from hampow.randmodels import _check_edge_probability

__all__ = [
    "JansonParams",
    "delta_upper_bound",
    "exact_mu_delta",
    "expected_lex_copies",
]


@dataclass(frozen=True)
class JansonParams:
    """Parameters (mu, delta, gamma) of the lower-tail inequality.

    ``bound`` bounds P[X < (1 - gamma) mu] by exp(-gamma^2 mu^2 / (2 (mu + delta)))
    when mu > 0; it is the vacuous 1.0 when mu = 0.
    """

    mu: float
    delta: float
    gamma: float
    bound: float

    @classmethod
    def compute(cls, mu: float, delta: float, gamma: float) -> "JansonParams":
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        if mu < 0 or delta < 0:
            raise ValueError("mu and delta must be nonnegative")
        if mu == 0.0:
            bound = 1.0
        else:
            bound = math.exp(-(gamma * gamma * mu * mu) / (2.0 * (mu + delta)))
        return cls(mu=mu, delta=delta, gamma=gamma, bound=bound)


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


def expected_lex_copies(n: int, template: Hypergraph, p: float) -> float:
    """mu = C(n, v(H)) * p^e(H), evaluated in log space."""
    _check_edge_probability(p)
    v = template.n
    if v > n:
        raise ValueError(f"template has {v} vertices but the host only {n}")
    e = template.edge_count
    if p == 0.0:
        return 0.0 if e > 0 else math.comb(n, v)
    return math.exp(_log_comb(n, v) + e * math.log(p))


def delta_upper_bound(n: int, template: Hypergraph, p: float) -> float:
    """Closed-form upper bound on the pair-overlap parameter delta.

    Sums, over the overlap size j from the uniformity up to v(H)-1, the
    number of ways to choose an overlapping ordered pair of lexicographic
    copies times p^(2 e(H) - (j-1) m1(H)); the exponent uses the exact
    1-density.  An empty range gives 0.
    """
    _check_edge_probability(p)
    if template.edge_count == 0:
        raise ValueError("delta bound is undefined for an edgeless template")
    v = template.n
    k = template.k
    if p == 0.0:
        return 0.0
    m1 = float(m1_density(template))
    logp = math.log(p)
    terms = []
    for j in range(k, v):
        expo = 2.0 * template.edge_count - (j - 1) * m1
        terms.append(
            _log_comb(n, j)
            + 2.0 * _log_comb(n - j, v - j)
            + expo * logp
        )
    if not terms:
        return 0.0
    return math.exp(_logsumexp(terms))


def exact_mu_delta(
    n: int, template: Hypergraph, p: float, budget: int = 100_000
) -> tuple[float, float]:
    """Enumerate all lexicographic copies and edge-sharing ordered pairs.

    The oracle: mu is the copy count times p^e; delta sums
    p^(2 e - |shared edges|) over ordered pairs of distinct copies sharing at
    least one edge.  Refuses hosts with more than ``budget`` copies.
    """
    _check_edge_probability(p)
    v = template.n
    if v > n:
        raise ValueError(f"template has {v} vertices but the host only {n}")
    n_copies = math.comb(n, v)
    if n_copies > budget:
        raise ValueError(f"enumeration budget exceeded: C({n},{v}) = {n_copies} > {budget}")
    check_encodable(template.k, n)
    tmpl_edges = np.array(list(template.edges()), dtype=np.int64).reshape(-1, template.k)
    e_count = len(tmpl_edges)
    copies = np.array(list(combinations(range(n), v)), dtype=np.int64).reshape(n_copies, v)
    rows = np.sort(copies[:, tmpl_edges], axis=2).reshape(-1, template.k)
    by_edge: dict[int, list[int]] = {}
    for idx, codes in enumerate(_encode_rows(rows, n).reshape(n_copies, e_count).tolist()):
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
