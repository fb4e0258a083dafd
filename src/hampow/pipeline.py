"""End-to-end search for Hamilton cycle powers and tight Hamilton cycles.

One run: split the host into three independent exposure rounds; build a
chain absorber in round one; cover the remaining vertices with transversal
paths via a sequence of bipartite perfect matchings in round two; merge the
cover paths and the absorber ends with connecting paths through the
absorbable set in round three; absorb whatever the merge consumed and close
the cycle.  Every certificate is verified before it is returned; phase
failures trigger whole-run retries with derived seeds.

The headline thresholds are asymptotic, so the sizes here are constants
calibrated for hosts in the n = 500..3000 range, or solved from n by
:func:`resolve_plan`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from hampow.absorber import (
    absorb,
    build_chain_absorber,
    chain_capacity,
    chain_vertex_count,
    default_connector_len,
    splice,
)
from hampow.core import (
    _BLOCK,
    MAX_VERTICES,
    CycleCertificate,
    Hypergraph,
    check_uniformity,
    required_edges,
    uniformity,
    verify_certificate,
)
from hampow.matcher import PhaseFailure, connect_paths, round_sizes
from hampow.randmodels import (
    BipartiteGraph,
    _check_edge_probability,
    derive,
    sample_three_rounds,
    split_edges_three,
)

__all__ = [
    "Attempt",
    "CoverFamily",
    "FailureReport",
    "ModelSpec",
    "Parameters",
    "ResolvedPlan",
    "attempt_rounds",
    "cover_with_paths",
    "find_hamilton",
    "find_hamilton_detailed",
    "implied_threshold",
    "perfect_matching",
    "resolve_plan",
]


DEFAULT_SEED = 24115

#: Backbone block count: the shortest odd length the backbone template admits.
ELL = 5

#: Greedy rounds of the merge connection; its reservoir is the small absorbable set.
MERGE_ROUNDS = 2
#: Share of the merge reservoir that the preferred plans may fill with connectors.
MERGE_UTILIZATION = 0.75
#: Free constant c of the threshold formula, used for reporting only.
THRESHOLD_C = 1.0


@dataclass(frozen=True)
class Parameters:
    """Pipeline configuration.  All sizes are resolved from n by :func:`resolve_plan`."""

    k: int = 2
    mode: str = "power"
    retries: int = 5
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        uniformity(self.k, self.mode)  # rejects k < 1 and an unknown mode
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    @property
    def uniformity(self) -> int:
        return uniformity(self.k, self.mode)


@dataclass(frozen=True)
class ModelSpec:
    """Sample the host from the binomial model instead of taking a fixed graph."""

    n: int
    p: float

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count n must be >= 0, got {self.n}")


@dataclass(frozen=True)
class Attempt:
    """One failed attempt: its seed, the phase that failed and why.

    ``details`` is the failing phase's diagnosis (a cover failure's step and
    parts, a connect failure's trajectory, ...).  It is left out of equality
    and of the printed report.
    """

    seed: int
    phase: str
    message: str
    details: dict[str, Any] = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class FailureReport:
    attempts: tuple[Attempt, ...]

    @property
    def phase_failed(self) -> str:
        return self.attempts[-1].phase if self.attempts else "none"

    def __str__(self) -> str:
        lines = [f"no verified cycle after {len(self.attempts)} attempt(s):"]
        for a in self.attempts:
            lines.append(f"  seed={a.seed}: {a.phase}: {a.message}")
        return "\n".join(lines)


# -- bipartite matching kernel ----------------------------------------------


def perfect_matching(B: BipartiteGraph) -> dict[int, int] | None:
    """A perfect matching of a balanced bipartite graph, or None.

    Hopcroft-Karp with sorted adjacency, so the outcome is deterministic.
    """
    if B.left != B.right:
        raise ValueError(f"sides must be balanced, got {B.left} x {B.right}")
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
        # Depth-first augmenting search with an explicit stack, so long
        # alternating paths cannot overflow the recursion limit.  Each frame
        # keeps its place in adj[u]; ``via`` holds the edge each frame took.
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

    for u in range(s):  # the first phase: every left vertex is free at distance 0, so it is greedy
        for v in adj[u]:
            if match_r[v] is None:
                match_l[u], match_r[v] = v, u
                break
    size = s - match_l.count(None)
    while size < s and bfs():
        for u in range(s):
            if match_l[u] is None and dfs(u):
                size += 1
    if size != s:
        return None
    return {u: match_l[u] for u in range(s)}  # type: ignore[misc]


# -- covering with transversal paths -----------------------------------------


@dataclass(frozen=True)
class CoverFamily:
    """s vertex-disjoint paths, each with exactly one vertex in every part."""

    parts: tuple[tuple[int, ...], ...]
    paths: tuple[tuple[int, ...], ...]

    def a(self, i: int, k: int) -> tuple[int, ...]:
        return self.paths[i][:k]

    def b(self, i: int, k: int) -> tuple[int, ...]:
        return self.paths[i][-k:]


def cover_with_paths(
    host: Hypergraph,
    uncovered: Iterable[int],
    borrowed: Iterable[int],
    t: int,
    k: int,
    mode: str,
) -> CoverFamily:
    """Cover the pooled vertices with transversal paths via perfect matchings.

    The pool (uncovered plus borrowed vertices) is split into t equal parts;
    paths start as the singletons of part one and are extended one part per
    step by a perfect matching in the auxiliary bipartite graph whose edges
    mark extensions that keep every new adjacency window satisfied.  Only
    adjacencies between the new part and the last k parts are ever consulted;
    on a 2-uniform host they do not depend on the matchings and are asked first.
    Raises :class:`PhaseFailure` naming the first step without a perfect matching.
    """
    check_uniformity(host, k, mode)
    pool = sorted(set(uncovered) | set(borrowed))
    if t < 1:
        raise ValueError(f"part count must be >= 1, got {t}")
    if len(pool) % t != 0:
        raise ValueError(f"pool of {len(pool)} vertices is not divisible into {t} parts")
    s = len(pool) // t
    if s == 0:
        raise ValueError("empty parts")
    parts = tuple(tuple(pool[j * s:(j + 1) * s]) for j in range(t))
    flat = np.array(pool, dtype=np.int64)  # part j is flat[j * s:(j + 1) * s]
    at = np.repeat(np.arange(s)[:, None], t, axis=1)  # path i runs through vertex at[i, j] of part j
    # the path columns each new edge runs through, relative to the new column:
    # the edges a path on k + 1 vertices needs at its last vertex, less that vertex
    needed = np.concatenate([*required_edges(np.arange(k + 1), k, mode)])
    windows = needed[needed[:, -1] == k, :-1] - k
    near = _fits_ahead(host, flat, s, k) if host.k == 2 else None
    for j in range(1, t):
        # fits[i, u]: vertex u of part j extends path i
        if near is not None:  # window d is the column j - d, whose vertices are part j - d reordered
            fits = np.logical_and.reduce(
                [near[(j - d) * s + at[:, j - d], (d - 1) * s:d * s] for d in range(1, min(k, j) + 1)])
        else:  # rows[c, i, u]: window c of path i, then part vertex u
            cols = windows + j
            cols = cols[cols[:, 0] >= 0]  # a window that reaches before the first part is skipped
            rows = np.empty((len(cols), s, s, host.k), dtype=np.int64)
            rows[..., :-1] = flat[cols * s + at[:, cols]].transpose(1, 0, 2)[:, :, None]
            rows[..., -1] = flat[j * s:(j + 1) * s]
            fits = host.has_edge(rows.reshape(-1, host.k)).reshape(-1, s, s).all(axis=0)
        matching = perfect_matching(BipartiteGraph.from_mask(fits))
        if matching is None:
            raise PhaseFailure(
                "cover",
                f"no perfect matching when extending into part {j + 1} of {t}",
                step=j + 1,
                parts=t,
                paths=s,
            )
        at[:, j] = [matching[i] for i in range(s)]
    paths = flat[at + s * np.arange(t)]
    family = CoverFamily(parts=parts, paths=tuple(map(tuple, paths.tolist())))
    for j, part in enumerate(parts):
        assert {p[j] for p in family.paths} == set(part)
    return family


def _fits_ahead(host: Hypergraph, pool: np.ndarray, s: int, k: int) -> np.ndarray:
    """``near[q, (d - 1) * s + u]``: pool vertex q and vertex u of the d-th part past its own form an edge.

    The parts are the ascending pool's runs of s vertices; entries past the pool stay False.  Every
    pair is asked once, in ascending code order, at most ``_BLOCK`` rows a call.
    """
    near = np.zeros((pool.size, k * s), dtype=bool)
    step = max(1, _BLOCK // (k * s))
    for lo in range(0, pool.size - s, step):  # the last part has no part past it
        q = np.arange(lo, min(lo + step, pool.size - s))
        other = (q // s + 1)[:, None] * s + np.arange(k * s)
        inside = other < pool.size
        rows = np.column_stack((np.repeat(pool[q], inside.sum(axis=1)), pool[other[inside]]))
        near[lo:lo + q.size][inside] = host.has_edge(rows)
    return near


# -- planning -----------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedPlan:
    n: int
    k: int
    mode: str
    ell: int
    connector_len: int
    absorb_size: int
    absorber_vertices: int
    cover_parts: int
    borrow: int
    s_paths: int

    def describe(self) -> str:
        return (
            f"plan: ell={self.ell} connector={self.connector_len} "
            f"merge={self.connector_len} absorbable={self.absorb_size} "
            f"absorber_vertices={self.absorber_vertices} parts={self.cover_parts} "
            f"paths={self.s_paths} borrowed={self.borrow}"
        )


def resolve_plan(n: int, cfg: Parameters) -> ResolvedPlan:
    """Resolve all sizes for a host on n vertices; deterministic in (n, cfg).

    The backbone has :data:`ELL` blocks, and every connector (intra-link,
    chain and merge) has length :func:`default_connector_len`.  Raises
    ValueError past MAX_VERTICES or when no feasible plan exists (host too small for k and mode).
    """
    if n > MAX_VERTICES:
        raise ValueError(f"n={n} exceeds the limit of {MAX_VERTICES} vertices")
    k, mode = cfg.k, cfg.mode
    ell, conn = ELL, default_connector_len(k, mode)
    v_backbone = 1 + 2 * k * ell
    interior = conn - 2 * k
    w1 = (n + 2) // 3  # residue classes mod 3
    w2 = (n + 1) // 3

    def merge_capacity(w_size: int) -> int:
        """Merge connectors that fit in the slices of a reservoir this size."""
        return sum(size // interior for size in round_sizes(w_size, MERGE_ROUNDS))

    def solve_cover(t_abs: int) -> tuple[int, int, int] | None:
        pool = n - chain_vertex_count(k, ell, conn, t_abs)
        # s = ceil(pool / t) never grows with t, so the first feasible part
        # count has the most cover paths: larger path families make the
        # per-step matchings far more robust.  t < pool / k keeps s > k.
        for soft in (True, False):
            for t in range(2 * k, -(-pool // k)):
                ux = (-pool) % t
                s = (pool + ux) // t
                if ux > t_abs or merge_capacity(t_abs - ux) < s + 1:
                    continue
                if soft and (s + 1) * interior > MERGE_UTILIZATION * (t_abs - ux):
                    continue
                return t, s, ux
        return None

    hard_cap = chain_capacity(n, k, mode, ell)
    soft_cap = min(
        hard_cap,
        int(0.9 * w1) // v_backbone,
        int(0.6 * w2) // ((ell - 1) * interior),
    )
    for t_abs in [*range(max(soft_cap, 1), hard_cap + 1), *range(soft_cap - 1, 0, -1)]:
        got = solve_cover(t_abs)
        if got is not None:
            break
    else:
        raise ValueError(
            f"no feasible absorber/cover/merge plan for n={n}, k={k}, {mode} mode "
            f"(ell={ell}, connector={conn}); the host is too small for this configuration"
        )
    parts, s, ux = got
    return ResolvedPlan(
        n=n,
        k=k,
        mode=mode,
        ell=ell,
        connector_len=conn,
        absorb_size=t_abs,
        absorber_vertices=chain_vertex_count(k, ell, conn, t_abs),
        cover_parts=parts,
        borrow=ux,
        s_paths=s,
    )


def implied_threshold(n: int, cfg: Parameters) -> tuple[str, float]:
    """The configured threshold formula and its value at this n."""
    log2n = math.log2(max(n, 2))
    if cfg.mode == "power":
        formula = f"(c * log2(n)^8 / n)^(1/k) with c={THRESHOLD_C}, k={cfg.k}"
        value = (THRESHOLD_C * log2n ** 8 / n) ** (1.0 / cfg.k)
    else:
        formula = f"c * log2(n)^8 / n with c={THRESHOLD_C}"
        value = THRESHOLD_C * log2n ** 8 / n
    return formula, min(value, 1.0)


# -- the full pipeline --------------------------------------------------------


def _attempt_seed(cfg: Parameters, r: int) -> int:
    """Attempt r's seed, from which its rounds are drawn and which its failure reports."""
    return derive(cfg.seed, 17, r)


def attempt_rounds(
    source: Hypergraph | ModelSpec, cfg: Parameters, r: int
) -> tuple[Hypergraph, Hypergraph, Hypergraph, Hypergraph]:
    """Attempt r's three exposure rounds and their union, the host it verifies against.

    A model's rounds are sampled with ``derive(attempt seed, 1)``; a fixed
    host is the union, its edges split with ``derive(attempt seed, 4)``.
    """
    attempt_seed = _attempt_seed(cfg, r)
    if isinstance(source, ModelSpec):
        return sample_three_rounds(
            cfg.uniformity, source.n, source.p, derive(attempt_seed, 1)
        )
    g1, g2, g3 = split_edges_three(source, derive(attempt_seed, 4))
    return g1, g2, g3, source


def _attempt(
    source: Hypergraph | ModelSpec, cfg: Parameters, plan: ResolvedPlan, r: int
) -> CycleCertificate:
    n, k, mode = plan.n, plan.k, plan.mode
    g1, g2, g3, full = attempt_rounds(source, cfg, r)
    chain = build_chain_absorber(g1, k, mode, ell=plan.ell, absorb_size=plan.absorb_size)
    del g1  # each round is dropped when its phase ends, with its codes, CSR and rows
    absorbable = sorted(chain.absorbable)
    a_vertices = chain.vertices()
    uncovered = [v for v in range(n) if v not in a_vertices]
    borrowed = absorbable[: plan.borrow]
    cover = cover_with_paths(g2, uncovered, borrowed, plan.cover_parts, k, mode)
    del g2
    s = plan.s_paths
    merge_reservoir = absorbable[plan.borrow:]
    pairs = [(tuple(chain.b), cover.a(0, k))]
    for i in range(s - 1):
        pairs.append((cover.b(i, k), cover.a(i + 1, k)))
    pairs.append((cover.b(s - 1, k), tuple(chain.a)))
    merge = connect_paths(
        g3, pairs, merge_reservoir, k, plan.connector_len, mode, rounds=MERGE_ROUNDS, phase="merge"
    )
    used_from_x = merge.internal_vertices()
    exclude = set(borrowed) | used_from_x
    absorb_path = absorb(chain, exclude)
    # a .. b, Z1, Q1, Z2, ..., Qs, Z_{s+1}: the last merge connector closes at a
    cycle = splice([absorb_path, *cover.paths, ()], merge.sequences, k)
    if len(cycle) != n or set(cycle) != set(range(n)):
        raise PhaseFailure(
            "assembly",
            f"vertex accounting failed: cycle has {len(cycle)} entries, "
            f"{len(set(cycle))} distinct, host has {n}",
        )
    cert = CycleCertificate(mode=mode, k=k, order=cycle)
    if not verify_certificate(full, cert):
        raise PhaseFailure("verify", "assembled certificate failed verification")
    return cert


def find_hamilton_detailed(
    source: Hypergraph | ModelSpec, cfg: Parameters
) -> tuple[CycleCertificate | FailureReport, int]:
    """Like :func:`find_hamilton`, also reporting the succeeding attempt index."""
    if isinstance(source, ModelSpec):
        _check_edge_probability(source.p)
    else:
        check_uniformity(source, cfg.k, cfg.mode)
    plan = resolve_plan(source.n, cfg)
    attempts: list[Attempt] = []
    for r in range(cfg.retries + 1):
        try:
            return _attempt(source, cfg, plan, r), r
        except PhaseFailure as e:
            seed = _attempt_seed(cfg, r)
            attempts.append(Attempt(seed=seed, phase=e.phase, message=e.message, details=e.details))
    return FailureReport(attempts=tuple(attempts)), cfg.retries


def find_hamilton(
    source: Hypergraph | ModelSpec, cfg: Parameters
) -> CycleCertificate | FailureReport:
    """Find a verified Hamilton k-power (power mode) or tight cycle (tight mode).

    ``source`` is either a fixed host hypergraph (its edges are then split
    into three exposure rounds at random) or a :class:`ModelSpec`, in which
    case the three rounds are sampled directly.  The returned certificate is
    always verified against the full host; an unverifiable assembly counts
    as a failure.  Deterministic configuration problems raise ValueError;
    stochastic phase failures are retried with derived seeds and reported.
    """
    return find_hamilton_detailed(source, cfg)[0]
