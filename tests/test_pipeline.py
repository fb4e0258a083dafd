import hashlib
import tracemalloc
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from hampow.absorber import chain_capacity
from hampow.core import CycleCertificate, Hypergraph, uniformity, verify_certificate
from hampow.matcher import PhaseFailure
from hampow.pipeline import (
    Attempt,
    FailureReport,
    ModelSpec,
    Parameters,
    _attempt,
    cover_with_paths,
    find_hamilton,
    find_hamilton_detailed,
    implied_threshold,
    perfect_matching,
    resolve_plan,
)
from hampow.randmodels import BipartiteGraph, derive, sample_bipartite, sample_uniform_hypergraph

from oracles import complement_twin, edge_twin, hopcroft_karp, per_step_cover


def complete_graph(n):
    return Hypergraph(2, n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def without_class(n, c):
    """The complete graph on n vertices less every edge at a vertex of class c mod 3."""
    edges = [e for e in combinations(range(n), 2) if c not in (e[0] % 3, e[1] % 3)]
    return Hypergraph(2, n, edges)


class TestPerfectMatching:
    def test_complete_3x3(self):
        b = BipartiteGraph.from_mask(np.ones((3, 3), dtype=bool))
        m = perfect_matching(b)
        assert m is not None and sorted(m.values()) == [0, 1, 2]

    def test_empty_graph_has_none(self):
        assert perfect_matching(BipartiteGraph.from_mask(np.zeros((3, 3), dtype=bool))) is None

    def test_zero_sides(self):
        assert perfect_matching(BipartiteGraph(0, 0, [])) == {}

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            perfect_matching(BipartiteGraph(2, 3, []))

    def test_long_augmenting_path(self):
        # the only perfect matching pairs left i with right i+1 and the last
        # left with right 0; Hopcroft-Karp's first phase matches i to i, so
        # the augmenting path from the last left runs through all s lefts
        s = 3000
        mask = np.zeros((s, s), dtype=bool)
        left = np.arange(s - 1)
        mask[left, left] = mask[left, left + 1] = mask[s - 1, 0] = True
        m = perfect_matching(BipartiteGraph.from_mask(mask))
        assert m == {**{i: i + 1 for i in range(s - 1)}, s - 1: 0}

    def test_determinism(self):
        b = sample_bipartite(40, 0.2, seed=5)
        assert perfect_matching(b) == perfect_matching(b)

    def test_matches_plain_hopcroft_karp(self):
        # the greedy pass is Hopcroft-Karp's first phase, so both return the same
        graphs = [BipartiteGraph(s, s, np.empty(0, dtype=np.int64)) for s in range(10)]
        for s in range(10):
            for p in (0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
                graphs += [sample_bipartite(s, p, derive(29, s, seed)) for seed in range(34)]
        assert len(graphs) >= 2000
        outcomes = [perfect_matching(B) for B in graphs]
        assert outcomes == [hopcroft_karp(B) for B in graphs]
        assert None in outcomes and sum(m is not None and len(m) > 4 for m in outcomes) > 500

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_networkx_maximum_matching(self, seed):
        s = 25
        b = sample_bipartite(s, 0.12, seed=seed)
        g = nx.Graph()
        g.add_nodes_from((0, i) for i in range(s))
        g.add_nodes_from((1, j) for j in range(s))
        g.add_edges_from(((0, i), (1, j)) for i, row in enumerate(b.adjacency()) for j in row)
        nx_size = len(nx.bipartite.maximum_matching(g, top_nodes=[(0, i) for i in range(s)])) // 2
        ours = perfect_matching(b)
        if nx_size == s:
            assert ours is not None
            assert sorted(ours) == list(range(s))
            assert sorted(set(ours.values())) == list(range(s))
            assert all(j in b.adjacency()[i] for i, j in ours.items())
        else:
            assert ours is None


class TestCoverWithPaths:
    def test_single_part_trivial_paths(self):
        host = complete_graph(6)
        fam = cover_with_paths(host, range(6), (), t=1, k=2, mode="power")
        assert fam.paths == ((0,), (1,), (2,), (3,), (4,), (5,))

    def test_complete_host_power(self):
        host = complete_graph(24)
        fam = cover_with_paths(host, range(24), (), t=6, k=2, mode="power")
        assert len(fam.paths) == 4
        for p in fam.paths:
            assert len(p) == 6
        for j in range(6):
            assert {p[j] for p in fam.paths} == set(fam.parts[j])

    def test_complete_host_tight(self):
        host = Hypergraph.complete(3, 20)
        fam = cover_with_paths(host, range(20), (), t=5, k=2, mode="tight")
        from hampow.core import is_path

        for p in fam.paths:
            assert is_path(host, p, 2, "tight")

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            cover_with_paths(complete_graph(7), range(7), (), t=2, k=1, mode="power")

    def test_a_host_of_the_wrong_uniformity_is_refused(self):
        # a complete 3-uniform host has no pairs to match in power mode
        with pytest.raises(ValueError, match="power mode with k=1 needs a 2-uniform host, got 3"):
            cover_with_paths(Hypergraph.complete(3, 8), range(8), (), t=4, k=1, mode="power")

    def test_failure_names_the_step(self):
        host = Hypergraph(2, 8, [(0, 4)])  # almost no edges
        with pytest.raises(PhaseFailure) as info:
            cover_with_paths(host, range(8), (), t=2, k=1, mode="power")
        assert info.value.phase == "cover"
        assert info.value.details["step"] == 2

    def test_paths_are_valid_power_paths(self):
        from hampow.core import is_path
        from hampow.randmodels import sample_uniform_hypergraph

        host = sample_uniform_hypergraph(2, 40, 0.9, seed=31)
        try:
            fam = cover_with_paths(host, range(40), (), t=10, k=2, mode="power")
        except PhaseFailure:
            pytest.skip("unlucky sample for this smoke test")
        for p in fam.paths:
            assert is_path(host, p, 2, "power")

    @pytest.mark.parametrize("mode,k,n,t", [("power", 2, 40, 8), ("tight", 2, 24, 6)])
    def test_each_step_asks_the_host_once(self, monkeypatch, mode, k, n, t):
        host = Hypergraph.complete(uniformity(k, mode), n)
        calls = []
        has_edge = Hypergraph.has_edge

        def counting(self, vertices):
            calls.append(len(vertices))
            return has_edge(self, vertices)

        monkeypatch.setattr(Hypergraph, "has_edge", counting)
        fam = cover_with_paths(host, range(n), (), t=t, k=k, mode=mode)
        assert len(fam.paths) == n // t
        # at most one batch per step, of every window that lies inside the parts so far;
        # a 2-uniform host is asked each window's s * s rows once, before the steps
        s = n // t
        windows = [min(j, k) if mode == "power" else int(j >= k) for j in range(1, t)]
        assert len(calls) <= t - 1
        if mode == "power":
            assert sum(calls) == sum(windows) * s * s
        else:
            assert [c for c in calls if c] == [c * s * s for c in windows if c]

    @pytest.mark.parametrize("mode,k,n,t,p", [
        ("power", 1, 40, 4, 0.5),
        ("power", 2, 40, 5, 0.7),
        ("power", 3, 36, 6, 0.85),
        ("tight", 1, 30, 5, 0.5),
        ("power", 2, 40, 5, 0.4),  # every cover meets a step with no perfect matching
    ])
    def test_a_2_uniform_cover_matches_the_per_step_oracle(self, mode, k, n, t, p):
        outcomes = []
        for seed in range(6):
            g = sample_uniform_hypergraph(2, n, p, seed=seed)
            order = sorted(range(n), key=lambda v: derive(seed, 5, v))
            pool = order[:t * (n // t - 1)]
            uncovered, borrowed = pool[:len(pool) // 2], pool[len(pool) // 2:]
            for host in (edge_twin(g), complement_twin(g)):
                pair = []
                for cover in (cover_with_paths, per_step_cover):
                    try:
                        pair.append(cover(host, uncovered, borrowed, t, k, mode))
                    except PhaseFailure as e:
                        pair.append((e.phase, e.message, e.details))
                assert pair[0] == pair[1]
                outcomes.append(pair[0])
        failed = sum(isinstance(out, tuple) for out in outcomes)
        assert failed == len(outcomes) if p == 0.4 else failed < len(outcomes)


class TestAttemptMemory:
    def test_a_power_attempt_drops_each_round_when_its_phase_ends(self):
        # the first round's codes, CSR and rows are gone before the cover, and the
        # second round's before the merge builds the third round's CSR
        cfg = Parameters(k=2, mode="power", seed=1)
        plan = resolve_plan(3000, cfg)
        tracemalloc.start()
        try:
            _attempt(ModelSpec(n=3000, p=0.9995), cfg, plan, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9.5 * 2 ** 20


class TestCoverDigest:
    """Seeded covers of sampled hosts, pinned by one digest of their outcomes.

    Each case covers a seeded pool, split into uncovered and borrowed
    vertices, in the host in edge form and in complement form, at densities
    where some steps find no perfect matching.  A line records the paths, or
    the failure's phase, message and details, so any change of the matching
    graph or of the matching changes the digest.
    """

    CASES = [
        # (mode, k, n, parts, densities)
        ("power", 1, 40, 4, (0.3, 0.5)),
        ("power", 2, 40, 5, (0.5, 0.7)),
        ("power", 3, 36, 6, (0.7, 0.85)),
        ("tight", 2, 24, 4, (0.3, 0.5)),
        ("tight", 3, 20, 4, (0.3, 0.5)),
    ]

    def lines(self) -> list[str]:
        lines = []
        for mode, k, n, t, densities in self.CASES:
            for p in densities:
                for seed in range(4):
                    g = sample_uniform_hypergraph(uniformity(k, mode), n, p, seed=seed)
                    order = sorted(range(n), key=lambda v: derive(seed, 3, v))
                    pool = order[:t * (n // t - 1)]
                    uncovered, borrowed = pool[:len(pool) * 2 // 3], pool[len(pool) * 2 // 3:]
                    for form, host in (("edges", edge_twin(g)), ("complement", complement_twin(g))):
                        try:
                            out = cover_with_paths(host, uncovered, borrowed, t, k, mode).paths
                        except PhaseFailure as e:
                            out = (e.phase, e.message, sorted(e.details.items()))
                        lines.append(f"{mode} {k} {p} {seed} {form} {out}")
        return lines

    def test_digest(self):
        lines = self.lines()
        assert sum("'cover'" in line for line in lines) == 50
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "512f96ec135c2d77bcb73b6a9a1411b3954faa597e83ffa12c127f51fd6bdeaf"


class TestResolvePlan:
    def test_plan_describes_itself(self):
        plan = resolve_plan(1500, Parameters(k=2, mode="power"))
        assert plan.s_paths >= 3
        assert plan.absorber_vertices <= 750
        assert "plan:" in plan.describe()

    def test_too_small_host(self):
        with pytest.raises(ValueError):
            resolve_plan(120, Parameters(k=2, mode="power"))

    def test_plan_grid_digest(self):
        """Every plan on a grid of (mode, k, n), pinned by one digest."""
        lines = []
        for mode in ("power", "tight"):
            for k in (1, 2, 3):
                for n in range(100, 5001, 10):
                    try:
                        text = resolve_plan(n, Parameters(k=k, mode=mode)).describe()
                    except ValueError:
                        text = "infeasible"
                    lines.append(f"{mode} {k} {n} {text}")
        assert sum(not line.endswith("infeasible") for line in lines) == 2735
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "2886d0ca6c37318e954efd3b51012a85ac34afb22afb33b5a5e3917f1e412563"

    def test_absorbable_set_never_exceeds_the_chain_capacity(self):
        for mode in ("power", "tight"):
            for k in (1, 2, 3):
                for n in range(100, 5001, 10):
                    try:
                        plan = resolve_plan(n, Parameters(k=k, mode=mode))
                    except ValueError:
                        continue
                    assert 1 <= plan.absorb_size <= chain_capacity(n, k, mode, plan.ell)

    #: Plans of branches the grid above misses.  At tight k=3 the absorber
    #: grows past the soft cap and still meets the 0.75 merge share; at tight
    #: k=2 no absorber from the soft cap up fits, so it shrinks below it.
    OFF_GRID_PLANS = {
        (3, 752): "absorbable=8 absorber_vertices=287 parts=93 paths=5",
        (3, 772): "absorbable=8 absorber_vertices=287 parts=97 paths=5",
        (3, 792): "absorbable=8 absorber_vertices=287 parts=101 paths=5",
        (3, 812): "absorbable=8 absorber_vertices=287 parts=105 paths=5",
        (2, 352): "absorbable=4 absorber_vertices=103 parts=83 paths=3",
        (2, 355): "absorbable=4 absorber_vertices=103 parts=84 paths=3",
        (2, 358): "absorbable=4 absorber_vertices=103 parts=85 paths=3",
        (2, 364): "absorbable=4 absorber_vertices=103 parts=87 paths=3",
        (2, 367): "absorbable=4 absorber_vertices=103 parts=88 paths=3",
    }

    @pytest.mark.parametrize("k,n", sorted(OFF_GRID_PLANS))
    def test_plan_branches_off_the_grid(self, k, n):
        conn = 2 * k + 1
        assert resolve_plan(n, Parameters(k=k, mode="tight")).describe() == (
            f"plan: ell=5 connector={conn} merge={conn} {self.OFF_GRID_PLANS[k, n]} borrowed=0"
        )

    def test_threshold_formula(self):
        formula, value = implied_threshold(1500, Parameters(k=2, mode="power"))
        assert "1/k" in formula or "log2" in formula
        assert 0 < value <= 1.0


class TestFindHamilton:
    @pytest.mark.parametrize(
        "k,mode,n",
        [
            (1, "power", 300),
            (2, "power", 600),
            (1, "tight", 300),
            (2, "tight", 330),
        ],
    )
    def test_complete_hosts_succeed(self, k, mode, n):
        cfg = Parameters(k=k, mode=mode, seed=11, retries=0)
        result, attempt = find_hamilton_detailed(ModelSpec(n=n, p=1.0), cfg)
        assert isinstance(result, CycleCertificate)
        assert attempt == 0
        host = Hypergraph.complete(cfg.uniformity, n)
        assert verify_certificate(host, result)

    def test_fixed_complete_graph_input(self):
        host = complete_graph(600)
        cfg = Parameters(k=2, mode="power", seed=3, retries=0)
        result = find_hamilton(host, cfg)
        assert isinstance(result, CycleCertificate)
        assert verify_certificate(host, result)

    def test_uniformity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            find_hamilton(Hypergraph.complete(3, 400), Parameters(k=2, mode="power"))

    def test_below_minimum_is_an_error(self):
        with pytest.raises(ValueError):
            find_hamilton(ModelSpec(n=60, p=1.0), Parameters(k=2, mode="power"))

    def test_a_negative_vertex_count_is_refused_by_name(self):
        # it used to read as a host too small for any plan
        with pytest.raises(ValueError, match="vertex count n must be >= 0, got -3"):
            ModelSpec(n=-3, p=0.5)

    def test_failure_report_lists_attempts(self):
        # sparse host: every attempt fails in the factor phase
        cfg = Parameters(k=2, mode="power", seed=5, retries=2)
        result = find_hamilton(ModelSpec(n=600, p=0.2), cfg)
        assert isinstance(result, FailureReport)
        assert len(result.attempts) == 3
        assert result.phase_failed in {"factor", "intra-connect", "chain-connect", "cover", "merge"}
        assert len({a.seed for a in result.attempts}) == 3

    def test_determinism(self):
        cfg = Parameters(k=2, mode="power", seed=77, retries=1)
        a = find_hamilton(ModelSpec(n=1000, p=0.9995), cfg)
        b = find_hamilton(ModelSpec(n=1000, p=0.9995), cfg)
        if isinstance(a, CycleCertificate):
            assert a == b
        else:
            assert isinstance(b, FailureReport)
            assert a == b

    def test_random_host_near_one_succeeds_with_retries(self):
        cfg = Parameters(k=2, mode="power", seed=123, retries=5)
        result = find_hamilton(ModelSpec(n=1000, p=0.9998), cfg)
        assert isinstance(result, CycleCertificate)

    def test_split_route_on_fixed_random_host(self):
        from hampow.randmodels import sample_uniform_hypergraph

        host = sample_uniform_hypergraph(2, 1000, 0.9998, seed=9)
        cfg = Parameters(k=2, mode="power", seed=10, retries=5)
        result = find_hamilton(host, cfg)
        if isinstance(result, CycleCertificate):
            assert verify_certificate(host, result)  # certificate is for the input
        else:
            pytest.skip("all retries failed on this sample; soundness not violated")


class TestFailureDetails:
    def test_phase_details_reach_the_report(self):
        # the first attempt of this seed fails in merge, the second in cover
        cfg = Parameters(k=2, mode="power", seed=2, retries=2)
        report = find_hamilton(ModelSpec(n=600, p=0.9995), cfg)
        assert isinstance(report, FailureReport)
        merge, cover, _ = report.attempts
        assert merge.phase == "merge"
        unmatched, trajectory = merge.details["unmatched"], merge.details["trajectory"]
        assert trajectory and trajectory[-1] == len(unmatched) > 0
        assert len(trajectory) == len(merge.details["round_sizes"])
        assert cover.phase == "cover"
        assert cover.details["parts"] == resolve_plan(600, cfg).cover_parts
        assert 2 <= cover.details["step"] <= cover.details["parts"]
        assert f"part {cover.details['step']} of {cover.details['parts']}" in cover.message

    @pytest.mark.parametrize("phase,isolated", [("intra-connect", 1), ("chain-connect", 2)])
    def test_an_absorber_connect_failure_reaches_the_report_under_its_phase(self, phase, isolated):
        # the intra-link connectors draw their interiors from class 1 mod 3, the
        # chain connectors from class 2: with that class isolated none is found
        # (the merge phase's report is checked above)
        report = find_hamilton(without_class(300, isolated), Parameters(k=1, seed=1, retries=0))
        assert isinstance(report, FailureReport)
        (attempt,) = report.attempts
        assert attempt.phase == phase
        unmatched, trajectory = attempt.details["unmatched"], attempt.details["trajectory"]
        assert trajectory and trajectory[-1] == len(unmatched) > 0
        assert attempt.message == (
            f"{len(unmatched)} request(s) unmatched after {len(trajectory)} round(s)"
        )

    def test_details_stay_out_of_equality_and_the_report_text(self):
        a = Attempt(seed=1, phase="cover", message="m", details={"step": 3})
        b = Attempt(seed=1, phase="cover", message="m")
        assert a == b and hash(a) == hash(b)
        assert str(FailureReport((a,))) == str(FailureReport((b,)))
        assert "step" not in str(a)
