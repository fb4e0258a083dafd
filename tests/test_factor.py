import pytest

from hampow.core import Hypergraph
from hampow.absorber import Backbone
from hampow.factor import almost_factor, factor_in_window
import hampow.matcher as matcher
from hampow.matcher import PhaseFailure
from hampow.pipeline import FailureReport, ModelSpec, Parameters, find_hamilton
from hampow.randmodels import sample_uniform_hypergraph

from oracles import is_embedding


def complete_graph(n):
    return Hypergraph(2, n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def triangle():
    return Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])


def check_disjoint_embeddings(host, template, copies):
    seen = set()
    for emb in copies:
        assert is_embedding(template, host, emb)
        vs = set(emb.values())
        assert seen.isdisjoint(vs)
        seen |= vs
    return seen


class TestAlmostFactor:
    def test_complete_host_covers_almost_everything(self):
        host = complete_graph(50)
        copies = almost_factor(host, triangle(), epsilon=0.1)
        covered = check_disjoint_embeddings(host, triangle(), copies)
        assert 50 - len(covered) < 0.1 * 50

    def test_single_edge_on_perfect_matching_host(self):
        n = 20
        host = Hypergraph(2, n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
        edge = Hypergraph(2, 2, [(0, 1)])
        # windows walk lowest-first; a window of consecutive unused vertices
        # always contains a matching edge here
        copies = almost_factor(host, edge, epsilon=0.2)
        covered = check_disjoint_embeddings(host, edge, copies)
        assert n - len(covered) < 0.2 * n

    def test_window_without_copy_reports_failure(self):
        host = Hypergraph(2, 30, [(20, 21)])  # only one edge, high up
        with pytest.raises(PhaseFailure) as info:
            almost_factor(host, triangle(), epsilon=0.3)
        assert info.value.phase == "factor"
        assert "window" in info.value.details

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            almost_factor(complete_graph(10), triangle(), epsilon=0.0)
        with pytest.raises(ValueError):
            almost_factor(complete_graph(10), triangle(), epsilon=1.0)

    def test_window_too_small_for_template(self):
        with pytest.raises(ValueError):
            almost_factor(complete_graph(20), triangle(), epsilon=0.1)

    def test_uniformity_mismatch(self):
        with pytest.raises(ValueError):
            almost_factor(Hypergraph.complete(3, 10), triangle(), epsilon=0.5)

    def test_template_without_vertices(self):
        # a vertex-less copy covers nothing, so the greedy loop could not end
        with pytest.raises(ValueError, match="no vertices"):
            almost_factor(complete_graph(4), Hypergraph(2, 0, ()), epsilon=0.5)

    def test_monte_carlo_triangle_threshold(self):
        # G(500, 0.3) is far above the triangle factor threshold scale
        wins = 0
        trials = 40
        for s in range(trials):
            host = sample_uniform_hypergraph(2, 500, 0.3, seed=1200 + s)
            try:
                copies = almost_factor(host, triangle(), epsilon=0.05)
            except PhaseFailure:
                continue
            covered = check_disjoint_embeddings(host, triangle(), copies)
            assert 500 - len(covered) <= 0.05 * 500
            wins += 1
        assert wins >= int(trials * 0.95)


class TestFactorInWindow:
    def test_complete_host_meets_quota(self):
        backbone = Backbone(2, 5, "power").graph  # 21 vertices
        host = complete_graph(170)
        window = range(1, 169)  # 168 vertices -> quota 2
        copies = factor_in_window(host, backbone, window, quota=len(window) // (4 * backbone.n))
        assert len(copies) >= 2
        covered = check_disjoint_embeddings(host, backbone, copies)
        assert covered <= set(window)

    @pytest.mark.parametrize("quota", [0, -3])
    def test_an_explicit_quota_below_1_is_named(self, quota):
        with pytest.raises(ValueError, match=rf"^quota must be >= 1, got {quota}$"):
            factor_in_window(complete_graph(200), triangle(), range(200), quota=quota)

    def test_template_without_vertices(self):
        with pytest.raises(ValueError, match="no vertices"):
            factor_in_window(complete_graph(8), Hypergraph(2, 0, ()), range(8), quota=1)

    def test_a_float_window_vertex_is_refused_not_truncated(self):
        # 0.2 and 1.9 read as 0 and 1 put a copy of an edge on {0, 1}
        with pytest.raises(ValueError, match=r"vertex 0\.2 is not an integer"):
            factor_in_window(complete_graph(6), Hypergraph(2, 2, [(0, 1)]), [0.2, 1.9, 3.5], quota=1)

    def test_quota_override(self):
        host = complete_graph(40)
        copies = factor_in_window(host, triangle(), range(40), quota=5)
        assert len(copies) == 5

    def test_failure_reports_progress(self):
        host = Hypergraph(2, 30, [(0, 1), (1, 2), (0, 2)])  # one triangle only
        with pytest.raises(PhaseFailure) as info:
            factor_in_window(host, triangle(), range(30), quota=2)
        assert info.value.details["copies_found"] == 1

    def test_every_failure_says_whether_the_budget_ran_out(self, monkeypatch):
        host = Hypergraph(2, 30, [(0, 1), (1, 2), (0, 2)])  # one triangle only
        calls = (lambda: factor_in_window(host, triangle(), range(30), quota=2),
                 lambda: almost_factor(host, triangle(), 0.5))
        for exhausted in (False, True):
            if exhausted:
                monkeypatch.setattr(matcher, "SEARCH_BUDGET", 10)
            for call in calls:
                with pytest.raises(PhaseFailure) as info:
                    call()
                assert info.value.details["budget_exhausted"] is exhausted

    def test_a_sparse_tight_host_reports_the_exhausted_budget(self):
        report = find_hamilton(ModelSpec(1000, 0.05), Parameters(k=2, mode="tight", retries=0, seed=3))
        assert isinstance(report, FailureReport)
        (attempt,) = report.attempts
        assert (attempt.phase, attempt.message) == ("factor", "search budget exhausted")
        assert attempt.details == {"copies_found": 2, "quota": 14, "window_left": 292, "budget_exhausted": True}

    def test_monte_carlo_backbone_quota(self):
        # the corollary-scale experiment: disjoint backbone copies inside a
        # window of a random graph, quota from the |W| / 4 v(F) formula
        backbone = Backbone(2, 5, "power").graph
        window = range(200)
        wins = 0
        trials = 30
        for s in range(trials):
            host = sample_uniform_hypergraph(2, 400, 0.55, seed=7000 + s)
            try:
                copies = factor_in_window(host, backbone, window, quota=len(window) // (4 * backbone.n))
            except PhaseFailure:
                continue
            assert len(copies) >= 200 // (4 * 21)
            check_disjoint_embeddings(host, backbone, copies)
            wins += 1
        assert wins >= int(trials * 0.9)
