import math

import pytest

from hampow import janson
from hampow.core import Hypergraph, power_path_template, tight_path_template
from hampow.janson import (
    JansonParams,
    exact_mu_delta,
    log_delta_upper_bound,
    log_expected_lex_copies,
)


def triangle():
    return Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])


def expected_lex_copies(n, template, p):
    return math.exp(log_expected_lex_copies(n, template, p))


def delta_upper_bound(n, template, p):
    return math.exp(log_delta_upper_bound(n, template, p))


class TestMu:
    def test_triangle_n5(self):
        assert expected_lex_copies(5, triangle(), 0.5) == pytest.approx(1.25)

    def test_p_one_counts_subsets(self):
        assert expected_lex_copies(7, triangle(), 1.0) == pytest.approx(math.comb(7, 3))

    def test_single_edge(self):
        e = Hypergraph(2, 2, [(0, 1)])
        assert expected_lex_copies(4, e, 0.5) == pytest.approx(3.0)

    def test_template_larger_than_host(self):
        with pytest.raises(ValueError):
            expected_lex_copies(2, triangle(), 0.5)

    def test_matches_exact_enumeration(self):
        for p in (0.3, 0.5, 0.9):
            mu, _ = exact_mu_delta(6, triangle(), p)
            assert expected_lex_copies(6, triangle(), p) == pytest.approx(mu)


class TestExactDelta:
    def test_triangle_n5(self):
        mu, delta = exact_mu_delta(5, triangle(), 0.5)
        assert mu == pytest.approx(1.25)
        # 10 host edges, 3 triangles through each, ordered pairs share one edge
        assert delta == pytest.approx(60 * 0.5 ** 5)

    def test_single_copy_has_zero_delta(self):
        mu, delta = exact_mu_delta(3, triangle(), 0.7)
        assert mu == pytest.approx(0.7 ** 3)
        assert delta == 0.0

    def test_p_one_counts_pairs(self):
        mu, delta = exact_mu_delta(5, triangle(), 1.0)
        assert mu == math.comb(5, 3)
        assert delta == 60

    def test_budget(self):
        with pytest.raises(ValueError):
            exact_mu_delta(200, triangle(), 0.5)  # C(200, 3) = 1,313,400 copies


    @pytest.mark.parametrize("template,n,p", [
        (Hypergraph(2, 5, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 4)]), 9, 0.3),
        (Hypergraph(2, 5, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 4)]), 10, 0.7),
        (Hypergraph(3, 6, [(0, 1, 2), (1, 2, 3), (0, 4, 5), (2, 3, 5)]), 10, 0.3),
        (Hypergraph(3, 6, [(0, 1, 2), (1, 2, 3), (0, 4, 5), (2, 3, 5)]), 11, 0.55),
    ])
    def test_mirrored_template_gives_bit_identical_values(self, template, n, p):
        # mirroring the host, v -> n - 1 - v, maps the lexicographic copies of
        # a template onto those of its mirror image, overlaps included: the
        # two differ only in their edge codes
        mirrored = Hypergraph(template.k, template.n,
                              [[template.n - 1 - v for v in e] for e in template.edges()])
        assert mirrored != template
        assert exact_mu_delta(n, mirrored, p) == exact_mu_delta(n, template, p)


class TestDeltaUpperBound:
    def test_empty_range_is_zero(self):
        e = Hypergraph(2, 2, [(0, 1)])
        assert delta_upper_bound(10, e, 0.5) == 0.0

    def test_triangle_value(self):
        # single term j=2: C(5,2) * C(3,1)^2 * p^(6 - 1.5)
        expect = 10 * 9 * 0.5 ** 4.5
        assert delta_upper_bound(5, triangle(), 0.5) == pytest.approx(expect)

    def test_p_to_zero_limit(self):
        assert delta_upper_bound(5, triangle(), 0.0) == 0.0

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize(
        "template",
        [triangle(), power_path_template(2, 4), power_path_template(1, 3),
         tight_path_template(2, 4)],
    )
    @pytest.mark.parametrize("n", [8, 12])
    def test_dominates_exact_delta(self, template, n, p):
        _, delta = exact_mu_delta(n, template, p)
        assert delta_upper_bound(n, template, p) >= delta * (1 - 1e-12)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            delta_upper_bound(5, Hypergraph(2, 3, ()), 0.5)

    @pytest.mark.parametrize("template", [power_path_template(2, 6), tight_path_template(2, 6)])
    def test_the_bound_past_the_exact_density_limit_still_dominates(self, template, monkeypatch):
        # above the limit the exponent uses the most edges ending at one vertex
        monkeypatch.setattr(janson, "MAX_EXACT_VERTICES", template.n - 1)
        for p in (0.3, 0.9):
            _, delta = exact_mu_delta(10, template, p)
            assert delta_upper_bound(10, template, p) >= delta * (1 - 1e-12)

    def test_figures_past_a_float_stay_finite_logs(self):
        # mu is about 10^554 here: no float holds it
        path = power_path_template(1, 1000)
        log_mu = log_expected_lex_copies(2000, path, 0.9)
        log_delta = log_delta_upper_bound(2000, path, 0.9)
        assert 709.8 < log_mu < math.inf and 709.8 < log_delta < math.inf
        assert 0.0 <= JansonParams.from_logs(log_mu, log_delta, 0.5).bound <= 1.0
        assert JansonParams.from_logs(1e4, 1e4, 0.5).bound == 0.0


@pytest.mark.parametrize("p", [-0.5, 1.5, float("nan")])
def test_edge_probability_outside_the_unit_interval_is_rejected(p):
    calls = [
        lambda: expected_lex_copies(12, triangle(), p),
        lambda: delta_upper_bound(12, triangle(), p),
        lambda: exact_mu_delta(12, triangle(), p),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"edge probability must be in \[0, 1\]"):
            call()


class TestLowerTail:
    def test_formula_value(self):
        params = JansonParams.compute(mu=1.25, delta=1.875, gamma=0.5)
        assert params.bound == pytest.approx(math.exp(-0.0625))
        logged = JansonParams.from_logs(math.log(1.25), math.log(1.875), 0.5)
        assert logged.bound == pytest.approx(params.bound)

    def test_vacuous_at_zero_mean(self):
        assert JansonParams.compute(mu=0.0, delta=3.0, gamma=0.5).bound == 1.0

    def test_zero_delta(self):
        params = JansonParams.compute(mu=8.0, delta=0.0, gamma=0.5)
        assert params.bound == pytest.approx(math.exp(-1.0))

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            JansonParams.compute(mu=1.0, delta=0.0, gamma=1.5)

    def test_monotonicity(self):
        # decreasing in mu at fixed delta/mu ratio; increasing in delta
        b1 = JansonParams.compute(mu=2.0, delta=2.0, gamma=0.5).bound
        b2 = JansonParams.compute(mu=4.0, delta=4.0, gamma=0.5).bound
        assert b2 < b1
        b3 = JansonParams.compute(mu=2.0, delta=5.0, gamma=0.5).bound
        assert b3 > b1
