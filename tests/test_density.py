from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampow.absorber import Backbone
from hampow.core import (
    Hypergraph,
    VertexTuple,
    connecting_path_template,
    power_path_template,
    tight_path_template,
)
from hampow.density import DensityBudgetError, RootedTemplate, m1_density, m_density

from oracles import (
    backbone_degeneracy_ordering,
    degeneracy,
    is_degenerate_ordering,
    is_edge,
    middle_connecting_path_template,
    mincut_m1,
    naive_m1,
    naive_m_rooted,
)


def complete_graph(n):
    return Hypergraph(2, n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def small_graphs(draw_edges=True):
    """Strategy: a 2-uniform hypergraph on 3..7 vertices with >= 1 edge."""
    @st.composite
    def build(draw):
        n = draw(st.integers(3, 7))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.sets(st.sampled_from(all_pairs), min_size=1))
        return Hypergraph(2, n, edges)
    return build()


class TestM1:
    def test_single_edge(self):
        assert m1_density(Hypergraph(2, 2, [(0, 1)])) == 1

    def test_k4(self):
        assert m1_density(complete_graph(4)) == 2

    def test_power_path_2_8(self):
        assert m1_density(power_path_template(2, 8)) == Fraction(13, 7)

    def test_triangle(self):
        assert m1_density(complete_graph(3)) == Fraction(3, 2)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            m1_density(Hypergraph(2, 3, ()))

    def test_budget_refusal(self):
        g = Hypergraph(2, 30, [(i, i + 1) for i in range(29)])
        with pytest.raises(DensityBudgetError):
            m1_density(g)

    @given(small_graphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_enumeration_oracle(self, g):
        assert m1_density(g) == naive_m1(g)

    @given(small_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_edge_addition(self, g, data):
        non_edges = [
            (i, j)
            for i in range(g.n)
            for j in range(i + 1, g.n)
            if not is_edge(g, (i, j))
        ]
        if not non_edges:
            return
        extra = data.draw(st.sampled_from(non_edges))
        bigger = Hypergraph(2, g.n, list(g.edges()) + [extra])
        assert m1_density(bigger) >= m1_density(g)

    def test_hypergraph_m1(self):
        h = tight_path_template(2, 6)
        assert m1_density(h) == naive_m1(h)


class TestRootedTemplate:
    def test_rejects_dependent_root(self):
        # the length-(2k+1) connecting path keeps the cross edge between its
        # end blocks, so its end tuple is not independent
        cp = connecting_path_template(2, 5)
        with pytest.raises(ValueError, match="independent"):
            RootedTemplate(cp, VertexTuple((0, 1, 3, 4)))

    def test_rejects_full_root(self):
        g = Hypergraph(2, 2, [(0, 1)])
        with pytest.raises(ValueError):
            RootedTemplate(g, VertexTuple((0, 1)))


class TestMRooted:
    def test_empty_root_equals_m1(self):
        g = power_path_template(2, 6)
        assert m_density(RootedTemplate(g, VertexTuple(()))) == m1_density(g)

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_empty_root_equals_m1_property(self, g):
        assert m_density(RootedTemplate(g, VertexTuple(()))) == m1_density(g)

    def test_edge_rooted_at_one_endpoint(self):
        g = Hypergraph(2, 2, [(0, 1)])
        assert m_density(RootedTemplate(g, VertexTuple((0,)))) == 1

    def test_middle_rooted_connecting_path(self):
        # length-5 connecting path in the strict (middle-anchored) form,
        # whose end tuple is independent; exact value frozen from the oracle
        g = middle_connecting_path_template(2, 5)
        assert sorted(g.edges()) == [(0, 2), (1, 2), (2, 3), (2, 4)]
        rt = RootedTemplate(g, VertexTuple((0, 1, 3, 4)))
        assert m_density(rt) == 4
        assert m_density(rt) == naive_m_rooted(g, (0, 1, 3, 4))
        assert m_density(rt) <= Fraction(2) + Fraction(8 * 8, 5)

    def test_variants_coincide_from_three_k(self):
        for k in (1, 2, 3):
            for ell in (3 * k, 3 * k + 1, 3 * k + 4):
                if ell <= 2 * k:
                    continue
                assert connecting_path_template(k, ell) == middle_connecting_path_template(k, ell)
        assert connecting_path_template(3, 8) != middle_connecting_path_template(3, 8)

    def test_connecting_path_2_6(self):
        cp = connecting_path_template(2, 6)
        rt = RootedTemplate(cp, VertexTuple((0, 1, 4, 5)))
        assert m_density(rt) == Fraction(7, 2)
        assert m_density(rt) == naive_m_rooted(cp, (0, 1, 4, 5))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_rooted_oracle(self, data):
        g = data.draw(small_graphs())
        independent = [
            vs
            for vs in [(0,), (0, 1), (1, 2)]
            if max(vs) < g.n and not any(set(e) <= set(vs) for e in g.edges())
        ]
        if not independent:
            return
        root = data.draw(st.sampled_from(independent))
        rt = RootedTemplate(g, VertexTuple(root))
        assert m_density(rt) == naive_m_rooted(g, root)


class TestDegeneracy:
    def test_single_edge_any_ordering(self):
        g = Hypergraph(2, 2, [(0, 1)])
        assert is_degenerate_ordering(g, (0, 1), 1)
        assert is_degenerate_ordering(g, (1, 0), 1)

    def test_k4_is_not_2_degenerate(self):
        g = complete_graph(4)
        for order in [(0, 1, 2, 3), (3, 1, 0, 2)]:
            assert not is_degenerate_ordering(g, order, 2)
        assert is_degenerate_ordering(g, (0, 1, 2, 3), 3)

    def test_rejects_non_permutation(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            is_degenerate_ordering(g, (0, 1), 2)

    def test_peeling_witness(self):
        g = power_path_template(2, 10)
        d, order = degeneracy(g)
        assert d == 2
        assert is_degenerate_ordering(g, order, d)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_peeling_bounds_m1(self, g):
        d, order = degeneracy(g)
        assert is_degenerate_ordering(g, order, d)
        assert m1_density(g) <= d


class TestBackboneOrdering:
    def test_shape(self):
        order = backbone_degeneracy_ordering(2, 5)
        assert len(order) == 21
        lay = Backbone(2, 5, "power")
        assert order[0] == lay.x
        assert order[1:3] == tuple(reversed(lay.head(1)))
        assert order[-2:] == tuple(lay.tail(1))
        assert sorted(order) == list(range(21))

    def test_rejects_even_or_small(self):
        with pytest.raises(ValueError):
            backbone_degeneracy_ordering(2, 4)
        with pytest.raises(ValueError):
            backbone_degeneracy_ordering(2, 1)

    def test_violation_profile_regression(self):
        # the ordering closes k+2 edges at the first vertex of the first
        # tail tuple (the two head-cross edges arrive on top of the interior
        # ones), so it cannot witness k-degeneracy; frozen as regression
        b = Backbone(2, 5, "power")
        order = backbone_degeneracy_ordering(2, 5)
        pos = {v: i for i, v in enumerate(order)}
        closed = {}
        for e in b.graph.edges():
            closer = max(e, key=pos.__getitem__)
            closed[closer] = closed.get(closer, 0) + 1
        w13, w14 = b.tail(1)
        violations = {v: c for v, c in closed.items() if c > 2}
        assert violations == {w13: 4, w14: 3}
        assert not is_degenerate_ordering(b.graph, order, 2)


class TestBackboneDensityRegression:
    """The gadget's true densities, frozen exactly.

    The backbone has 2*k^2*ell + k edges on 2*k*ell + 1 vertices, which is
    k more than any k-degenerate graph that size can carry; its 1-density
    is therefore exactly k + 1/(2*ell) (the whole graph is densest), and
    the tight variant sits at 1 + 1/(2*k*ell).
    """

    @pytest.mark.parametrize(
        "k,ell,mode,expected",
        [
            (2, 3, "power", Fraction(13, 6)),
            (2, 5, "power", Fraction(21, 10)),
            (3, 3, "power", Fraction(19, 6)),
            (2, 3, "tight", Fraction(13, 12)),
            (2, 5, "tight", Fraction(21, 20)),
            (3, 3, "tight", Fraction(19, 18)),
        ],
    )
    def test_exact_m1(self, k, ell, mode, expected):
        b = Backbone(k, ell, mode)
        assert m1_density(b.graph) == expected
        assert expected == Fraction(
            b.graph.edge_count, b.graph.n - 1
        ), "whole graph is the densest subgraph"

    @pytest.mark.parametrize("k,ell", [(2, 3), (2, 5), (3, 3), (3, 5), (2, 7), (3, 7)])
    def test_edge_count_exceeds_degenerate_budget(self, k, ell):
        b = Backbone(k, ell, "power")
        assert b.graph.edge_count == k * (b.graph.n - 1) + k
        bh = Backbone(k, ell, "tight")
        assert bh.graph.edge_count == bh.graph.n


def small_hypergraphs():
    """Strategy: a 3-uniform hypergraph on 4..7 vertices with >= 1 edge."""
    @st.composite
    def build(draw):
        n = draw(st.integers(4, 7))
        triples = [(i, j, l) for i in range(n) for j in range(i + 1, n) for l in range(j + 1, n)]
        edges = draw(st.sets(st.sampled_from(triples), min_size=1))
        return Hypergraph(3, n, edges)
    return build()


class TestMinCutOracle:
    """The min-cut oracle agrees with exact enumeration wherever that runs."""

    @pytest.mark.parametrize(
        "template",
        [
            complete_graph(2),
            complete_graph(5),
            power_path_template(1, 6),
            power_path_template(2, 8),
            power_path_template(3, 9),
            connecting_path_template(2, 8),
            connecting_path_template(3, 10),
            tight_path_template(2, 8),
            tight_path_template(3, 9),
            # K5 plus a pendant path: the densest subgraph is a proper one
            Hypergraph(
                2, 12, list(complete_graph(5).edges()) + [(i, i + 1) for i in range(4, 11)]
            ),
        ]
        + [
            Backbone(k, ell, mode).graph
            for k, ell in [(1, 3), (1, 5), (2, 3), (3, 3), (2, 5)]
            for mode in ("power", "tight")
        ],
        ids=repr,
    )
    def test_matches_m1_on_templates(self, template):
        assert mincut_m1(template) == m1_density(template)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_m1_on_graphs(self, g):
        assert mincut_m1(g) == m1_density(g)

    @given(small_hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_m1_on_hypergraphs(self, h):
        assert mincut_m1(h) == m1_density(h)
