import hashlib
from itertools import combinations

import pytest

from hampow.absorber import (
    Backbone,
    SingleVertexAbsorber,
    absorb,
    absorb_single,
    build_chain_absorber,
    chain_capacity,
    chain_vertex_count,
    default_connector_len,
    demo_absorber,
)
from hampow.core import Hypergraph, connecting_path_template, is_path, uniformity
from hampow.matcher import PhaseFailure
from hampow.randmodels import derive, sample_uniform_hypergraph


def absorber_vertices(ab):
    """The host vertices of a single-vertex absorber: its backbone's images and its connectors."""
    return set(ab.embedding.values()).union(*ab.connectors)


class TestBackboneTemplate:
    def test_vertex_count(self):
        b = Backbone(2, 5, "power")
        assert b.graph.n == 21
        assert b.vertex_count == 21

    def test_frozen_edge_counts(self):
        # golden values from the construction: 2 k^2 ell + k edges (power),
        # 2 k ell + 1 edges (tight, groups pairwise edge-disjoint)
        assert Backbone(2, 5, "power").graph.edge_count == 42
        assert Backbone(2, 5, "tight").graph.edge_count == 21
        for k in (1, 2, 3):
            for ell in (3, 5, 7, 9):
                assert Backbone(k, ell, "power").graph.edge_count == 2 * k * k * ell + k
                assert Backbone(k, ell, "tight").graph.edge_count == 2 * k * ell + 1

    def test_parity_and_size_preconditions(self):
        with pytest.raises(ValueError):
            Backbone(2, 4, "power")
        with pytest.raises(ValueError):
            Backbone(2, 1, "power")
        with pytest.raises(ValueError):
            Backbone(2, 5, "cycle")

    def test_tuple_layout(self):
        lay = Backbone(2, 5, "power")
        assert lay.x == 0
        assert tuple(lay.head(1)) == (1, 2)
        assert tuple(lay.tail(1)) == (3, 4)
        assert tuple(lay.head(5)) == (17, 18)
        assert tuple(lay.tail(5)) == (19, 20)

    def test_tight_mode_uniformity(self):
        assert Backbone(3, 5, "tight").graph.k == 4
        assert Backbone(3, 5, "power").graph.k == 2


class TestAbsorbSingle:
    @pytest.mark.parametrize("mode", ["power", "tight"])
    @pytest.mark.parametrize("k,ell", [(1, 3), (2, 3), (3, 3), (1, 5), (2, 5), (2, 7), (3, 5)])
    def test_both_traversals_on_complete_host(self, k, ell, mode):
        host, ab = demo_absorber(k, ell, mode)
        with_x = absorb_single(ab, include_x=True)
        without_x = absorb_single(ab, include_x=False)
        assert is_path(host, with_x, k, mode)
        assert is_path(host, without_x, k, mode)
        assert set(with_x) == absorber_vertices(ab)
        assert set(without_x) == absorber_vertices(ab) - {ab.x}
        assert len(with_x) == len(without_x) + 1
        for seq in (with_x, without_x):
            assert seq[:k] == tuple(ab.a)
            assert seq[-k:] == tuple(ab.b)

    def test_structural_backbone_host_suffices(self):
        # the traversal edges must come from the gadget itself: embed the
        # backbone plus connectors as a standalone host and validate there
        k, ell = 2, 5
        conn_len = default_connector_len(k, "power")
        host_complete, ab = demo_absorber(k, ell, "power")
        from hampow.core import connecting_path_template

        edges = set(ab.backbone.graph.edges())
        cp = connecting_path_template(k, conn_len)
        for seq in ab.connectors:
            for e in cp.edges():
                edges.add(tuple(sorted((seq[e[0]], seq[e[1]]))))
        host = Hypergraph(2, host_complete.n, edges)
        assert is_path(host, absorb_single(ab, True), k, "power")
        assert is_path(host, absorb_single(ab, False), k, "power")

    def test_connector_endpoint_validation(self):
        host, ab = demo_absorber(2, 5, "power")
        bad = list(ab.connectors)
        bad[0] = tuple(reversed(bad[0]))
        with pytest.raises(ValueError):
            SingleVertexAbsorber(
                backbone=ab.backbone, embedding=ab.embedding, connectors=tuple(bad)
            )


class TestConnectorLength:
    def test_edges_between_the_end_tuples_of_a_power_connector(self):
        # length 2k + 2 leaves no edge between the two end tuples only for k <= 2;
        # the copy search checks the edges it keeps before it searches
        between = {
            1: [], 2: [], 3: [(2, 5)], 4: [(2, 6), (3, 6), (3, 7)],
            5: [(2, 7), (3, 7), (3, 8), (4, 7), (4, 8), (4, 9)],
        }
        for k, expected in between.items():
            ell = 2 * k + 2
            edges = connecting_path_template(k, ell).edges()
            assert [e for e in edges if e[0] < k and e[1] >= ell - k] == expected
            assert default_connector_len(k, "power") == (3 if k == 1 else ell)


class TestChainAbsorber:
    def build_complete_chain(self, k, mode, t=4):
        ell = 5
        conn = default_connector_len(k, mode)
        n = max(2 * chain_vertex_count(k, ell, conn, t) + 9, 3 * (1 + 2 * k * ell) * t)
        uniformity = 2 if mode == "power" else k + 1
        host = Hypergraph.complete(uniformity, n)
        chain = build_chain_absorber(host, k, mode, ell=ell, absorb_size=t)
        return host, chain

    @pytest.mark.parametrize("mode", ["power", "tight"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_absorb_all_subsets_small_chain(self, k, mode):
        host, chain = self.build_complete_chain(k, mode, t=3)
        xs = chain.absorbable
        from itertools import chain as ichain, combinations

        for size in range(len(xs) + 1):
            for subset in combinations(xs, size):
                path = absorb(chain, subset)
                assert is_path(host, path, k, mode)
                assert set(path) == chain.vertices() - set(subset)
                assert path[:k] == tuple(chain.a)
                assert path[-k:] == tuple(chain.b)

    def test_absorb_rejects_foreign_vertices(self):
        host, chain = self.build_complete_chain(2, "power", t=3)
        outsider = max(chain.vertices()) + 1
        with pytest.raises(ValueError):
            absorb(chain, {outsider})

    def test_vertex_budget_accounting(self):
        host, chain = self.build_complete_chain(2, "power", t=4)
        expected = chain_vertex_count(2, 5, default_connector_len(2, "power"), 4)
        assert len(chain.vertices()) == expected
        assert expected <= host.n // 2

    def test_too_small_host_rejected(self):
        host = Hypergraph.complete(2, 40)
        with pytest.raises(ValueError):
            build_chain_absorber(host, 2, "power", ell=5, absorb_size=4)

    @staticmethod
    def fits(n, k, mode, ell, t):
        """The chain's four size checks, one by one: the chain in n/2 vertices,
        the backbones in class 0 mod 3, the intra-link and chain connectors'
        interiors in classes 1 and 2."""
        interior = default_connector_len(k, mode) - 2 * k
        classes = [len(range(c, n, 3)) for c in range(3)]
        return (
            chain_vertex_count(k, ell, interior + 2 * k, t) <= n // 2
            and t * (1 + 2 * k * ell) <= classes[0]
            and t * (ell - 1) * interior <= classes[1]
            and (t - 1) * interior <= classes[2]
        )

    @pytest.mark.parametrize("mode", ["power", "tight"])
    @pytest.mark.parametrize("ell", [5, 7, 9])
    def test_capacity_is_the_largest_size_every_check_accepts(self, mode, ell):
        for k in range(1, 9):
            for n in range(0, 4000, 7):
                cap = chain_capacity(n, k, mode, ell)
                assert cap == 0 or self.fits(n, k, mode, ell, cap)
                assert not self.fits(n, k, mode, ell, cap + 1)

    @pytest.mark.parametrize("mode", ["power", "tight"])
    @pytest.mark.parametrize("k,n", [(1, 260), (2, 700)])
    def test_one_link_past_the_capacity_is_refused(self, mode, k, n):
        host = Hypergraph.complete(uniformity(k, mode), n)
        cap = chain_capacity(n, k, mode, 5)
        assert cap >= 1
        chain = build_chain_absorber(host, k, mode, ell=5, absorb_size=cap)
        assert len(chain.absorbable) == cap
        with pytest.raises(ValueError, match=f"at most {cap} do"):
            build_chain_absorber(host, k, mode, ell=5, absorb_size=cap + 1)

    def test_absorb_size_below_one_rejected(self):
        host = Hypergraph.complete(2, 300)
        with pytest.raises(ValueError, match="absorb_size"):
            build_chain_absorber(host, 2, "power", ell=5, absorb_size=0)

    def test_random_host_monte_carlo(self):
        # build the full chain inside moderately dense random hosts and
        # absorb random subsets; validates soundness at pipeline scale
        wins = 0
        trials = 12
        for s in range(trials):
            host = sample_uniform_hypergraph(2, 2000, 0.5, seed=4242 + s)
            try:
                chain = build_chain_absorber(host, 2, "power", ell=5, absorb_size=8)
            except (PhaseFailure, ValueError):
                continue
            wins += 1
            xs = list(chain.absorbable)
            for trial in range(10):
                mask = derive(s, trial)
                subset = {x for i, x in enumerate(xs) if (mask >> i) & 1}
                path = absorb(chain, subset)
                assert is_path(host, path, 2, "power")
                assert set(path) == chain.vertices() - subset
        assert wins >= int(trials * 0.8)


class TestGadgetDigest:
    """The gadget, both traversals and every chain absorb, pinned by one digest.

    Hashes the backbone edges for k in 1..4, odd ell in 3..9 and both modes;
    both ``absorb_single`` traversals (and the vertex set) of every demo
    absorber with ell >= 5; and every absorb subset of a 4-link chain on a
    complete host.  A refactor of the absorbing structure must leave it
    unchanged.
    """

    CHAIN_CASES = [(1, "power"), (2, "power"), (2, "tight"), (3, "tight")]

    def lines(self):
        for mode in ("power", "tight"):
            for k in range(1, 5):
                for ell in range(3, 10, 2):
                    g = Backbone(k, ell, mode).graph
                    yield f"backbone {mode} {k} {ell} {g.k} {g.n} {sorted(g.edges())}"
                    if ell < 5:
                        continue
                    _, ab = demo_absorber(k, ell, mode)
                    yield f"with x {absorb_single(ab, True)}"
                    yield f"without x {absorb_single(ab, False)}"
                    yield f"vertices {sorted(absorber_vertices(ab))}"
        for k, mode in self.CHAIN_CASES:
            _, chain = TestChainAbsorber().build_complete_chain(k, mode, t=4)
            yield f"chain {mode} {k} {sorted(chain.vertices())}"
            xs = chain.absorbable
            for size in range(len(xs) + 1):
                for subset in combinations(xs, size):
                    yield f"absorb {subset} {absorb(chain, subset)}"

    def test_digest(self):
        digest = hashlib.sha256("\n".join(self.lines()).encode()).hexdigest()
        assert digest == "2ea50b4116f38aa7c16a34adf1f617af7661b148f8f0ff293ecd746bd184d357"
