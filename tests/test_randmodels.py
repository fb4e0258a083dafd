import math
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampow import randmodels
from hampow.core import Hypergraph, _decode_codes, _encode_rows
from hampow.pipeline import ModelSpec, Parameters, find_hamilton
from hampow.randmodels import (
    BipartiteGraph,
    derive,
    expected_stored_codes,
    mix,
    sample_bipartite,
    sample_three_rounds,
    sample_uniform_hypergraph,
    split_edges_three,
    three_round_rate,
    uniform_stream,
)

from oracles import three_rounds_by_enumeration


class TestMixing:
    def test_reference_stream(self):
        # splitmix64 of seed 0: the well-known first outputs
        assert mix(0, 0) == 0xE220A8397B1DCDAF
        assert mix(0, 1) == 0x6E789E6AA1B965F4
        assert mix(0, 2) == 0x06C45D188009454F

    def test_derive_folds(self):
        assert derive(123, 4, 5) == mix(mix(123, 4), 5)
        assert derive(123) == 123

    def test_uniform_stream_matches_scalar(self):
        u = uniform_stream(99, 10, 20)
        expect = [(mix(99, i) >> 11) * 2.0 ** -53 for i in range(10, 20)]
        assert np.allclose(u, expect, rtol=0, atol=0)
        assert np.all((u >= 0) & (u < 1))


class TestUnranking:
    """The samplers' lexicographic ranks are edge codes: the decoder turns them into tuples."""

    @pytest.mark.parametrize("n,k", [(6, 2), (7, 3), (8, 4), (5, 1)])
    def test_exhaustive(self, n, k):
        rows = _decode_codes(np.arange(math.comb(n, k)), n, k)
        assert [tuple(r) for r in rows.tolist()] == list(combinations(range(n), k))

    @given(data=st.data(), k=st.integers(1, 4), n=st.integers(4, 16))
    @settings(max_examples=60, deadline=None)
    def test_ascending_subsets_of_ranks(self, data, k, n):
        everything = list(combinations(range(n), k))
        ranks = sorted(data.draw(st.sets(st.integers(0, len(everything) - 1))))
        rows = _decode_codes(np.array(ranks, dtype=np.int64), n, k)
        assert rows.shape == (len(ranks), k)
        assert [tuple(r) for r in rows.tolist()] == [everything[i] for i in ranks]


class TestSampler:
    def test_extreme_rates(self):
        assert sample_uniform_hypergraph(2, 10, 0.0, seed=1).edge_count == 0
        g = sample_uniform_hypergraph(2, 10, 1.0, seed=1)
        assert g.edge_count == 45 and g.is_complete
        g3 = sample_uniform_hypergraph(3, 6, 1.0, seed=1)
        assert g3.edge_count == 20

    def test_determinism(self):
        a = sample_uniform_hypergraph(3, 40, 0.2, seed=77)
        b = sample_uniform_hypergraph(3, 40, 0.2, seed=77)
        assert a == b
        c = sample_uniform_hypergraph(3, 40, 0.2, seed=78)
        assert a != c

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            sample_uniform_hypergraph(2, 5, 1.5, seed=0)
        with pytest.raises(ValueError):
            sample_uniform_hypergraph(4, 3, 0.5, seed=0)

    def test_binomial_concentration(self):
        g = sample_uniform_hypergraph(2, 1000, 0.5, seed=42)
        total = math.comb(1000, 2)
        sd = math.sqrt(total * 0.25)
        assert abs(g.edge_count - total * 0.5) <= 4 * sd

    def test_exchangeability_of_edge_counts(self):
        # relabeling vertices before sampling with fresh seeds should give
        # statistically indistinguishable counts (sanity, not bit equality)
        a = [sample_uniform_hypergraph(2, 80, 0.3, seed=s).edge_count for s in range(30)]
        b = [sample_uniform_hypergraph(2, 80, 0.3, seed=500 + s).edge_count for s in range(30)]
        total = math.comb(80, 2)
        sd = math.sqrt(total * 0.3 * 0.7)
        assert abs(np.mean(a) - np.mean(b)) <= 4 * sd * math.sqrt(2 / 30)


class TestThreeRound:
    def test_rate_examples(self):
        assert three_round_rate(0.271) == pytest.approx(0.1)
        assert three_round_rate(0.0) == 0.0
        assert three_round_rate(1.0) == 1.0

    def test_split_partitions_and_rejoins(self):
        g = sample_uniform_hypergraph(2, 200, 0.3, seed=9)
        a, b, c = split_edges_three(g, seed=10)
        assert set(a.edges()) | set(b.edges()) | set(c.edges()) == set(g.edges())
        codes = set(g.edge_codes().tolist())
        for part in (a, b, c):
            assert set(part.edge_codes().tolist()) <= codes

    def test_split_empty_and_complete(self):
        empty = Hypergraph(2, 5, ())
        assert all(p.edge_count == 0 for p in split_edges_three(empty, seed=0))
        comp = Hypergraph.complete(2, 6)
        assert all(p is comp for p in split_edges_three(comp, seed=0))

    def test_split_marginal_rates(self):
        # each part should look like G(n, q) with q = 1 - (1-p)^(1/3);
        # conditional on the edge being present the rate is q / p
        p = 0.271
        g = sample_uniform_hypergraph(2, 900, p, seed=4)
        m = g.edge_count
        assert m > 100_000  # the frequency test runs over >= 1e5 edges
        # the split reads the rate off the graph: p_hat = m / C(n, k)
        p_hat = m / math.comb(900, 2)
        q = three_round_rate(p_hat)
        parts = split_edges_three(g, seed=5)
        sd = math.sqrt(m * (q / p_hat) * (1 - q / p_hat))
        for part in parts:
            assert abs(part.edge_count - m * q / p_hat) <= 3 * sd

    def test_joint_sampler_matches_split_law(self):
        g1, g2, g3, full = sample_three_rounds(2, 400, 0.271, seed=21)
        assert set(g1.edges()) | set(g2.edges()) | set(g3.edges()) == set(full.edges())
        total = math.comb(400, 2)
        q = three_round_rate(0.271)
        sd_q = math.sqrt(total * q * (1 - q))
        for part in (g1, g2, g3):
            assert abs(part.edge_count - total * q) <= 4 * sd_q
        sd_p = math.sqrt(total * 0.271 * 0.729)
        assert abs(full.edge_count - total * 0.271) <= 4 * sd_p

    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.3, 0.6, 0.875, 0.9, 0.9995, 1.0])
    @given(k=st.integers(2, 3), n=st.integers(3, 14), seed=st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_joint_sampler_matches_enumeration(self, p, k, n, seed):
        # q = 0.11, 0.26, 0.5, 0.54, 0.92 at p = 0.3, 0.6, 0.875, 0.9, 0.9995:
        # the rounds store edges up to p = 0.875 and non-edges above; the
        # union stores non-edges from p = 0.6.  At p = 0.6 and 0.875 every
        # candidate is needed (r = 1); at p = 0 none is (r = 0).
        sampled = sample_three_rounds(k, n, p, seed)
        q = three_round_rate(p)
        assert [g._complement for g in sampled] == [q > 0.5] * 3 + [p > 0.5]
        replayed = three_rounds_by_enumeration(k, n, p, seed)
        for got, want in zip(sampled, replayed):
            assert got == want
            assert list(got.edges()) == list(want.edges())
        # round i is the host sampled at rate q from the round's seed
        for i, want in enumerate(replayed[:3]):
            host = sample_uniform_hypergraph(k, n, q, derive(seed, i))
            assert host._complement == (q > 0.5) and host == want

    # upper 1e-4 quantiles of the chi-square law with 1..7 degrees of freedom
    CHI2_CRITICAL = {1: 15.14, 2: 18.42, 3: 21.11, 4: 23.51, 5: 25.74, 6: 27.86, 7: 29.88}

    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.875, 0.9995, 1.0])
    @pytest.mark.parametrize("k,n", [(2, 8), (3, 7)])
    def test_pattern_frequencies_follow_the_joint_law(self, k, n, p):
        # the rounds of every candidate over many seeds, against three
        # independent Bernoulli(q) coins; q = 1/2 at p = 0.875
        seeds = 2000
        candidates = list(combinations(range(n), k))
        codes = _encode_rows(np.array(candidates, dtype=np.int64).T, n)
        counts = np.zeros(8, dtype=np.int64)
        for s in range(seeds):
            *rounds, union = sample_three_rounds(k, n, p, derive(31, s))
            pattern = sum(
                np.isin(codes, g.edge_codes()).astype(np.int64) << i
                for i, g in enumerate(rounds)
            )
            assert np.array_equal(np.isin(codes, union.edge_codes()), pattern > 0)
            counts += np.bincount(pattern, minlength=8)
        q = three_round_rate(p)
        probs = [q ** bin(t).count("1") * (1.0 - q) ** (3 - bin(t).count("1")) for t in range(8)]
        assert all(counts[t] == 0 for t in range(8) if probs[t] == 0.0)
        # merge the rarest patterns until every cell expects at least 5
        # draws; the likeliest pattern (probability >= 1/8) closes the last
        total = seeds * len(candidates)
        cells, observed, expected = [], 0, 0.0
        for t in sorted((t for t in range(8) if probs[t] > 0.0), key=probs.__getitem__):
            observed += counts[t]
            expected += total * probs[t]
            if expected >= 5:
                cells.append((observed, expected))
                observed, expected = 0, 0.0
        assert expected == 0.0 and sum(o for o, _ in cells) == total
        chi2 = sum((o - e) ** 2 / e for o, e in cells)
        if len(cells) > 1:
            assert chi2 < self.CHI2_CRITICAL[len(cells) - 1]

    def test_work_scales_with_the_kept_candidates(self, monkeypatch):
        # C(3000, 3) is about 4.5e9 candidates; each round and the host keep
        # about 1,500, and the bipartite graph about 10 of its 1e10
        drawn = []
        stream = randmodels.uniform_stream

        def counted(seed, start, stop):
            drawn.append(stop - start)
            return stream(seed, start, stop)

        monkeypatch.setattr(randmodels, "uniform_stream", counted)
        *rounds, union = sample_three_rounds(3, 3000, 1e-6, seed=5)
        # below p = 1/2 the union stores its edges: the rounds' kept candidates
        assert 3000 < union.edge_count < 6000
        host = sample_uniform_hypergraph(3, 3000, 1e-6, seed=5)
        bipartite = sample_bipartite(10 ** 5, 1e-9, seed=5)
        # one variate per kept code of a sample, and a batch's slack past the last
        sizes = [g.edge_count for g in (*rounds, host, bipartite)]
        assert sum(drawn) <= sum(m + 4 * math.sqrt(m) + 16 for m in sizes)

    def test_a_round_past_its_expected_count_grows_its_array(self, monkeypatch):
        # variates of 0 keep every rank, far past the 5 expected at this rate
        monkeypatch.setattr(randmodels, "uniform_stream", lambda seed, lo, hi: np.zeros(hi - lo))
        assert np.array_equal(randmodels._bernoulli_ranks(1, 5000, 0.001), np.arange(5000))

    def test_sparse_rounds_are_drawn_on_first_read(self, monkeypatch):
        calls = Counter()
        for name in ("_bernoulli_ranks", "_merged"):
            def counted(*args, name=name, orig=getattr(randmodels, name)):
                calls[name] += 1
                return orig(*args)
            monkeypatch.setattr(randmodels, name, counted)
        # this find fails in factor, which reads round 1 alone: one draw, no merge
        report = find_hamilton(ModelSpec(1000, 0.05), Parameters(k=2, mode="tight", retries=0, seed=3))
        assert str(report) == (
            "no verified cycle after 1 attempt(s):\n"
            "  seed=9757208891808321065: factor: search budget exhausted"
        )
        assert calls == {"_bernoulli_ranks": 1}
        # reading the union draws the rounds not yet drawn and merges them, once
        calls.clear()
        *rounds, union = sample_three_rounds(2, 300, 0.05, seed=1)
        rounds[0].edge_count
        assert calls == {"_bernoulli_ranks": 1}
        union.edge_count
        union.has_edge([0, 1])
        assert calls == {"_bernoulli_ranks": 3, "_merged": 1}
        # q > 1/2: the rounds are drawn before the sampler returns
        calls.clear()
        sample_three_rounds(2, 300, 0.9995, seed=1)
        assert calls == {"_bernoulli_ranks": 3}

    @pytest.mark.parametrize("k,n,p", [(3, 400, 0.05), (2, 3000, 0.9995), (2, 2000, 0.6),
                                       (2, 2000, 0.3)])
    def test_traced_peak_stays_within_twice_the_stored_codes(self, k, n, p):
        # a sparse union, dense rounds, the mixed regime's mask and a larger
        # sparse union: no case copies a result's codes whole
        tracemalloc.start()
        try:
            sampled = sample_three_rounds(k, n, p, seed=3)
            for g in sampled:
                g.edge_count  # a sparse sample draws its rounds and union on first read
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stored = {id(g._codes): g._codes.nbytes for g in sampled}
        assert peak <= 2 * sum(stored.values())

    @pytest.mark.parametrize("p", [0.271, 0.6, 0.9995])
    def test_round_marginal_rates_and_pairwise_independence(self, p):
        # each round is G(n, q), and two rounds share an edge at rate q^2
        n = 900
        total = math.comb(n, 2)
        q = three_round_rate(p)
        *rounds, _ = sample_three_rounds(2, n, p, seed=4)
        sd = math.sqrt(total * q * (1 - q))
        for g in rounds:
            assert abs(g.edge_count - total * q) <= 3 * sd
        sd_pair = math.sqrt(total * q * q * (1 - q * q))
        for a, b in combinations(rounds, 2):
            shared = np.intersect1d(a.edge_codes(), b.edge_codes(), assume_unique=True).size
            assert abs(shared - total * q * q) <= 3 * sd_pair

    @pytest.mark.parametrize("k,n,p", [(2, 50, 0.3), (3, 20, 0.9), (2, 30, 0.9995), (3, 12, 1.0)])
    def test_expected_stored_codes(self, k, n, p):
        # average over seeds of the codes the four results store
        sizes = [
            sum(g._codes.size for g in sample_three_rounds(k, n, p, seed=s))
            for s in range(300)
        ]
        want = expected_stored_codes(k, n, p)
        # each result's size is binomial, so their sum's variance is <= 4 * want
        sd = 2 * math.sqrt(want)
        assert abs(np.mean(sizes) - want) <= 4 * sd / math.sqrt(len(sizes))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_merged_rounds_are_their_union(self, data):
        total = data.draw(st.integers(1, 60))
        codes = st.sets(st.integers(0, total - 1)).map(lambda c: np.array(sorted(c), dtype=np.int64))
        rounds = [data.draw(codes) for _ in range(3)]  # an empty round included
        # stretches of a few codes, so most unions take several
        with mock.patch.object(randmodels, "_BATCH", data.draw(st.integers(1, 8))):
            union = randmodels._merged(rounds, total)
        assert union.tolist() == reduce(np.union1d, rounds).tolist()

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_dense_union_is_the_rounds_common_non_edges(self, data):
        k = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(k, 9))
        # q > 1/2: the rounds store their non-edges, few on small hosts, often none
        p = data.draw(st.floats(0.88, 0.9999))
        *rounds, union = sample_three_rounds(k, n, p, seed=data.draw(st.integers(0, 999)))
        assert union._complement and all(g._complement for g in rounds)
        common = reduce(np.intersect1d, [g._codes for g in rounds])
        assert union._codes.tolist() == common.tolist()

    def test_joint_sampler_determinism(self):
        a = sample_three_rounds(3, 40, 0.4, seed=1)
        b = sample_three_rounds(3, 40, 0.4, seed=1)
        assert all(x == y for x, y in zip(a, b))


class TestBipartite:
    def test_extremes(self):
        assert sample_bipartite(4, 1.0, seed=0).edge_count == 16
        assert sample_bipartite(4, 0.0, seed=0).edge_count == 0

    def test_concentration(self):
        b = sample_bipartite(500, 0.5, seed=3)
        sd = math.sqrt(250_000 * 0.25)
        assert abs(b.edge_count - 125_000) <= 4 * sd

    def test_validates_edges(self):
        with pytest.raises(ValueError, match="expected 2 rows"):
            BipartiteGraph(2, 2, [[0, 1]])

    def test_adjacency_sorted(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[[0, 0, 2], [2, 1, 0]] = True
        b = BipartiteGraph.from_mask(mask)
        assert b.adjacency() == [[1, 2], [], [0]]
