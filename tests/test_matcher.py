import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hampow.core import (
    Hypergraph,
    connecting_path_template,
    is_path,
    power_path_template,
    tight_path_template,
)
import hampow.core as core
import hampow.matcher as matcher
from hampow.absorber import build_chain_absorber
from hampow.factor import almost_factor, factor_in_window
from hampow.matcher import (
    ConnectFailure,
    PhaseFailure,
    SearchBudgetExceeded,
    _CopySearcher,
    _vertex_bits,
    connect_family,
    connect_paths,
    partition_reservoir,
    round_sizes,
)
from hampow.randmodels import derive, sample_uniform_hypergraph

from oracles import (
    brute_first_rooted_copy,
    brute_rooted_copy_exists,
    charged_scan,
    complement_twin,
    edge_twin,
    intersection_candidates,
    is_embedding,
)


def complete_graph(n):
    return Hypergraph(2, n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def bipartite_host(n=60):
    """Complete bipartite graph between the even and the odd vertices: no triangles."""
    return Hypergraph(2, n, [(i, j) for i in range(n) for j in range(i + 1, n) if (i + j) % 2])


def bitset(vertices):
    return sum(1 << v for v in vertices)


def triangle():
    return Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])


class TestFindRootedCopy:
    def test_single_edge(self):
        searcher = _CopySearcher(Hypergraph(2, 3, [(0, 2)]), Hypergraph(2, 2, [(0, 1)]), (0,))
        emb = searcher.find((0,), bitset([2]))
        assert emb == {0: 0, 1: 2}

    def test_no_room(self):
        searcher = _CopySearcher(complete_graph(5), power_path_template(2, 4), (0,))
        assert searcher.find((0,), bitset([])) is None

    @pytest.mark.parametrize("w,p,template,root", [
        (2, 0.4, power_path_template(2, 7), (0,)),
        (2, 0.5, connecting_path_template(2, 8), (0, 1, 6, 7)),
        (3, 0.4, tight_path_template(2, 7), (0, 1, 5, 6)),
    ])
    def test_a_list_pool_and_an_int64_array_pool_search_alike(self, w, p, template, root):
        for seed in range(6):
            host = sample_uniform_hypergraph(w, 24, p, seed=seed)
            order = sorted(range(24), key=lambda v: derive(seed, 9, v))
            y, allowed = order[:len(root)], sorted(order[len(root):len(root) + 8 + 2 * seed])
            outcomes = []
            # the bitset of a list, and the one the callers build from an int64 array
            for bits in (bitset(allowed), _vertex_bits(np.array(allowed, dtype=np.int64), 24)):
                searcher = _CopySearcher(host, template, root)
                searcher.remaining = 40 * (seed + 1)  # some searches run out
                try:
                    emb = searcher.find(y, bits)
                except SearchBudgetExceeded:
                    emb = "exceeded"
                outcomes.append((emb, searcher.remaining))
                if isinstance(emb, dict):
                    assert all(type(v) is int for v in emb.values())
            assert outcomes[0] == outcomes[1]

    # a rooted-copy request is checked once, by connect_family, not by find
    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="root arity"):
            connect_family(complete_graph(4), Hypergraph(2, 2, [(0, 1)]), (0,), [(0, 1)], [2])

    def test_root_image_inside_reservoir_rejected(self):
        with pytest.raises(ValueError, match="avoid the reservoir"):
            connect_family(complete_graph(4), Hypergraph(2, 2, [(0, 1)]), (0,), [(2,)], [2, 3])

    def test_connecting_path_in_complete_host(self):
        cp = connecting_path_template(2, 5)
        searcher = _CopySearcher(complete_graph(9), cp, (0, 1, 3, 4))
        emb = searcher.find((0, 1, 2, 3), bitset([4, 5, 6, 7, 8]))
        assert emb is not None
        assert emb[2] == 4  # lowest available internal
        assert is_embedding(cp, complete_graph(9), emb)

    def test_unsatisfied_root_edge_gives_none(self):
        # the length-5 connecting path requires an edge between its end
        # blocks; a host missing that pair admits no copy
        cp = connecting_path_template(2, 5)
        host = Hypergraph(2, 5, [e for e in complete_graph(5).edges() if e != (1, 3)])
        searcher = _CopySearcher(host, cp, (0, 1, 3, 4))
        assert searcher.find((0, 1, 3, 4), bitset([2])) is None

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_existence_matches_brute_force(self, data):
        n = data.draw(st.integers(5, 8))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.sets(st.sampled_from(all_pairs), min_size=3))
        host = Hypergraph(2, n, edges)
        template = data.draw(
            st.sampled_from(
                [power_path_template(1, 3), power_path_template(2, 4), complete_graph(3)]
            )
        )
        root = (0,)
        y = (data.draw(st.integers(0, n - 1)),)
        allowed = set(range(n)) - set(y)
        searcher = _CopySearcher(host, template, root)
        got = searcher.find(y, bitset(allowed))
        exists = brute_rooted_copy_exists(host, template, root, y, allowed)
        assert (got is not None) == exists
        if got is not None:
            assert is_embedding(template, host, got)
            assert got[0] == y[0]

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_first_found_matches_unpruned_search(self, data):
        n = data.draw(st.integers(5, 8))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.sets(st.sampled_from(all_pairs), min_size=4))
        host = Hypergraph(2, n, edges)
        template = power_path_template(2, 4)
        root = (0,)
        y = (0,)
        allowed = set(range(1, n))
        searcher = _CopySearcher(host, template, root)
        got = searcher.find(y, bitset(allowed))
        ref = brute_first_rooted_copy(host, template, root, searcher.order, y, allowed)
        assert got == ref

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_candidates_match_the_intersection_scan(self, data):
        n = data.draw(st.integers(8, 14))
        host = sample_uniform_hypergraph(
            2, n, data.draw(st.sampled_from([0.3, 0.7, 0.95])), seed=data.draw(st.integers(0, 999))
        )
        host = (complement_twin if data.draw(st.booleans()) else edge_twin)(host)
        # on a plain path, vertices placed earlier than the previous one may
        # neighbour it: the searcher must skip them as used
        template, root = data.draw(st.sampled_from([
            (power_path_template(1, 6), (0,)),
            (power_path_template(2, 5), (0,)),
            (connecting_path_template(2, 7), (0, 1, 5, 6)),
            (complete_graph(4), ()),
        ]))
        searcher = _CopySearcher(host, template, root)
        depth = data.draw(st.integers(0, len(searcher.order) - 1))
        assume(searcher.anchors[depth])
        # root images, the internals placed before this depth, then the rest
        vertices = data.draw(st.permutations(range(n)))
        y, rest = vertices[:len(root)], vertices[len(root):]
        placed = rest[:depth]
        keep = data.draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
        allowed = sorted(set(placed) | {v for v, kept in zip(rest[depth:], keep) if kept})
        images = dict(zip(root, y)) | dict(zip(searcher.order, placed))
        used = set(placed)
        pool = np.asarray(allowed, dtype=np.int64)
        fits = searcher._fits(depth, images, bitset(used), pool, bitset(allowed))
        got = [w for w in range(n) if fits >> w & 1]
        assert got == list(intersection_candidates(searcher, depth, images, used, set(allowed)))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_charges_match_the_vertex_by_vertex_scan(self, data):
        w = data.draw(st.sampled_from([2, 3, 4]))
        n = data.draw(st.integers(w + 5, 14))
        host = sample_uniform_hypergraph(
            w, n, data.draw(st.sampled_from([0.3, 0.7, 0.95])), seed=data.draw(st.integers(0, 999))
        )
        if w == 2:
            choices = [(power_path_template(2, 6), ()), (power_path_template(2, 6), (0,)),
                       (connecting_path_template(2, 7), (0, 1, 5, 6))]
        else:
            choices = [(tight_path_template(w - 1, w + 3), tuple(range(w - 1))),
                       (tight_path_template(w - 1, w + 2), ())]
        template, root = data.draw(st.sampled_from(choices))
        searcher = _CopySearcher(host, template, root)
        depth = data.draw(st.integers(0, len(searcher.order) - 1))
        # root images, the internals placed before this depth, then the rest
        vertices = data.draw(st.permutations(range(n)))
        y, rest = vertices[:len(root)], vertices[len(root):]
        placed = rest[:depth]
        keep = data.draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
        allowed = sorted(set(placed) | {v for v, kept in zip(rest[depth:], keep) if kept})
        images = dict(zip(root, y)) | dict(zip(searcher.order, placed))
        used = set(placed)
        budget = data.draw(st.integers(1, 200))  # what earlier searches left

        def steps(take, owner):
            # each take: the vertex or the stream's end or exhaustion, then remaining
            out = []
            owner.remaining = budget
            while True:
                try:
                    w = take()
                except SearchBudgetExceeded:
                    return out + [("exceeded", owner.remaining)]
                if w is None:
                    return out + [("end", owner.remaining)]
                out.append((w, owner.remaining))

        # the depth opens as find opens it, then takes its fits one at a time
        pool = np.asarray(allowed, dtype=np.int64)
        searcher._left[depth] = searcher._fits(depth, images, bitset(used), pool, bitset(allowed))
        searcher._scanned[depth] = 0
        got = steps(lambda: searcher._take(depth, bitset(allowed), len(allowed)), searcher)
        oracle = _CopySearcher(host, template, root)
        scan = charged_scan(oracle, depth, images, used, allowed)
        assert got == steps(lambda: next(scan, None), oracle)

    @pytest.mark.parametrize("w,p,budget,template,root", [
        (2, 0.5, 150, connecting_path_template(2, 8), (0, 1, 6, 7)),
        (3, 0.2, 700, tight_path_template(2, 7), (0, 1, 5, 6)),
    ])
    def test_a_bitset_pool_finds_and_spends_as_the_array_pool(self, w, p, budget, template, root):
        # the copy search takes the caller's bitset, here of a list or built by
        # _vertex_bits from an int64 array; a k >= 3 search derives its array
        # for the has_edge links
        host = sample_uniform_hypergraph(w, 30, p, seed=w)
        outcomes = []
        for by_bits in (False, True):
            searcher = _CopySearcher(host, template, root)
            searcher.remaining = budget  # some searches find nothing, and the later ones run out
            for call in range(8):
                order = sorted(range(30), key=lambda v: derive(w, call, v))
                y, allowed = order[:len(root)], sorted(order[len(root):len(root) + 6 + 3 * call])
                try:
                    if by_bits:
                        emb = searcher.find(y, bitset(allowed))
                    else:
                        emb = searcher.find(y, _vertex_bits(np.array(allowed, dtype=np.int64), 30))
                except SearchBudgetExceeded:
                    emb = "exceeded"
                outcomes.append((emb, searcher.remaining))
        half = len(outcomes) // 2
        assert outcomes[:half] == outcomes[half:]
        assert {type(emb) for emb, _ in outcomes} == {dict, type(None), str}
        # the callers read the pool, refusing a vertex outside the host, and build the bitset
        with pytest.raises(ValueError, match=r"vertex 30 outside range\(30\)"):
            core._vertex_set(allowed + [30], 30)
        with pytest.raises(ValueError, match=r"range\(30\)"):
            connect_family(host, template, root, [y], [-1] + allowed, rounds=1)  # -1 is in the first slice
        with pytest.raises(ValueError, match=r"range\(30\)"):
            factor_in_window(host, template, allowed + [30], quota=1)

    @pytest.mark.parametrize("w", [2, 3])
    def test_allowed_vertices_outside_the_host_are_refused(self, w):
        # a pool is a bitset of the host's vertices, where -1 would read as vertex n - 1
        host = Hypergraph.complete(w, 8)
        template = tight_path_template(w - 1, w + 1)
        root = tuple(range(w - 1)) + (w,)
        tuples = [tuple(range(w - 1)) + (w,)]
        for reservoir in ([-1], [w - 1, 8]):
            with pytest.raises(ValueError, match=r"vertex (-1|8) outside range\(8\)"):
                connect_family(host, template, root, tuples, reservoir)
        with pytest.raises(ValueError, match=r"range\(8\)"):
            factor_in_window(host, template, [3, 9], quota=1)

    @pytest.mark.parametrize("host,template", [
        (Hypergraph(2, 7, [(0, 5)]), Hypergraph(2, 3, [(0, 1), (0, 2)])),
        (Hypergraph(3, 7, [(0, 1, 5)]), Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])),
    ], ids=["2-uniform", "3-uniform"])
    def test_budget_charges_every_scanned_allowed_vertex(self, monkeypatch, host, template):
        monkeypatch.setattr(matcher, "SEARCH_BUDGET", 100)
        # two edges through the root, but the host holds only the one through 5
        root = tuple(range(host.k - 1))
        searcher = _CopySearcher(host, template, root)
        assert searcher.find(root, bitset([2, 3, 4, 5, 6])) is None
        # the first internal vertex scans all five and keeps only 5; with 5
        # placed, the second scans all five again, the used 5 included
        assert searcher.remaining == 100 - 5 - 5


class TestLinkMemo:
    """The link masks a searcher memoises never change what a find returns or spends."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_a_reused_searcher_finds_and_spends_as_a_fresh_one(self, data):
        w = data.draw(st.sampled_from([2, 3, 4]))
        n = data.draw(st.integers(w + 6, 16))
        host = sample_uniform_hypergraph(
            w, n, data.draw(st.sampled_from([0.3, 0.6, 0.9])), seed=data.draw(st.integers(0, 999))
        )
        host = (complement_twin if data.draw(st.booleans()) else edge_twin)(host)
        if w == 2:
            choices = [(power_path_template(2, 6), (0,)), (connecting_path_template(2, 7), (0, 1, 5, 6))]
        else:
            choices = [(tight_path_template(w - 1, w + 3), tuple(range(w - 1))),
                       (tight_path_template(w - 1, w + 4), tuple(range(w - 1)) + tuple(range(5, w + 4)))]
        template, root = data.draw(st.sampled_from(choices))
        # one searcher over successive reservoirs, as factor_in_window and connect_family use it
        searcher = _CopySearcher(host, template, root)
        searcher.remaining = data.draw(st.integers(1, 400))
        for _ in range(data.draw(st.integers(2, 5))):
            vertices = data.draw(st.permutations(range(n)))
            y = vertices[:len(root)]
            allowed = sorted(data.draw(st.sets(st.sampled_from(vertices[len(root):]))))
            fresh = _CopySearcher(host, template, root)
            fresh.remaining = searcher.remaining
            outcomes = []
            for s in (searcher, fresh):
                try:
                    outcomes.append((s.find(y, bitset(allowed)), s.remaining))
                except SearchBudgetExceeded:
                    outcomes.append(("exceeded", s.remaining))
            assert outcomes[0] == outcomes[1]
            if outcomes[0][0] == "exceeded":
                break

    def test_each_anchor_set_is_asked_once_per_find(self, monkeypatch):
        host = sample_uniform_hypergraph(3, 30, 0.35, seed=6)
        template, root = tight_path_template(2, 9), (0, 1, 7, 8)
        searcher = _CopySearcher(host, template, root)
        asked: list[tuple[int, ...]] = []
        calls = []
        has_edge = Hypergraph.has_edge

        def recording(self, rows):
            # every distinct key of the call: a batch asks for a run of sibling keys
            asked.extend(set(map(tuple, rows[:, :-1].tolist())))
            calls.append(rows)
            return has_edge(self, rows)

        opened: list[int] = []
        fits = searcher._fits

        def counting(depth, *rest):
            opened.append(len(searcher.anchors[depth]))
            return fits(depth, *rest)

        monkeypatch.setattr(Hypergraph, "has_edge", recording)
        monkeypatch.setattr(searcher, "_fits", counting)
        for call in range(6):
            order = sorted(range(30), key=lambda v: derive(6, call, v))
            asked.clear()
            searcher.find(order[:4], bitset(order[4:]))
            assert asked and len(asked) == len(set(asked))
        # without the memo, every stream would make one call per anchor
        assert len(calls) < sum(opened)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_memo_emptied_when_full_finds_and_spends_as_an_unbounded_one(self, data):
        w = data.draw(st.sampled_from([2, 3]))
        n = data.draw(st.integers(w + 6, 16))
        host = sample_uniform_hypergraph(w, n, 0.5, seed=data.draw(st.integers(0, 999)))
        template = power_path_template(2, 6) if w == 2 else tight_path_template(2, 6)
        vertices = data.draw(st.permutations(range(n)))
        allowed = sorted(vertices[: data.draw(st.integers(1, n))])
        outcomes = []
        for limit in (core._MEMO_BYTES, data.draw(st.integers(0, 3 * n))):
            searcher = _CopySearcher(host, template, ())
            searcher.remaining = 300
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "_MEMO_BYTES", limit)
                try:
                    outcomes.append((searcher.find((), bitset(allowed)), searcher.remaining))
                except SearchBudgetExceeded:
                    outcomes.append(("exceeded", searcher.remaining))
        assert outcomes[0] == outcomes[1]

    def test_a_failing_2_uniform_search_holds_a_bounded_memo(self, monkeypatch):
        # a perfect matching has no path of three vertices, so every pool vertex
        # is placed first and anchors a link of its own; each pays one unit and
        # two full scans, one for its partner and one for a third vertex
        p = 4000
        host = Hypergraph(2, p, [(v, v + 1) for v in range(0, p, 2)])
        monkeypatch.setattr(matcher, "SEARCH_BUDGET", p * (2 * p + 1))
        searcher = _CopySearcher(host, power_path_template(2, 6), ())
        # the links are the host's rows, which it keeps under the bound, at p / 8 bytes a row
        limit, row = 50 * p, p // 8
        monkeypatch.setattr(core, "_MEMO_BYTES", limit)
        anchors, held = set(), []
        neighbor_bits = Hypergraph.neighbor_bits

        def tracked(self, v):
            bits = neighbor_bits(self, v)
            anchors.add(v)
            held.append(len(self._rows) * row)
            return bits

        monkeypatch.setattr(Hypergraph, "neighbor_bits", tracked)
        assert searcher.find((), bitset(range(p))) is None
        assert searcher.remaining == 0
        assert len(anchors) == p  # kept, these rows would hold p * p / 8 bytes
        assert limit <= max(held) < limit + row


class TestSiblingBatches:
    """A k >= 3 link miss asks for a run of sibling keys in the same call; that changes only the calls."""

    @staticmethod
    def searches(host, template, root, budget, requests, block):
        """Each request's (copy or exhaustion, remaining), and the keys of each find's calls, at this block."""
        keys: list[list[tuple[int, ...]]] = []
        has_edge = Hypergraph.has_edge

        def recording(self, rows):
            keys[-1].append(set(map(tuple, rows[:, :-1].tolist())))
            return has_edge(self, rows)

        searcher = _CopySearcher(host, template, root)
        searcher.remaining = budget
        out = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_PACK_BLOCK", block)
            mp.setattr(Hypergraph, "has_edge", recording)
            for y, bits in requests:
                keys.append([])
                try:
                    out.append((searcher.find(y, bits), searcher.remaining))
                except SearchBudgetExceeded:
                    out.append(("exceeded", searcher.remaining))
                    break
        return out, keys

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_batched_links_find_and_spend_as_one_key_calls(self, data):
        w = data.draw(st.sampled_from([3, 4]))
        n = data.draw(st.integers(w + 8, 22))
        host = sample_uniform_hypergraph(
            w, n, data.draw(st.sampled_from([0.15, 0.3, 0.5])), seed=data.draw(st.integers(0, 999))
        )
        template, root = data.draw(st.sampled_from([
            (tight_path_template(w - 1, w + 5), tuple(range(w - 1)) + tuple(range(6, w + 5))),
            (tight_path_template(w - 1, w + 3), ()),
        ]))
        budget = data.draw(st.integers(1, 600))
        requests = []
        for _ in range(data.draw(st.integers(2, 5))):
            vertices = data.draw(st.permutations(range(n)))
            allowed = sorted(data.draw(st.sets(st.sampled_from(vertices[len(root):]), min_size=1)))
            requests.append((vertices[:len(root)], bitset(allowed)))
        # a zero block caps every run at one key a call
        batched, batched_keys = self.searches(host, template, root, budget, requests, core._PACK_BLOCK)
        single, single_keys = self.searches(host, template, root, budget, requests, 0)
        assert batched == single
        assert all(len(call) == 1 for find in single_keys for call in find)
        for find, one_key in zip(batched_keys, single_keys):
            asked = [key for call in find for key in call]
            assert len(asked) == len(set(asked)) and len(find) <= len(one_key)

    def test_batches_cut_the_calls_of_a_backtracking_search(self):
        host = sample_uniform_hypergraph(3, 30, 0.35, seed=6)
        template, root = tight_path_template(2, 9), (0, 1, 7, 8)
        requests = []
        for call in range(6):
            order = sorted(range(30), key=lambda v: derive(6, call, v))
            requests.append((order[:4], bitset(order[4:])))
        batched, batched_keys = self.searches(host, template, root, 10_000, requests, core._PACK_BLOCK)
        single, single_keys = self.searches(host, template, root, 10_000, requests, 0)
        assert batched == single
        calls = [call for find in batched_keys for call in find]
        assert len(calls) < sum(len(find) for find in single_keys)
        assert max(map(len, calls)) > 1

    @pytest.mark.parametrize("w", [3, 4])
    def test_a_miss_asks_for_its_anchor_under_the_parent_streams_next_fits(self, monkeypatch, w):
        host = Hypergraph.complete(w, 40)
        template, root = tight_path_template(w - 1, w + 6), tuple(range(w - 1)) + tuple(range(7, w + 6))
        searcher = _CopySearcher(host, template, root)
        depth = next(d for d in range(1, len(searcher.order)) if searcher.anchors[d])
        prev = searcher.order[depth - 1]
        assert all(prev in others for others in searcher.anchors[depth])
        # root images, then the placed internals, with the parent stream's untaken fits left
        images = dict(zip(root, range(30, 40))) | dict(zip(searcher.order[:depth], range(depth)))
        bits = bitset(range(30))
        searcher._left[depth - 1], searcher._runs[depth - 1], searcher._run_cap = bitset([12, 15, 20, 26, 29]), 4, 6
        asked = []
        has_edge = Hypergraph.has_edge

        def recording(self, rows):
            asked.append(sorted(set(map(tuple, rows[:, :-1].tolist()))))
            return has_edge(self, rows)

        monkeypatch.setattr(Hypergraph, "has_edge", recording)
        pool = np.arange(30, dtype=np.int64)
        searcher._fits(depth, images, bitset(range(depth)), pool, bits)
        # one call a missing anchor, each with the anchor's key and its keys under the next three fits
        want = [
            sorted(tuple(sorted(c if u == prev else images[u] for u in others)) for c in (images[prev], 12, 15, 20))
            for others in searcher.anchors[depth]
        ]
        assert asked == want
        assert searcher._runs[depth - 1] == 6  # doubled once for the opening, then capped
        # the parent's next fit opens this depth again and finds every link memoised
        asked.clear()
        assert searcher._fits(depth, images | {prev: 12}, bitset(range(depth - 1)) | bitset([12]), pool, bits)
        assert asked == []

    @pytest.mark.parametrize("w", [3, 4])
    def test_a_search_that_never_backtracks_asks_one_key_a_call(self, monkeypatch, w):
        # every candidate fits on the complete host, so each depth takes its first
        # and no stream under a parent opens twice
        host = Hypergraph.complete(w, 60)
        widest = []
        has_edge = Hypergraph.has_edge

        def recording(self, rows):
            widest.append(len(set(map(tuple, rows[:, :-1].tolist()))))
            return has_edge(self, rows)

        monkeypatch.setattr(Hypergraph, "has_edge", recording)
        pairs = [(tuple(range(i, i + w - 1)), tuple(range(i + 10, i + w + 9))) for i in (0, 20)]
        family = connect_paths(host, pairs, range(40, 60), w - 1, 9, "tight", rounds=1)
        assert len(family.sequences) == 2
        assert widest and set(widest) == {1}


class TestCopySearchDigest:
    """Seeded copy searches, pinned by one digest of what they return and spend.

    Each case reuses one searcher for eight calls with seeded root images and
    growing reservoirs, on the host in edge form and in complement form.  A
    line records the embedding (or None, or the budget running out) and the
    budget spent so far, so any change of candidate order, backtracking or
    charging changes the digest.
    """

    CASES = [
        # (uniformity, n, p, host seed, template, root)
        (2, 40, 0.4, 1, power_path_template(2, 8), (0,)),
        (2, 40, 0.35, 2, connecting_path_template(2, 9), (0, 1, 7, 8)),
        (2, 40, 0.15, 3, connecting_path_template(1, 6), (0, 5)),
        (3, 24, 0.3, 4, tight_path_template(2, 8), (0, 1, 6, 7)),
        (3, 24, 0.5, 5, tight_path_template(2, 6), (0, 1, 4, 5)),
    ]

    def trace(self) -> list[str]:
        lines = []
        for c, (w, n, p, seed, template, root) in enumerate(self.CASES):
            g = sample_uniform_hypergraph(w, n, p, seed=seed)
            for form, host in (("edges", edge_twin(g)), ("complement", complement_twin(g))):
                searcher = _CopySearcher(host, template, root)
                for call in range(8):
                    order = sorted(range(n), key=lambda v: derive(seed, call, v))
                    y = order[:len(root)]
                    allowed = sorted(order[len(root):len(root) + 6 + 3 * call])
                    try:
                        emb = searcher.find(y, bitset(allowed))
                        out = None if emb is None else sorted(emb.items())
                    except SearchBudgetExceeded:
                        out = "exceeded"
                    spent = matcher.SEARCH_BUDGET - searcher.remaining
                    lines.append(f"{c} {form} {call} {out} {spent}")
                    if out == "exceeded":
                        break
        return lines

    def test_trace_digest(self, monkeypatch):
        lines = self.trace()
        for budget in (100, 40):
            monkeypatch.setattr(matcher, "SEARCH_BUDGET", budget)
            lines += [f"budget {budget}"] + self.trace()
        assert sum(" exceeded " in line for line in lines) == 18
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "9b5e3f624b6684b8e6c2db95566413a0af0eec3dcea2833937cb1312a81240d7"


class TestPartitionReservoir:
    def test_spec_sizes(self):
        parts = partition_reservoir(range(1024), 10)
        sizes = [len(p) for p in parts]
        assert sizes[:10] == [256, 128, 64, 51, 51, 51, 51, 51, 51, 51]
        assert sizes[10:] == [219]  # the remainder slice

    def test_single_round(self):
        parts = partition_reservoir(range(100), 1)
        assert [len(p) for p in parts] == [50, 50]

    def test_remainder_slice_completes_the_reservoir(self):
        parts = partition_reservoir(range(100), 2)
        assert sum(len(p) for p in parts) == 100
        flat = [v for p in parts for v in p]
        assert flat == sorted(flat)

    def test_empty_reservoir(self):
        with pytest.raises(ValueError):
            partition_reservoir((), 3)
        # the plan may leave the merge reservoir empty: no slices, no capacity
        assert round_sizes(0, 2) == []

    def test_disjoint_and_canonical(self):
        parts = partition_reservoir(range(37), 4)
        seen = set()
        for p in parts:
            assert seen.isdisjoint(p)
            seen |= set(p)
            assert list(p) == sorted(p)


class TestConnectionRequest:
    def test_validates_disjointness(self):
        t = Hypergraph(2, 2, [(0, 1)])
        host = complete_graph(9)
        with pytest.raises(ValueError):
            connect_family(host, t, (0,), [(1,), (1,)], (5, 6))
        with pytest.raises(ValueError):
            connect_family(host, t, (0,), [(5,)], (5, 6))
        with pytest.raises(ValueError):
            connect_family(host, t, (0,), [(1, 2)], (5, 6))
        # a root or a tuple that repeats a vertex
        with pytest.raises(ValueError):
            connect_family(host, t, (0, 0), [(1, 2)], (5, 6))
        with pytest.raises(ValueError):
            connect_family(host, t, (0, 1), [(1, 1)], (5, 6))

    def test_a_float_reservoir_vertex_is_refused_not_truncated(self):
        # 5.5 passed the disjointness check and was read as 5, a vertex of the
        # request: the path came out as (0, 1, 5, 6, 4, 5)
        with pytest.raises(ValueError, match=r"vertex 5\.5 is not an integer"):
            connect_paths(Hypergraph.complete(2, 12), [((0, 1), (4, 5))], [5.5, 6], 2, 6, "power")


    def test_a_request_vertex_outside_the_host_is_refused_before_any_search(self):
        # it ended as a ConnectFailure after 5 rounds, which a pipeline retries as bad luck
        with pytest.raises(ValueError, match=r"vertex 40 outside range\(12\)"):
            connect_paths(Hypergraph.complete(3, 12), [((0, 1), (40, 41))], range(2, 10), 2, 6, "tight")
        with pytest.raises(ValueError, match=r"vertex 12 outside range\(12\)"):
            connect_paths(Hypergraph.complete(2, 12), [((0, 1), (11, 12))], range(2, 10), 2, 6, "power")

    def test_a_root_vertex_outside_the_template_is_refused(self):
        # it raised KeyError: 99 from the copy searcher
        with pytest.raises(ValueError, match=r"vertex 99 outside range\(4\)"):
            connect_family(Hypergraph.complete(2, 30), connecting_path_template(1, 4), (0, 99), [(20, 21)], range(10))
        with pytest.raises(ValueError, match=r"vertex -1 outside range\(4\)"):
            connect_family(Hypergraph.complete(2, 30), connecting_path_template(1, 4), (-1, 3), [(20, 21)], range(10))


#: Vertices a request may hold by mistake: out of range(16), negative, a float or past int64.
_ODD_VERTEX = st.one_of(st.integers(-3, 19), st.sampled_from([-2 ** 63 - 1, 2 ** 63, 2 ** 70, 1.0, 2.5]),
                        st.floats(allow_nan=True, allow_infinity=True))


def draw_vertices(data, lo, hi, size, odd):
    """``size`` distinct vertices of [lo, hi]; with ``odd`` one of them replaced by an odd vertex or a repeat."""
    xs = data.draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size, unique=True))
    if odd and xs:
        xs[data.draw(st.integers(0, size - 1))] = data.draw(_ODD_VERTEX | st.sampled_from(xs))
    return xs


def split(xs, sizes):
    """``xs`` cut into consecutive lists of these sizes."""
    ends = np.cumsum([0, *sizes]).tolist()
    return [xs[a:b] for a, b in zip(ends, ends[1:])]


class TestConnectionBoundary:
    """Whatever vertices a request holds, the Connecting Lemma returns, refuses it or fails as a search.

    Requests are drawn from vertices 0..9 and reservoirs from 10..15 of a
    16-vertex host; one of the inputs, or none, holds an odd vertex.
    """

    @staticmethod
    def host(data, w):
        if data.draw(st.booleans()):
            return Hypergraph.complete(w, 16)
        return sample_uniform_hypergraph(w, 16, 0.7, data.draw(st.integers(0, 3)))

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_connect_paths(self, data):
        k = data.draw(st.integers(1, 2))
        mode = data.draw(st.sampled_from(["power", "tight"]))
        ell = data.draw(st.integers(2 * k + 1, 2 * k + 2))
        odd = data.draw(st.sampled_from([None, "pairs", "reservoir"]))
        sizes = data.draw(st.lists(st.sampled_from([k, k, k, k - 1, k + 1]), max_size=4).filter(
            lambda sizes: len(sizes) % 2 == 0 and sum(sizes) <= 10))
        ends = split(draw_vertices(data, 0, 9, sum(sizes), odd == "pairs"), sizes)
        pairs = list(zip(ends[::2], ends[1::2]))
        reservoir = draw_vertices(data, 10, 15, data.draw(st.sampled_from([6, 6, 4, 0])), odd == "reservoir")
        host = self.host(data, 2 if mode == "power" else k + 1)
        try:
            family = connect_paths(host, pairs, reservoir, k, ell, mode)
        except (ValueError, ConnectFailure):
            return
        assert [s[:k] + s[-k:] for s in family.sequences] == [tuple(a + b) for a, b in pairs]

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_connect_family(self, data):
        k = data.draw(st.integers(1, 2))
        template = data.draw(st.sampled_from([connecting_path_template(k, 2 * k + 2), tight_path_template(k, k + 3)]))
        odd = data.draw(st.sampled_from([None, "root", "tuples", "reservoir"]))
        root = draw_vertices(data, 0, template.n - 1, data.draw(st.integers(2, template.n)), odd == "root")
        arity = len(root)
        sizes = data.draw(st.lists(st.sampled_from([arity, arity, arity, arity - 1, arity + 1]), max_size=2).filter(
            lambda sizes: sum(sizes) <= 10))
        tuples = split(draw_vertices(data, 0, 9, sum(sizes), odd == "tuples"), sizes)
        reservoir = draw_vertices(data, 10, 15, data.draw(st.sampled_from([6, 6, 4, 0])), odd == "reservoir")
        host = self.host(data, template.k)
        try:
            copies, _ = connect_family(host, template, root, tuples, reservoir)
        except (ValueError, ConnectFailure):
            return
        assert [[emb[v] for v in root] for emb in copies] == tuples


class TestConnectFamily:
    def test_budget_exhaustion_on_a_host_without_a_copy(self, monkeypatch):
        args = (
            connecting_path_template(2, 7), (0, 1, 5, 6),
            [(0, 2, 4, 6), (8, 10, 12, 14)], range(20, 60),
        )
        # the exhaustive search proves that the triangle-free host has no copy
        with pytest.raises(ConnectFailure) as info:
            connect_family(bipartite_host(), *args)
        assert not info.value.details.get("budget_exhausted")
        monkeypatch.setattr(matcher, "SEARCH_BUDGET", 10)
        with pytest.raises(ConnectFailure) as info:
            connect_family(bipartite_host(), *args)
        assert info.value.details["budget_exhausted"]

    def test_empty_request(self):
        got = connect_family(complete_graph(9), Hypergraph(2, 2, [(0, 1)]), (0,), [], (5, 6, 7, 8))
        assert got == ([], [])

    def test_complete_host_full_matching(self):
        # reservoir honors the 4x slack hypothesis: 5 * 3 internals, |W| = 65
        host = complete_graph(75)
        reservoir = tuple(range(10, 75))
        template = power_path_template(2, 4)
        embeddings, _ = connect_family(host, template, (0,), [(i,) for i in range(5)], reservoir)
        assert len(embeddings) == 5
        internal = {h for emb in embeddings for tv, h in emb.items() if tv != 0}
        assert internal <= set(reservoir)
        assert len(internal) == 5 * 3
        seen: set[int] = set()
        for i, emb in enumerate(embeddings):
            assert emb[0] == i  # root image
            assert is_embedding(template, host, emb)
            vs = set(emb.values()) - {i}
            assert seen.isdisjoint(vs)
            seen |= vs

    def test_residuals_monotone_and_failure_report(self):
        host = Hypergraph(2, 12, [(0, 1)])  # nearly edgeless: nothing matchable
        with pytest.raises(ConnectFailure) as info:
            connect_family(host, power_path_template(2, 4), (0,), [(2,), (3,)], range(4, 12),
                           rounds=3)
        assert info.value.unmatched == [0, 1]
        traj = info.value.trajectory
        assert traj == sorted(traj, reverse=True)

    @pytest.mark.parametrize("phase", ["intra-connect", "merge"])
    def test_a_failure_is_raised_under_the_callers_phase(self, phase):
        host = Hypergraph(2, 12, [(0, 1)])  # nearly edgeless: nothing matchable
        with pytest.raises(ConnectFailure) as info:
            connect_paths(host, [((0, 1), (2, 3))], range(4, 12), k=2, ell=6, mode="power",
                          phase=phase)
        assert info.value.phase == phase
        assert str(info.value) == f"{phase}: 1 request(s) unmatched after 5 round(s)"

    def test_reservoir_too_small(self):
        with pytest.raises(ValueError):
            connect_family(complete_graph(12), power_path_template(2, 4), (0,),
                           [(i,) for i in range(5)], (10, 11))

    def test_determinism(self):
        host = sample_uniform_hypergraph(2, 60, 0.4, seed=3)
        args = (power_path_template(1, 3), (0, 2), [(0, 1), (2, 3)], range(10, 60))
        try:
            a = connect_family(host, *args)
            b = connect_family(host, *args)
            assert a == b
        except ConnectFailure:
            pass  # determinism of the failure is equally fine

    def test_threshold_scale_monte_carlo(self):
        # rooted single edge: connect 40 tuples to neighbors inside W in
        # G(600, 0.2), far above the degenerate threshold scale
        wins = 0
        trials = 60
        reservoir = tuple(range(300, 600))
        tuples = [(i,) for i in range(40)]
        for s in range(trials):
            host = sample_uniform_hypergraph(2, 600, 0.2, seed=900 + s)
            try:
                embeddings, _ = connect_family(
                    host, Hypergraph(2, 2, [(0, 1)]), (0,), tuples, reservoir
                )
            except ConnectFailure:
                continue
            wins += 1
            internal = {emb[1] for emb in embeddings}
            assert internal <= set(reservoir) and len(internal) == 40
        assert wins >= int(trials * 0.95)


class TestConnectPaths:
    def test_no_pairs(self):
        got = connect_paths(complete_graph(10), [], range(5, 10), k=2, ell=5, mode="power")
        assert got.sequences == []

    def test_complete_host_single_pair_min_length(self):
        host = complete_graph(9)
        got = connect_paths(host, [((0, 1), (2, 3))], range(4, 9), k=2, ell=5, mode="power")
        (seq,) = got.sequences
        assert seq[:2] == (0, 1) and seq[-2:] == (2, 3)
        assert is_path(host, seq, 2, "power")

    def test_tight_mode(self):
        host = Hypergraph.complete(3, 12)
        got = connect_paths(host, [((0, 1), (2, 3))], range(4, 12), k=2, ell=6, mode="tight")
        (seq,) = got.sequences
        assert is_path(host, seq, 2, "tight")
        assert got.internal_vertices() <= set(range(4, 12))

    def test_mode_uniformity_mismatch(self):
        with pytest.raises(ValueError):
            connect_paths(complete_graph(9), [], range(4, 9), k=2, ell=5, mode="tight")

    def test_length_precondition(self):
        with pytest.raises(ValueError):
            connect_paths(complete_graph(9), [], range(4, 9), k=2, ell=4, mode="power")

    def test_disjoint_paths_in_random_host(self):
        # moderately dense random host, several pairs: validate the contract
        # on every success (occasional failures are acceptable here)
        successes = 0
        for s in range(20):
            host = sample_uniform_hypergraph(2, 200, 0.55, seed=50 + s)
            pairs = [((4 * i, 4 * i + 1), (4 * i + 2, 4 * i + 3)) for i in range(5)]
            reservoir = range(40, 200)
            try:
                got = connect_paths(host, pairs, reservoir, k=2, ell=6, mode="power")
            except ConnectFailure:
                continue
            successes += 1
            used = set()
            template = connecting_path_template(2, 6)
            for (a, b), seq in zip(pairs, got.sequences):
                assert seq[:2] == a and seq[-2:] == b
                # a connecting path is an embedding of the CP template; the
                # end blocks' internal pairs are deliberately not required
                assert is_embedding(template, host, dict(enumerate(seq)))
                interior = set(seq[2:-2])
                assert interior <= set(reservoir)
                assert used.isdisjoint(interior)
                used |= interior
        assert successes >= 15


class TestConnectionDigest:
    """Seeded connections, pinned by one digest of what they return or how they fail.

    Each case makes three calls with seeded endpoint tuples and growing
    reservoirs, on the host in edge form and in complement form, at the
    default budget and three low ones.  A stream costs its pool size (24-44
    vertices here), so at 60 and 30 units nearly every line ends in the
    budget at its first rounds; at 250 units some connections finish and
    others run out partway, with a trajectory of several rounds.  A line
    records the paths (or the embeddings) and the trajectory, or the
    failure's phase, message and details, so any change of search order,
    round slicing, budget charges or failure reports changes the digest.
    """

    PATH_CASES = [
        # (k, mode, uniformity, n, p, host seed, ell, pairs, reservoir size)
        (1, "power", 2, 60, 0.25, 11, 4, 6, 30),
        (2, "power", 2, 80, 0.45, 12, 6, 4, 40),
        (2, "power", 2, 80, 0.35, 14, 7, 4, 44),
        (2, "tight", 3, 30, 0.5, 13, 6, 3, 16),
    ]
    # two root vertices joined through three internal ones: not a path
    FAN = Hypergraph(2, 5, [(0, 2), (1, 2), (2, 3), (0, 3), (3, 4), (1, 4), (2, 4)])

    @staticmethod
    def forms(w, n, p, seed):
        g = sample_uniform_hypergraph(w, n, p, seed=seed)
        return (("edges", edge_twin(g)), ("complement", complement_twin(g)))

    @staticmethod
    def outcome(call) -> tuple[str, str]:
        try:
            return "ok", call()
        except ConnectFailure as e:
            tag = "budget" if e.details.get("budget_exhausted") else "unmatched"
            return tag, f"{e.phase} {e.message} {sorted(e.details.items())}"

    def trace(self) -> list[str]:
        lines = []
        for c, (k, mode, w, n, p, seed, ell, npairs, res) in enumerate(self.PATH_CASES):
            for form, host in self.forms(w, n, p, seed):
                for call in range(3):
                    order = sorted(range(n), key=lambda v: derive(seed, call, v))
                    ends = [tuple(order[k * i:k * i + k]) for i in range(2 * npairs)]
                    pairs = list(zip(ends[::2], ends[1::2]))
                    reservoir = order[2 * k * npairs:2 * k * npairs + res + 8 * call]

                    def run():
                        fam = connect_paths(host, pairs, reservoir, k, ell, mode)
                        return f"{fam.sequences} {fam.trajectory}"
                    tag, out = self.outcome(run)
                    lines.append(f"{c} {form} {call} {tag} {out}")
        n, seed = 60, 15
        for form, host in self.forms(2, n, 0.4, seed):
            for call in range(3):
                order = sorted(range(n), key=lambda v: derive(seed, call, v))
                tuples = [tuple(order[2 * i:2 * i + 2]) for i in range(4)]
                reservoir = order[8:8 + 24 + 8 * call]

                def run():
                    embeddings, trajectory = connect_family(
                        host, self.FAN, (0, 1), tuples, reservoir
                    )
                    return f"{[sorted(e.items()) for e in embeddings]} {trajectory}"
                tag, out = self.outcome(run)
                lines.append(f"fan {form} {call} {tag} {out}")
        return lines

    def test_digest(self, monkeypatch):
        lines = self.trace()
        for budget in (250, 60, 30):
            monkeypatch.setattr(matcher, "SEARCH_BUDGET", budget)
            lines += [f"budget {budget}"] + self.trace()
        tags = [line.split()[3] for line in lines if not line.startswith("budget")]
        assert (tags.count("ok"), tags.count("unmatched"), tags.count("budget")) == (14, 38, 68)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "a6196c987001df16bea8be71c0676f715171fb5f81619b8b16a5b4341110f864"


class TestSearchBudget:
    """Every copy search is bounded: each entry point ends in its budget failure."""

    @pytest.mark.parametrize("phase,call", [
        ("factor", lambda: factor_in_window(bipartite_host(), triangle(), range(60), quota=5)),
        ("factor", lambda: almost_factor(bipartite_host(), triangle(), epsilon=0.5)),
        ("connect", lambda: connect_paths(
            bipartite_host(), [((0, 2), (4, 6))], range(20, 60), k=2, ell=7, mode="power"
        )),
        # the k=2 backbone holds triangles, so the factor phase fails first
        ("factor", lambda: build_chain_absorber(
            bipartite_host(66), 2, "power", ell=5, absorb_size=1
        )),
    ], ids=["factor_in_window", "almost_factor", "connect_paths", "build_chain_absorber"])
    def test_every_entry_point_ends_in_its_budget_failure(self, monkeypatch, phase, call):
        monkeypatch.setattr(matcher, "SEARCH_BUDGET", 10)
        with pytest.raises(PhaseFailure) as info:
            call()
        failure = info.value
        assert failure.phase == phase
        # factor phases name the exhaustion in their message, connect phases in their details
        assert (failure.message == "search budget exhausted"
                or failure.details.get("budget_exhausted"))
