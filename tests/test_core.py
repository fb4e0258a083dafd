import io
import math
import re
import sys
import tempfile
import threading
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampow import cli, core
from hampow.absorber import Backbone
from hampow.pipeline import Parameters
from hampow.randmodels import sample_uniform_hypergraph
from hampow.core import (
    MAX_VERTICES,
    CycleCertificate,
    Hypergraph,
    VertexTuple,
    _decode_codes,
    _encode_rows,
    _in_sorted,
    check_encodable,
    code_dtype,
    connecting_path_template,
    is_path,
    missing_edge,
    power_path_template,
    required_edges,
    tight_path_template,
    uniformity,
    verify_certificate,
)

from oracles import complement_twin, edge_twin, is_edge, is_embedding, power_cycle_pairs, row_set, tight_windows


def complete_graph(n):
    return Hypergraph(2, n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestVertexTuple:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            VertexTuple((1, 2, 1))

    def test_a_float_vertex_is_refused_by_name_and_numpy_ints_are_read(self):
        for bad in ([0, 1.7], [0, 2.0], [np.float64(0.5)]):
            with pytest.raises(ValueError, match=re.escape(f"vertex {bad[-1]!r} is not an integer")):
                VertexTuple(bad)
        t = VertexTuple([np.int32(3), np.int64(5), 7])
        assert t == (3, 5, 7) and all(type(v) is int for v in t)


class TestHypergraph:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Hypergraph(2, 3, [(0, 0)])
        with pytest.raises(ValueError):
            Hypergraph(2, 3, [(0, 3)])
        with pytest.raises(ValueError):
            Hypergraph(2, 3, [(0, 1), (1, 0)])  # duplicate after sorting
        with pytest.raises(ValueError):
            Hypergraph(3, 4, [(0, 1)])

    def test_a_float_vertex_of_a_sequence_is_refused_by_name(self):
        with pytest.raises(ValueError, match=r"vertex 1\.5 is not an integer"):
            Hypergraph(2, 3, [(0, 1.5)])

    def test_a_float_array_is_refused_by_its_first_vertex(self):
        for rows in ([[0.2, 1.9]], [[0.0, 1.0]]):
            with pytest.raises(ValueError, match=r"vertex \S*0\.[02]\S* is not an integer"):
                Hypergraph(2, 3, np.array(rows))
        # an object array of Python ints is read like the sequences it holds
        assert Hypergraph(2, 3, np.array([[0, 2]], dtype=object)) == Hypergraph(2, 3, [(0, 2)])

    def test_membership_and_count(self):
        g = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
        assert g.edge_count == 2
        assert g.has_edge(np.array([[2, 1, 0], [0, 1, 3]])).tolist() == [True, False]
        assert g.has_edge(np.array([[0, 1]])).tolist() == [False]

    def test_neighbors_sorted(self):
        g = Hypergraph(2, 5, [(0, 3), (0, 1), (2, 3)])
        assert g.neighbors(0).tolist() == [1, 3]
        assert g.neighbors(3).tolist() == [0, 2]
        assert g.neighbors(4).tolist() == []

    def test_complete_is_implicit(self):
        g = Hypergraph.complete(3, 100)
        assert g.is_complete
        assert g.edge_count == 161700
        assert g.has_edge(np.array([[5, 50, 99], [5, 5, 99]])).tolist() == [True, False]

    def test_text_round_trip_and_golden_bytes(self):
        g = Hypergraph(2, 4, [(2, 3), (0, 1), (0, 2)])
        text = g.to_text()
        assert text == "2 4 3\n0 1\n0 2\n2 3\n"
        assert Hypergraph.from_text(text) == g

    def test_text_rejects_unsorted_edge_line(self):
        with pytest.raises(ValueError):
            Hypergraph.from_text("2 3 1\n1 0\n")

    @pytest.mark.parametrize("text", ["2 3 1\n0 1\n1 2\n", "2 3 -2\n0 1\n1 2\n"])
    def test_text_rejects_lines_beyond_the_edge_count(self, text):
        with pytest.raises(ValueError):
            Hypergraph.from_text(text)

    @pytest.mark.parametrize("text,message", [
        ("2 4 2\n0 1\n\n", "must have 2 distinct vertices"),       # blank edge line
        ("2 4 2\n0 1\n0 1 2\n", "must have 2 distinct vertices"),  # wrong width
        ("2 4 1\n0 4\n", "out of range"),
        ("2 4 2\n0 1\n0 1\n", "duplicate edges"),
        ("2 4 1\n0 x\n", "invalid literal"),
        ("2 4 1\n1 1\n", "not strictly increasing"),
        ("1 4 1\n0\n", "uniformity must be >= 2"),
    ])
    def test_text_defects_name_the_problem(self, text, message):
        with pytest.raises(ValueError, match=message):
            Hypergraph.from_text(text)

    def test_all_blank_edge_lines_raise_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must have 2 distinct vertices"):
                Hypergraph.from_text("2 5 2\n\n\n")

    def test_text_refuses_more_vertices_than_the_limit_before_the_edges(self):
        assert Hypergraph.from_text(f"2 {MAX_VERTICES} 0\n").n == MAX_VERTICES
        with pytest.raises(ValueError, match=f"limit of {MAX_VERTICES} vertices"):
            Hypergraph.from_text(f"2 {MAX_VERTICES + 1} 1\n0 x\n")

    def test_text_allows_trailing_blank_lines(self):
        assert Hypergraph.from_text("2 3 1\n0 1\n\n  \n") == Hypergraph(2, 3, [(0, 1)])


class TestConstructorParity:
    """Edges as an int64 array, an int32 array or tuples build one graph, or raise one message."""

    @given(data=st.data(), k=st.integers(2, 4))
    @settings(max_examples=200, deadline=None)
    def test_arrays_and_tuples_agree(self, data, k):
        n = data.draw(st.integers(k, 12))
        edges = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True),
            min_size=1, max_size=12, unique_by=frozenset,
        ))
        defect = data.draw(st.sampled_from(
            [None, "wrong width", "repeated vertex", "out of range", "duplicate edge"]
        ))
        i = data.draw(st.integers(0, len(edges) - 1))
        j, other = data.draw(st.permutations(range(k)))[:2]
        if defect == "wrong width":
            # every edge, so that the arrays stay rectangular
            shorter = data.draw(st.booleans())
            edges = [e[:-1] if shorter else e + [n + 1] for e in edges]
        elif defect == "repeated vertex":
            edges[i][j] = edges[i][other]
        elif defect == "out of range":
            edges[i][j] = data.draw(st.integers(-10 ** 6, -1) | st.integers(n, 10 ** 6))
        elif defect == "duplicate edge":
            edges.append(list(reversed(edges[i])))
        edges = [data.draw(st.permutations(e)) for e in data.draw(st.permutations(edges))]

        def build(given_edges):
            try:
                return Hypergraph(k, n, given_edges)
            except ValueError as err:
                return str(err)

        w = len(edges[0])
        # small blocks, so that a defect often lies past the first
        with mock.patch.object(core, "_BLOCK", data.draw(st.integers(1, 5))):
            got = [
                build(np.array(edges, dtype=np.int64).reshape(-1, w)),
                build(np.array(edges, dtype=np.int32).reshape(-1, w)),
                build([tuple(e) for e in edges]),
            ]
        assert got[0] == got[1] == got[2]
        # the first edge that is no edge is named, as given or sorted
        bad = next((e for e in edges if len(set(e)) != k or not 0 <= min(e) <= max(e) < n), None)
        if defect is None:
            assert set(got[0].edges()) == {tuple(sorted(e)) for e in edges}
        elif bad is None:
            assert got[0] == "duplicate edges are not allowed"
        elif len(bad) != k or len(set(bad)) != k:
            assert got[0] == f"edge {tuple(bad)} must have {k} distinct vertices"
        else:
            assert got[0] == f"edge {tuple(sorted(bad))} out of range [0, {n})"


class TestEdgeCodes:
    """An edge's code is the lexicographic rank of its sorted vertex tuple."""

    @given(data=st.data(), k=st.integers(2, 4), n=st.integers(4, 16))
    @settings(max_examples=60, deadline=None)
    def test_codes_are_lexicographic_ranks(self, data, k, n):
        every = np.array(list(combinations(range(n), k)), dtype=np.int64)
        assert np.array_equal(_encode_rows(every.T, n), np.arange(len(every)))
        # any order, repeats allowed
        codes = data.draw(st.lists(st.integers(0, len(every) - 1)))
        rows = _decode_codes(np.array(codes, dtype=np.int64), n, k)
        assert rows.shape == (len(codes), k)
        assert np.array_equal(rows, every[codes])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_largest_encodable_host_round_trips(self, k):
        n = round(2 ** (62 / k))
        n -= n ** k >= 2 ** 62
        check_encodable(k, n)
        with pytest.raises(ValueError, match="edge-encoding range"):
            check_encodable(k, n + 1)
        top = math.comb(n, k) - 1
        rng = np.random.default_rng(k)
        codes = np.concatenate([[top, top - 1, 1, 0], rng.integers(0, top, 1000)]).astype(np.int64)
        rows = _decode_codes(codes, n, k)
        assert rows[0].tolist() == list(range(n - k, n))
        assert rows[3].tolist() == list(range(k))
        assert np.all(rows[:, 1:] > rows[:, :-1]) and rows.min() >= 0 and rows.max() < n
        assert np.array_equal(_encode_rows(rows.T, n), codes)

    @given(data=st.data(), k=st.integers(2, 4), n=st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_the_rank_table_and_the_falling_factorial_agree(self, data, k, n):
        # rows with repeated, unsorted, negative and >= n vertices, and the host on no vertices
        vertex = st.integers(-3, n + 2) | st.sampled_from([-2 ** 63, 2 ** 63 - 1])
        rows = np.array(data.draw(st.lists(st.lists(vertex, min_size=k, max_size=k), max_size=30)),
                        dtype=np.int64).reshape(-1, k)
        every = np.array(list(combinations(range(n), k)), dtype=np.int64).reshape(-1, k)
        edges = every[np.random.default_rng(data.draw(st.integers(0, 99))).random(len(every)) < 0.5]
        asked = np.concatenate([rows, every[:, ::-1]])
        inside = np.all((asked >= 0) & (asked < n), axis=1)  # an outside vertex has a meaningless code
        answers = []
        for limit in (core.MAX_VERTICES, 0):  # the table, then the falling factorials
            with mock.patch.object(core, "MAX_VERTICES", limit):
                answers.append((_encode_rows(asked[inside].T, n).tolist(),
                                Hypergraph(k, n, edges).has_edge(asked).tolist()))
        assert answers[0] == answers[1]
        assert _encode_rows(every.T, n).tolist() == list(range(len(every)))

    def test_the_rank_table_is_cached_and_read_only(self):
        table = core._rank_table(10, 3)
        assert core._rank_table(10, 3) is table and table.shape == (2, 10)
        assert table[:, 0].tolist() == [math.comb(10, 3) - 10 - math.comb(9, 3), math.comb(9, 2)]
        with pytest.raises(ValueError, match="read-only"):
            table[1, 0] = 7

    def test_codes_outside_the_rank_range_are_refused(self):
        with pytest.raises(ValueError, match="outside"):
            _decode_codes(np.array([0, math.comb(6, 3)]), 6, 3)


class TestTextFuzz:
    """Defective edge lines raise ValueError with a message, never another error."""

    @given(data=st.data(), k=st.integers(2, 4), n=st.integers(5, 12))
    @settings(max_examples=200, deadline=None)
    def test_mutated_edge_lines(self, data, k, n):
        edges = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True).map(sorted),
            min_size=1, max_size=12, unique_by=tuple,
        ))
        lines = [list(e) for e in edges]
        i = data.draw(st.integers(0, len(lines) - 1))
        j = data.draw(st.integers(0, k - 1))
        kind = data.draw(st.sampled_from(
            ["truncated", "reordered", "negative", "too large", "non-increasing", "duplicate"]
        ))
        m = len(lines)
        if kind == "truncated":
            m += data.draw(st.integers(1, 3))
        elif kind == "reordered":
            lines = data.draw(st.permutations(lines))
        elif kind == "negative":
            lines[i][j] = -data.draw(st.integers(1, 2 ** 70))
        elif kind == "too large":
            lines[i][j] = n + data.draw(st.integers(0, 2 ** 70))
        elif kind == "non-increasing":
            lines[i][j], lines[i][-1 - j] = lines[i][-1 - j], lines[i][j]
            if j == k - 1 - j:
                lines[i][j] = lines[i][j - 1]
        else:
            lines.append(list(lines[i]))
            m += 1
        text = f"{k} {n} {m}\n" + "".join(" ".join(map(str, e)) + "\n" for e in lines)
        if kind == "reordered":
            assert Hypergraph.from_text(text) == Hypergraph(k, n, edges)
            return
        with pytest.raises(ValueError) as err:
            Hypergraph.from_text(text)
        assert str(err.value)

    @given(text=st.text(alphabet="0123456789 -\n", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_parses_or_raises_value_error(self, text):
        try:
            g = Hypergraph.from_text("3 9 2\n" + text)
        except ValueError as err:
            assert str(err)
        else:
            assert Hypergraph.from_text(g.to_text()) == g


def edge_sets(k, n):
    """Strategy: a random edge set of a k-uniform hypergraph on n vertices."""
    every = list(combinations(range(n), k))
    return st.lists(st.booleans(), min_size=len(every), max_size=len(every)).map(
        lambda keep: [e for e, kept in zip(every, keep) if kept]
    )


class TestComplementForm:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_both_forms_answer_alike(self, data):
        k = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(0, 8))
        g = Hypergraph(k, n, data.draw(edge_sets(k, n)))
        c = complement_twin(g)
        assert c._complement and not g._complement
        assert c.edge_count == g.edge_count
        assert list(c.edges()) == list(g.edges())
        assert c.edge_codes().tolist() == g.edge_codes().tolist()
        assert c.to_text() == g.to_text()
        assert c == g and g == c and hash(c) == hash(g)
        assert c.is_complete == (g.edge_count == math.comb(n, k))
        probes = np.array(list(product(range(-1, n + 1), repeat=k)), dtype=np.int64)
        assert c.has_edge(probes).tolist() == g.has_edge(probes).tolist()
        if k == 2:
            for v in range(n):
                assert c.neighbors(v).tolist() == g.neighbors(v).tolist()
        other = Hypergraph(k, n, data.draw(edge_sets(k, n)))
        assert c != other or g == other

    def test_complete_is_the_empty_complement(self):
        g = Hypergraph.complete(2, 5)
        assert g.is_complete and g.edge_count == 10
        assert g == complement_twin(complete_graph(5)) == complete_graph(5)
        assert g.neighbors(2).tolist() == [0, 1, 3, 4]


class TestDeferredCodes:
    """``from_codes`` with a function draws the codes on their first read, once."""

    @pytest.mark.parametrize("complement", [False, True])
    def test_codes_are_drawn_once_on_first_read(self, complement):
        eager = Hypergraph(3, 7, [(0, 1, 2), (1, 3, 6), (2, 4, 5)])
        codes = eager.edge_codes()
        calls = []

        def draw():
            calls.append(1)
            return codes

        g = Hypergraph.from_codes(3, 7, draw, complement=complement)
        twin = Hypergraph.from_codes(3, 7, codes, complement=complement)
        assert calls == [] and g.k == 3 and g.n == 7
        assert g.edge_count == twin.edge_count
        assert g.has_edge(np.array([[6, 3, 1], [0, 1, 3]])).tolist() == [not complement, complement]
        assert list(g.edges()) == list(twin.edges()) and g == twin
        assert calls == [1]
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            g.missing

    def test_racing_first_reads_agree(self):
        # every thread reads a fresh deferred host at once; a draw may run
        # twice, but each reader must see the one deterministic array
        want = np.arange(0, 4950, 3, dtype=np.int64)
        hosts = [Hypergraph.from_codes(2, 100, lambda: want.copy()) for _ in range(40)]
        seen = []
        start = threading.Barrier(6)

        def read():
            start.wait(timeout=10)
            seen.extend((i, g.edge_count, is_edge(g, [0, 4])) for i, g in enumerate(hosts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(seen) == sorted((i, want.size, True) for i in range(40) for _ in range(6))
        assert all(np.array_equal(g._codes, want) for g in hosts)


class TestBatchedMembership:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_answer_like_the_edge_set(self, data):
        k = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(0, 8))
        g = Hypergraph(k, n, data.draw(edge_sets(k, n)))
        edge_set = set(g.edges())
        width = data.draw(st.sampled_from([k, k, k - 1, k + 1]))
        dtype = data.draw(st.sampled_from([np.int64, np.int32, np.uint64]))
        info = np.iinfo(dtype)
        # rows that are edges or non-edges in any vertex order, and rows that
        # repeat a vertex or hold one outside range(n) or at an end of the dtype
        vertex = st.integers(max(info.min, -2), n + 1) | st.sampled_from([info.min, info.max])
        row = st.lists(vertex, min_size=width, max_size=width)
        if n >= width:
            row |= st.sampled_from(sorted(combinations(range(n), width))).flatmap(st.permutations)
        rows = data.draw(st.lists(row, max_size=30))
        batch = np.array(rows, dtype=dtype).reshape(-1, width)
        expected = [tuple(sorted(r)) in edge_set for r in rows]
        for host in (g, complement_twin(g)):
            got = host.has_edge(batch)
            assert got.dtype == bool and got.tolist() == expected
            for i in range(len(rows)):
                assert host.has_edge(batch[i:i + 1]).tolist() == [expected[i]]

    @pytest.mark.parametrize("host", [Hypergraph(2, 3, [(0, 1)]), Hypergraph.complete(2, 3)])
    def test_a_vertex_that_is_not_an_integer_is_no_edge(self, host):
        # a cast would truncate 1.5 or 0.9 and 1.2 to the edge (0, 1)
        assert host.has_edge(np.array([[0, 1]])).tolist() == [True]
        assert host.has_edge(np.array([[0, 1.5], [0.9, 1.2], [0.0, 1.0]])).tolist() == [False] * 3
        assert host.has_edge(np.array([[0, 1]], dtype=np.uint8)).tolist() == [True]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_empty_and_wrong_width_batches(self, k):
        for host in (Hypergraph(k, 6, [tuple(range(k))]), Hypergraph.complete(k, 6)):
            empty = host.has_edge(np.empty((0, k), dtype=np.int64))
            assert empty.dtype == bool and empty.shape == (0,)
            assert host.has_edge(np.arange(2 * (k + 1)).reshape(2, k + 1)).tolist() == [False] * 2
            # one vertex set is asked as a one-row batch: anything but a 2-D array is refused
            for vertices in (list(range(k)), tuple(range(k)), np.arange(k), np.empty(0, dtype=np.int64),
                             np.zeros((1, 1, k), dtype=np.int64), 7):
                with pytest.raises(ValueError, match="rows of a 2-D array"):
                    host.has_edge(vertices)


class TestCodeDtype:
    """A host's codes are int32 when every code fits, C(n, k) <= 2**31 - 1, and int64 otherwise."""

    def test_the_rule(self):
        assert code_dtype(2 ** 31 - 1) is np.int32
        assert code_dtype(2 ** 31) is np.int64
        assert Hypergraph(3, 1000, [(0, 1, 2)])._codes.dtype == np.int32
        assert Hypergraph.complete(2, 70_000)._codes.dtype == np.int64

    @pytest.mark.parametrize("n,dtype", [(65536, np.int32), (65537, np.int64)])
    def test_hosts_on_both_sides_of_the_edge_answer_like_a_set(self, n, dtype):
        # C(65536, 2) = 2,147,450,880 <= 2**31 - 1 < C(65537, 2)
        for seed in range(4):
            g = sample_uniform_hypergraph(2, n, 1e-9, seed)
            assert g._codes.dtype == dtype
            edges = set(g.edges())
            rng = np.random.default_rng(seed)
            rows = np.concatenate([np.array(sorted(edges), dtype=np.int64).reshape(-1, 2),
                                   rng.integers(0, n, (50, 2)), [[n - 2, n - 1], [0, 1]]])
            expected = [tuple(sorted(r)) in edges for r in rows.tolist()]
            assert g.has_edge(rows).tolist() == expected
            assert g.has_edge(rows[:, ::-1]).tolist() == expected
            for u, w in edges:
                assert w in g.neighbors(u).tolist() and u in g.neighbors(w).tolist()

    def test_a_key_that_wraps_in_the_cast_is_no_member(self):
        table = np.array([0, 3, 7, 2 ** 31 - 2], dtype=np.int32)
        keys = np.concatenate([table.astype(np.int64) + 2 ** 32, table, [-2 ** 32, 2 ** 31]])
        assert _in_sorted(keys, table).tolist() == [False] * 4 + [True] * 4 + [False] * 2


class TestAdjacency:
    """``neighbors`` and ``neighbor_bits`` against a brute-force adjacency, in both storage forms and both layouts."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_a_brute_force_adjacency(self, data):
        n = data.draw(st.integers(1, 12))
        isolated = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        pairs = [e for e in combinations(range(n), 2) if not isolated & set(e)]
        kind = data.draw(st.sampled_from(["empty", "all", "some"]))
        if kind == "some":
            pairs = [e for e in pairs if data.draw(st.booleans())]
        g = Hypergraph(2, n, [] if kind == "empty" else pairs)
        edges = set(g.edges())
        hosts = [g, complement_twin(g)]
        if g.edge_count == math.comb(n, 2):
            hosts.append(Hypergraph.complete(2, n))
        for host in hosts:
            # the first call builds the rows, whichever vertex and method it asks
            bits_first = data.draw(st.booleans())
            for v in data.draw(st.permutations(range(n))):
                if bits_first:
                    bits = host.neighbor_bits(v)
                row = host.neighbors(v)
                if not bits_first:
                    bits = host.neighbor_bits(v)
                expected = [w for w in range(n) if (min(v, w), max(v, w)) in edges]
                assert row.tolist() == expected
                assert bits == sum(1 << w for w in expected)

    @staticmethod
    def assert_rows_match_its_edges(host):
        dense = np.zeros((host.n, host.n), dtype=bool)
        u, w = np.array(list(host.edges()), dtype=np.int64).reshape(-1, 2).T
        dense[u, w] = dense[w, u] = True
        for v in range(host.n):
            assert np.array_equal(host.neighbors(v), np.flatnonzero(dense[v]))
            assert host.neighbor_bits(v) == sum(1 << w for w in np.flatnonzero(dense[v]).tolist())

    @pytest.mark.parametrize("seed", [3, 4])
    def test_rows_built_over_several_blocks_match_a_dense_adjacency(self, seed):
        # more stored pairs than one block of the row build, and a partial last
        # block: the CSR sorts two keys a pair, the packed rows flip two bits a pair
        sparse, dense, middle = (sample_uniform_hypergraph(2, n, p, seed)
                                 for n, p in [(1200, 0.025), (1200, 0.975), (300, 0.5)])
        assert dense._complement and not middle._complement
        for host, packed in [(sparse, False), (dense, False), (middle, True), (complement_twin(middle), True)]:
            assert host._codes.size > core._BLOCK and 2 * host._codes.size % core._BLOCK
            self.assert_rows_match_its_edges(host)
            assert isinstance(host._adj, np.ndarray) == packed

    @pytest.mark.parametrize("n", [16, 21, 40])
    @pytest.mark.parametrize("complement", [False, True])
    def test_the_smaller_layout_is_built_on_each_side_of_the_threshold(self, n, complement):
        # packed rows take n * ceil(n / 8) bytes, the CSR two int32 ids a stored pair
        least = -(-n * ((n + 7) // 8) // 8)  # the fewest stored pairs the packed rows fit in
        codes = np.random.default_rng(n).choice(math.comb(n, 2), least, replace=False)
        for stored, packed in ((least, True), (least - 1, False)):
            host = Hypergraph.from_codes(2, n, np.sort(codes[:stored]), complement=complement)
            self.assert_rows_match_its_edges(host)
            assert isinstance(host._adj, np.ndarray) == packed

    @pytest.mark.parametrize("host", [Hypergraph(2, 2000, ()), Hypergraph.complete(2, 2000)])
    def test_a_host_that_stores_no_pair_builds_the_csr(self, host):
        # packed rows would hold 0.5 MB for nothing stored
        vertices = [0, 1, 999, 1998, 1999]
        for v in vertices:
            expected = [w for w in range(2000) if w != v] if host.is_complete else []
            assert host.neighbors(v).tolist() == expected
            assert host.neighbor_bits(v) == sum(1 << w for w in expected)
        assert isinstance(host._adj, tuple)

    def test_a_dense_complement_host_builds_packed_rows(self):
        host = sample_uniform_hypergraph(2, 203, 0.9, 5)
        assert host._complement
        self.assert_rows_match_its_edges(host)
        assert isinstance(host._adj, np.ndarray) and host._adj.shape == (203, 26)

    @pytest.mark.parametrize("host", [complete_graph(5), Hypergraph.complete(2, 5)])
    def test_a_vertex_outside_the_range_is_refused(self, host):
        for v in (-1, 5, 7):
            with pytest.raises(ValueError, match=rf"vertex {v} outside range\(5\)"):
                host.neighbors(v)
            with pytest.raises(ValueError, match=rf"vertex {v} outside range\(5\)"):
                host.neighbor_bits(v)
        assert host._adj is None  # refused before the rows are built

    @pytest.mark.parametrize("twin", [False, True])
    def test_a_vertex_that_is_not_an_integer_is_refused_by_name(self, twin):
        host = Hypergraph(2, 3, [(0, 1)])
        host = complement_twin(host) if twin else host
        assert host.neighbor_bits(1) == 0b1  # a kept row is not read for 1.0 either
        for v in (1.5, 1.0, np.float64(1.0)):
            for ask in (host.neighbors, host.neighbor_bits):
                with pytest.raises(ValueError, match=rf"vertex {re.escape(repr(v))} is not an integer"):
                    ask(v)

    @pytest.mark.parametrize("host", [Hypergraph(3, 5, [(0, 1, 2)]), Hypergraph.complete(3, 5)])
    def test_a_host_of_another_uniformity_is_refused(self, host):
        for ask in (lambda: host.neighbors(0), lambda: host.neighbor_bits(0)):
            with pytest.raises(ValueError, match="requires a 2-uniform hypergraph"):
                ask()
        assert host._adj is None

    def test_the_row_build_peaks_within_a_small_multiple_of_its_output(self):
        # both orientations are one array of keys, sorted and reduced to the
        # rows in place: the output plus temporaries of a fraction of its size
        codes = sample_uniform_hypergraph(2, 1500, 0.92, 7)._codes
        tracemalloc.start()
        try:
            starts, rows = core._csr(codes, 1500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (starts.nbytes + rows.nbytes)

    def test_rows_built_over_several_scaled_stretches_match_a_dense_adjacency(self):
        # from n = 1500 up a stretch holds one pair per 64 bytes of rows, more than
        # _PACK_BLOCK; both storage forms of the host are past the packed threshold.
        # The CSR's stretches hold one pair per 64 bytes of its keys, 8 bytes a
        # pair: about eight of them, whichever side the host stores
        n = 1500  # n % 8 != 0: the packed rows end in padding bits
        dense_host = sample_uniform_hypergraph(2, n, 0.92, 7)
        edges = core._decode_codes(dense_host.edge_codes(), n, 2)
        dense = np.zeros((n, n), dtype=bool)
        dense[edges[:, 0], edges[:, 1]] = dense[edges[:, 1], edges[:, 0]] = True
        per = n * ((n + 7) // 8) // 64
        assert per > core._PACK_BLOCK and dense_host._complement
        for host in (dense_host, edge_twin(dense_host)):  # non-edges stored, then edges
            assert host._codes.size >= 3 * per  # several stretches
            assert host._codes.size // 8 > core._PACK_BLOCK  # several CSR stretches
            # both layouts hold the stored pairs; the CSR's rows ascend: row-major positions v * n + w
            stored = dense != host._complement
            np.fill_diagonal(stored, False)
            rows = core._packed_rows(host._codes, n)
            assert np.array_equal(np.unpackbits(rows, axis=1, count=n, bitorder="little"), stored)
            starts, ids = core._csr(host._codes, n)
            positions = np.repeat(np.arange(n), np.diff(starts)) * n + ids
            assert np.array_equal(positions, np.flatnonzero(stored))
            for v in (0, 1, 749, n - 2, n - 1):
                assert np.array_equal(host.neighbors(v), np.flatnonzero(dense[v]))
            assert isinstance(host._adj, np.ndarray)

    def test_the_packed_row_build_peaks_within_half_again_its_output(self):
        # the pairs set their bits a stretch of rows at a time, with a few
        # bytes a pair of temporaries, on the codes the CSR case above sorts
        codes = sample_uniform_hypergraph(2, 1500, 0.92, 7)._codes
        tracemalloc.start()
        try:
            rows = core._packed_rows(codes, 1500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape == (1500, 188)
        assert peak <= 1.5 * rows.nbytes


class TestTemplates:
    def test_power_path_examples(self):
        assert power_path_template(2, 8).edge_count == 13
        assert power_path_template(1, 2).edge_count == 1
        assert sorted(power_path_template(1, 2).edges()) == [(0, 1)]
        k4 = power_path_template(3, 4)
        assert k4.edge_count == 6

    def test_connecting_path_examples(self):
        assert connecting_path_template(2, 8).edge_count == 11
        assert sorted(connecting_path_template(1, 3).edges()) == [(0, 1), (1, 2)]
        assert connecting_path_template(2, 5).edge_count == 5

    def test_tight_path_examples(self):
        assert tight_path_template(2, 8).edge_count == 6
        assert sorted(tight_path_template(2, 3).edges()) == [(0, 1, 2)]
        assert tight_path_template(3, 7).edge_count == 4

    def test_preconditions(self):
        with pytest.raises(ValueError):
            power_path_template(0, 5)
        with pytest.raises(ValueError):
            power_path_template(2, 1)
        with pytest.raises(ValueError):
            connecting_path_template(2, 4)
        with pytest.raises(ValueError):
            tight_path_template(2, 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_edge_count_formulas(self, k):
        for ell in range(k + 1, 21):
            assert power_path_template(k, ell).edge_count == k * ell - k * (k + 1) // 2
            if ell >= 2 * k + 1:
                expected = k * ell - k * (k + 1) // 2 - k * (k - 1)
                assert connecting_path_template(k, ell).edge_count == expected
            assert tight_path_template(k, ell).edge_count == ell - k

    @pytest.mark.parametrize("build", [
        lambda: power_path_template(2, 200_000),
        lambda: tight_path_template(2, 200_000),
        lambda: Backbone(100, 5, "power").graph,
    ], ids=["power-path", "tight-path", "backbone"])
    def test_traced_peak_is_a_few_words_an_edge(self, build):
        # rows, codes and fixed-size blocks of temporaries; sets of vertex
        # tuples took about 300 bytes an edge
        tracemalloc.start()
        try:
            g = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * g.edge_count

    def test_reversed_path_is_a_path_between_reversed_tuples(self):
        # if P is a k-path from a to b, the reversed ordering is a k-path
        # from reversed(b) to reversed(a)
        k, ell = 2, 7
        host = complete_graph(20)
        seq = tuple(range(3, 3 + ell))
        rev = tuple(reversed(seq))
        assert is_path(host, seq, k, "power") and is_path(host, rev, k, "power")
        a, b = seq[:k], seq[-k:]
        assert rev[:k] == tuple(reversed(b))
        assert rev[-k:] == tuple(reversed(a))


class TestEmbedding:
    def test_identity_embedding(self):
        g = power_path_template(2, 6)
        assert is_embedding(g, g, {v: v for v in range(6)})

    def test_edge_to_non_edge_fails(self):
        path = Hypergraph(2, 3, [(0, 1), (1, 2)])
        host = Hypergraph(2, 3, [(0, 1)])
        assert not is_embedding(path, host, {0: 0, 1: 1, 2: 2})

    def test_any_injection_into_complete_host(self):
        p = power_path_template(2, 4)
        k5 = complete_graph(5)
        assert is_embedding(p, k5, {0: 4, 1: 2, 2: 0, 3: 1})

    def test_uniformity_mismatch(self):
        with pytest.raises(ValueError):
            is_embedding(tight_path_template(2, 4), complete_graph(4), {})


class TestVerifyCertificate:
    def test_square_of_c5_is_k5(self):
        cert = CycleCertificate(mode="power", k=2, order=(0, 1, 2, 3, 4))
        assert verify_certificate(complete_graph(5), cert)

    def test_plain_c5_fails_square_check(self):
        c5 = Hypergraph(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        cert = CycleCertificate(mode="power", k=2, order=(0, 1, 2, 3, 4))
        assert not verify_certificate(c5, cert)

    def test_complete_tight_host_accepts_every_ordering(self):
        host = Hypergraph.complete(3, 5)
        for order in [(0, 1, 2, 3, 4), (4, 2, 0, 3, 1), (1, 3, 0, 4, 2)]:
            cert = CycleCertificate(mode="tight", k=2, order=order)
            assert verify_certificate(host, cert)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            verify_certificate(
                complete_graph(4), CycleCertificate(mode="power", k=1, order=(0, 1, 2, 2))
            )

    def test_mode_uniformity_mismatch(self):
        with pytest.raises(ValueError):
            verify_certificate(
                Hypergraph.complete(3, 5),
                CycleCertificate(mode="power", k=2, order=(0, 1, 2, 3, 4)),
            )
        with pytest.raises(ValueError):
            verify_certificate(
                complete_graph(5),
                CycleCertificate(mode="tight", k=2, order=(0, 1, 2, 3, 4)),
            )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_k1_power_equals_plain_hamilton_check(self, data):
        n = data.draw(st.integers(3, 7))
        edges = data.draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                    lambda t: (min(t), max(t))
                ).filter(lambda t: t[0] != t[1]),
                max_size=n * (n - 1) // 2,
            )
        )
        order = tuple(data.draw(st.permutations(range(n))))
        g = Hypergraph(2, n, edges)
        cert = CycleCertificate(mode="power", k=1, order=order)
        cycle_edges = {
            (min(order[i], order[(i + 1) % n]), max(order[i], order[(i + 1) % n]))
            for i in range(n)
        }
        assert verify_certificate(g, cert) == cycle_edges.issubset(edges)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_power_mode_equals_power_of_cycle_subgraph(self, data):
        n = data.draw(st.integers(5, 10))
        k = data.draw(st.integers(1, 3))
        edges = data.draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                    lambda t: (min(t), max(t))
                ).filter(lambda t: t[0] != t[1]),
                max_size=n * (n - 1) // 2,
            )
        )
        order = tuple(data.draw(st.permutations(range(n))))
        g = Hypergraph(2, n, edges)
        cert = CycleCertificate(mode="power", k=k, order=order)
        assert verify_certificate(g, cert) == power_cycle_pairs(order, k).issubset(edges)

    def test_certificate_text_round_trip(self):
        cert = CycleCertificate(mode="tight", k=2, order=(2, 0, 1, 3))
        assert cert.to_text() == "tight 2 4\n2 0 1 3\n"
        assert CycleCertificate.from_text(cert.to_text()) == cert

    @pytest.mark.parametrize("header", ["tight 2", "tight 2 4 4", ""])
    def test_header_without_three_fields_is_named(self, header):
        with pytest.raises(ValueError, match="'mode k n'"):
            CycleCertificate.from_text(f"{header}\n2 0 1 3\n")

    def test_a_line_after_the_ordering_is_named(self):
        with pytest.raises(ValueError, match="unexpected line 'garbage line'"):
            CycleCertificate.from_text("power 1 3\n0 1 2\ngarbage line\n")
        # blank lines after the ordering are no content
        assert CycleCertificate.from_text("power 1 3\n0 1 2\n\n  \n").order == (0, 1, 2)


class TestPathValidators:
    def test_power_path(self):
        host = power_path_template(2, 6)
        assert is_path(host, (0, 1, 2, 3, 4, 5), 2, "power")
        assert not is_path(host, (0, 2, 4, 5, 3, 1), 2, "power")

    def test_tight_path(self):
        host = tight_path_template(2, 6)
        assert is_path(host, (0, 1, 2, 3, 4, 5), 2, "tight")
        assert not is_path(host, (5, 4, 0, 1, 2, 3), 2, "tight")
        assert is_path(host, (0, 1), 2, "tight")  # shorter than a window

    def test_a_float_vertex_is_refused_not_truncated(self):
        # 1.5 read as 1 made the path 0, 1, 2
        host = Hypergraph(2, 4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"vertex 1\.5 is not an integer"):
            is_path(host, [0, 1.5, 2], 1, "power")


def random_host(data, n, w, required):
    """A w-uniform host on n vertices: most of ``required`` plus random other edges."""
    required = sorted(e for e in required if len(set(e)) == w)
    dropped = data.draw(st.sets(st.sampled_from(required), max_size=2)) if required else set()
    pool = list(combinations(range(n), w))
    noise = data.draw(st.sets(st.sampled_from(pool))) if pool else set()
    edges = (set(required) - dropped) | noise
    return Hypergraph(w, n, edges), edges


class TestUnifiedEdgeRule:
    """The mode's edge rule against brute-force oracles on non-complete hosts."""

    def test_unknown_mode_rejected(self):
        assert uniformity(3, "power") == 2 and uniformity(3, "tight") == 4
        with pytest.raises(ValueError, match="mode must be"):
            uniformity(2, "loose")
        with pytest.raises(ValueError, match="mode must be"):
            required_edges((0, 1, 2), 1, "loose")
        with pytest.raises(ValueError, match="mode must be"):
            CycleCertificate(mode="loose", k=1, order=(0, 1, 2))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_tight_verify(self, data):
        k = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(k + 1, 8))
        order = tuple(data.draw(st.permutations(range(n))))
        required = tight_windows(order, k + 1)
        assert row_set(required_edges(order, k, "tight", cyclic=True)) == required
        host, edges = random_host(data, n, k + 1, required)
        cert = CycleCertificate(mode="tight", k=k, order=order)
        assert verify_certificate(host, cert) == (required <= edges)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_power_verify_on_short_cycles(self, data):
        # n <= 2k: the cyclic wrap repeats pairs; n <= k wraps pairs onto one vertex
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 2 * k))
        order = tuple(data.draw(st.permutations(range(n))))
        required = power_cycle_pairs(order, k)
        assert row_set(required_edges(order, k, "power", cyclic=True)) == required
        host, edges = random_host(data, n, 2, required)
        cert = CycleCertificate(mode="power", k=k, order=order)
        assert verify_certificate(host, cert) == (required <= edges)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_verify_agrees_with_required_edges(self, data):
        # verify asks offset by offset (power) or one batch of windows (tight);
        # required_edges is the rule, in both storage forms and for k up to n
        mode = data.draw(st.sampled_from(["power", "tight"]))
        n = data.draw(st.integers(1 if mode == "power" else 2, 8))
        k = data.draw(st.integers(1, n if mode == "power" else n - 1))
        order = tuple(data.draw(st.permutations(range(n))))
        required = row_set(required_edges(order, k, mode, cyclic=True))
        host, edges = random_host(data, n, uniformity(k, mode), required)
        if data.draw(st.booleans()):
            host = complement_twin(host)
        cert = CycleCertificate(mode=mode, k=k, order=order)
        assert verify_certificate(host, cert) == (required <= edges)

    def test_uniformity_has_one_message(self):
        square = CycleCertificate(mode="power", k=2, order=(0, 1, 2, 3))
        tight = Hypergraph.complete(3, 4)
        message = "power mode with k=2 needs a 2-uniform host, got 3-uniform"
        with pytest.raises(ValueError, match=message):
            verify_certificate(tight, square)
        with pytest.raises(ValueError, match=message):
            is_path(tight, (0, 1, 2), 2, "power")

    @pytest.mark.parametrize("mode", ["power", "tight"])
    def test_k_below_1_has_one_message(self, capsys, mode):
        for call in (
            lambda: uniformity(0, mode),
            lambda: Parameters(k=0, mode=mode),
            lambda: CycleCertificate(mode=mode, k=0, order=(0, 1, 2)),
            lambda: Backbone(0, 5, mode),
            lambda: power_path_template(0, 4),
            lambda: connecting_path_template(0, 4),
            lambda: tight_path_template(0, 4),
            lambda: required_edges((0, 1, 2), 0, mode),
        ):
            with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
                call()
        argv = ["find", "--model", "hgnp", "--n", "30", "--p", "0.5", "--mode", mode, "--k", "0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "hampow: error: k must be >= 1, got 0\n"

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_power_offsets_past_the_cycle_only_repeat_pairs(self, n):
        order = tuple(reversed(range(n)))
        for k in (max(n - 1, 1), n, 3 * n + 1):
            required = required_edges(order, k, "power", cyclic=True)
            assert row_set(required) == power_cycle_pairs(order, k)
        # offsets are capped at n // 2, so a huge k costs no more than k = n // 2
        required = list(required_edges(order, 10 ** 9, "power", cyclic=True))
        assert len(required) == n // 2
        assert row_set(required) == set(combinations(range(n), 2))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_missing_edge_is_the_first_absent_oracle_edge(self, data):
        mode = data.draw(st.sampled_from(["power", "tight"]))
        cyclic = data.draw(st.booleans())
        k = data.draw(st.integers(1, 3))
        w = uniformity(k, mode)
        n = data.draw(st.integers(w if cyclic and mode == "tight" else 1, 8))
        if cyclic:  # the certificate's case: a permutation of the vertex set
            seq = tuple(data.draw(st.permutations(range(n))))
        else:
            seq = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)))
        required = (power_cycle_pairs(seq, k, cyclic) if mode == "power"
                    else tight_windows(seq, w, cyclic))
        host, edges = random_host(data, n, w, required)
        if data.draw(st.booleans()):
            host = complement_twin(host)
        got = missing_edge(host, seq, k, mode, cyclic)
        if required <= edges:
            assert got is None
        else:
            rows = [tuple(r) for b in required_edges(seq, k, mode, cyclic) for r in b.tolist()]
            assert got in required - edges
            assert set(rows[:rows.index(got)]) <= edges
        if cyclic:  # verify names the same edge
            with tempfile.TemporaryDirectory() as d:
                gf, cf = Path(d, "g.hg"), Path(d, "c.cert")
                gf.write_text(host.to_text())
                cf.write_text(CycleCertificate(mode=mode, k=k, order=seq).to_text())
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(["verify", "--graph", str(gf), "--cert", str(cf)])
            assert (code, err.getvalue()) == (
                (0, "") if got is None else (2, f"host lacks required edge {got}\n"))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_is_path_tight(self, data):
        k = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(k + 1, 8))
        # includes sequences shorter than one window, which need no edge
        seq = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)))
        required = tight_windows(seq, k + 1, cyclic=False)
        assert row_set(required_edges(seq, k, "tight")) == required
        host, edges = random_host(data, n, k + 1, required)
        assert is_path(host, seq, k, "tight") == (required <= edges)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_is_path_power(self, data):
        k = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(2, 8))
        # repeated vertices are allowed in the draw and never form a path
        seq = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2)))
        required = {
            (min(seq[i], seq[j]), max(seq[i], seq[j]))
            for i, j in combinations(range(len(seq)), 2)
            if j - i <= k
        }
        host, edges = random_host(data, n, 2, required)
        distinct = len(set(seq)) == len(seq)
        if distinct:
            assert row_set(required_edges(seq, k, "power")) == required
        assert is_path(host, seq, k, "power") == (distinct and required <= edges)
