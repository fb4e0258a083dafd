"""The library boundary: every size, count and vertex an entry point takes is read, or refused by name.

The counts are read by one core reader, ``core._count``: a float is refused,
never truncated, and so is a value below the least one allowed.  The
property tests feed each public entry point integers in and out of range,
floats, numpy integers, repeats and values past int64, and admit only a
result, a ``ValueError`` or a search phase's ``PhaseFailure``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hampow.pipeline as pipeline
import hampow.randmodels as randmodels
from hampow.core import (
    CycleCertificate,
    Hypergraph,
    is_path,
    power_path_template,
    tight_path_template,
    verify_certificate,
)
from hampow.absorber import Backbone
from hampow.factor import almost_factor, factor_in_window
from hampow.janson import log_expected_lex_copies
from hampow.matcher import PhaseFailure, round_sizes
from hampow.pipeline import (
    FailureReport,
    ModelSpec,
    Parameters,
    attempt_rounds,
    cover_with_paths,
    find_hamilton,
    resolve_plan,
)
from hampow.randmodels import sample_bipartite, sample_uniform_hypergraph

TRIANGLE = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])


class TestCountReader:
    """Each of these calls truncated a float, accepted it and crashed later, or sampled for nothing."""

    @pytest.mark.parametrize("call,message", [
        (lambda: sample_bipartite(3.5, 0.5, 1), r"^side size s must be an integer, got 3\.5$"),
        (lambda: factor_in_window(Hypergraph.complete(2, 10), TRIANGLE, range(10), quota=1.5),
         r"^quota must be an integer, got 1\.5$"),
        (lambda: attempt_rounds(ModelSpec(30, 0.5), Parameters(k=1), -1),
         r"^attempt index r must be >= 0, got -1$"),
        (lambda: Parameters(retries=1.5), r"^retries must be an integer, got 1\.5$"),
        (lambda: round_sizes(100, 2.5), r"^rounds must be an integer, got 2\.5$"),
        (lambda: cover_with_paths(Hypergraph.complete(2, 12), range(12), (), 2.0, 1, "power"),
         r"^part count t must be an integer, got 2\.0$"),
        (lambda: sample_uniform_hypergraph(3, 10.5, 0.5, 1), r"^vertex count n must be an integer, got 10\.5$"),
        (lambda: verify_certificate(Hypergraph.complete(2, 5), CycleCertificate("power", 2.5, tuple(range(5)))),
         r"^k must be an integer, got 2\.5$"),
        (lambda: Hypergraph(2.9, 5, [(0, 1)]), r"^uniformity must be an integer, got 2\.9$"),
        (lambda: find_hamilton(ModelSpec(300, 1.0), Parameters(k=2.5)), r"^k must be an integer, got 2\.5$"),
        (lambda: resolve_plan(2500.0, Parameters()), r"^vertex count n must be an integer, got 2500\.0$"),
        (lambda: Backbone(2, 5.0, "power"), r"^backbone length ell must be an integer, got 5\.0$"),
        (lambda: log_expected_lex_copies(10.5, TRIANGLE, 0.5), r"^vertex count n must be an integer, got 10\.5$"),
        (lambda: sample_uniform_hypergraph(2, 10, 0.5, 1.5), r"^seed must be an integer, got 1\.5$"),
    ], ids=["sample_bipartite", "factor_in_window", "attempt_rounds", "Parameters", "round_sizes",
            "cover_with_paths", "sample_uniform_hypergraph", "verify_certificate", "Hypergraph", "find_hamilton",
            "resolve_plan", "Backbone", "log_expected_lex_copies", "sampler_seed"])
    def test_a_bad_count_is_refused_by_name(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("call,message", [
        (lambda: Hypergraph(2, -1, ()), r"^vertex count n must be >= 0, got -1$"),
        (lambda: sample_uniform_hypergraph(3, 2, 0.5, 1), r"^vertex count n must be >= 3, got 2$"),
        (lambda: power_path_template(1, 1), r"^path length must be >= 2, got 1$"),
        (lambda: tight_path_template(2, 2), r"^tight path length must be >= 3, got 2$"),
        (lambda: Parameters(seed=1.5), r"^seed must be an integer, got 1\.5$"),
    ], ids=["Hypergraph", "sample_uniform_hypergraph", "power_path_template", "tight_path_template", "Parameters"])
    def test_a_count_below_its_least_is_refused_by_name(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_numpy_integer_seeds_draw_as_ints(self):
        # np.int64(5) & (2 ** 64 - 1) raised OverflowError: in derive on the first attempt, in a draw on its first read
        cfg = Parameters(k=np.int64(1), retries=np.int64(0), seed=np.int64(5))
        assert all(type(x) is int for x in (cfg.k, cfg.retries, cfg.seed))
        model = ModelSpec(30, 0.5)
        assert attempt_rounds(model, cfg, 0)[3] == attempt_rounds(model, Parameters(k=1, seed=5), 0)[3]
        assert sample_uniform_hypergraph(2, 10, 0.5, np.int64(3)) == sample_uniform_hypergraph(2, 10, 0.5, 3)
        assert (sample_bipartite(5, 0.5, np.int64(3)).cells == sample_bipartite(5, 0.5, 3).cells).all()

    def test_a_side_past_the_cell_encoding_is_refused(self):
        # at p = 0 the draw's int64 ranks used to wrap, and it never returned
        with pytest.raises(ValueError, match="edge-encoding range"):
            sample_bipartite(2 ** 70, 0.0, 1)

    def test_a_path_vertex_past_int64_is_refused_by_name(self):
        # numpy's OverflowError used to escape is_path
        with pytest.raises(ValueError, match=rf"^vertex {2 ** 70} outside int64$"):
            is_path(Hypergraph.complete(2, 6), [0, 2 ** 70], 1, "power")


def test_a_model_host_over_the_storage_limit_is_refused_before_sampling(monkeypatch):
    sampled = []
    monkeypatch.setattr(randmodels, "MODEL_BYTES_LIMIT", 100)
    monkeypatch.setattr(pipeline, "sample_three_rounds", lambda *args: sampled.append(args))
    with pytest.raises(ValueError, match=r"^refusing to sample the 2-uniform host with n=30, p=0\.5: "
                                         r".* over the limit of 100 bytes$"):
        find_hamilton(ModelSpec(30, 0.5), Parameters(k=1))
    with pytest.raises(ValueError, match="refusing to sample"):
        attempt_rounds(ModelSpec(30, 0.5), Parameters(k=1), 0)
    assert sampled == []


# -- property tests over the entry points --------------------------------------


#: What a vertex may be by mistake: out of range, negative, a float or past int64.
_ODD_VERTEX = st.one_of(st.integers(-3, 40), st.sampled_from([2 ** 70, -2 ** 70, 1.0, 2.5]), st.floats(-3, 40))


def odd_or(data, value, lo, hi):
    """``value`` three times in four; else an integer near [lo, hi], a float, ``value`` as a numpy integer or +-2**70."""
    if data.draw(st.integers(0, 3)):
        return value
    return data.draw(st.one_of(st.integers(lo - 2, hi + 2), st.floats(lo - 2, hi + 2), st.just(np.int64(value)),
                               st.sampled_from([2 ** 70, -2 ** 70])))


def count(data, lo, hi):
    """A count in [lo, hi] three times in four; else an odd one."""
    return odd_or(data, data.draw(st.integers(lo, hi)), lo, hi)


def vertices(data, n, size):
    """``size`` distinct vertices of range(n); one time in four, one of them replaced by an odd vertex or a repeat."""
    xs = data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
    if xs and not data.draw(st.integers(0, 3)):
        xs[data.draw(st.integers(0, size - 1))] = data.draw(_ODD_VERTEX | st.sampled_from(xs))
    return xs


def host(data, k, n):
    """The complete k-uniform host on n vertices, or a sampled one; one time in four, of another uniformity."""
    k = k if data.draw(st.integers(0, 3)) else 5 - k  # 3 for 2, 2 for 3
    if data.draw(st.booleans()):
        return Hypergraph.complete(k, n)
    return sample_uniform_hypergraph(k, n, data.draw(st.sampled_from([0.3, 0.8])), data.draw(st.integers(0, 3)))


def mode_and_k(data):
    """A mode, an odd or valid k for it, and the uniformity of the host it runs on."""
    mode, k = data.draw(st.sampled_from(["power", "tight"])), data.draw(st.integers(1, 2))
    return mode, odd_or(data, k, 1, 2), 2 if mode == "power" else k + 1


#: The phases whose failure is bad luck in a search: any other would be a defect.
SEARCH_PHASES = {"factor", "connect", "intra-connect", "chain-connect", "cover", "merge"}


def outcome(call):
    """The call's result; None when it refuses its input or fails as a search."""
    try:
        return call()
    except ValueError:
        return None
    except PhaseFailure as failure:
        assert failure.phase in SEARCH_PHASES
        return None


def path_edges(seq, k, mode, cyclic=False):
    """The sorted edges a k-power or tight path (or cycle) along seq needs, counted plainly."""
    n = len(seq)
    if mode == "power":
        reach = min(k, n // 2 if cyclic else n - 1)
        return {tuple(sorted((seq[i], seq[(i + d) % n]))) for i in range(n) for d in range(1, reach + 1)
                if cyclic or i + d < n}
    return {tuple(sorted(seq[(i + j) % n] for j in range(k + 1))) for i in range(n) if cyclic or i + k < n}


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
TEMPLATES = [TRIANGLE, power_path_template(1, 3), tight_path_template(2, 4)]


class TestBoundaryProperties:
    @given(st.data())
    @PROPERTY
    def test_hypergraph(self, data):
        k, n = data.draw(st.integers(2, 4)), data.draw(st.integers(4, 8))
        widths = st.integers(1, 4) if not data.draw(st.integers(0, 3)) else st.just(k)
        edges = [vertices(data, n, data.draw(widths)) for _ in range(data.draw(st.integers(0, 4)))]
        k, n = odd_or(data, k, 2, 4), odd_or(data, n, 0, 8)
        g = outcome(lambda: Hypergraph(k, n, edges))
        if g is not None:
            assert (g.k, g.n) == (k, n) and type(g.k) is type(g.n) is int
            assert set(g.edges()) == {tuple(sorted(e)) for e in edges}

    @given(st.data())
    @PROPERTY
    def test_complete(self, data):
        k, n = count(data, 2, 5), count(data, 0, 12)
        g = outcome(lambda: Hypergraph.complete(k, n))
        if g is not None:
            assert g.is_complete and g.edge_count == math.comb(n, k)

    @given(st.data())
    @PROPERTY
    def test_from_text(self, data):
        k, n = data.draw(st.integers(2, 3)), data.draw(st.integers(3, 8))
        body = [vertices(data, n, k) for _ in range(data.draw(st.integers(0, 4)))]
        body = [sorted(e) if data.draw(st.integers(0, 3)) else e for e in body]
        head = [odd_or(data, k, 2, 3), odd_or(data, n, 0, 8), odd_or(data, len(body), 0, 4)]
        text = " ".join(map(str, head)) + "\n" + "".join(" ".join(map(str, e)) + "\n" for e in body)
        g = outcome(lambda: Hypergraph.from_text(text))
        if g is not None:
            assert (g.k, g.n, g.edge_count) == tuple(head)
            assert Hypergraph.from_text(g.to_text()) == g

    @given(st.data())
    @PROPERTY
    def test_sample_uniform_hypergraph(self, data):
        k, n, seed = count(data, 2, 4), count(data, 0, 12), count(data, 0, 3)
        p = data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
        g = outcome(lambda: sample_uniform_hypergraph(k, n, p, seed))
        if g is not None:  # the draw is deferred: its first read may not fail either
            assert (g.k, g.n) == (k, n) and 0 <= g.edge_count <= math.comb(n, k)

    @given(st.data())
    @PROPERTY
    def test_sample_bipartite(self, data):
        s, seed, p = count(data, 0, 12), count(data, 0, 3), data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        b = outcome(lambda: sample_bipartite(s, p, seed))
        if b is not None:
            assert b.left == b.right == s and ((0 <= b.cells) & (b.cells < s * s)).all()

    @given(st.data())
    @PROPERTY
    def test_factor_in_window(self, data):
        template = data.draw(st.sampled_from(TEMPLATES))
        g = host(data, template.k, 12)
        window = vertices(data, 12, data.draw(st.integers(0, 12)))
        quota = count(data, 1, 3)
        copies = outcome(lambda: factor_in_window(g, template, window, quota))
        if copies is not None:
            used = [v for emb in copies for v in emb.values()]
            assert len(copies) == quota and len(set(used)) == len(used) and set(used) <= set(window)
            for emb in copies:
                assert g.has_edge(np.array([[emb[v] for v in e] for e in template.edges()])).all()

    @given(st.data())
    @PROPERTY
    def test_almost_factor(self, data):
        template = data.draw(st.sampled_from(TEMPLATES))
        g = host(data, template.k, 12)
        epsilon = data.draw(st.one_of(st.floats(0.25, 0.9), st.floats(-0.5, 1.5),
                                      st.sampled_from([0, 1, math.nan, math.inf])))
        copies = outcome(lambda: almost_factor(g, template, epsilon))
        if copies is not None:
            used = [v for emb in copies for v in emb.values()]
            assert len(set(used)) == len(used) and 12 - len(used) < epsilon * 12

    @given(st.data())
    @PROPERTY
    def test_cover_with_paths(self, data):
        mode, k, w = mode_and_k(data)
        g = host(data, w, 12)
        s, t = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        pool = vertices(data, 12, s * t)
        cut = data.draw(st.integers(0, s * t))
        uncovered, borrowed, t = pool[:cut], pool[cut:], odd_or(data, t, 1, 3)
        paths = outcome(lambda: cover_with_paths(g, uncovered, borrowed, t, k, mode))
        if paths is not None:
            assert sorted(v for path in paths for v in path) == sorted(pool) and {len(path) for path in paths} == {t}
            assert all(is_path(g, path, k, mode) for path in paths)

    @given(st.data())
    @PROPERTY
    def test_verify_certificate(self, data):
        mode, k, w = mode_and_k(data)
        n = data.draw(st.integers(3, 8))
        g, order = host(data, w, n), vertices(data, n, n)
        ok = outcome(lambda: verify_certificate(g, CycleCertificate(mode, k, tuple(order))))
        if ok is not None:
            assert ok == (path_edges(order, k, mode, cyclic=True) <= set(g.edges()))

    @given(st.data())
    @PROPERTY
    def test_is_path(self, data):
        mode, k, w = mode_and_k(data)
        g, seq = host(data, w, 8), vertices(data, 8, data.draw(st.integers(0, 8)))
        ok = outcome(lambda: is_path(g, seq, k, mode))
        if ok is not None:
            assert ok == (len(set(seq)) == len(seq) and path_edges(seq, k, mode) <= set(g.edges()))

    @staticmethod
    def source_and_parameters(data):
        """A model of at most 30 vertices, its edge rate in range or not, or a fixed host on 30; and Parameters.

        Either is None when its own constructor refuses it.
        """
        mode, k, w = mode_and_k(data)
        retries, seed = count(data, 0, 2), count(data, 0, 5)
        cfg = outcome(lambda: Parameters(k=k, mode=mode, retries=retries, seed=seed))
        if data.draw(st.booleans()):
            n, p = count(data, 0, 30), data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, math.nan]))
            return outcome(lambda: ModelSpec(n, p)), cfg
        return host(data, w, 30), cfg

    @given(st.data())
    @PROPERTY
    def test_attempt_rounds(self, data):
        (source, cfg), r = self.source_and_parameters(data), count(data, 0, 3)
        if source is None or cfg is None:
            return
        rounds = outcome(lambda: attempt_rounds(source, cfg, r))
        if rounds is not None:  # a model's draws are deferred: their first reads may not fail either
            *parts, union = rounds
            assert all(h.n == source.n for h in rounds) and all(h.edge_count <= union.edge_count for h in parts)
            assert union is source if isinstance(source, Hypergraph) else union.k == cfg.uniformity

    @given(st.data())
    @PROPERTY
    def test_find_hamilton(self, data):
        source, cfg = self.source_and_parameters(data)
        if source is None or cfg is None:
            return
        result = outcome(lambda: find_hamilton(source, cfg))
        if isinstance(result, FailureReport):
            assert len(result.attempts) == cfg.retries + 1
            assert {a.phase for a in result.attempts} <= SEARCH_PHASES
        elif result is not None:
            assert isinstance(result, CycleCertificate) and len(result.order) == source.n
