"""Span recorder that traces hampow's layers from outside the package.

:class:`Tracer` wraps the functions each layer exposes at the place where
they are *called* (``hampow.pipeline.*``, ``hampow.absorber.*``) plus two
``Hypergraph`` methods, records one span per call with its parent and the
operation it belongs to, and counts work at the same boundaries.  The
wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; nothing in ``src/`` knows about them.

A layer's self time is its spans' duration minus the time their child spans
cover.  :meth:`Tracer.layer_metrics` turns spans and counts into the
``<module>.<metric>`` figures the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "error", "info", "query")

    def __init__(self, id: int, parent: int | None, op: int, name: str, start: float):
        self.id = id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = start
        self.error = None
        self.info: dict = {}
        self.query = 0.0  # time in host queries made directly inside this span

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_json(self, t0: float) -> dict:
        out = {
            "op": self.op, "id": self.id, "parent": self.parent, "name": self.name,
            "start_ms": (self.start - t0) * 1e3, "dur_ms": self.dur * 1e3,
        }
        if self.error:
            out["error"] = self.error
        out.update(self.info)
        return out


class Tracer:
    """Spans and counters for the traced run; see the module docstring."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1  # index of the current operation, set by the workload
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._connects_in_build = 0

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as e:
            sp.error = type(e).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        import hampow.absorber as absorber
        import hampow.core as core
        import hampow.pipeline as pipeline
        from hampow.matcher import ConnectFailure, PhaseFailure

        if self._patches:
            raise RuntimeError("tracer already installed")
        tr = self

        def patch(obj, attr, make):
            orig = getattr(obj, attr)
            wrapper = functools.wraps(orig)(make(orig))
            self._patches.append((obj, attr, orig))
            setattr(obj, attr, wrapper)

        def find(orig):
            def w(source, cfg):
                with tr.span("pipeline.find") as sp:
                    result, attempt = orig(source, cfg)
                sp.info["verified"] = not isinstance(result, pipeline.FailureReport)
                sp.info["attempt"] = attempt
                return result, attempt
            return w

        def timed(name):
            def make(orig):
                def w(*a, **kw):
                    with tr.span(name):
                        return orig(*a, **kw)
                return w
            return make

        def sample(orig):
            def w(k, n, p, seed):
                with tr.span("randmodels.sample") as sp:
                    out = orig(k, n, p, seed)
                sp.info["candidates"] = math.comb(n, k)
                sp.info["edges_kept"] = out[3].edge_count
                return out
            return w

        def build(orig):
            def w(*a, **kw):
                tr._connects_in_build = 0
                with tr.span("absorber.build"):
                    return orig(*a, **kw)
            return w

        def factor(orig):
            def w(*a, **kw):
                with tr.span("factor.factor") as sp:
                    try:
                        copies = orig(*a, **kw)
                    except PhaseFailure as e:
                        sp.info["copies"] = e.details.get("copies_found", 0)
                        raise
                    sp.info["copies"] = len(copies)
                    return copies
            return w

        def connect(name_of):
            def make(orig):
                def w(host, pairs, *a, **kw):
                    with tr.span(name_of()) as sp:
                        sp.info["requests"] = len(pairs)
                        try:
                            fam = orig(host, pairs, *a, **kw)
                        except ConnectFailure as e:
                            sp.info["rounds"] = len(e.trajectory)
                            sp.info["budget_exhausted"] = bool(e.details.get("budget_exhausted"))
                            raise
                        sp.info["rounds"] = len(fam.trajectory)
                        return fam
                return w
            return make

        def absorber_connect_name() -> str:
            tr._connects_in_build += 1
            return "matcher.intra_connect" if tr._connects_in_build == 1 else "matcher.chain_connect"

        def cover(orig):
            def w(host, uncovered, borrowed, t, k, mode):
                with tr.span("pipeline.cover") as sp:
                    sp.info["parts"] = t
                    try:
                        fam = orig(host, uncovered, borrowed, t, k, mode)
                    except PhaseFailure as e:
                        sp.info["step"] = e.details.get("step", 0)
                        raise
                    sp.info["step"] = t
                    return fam
            return w

        def matching(orig):
            def w(B):
                tr.counts["pipeline.matchings"] += 1
                tr.counts["pipeline.bipartite_edges"] += B.edge_count
                return orig(B)
            return w

        # Host queries are too many for one span each (millions of has_edge
        # calls on a sparse host); their time is charged to the calling span
        # and reported as the layer core.query.
        def query(orig, *a):
            start = time.perf_counter()
            try:
                return orig(*a)
            finally:
                if tr._stack:
                    tr._stack[-1].query += time.perf_counter() - start

        def neighbors(orig):
            def w(host, v):
                tr.counts["core.neighbors_calls"] += 1
                if host.k == 2 and host._adj is None and not host.is_complete:
                    with tr.span("core.adjacency_build"):
                        return orig(host, v)
                return query(orig, host, v)
            return w

        def has_edge(orig):
            def w(host, vertices):
                tr.counts["core.has_edge_calls"] += 1
                return query(orig, host, vertices)
            return w

        patch(pipeline, "find_hamilton_detailed", find)
        patch(pipeline, "resolve_plan", timed("pipeline.resolve_plan"))
        patch(pipeline, "sample_three_rounds", sample)
        patch(pipeline, "build_chain_absorber", build)
        patch(absorber, "factor_in_window", factor)
        patch(absorber, "connect_paths", connect(absorber_connect_name))
        patch(pipeline, "cover_with_paths", cover)
        patch(pipeline, "perfect_matching", matching)
        patch(pipeline, "connect_paths", connect(lambda: "matcher.merge"))
        patch(pipeline, "absorb", timed("absorber.absorb"))
        patch(pipeline, "verify_certificate", timed("core.verify"))
        patch(core.Hypergraph, "neighbors", neighbors)
        patch(core.Hypergraph, "has_edge", has_edge)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- reporting -----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps(sp.as_json(self.t0)) + "\n")

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.dur
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp.name] += sp.dur - child[sp.id] - sp.query
            out["core.query"] += sp.query
        return out

    def coverage(self) -> float:
        """Share of traced find time attributed to a layer span below the find."""
        finds = [sp for sp in self.spans if sp.name == "pipeline.find"]
        total = sum(sp.dur for sp in finds)
        if total == 0:
            return 0.0
        return 1.0 - self.self_times().get("pipeline.find", 0.0) / total

    def _attempts(self):
        """(duration, wasted) per attempt; one attempt starts at each sample span."""
        by_id = {sp.id: sp for sp in self.spans}
        starts: dict[int, list[float]] = defaultdict(list)
        for sp in self.spans:
            if sp.name == "randmodels.sample":
                p = sp.parent
                while p is not None and by_id[p].name != "pipeline.find":
                    p = by_id[p].parent
                if p is not None:
                    starts[p].append(sp.start)
        out = []
        for sp in self.spans:
            if sp.name != "pipeline.find":
                continue
            bounds = starts[sp.id] + [sp.end]
            for i in range(len(bounds) - 1):
                last = i == len(bounds) - 2
                ok = last and sp.info.get("verified", False)
                out.append((bounds[i + 1] - bounds[i], not ok))
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure, keyed ``<module>.<metric>``."""
        selft = self.self_times()
        by_name = defaultdict(list)
        for sp in self.spans:
            by_name[sp.name].append(sp)
        finds = by_name["pipeline.find"]
        verified = sum(1 for sp in finds if sp.info.get("verified"))
        attempts = self._attempts()
        samples = by_name["randmodels.sample"]
        connects = [
            sp for name in ("matcher.intra_connect", "matcher.chain_connect", "matcher.merge")
            for sp in by_name[name]
        ]
        covers = by_name["pipeline.cover"]
        candidates = sum(sp.info["candidates"] for sp in samples)
        m = {
            "randmodels.sample_s": selft.get("randmodels.sample", 0.0),
            "randmodels.candidates": candidates,
            "randmodels.edges_kept": sum(sp.info["edges_kept"] for sp in samples),
            "randmodels.stream_bytes": 8 * candidates,
            "core.adjacency_build_s": selft.get("core.adjacency_build", 0.0),
            "core.query_s": selft.get("core.query", 0.0),
            "core.host_s": selft.get("core.adjacency_build", 0.0) + selft.get("core.query", 0.0),
            "core.adjacency_builds": len(by_name["core.adjacency_build"]),
            "core.neighbors_calls": self.counts["core.neighbors_calls"],
            "core.has_edge_calls": self.counts["core.has_edge_calls"],
            "core.verify_s": selft.get("core.verify", 0.0),
            "factor.factor_s": selft.get("factor.factor", 0.0),
            "factor.copies": sum(sp.info.get("copies", 0) for sp in by_name["factor.factor"]),
            "matcher.intra_connect_s": selft.get("matcher.intra_connect", 0.0),
            "matcher.chain_connect_s": selft.get("matcher.chain_connect", 0.0),
            "matcher.merge_s": selft.get("matcher.merge", 0.0),
            "matcher.requests": sum(sp.info["requests"] for sp in connects),
            "matcher.rounds_used": sum(sp.info.get("rounds", 0) for sp in connects),
            "matcher.connect_failures": sum(1 for sp in connects if sp.error),
            "matcher.budget_exhausted": sum(
                1 for sp in connects if sp.info.get("budget_exhausted")
            ),
            "absorber.build_self_s": selft.get("absorber.build", 0.0),
            "absorber.absorb_s": selft.get("absorber.absorb", 0.0),
            "pipeline.cover_s": selft.get("pipeline.cover", 0.0),
            "pipeline.matchings": self.counts["pipeline.matchings"],
            "pipeline.bipartite_edges": self.counts["pipeline.bipartite_edges"],
            "pipeline.cover_failures": sum(1 for sp in covers if sp.error),
            "pipeline.cover_step_reached": (
                statistics.fmean(sp.info.get("step", 0) for sp in covers) if covers else 0.0
            ),
            "pipeline.attempts": len(attempts),
            "pipeline.wasted_s": sum(d for d, wasted in attempts if wasted),
            "pipeline.useful_ratio": verified / len(attempts) if attempts else 0.0,
            "pipeline.success_rate": verified / len(finds) if finds else 0.0,
            "pipeline.resolve_plan_s": selft.get("pipeline.resolve_plan", 0.0),
            "pipeline.find_s_p50": (
                statistics.median(sp.dur for sp in finds) if finds else 0.0
            ),
        }
        return m
