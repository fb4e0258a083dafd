"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

They run single finds of the real workloads (about a minute in all).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

wl.import_hampow()

from hampow import absorber, core, pipeline  # noqa: E402
from hampow.randmodels import derive, sample_three_rounds  # noqa: E402

SEED = 5


def _snapshot() -> dict:
    return {
        (owner.__name__, name): value
        for owner in (pipeline, absorber, core.Hypergraph)
        for name, value in vars(owner).items()
        if callable(value)
    }


def _traced(workload: str) -> tuple[Tracer, wl.Run]:
    tracer = Tracer()
    tracer.install()
    try:
        run = wl.WORKLOADS[workload].run(SEED, 0, tracer)
    finally:
        tracer.uninstall()
    return tracer, run


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not (k.endswith("_s") or k.endswith("_s_p50"))}


@pytest.fixture(scope="module")
def power_runs():
    before = _snapshot()
    first = _traced("power-k2-n3000")
    after = _snapshot()
    second = _traced("power-k2-n3000")
    return before, after, first, second


def test_wrappers_are_gone_after_the_traced_run(power_runs):
    before, after, (tracer, _), _ = power_runs
    assert not tracer.installed
    assert after == before


def test_layer_self_times_cover_the_find(power_runs):
    _, _, (tracer, run), _ = power_runs
    assert len(run.finds) == 1
    assert tracer.coverage() >= 0.9
    names = {sp.name for sp in tracer.spans}
    assert tracer.layer_metrics()["core.query_s"] > 0
    assert {"randmodels.sample", "core.adjacency_build", "factor.factor",
            "matcher.intra_connect", "pipeline.cover", "matcher.merge",
            "absorber.absorb", "core.verify"} <= names


def test_count_metrics_repeat_exactly(power_runs):
    _, _, (t1, r1), (t2, r2) = power_runs
    c1, c2 = _counts(t1.layer_metrics()), _counts(t2.layer_metrics())
    assert c1 == c2
    assert c1["core.adjacency_builds"] == 2
    assert wl.digests(r1) == wl.digests(r2)


def test_tracing_does_not_change_certificates(power_runs):
    _, _, (_, traced), _ = power_runs
    untraced = wl.WORKLOADS["power-k2-n3000"].run(SEED, 0)
    assert wl.digests(untraced) == wl.digests(traced)


def test_rejected_certificate_fails_the_run(power_runs):
    _, _, (_, run), _ = power_runs
    wl.verify(run)
    assert run.problems == [] and run.finds[0].verified
    f = run.finds[0]
    # make a non-edge of the host consecutive in the cycle
    seed = derive(derive(f.seed, 17, f.attempt), 1)
    host = sample_three_rounds(2, f.spec.n, f.spec.p, seed)[3]
    u = next(u for u in range(host.n) if len(host.neighbors(u)) < host.n - 1)
    v = min(set(range(host.n)) - set(host.neighbors(u).tolist()) - {u})
    order = [w for w in f.result.order if w != v]
    order.insert(order.index(u) + 1, v)
    cert = dataclasses.replace(f.result, order=tuple(order))
    bad = dataclasses.replace(f, result=cert, verified=False)
    broken = dataclasses.replace(run, finds=[bad], problems=[])
    wl.verify(broken)
    assert broken.problems and bad.failed


def test_digest_mismatch_fails_the_run(power_runs, tmp_path):
    _, _, (_, run), _ = power_runs
    store = tmp_path / "digests.json"
    wl.compare_digests(run, store)
    data = json.loads(store.read_text())
    (key,) = data
    data[key][0] = "0" * 64
    store.write_text(json.dumps(data))
    again = dataclasses.replace(run, problems=[])
    wl.compare_digests(again, store)
    assert again.problems


def test_digests_of_other_code_are_not_compared(power_runs, tmp_path, monkeypatch):
    _, _, (_, run), _ = power_runs
    store = tmp_path / "digests.json"
    wl.compare_digests(run, store)
    (key,) = json.loads(store.read_text())
    store.write_text(json.dumps({key: ["0" * 64] * len(run.finds)}))
    monkeypatch.setattr(wl, "code_hash", lambda: "f" * 64)
    again = dataclasses.replace(run, problems=[])
    wl.compare_digests(again, store)
    assert again.problems == []
    assert len(json.loads(store.read_text())) == 2


def test_sparse_host_never_builds_adjacency():
    tracer, run = _traced("tight-k2-sparse")
    m = tracer.layer_metrics()
    assert m["core.adjacency_builds"] == 0
    assert m["core.has_edge_calls"] > 0
    assert m["core.query_s"] > 0
    assert run.finds[0].result.phase_failed == "factor"


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "power-k2-n3000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
