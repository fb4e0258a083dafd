"""The benchmark's workloads: inputs from a seed, timed finds, checks.

An operation is one ``find_hamilton`` call.  Its inputs (a ``ModelSpec`` and
the per-find seed in ``Parameters``) are derived from the workload seed, so
the same seed gives the same inputs.  A run does a fixed number of
operations, ``floor(seconds / nominal_s)`` and at least one, where
``nominal_s`` is what one operation took on the reference box: work per run
is then identical between commits and the counters repeat exactly.

After the timed region every certificate is verified again against a host
regenerated from the seed (as acceptance criterion 8 does), and digests of
the certificates and failure reports are compared with those of any earlier
run of the same code, workload and seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def import_hampow():
    """Import hampow from this checkout's ``src``; never from anywhere else."""
    if not (SRC / "hampow" / "__init__.py").is_file():
        raise ImportError(f"no hampow sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hampow

    if Path(hampow.__file__).resolve().parent != SRC / "hampow":
        raise ImportError(f"hampow imported from {hampow.__file__}, not {SRC}")
    return hampow


@dataclass(frozen=True)
class Spec:
    """Host model and search configuration of one find."""

    n: int
    p: float
    k: int
    mode: str
    retries: int


@dataclass
class Find:
    spec: Spec
    seed: int
    wall_s: float = 0.0
    result: object = None
    attempt: int = 0
    error: str | None = None
    verified: bool = False

    @property
    def attempts(self) -> int:
        if self.error is not None:
            return 0
        return len(self.result.attempts) if self.is_failure else self.attempt + 1

    @property
    def is_failure(self) -> bool:
        """The search returned a FailureReport: a correct, unverified answer."""
        from hampow.pipeline import FailureReport

        return isinstance(self.result, FailureReport)

    @property
    def failed(self) -> bool:
        """The find raised or returned a certificate that did not verify."""
        return self.error is not None or (not self.is_failure and not self.verified)

    def digest(self) -> str:
        if self.error is not None:
            text = f"error {self.error}"
        elif self.is_failure:
            text = f"failure\n{self.result}"
        else:
            text = self.result.to_text()
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Run:
    """What one run of a workload did and measured."""

    workload: str
    seed: int
    ops: int
    finds: list[Find] = field(default_factory=list)
    wall_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def _timed_find(source, cfg) -> Find:
    from hampow import pipeline

    spec = Spec(source.n, source.p, cfg.k, cfg.mode, cfg.retries)
    f = Find(spec=spec, seed=cfg.seed)
    start = time.perf_counter()
    try:
        f.result, f.attempt = pipeline.find_hamilton_detailed(source, cfg)
    except Exception as e:  # recorded and reported as a failed operation
        f.error = f"{type(e).__name__}: {e}"
    f.wall_s = time.perf_counter() - start
    return f


def _tag(name: str) -> int:
    return zlib.crc32(name.encode())


class Workload:
    """Repeated ``find_hamilton`` calls on hosts sampled from one model."""

    def __init__(self, name: str, spec: Spec, nominal_s: float):
        self.name, self.spec, self.nominal_s = name, spec, nominal_s

    def ops(self, seconds: int) -> int:
        return max(1, int(seconds // self.nominal_s))

    def run(self, seed: int, seconds: int, tracer=None) -> Run:
        from hampow.pipeline import ModelSpec, Parameters
        from hampow.randmodels import derive

        s = self.spec
        run = Run(self.name, seed, self.ops(seconds))
        base = derive(seed, _tag(self.name))
        start = time.perf_counter()
        for i in range(run.ops):
            if tracer is not None:
                tracer.op = i
            cfg = Parameters(k=s.k, mode=s.mode, retries=s.retries, seed=derive(base, i))
            run.finds.append(_timed_find(ModelSpec(n=s.n, p=s.p), cfg))
        run.wall_s = time.perf_counter() - start
        return run


# Why each workload is there is in README.md.  nominal_s is the median wall
# time of one find on the reference box of BASELINE.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "power-k2-n3000", Spec(n=3000, p=0.9995, k=2, mode="power", retries=5),
            nominal_s=3.43,
        ),
        Workload(
            "tight-k2-sparse", Spec(n=1000, p=0.05, k=2, mode="tight", retries=0),
            nominal_s=18.5,
        ),
    )
}


# -- checks --------------------------------------------------------------------


def verify(run: Run) -> None:
    """Re-verify every certificate against an independently regenerated host."""
    from hampow.core import verify_certificate
    from hampow.pipeline import Parameters
    from hampow.randmodels import derive, sample_three_rounds

    for i, f in enumerate(run.finds):
        if f.error is not None:
            run.problems.append(f"find {i} raised {f.error}")
            continue
        if f.is_failure:
            continue
        s = f.spec
        cfg = Parameters(k=s.k, mode=s.mode, retries=s.retries, seed=f.seed)
        seed = derive(derive(f.seed, 17, f.attempt), 1)
        host = sample_three_rounds(cfg.uniformity, s.n, s.p, seed)[3]
        cert = f.result
        try:
            f.verified = (cert.mode, cert.k) == (s.mode, s.k) and verify_certificate(host, cert)
        except ValueError as e:
            run.problems.append(f"find {i}: malformed certificate: {e}")
        if not f.verified:
            run.problems.append(f"find {i}: certificate rejected by the regenerated host")
        del host


def digests(run: Run) -> list[str]:
    return [f.digest() for f in run.finds]


def hash_run(run: Run) -> str:
    return hashlib.sha256(" ".join(digests(run)).encode()).hexdigest()


def code_hash() -> str:
    """sha256 of the sources under ``src/`` and of the harness's own modules."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def compare_digests(run: Run, path: Path) -> list[str]:
    """Check this run's digests against an earlier run of the same code and inputs.

    Runs of other code are never compared: a change may alter certificates
    legitimately, and independent re-verification is the check across commits.
    """
    key = f"{code_hash()[:16]}/{run.workload}/{run.seed}/{run.ops}"
    mine = digests(run)
    store = json.loads(path.read_text()) if path.is_file() else {}
    seen = store.get(key)
    if seen is None:
        store[key] = mine
        path.parent.mkdir(exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, path)
    elif seen != mine:
        run.problems.append(f"digests differ from an earlier run of {key}")
    return mine


# -- end-to-end figures --------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_SETUP = """
import sys
sys.path.insert(0, sys.argv[1])
from hampow import pipeline
pipeline.resolve_plan(int(sys.argv[2]), pipeline.Parameters(k=int(sys.argv[3]), mode=sys.argv[4]))
import time
print(time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(sys.argv[5]))
"""


def setup_times(w: Workload, repeats: int) -> list[float]:
    """Time from spawning a fresh process until it has imported hampow and
    resolved the plan.

    The child reads the end time itself: the system-wide monotonic clock is
    shared by both processes, and waiting on a subprocess with a timeout
    polls in steps of up to 50 ms, which would quantise the figure.
    """
    s = w.spec
    out = []
    for _ in range(repeats):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        p = subprocess.run(
            [sys.executable, "-c", _SETUP, str(SRC), str(s.n), str(s.k), s.mode, str(start)],
            check=True, timeout=60, cwd=ROOT, capture_output=True, text=True,
        )
        out.append(int(p.stdout) / 1e9)
    return out


def end_to_end(run: Run, setup: list[float]) -> dict[str, float]:
    walls = [f.wall_s for f in run.finds]
    finds = len(run.finds)
    verified = sum(f.verified for f in run.finds)
    attempts = sum(f.attempts for f in run.finds)
    m = {
        "find_s_p50": statistics.median(walls),
        "find_s_mean": statistics.fmean(walls),
        "verified_per_min": verified / (run.wall_s / 60.0),
        "success_rate": verified / finds,
        "attempts_per_find": attempts / finds,
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    return m
