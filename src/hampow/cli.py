"""Command line front end.

Subcommands: gen, find, verify, density, janson, factor, absorber,
experiment.  All randomness flows from an explicit --seed (a fixed default
is used and printed otherwise).  Exit codes: 0 on verified success, 2 on
failure, 1 on usage errors.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import os
import sys
import time
from pathlib import Path

from hampow import absorber as absorber_mod
from hampow import janson as janson_mod
from hampow.core import (
    CycleCertificate,
    Hypergraph,
    VertexTuple,
    check_uniformity,
    is_path,
    missing_edge,
    power_path_template,
    uniformity,
    verify_certificate,
)
from hampow.density import RootedTemplate, m1_density, m_density
from hampow.factor import almost_factor
from hampow.matcher import PhaseFailure
from hampow.pipeline import (
    DEFAULT_SEED,
    FailureReport,
    ModelSpec,
    Parameters,
    attempt_rounds,
    find_hamilton,
    find_hamilton_detailed,
    implied_threshold,
    resolve_plan,
)
from hampow.randmodels import check_stored_codes, derive, sample_bipartite, sample_uniform_hypergraph

MATERIALIZE_LIMIT = 20_000_000

#: Most edges a path template or backbone that the CLI builds may have.  The
#: build peaks at 32-48 traced bytes an edge (power path, power backbone,
#: tight path), and ``janson`` counts a template's edges as arrays too.
TEMPLATE_EDGE_LIMIT = 4_000_000


class _UsageError(Exception):
    """A misused command line, which ``main`` reports with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"base seed (default {DEFAULT_SEED})")


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mode", choices=["power", "tight"], default="power")
    p.add_argument("--retries", type=int, default=5)


def _add_host(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", default=None, help="host graph file")
    p.add_argument("--model", choices=["gnp", "hgnp"], default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)


def _load_graph(path: str) -> Hypergraph:
    return Hypergraph.from_text(Path(path).read_text())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hampow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample a random (hyper)graph")
    g.add_argument("--model", choices=["gnp", "hgnp", "bip"], required=True)
    g.add_argument("--k", type=int, default=None,
                   help="uniformity: hgnp takes k >= 2 (default 2), gnp only 2, bip none")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--out", required=True)
    _add_seed(g)

    f = sub.add_parser("find", help="search for a spanning cycle")
    _add_host(f)
    f.add_argument("--out", default=None, help="certificate output file")
    _add_params(f)
    _add_seed(f)

    v = sub.add_parser("verify", help="check a certificate")
    _add_host(v)
    v.add_argument("--attempt", type=int, default=None,
                   help="attempt index whose host to regenerate (--model only, default 0)")
    v.add_argument("--cert", required=True)
    _add_seed(v)
    v.set_defaults(seed=None)  # unset, so --graph can refuse it

    d = sub.add_parser("density", help="exact (rooted) 1-density")
    d.add_argument("--input", required=True, help="hypergraph file")
    d.add_argument("--root", default=None, help="comma-separated root vertices")

    j = sub.add_parser("janson", help="lower-tail bound parameters")
    j.add_argument("--n", type=int, required=True)
    j.add_argument("--p", type=float, required=True)
    j.add_argument("--template", required=True,
                   help="FILE or builtin:triangle or builtin:path-K-L")
    j.add_argument("--gamma", type=float, default=0.5)
    j.add_argument("--exact", action="store_true", help="enumerate mu and delta exactly")

    fa = sub.add_parser("factor", help="greedy almost-factor")
    fa.add_argument("--graph", required=True)
    fa.add_argument("--template", required=True)
    fa.add_argument("--epsilon", type=float, required=True)

    ab = sub.add_parser("absorber", help="absorber demo on a complete host")
    ab.add_argument("--k", type=int, default=2)
    ab.add_argument("--ell", type=int, default=5)
    ab.add_argument("--mode", choices=["power", "tight"], default="power")

    e = sub.add_parser("experiment", help="Monte-Carlo success grid")
    e.add_argument("--n-list", required=True, help="comma-separated host sizes")
    e.add_argument("--p-grid", required=True, help="comma-separated edge rates")
    e.add_argument("--trials", type=int, required=True)
    e.add_argument("--csv", required=True)
    e.add_argument("--jobs", type=int, default=1)
    e.add_argument("--zero-timings", action="store_true",
                   help="write runtime_ms as 0 for byte-reproducible output")
    _add_params(e)
    _add_seed(e)

    return parser


# -- subcommand bodies --------------------------------------------------------


def _cmd_gen(args) -> int:
    k = 2 if args.k is None else args.k
    if not {"gnp": k == 2, "hgnp": k >= 2, "bip": args.k is None}[args.model]:
        raise _UsageError(f"--k {args.k} does not fit --model {args.model}: hgnp takes a "
                          "uniformity >= 2, gnp only 2 and bip none")
    # the samplers refuse a bad n, k or p at once, but draw nothing before their edges are first read
    if args.model == "bip":
        g, candidates = sample_bipartite(args.n, args.p, args.seed), args.n * args.n
    else:
        g, candidates = sample_uniform_hypergraph(k, args.n, args.p, args.seed), math.comb(args.n, k)
    # compared as MATERIALIZE_LIMIT / p, so a huge candidate count cannot overflow
    if args.p > 0 and candidates > MATERIALIZE_LIMIT / args.p:
        raise ValueError(f"refusing to sample an expected {args.p:g} * {candidates} edges "
                         f"(> {MATERIALIZE_LIMIT})")
    if g.edge_count > MATERIALIZE_LIMIT:
        raise ValueError(f"refusing to write {g.edge_count} edges (> {MATERIALIZE_LIMIT})")
    with open(args.out, "wb") as out:
        out.writelines(g.text_blocks())
    what = f"bipartite {g.left}x{g.right} with {g.edge_count} edges" if args.model == "bip" else repr(g)
    print(f"wrote {what} (seed {args.seed})")
    return 0


def _host_source(args, k: int, mode: str) -> Hypergraph | ModelSpec:
    """The host --graph or --model names for mode and k; a misuse raises _UsageError."""
    if (args.graph is None) == (args.model is None):
        raise _UsageError("exactly one of --graph or --model is required")
    if args.graph is not None:
        if args.n is not None or args.p is not None:
            raise _UsageError("--n and --p describe a --model host; --graph reads its host from the file")
        host = _load_graph(args.graph)
        check_uniformity(host, k, mode)
        return host
    if args.n is None or args.p is None:
        raise _UsageError("--model requires --n and --p")
    w = uniformity(k, mode)
    if args.model == "gnp" and w != 2:
        raise _UsageError(f"--model gnp samples graphs, but {mode} mode with k={k} runs on "
                          f"{w}-uniform hosts; use --model hgnp")
    return ModelSpec(n=args.n, p=args.p)


def _cmd_find(args) -> int:
    cfg = Parameters(k=args.k, mode=args.mode, retries=args.retries, seed=args.seed)
    source = _host_source(args, cfg.k, cfg.mode)
    if isinstance(source, ModelSpec):  # before the plan is printed
        check_stored_codes(cfg.uniformity, source.n, source.p)
    try:
        # first, so a host too small for any plan (n = 0 too) never reaches the threshold
        plan = resolve_plan(source.n, cfg)
    except ValueError as err:
        raise ValueError(f"infeasible configuration: {err}") from err
    formula, value = implied_threshold(source.n, cfg)
    chosen = args.p if args.p is not None else "n/a (fixed graph)"
    print(f"seed {args.seed}; implied threshold {formula} = {value:.6g}; chosen p = {chosen}")
    print(plan.describe())
    result, attempt = find_hamilton_detailed(source, cfg)
    if isinstance(result, FailureReport):
        print(result, file=sys.stderr)
        return 2
    text = result.to_text()
    print(f"succeeded on attempt {attempt}")
    if args.out:
        Path(args.out).write_text(text)
        print(f"verified {result.mode} certificate written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    for flag, value in (("--attempt", args.attempt), ("--seed", args.seed)):
        if args.graph is not None and value is not None:
            raise _UsageError(f"{flag} regenerates a --model host; --graph reads its host from the file")
    attempt = args.attempt or 0
    if attempt < 0:
        raise _UsageError(f"--attempt must be >= 0, got {attempt}")
    cert = CycleCertificate.from_text(Path(args.cert).read_text())
    host = _host_source(args, cert.k, cert.mode)
    if isinstance(host, ModelSpec):
        cfg = Parameters(k=cert.k, mode=cert.mode, seed=DEFAULT_SEED if args.seed is None else args.seed)
        host = attempt_rounds(host, cfg, attempt)[3]
    try:
        ok = verify_certificate(host, cert)
    except ValueError as err:
        raise ValueError(f"malformed certificate: {err}") from err
    print("certificate OK" if ok else "certificate REJECTED")
    if ok:
        return 0
    edge = missing_edge(host, cert.order, cert.k, cert.mode, cyclic=True)
    print(f"host lacks required edge {edge}", file=sys.stderr)
    return 2


def _cmd_density(args) -> int:
    g = _load_graph(args.input)
    if args.root:
        root = VertexTuple(int(x) for x in args.root.split(","))
        value = m_density(RootedTemplate(template=g, root=root))
    else:
        value = m1_density(g)
    print(f"{value.numerator}/{value.denominator}")
    return 0


def _check_template_edges(what: str, edges: int) -> None:
    """Refuse, before building it, a template with more than TEMPLATE_EDGE_LIMIT edges."""
    if edges > TEMPLATE_EDGE_LIMIT:
        raise ValueError(f"refusing to build {what}: {edges} edges exceed the limit of "
                         f"{TEMPLATE_EDGE_LIMIT}")


def _janson_template(spec: str, n: int) -> Hypergraph:
    if spec == "builtin:triangle":
        return Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
    if not spec.startswith("builtin:path-"):
        return _load_graph(spec)
    try:  # exactly two integers, so neither can be negative
        k, ell = map(int, spec.removeprefix("builtin:path-").split("-"))
    except ValueError as err:
        raise _UsageError(f"bad builtin template {spec!r}: {err}") from err
    if ell > n:
        raise ValueError(f"refusing {spec}: its {ell} vertices exceed --n {n}")
    r = max(min(k, ell - 1), 0)  # the longest offset that joins two path vertices
    _check_template_edges(spec, r * ell - r * (r + 1) // 2)
    try:
        return power_path_template(k, ell)
    except ValueError as err:  # k < 1, or fewer than two vertices
        raise _UsageError(f"bad builtin template {spec!r}: {err}") from err


def _magnitude(log_value: float) -> str:
    """A nonnegative figure from its natural log; outside a float's range, a power of ten."""
    if log_value == -math.inf or abs(log_value) < 700.0:
        return f"{math.exp(log_value):.10g}"
    return f"10^{log_value / math.log(10.0):.10g}"


def _cmd_janson(args) -> int:
    template = _janson_template(args.template, args.n)
    if args.exact:
        mu, delta = janson_mod.exact_mu_delta(args.n, template, args.p)
        params = janson_mod.JansonParams.compute(mu=mu, delta=delta, gamma=args.gamma)
        label = "exact"
    else:
        params = janson_mod.JansonParams.from_logs(
            janson_mod.log_expected_lex_copies(args.n, template, args.p),
            janson_mod.log_delta_upper_bound(args.n, template, args.p), args.gamma)
        label = "bound"
    print(f"mu = {_magnitude(params.log_mu)}")
    print(f"delta ({label}) = {_magnitude(params.log_delta)}")
    print(f"tail bound (gamma={args.gamma}) = {params.bound:.10g}")
    return 0


def _cmd_factor(args) -> int:
    g = _load_graph(args.graph)
    template = _load_graph(args.template)
    try:
        copies = almost_factor(g, template, args.epsilon)
    except PhaseFailure as err:
        raise ValueError(f"factor failed: {err}") from err
    covered = {v for emb in copies for v in emb.values()}
    print(f"copies found: {len(copies)}")
    print(f"leftover vertices: {g.n - len(covered)}")
    return 0


def _cmd_absorber(args) -> int:
    # the backbone has k edges per vertex in power mode (its 1-density is
    # k + 1/(2 ell)), one per vertex in tight mode
    per_vertex = args.k if args.mode == "power" else 1
    _check_template_edges(f"the k={args.k}, ell={args.ell} backbone",
                          per_vertex * (1 + 2 * args.k * args.ell))
    host, ab = absorber_mod.demo_absorber(args.k, args.ell, args.mode)
    with_x = absorber_mod.absorb_single(ab, include_x=True)
    without_x = absorber_mod.absorb_single(ab, include_x=False)
    print(f"host: complete {host.k}-uniform on {host.n} vertices")
    print(f"a = {tuple(ab.a)}, b = {tuple(ab.b)}, x = {ab.x}")
    print("traversal including x: ", " ".join(map(str, with_x)))
    print("traversal without x:   ", " ".join(map(str, without_x)))
    ok = all(is_path(host, path, args.k, args.mode) for path in (with_x, without_x))
    return 0 if ok else 2


def _experiment_row(task) -> tuple:
    (n, p, trial, seed, cfg_fields, zero_timings) = task
    cfg = Parameters(**cfg_fields, seed=seed)
    start = time.perf_counter()
    result = find_hamilton(ModelSpec(n=n, p=p), cfg)
    elapsed_ms = 0 if zero_timings else int((time.perf_counter() - start) * 1000)
    success = not isinstance(result, FailureReport)
    phase = "" if success else result.phase_failed
    return (n, p, trial, seed, int(success), phase, elapsed_ms)


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
    if args.trials < 0:
        raise _UsageError(f"--trials must be >= 0, got {args.trials}")
    n_list = [int(x) for x in args.n_list.split(",") if x]
    p_grid = [float(x) for x in args.p_grid.split(",") if x]
    cfg_fields = dict(k=args.k, mode=args.mode, retries=args.retries)
    cfg = Parameters(**cfg_fields)
    models = [ModelSpec(n=n, p=p) for n in n_list for p in p_grid]
    for m in models:  # before any trial runs
        check_stored_codes(cfg.uniformity, m.n, m.p)
    for n in n_list:  # an n with no plan is refused before any trial, not after those before it
        resolve_plan(n, cfg)
    runs = [(m, trial) for m in models for trial in range(args.trials)]
    tasks = [(m.n, m.p, trial, derive(args.seed, row), cfg_fields, args.zero_timings)
             for row, (m, trial) in enumerate(runs)]
    # the executor starts all its workers at once, so never ask for more than can run
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_experiment_row, tasks))
    else:
        rows = [_experiment_row(t) for t in tasks]
    lines = ["n,p,trial,seed,success,phase_failed,runtime_ms"]
    for n, p, trial, seed, success, phase, ms in rows:
        short = f"{p:g}"  # six significant digits, unless that changes p (0.9999999 is not 1)
        lines.append(f"{n},{short if float(short) == p else repr(p)},{trial},{seed},{success},{phase},{ms}")
    Path(args.csv).write_text("\n".join(lines) + "\n")
    done = sum(r[4] for r in rows)
    print(f"{done}/{len(rows)} trials succeeded; results in {args.csv} (seed {args.seed})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "find": _cmd_find,
        "verify": _cmd_verify,
        "density": _cmd_density,
        "janson": _cmd_janson,
        "factor": _cmd_factor,
        "absorber": _cmd_absorber,
        "experiment": _cmd_experiment,
    }
    try:
        # an output file is refused before any work when its directory is
        # missing, or when it names a directory itself
        out = vars(args).get("out") or vars(args).get("csv")
        if out and not Path(out).parent.is_dir():
            raise FileNotFoundError(f"cannot write {out}: no directory {Path(out).parent}")
        if out and Path(out).is_dir():
            raise IsADirectoryError(f"cannot write {out}: it is a directory")
        return handlers[args.command](args)
    except (_UsageError, OSError, ValueError) as err:
        print(f"hampow: error: {err}", file=sys.stderr)
        return 2 if isinstance(err, ValueError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
