"""Run one hampow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload power-k2-n3000 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The untraced run (``--trace 0``) reports
the end-to-end metrics; the traced run (``--trace 1``) installs the span
recorder of ``spans.py`` for the timed region only and reports the
per-layer metrics, writing its spans to ``perfbench/out/`` as JSON lines.
Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the metrics ``BENCHMARK.json`` declares for
the mode.  The exit code is 1 when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 9

# units of the figures that are printed but not declared in BENCHMARK.json
PRINTED_UNITS = {
    "find_s_mean": "s", "verified_per_min": "1/min", "success_rate": "ratio",
    "error_count": "count", "trace.coverage": "ratio",
}


def load_spec() -> dict:
    return json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl.import_hampow()
    w = wl.WORKLOADS[args.workload]
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(PRINTED_UNITS)
    tracer = Tracer() if args.trace else None
    print(f"workload {w.name} seed {args.seed}: {w.ops(args.seconds)} finds")

    if tracer is not None:
        tracer.install()
        try:
            run = w.run(args.seed, args.seconds, tracer)
        finally:
            tracer.uninstall()
    else:
        run = w.run(args.seed, args.seconds)
    run.peak_rss_mb = wl.peak_rss_mb()

    wl.OUT.mkdir(exist_ok=True)
    wl.verify(run)
    wl.compare_digests(run, wl.OUT / "digests.json")
    # the code hash keeps the traced-minus-untraced figure within one version
    tag = f"{w.name}-{args.seed}-{run.ops}-{wl.code_hash()[:12]}"
    if tracer is None:
        metrics = wl.end_to_end(run, wl.setup_times(w, SETUP_REPEATS))
        (wl.OUT / f"untraced-{tag}.json").write_text(json.dumps(metrics, indent=1))
    else:
        metrics = tracer.layer_metrics()
        metrics["trace.coverage"] = tracer.coverage()
        untraced = wl.OUT / f"untraced-{tag}.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["find_s_p50"]
            metrics["trace.overhead_s"] = metrics["pipeline.find_s_p50"] - base
        tracer.write_jsonl(wl.OUT / f"spans-{tag}.jsonl")
        (wl.OUT / f"layers-{tag}.json").write_text(json.dumps(metrics, indent=1))

    metrics["error_count"] = len(run.problems)
    for name, value in metrics.items():
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        print(f"{name} {value:.6g} {unit}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"digest {wl.hash_run(run)}")

    result = {
        "correct": not run.problems,
        "attempted": len(run.finds),
        "failed": sum(1 for f in run.finds if f.failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
