"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload refresh --seed 1 --seconds 20 --trace 0

Workloads: ``refresh``, ``serve-zipf``, ``serve-churn``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once more under benchmark-owned spans and prints the per-layer
metrics, writing the spans as JSONL and a per-layer table under
``.perfbench-work/traces/``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("refresh", "serve-zipf", "serve-churn")

#: Threads that generate load, per workload; the rest is the main thread.
LOAD_THREADS = {"serve-churn": 2}

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "urr_at_20": "ratio",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "goodput_rps": "1/s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke tests")
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_blas_threads(workload: str) -> tuple[int, int]:
    """Cap BLAS threads so BLAS threads plus load threads fit in ``nproc``
    (never below one). Must run before numpy is imported."""
    load = LOAD_THREADS.get(workload, 1)
    blas = max(1, len(os.sched_getaffinity(0)) - load)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(blas)
    return blas, load


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    blas, load = pin_blas_threads(args.workload)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench import config, inputs, layers
    from perfbench.fingerprint import fingerprint
    from perfbench.jobs import run_job
    from perfbench.serve import run_serve

    scale = config.SCALES[args.scale]
    if args.prepare:
        inputs.prepare(ROOT, args.workload, args.seed, args.scale)
        return 0
    directory = inputs.ensure_inputs(ROOT, args.workload, args.seed, args.scale)
    work = ROOT / inputs.WORK_DIR
    rundir = work / "runs" / str(os.getpid())
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "refresh":
            outcome = run_job(args.workload, directory, scale, args.seconds,
                              args.seed, rundir, bool(args.trace))
        else:
            outcome = run_serve(args.workload, directory, scale, args.seconds,
                                args.seed, bool(args.trace))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    name = f"{args.scale}-{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans = [span.as_dict() for span in outcome.tracer.spans]
        values = {**layers.per_layer_metrics(spans, outcome.overhead_ratio),
                  **outcome.per_layer}
        units = layers.PER_LAYER_UNITS
        (work / "traces").mkdir(parents=True, exist_ok=True)
        outcome.tracer.export_jsonl(work / "traces" / f"{name}.jsonl")
        table = layers.render_table(layers.layer_table(spans))
        (work / "traces" / f"{name}.layers.txt").write_text(table + "\n", encoding="utf-8")
        print(table)
    else:
        values = outcome.end_to_end
        units = END_TO_END_UNITS
    tally = outcome.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in units.items()
        },
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "machine": fingerprint(ROOT, blas, load), "notes": outcome.notes,
        "result": result,
    }
    (work / "results").mkdir(parents=True, exist_ok=True)
    (work / "results" / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n",
                                                   encoding="utf-8")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
