"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload warm-eval --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --write-spec

A run builds its inputs from ``--seed``, sets the program up, measures
for ``--seconds`` seconds, checks every answer against the reference
oracle, and prints one JSON object as its last line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``--workload all`` runs every workload untraced and
traced and prints the tracing overhead beside the figures.
``--write-spec`` renders ``BENCHMARK.json`` from the metric tables.
A run record (envelope, counts, frozen planner choices, spans) goes to
``perfbench-out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

WORKLOADS = {
    "warm-eval": (
        "repeated queries on large documents; evaluators, index and frozen "
        "planner dispatch do nearly all the work"
    ),
    "serve-adhoc": (
        "daemon round trips with first-seen queries mixed in; HTTP, plan "
        "maps, parse, compile and planner exploration dominate"
    ),
    "corpus-churn": (
        "store writes beside pool batches; ingest, publishing, generation "
        "invalidation and pool IPC happen only here"
    ),
}


def write_spec() -> str:
    from layers import END_TO_END, PER_LAYER

    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w") as handle:
        json.dump(spec, handle, indent=2)
        handle.write("\n")
    return path


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import common

    # SIGTERM unwinds like an exception, so every ``finally`` runs: the
    # daemon and pool workers stop and the scratch directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from layers import e2e_metrics, layer_metrics

    tracer = None
    if trace and workload != "serve-adhoc":
        from tracing import Tracer

        tracer = Tracer().install()
    if workload == "warm-eval":
        import warm_eval as module
    elif workload == "serve-adhoc":
        import serve_adhoc as module
    else:
        import corpus_churn as module

    try:
        if workload == "serve-adhoc":
            out = module.run(seed, seconds, trace=trace)
        else:
            out = module.run(seed, seconds, tracer=tracer)
    except common.CheckFailed as exc:
        print(f"CHECK FAILED ({workload}): {exc}", file=sys.stderr, flush=True)
        return 1
    layers = out["layers"]
    if tracer is not None:
        from tracing import overhead_pct

        layers["trace.overhead_pct"] = overhead_pct(tracer, out["elapsed_s"])
    record = {
        "envelope": common.envelope(workload, seed, seconds, trace),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "end_to_end": out["e2e"],
        "per_layer": layers if trace else None,
        **out["record"],
    }
    if tracer is not None:
        record["spans"] = tracer.snapshot()
    path = common.write_record(
        f"{workload}-seed{seed}-trace{int(trace)}.json", record
    )
    common.say(f"{workload}: attempted {out['attempted']}, failed "
               f"{out['failed']}; record {os.path.relpath(path, ROOT)}")
    metrics = layer_metrics(layers) if trace else e2e_metrics(out["e2e"])
    for name, m in metrics.items():
        common.say(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    common.emit(out["attempted"], out["failed"], metrics)
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, in child processes."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                ],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line, flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{workload} (trace {trace}) failed", file=sys.stderr)
                return 1
            results[(workload, trace)] = json.loads(lines[-1])
    print("\nworkload        attempted  failed  queries/s  traced q/s  overhead")
    summary = {}
    for workload in WORKLOADS:
        plain, traced = results[(workload, 0)], results[(workload, 1)]
        qps = plain["metrics"]["queries_per_s"]["value"]
        tqps = traced["metrics"]["trace.queries_per_s"]["value"]
        overhead = 100.0 * (qps - tqps) / qps
        print(f"{workload:15s} {plain['attempted']:9d} {plain['failed']:7d} "
              f"{qps:10.1f} {tqps:11.1f} {overhead:8.1f}%")
        summary[workload] = {
            "untraced": plain, "traced": traced, "overhead_pct": overhead,
        }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)
    if args.write_spec:
        print(write_spec())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
