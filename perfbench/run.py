"""Benchmark entry point.

    python3 perfbench/run.py --workload session-frequency --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no wrapper installed; ``--trace 1`` installs the span
recorder and reports the per-layer metrics instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Full results go to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# one BLAS thread: the loop is a single closed-loop caller on one core, and
# a second BLAS thread competes with whatever else the host runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
REQUIRED = (
    os.path.join("src", "progest", "__init__.py"),
    os.path.join("data", "corpus.jsonl"),
    os.path.join("data", "demo", "demo_grammar.txt"),
)
WORKLOADS = ("session-frequency", "session-logistic", "certify")

# ``.calls`` of a wrapped function is its span count, of a generator the
# number of generators made
GENERATORS = ("trees.iter_derivations",)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def per_layer_metrics(spec: dict, totals: dict, info: dict) -> dict:
    def ratio(a, b):
        return totals.get(a, 0.0) / totals[b] if totals.get(b) else 0.0

    values = {}
    for entry in spec["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        base, _, stat = name.rpartition(".")
        if name == "constraints.kept_ratio":
            value = ratio("constraints.kept", "constraints.probed")
        elif name == "models.replay_ratio":
            value = ratio("models.items", "models.replays")
        elif name == "condsynth.precision_at_10":
            value = info.get("precision", {}).get(10, 0.0)
        elif stat == "calls" and base not in GENERATORS:
            value = totals.get(base + ".spans", 0.0)
        else:
            value = totals.get(name, 0.0)
        values[name] = {"value": value, "unit": unit}
    return values


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a progest checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import tracer as tracing
    import workloads

    os.makedirs(RESULTS, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    result = _run(workloads, args, tracer)

    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    spec = load_spec()
    if tracer is not None:
        totals = tracer.per_round(result.per_round_ops)
        metrics = per_layer_metrics(spec, totals, result.info)
        tracer.write(os.path.join(RESULTS, "trace-" + args.workload),
                     {"workload": args.workload, "seed": args.seed,
                      "per_round_ops": result.per_round_ops, "per_round": metrics})
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result.metrics.items()}
        expected = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
        reported = {(name, m["unit"]) for name, m in metrics.items()}
        if reported != expected:
            raise RuntimeError(f"metrics {sorted(reported ^ expected)} do not match "
                               "BENCHMARK.json")

    for line in result.errors:
        print(f"check failed: {line}", file=sys.stderr)
    summary = {
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    with open(os.path.join(RESULTS, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(dict(summary, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, info=result.info, machine=machine(),
                       errors=result.errors, raw=result.raw,
                       end_to_end={k: v for k, (v, _) in result.metrics.items()}),
                  handle, indent=1, sort_keys=True)
    for name, (value, unit) in sorted(result.metrics.items()):
        raw = result.raw.get(name)
        extra = f"  (raw {raw:.6g})" if raw is not None else ""
        print(f"{name:14s} {value:12.6g} {unit}{extra}")
    print(json.dumps(summary))
    return 0


def _run(workloads, args, tracer):
    if args.workload == "certify":
        return workloads.run_certify(ROOT, args.seed, args.seconds, tracer)
    kind = args.workload.split("-", 1)[1]
    return workloads.run_session(ROOT, kind, args.seed, args.seconds, tracer, RESULTS)


if __name__ == "__main__":
    raise SystemExit(main())
