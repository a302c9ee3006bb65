#!/usr/bin/env python3
"""Run one workload of the SAX-PAC serving benchmark.

    python3 perfbench/run.py --workload read-fw5k --seed 2014 --seconds 10 --trace 0

Builds the workload's inputs from ``--seed``, sets the serving stack up
cold, measures for ``--seconds`` and checks every answer against a linear
first-match oracle.  Prints every metric by name and unit, then, as the
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A traced run
also writes its spans as a Chrome trace-event file under ``.perfbench/``.
Exits non-zero when any answer is wrong or the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="300-rule classifiers and a short write "
                             "script (the benchmark's own smoke test)")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="perturb one expected answer; the run must "
                             "then fail (checks the checker)")
    return parser.parse_args(argv)


def _metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.core import (Result, RunContext, Tracer, provenance,
                                stop_children, write_json)
    from perfbench.workloads import WORKLOADS

    end_to_end, per_layer = _metric_names()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    ctx = RunContext(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), toy=args.toy, workdir=WORKDIR,
        src=SRC, corrupt_oracle=args.corrupt_oracle,
        tracer=Tracer() if args.trace else None,
    )
    res = Result()
    try:
        WORKLOADS[args.workload](ctx, res)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        for name in os.listdir(WORKDIR):
            if name.startswith("rules-") and name.endswith(f"-{os.getpid()}.txt"):
                os.remove(os.path.join(WORKDIR, name))
        leftover = stop_children()
    if leftover:
        print(f"error: child processes still alive: {leftover}",
              file=sys.stderr)
        return 1

    res.put("failed_frac", res.failed / max(1, res.attempted), "ratio")
    wanted = per_layer if ctx.trace else end_to_end
    missing = [name for name in wanted if name not in res.metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    prov = provenance(ROOT, SRC, ctx.seeds())
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "provenance": prov,
        "shape": res.shape, "attempted": res.attempted,
        "failed": res.failed, "mismatches": res.mismatches,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(res.metrics.items())},
    }
    write_json(os.path.join(WORKDIR, f"result-{stem}.json"), record)
    if ctx.tracer is not None:
        trace_path = os.path.join(WORKDIR, f"trace-{stem}.json")
        ctx.tracer.write_chrome(trace_path, {
            "workload": args.workload, "seed": args.seed, "provenance": prov,
        })
        print(f"trace: {len(ctx.tracer.spans)} spans -> {trace_path}")

    print(f"workload {args.workload} seed {args.seed} "
          f"shape {json.dumps(res.shape, sort_keys=True)}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    for name, (value, unit) in sorted(res.metrics.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    correct = res.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(res.attempted),
        "failed": int(res.failed),
        "metrics": {name: {"value": res.metrics[name][0],
                           "unit": res.metrics[name][1]} for name in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
