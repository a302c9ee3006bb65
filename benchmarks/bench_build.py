"""Compile-pipeline benchmark: full build stage breakdown + incremental
rebuild speedup.

Standalone script (not a pytest-benchmark module) so CI can smoke it:

    python benchmarks/bench_build.py --quick

Builds a :class:`~repro.saxpac.engine.SaxPacEngine` over a generated
classifier and reports:

* **full build** wall-clock with the per-stage breakdown (disjointness →
  grouping → lookup-structure construction → TCAM encoding) straight from
  ``EngineReport.build_stages``;
* the same classifier compiled through the **reference scans**
  (:func:`~repro.analysis.mgr.l_mgr_reference` + the rule-at-a-time
  greedy) so the vectorized-vs-reference ratio stays visible, with a
  structural-equality assertion between the two pipelines;
* an **incremental rebuild** of a ~1% rule change (half removals, half
  insertions) via :meth:`SaxPacEngine.rebuild`, path-equivalence-checked
  against a fresh build on sampled packets, with the rebuild-vs-full
  speedup (the headline number: >= 10x on the default config);
* the **service set-up**: ``HotSwapRuntime(classifier)`` (seeding the
  rule table, then the same full engine build), with its ratio to the
  full build.

``--baseline BENCH_build.json`` gates regressions for CI: engine
structure (groups / software rules / TCAM entries) must be identical and
full-build time must not regress more than ``--regression`` (default
20%).  Structure is compared only when the baseline ran the same
(style, rules, seed) configuration.  ``--max-setup-ratio R`` fails the
run when the service set-up takes more than R times the full build.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import List, Optional

if __package__ in (None, ""):  # script invocation: put src/ on the path
    _SRC = os.path.join(os.path.dirname(__file__), "..", "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

import numpy as np

from repro.analysis.mgr import l_mgr_reference
from repro.analysis.mrc import _fields_or_all, _greedy_independent_scan
from repro.core.classifier import Classifier
from repro.runtime.swap import HotSwapRuntime
from repro.saxpac.engine import SaxPacEngine
from repro.workloads.generator import STYLES, generate_classifier


def _reference_compile(classifier: Classifier) -> dict:
    """Time the pre-vectorization pipeline (rule-at-a-time scans) on the
    analysis stages only — the part the columnar pipeline replaced."""
    lows, highs = classifier.bounds_arrays()
    chosen = _fields_or_all(classifier, None)
    start = time.perf_counter()
    independent = _greedy_independent_scan(
        lows[:, chosen], highs[:, chosen], range(lows.shape[0]), chosen
    )
    disjointness = time.perf_counter() - start
    start = time.perf_counter()
    grouping = l_mgr_reference(
        classifier,
        l=min(2, classifier.num_fields),
        rule_subset=independent.rule_indices,
    )
    return {
        "disjointness_seconds": round(disjointness, 4),
        "grouping_seconds": round(time.perf_counter() - start, 4),
        "num_groups": grouping.num_groups,
    }


def _mutate(classifier: Classifier, fraction: float, seed: int) -> Classifier:
    """A ~``fraction`` rule change: half removals, half fresh insertions
    at random priorities.  Surviving Rule objects are reused so the
    identity diff in :meth:`SaxPacEngine.rebuild` applies."""
    rng = random.Random(seed)
    body = list(classifier.body)
    changes = max(2, int(len(body) * fraction))
    removals = changes // 2
    insertions = changes - removals
    for index in sorted(rng.sample(range(len(body)), removals), reverse=True):
        del body[index]
    donor = generate_classifier("acl", max(64, insertions * 4), seed + 1)
    for rule in list(donor.body)[:insertions]:
        body.insert(rng.randint(0, len(body)), rule)
    return Classifier(classifier.schema, body)


def _check_equivalence(
    engine_a: SaxPacEngine, engine_b: SaxPacEngine, classifier, sample: int, seed: int
) -> int:
    """Path-equivalence of two engines (and the linear reference) on
    sampled headers; returns headers checked."""
    rng = np.random.default_rng(seed)
    headers = np.stack(
        [
            rng.integers(0, 1 << width, size=sample)
            for width in classifier.schema.widths
        ],
        axis=1,
    ).tolist()
    got = [m.index for m in engine_a.match_batch(headers)]
    want = [m.index for m in engine_b.match_batch(headers)]
    reference = [m.index for m in classifier.match_batch(headers)]
    if got != want or got != reference:
        bad = next(
            i for i in range(sample) if got[i] != want[i] or got[i] != reference[i]
        )
        raise AssertionError(
            f"rebuild mismatch on {headers[bad]}: incremental={got[bad]} "
            f"fresh={want[bad]} linear={reference[bad]}"
        )
    return sample


def _normalized_cost(payload: dict) -> Optional[float]:
    """Machine-independent build cost: vectorized full-build seconds over
    the same-run reference-scan seconds.  Runner speed cancels out of the
    ratio, so a checked-in baseline gates CI boxes of any speed."""
    reference = payload.get("reference_scan") or {}
    denominator = (
        reference.get("disjointness_seconds", 0.0)
        + reference.get("grouping_seconds", 0.0)
    )
    seconds = payload.get("full_build", {}).get("seconds")
    if not denominator or not seconds:
        return None
    return seconds / denominator


def _gate(result: dict, baseline_path: str, regression: float) -> List[str]:
    """Compare against a checked-in baseline; returns failure messages.

    Structure (groups / software rules / TCAM entries) must be identical
    when the baseline ran the same configuration.  Build time is gated on
    the :func:`_normalized_cost` ratio when both runs carry reference
    timings (robust to runner speed); otherwise on absolute seconds.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures: List[str] = []
    same_config = all(
        baseline.get("config", {}).get(key) == result["config"][key]
        for key in ("style", "rules", "seed")
    )
    if same_config:
        for key in ("num_groups", "software_rules", "tcam_entries"):
            want = baseline.get("engine", {}).get(key)
            got = result["engine"][key]
            if want is not None and got != want:
                failures.append(
                    f"engine structure changed: {key} {want} -> {got}"
                )
    if not same_config:
        return failures
    base_cost = _normalized_cost(baseline)
    got_cost = _normalized_cost(result)
    if base_cost is not None and got_cost is not None:
        if got_cost > base_cost * (1.0 + regression):
            failures.append(
                "full build regressed: normalized cost "
                f"{base_cost:.3f} -> {got_cost:.3f} "
                f"(> {regression:.0%} slower than reference-relative "
                "baseline)"
            )
    else:
        base_seconds = baseline.get("full_build", {}).get("seconds")
        got_seconds = result["full_build"]["seconds"]
        if base_seconds and got_seconds > base_seconds * (1.0 + regression):
            failures.append(
                f"full build regressed: {base_seconds:.3f}s -> "
                f"{got_seconds:.3f}s (> {regression:.0%} slower)"
            )
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="SAX-PAC compile-pipeline benchmark"
    )
    parser.add_argument("--style", choices=sorted(STYLES), default="acl")
    parser.add_argument("--rules", type=int, default=10000)
    parser.add_argument("--change-fraction", type=float, default=0.01,
                        help="rule churn for the incremental rebuild")
    parser.add_argument("--equivalence-sample", type=int, default=4000,
                        help="headers for the rebuild path-equivalence check")
    parser.add_argument("--seed", type=int, default=2014,
                        help="workload RNG seed (reproducible numbers)")
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration for CI")
    parser.add_argument("--skip-reference", action="store_true",
                        help="skip timing the rule-at-a-time reference scans")
    parser.add_argument("--baseline", default=None,
                        help="gate against this BENCH_build.json")
    parser.add_argument("--regression", type=float, default=0.20,
                        help="max tolerated full-build slowdown vs baseline")
    parser.add_argument("--max-setup-ratio", type=float, default=None,
                        help="fail when HotSwapRuntime set-up exceeds this "
                             "multiple of the full build")
    parser.add_argument("--out", default="BENCH_build.json")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.rules = min(args.rules, 2000)
        args.equivalence_sample = min(args.equivalence_sample, 1000)
    classifier = generate_classifier(args.style, args.rules, args.seed)

    start = time.perf_counter()
    engine = SaxPacEngine(classifier)
    full_seconds = time.perf_counter() - start
    report = engine.report()

    start = time.perf_counter()
    HotSwapRuntime(classifier)
    setup_seconds = time.perf_counter() - start
    setup_ratio = setup_seconds / full_seconds

    reference = None
    if not args.skip_reference:
        reference = _reference_compile(classifier)
        if reference["num_groups"] != report.num_groups:
            raise AssertionError(
                "vectorized and reference pipelines disagree: "
                f"{report.num_groups} vs {reference['num_groups']} groups"
            )

    changed = _mutate(classifier, args.change_fraction, args.seed + 7)
    start = time.perf_counter()
    rebuilt = engine.rebuild(changed)
    rebuild_seconds = time.perf_counter() - start
    start = time.perf_counter()
    fresh = SaxPacEngine(changed)
    fresh_seconds = time.perf_counter() - start
    checked = _check_equivalence(
        rebuilt, fresh, changed, args.equivalence_sample, args.seed + 9
    )
    rebuild_speedup = (
        fresh_seconds / rebuild_seconds if rebuild_seconds else float("inf")
    )

    result = {
        "benchmark": "compile-pipeline",
        "config": {
            "style": args.style,
            "rules": len(classifier.body),
            "change_fraction": args.change_fraction,
            "seed": args.seed,
            "quick": args.quick,
        },
        "engine": {
            "software_rules": report.software_rules,
            "tcam_rules": report.tcam_rules,
            "num_groups": report.num_groups,
            "tcam_entries": report.tcam_entries,
        },
        "full_build": {
            "seconds": round(full_seconds, 4),
            "stages": {
                name: round(seconds, 4) for name, seconds in report.build_stages
            },
        },
        "service_setup": {
            "seconds": round(setup_seconds, 4),
            "ratio_to_build": round(setup_ratio, 2),
        },
        "reference_scan": reference,
        "incremental_rebuild": {
            "seconds": round(rebuild_seconds, 4),
            "stages": {
                name: round(seconds, 4)
                for name, seconds in rebuilt.build_stages
            },
            "incremental": rebuilt.build_incremental,
            "fresh_build_seconds": round(fresh_seconds, 4),
            "speedup_vs_full": round(rebuild_speedup, 1),
            "equivalence_checked_packets": checked,
        },
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")

    print(f"rules={len(classifier.body)} style={args.style} seed={args.seed}")
    print(f"  full build : {full_seconds:8.3f}s  "
          + " ".join(f"{n}={s:.3f}s" for n, s in report.build_stages))
    print(f"  set-up     : {setup_seconds:8.3f}s  "
          f"(HotSwapRuntime, {setup_ratio:.2f}x the full build)")
    if reference is not None:
        ref_total = (
            reference["disjointness_seconds"] + reference["grouping_seconds"]
        )
        print(f"  reference  : {ref_total:8.3f}s  (analysis stages only, "
              f"rule-at-a-time scans)")
    print(f"  rebuild    : {rebuild_seconds:8.3f}s  "
          f"({rebuild_speedup:.1f}x vs {fresh_seconds:.3f}s fresh, "
          f"{args.change_fraction:.1%} churn, equivalence checked on "
          f"{checked} headers)")
    print(f"wrote {args.out}")

    failures = []
    if args.max_setup_ratio is not None and setup_ratio > args.max_setup_ratio:
        failures.append(
            f"service set-up is {setup_ratio:.2f}x the full build "
            f"(> {args.max_setup_ratio:.2f}x)"
        )
    if args.baseline:
        failures += _gate(result, args.baseline, args.regression)
    for failure in failures:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.baseline:
        print(f"gate OK vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
