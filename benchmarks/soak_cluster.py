"""Million-request chaos soak over the replicated serving tier.

Standalone script (not a pytest module) so CI can run it:

    python benchmarks/soak_cluster.py --quick

Stands up a 3-replica :class:`~repro.net.cluster.LocalCluster` with
per-replica chaos armed (``net.conn`` connection crashes + corrupt
response frames, ``shard.worker`` crashes inside each replica's shm
shard workers) and pushes ``--requests`` pipelined requests through a
:class:`~repro.net.cluster.ReplicaSet`.  Mid-stream, on a schedule tied
to progress, it:

* **kills** one replica hard (connections abort mid-request) at ~25%,
* **restarts** it on a fresh port and rejoins it at ~50%,
* runs a **rolling swap** (decision-identical inserts, so the oracle
  stays fixed) *under load* at ~60%.

Every answer is compared against the linear-scan oracle computed once
over the packet pool (:func:`~repro.net.cluster.fold_catch_all`
normalizes the catch-all index across the swap).  The soak fails unless:

* **zero** requests mismatch the oracle,
* every replica converges to the final engine generation,
* the latency probes' p99 stays bounded — the gate is the
  **p99/p50 ratio** against the checked-in ``SOAK_cluster.json``, so
  runner speed cancels out and only tail *shape* regressions fail it.

A dedicated prober thread samples a window=1 request through its own
:class:`~repro.net.cluster.ReplicaSet` every few milliseconds for the
whole load phase — including the kill, restart and swap windows — so
the percentiles come from thousands of uniformly spread samples rather
than a handful of checkpoints, and the probe *maximum* (recorded, not
gated) captures the worst single failover any request experienced.

Chaos injection is asserted to have actually fired (a soak that never
hurt anything proves nothing); it is disarmed before the convergence
check so post-load control-plane probes measure the cluster, not the
fault plan.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from typing import Dict, List, Optional

if __package__ in (None, ""):  # script invocation: put src/ on the path
    _SRC = os.path.join(os.path.dirname(__file__), "..", "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

import numpy as np

from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.net import NetConfig
from repro.net.cluster import (
    LocalCluster,
    decision_identical_updates,
    fold_catch_all,
)
from repro.runtime.batch import linear_match_indices
from repro.runtime.service import RuntimeConfig, RuntimeService
from repro.workloads.generator import STYLES, generate_classifier
from repro.workloads.traces import generate_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="SAX-PAC replicated-serving chaos soak"
    )
    parser.add_argument("--style", choices=sorted(STYLES), default="acl")
    parser.add_argument("--rules", type=int, default=500)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--requests", type=int, default=1_000_000,
                        help="wire requests pushed through the set")
    parser.add_argument("--request-size", type=int, default=4,
                        help="packets per request")
    parser.add_argument("--replicas", type=int, default=3)
    parser.add_argument("--shards", type=int, default=2,
                        help="shm shard worker processes per replica (the "
                             "shard.worker chaos site lives inside them)")
    parser.add_argument("--pool", type=int, default=50_000,
                        help="distinct packets in the cycled pool (the "
                             "linear oracle is computed once over these)")
    parser.add_argument("--window", type=int, default=16,
                        help="pipelining depth per replica connection")
    parser.add_argument("--chunk", type=int, default=64,
                        help="requests per wire call inside the router")
    parser.add_argument("--slice", type=int, default=4000,
                        help="requests per match_many round through the set")
    parser.add_argument("--policy", default="rendezvous",
                        choices=["rendezvous", "least_inflight"])
    parser.add_argument("--updates", type=int, default=4,
                        help="decision-identical inserts per rolling swap")
    parser.add_argument("--probe-interval-ms", type=float, default=5.0,
                        help="delay between window=1 latency probes (a "
                             "dedicated thread probes for the whole run)")
    parser.add_argument("--no-chaos", action="store_true",
                        help="run the soak without fault injection")
    parser.add_argument("--kill-at", type=float, default=0.25,
                        help="progress fraction at which a replica dies")
    parser.add_argument("--restart-at", type=float, default=0.50,
                        help="progress fraction at which it restarts")
    parser.add_argument("--swap-at", type=float, default=0.60,
                        help="progress fraction at which the rolling swap "
                             "starts (under load)")
    parser.add_argument("--quick", action="store_true",
                        help="100k-request PR-lane configuration")
    parser.add_argument("--baseline", default=None,
                        help="SOAK_cluster.json to gate the probe p99/p50 "
                             "ratio against")
    parser.add_argument("--regression", type=float, default=1.0,
                        help="allowed relative growth of the p99/p50 ratio "
                             "over the baseline")
    parser.add_argument("--artifacts-dir", default=None,
                        help="write per-replica telemetry snapshots here")
    parser.add_argument("--out", default="SOAK_cluster.json")
    return parser


def chaos_plan(seed: int) -> FaultPlan:
    """Per-replica fault plan: rare but steady connection teardowns,
    corrupt response frames, and shard-worker crashes.  All three are
    *recoverable* by design — the client resends through its retry
    budget, the shard ladder falls back to the linear path — so the soak
    asserts zero wrong answers *while* faults keep firing."""
    return FaultPlan(
        specs=(
            FaultSpec(site="net.conn", kind="crash", probability=3e-4,
                      message="soak connection teardown"),
            FaultSpec(site="net.conn", kind="corrupt", probability=1e-4),
            FaultSpec(site="shard.worker", kind="crash", probability=3e-4,
                      message="soak shard crash"),
        ),
        seed=seed,
    )


def percentile(samples: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


class Prober(threading.Thread):
    """Samples one window=1 request through its own replica set every
    ``interval_s`` until stopped, verifying each answer against the
    oracle.  Runs through every disruption window, so the recorded
    distribution is the latency a light concurrent tenant actually saw
    while replicas died, rejoined, and swapped."""

    def __init__(self, replica_set, blocks, expected, n_body, interval_s):
        super().__init__(name="soak-prober", daemon=True)
        self.replica_set = replica_set
        self.blocks = blocks
        self.expected = expected
        self.n_body = n_body
        self.interval_s = interval_s
        self.latencies: List[float] = []
        self.mismatches = 0
        self.errors: List[str] = []
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        i = 0
        n_pool = len(self.blocks)
        while not self._halt.is_set():
            key = (i * 131) % n_pool
            i += 1
            t0 = time.perf_counter()
            try:
                answer = self.replica_set.match_many(
                    [self.blocks[key]], window=1, keys=[key]
                )[0]
            except Exception as exc:  # ClusterError etc. — a probe that
                # cannot complete is a finding, not a crash of the soak.
                self.errors.append(f"{type(exc).__name__}: {exc}")
                if len(self.errors) >= 5:
                    return
                continue
            self.latencies.append(time.perf_counter() - t0)
            if not np.array_equal(
                fold_catch_all(answer, self.n_body), self.expected[key]
            ):
                self.mismatches += 1
            self._halt.wait(self.interval_s)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.requests = min(args.requests, 100_000)
        args.pool = min(args.pool, 20_000)
    if args.requests < args.slice:
        args.slice = args.requests

    classifier = generate_classifier(args.style, args.rules, args.seed)
    n_body = len(classifier.body)

    # The packet pool and its oracle, computed exactly once.  Requests
    # cycle through the pool, so a million requests cost one linear scan
    # of `--pool` packets on the verification side.
    pool_packets = max(args.pool, args.request_size)
    trace = generate_trace(classifier, pool_packets, seed=args.seed + 1)
    pool_blocks = [
        np.asarray(trace[i : i + args.request_size], dtype=np.uint32)
        for i in range(
            0, pool_packets - args.request_size + 1, args.request_size
        )
    ]
    n_pool = len(pool_blocks)
    oracle = fold_catch_all(linear_match_indices(classifier, trace), n_body)
    expected = [
        oracle[i * args.request_size : (i + 1) * args.request_size]
        for i in range(n_pool)
    ]

    # Chaos per replica: injector_factory runs first in LocalCluster's
    # _start, so service_factory can pick the same injector up and the
    # shard.worker site fires inside the very shards serving traffic.
    # A restarted replica gets a fresh injector from the same plan.
    injectors: Dict[str, List[FaultInjector]] = {}

    def make_injector(name: str):
        if args.no_chaos:
            return None
        injector = FaultInjector(chaos_plan(args.seed + len(injectors)))
        injectors.setdefault(name, []).append(injector)
        return injector

    def make_service(name: str) -> RuntimeService:
        injector = injectors[name][-1] if name in injectors else None
        return RuntimeService(
            classifier,
            config=RuntimeConfig(num_shards=args.shards),
            injector=injector,
        )

    updates = decision_identical_updates(
        classifier, args.updates, seed=args.seed + 2
    )
    kill_name = "replica-1" if args.replicas > 1 else None
    kill_after = int(args.requests * args.kill_at)
    restart_after = int(args.requests * args.restart_at)
    swap_after = int(args.requests * args.swap_at)

    swap_report: Dict[str, object] = {}
    mismatch_requests = 0
    first_mismatch: Optional[Dict[str, object]] = None
    sent = 0
    killed = restarted = False

    cluster = LocalCluster(
        classifier,
        replicas=args.replicas,
        net_config=NetConfig(coalesce_wait_ms=0.2),
        service_factory=make_service,
        injector_factory=make_injector,
    )
    replica_set = cluster.replica_set(
        policy=args.policy,
        chunk=args.chunk,
        retries=6,
        timeout_s=60.0,
    )
    probe_set = cluster.replica_set(
        policy=args.policy,
        retries=6,
        timeout_s=60.0,
    )
    prober = Prober(
        probe_set,
        pool_blocks,
        expected,
        n_body,
        args.probe_interval_ms / 1e3,
    )

    def run_swap() -> None:
        swap_report.update(cluster.rolling_swap(updates, grace_s=10.0))

    swapper = threading.Thread(target=run_swap, name="soak-rolling-swap")
    try:
        start = time.perf_counter()
        prober.start()
        while sent < args.requests:
            if kill_name is not None and not killed and sent >= kill_after:
                killed = True
                # Mid-slice, so requests are genuinely in flight when the
                # connections abort.
                threading.Timer(0.05, cluster.kill, args=(kill_name,)).start()
            if killed and not restarted and sent >= restart_after:
                restarted = True
                port = cluster.restart(kill_name)
                replica_set.rejoin(kill_name, port=port)
                probe_set.rejoin(kill_name, port=port)
            if not swapper.is_alive() and not swap_report and (
                sent >= swap_after
            ):
                swapper.start()

            n = min(args.slice, args.requests - sent)
            keys = [(sent + j) % n_pool for j in range(n)]
            answers = replica_set.match_many(
                [pool_blocks[k] for k in keys],
                window=args.window,
                keys=keys,
            )
            got = fold_catch_all(np.concatenate(answers), n_body)
            want = np.concatenate([expected[k] for k in keys])
            bad_rows = np.flatnonzero(
                (got != want).reshape(n, args.request_size).any(axis=1)
            )
            if bad_rows.size:
                mismatch_requests += int(bad_rows.size)
                if first_mismatch is None:
                    row = int(bad_rows[0])
                    first_mismatch = {
                        "request": sent + row,
                        "pool_block": keys[row],
                        "got": got.reshape(n, -1)[row].tolist(),
                        "want": want.reshape(n, -1)[row].tolist(),
                    }
            sent += n
        if not swapper.is_alive() and not swap_report:
            swapper.start()  # tiny workloads: swap still must happen
        swapper.join()
        prober.stop()
        prober.join(timeout=120.0)
        seconds = time.perf_counter() - start

        # Disarm chaos before the control-plane phase: the convergence
        # probes should measure the cluster, not the fault plan.
        for stack in injectors.values():
            for injector in stack:
                injector.plan = FaultPlan((), injector.plan.seed)

        target = max(cluster.generations().values())
        generations = replica_set.wait_converged(target, timeout_s=60.0)
        replica_requests = {
            name: cluster.services[name].telemetry.counter("net.requests")
            for name in cluster.names
        }
        if args.artifacts_dir:
            os.makedirs(args.artifacts_dir, exist_ok=True)
            for name in cluster.names:
                snap = cluster.services[name].snapshot()
                path = os.path.join(
                    args.artifacts_dir, f"telemetry_{name}.json"
                )
                with open(path, "w") as fh:
                    json.dump(
                        {
                            "counters": snap.counters,
                            "latencies": snap.latencies,
                        },
                        fh,
                        indent=2,
                        default=str,
                    )
                    fh.write("\n")
    finally:
        prober.stop()
        drains = cluster.stop()
        replica_set.close()
        probe_set.close()

    chaos_injected: Dict[str, int] = {}
    for stack in injectors.values():
        for injector in stack:
            for (site, kind), count in injector.injected.items():
                key = f"{site}:{kind}"
                chaos_injected[key] = chaos_injected.get(key, 0) + count

    p50_ms = percentile(prober.latencies, 50) * 1e3
    p99_ms = percentile(prober.latencies, 99) * 1e3
    max_ms = max(prober.latencies) * 1e3
    ratio = p99_ms / p50_ms if p50_ms else float("inf")

    baseline_ratio = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline_ratio = json.load(fh)["probe"]["ratio_p99_p50"]

    checks = {
        "zero_mismatches": mismatch_requests == 0,
        "zero_probe_mismatches": prober.mismatches == 0,
        "probes_completed": not prober.errors,
        "converged": all(
            g == target for g in generations.values()
        ),
        "swap_generation_advanced": target > 1,
        "all_replicas_served": all(
            count > 0 for count in replica_requests.values()
        ),
        "failover_exercised": kill_name is None
        or replica_set.stats["cluster.replica_deaths"] >= 1,
        "chaos_fired": args.no_chaos or sum(chaos_injected.values()) > 0,
        "clean_drains": all(drains.values()),
        "p99_ratio_bounded": baseline_ratio is None
        or ratio <= baseline_ratio * (1.0 + args.regression),
    }
    passed = all(checks.values())

    result = {
        "benchmark": "cluster-soak",
        "config": {
            "style": args.style,
            "rules": n_body,
            "replicas": args.replicas,
            "shards": args.shards,
            "requests": args.requests,
            "request_size": args.request_size,
            "pool_packets": pool_packets,
            "window": args.window,
            "chunk": args.chunk,
            "policy": args.policy,
            "updates": args.updates,
            "chaos": not args.no_chaos,
            "seed": args.seed,
            "quick": args.quick,
        },
        "requests": sent,
        "packets": sent * args.request_size,
        "seconds": round(seconds, 3),
        "requests_per_second": round(sent / seconds, 1) if seconds else 0.0,
        "mismatch_requests": mismatch_requests,
        "first_mismatch": first_mismatch,
        "probe": {
            "count": len(prober.latencies),
            "mismatches": prober.mismatches,
            "errors": prober.errors,
            "p50_ms": round(p50_ms, 3),
            "p99_ms": round(p99_ms, 3),
            "max_ms": round(max_ms, 3),
            "ratio_p99_p50": round(ratio, 3),
            "baseline_ratio": baseline_ratio,
            "regression_allowed": args.regression,
        },
        "events": {
            "kill_after_request": kill_after if kill_name else None,
            "restart_after_request": restart_after if kill_name else None,
            "swap_after_request": swap_after,
            "swap": swap_report,
        },
        "target_generation": target,
        "generations": generations,
        "replica_requests": replica_requests,
        "cluster_stats": replica_set.stats,
        "chaos_injected": chaos_injected,
        "drains": drains,
        "checks": checks,
        "passed": passed,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    print(
        f"soak: {sent:,} requests ({sent * args.request_size:,} packets) "
        f"over {args.replicas} replicas in {seconds:.1f}s "
        f"({sent / seconds:,.0f} req/s)"
    )
    print(
        f"  mismatches: {mismatch_requests} "
        f"(+{prober.mismatches} probe)  "
        f"{len(prober.latencies)} probes p50 {p50_ms:.2f}ms "
        f"p99 {p99_ms:.2f}ms max {max_ms:.0f}ms "
        f"(ratio {ratio:.2f}"
        + (
            f", baseline {baseline_ratio:.2f} +{args.regression:.0%}"
            if baseline_ratio is not None
            else ""
        )
        + ")"
    )
    print(
        f"  failover: deaths={replica_set.stats['cluster.replica_deaths']} "
        f"rejoins={replica_set.stats['cluster.rejoins']} "
        f"rerouted={replica_set.stats['cluster.rerouted']} "
        f"(shed={replica_set.stats['cluster.shed_reroutes']} "
        f"drain={replica_set.stats['cluster.drain_reroutes']} "
        f"internal={replica_set.stats['cluster.internal_reroutes']})"
    )
    print(f"  swap: {swap_report}  generations -> {generations} "
          f"(target {target})")
    if chaos_injected:
        fired = " ".join(
            f"{key} x{count}" for key, count in sorted(chaos_injected.items())
        )
        print(f"  chaos: {fired}")
    for name in sorted(drains):
        print(f"  {name} drain: {'clean' if drains[name] else 'dirty'}")
    for name, ok in sorted(checks.items()):
        if not ok:
            print(f"  CHECK FAILED: {name}")
    print(f"wrote {args.out}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
