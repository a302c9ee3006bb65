"""Per-layer probes for the traced run.

Each probe times, from the benchmark's own code, calls into one layer's
public functions on the workload's own classifier and batches, under
spans of :class:`~perfbench.core.Tracer`.  Where a layer has no entry
point of its own, its cost is the difference of adjacent public calls on
the same batch.  Every answer a probe receives is handed to the
:class:`~perfbench.core.Checker` like any other.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .core import Checker, Result, Tracer, median, pc

#: Writes of the swap/shm write probe (alternating insert and remove).
PROBE_WRITES = 6


def _until(budget_s: float, minimum: int):
    """Iteration counter: at least ``minimum`` rounds, then until the
    budget is spent."""
    start = pc()
    i = 0
    while i < minimum or pc() - start < budget_s:
        yield i
        i += 1


def engine_build(tracer: Tracer, classifier, res: Result):
    """``SaxPacEngine(...)`` and its public ``build_stages``."""
    from repro.saxpac.engine import SaxPacEngine

    with tracer.span("engine.build") as span:
        engine = SaxPacEngine(classifier)
    res.put("engine.build_s", span.seconds, "s")
    stages = dict(engine.build_stages)
    for name in ("disjointness", "grouping", "lookup", "tcam"):
        res.put(f"engine.build.{name}_s", stages.get(name, 0.0), "s")
    res.put("engine.d_rules", len(engine.grouping.ungrouped), "count")
    res.put("engine.groups", len(engine.software.groups), "count")
    return engine


def engine_kernels(tracer: Tracer, engine, batches: Sequence[np.ndarray],
                   rows: Sequence[slice], checker: Checker, res: Result,
                   budget_s: float) -> None:
    """Kernel stages per 1024-packet batch: header conversion, per-group
    probe, candidate verify (``lookup_batch`` minus the probes) and D
    first-match plus merge (``match_batch_indices`` minus ``lookup_batch``
    minus the conversion)."""
    from repro.core.packet import headers_array

    schema = engine.classifier.schema
    software = engine.software
    convert: List[float] = []
    probe: List[float] = []
    verify: List[float] = []
    d_part: List[float] = []
    whole: List[float] = []
    cand0 = software.stats.candidates
    fp0 = software.stats.false_positives
    for i in _until(budget_s, 2 * len(batches)):
        b = i % len(batches)
        batch = batches[b]
        with tracer.span("kernel.batch", request_id=i):
            with tracer.span("engine.headers_array") as s_conv:
                harr = headers_array(batch, schema)
            probe_s = 0.0
            for gi, group in enumerate(software.groups):
                with tracer.span("engine.probe_batch", group=gi,
                                 backend=group.backend) as s_probe:
                    group.probe_batch(batch, harr)
                probe_s += s_probe.seconds
            with tracer.span("engine.lookup_batch") as s_lookup:
                software.lookup_batch(batch, harr)
            with tracer.span("engine.match_batch_indices") as s_match:
                answer = engine.match_batch_indices(batch)
        checker.add(engine.classifier, rows[b], answer)
        convert.append(s_conv.seconds)
        probe.append(probe_s)
        verify.append(s_lookup.seconds - probe_s)
        d_part.append(s_match.seconds - s_lookup.seconds - s_conv.seconds)
        whole.append(s_match.seconds)
    res.put("engine.convert_us", median(convert) * 1e6, "us")
    res.put("engine.probe_us", median(probe) * 1e6, "us")
    res.put("engine.verify_us", median(verify) * 1e6, "us")
    res.put("engine.d_us", median(d_part) * 1e6, "us")
    res.put("engine.batch_us", median(whole) * 1e6, "us")
    cand = software.stats.candidates - cand0
    fp = software.stats.false_positives - fp0
    res.put("engine.fp_frac", fp / cand if cand else 0.0, "ratio")


def service_overhead(tracer: Tracer, service, inner, batches, rows, checker,
                     res: Result, budget_s: float) -> None:
    """``RuntimeService.match_indices`` minus the call it delegates to
    (``inner``: the shard runtime when sharded, the engine's index kernel
    when not), alternated on the same batches."""
    outer: List[float] = []
    under: List[float] = []
    for i in _until(budget_s, 2 * len(batches)):
        b = i % len(batches)
        classifier = service.serving_classifier()
        with tracer.span("service.match_indices", request_id=i) as s_out:
            answer = service.match_indices(batches[b])
        checker.add(classifier, rows[b], answer)
        with tracer.span("service.inner", request_id=i) as s_in:
            answer = inner(batches[b])
        checker.add(classifier, rows[b], answer)
        outer.append(s_out.seconds)
        under.append(s_in.seconds)
    res.put("service.overhead_us", (median(outer) - median(under)) * 1e6, "us")


def swap_and_shm(tracer: Tracer, classifier, fresh_rules, batches, rows,
                 checker: Checker, res: Result, budget_s: float) -> None:
    """``HotSwapRuntime(classifier)`` minus its engine build, then a
    two-worker shm ``ShardedRuntime`` over it: start to first answer,
    per-batch time, and the write probe (``insert``/``remove`` call time
    and the first read after each write against the median read)."""
    from repro.runtime.shard import ShardedRuntime
    from repro.runtime.swap import HotSwapRuntime
    from repro.runtime.telemetry import Telemetry

    recorder = Telemetry()
    with tracer.span("swap.init") as s_swap:
        swap = HotSwapRuntime(classifier, recorder=recorder)
    res.put("swap.seed_s", s_swap.seconds - swap.engine.build_seconds, "s")
    with tracer.span("shm.start") as s_start:
        shards = ShardedRuntime(engine_source=lambda: swap.engine,
                                num_shards=2, mode="shm", recorder=recorder)
        try:
            served = swap.serving_classifier()
            with tracer.span("shm.match_indices", request_id=0):
                answer = shards.match_indices(batches[0])
        except BaseException:
            shards.close()
            raise
    try:
        checker.add(served, rows[0], answer)
        res.put("shm.start_s", s_start.seconds, "s")
        reads: List[float] = []
        for i in _until(budget_s, 2 * len(batches)):
            b = i % len(batches)
            served = swap.serving_classifier()
            with tracer.span("shm.match_indices", request_id=i + 1) as s:
                answer = shards.match_indices(batches[b])
            checker.add(served, rows[b], answer)
            reads.append(s.seconds)
        res.put("shm.batch_us", median(reads) * 1e6, "us")
        res.put("shm.speedup",
                res.metrics["engine.batch_us"][0] / (median(reads) * 1e6), "x")
        write_s: List[float] = []
        first: List[float] = []
        inserted: List[int] = []
        for w in range(PROBE_WRITES):
            rid = 10_000 + w
            with tracer.span("probe.write", request_id=rid):
                if w % 2 == 0 or not inserted:
                    with tracer.span("swap.insert") as s_w:
                        report = swap.insert(fresh_rules[w % len(fresh_rules)])
                    if report.accepted:
                        inserted.append(report.rule_id)
                else:
                    with tracer.span("swap.remove") as s_w:
                        swap.remove(inserted.pop(0))
                served = swap.serving_classifier()
                with tracer.span("shm.match_indices") as s_r:
                    answer = shards.match_indices(batches[w % len(batches)])
            checker.add(served, rows[w % len(batches)], answer)
            write_s.append(s_w.seconds)
            first.append(s_r.seconds)
        res.put("swap.write_ms", median(write_s) * 1e3, "ms")
        res.put("shm.first_read_ms", (median(first) - median(reads)) * 1e3,
                "ms")
    finally:
        shards.close()
        swap.flush()


def counters(get, res: Result) -> None:
    """Counters of the workload's own serving stack; ``get`` maps a dotted
    telemetry name to its value (a local ``snapshot()`` or the server's
    ``/metrics``)."""
    res.put("service.fallback_batches", get("runtime.batch_fallbacks"),
            "count")
    res.put("shm.snapshot_ships", get("runtime.snapshot_ships"), "count")
    res.put("shm.slots_reclaimed", get("runtime.slots_reclaimed"), "count")
    incremental = get("swap.incremental_rebuilds")
    rebuilds = incremental + get("swap.full_rebuilds")
    res.put("swap.incremental_frac",
            incremental / rebuilds if rebuilds else 0.0, "ratio")


def net(tracer: Tracer, server, engine, blocks: Sequence[np.ndarray],
        block_rows: Sequence[slice], classifier, checker: Checker,
        res: Result, budget_s: float) -> None:
    """Wire and cluster layers against a running server: PING round trip,
    window-1 16-packet requests, their cost beyond the engine's own
    16-packet time, ``ReplicaSet`` over ``NetClient`` on the same blocks,
    and the server's own coalescing/shed/error counters."""
    from repro.net.client import NetClient
    from repro.net.cluster import ReplicaSet

    per = len(blocks)
    with NetClient(port=server.port) as client:
        rtt = []
        for i in _until(budget_s / 4, 100):
            with tracer.span("net.ping", request_id=i) as s:
                client.ping()
            rtt.append(s.seconds)
        req: List[float] = []
        local: List[float] = []
        for i in _until(budget_s / 4, 100):
            b = i % per
            with tracer.span("net.match_batch", request_id=i) as s:
                answer = client.match_batch(blocks[b])
            checker.add(classifier, block_rows[b], answer)
            with tracer.span("engine.match_batch_indices", request_id=i) as e:
                engine.match_batch_indices(blocks[b])
            req.append(s.seconds)
            local.append(e.seconds)
        res.put("net.rtt_us", median(rtt) * 1e6, "us")
        res.put("net.req_us", median(req) * 1e6, "us")
        res.put("net.wire_us", (median(req) - median(local)) * 1e6, "us")
        group = 64
        cluster = ReplicaSet({"r0": server.port})
        try:
            direct: List[float] = []
            routed: List[float] = []
            for i in _until(budget_s / 2, 6):
                lo = (i * group) % per
                idx = [(lo + j) % per for j in range(group)]
                chunk = [blocks[j] for j in idx]
                with tracer.span("net.match_many", request_id=i) as s_d:
                    got_d = client.match_many(chunk, window=8)
                with tracer.span("cluster.match_many", request_id=i) as s_c:
                    got_c = cluster.match_many(chunk, window=8)
                for j, a, c in zip(idx, got_d, got_c):
                    checker.add(classifier, block_rows[j], a)
                    checker.add(classifier, block_rows[j], c)
                direct.append(s_d.seconds)
                routed.append(s_c.seconds)
            res.put("cluster.overhead_us",
                    (median(routed) - median(direct)) / group * 1e6, "us")
            res.put("cluster.rerouted", cluster.stats["cluster.rerouted"],
                    "count")
        finally:
            cluster.close()
    served = server.counters()
    requests = served.get("net_requests", 0.0)
    lookups = served.get("net_lookups", 0.0)
    res.put("net.coalesce_ratio", requests / lookups if lookups else 0.0,
            "ratio")
    res.put("net.shed", served.get("net_shed", 0.0), "count")
    res.put("net.errors", served.get("net_protocol_errors", 0.0)
            + served.get("net_lookup_errors", 0.0), "count")


def lateness(results) -> float:
    """p99 of how late the open-loop generator sent, in ms."""
    late = np.concatenate([np.asarray(r.lateness) for r in results])
    return float(np.quantile(late, 0.99)) * 1e3
