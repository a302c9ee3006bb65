"""The three workloads.  Each builds its inputs from the run's seeds, sets
up the serving stack cold, measures for ``--seconds`` with tracing off,
and, in a traced run, repeats the timed phase under spans and probes
every layer (see :mod:`perfbench.layers`).  Every answer is checked
against :class:`~perfbench.core.Oracle` after the clock stops."""

from __future__ import annotations

import os
import random
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import layers
from .core import (Checker, Oracle, Result, RunContext, Tracer, median, pc,
                   pct_ms, serving_rss_mb)
from .wire import OpenLoopResult, Server, open_loop

BATCH = 1024
REQ_PACKETS = 16

#: (style, rules) per workload; ``--toy`` uses TOY_RULES rules instead.
SHAPES = {
    "read-fw5k": ("fw", 5000),
    "wire-acl2k": ("acl", 2000),
    "churn-acl5k": ("acl", 5000),
}
TOY_RULES = 300

#: churn-acl5k write script: bursts of BURST writes, one burst every
#: READS_PER_CYCLE reads, at least MIN_WRITES writes per timed phase.
MIN_WRITES, TOY_MIN_WRITES = 100, 12
BURST, TOY_BURST = 10, 4
READS_PER_CYCLE = 8

#: wire-acl2k open loop: the fixed rate, the ladder and the p99 limit a
#: rung must meet (a failed or refused request misses it).
FIXED_RATE = 500.0
LADDER = (500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
P99_LIMIT_S = 0.050
#: Share of --seconds spent on each wire phase.
FIXED_SHARE, LADDER_SHARE, CLOSED_SHARE = 0.15, 0.25, 0.60
#: Cold server starts per wire run (the last one serves).
WIRE_SETUPS = 3
#: Throughput is the median over this many stretches of a timed phase.
WINDOWS = 10
#: Requests per ReplicaSet call in the closed phase (1024 packets).
CLOSED_GROUP = BATCH // REQ_PACKETS


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _rules(ctx: RunContext, workload: str):
    from repro import generate_classifier

    style, count = SHAPES[workload]
    if ctx.toy:
        count = TOY_RULES
    return style, generate_classifier(style, count, ctx.seeds()["rules"])


def _packets(ctx: RunContext, classifier) -> np.ndarray:
    """The seeded trace (90% rule-targeted, Zipf(1.0)) as a uint32
    ``(P, k)`` block; batches and requests cycle over it."""
    from repro import generate_trace

    count = 2048 if ctx.toy else 8192
    trace = generate_trace(classifier, count, ctx.seeds()["trace"])
    return np.asarray(trace, dtype=np.int64).astype(np.uint32)


def _split(packets: np.ndarray, size: int) -> Tuple[List[np.ndarray], List[slice]]:
    rows = [slice(i, i + size) for i in range(0, packets.shape[0], size)]
    return [packets[r] for r in rows], rows


def _fresh(ctx: RunContext, style: str, count: int):
    """Fresh same-style rules for inserts (their own seed)."""
    from repro import generate_classifier

    return list(generate_classifier(style, count,
                                    ctx.seeds()["fresh_rules"]).body)


def _write_rules(ctx: RunContext, classifier):
    """Write the classifier as a ClassBench file and read it back: the
    server and the oracle both take the rules from that file."""
    from repro.workloads.classbench import parse_classbench, write_classbench

    path = os.path.join(ctx.workdir, f"rules-{ctx.workload}-{os.getpid()}.txt")
    write_classbench(classifier, path)
    return path, parse_classbench(path)


def _budget(ctx: RunContext) -> float:
    """Seconds each traced layer probe spends timing."""
    return 0.2 if ctx.toy else 1.5


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def _start_service(tracer: Optional[Tracer], classifier, batch, rows,
                   checker: Checker):
    """``RuntimeService`` with two shm shards (the ``repro serve --shards 2
    --shard-mode shm`` deployment), timed from construction to the first
    answer served."""
    from repro import RuntimeConfig, RuntimeService

    config = RuntimeConfig(num_shards=2, shard_mode="shm")
    start = pc()
    if tracer is None:
        service = RuntimeService(classifier, config)
        answer = service.match_indices(batch)
    else:
        with tracer.span("setup", request_id=0):
            with tracer.span("service.init"):
                service = RuntimeService(classifier, config)
            with tracer.span("service.match_indices"):
                answer = service.match_indices(batch)
    setup = pc() - start
    checker.add(service.serving_classifier(), rows, answer)
    return service, setup


def _read(service, batch, tracer: Optional[Tracer], rid: int):
    """One timed ``match_indices`` call: (answer or None if shed, seconds)."""
    from repro.runtime.service import LoadShedError

    try:
        if tracer is None:
            start = pc()
            answer = service.match_indices(batch)
            return answer, pc() - start
        with tracer.span("read.batch", request_id=rid):
            with tracer.span("service.match_indices") as span:
                answer = service.match_indices(batch)
        return answer, span.seconds
    except LoadShedError:
        return None, float("inf")


class Phase:
    """Counters of one timed phase.  ``ops`` counts every operation
    issued; ``answered`` those whose answer went to the checker;
    ``marks`` is (time, packets answered so far) at the end of each unit
    of work (a read, a write cycle, a replica-set call)."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.packets = 0
        self.ops = 0
        self.answered = 0
        self.failed = 0
        self.start = pc()
        self.marks: List[Tuple[float, int]] = []

    def mark(self) -> float:
        now = pc()
        self.marks.append((now, self.packets))
        return now

    @property
    def pkts_per_s(self) -> float:
        """Packets answered per wall second: the median over WINDOWS
        consecutive stretches of equal unit count, so a neighbour's burst
        on a shared host moves one window, not the whole figure."""
        points = [(self.start, 0)] + self.marks
        k = min(WINDOWS, len(points) - 1)
        edges = [round(i * (len(points) - 1) / k) for i in range(k + 1)]
        rates = [(points[b][1] - points[a][1]) / (points[b][0] - points[a][0])
                 for a, b in zip(edges, edges[1:])]
        return median(rates)

    def count_into(self, res: Result) -> None:
        """Answered operations are counted when checked; add the rest."""
        res.attempted += self.ops - self.answered
        res.failed += self.failed


def _read_phase(service, batches, rows, checker, seconds,
                tracer: Optional[Tracer]) -> Phase:
    """Closed loop, one caller: the next batch goes out when the last one
    is answered."""
    phase = Phase()
    end = phase.start + seconds
    i = 0
    while True:
        b = i % len(batches)
        served = service.serving_classifier()
        answer, dt = _read(service, batches[b], tracer, i)
        phase.ops += 1
        phase.latencies.append(dt)
        if answer is None:
            phase.failed += 1
        else:
            checker.add(served, rows[b], answer)
            phase.answered += 1
            phase.packets += batches[b].shape[0]
        i += 1
        if phase.mark() >= end:
            break
    return phase


def _warm(service, batches, rows, checker) -> None:
    """Untimed first reads so lazy per-batch set-up is done before timing."""
    for batch, row in zip(batches[:4], rows):
        served = service.serving_classifier()
        checker.add(served, row, service.match_indices(batch))


def _put_reads(res: Result, phase: Phase) -> None:
    res.put("pkts_per_s", phase.pkts_per_s, "pkt/s")
    res.put("batch_p50_ms", pct_ms(phase.latencies, 0.5), "ms")
    res.put("batch_p90_ms", pct_ms(phase.latencies, 0.9), "ms")
    phase.count_into(res)


def _shape(res: Result, service) -> None:
    engine = service.swap.engine
    res.shape.update(
        rules=len(engine.classifier.body),
        d_rules=len(engine.grouping.ungrouped),
        groups=len(engine.software.groups),
    )


def _probe_net(ctx, res, server: Server, engine, packets, served, checker,
               ready_s: float, open_loop_probe: bool) -> None:
    """Net-layer probes against ``server``; with ``open_loop_probe`` also
    a short open-loop pass for the generator's lateness (``wire-acl2k``
    measures that in its own open-loop phase)."""
    blocks, block_rows = _split(packets, REQ_PACKETS)
    res.put("net.start_s", ready_s, "s")
    layers.net(ctx.tracer, server, engine, blocks, block_rows, served,
               checker, res, _budget(ctx) * 2)
    if open_loop_probe:
        probe = open_loop(server.port, blocks, FIXED_RATE,
                          0.3 if ctx.toy else 1.0)
        _check_open_loop(probe, served, block_rows, checker)
        res.put("gen.late_p99_ms", layers.lateness([probe]), "ms")


def _check_open_loop(result: OpenLoopResult, served, block_rows, checker):
    for b, answer in zip(result.block_ids, result.answers):
        if answer is not None:
            checker.add(served, block_rows[b], answer)


def _probe_local(ctx, res, classifier, batches, rows, fresh, checker):
    """Engine, swap and shm layer probes on a fresh local stack."""
    engine = layers.engine_build(ctx.tracer, classifier, res)
    layers.engine_kernels(ctx.tracer, engine, batches, rows, checker, res,
                          _budget(ctx))
    layers.swap_and_shm(ctx.tracer, classifier, fresh, batches, rows,
                        checker, res, _budget(ctx))
    return engine


def _overhead(res: Result, untraced: Phase, traced: Phase) -> None:
    res.put("trace.overhead_frac",
            (untraced.pkts_per_s - traced.pkts_per_s) / untraced.pkts_per_s,
            "ratio")


# ----------------------------------------------------------------------
# read-fw5k and churn-acl5k: in-process RuntimeService, shm x2
# ----------------------------------------------------------------------
def _service_workload(ctx: RunContext, res: Result, name: str,
                      fresh_count: int, make_phase) -> None:
    """Set up ``RuntimeService`` (shm x2) cold, run the workload's timed
    phase untraced and, in a traced run, again under spans, then probe
    the layers.  ``make_phase(service, batches, rows, checker, fresh)``
    returns the timed phase as ``phase(tracer) -> Phase``."""
    style, classifier = _rules(ctx, name)
    packets = _packets(ctx, classifier)
    batches, rows = _split(packets, BATCH)
    fresh = _fresh(ctx, style, fresh_count)
    checker = Checker(ctx.corrupt_oracle)
    server = served = None
    if ctx.trace:
        # The wire probe needs its own server on these rules; it seeds in
        # parallel with the in-process service.
        path, served = _write_rules(ctx, classifier)
        server = Server(ctx.src, path)
    try:
        service, setup = _start_service(ctx.tracer, classifier, batches[0],
                                        rows[0], checker)
        try:
            res.put("setup_s", setup, "s")
            _shape(res, service)
            timed = make_phase(service, batches, rows, checker, fresh)
            ready_s = server.wait_ready() if server is not None else 0.0
            _warm(service, batches, rows, checker)
            phase = timed(None)
            res.put("peak_rss_mb", serving_rss_mb(), "MB")
            _put_reads(res, phase)
            if ctx.trace:
                traced = timed(ctx.tracer)
                traced.count_into(res)
                _overhead(res, phase, traced)
                layers.service_overhead(
                    ctx.tracer, service, service.shards.match_indices,
                    batches, rows, checker, res, _budget(ctx))
                layers.counters(service.snapshot().counter, res)
        finally:
            service.close()
        if ctx.trace:
            engine = _probe_local(ctx, res, classifier, batches, rows, fresh,
                                  checker)
            _probe_net(ctx, res, server, engine, packets, served, checker,
                       ready_s, True)
    finally:
        if server is not None:
            server.stop()
    rules = list(classifier.rules) + fresh
    if served is not None:
        rules += list(served.rules)
    _finish(res, checker, packets, classifier, rules)


def read_fw5k(ctx: RunContext, res: Result) -> None:
    """Closed loop, one caller, 1024-packet batches; no writes."""

    def make_phase(service, batches, rows, checker, fresh):
        return lambda tracer: _read_phase(service, batches, rows, checker,
                                          ctx.seconds, tracer)

    _service_workload(ctx, res, "read-fw5k", 8, make_phase)


class WriteScript:
    """Seeded writes: each burst is a fixed number of inserts of fresh
    rules and removes of live ones, chosen by the script's own RNG."""

    def __init__(self, seed: int, fresh, live: List[int], burst: int) -> None:
        self.rng = random.Random(seed)
        self.fresh = list(fresh)
        self.live = list(live)
        self.burst = burst
        self.next_fresh = 0

    def burst_ops(self) -> List[Tuple[str, object]]:
        ops: List[Tuple[str, object]] = []
        for _ in range(self.burst):
            if self.rng.random() < 0.5 or not self.live:
                rule = self.fresh[self.next_fresh % len(self.fresh)]
                self.next_fresh += 1
                ops.append(("insert", rule))
            else:
                victim = self.live.pop(self.rng.randrange(len(self.live)))
                ops.append(("remove", victim))
        return ops


def _churn_phase(service, script: WriteScript, batches, rows, checker,
                 seconds, min_writes, tracer: Optional[Tracer]):
    """Closed read loop with a burst of writes before every
    ``READS_PER_CYCLE``-th read.  Update latency runs from each write call
    to the end of the first read served after it; write time counts in
    the phase's wall time.  A rejected insert is a failed operation."""
    from repro.saxpac.updates import InsertReport

    phase = Phase()
    updates: List[float] = []
    writes = 0
    end = phase.start + seconds
    i = 0
    while True:
        pending: List[float] = []
        if i % READS_PER_CYCLE == 0:
            for op, arg in script.burst_ops():
                t0 = pc()
                if tracer is None:
                    report = _write(service, op, arg)
                else:
                    with tracer.span("churn.write", request_id=-(writes + 1)):
                        with tracer.span(f"service.{op}"):
                            report = _write(service, op, arg)
                writes += 1
                phase.ops += 1
                if isinstance(report, InsertReport):
                    if report.accepted:
                        script.live.append(report.rule_id)
                    else:
                        phase.failed += 1
                pending.append(t0)
        b = i % len(batches)
        served = service.serving_classifier()
        answer, dt = _read(service, batches[b], tracer, i)
        done = pc()
        phase.ops += 1
        phase.latencies.append(dt)
        if answer is None:
            phase.failed += 1
            updates.extend(float("inf") for _ in pending)
        else:
            checker.add(served, rows[b], answer)
            phase.answered += 1
            phase.packets += batches[b].shape[0]
            updates.extend(done - t0 for t0 in pending)
        i += 1
        if i % READS_PER_CYCLE == 0:
            phase.mark()
            if done >= end and writes >= min_writes:
                break
    return phase, updates, writes


def _write(service, op: str, arg):
    if op == "insert":
        return service.insert(arg)
    return service.remove(arg)


def churn_acl5k(ctx: RunContext, res: Result) -> None:
    """The read loop of read-fw5k with seeded insert/remove bursts."""
    min_writes = TOY_MIN_WRITES if ctx.toy else MIN_WRITES
    burst = TOY_BURST if ctx.toy else BURST

    def make_phase(service, batches, rows, checker, fresh):
        # The service numbers seeded rules 0..n-1 in priority order.
        script = WriteScript(ctx.seeds()["write_script"], fresh,
                             list(range(len(service.swap))), burst)

        def phase(tracer):
            timed, updates, writes = _churn_phase(
                service, script, batches, rows, checker, ctx.seconds,
                min_writes, tracer)
            if tracer is None:
                res.put("writes", writes, "count")
                res.put("update_p50_ms", pct_ms(updates, 0.5), "ms")
                res.put("update_p90_ms", pct_ms(updates, 0.9), "ms")
            return timed

        return phase

    # Enough fresh rules that no insert of either timed phase repeats one.
    _service_workload(ctx, res, "churn-acl5k", 4 * (min_writes + burst),
                      make_phase)


# ----------------------------------------------------------------------
# wire-acl2k
# ----------------------------------------------------------------------
def _closed_wire(cluster, blocks, block_rows, served, checker, seconds,
                 tracer: Optional[Tracer]) -> Phase:
    """Closed, pipelined pass through the replica set: 64-request
    (1024-packet) calls, window 8, one call at a time."""
    phase = Phase()
    per = len(blocks)
    end = phase.start + seconds
    i = 0
    while True:
        lo = (i * CLOSED_GROUP) % per
        idx = [(lo + j) % per for j in range(CLOSED_GROUP)]
        chunk = [blocks[j] for j in idx]
        if tracer is None:
            t0 = pc()
            answers = cluster.match_many(chunk, window=8)
            dt = pc() - t0
        else:
            with tracer.span("closed.call", request_id=i):
                with tracer.span("cluster.match_many") as span:
                    answers = cluster.match_many(chunk, window=8)
            dt = span.seconds
        phase.latencies.append(dt)
        phase.ops += len(chunk)
        for j, answer in zip(idx, answers):
            checker.add(served, block_rows[j], answer)
            phase.answered += 1
            phase.packets += blocks[j].shape[0]
        i += 1
        if phase.mark() >= end:
            break
    return phase


def wire_acl2k(ctx: RunContext, res: Result) -> None:
    from repro.net.cluster import ReplicaSet

    style, classifier = _rules(ctx, "wire-acl2k")
    path, served = _write_rules(ctx, classifier)
    packets = _packets(ctx, served)
    blocks, block_rows = _split(packets, REQ_PACKETS)
    fresh = _fresh(ctx, style, 8)
    checker = Checker(ctx.corrupt_oracle)
    setups: List[float] = []
    server: Optional[Server] = None
    try:
        for _ in range(WIRE_SETUPS):
            if server is not None:
                server.stop()
            server = Server(ctx.src, path)
            setups.append(server.wait_ready())
        res.put("setup_s", median(setups), "s")
        res.shape.update(rules=len(served.body))
        # (a) open loop: the fixed rate, then the ladder.
        fixed = open_loop(server.port, blocks, FIXED_RATE,
                          ctx.seconds * FIXED_SHARE)
        _check_open_loop(fixed, served, block_rows, checker)
        runs = [fixed]
        max_rate = 0.0
        rung_s = ctx.seconds * LADDER_SHARE / len(LADDER)
        for rate in LADDER:
            rung = open_loop(server.port, blocks, rate, rung_s)
            _check_open_loop(rung, served, block_rows, checker)
            runs.append(rung)
            if (rung.p(0.99) > P99_LIMIT_S or rung.failed
                    or rung.growing_backlog()):
                break
            max_rate = rate
        for r in runs:
            res.attempted += r.failed
            res.failed += r.failed
        res.put("req_p50_ms", fixed.p(0.5) * 1e3, "ms")
        res.put("req_p99_ms", fixed.p(0.99) * 1e3, "ms")
        res.put("max_rate_rps", max_rate, "req/s")
        late = layers.lateness([fixed])
        # (b) closed, pipelined pass through a one-replica ReplicaSet.
        cluster = ReplicaSet({"r0": server.port})
        try:
            phase = _closed_wire(cluster, blocks, block_rows, served, checker,
                                 ctx.seconds * CLOSED_SHARE, None)
            _put_reads(res, phase)
            if ctx.trace:
                traced = _closed_wire(cluster, blocks, block_rows, served,
                                      checker, ctx.seconds * CLOSED_SHARE,
                                      ctx.tracer)
                traced.count_into(res)
                _overhead(res, phase, traced)
        finally:
            cluster.close()
        res.put("peak_rss_mb", server.peak_rss_mb(), "MB")
        if ctx.trace:
            counters = server.counters()
            layers.counters(
                lambda name: counters.get(name.replace(".", "_"), 0.0), res)
            batches, rows = _split(packets, BATCH)
            engine = _probe_local(ctx, res, served, batches, rows, fresh,
                                  checker)
            _service_probe_unsharded(ctx, res, served, batches, rows, checker)
            res.put("gen.late_p99_ms", late, "ms")
            _probe_net(ctx, res, server, engine, packets, served, checker,
                       median(setups), False)
    finally:
        if server is not None:
            server.stop()
    _finish(res, checker, packets, served, list(served.rules) + fresh)


def _service_probe_unsharded(ctx, res, served, batches, rows, checker):
    """The server's own deployment (unsharded ``RuntimeService``) rebuilt
    locally: its overhead over the engine's index kernel."""
    from repro import RuntimeService

    with ctx.tracer.span("service.init"):
        service = RuntimeService(served)
    try:
        layers.service_overhead(
            ctx.tracer, service,
            lambda batch: service.swap.engine.match_batch_indices(batch),
            batches, rows, checker, res, _budget(ctx))
    finally:
        service.close()


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def _finish(res: Result, checker: Checker, packets, reference,
            rules) -> None:
    """Check every collected answer (clock stopped) and fold wrong ones
    into the failure count.  The oracle must first agree with the
    program's own linear scan on ``reference`` for one batch, or neither
    can be trusted."""
    from repro.runtime.batch import linear_match_indices

    oracle = Oracle(packets, rules)
    rows = slice(0, min(BATCH, packets.shape[0]))
    if not np.array_equal(oracle.expected(reference, rows),
                          linear_match_indices(reference, packets[rows])):
        res.mismatches += 1
    res.mismatches += checker.run(oracle)
    res.attempted += len(checker.items)
    res.failed += res.mismatches
    res.put("checked_ops", len(checker.items), "count")


WORKLOADS: Dict[str, Callable[[RunContext, Result], None]] = {
    "read-fw5k": read_fw5k,
    "wire-acl2k": wire_acl2k,
    "churn-acl5k": churn_acl5k,
}
