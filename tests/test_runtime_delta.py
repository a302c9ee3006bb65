"""Writes in O(changed rules): incremental rebuilds as deltas.

Covers the delta codec and composition, the structural cost of one
insert (counted calls, not timings), delta shipping to shm workers, the
parent/worker decomposition equivalence over seeded write sequences
(respawns, background rebuilds, a staleness crossing, a quarantined
build), and a full snapshot ship that does not wait on idle workers.
"""

import random
import time

import numpy as np
import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.core import Classifier
from repro.runtime.batch import linear_match_indices
from repro.runtime.service import RuntimeConfig, RuntimeService
from repro.runtime.shard import ShardedRuntime
from repro.runtime.shm import IDLE_WAIT_S, pack_delta, unpack_delta
from repro.runtime.swap import HotSwapRuntime
from repro.runtime.telemetry import Telemetry
from repro.saxpac.engine import SaxPacEngine, compose_deltas
from repro.workloads.generator import generate_classifier
from repro.workloads.traces import generate_trace


def _headers(classifier, count, seed):
    return classifier.sample_headers(count, random.Random(seed))


def _write(runtime, rng, fresh, live):
    """One seeded insert, remove or modify through ``runtime``."""
    op = rng.random()
    if op < 0.45 or len(live) < 2:
        live.append(runtime.insert(fresh.pop()).rule_id)
    elif op < 0.85:
        runtime.remove(live.pop(rng.randrange(len(live))))
    else:
        runtime.modify(rng.choice(live), fresh.pop())


class TestDeltas:
    def test_codec_round_trip_applies_like_the_parent(self):
        classifier = generate_classifier("acl", 600, 3)
        runtime = HotSwapRuntime(classifier)
        worker = SaxPacEngine.from_decomposition(
            classifier, runtime.engine.config,
            *runtime.engine.decomposition(), lineage=runtime.engine.lineage,
        )
        rng = random.Random(4)
        fresh = list(generate_classifier("acl", 200, 5).body)
        live = list(range(len(classifier.body)))
        for _ in range(25):
            _write(runtime, rng, fresh, live)
            delta = unpack_delta(
                pack_delta(runtime.engine.deltas[-1], classifier.num_fields)
            )
            worker = worker.apply(delta)
            assert worker.lineage == runtime.engine.lineage
            assert worker.decomposition() == runtime.engine.decomposition()
        headers = _headers(runtime.engine.classifier, 500, 6)
        want = runtime.snapshot_classifier().match_batch(headers)
        got = worker.match_batch_indices(headers)
        assert list(got) == [m.index for m in want]

    def test_composed_deltas_equal_sequential_application(self):
        classifier = generate_classifier("fw", 500, 7)
        runtime = HotSwapRuntime(classifier)
        start = runtime.engine
        rng = random.Random(8)
        fresh = list(generate_classifier("fw", 200, 9).body)
        live = list(range(len(classifier.body)))
        for _ in range(12):
            _write(runtime, rng, fresh, live)
        engine = runtime.engine
        composed = compose_deltas(
            engine.deltas, len(start.classifier.rules) - 1
        )
        assert composed.steps == 12
        applied = start.apply(composed)
        assert applied.lineage == engine.lineage
        assert applied.decomposition() == engine.decomposition()
        assert all(
            a is b
            for a, b in zip(applied.classifier.rules, engine.classifier.rules)
        )

    def test_delta_for_another_lineage_is_refused(self):
        classifier = generate_classifier("acl", 200, 10)
        engine = SaxPacEngine(classifier)
        other = SaxPacEngine(classifier)
        delta = other.plan([0], [], [])
        with pytest.raises(ValueError, match="lineage"):
            engine.apply(delta)

    def test_one_insert_into_a_large_d_costs_one_rule(self, monkeypatch):
        """An insert that spills to a D of 500+ rules expands, programs
        and validates only the new rule, and builds no bitset table from
        scratch: counted calls, so the check holds on any machine."""
        import repro.saxpac.engine as engine_module
        import repro.tcam.bitset as bitset_module
        from repro.tcam.tcam import Tcam

        classifier = generate_classifier("acl", 2000, 11)
        runtime = HotSwapRuntime(classifier)
        fresh = list(generate_classifier("acl", 600, 12).body)
        while len(runtime.engine.decomposition()[1]) < 500:
            runtime.insert(fresh.pop())
        calls = {"expand": 0, "program": [], "checked": 0, "tables": 0}
        expand = engine_module.expand_rule
        program = Tcam.program
        check_rules = Classifier.check_rules
        field_table = bitset_module._field_table

        def counting_expand(*args, **kwargs):
            calls["expand"] += 1
            return expand(*args, **kwargs)

        def counting_program(self, entry, rule_index, rule):
            calls["program"].append(rule)
            return program(self, entry, rule_index, rule)

        def counting_check(schema, rules, indices=None):
            calls["checked"] += len(rules)
            return check_rules(schema, rules, indices)

        def counting_table(*args):
            calls["tables"] += 1
            return field_table(*args)

        monkeypatch.setattr(engine_module, "expand_rule", counting_expand)
        monkeypatch.setattr(Tcam, "program", counting_program)
        monkeypatch.setattr(
            Classifier, "check_rules", staticmethod(counting_check)
        )
        monkeypatch.setattr(bitset_module, "_field_table", counting_table)
        rule = fresh.pop()
        report = runtime.insert(rule)
        engine = runtime.engine
        position = len(engine.classifier.rules) - 2
        assert engine.build_incremental
        assert engine.in_d(position)
        assert engine.classifier.rules[position] is rule
        assert calls["expand"] == 1
        assert calls["program"] and all(r is rule for r in calls["program"])
        assert len(calls["program"]) == len(expand(rule, classifier.schema,
                                                   engine.encoder))
        assert calls["checked"] == 1
        assert calls["tables"] == 0
        assert report.rule_id == runtime._ids[-1]


def _shipped(service):
    """Push any deferred delta, then compare every worker's decomposition
    with the parent's serving engine."""
    service.shards.sync()
    engine = service.swap.engine
    want = engine.decomposition()
    for worker, (_, got) in service.shards._shm_pool.decompositions().items():
        assert got == want, f"worker {worker} diverged from the parent"


def _quiesce():
    """Let the workers' status-queue feeder threads finish their last
    write: a process killed while it holds the queue's shared write lock
    leaves the lock taken for every other worker."""
    time.sleep(0.05)


def _check_read(service, headers):
    served = service.serving_classifier()
    got = service.match_indices(headers)
    assert list(got) == [served.match(h).index for h in headers]


class TestWorkerEquivalence:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_workers_follow_the_parent_write_by_write(self, seed):
        classifier = generate_classifier("acl", 120, 20 + seed)
        headers = generate_trace(classifier, 150, seed=30 + seed)
        rng = random.Random(seed)
        fresh = list(generate_classifier("acl", 400, 40 + seed).body)
        live = list(range(len(classifier.body)))
        tel = Telemetry()
        config = RuntimeConfig(num_shards=2, shard_mode="shm")
        with RuntimeService(classifier, config, recorder=tel) as service:
            roots = {service.swap.engine.lineage[0]}
            for step in range(70):
                _write(service, rng, fresh, live)
                _check_read(service, headers)
                _shipped(service)
                if step % 25 == 12:
                    # Respawn: the new worker starts from a full
                    # snapshot of the current engine.
                    _quiesce()
                    service.shards._shm_pool.respawn_worker(step % 2)
                roots.add(service.swap.engine.lineage[0])
        # 70 writes on 120 rules cross STALENESS_LIMIT: a new lineage
        # ships as a full snapshot, everything else as deltas.
        assert len(roots) > 1
        assert tel.counter("runtime.snapshot_ships") == len(roots) - 1
        assert tel.counter("runtime.delta_ships") > 0

    def test_background_rebuilds_and_a_quarantined_build(self):
        classifier = generate_classifier("fw", 300, 50)
        headers = generate_trace(classifier, 150, seed=51)
        rng = random.Random(52)
        fresh = list(generate_classifier("fw", 200, 53).body)
        live = list(range(len(classifier.body)))
        injector = FaultInjector(
            FaultPlan(
                (FaultSpec(site="swap.build", kind="error", after=5, times=1),)
            )
        )
        config = RuntimeConfig(
            num_shards=2, shard_mode="shm", background_rebuild=True
        )
        with RuntimeService(classifier, config, injector=injector) as service:
            quarantined = False
            for step in range(30):
                _write(service, rng, fresh, live)
                service.swap.flush()
                quarantined |= service.swap.quarantined
                _check_read(service, headers)
                _shipped(service)
                if step == 10:
                    # A killed worker is found dead and respawned.
                    _quiesce()
                    service.shards._shm_pool._workers[1].kill()
                    service.shards._shm_pool._workers[1].join(5)
            assert quarantined
            assert not service.swap.quarantined

    def test_one_message_carries_every_missing_delta(self):
        classifier = generate_classifier("acl", 400, 60)
        headers = generate_trace(classifier, 120, seed=61)
        runtime = HotSwapRuntime(classifier)
        tel = Telemetry()
        fresh = list(generate_classifier("acl", 50, 62).body)
        with ShardedRuntime(
            engine_source=lambda: runtime.engine, num_shards=2, recorder=tel
        ) as sharded:
            for _ in range(6):
                runtime.insert(fresh.pop())
            runtime.remove(3)
            got = sharded.match_indices(headers)
            served = runtime.serving_classifier()
            assert list(got) == [served.match(h).index for h in headers]
            reports = sharded._shm_pool.decompositions()
        assert tel.counter("runtime.delta_ships") == 1
        assert tel.counter("runtime.snapshot_ships") == 0
        for _, decomposition in reports.values():
            assert decomposition == runtime.engine.decomposition()


class TestSnapshotShip:
    def test_full_snapshot_does_not_wait_on_idle_workers(self):
        classifier = generate_classifier("acl", 5000, 70)
        engine = SaxPacEngine(classifier)
        replacement = generate_classifier("acl", 5000, 71)
        fresh_engine = SaxPacEngine(replacement)
        block = np.asarray(
            generate_trace(replacement, 512, seed=72), dtype=np.uint32
        )
        engines = {"current": engine}
        tel = Telemetry()
        with ShardedRuntime(
            engine_source=lambda: engines["current"], num_shards=2,
            recorder=tel,
        ) as sharded:
            sharded.match_indices(block[:8])
            time.sleep(2 * IDLE_WAIT_S)  # both workers asleep on the bell
            engines["current"] = fresh_engine  # a new lineage
            start = time.perf_counter()
            sharded.sync()
            elapsed = time.perf_counter() - start
            got = sharded.match_indices(block)
        assert tel.counter("runtime.snapshot_ships") == 1
        assert elapsed < IDLE_WAIT_S / 2
        assert np.array_equal(got, linear_match_indices(replacement, block))
