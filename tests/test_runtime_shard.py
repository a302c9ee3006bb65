"""Tests for repro.runtime.shard: chunking, merge order, the guard
surface and telemetry fold-back over shm worker processes.

Every class runs on the one shard transport (shm workers); the class
names are kept so test ids stay stable.
"""

import random

import pytest

from conftest import random_classifier
from repro.runtime.shard import ShardedRuntime, default_num_shards
from repro.runtime.telemetry import Telemetry
from repro.saxpac.engine import SaxPacEngine
from repro.workloads.traces import generate_trace


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(21)
    classifier = random_classifier(rng, num_rules=40)
    engine = SaxPacEngine(classifier)
    trace = generate_trace(classifier, 400, seed=5)
    return classifier, engine, trace


@pytest.fixture(scope="module")
def shared(setup):
    """One three-worker pool for the tests that only read from it."""
    classifier, _, _ = setup
    with ShardedRuntime(classifier=classifier, num_shards=3) as sharded:
        yield sharded


class TestConstruction:
    def test_default_num_shards_positive(self):
        assert default_num_shards() >= 1

    def test_requires_exactly_one_source(self, setup):
        classifier, engine, _ = setup
        with pytest.raises(ValueError):
            ShardedRuntime()
        with pytest.raises(ValueError):
            ShardedRuntime(
                classifier=classifier, engine_source=lambda: engine
            )

    def test_rejects_unknown_mode(self, setup):
        classifier, _, _ = setup
        for mode in ("fiber", "thread", "process"):
            with pytest.raises(ValueError, match="removed"):
                ShardedRuntime(classifier=classifier, mode=mode)

    def test_rejects_nonpositive_shards(self, setup):
        classifier, _, _ = setup
        with pytest.raises(ValueError):
            ShardedRuntime(classifier=classifier, num_shards=0)


class TestThreadMode:
    """Serving through the workers: same answers as the unsharded
    engine, in input order."""

    def test_matches_unsharded(self, setup, shared):
        _, engine, trace = setup
        want = [r.index for r in engine.match_batch(trace)]
        assert list(shared.match_indices(trace)) == want

    def test_match_batch_materializes_results(self, setup, shared):
        classifier, _, trace = setup
        results = shared.match_batch(trace[:50])
        for header, result in zip(trace[:50], results):
            want = classifier.match(header)
            assert result.index == want.index
            assert result.rule is want.rule

    def test_batch_smaller_than_shards(self, setup, shared):
        classifier, _, trace = setup
        got = shared.match_indices(trace[:2])
        assert list(got) == [classifier.match(h).index for h in trace[:2]]

    def test_empty_batch(self, shared):
        assert len(shared.match_indices([])) == 0

    def test_from_classifier(self, setup, shared):
        _, engine, trace = setup
        got = shared.match_indices(trace[:100])
        assert list(got) == [
            r.index for r in engine.match_batch(trace[:100])
        ]

    def test_engine_source_sees_swaps(self, setup):
        classifier, engine, trace = setup
        rng = random.Random(22)
        replacement = random_classifier(rng, num_rules=40)
        engines = {"current": engine}
        with ShardedRuntime(
            engine_source=lambda: engines["current"], num_shards=2
        ) as sharded:
            before = sharded.match_indices(trace[:100])
            # A fresh engine over the same rules ships nothing; one over
            # new rules must be what the workers answer from next.
            engines["current"] = SaxPacEngine(classifier)
            same = sharded.match_indices(trace[:100])
            engines["current"] = SaxPacEngine(replacement)
            after = sharded.match_indices(trace[:100])
        assert list(before) == list(same)
        assert list(after) == [
            r.index for r in replacement.match_batch(trace[:100])
        ]

    def test_telemetry(self, setup):
        classifier, _, trace = setup
        tel = Telemetry()
        with ShardedRuntime(
            classifier=classifier, num_shards=4, recorder=tel
        ) as sharded:
            sharded.match_indices(trace)
        snap = tel.snapshot()
        assert snap.counter("shard.batches") == 1
        assert snap.counter("shard.packets") == len(trace)
        assert snap.counter("shard.chunks") == 4

    def test_close_idempotent(self, setup):
        classifier, _, _ = setup
        sharded = ShardedRuntime(classifier=classifier, num_shards=2)
        sharded.close()
        sharded.close()


class TestThreadModeFoldBack:
    """Worker recordings fold back into the caller's recorder."""

    def test_replica_engine_telemetry_folds_back(self, setup):
        classifier, _, trace = setup
        tel = Telemetry()
        with ShardedRuntime(
            classifier=classifier, num_shards=3, recorder=tel
        ) as sharded:
            sharded.match_indices(trace)
            sharded.collect()
            snap = tel.snapshot()
        assert snap.counter("engine.lookups") == len(trace)
        assert "engine.match_batch" in snap.latencies

    def test_collect_is_idempotent(self, setup):
        classifier, _, trace = setup
        tel = Telemetry()
        with ShardedRuntime(
            classifier=classifier, num_shards=2, recorder=tel
        ) as sharded:
            sharded.match_indices(trace)
            sharded.collect()
            sharded.collect()
        assert tel.counter("engine.lookups") == len(trace)

    def test_replica_heat_lands_in_shared_profiler(self, setup):
        from repro.obs import Observability

        classifier, _, trace = setup
        obs = Observability.create(tracing=False, heat=True)
        with ShardedRuntime(
            classifier=classifier, num_shards=3, recorder=obs.recorder
        ) as sharded:
            sharded.match_indices(trace)
        assert obs.heat.seen_packets == len(trace)

    def test_chunk_spans_nest_under_caller(self, setup):
        from repro.obs import Observability

        classifier, _, trace = setup
        obs = Observability.create(tracing=True, heat=False)
        with ShardedRuntime(
            classifier=classifier, num_shards=2, recorder=obs.recorder
        ) as sharded:
            with obs.tracer.span("batch") as batch:
                sharded.match_indices(trace[:50])
        spans = obs.tracer.spans()
        chunks = [s for s in spans if s.name == "shard.chunk"]
        assert chunks, "expected shard.chunk spans"
        assert all(s.parent_id == batch.span_id for s in chunks)
        assert all(s.trace_id == batch.trace_id for s in chunks)


class TestProcessMode:
    """The workers are separate processes built from a snapshot."""

    def test_matches_unsharded(self, setup, shared):
        _, engine, trace = setup
        want = [r.index for r in engine.match_batch(trace[:120])]
        assert list(shared.match_indices(trace[:120])) == want

    def test_worker_telemetry_ships_back(self, setup):
        classifier, _, trace = setup
        tel = Telemetry()
        with ShardedRuntime(
            classifier=classifier, num_shards=2, recorder=tel,
        ) as sharded:
            sharded.match_indices(trace[:120])
            snap = tel.snapshot()
        assert snap.counter("engine.lookups") == 120
        assert "engine.match_batch" in snap.latencies

    def test_worker_spans_and_heat_ship_back(self, setup):
        from repro.obs import Observability

        classifier, _, trace = setup
        obs = Observability.create(tracing=True, heat=True)
        with ShardedRuntime(
            classifier=classifier, num_shards=2, recorder=obs.recorder,
        ) as sharded:
            with obs.tracer.span("batch") as batch:
                sharded.match_indices(trace[:100])
        assert obs.heat.seen_packets == 100
        chunks = [
            s for s in obs.tracer.spans() if s.name == "shard.chunk"
        ]
        assert chunks
        assert all(s.parent_id == batch.span_id for s in chunks)
        assert any(s.pid != batch.pid for s in chunks)
