"""Tests for repro.runtime.swap: rebuilds, atomic swaps, degradation."""

import random
import sys
import threading

import pytest

from conftest import random_classifier
from repro.core import make_rule
from repro.runtime.swap import HotSwapRuntime, LinearFallback, UpdateRecord
from repro.runtime.telemetry import Telemetry
from repro.saxpac.engine import SaxPacEngine
from repro.saxpac.updates import DynamicSaxPac, InsertOutcome
from repro.workloads.traces import generate_trace


@pytest.fixture
def setup():
    rng = random.Random(99)
    classifier = random_classifier(rng, num_rules=30)
    trace = generate_trace(classifier, 200, seed=3)
    return classifier, trace


def _reference(runtime, trace):
    """Linear-scan ground truth against the runtime's current snapshot."""
    snapshot = runtime.snapshot_classifier()
    return [snapshot.match(h).index for h in trace]


class TestConstruction:
    def test_from_classifier(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        assert len(runtime) == len(classifier.body)
        assert not runtime.degraded
        assert runtime.generation == 1  # the initial build counts

    def test_rejects_other_sources(self):
        with pytest.raises(TypeError):
            HotSwapRuntime(["not", "a", "classifier"])


class TestServing:
    def test_matches_linear_reference(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)
        # Single-packet path agrees with the batch path.
        singles = [runtime.match(h).index for h in trace[:50]]
        assert singles == got[:50]

    def test_classify_batch_returns_actions(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        actions = runtime.classify_batch(trace[:20])
        snapshot = runtime.snapshot_classifier()
        assert actions == [
            snapshot.match(h).rule.action for h in trace[:20]
        ]


class TestUpdates:
    def test_insert_serves_after_swap(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        before_gen = runtime.generation
        width = classifier.schema[0].width
        top = (1 << width) - 1
        report = runtime.insert(
            make_rule([(0, top)] * classifier.num_fields, name="new")
        )
        assert report.accepted
        assert runtime.generation > before_gen
        assert len(runtime) == len(classifier.body) + 1
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)

    def test_remove_and_modify(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        victim = runtime.update_log  # empty so far
        assert victim == []
        # Remove the first dynamic rule (ids assigned in insert order).
        runtime.remove(0)
        assert len(runtime) == len(classifier.body) - 1
        replacement = classifier.body[5]
        runtime.modify(1, replacement)
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)
        kinds = [record.kind for record in runtime.update_log]
        assert kinds == ["remove", "modify"]
        assert all(isinstance(r, UpdateRecord) for r in runtime.update_log)

    def test_update_log_records_inserts(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        rule = make_rule([(0, 1)] * classifier.num_fields)
        runtime.insert(rule)
        assert runtime.update_log[-1].kind == "insert"
        assert runtime.update_log[-1].rule is rule


def _random_rule(rng, classifier):
    top = classifier.schema[0].width
    ranges = []
    for _ in range(classifier.num_fields):
        low = rng.randrange(1 << top)
        ranges.append((low, min((1 << top) - 1, low + rng.randrange(9))))
    return make_rule(ranges)


def _same_rules(runtime, dyn):
    """The rule table and the Section 7.2 model hold the same rule
    objects in the same priority order."""
    got = runtime.snapshot_classifier().rules
    want = dyn.to_classifier().rules
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got[:-1], want[:-1]))
    assert got[-1] == want[-1]


def _check_outcome(runtime, report, live):
    """The report names the group/D placement of the serving engine."""
    _, d_indices = runtime.engine.decomposition()
    in_d = live.index(report.rule_id) in d_indices
    assert report.accepted
    assert report.outcome is (
        InsertOutcome.ORDER_DEPENDENT if in_d else InsertOutcome.GROUP
    )


class TestRuleTable:
    """The runtime's ordered rule table against DynamicSaxPac (the
    Section 7.2 placement model) as its reference."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tracks_update_model(self, setup, seed):
        classifier, trace = setup
        rng = random.Random(seed)
        runtime = HotSwapRuntime(classifier)
        dyn = DynamicSaxPac(
            classifier.schema, default_action=classifier.catch_all.action
        )
        for rule in classifier.body:
            dyn.insert(rule)
        live = list(range(len(classifier.body)))
        _same_rules(runtime, dyn)

        # Remove the first rule, then modify one the engine keeps in D.
        runtime.remove(live[0])
        dyn.remove(live.pop(0))
        _same_rules(runtime, dyn)
        _, d_indices = runtime.engine.decomposition()
        assert d_indices, "the seeded classifier must have a D part"
        victim = live[d_indices[0]]
        new_rule = _random_rule(rng, classifier)
        report = runtime.modify(victim, new_rule)
        assert report.rule_id == dyn.modify(victim, new_rule).rule_id == victim
        _check_outcome(runtime, report, live)
        _same_rules(runtime, dyn)

        for _ in range(30):
            op = rng.choice(("insert", "remove", "modify"))
            if op == "insert":
                rule = _random_rule(rng, classifier)
                report = runtime.insert(rule)
                assert report.rule_id == dyn.insert(rule).rule_id
                live.append(report.rule_id)
                _check_outcome(runtime, report, live)
            elif op == "remove":
                rule_id = live.pop(rng.randrange(len(live)))
                runtime.remove(rule_id)
                dyn.remove(rule_id)
            else:
                rule_id = rng.choice(live)
                rule = _random_rule(rng, classifier)
                report = runtime.modify(rule_id, rule)
                assert report.rule_id == dyn.modify(rule_id, rule).rule_id
                _check_outcome(runtime, report, live)
            _same_rules(runtime, dyn)
        assert len(runtime) == len(dyn) == len(live)
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)

    def test_wrong_arity_insert_uses_no_id(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        generation = runtime.generation
        bad = make_rule([(0, 1)] * (classifier.num_fields + 1))
        with pytest.raises(ValueError):
            runtime.insert(bad)
        with pytest.raises(ValueError):
            runtime.modify(0, bad)
        assert runtime.generation == generation
        assert runtime.update_log == []
        report = runtime.insert(make_rule([(0, 1)] * classifier.num_fields))
        assert report.rule_id == len(classifier.body)

    def test_unknown_id_leaves_table_unchanged(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        before = runtime.snapshot_classifier().body
        generation = runtime.generation
        for rule_id in (-1, len(classifier.body)):
            with pytest.raises(KeyError):
                runtime.remove(rule_id)
            with pytest.raises(KeyError):
                runtime.modify(rule_id, classifier.body[0])
        after = runtime.snapshot_classifier().body
        assert all(a is b for a, b in zip(before, after))
        assert len(after) == len(before)
        assert runtime.generation == generation
        assert runtime.update_log == []

    def test_background_insert_reports_pending_rule(self, setup):
        classifier, trace = setup
        hold, release = threading.Event(), threading.Event()

        def held(snapshot):
            if hold.is_set():
                release.wait(10)
            return SaxPacEngine(snapshot)

        runtime = HotSwapRuntime(classifier, builder=held, background=True)
        hold.set()
        report = runtime.insert(make_rule([(0, 1)] * classifier.num_fields))
        # The serving engine does not hold the rule yet.
        assert report.accepted
        assert report.rule_id == len(classifier.body)
        assert report.outcome is InsertOutcome.ORDER_DEPENDENT
        release.set()
        runtime.flush()
        assert len(runtime.serving_classifier().body) == len(runtime)


    def test_concurrent_writers_get_distinct_ids(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier, background=True)
        k = classifier.num_fields
        ids = []

        def writer(w):
            for i in range(25):
                report = runtime.insert(make_rule([(w, w + i % 4)] * k))
                ids.append(report.rule_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(w,)) for w in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        runtime.flush()
        n = len(classifier.body)
        assert sorted(ids) == list(range(n, n + 100))
        assert len(runtime) == n + 100
        assert len(runtime.serving_classifier().body) == n + 100
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)


class TestDegradation:
    def test_failed_rebuild_swaps_in_fallback(self, setup):
        classifier, trace = setup

        def broken_builder(snapshot):
            raise RuntimeError("no memory for you")

        tel = Telemetry()
        runtime = HotSwapRuntime(
            classifier, builder=broken_builder, recorder=tel
        )
        assert runtime.degraded
        assert isinstance(runtime.engine, LinearFallback)
        assert tel.counter("swap.rebuild_failures") == 1
        assert tel.counter("swap.fallback_swaps") == 1
        # Correctness survives degradation.
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)
        singles = [runtime.match(h).index for h in trace[:30]]
        assert singles == got[:30]

    def test_recovers_on_next_good_rebuild(self, setup):
        classifier, trace = setup
        fail_first = {"remaining": 1}

        def flaky_builder(snapshot):
            if fail_first["remaining"]:
                fail_first["remaining"] -= 1
                raise RuntimeError("transient")
            return SaxPacEngine(snapshot)

        runtime = HotSwapRuntime(classifier, builder=flaky_builder)
        assert runtime.degraded
        runtime.rebuild(wait=True)
        assert not runtime.degraded
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)


class TestBackgroundRebuild:
    def test_flush_drains_pending_swap(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier, background=True)
        gen = runtime.generation
        rule = make_rule([(0, 2)] * classifier.num_fields)
        runtime.insert(rule)
        runtime.flush()
        assert runtime.generation > gen
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)

    def test_coalesces_many_updates(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier, background=True)
        for i in range(10):
            runtime.insert(make_rule([(i, i + 1)] * classifier.num_fields))
        runtime.flush()
        # Coalescing means at most one swap per update, usually far fewer,
        # but the final state must reflect every insert.
        assert len(runtime) == len(classifier.body) + 10
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)
