"""Property tests: every runtime data path is the same function.

Single-packet ``match``, vectorized ``match_batch``, the shm shard
workers and the linear fallback must return identical
:class:`MatchResult`s for any classifier and any traffic — including
while rules are hot-swapped mid-stream (each half of the trace must
agree with the linear reference for the rule set that was live when it
was classified).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.runtime.batch import linear_match_batch, match_batch
from repro.runtime.shard import ShardedRuntime
from repro.runtime.swap import HotSwapRuntime
from repro.saxpac.engine import EngineConfig, SaxPacEngine
from strategies import classifiers, headers_for, rules

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_CONFIGS = [
    EngineConfig(),
    EngineConfig(enforce_cache=True),
    EngineConfig(max_groups=2, min_group_size=2),
]


class TestDataPathEquivalence:
    @given(st.data())
    @_SETTINGS
    def test_single_batched_sharded_agree(self, data):
        classifier = data.draw(classifiers())
        headers = [
            data.draw(headers_for(classifier)) for _ in range(12)
        ]
        config = data.draw(st.sampled_from(_CONFIGS))
        engine = SaxPacEngine(classifier, config)
        want = [classifier.match(h) for h in headers]

        single = [engine.match(h) for h in headers]
        batched = engine.match_batch(headers)
        linear = linear_match_batch(classifier, headers)
        with ShardedRuntime(
            classifier=classifier, config=config, num_shards=3
        ) as sharded:
            shard_results = sharded.match_batch(headers)

        for got in (single, batched, linear, shard_results):
            assert [r.index for r in got] == [r.index for r in want]
            assert [r.rule for r in got] == [r.rule for r in want]

    @given(st.data())
    @_SETTINGS
    def test_dispatch_helper_agrees(self, data):
        classifier = data.draw(classifiers())
        headers = [data.draw(headers_for(classifier)) for _ in range(8)]
        engine = SaxPacEngine(classifier)
        got = match_batch(engine, headers)
        want = classifier.match_batch(headers)
        assert [r.index for r in got] == [r.index for r in want]


class TestHotSwapEquivalence:
    @given(st.data())
    @_SETTINGS
    def test_mid_stream_swap_stays_correct(self, data):
        classifier = data.draw(classifiers())
        first = [data.draw(headers_for(classifier)) for _ in range(6)]
        second = [data.draw(headers_for(classifier)) for _ in range(6)]
        new_rule = data.draw(
            rules(classifier.num_fields, classifier.schema[0].width)
        )

        runtime = HotSwapRuntime(classifier)
        snap_before = runtime.snapshot_classifier()
        got_first = runtime.match_batch(first)
        runtime.insert(new_rule)  # swaps before the second half
        snap_after = runtime.snapshot_classifier()
        got_second = runtime.match_batch(second)

        assert [r.index for r in got_first] == [
            snap_before.match(h).index for h in first
        ]
        assert [r.index for r in got_second] == [
            snap_after.match(h).index for h in second
        ]
        # The inserted rule is part of the served rule set now.
        assert len(runtime) == len(classifier.body) + 1

    @given(st.data())
    @_SETTINGS
    def test_degraded_fallback_agrees(self, data):
        classifier = data.draw(classifiers())
        headers = [data.draw(headers_for(classifier)) for _ in range(10)]

        def broken(snapshot):
            raise RuntimeError("rebuild denied")

        runtime = HotSwapRuntime(classifier, builder=broken)
        assert runtime.degraded
        got = runtime.match_batch(headers)
        want = classifier.match_batch(headers)
        assert [r.index for r in got] == [r.index for r in want]
