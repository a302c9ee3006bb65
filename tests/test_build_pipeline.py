"""Compile-pipeline properties: the vectorized build must match the
reference scans bit for bit, and incremental rebuilds must be
semantically indistinguishable from from-scratch builds."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.columnar import (
    ColumnarRules,
    candidate_subsets,
    pack_disjoint_masks,
    subset_bitmasks,
    subset_fail_table,
)
from repro.analysis.mgr import l_mgr, l_mgr_reference
from repro.analysis.mrc import (
    _fields_or_all,
    _greedy_independent_scan,
    greedy_independent_set,
)
from repro.core import Classifier, make_rule, uniform_schema
from repro.saxpac.config import EngineConfig
from repro.saxpac.engine import SaxPacEngine
from repro.workloads.generator import generate_classifier
from strategies import classifiers, headers_for


# ---------------------------------------------------------------------------
# Columnar primitives
# ---------------------------------------------------------------------------
class TestColumnar:
    def test_columnar_view_reuses_cached_bounds(self):
        classifier = generate_classifier("acl", 50, 3)
        cols = ColumnarRules.from_classifier(classifier)
        lows, highs = classifier.bounds_arrays()
        assert cols.lows is lows and cols.highs is highs
        assert cols.num_rules == len(classifier.body)
        assert cols.num_fields == classifier.num_fields
        assert cols.vectorizable

    def test_fail_table_matches_definition(self):
        subsets = candidate_subsets(4, 2)
        masks = subset_bitmasks(subsets)
        table = subset_fail_table(subsets, 4)
        for value in range(1 << 4):
            expected = sum(
                1 << s
                for s, mask in enumerate(masks)
                if value & mask == 0
            )
            assert int(table[value]) == expected

    def test_pack_disjoint_masks_round_trips(self):
        rng = np.random.default_rng(11)
        cube = rng.integers(0, 2, size=(5, 7, 9), dtype=np.uint8).astype(bool)
        packed = pack_disjoint_masks(cube)
        assert packed.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                expected = sum(1 << f for f in range(9) if cube[i, j, f])
                assert int(packed[i, j]) == expected

    def test_fail_table_limits_enforced(self):
        with pytest.raises(ValueError):
            subset_fail_table([(0,)], 17)


# ---------------------------------------------------------------------------
# Vectorized == reference
# ---------------------------------------------------------------------------
class TestVectorizedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(classifiers(max_rules=40), st.integers(1, 3), st.data())
    def test_l_mgr_matches_reference(self, classifier, l, data):
        n = len(classifier.body)
        beta = data.draw(
            st.one_of(st.none(), st.integers(1, 4)), label="beta"
        )
        order = None
        if n and data.draw(st.booleans(), label="shuffle"):
            order = list(range(n))
            data.draw(st.randoms(), label="rng").shuffle(order)
        fast = l_mgr(classifier, l, beta=beta, order=order)
        reference = l_mgr_reference(classifier, l, beta=beta, order=order)
        assert fast.ungrouped == reference.ungrouped
        assert [g.rule_indices for g in fast.groups] == [
            g.rule_indices for g in reference.groups
        ]
        assert [g.fields for g in fast.groups] == [
            g.fields for g in reference.groups
        ]

    @settings(max_examples=60, deadline=None)
    @given(classifiers(max_rules=60), st.data())
    def test_greedy_independent_set_matches_scan(self, classifier, data):
        fields = None
        if classifier.num_fields > 1 and data.draw(st.booleans()):
            fields = data.draw(
                st.lists(
                    st.integers(0, classifier.num_fields - 1),
                    min_size=1,
                    unique=True,
                )
            )
        chosen = _fields_or_all(classifier, fields)
        lows, highs = classifier.bounds_arrays()
        reference = _greedy_independent_scan(
            lows[:, chosen],
            highs[:, chosen],
            range(lows.shape[0]),
            chosen,
        )
        assert greedy_independent_set(classifier, fields) == reference

    def test_l_mgr_rule_subset_matches_reference(self):
        classifier = generate_classifier("acl", 400, 21)
        rng = random.Random(5)
        subset = rng.sample(range(len(classifier.body)), 150)
        fast = l_mgr(classifier, 2, rule_subset=subset)
        reference = l_mgr_reference(classifier, 2, rule_subset=subset)
        assert [g.rule_indices for g in fast.groups] == [
            g.rule_indices for g in reference.groups
        ]
        assert fast.ungrouped == reference.ungrouped


# ---------------------------------------------------------------------------
# Incremental rebuild semantics
# ---------------------------------------------------------------------------
def _mutate(classifier, rng, removals, insertions, donor_seed):
    body = list(classifier.body)
    removals = min(removals, len(body))
    for index in sorted(
        rng.sample(range(len(body)), removals), reverse=True
    ):
        del body[index]
    donor = generate_classifier("acl", max(32, insertions * 3), donor_seed)
    for rule in list(donor.body)[:insertions]:
        body.insert(rng.randint(0, len(body)), rule)
    return Classifier(classifier.schema, body)


class TestIncrementalRebuild:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_rebuild_path_equivalent_to_fresh_build(self, seed):
        classifier = generate_classifier("acl", 1200, seed)
        engine = SaxPacEngine(classifier)
        rng = random.Random(seed + 100)
        changed = _mutate(classifier, rng, removals=8, insertions=8,
                          donor_seed=seed + 200)
        rebuilt = engine.rebuild(changed)
        assert rebuilt.build_incremental
        fresh = SaxPacEngine(changed)
        headers = np.stack(
            [
                np.random.default_rng(seed).integers(0, 1 << w, size=600)
                for w in classifier.schema.widths
            ],
            axis=1,
        ).tolist()
        got = [m.index for m in rebuilt.match_batch(headers)]
        want = [m.index for m in fresh.match_batch(headers)]
        reference = [m.index for m in changed.match_batch(headers)]
        assert got == want == reference

    def test_rebuild_single_headers_match_linear(self):
        classifier = generate_classifier("fw", 600, 3)
        engine = SaxPacEngine(classifier)
        rng = random.Random(33)
        changed = _mutate(classifier, rng, removals=4, insertions=4,
                          donor_seed=17)
        rebuilt = engine.rebuild(changed)
        for _ in range(200):
            header = tuple(
                rng.randint(0, (1 << w) - 1)
                for w in classifier.schema.widths
            )
            assert rebuilt.match(header).index == changed.match(header).index

    def test_rebuild_does_not_mutate_serving_engine(self):
        classifier = generate_classifier("acl", 800, 9)
        engine = SaxPacEngine(classifier)
        before = engine.report()
        rng = random.Random(1)
        changed = _mutate(classifier, rng, removals=5, insertions=5,
                          donor_seed=2)
        engine.rebuild(changed)
        assert engine.report() == before
        headers = np.stack(
            [
                np.random.default_rng(4).integers(0, 1 << w, size=300)
                for w in classifier.schema.widths
            ],
            axis=1,
        ).tolist()
        got = [m.index for m in engine.match_batch(headers)]
        want = [m.index for m in classifier.match_batch(headers)]
        assert got == want

    def test_rebuild_carries_bounds_matrix(self):
        """After inserts, removes and a modify, the bounds matrix an
        incremental rebuild carries equals a from-scratch derivation."""
        from repro.runtime.swap import HotSwapRuntime

        classifier = generate_classifier("acl", 400, 21)
        runtime = HotSwapRuntime(classifier)
        donor = generate_classifier("acl", 16, 22)
        ids = [runtime.insert(rule).rule_id for rule in donor.body[:4]]
        runtime.remove(0)
        runtime.remove(ids[1])
        runtime.modify(5, donor.body[5])
        engine = runtime.engine
        assert engine.build_incremental
        served = engine.classifier
        fresh = Classifier(served.schema, served.body).bounds_arrays()
        for got, want in zip(served.bounds_arrays(), fresh):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("width", [16, 64])
    def test_carry_bounds_matches_derivation(self, width):
        top = (1 << width) - 1
        schema = uniform_schema(2, width)
        old_rules = [
            make_rule([(i, i + 3), (top - i - 9, top - i)]) for i in range(8)
        ]
        added = [make_rule([(top - 5, top), (0, 1)])]
        previous = Classifier(schema, old_rules)
        # Drop rule 2, move rule 0 to the end and add one rule.
        body = old_rules[1:2] + old_rules[3:] + added + old_rules[:1]
        current = Classifier(schema, body)
        mapping = np.full(len(old_rules), -1, dtype=np.int64)
        for j, rule in enumerate(body):
            for i, old in enumerate(old_rules):
                if old is rule:
                    mapping[i] = j
        current.carry_bounds(previous, mapping)
        fresh = Classifier(schema, body).bounds_arrays()
        for got, want in zip(current.bounds_arrays(), fresh):
            assert got.dtype == want.dtype
            assert not got.flags.writeable
            np.testing.assert_array_equal(got, want)

    def test_chained_rebuilds_stay_equivalent(self):
        classifier = generate_classifier("acl", 900, 13)
        engine = SaxPacEngine(classifier)
        rng = random.Random(77)
        current = classifier
        for round_number in range(4):
            current = _mutate(current, rng, removals=3, insertions=3,
                              donor_seed=500 + round_number)
            engine = engine.rebuild(current)
            headers = np.stack(
                [
                    np.random.default_rng(round_number).integers(
                        0, 1 << w, size=250
                    )
                    for w in current.schema.widths
                ],
                axis=1,
            ).tolist()
            got = [m.index for m in engine.match_batch(headers)]
            want = [m.index for m in current.match_batch(headers)]
            assert got == want

    def test_small_delta_groups_spill_to_d(self):
        """Hot inserts one at a time leave the group count alone: each
        one-rule delta group goes to D instead of costing every batch a
        probe."""
        classifier = generate_classifier("acl", 1000, 31)
        engine = SaxPacEngine(classifier)
        groups = len(engine.decomposition()[0])
        donor = generate_classifier("acl", 40, 32)
        current = classifier
        for rule in donor.body[:20]:
            current = Classifier(current.schema, list(current.body) + [rule])
            engine = engine.rebuild(current)
            assert engine.build_incremental
            assert len(current.body) - 1 in engine.decomposition()[1]
        assert len(engine.decomposition()[0]) == groups
        headers = np.stack(
            [
                np.random.default_rng(5).integers(0, 1 << w, size=400)
                for w in current.schema.widths
            ],
            axis=1,
        ).tolist()
        got = [m.index for m in engine.match_batch(headers)]
        assert got == [m.index for m in current.match_batch(headers)]

    def test_large_churn_falls_back_to_full_build(self):
        classifier = generate_classifier("acl", 300, 5)
        engine = SaxPacEngine(classifier)
        rng = random.Random(8)
        changed = _mutate(classifier, rng, removals=120, insertions=120,
                          donor_seed=6)
        rebuilt = engine.rebuild(changed)
        assert not rebuilt.build_incremental
        headers = [
            tuple(rng.randint(0, (1 << w) - 1)
                  for w in classifier.schema.widths)
            for _ in range(200)
        ]
        got = [m.index for m in rebuilt.match_batch(headers)]
        want = [m.index for m in changed.match_batch(headers)]
        assert got == want

    def test_enforce_cache_always_full_build(self):
        classifier = generate_classifier("acl", 300, 5)
        engine = SaxPacEngine(classifier, EngineConfig(enforce_cache=True))
        rng = random.Random(8)
        changed = _mutate(classifier, rng, removals=2, insertions=2,
                          donor_seed=6)
        rebuilt = engine.rebuild(changed)
        assert not rebuilt.build_incremental

    def test_priority_only_shift_reuses_everything(self):
        classifier = generate_classifier("acl", 500, 19)
        engine = SaxPacEngine(classifier)
        body = list(classifier.body)
        moved = body.pop(250)
        body.insert(10, moved)
        shifted = Classifier(classifier.schema, body)
        rebuilt = engine.rebuild(shifted)
        assert rebuilt.build_incremental
        rng = random.Random(2)
        headers = [
            tuple(rng.randint(0, (1 << w) - 1)
                  for w in classifier.schema.widths)
            for _ in range(300)
        ]
        got = [m.index for m in rebuilt.match_batch(headers)]
        want = [m.index for m in shifted.match_batch(headers)]
        assert got == want

    @settings(max_examples=25, deadline=None)
    @given(classifiers(max_rules=25), st.data())
    def test_rebuild_property_random_classifiers(self, classifier, data):
        engine = SaxPacEngine(classifier)
        body = list(classifier.body)
        if body and data.draw(st.booleans(), label="remove"):
            del body[data.draw(
                st.integers(0, len(body) - 1), label="victim"
            )]
        if data.draw(st.booleans(), label="insert"):
            from strategies import rules

            new_rule = data.draw(
                rules(classifier.num_fields, 5), label="new_rule"
            )
            body.insert(
                data.draw(st.integers(0, len(body)), label="position"),
                new_rule,
            )
        changed = Classifier(classifier.schema, body)
        rebuilt = engine.rebuild(changed)
        for _ in range(20):
            header = data.draw(headers_for(changed))
            assert rebuilt.match(header).index == changed.match(header).index


# ---------------------------------------------------------------------------
# Stage breakdown plumbing
# ---------------------------------------------------------------------------
class TestBuildStages:
    def test_full_build_stage_breakdown(self):
        classifier = generate_classifier("acl", 400, 4)
        engine = SaxPacEngine(classifier)
        report = engine.report()
        names = [name for name, _ in report.build_stages]
        assert names == ["disjointness", "grouping", "lookup", "tcam"]
        assert all(seconds >= 0.0 for _, seconds in report.build_stages)
        assert report.build_seconds == pytest.approx(
            sum(seconds for _, seconds in report.build_stages)
        )
        assert not report.build_incremental

    def test_rebuild_stage_breakdown(self):
        classifier = generate_classifier("acl", 400, 4)
        engine = SaxPacEngine(classifier)
        body = list(classifier.body)
        del body[100]
        rebuilt = engine.rebuild(Classifier(classifier.schema, body))
        names = [name for name, _ in rebuilt.build_stages]
        assert names == ["diff", "grouping", "lookup", "tcam"]
        assert rebuilt.build_incremental

    def test_reports_with_different_timings_compare_equal(self):
        classifier = generate_classifier("acl", 300, 2)
        assert (
            SaxPacEngine(classifier).report()
            == SaxPacEngine(classifier).report()
        )

    def test_gauges_expose_build_breakdown(self):
        from repro.runtime.service import RuntimeService

        classifier = generate_classifier("acl", 200, 6)
        with RuntimeService(classifier) as service:
            gauges = service.gauges()
            assert gauges["build.seconds"] > 0.0
            assert gauges["build.incremental"] == 0.0
            for stage in ("disjointness", "grouping", "lookup", "tcam"):
                assert f"build.stage.{stage}" in gauges

    def test_swap_uses_incremental_rebuild(self):
        from repro.runtime.swap import HotSwapRuntime
        from repro.runtime.telemetry import Telemetry

        classifier = generate_classifier("acl", 300, 12)
        telemetry = Telemetry()
        runtime = HotSwapRuntime(classifier, recorder=telemetry)
        # A fresh Rule object: re-inserting an object already serving
        # would (correctly) defeat the identity diff and force a full
        # build.
        donor = generate_classifier("acl", 8, 99)
        runtime.insert(donor.body[0])
        snapshot = telemetry.snapshot()
        assert snapshot.counters.get("swap.incremental_rebuilds", 0) >= 1
        reference = runtime.snapshot_classifier()
        rng = random.Random(3)
        headers = [
            tuple(rng.randint(0, (1 << w) - 1)
                  for w in classifier.schema.widths)
            for _ in range(200)
        ]
        got = [m.index for m in runtime.match_batch(headers)]
        want = [m.index for m in reference.match_batch(headers)]
        assert got == want
