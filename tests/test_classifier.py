"""Tests for repro.core.classifier."""


import pytest

from repro.core import (
    Classifier,
    DENY,
    FieldSchema,
    FieldSpec,
    Interval,
    PERMIT,
    TRANSMIT,
    make_rule,
    uniform_schema,
)
from conftest import random_classifier


class TestConstruction:
    def test_catch_all_appended(self):
        schema = uniform_schema(2, 4)
        k = Classifier(schema, [make_rule([(1, 2), (3, 4)])])
        assert len(k) == 2
        assert k.catch_all.is_catch_all(schema)

    def test_existing_catch_all_not_duplicated(self):
        schema = uniform_schema(2, 4)
        rules = [make_rule([(1, 2), (3, 4)]), make_rule([(0, 15), (0, 15)])]
        k = Classifier(schema, rules)
        assert len(k) == 2

    def test_field_arity_checked(self):
        schema = uniform_schema(2, 4)
        with pytest.raises(ValueError):
            Classifier(schema, [make_rule([(1, 2)])])

    def test_field_width_checked(self):
        schema = uniform_schema(2, 4)
        with pytest.raises(ValueError):
            Classifier(schema, [make_rule([(1, 2), (3, 16)])])
        # The error names the field the interval overflows.
        mixed = FieldSchema.of([FieldSpec("wide", 8), FieldSpec("narrow", 4)])
        with pytest.raises(ValueError, match="'narrow'"):
            Classifier(mixed, [make_rule([(3, 16), (3, 16)])])

    def test_body_excludes_catch_all(self):
        schema = uniform_schema(1, 4)
        k = Classifier(schema, [make_rule([(1, 2)])])
        assert len(k.body) == 1


class TestFirstMatchSemantics:
    def test_priority_order(self):
        schema = uniform_schema(1, 4)
        k = Classifier(
            schema,
            [make_rule([(0, 7)], PERMIT), make_rule([(4, 15)], DENY)],
        )
        assert k.match((5,)).index == 0  # overlap resolved by priority
        assert k.match((9,)).index == 1
        assert k.match((5,)).action is PERMIT

    def test_catch_all_fallback(self):
        schema = uniform_schema(1, 4)
        k = Classifier(schema, [make_rule([(0, 3)], DENY)])
        result = k.match((9,))
        assert result.rule is k.catch_all
        assert result.action == TRANSMIT

    def test_classify_returns_action(self):
        schema = uniform_schema(1, 4)
        k = Classifier(schema, [make_rule([(0, 3)], DENY)])
        assert k.classify((1,)) is DENY


class TestSurgery:
    def test_restrict_keeps_semantics_shape(self, example2_classifier):
        reduced = example2_classifier.restrict([0])
        assert reduced.num_fields == 1
        assert len(reduced) == len(example2_classifier)

    def test_drop_fields(self, example2_classifier):
        reduced = example2_classifier.drop_fields([1, 2])
        assert reduced.num_fields == 1
        assert reduced.rules[0].intervals == (Interval(1, 3),)

    def test_extend_adds_wildcard_to_catch_all(self, example1_classifier):
        extra = [FieldSpec("new", 5)]
        intervals = [
            [Interval(1, 28)],
            [Interval(4, 27)],
            [Interval(3, 18)],
        ]
        extended = example1_classifier.extend(extra, intervals)
        assert extended.num_fields == 3
        assert extended.catch_all.intervals[2] == Interval(0, 31)

    def test_subset_preserves_order(self, example3_classifier):
        sub = example3_classifier.subset([0, 2, 3])
        assert [r.name for r in sub.body] == ["R1", "R3", "R4"]

    def test_without(self, example3_classifier):
        rest = example3_classifier.without([1])
        assert [r.name for r in rest.body] == ["R1", "R3", "R4", "R5"]


class TestVectorizedViews:
    def test_bounds_arrays_shape_and_values(self, example1_classifier):
        lows, highs = example1_classifier.bounds_arrays()
        assert lows.shape == (3, 2)
        assert lows[0, 0] == 1 and highs[0, 0] == 3
        assert lows[2, 1] == 5 and highs[2, 1] == 21

    def test_bounds_arrays_cached(self, example1_classifier):
        a = example1_classifier.bounds_arrays()
        b = example1_classifier.bounds_arrays()
        assert a[0] is b[0]

    def test_bounds_readonly(self, example1_classifier):
        lows, _highs = example1_classifier.bounds_arrays()
        with pytest.raises(ValueError):
            lows[0, 0] = 99


class TestHeaderSampling:
    def test_sample_headers_in_range(self, rng, example1_classifier):
        for header in example1_classifier.sample_headers(50, rng):
            assert all(
                0 <= v <= spec.max_value
                for v, spec in zip(header, example1_classifier.schema)
            )

    def test_hit_bias_hits_rules(self, rng, example1_classifier):
        headers = example1_classifier.sample_headers(200, rng, hit_bias=1.0)
        hits = sum(
            1
            for h in headers
            if example1_classifier.match(h).rule is not example1_classifier.catch_all
        )
        assert hits == 200

    def test_all_headers_tiny(self):
        schema = uniform_schema(2, 2)
        k = Classifier(schema, [make_rule([(0, 1), (0, 1)])])
        assert sum(1 for _ in k.all_headers()) == 16


class TestEquivalenceHelper:
    def test_equivalent_on_self(self, rng):
        k = random_classifier(rng)
        headers = k.sample_headers(100, rng)
        assert k.equivalent_on(lambda h: k.match(h), headers)

    def test_detects_divergence(self, rng):
        k = random_classifier(rng)
        headers = k.sample_headers(100, rng)
        assert not k.equivalent_on(lambda h: k.catch_all, headers) or all(
            k.match(h).rule is k.catch_all for h in headers
        )
