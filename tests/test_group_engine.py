"""Tests for the multi-group software engine (Theorem 3 dataflow) and
its per-group lookup structures."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.mgr import Group, l_mgr
from repro.lookup.group_engine import (
    LinearGroupIndex,
    MultiGroupEngine,
    build_group_index,
)
from repro.core import Classifier, make_rule, uniform_schema
from repro.core.packet import headers_array
from repro.runtime.batch import linear_match_batch
from repro.saxpac.config import EngineConfig
from repro.saxpac.engine import SaxPacEngine
from conftest import random_classifier
from conftest import positional_change
from strategies import classifiers, corner_headers_for

WIDTH = 16
FULL = (1 << WIDTH) - 1

#: Field count -> the structure :func:`build_group_index` builds.
STRUCTURE_OF = {1: "interval", 2: "segment", 3: "linear"}

REPORT_KEYS = {
    "backend", "fields", "slots", "live", "memory_items", "build_seconds"
}


def _disjoint_classifier(n: int) -> Classifier:
    """Three 16-bit fields; body rule ``i`` owns ``[4i, 4i+2]`` on field
    0 and the full range elsewhere, so the body is pairwise disjoint on
    field 0 and any field subset holding it forms a valid group."""
    schema = uniform_schema(3, WIDTH)
    body = [
        make_rule([(4 * i, 4 * i + 2), (0, FULL), (0, FULL)])
        for i in range(n)
    ]
    return Classifier(schema, body)


def _indexes(k: Classifier):
    """One index of each structure over all of ``k``'s body rules."""
    members = tuple(range(len(k.body)))
    return [
        build_group_index(k, Group(members, tuple(range(width))))
        for width in sorted(STRUCTURE_OF)
    ]


class TestBuildGroupIndex:
    def test_dispatch_by_field_count(self, example3_classifier):
        one = build_group_index(example3_classifier, Group((3, 4), (2,)))
        two = build_group_index(example3_classifier, Group((0, 1, 2), (0, 1)))
        three = build_group_index(
            example3_classifier, Group((0,), (0, 1, 2))
        )
        assert one.fields == (2,)
        assert two.fields == (0, 1)
        assert isinstance(three, LinearGroupIndex)

    def test_probe_only_sees_group_fields(self, example3_classifier):
        index = build_group_index(example3_classifier, Group((3, 4), (2,)))
        # Header matching R4's field 2 but nothing else still probes R4.
        assert index.probe((15, 15, 2)) == 3

    def test_linear_probe(self, example3_classifier):
        index = LinearGroupIndex(example3_classifier, Group((0, 1), (0, 1, 2)))
        assert index.probe((6, 5, 4)) == 0
        assert index.probe((2, 5, 4)) == 1
        assert index.probe((15, 15, 15)) is None


class TestEngineSemantics:
    def test_example3_full_lookup(self, example3_classifier):
        grouping = l_mgr(example3_classifier, l=2)
        engine = MultiGroupEngine(example3_classifier, grouping.groups)
        # Figure 4's walkthrough: packet (2, 4, 5) matches R2 and R5;
        # R2 wins by priority.
        assert engine.lookup((2, 4, 5)) == 1

    def test_false_positive_filtered(self, example3_classifier):
        grouping = l_mgr(example3_classifier, l=2)
        engine = MultiGroupEngine(example3_classifier, grouping.groups)
        # Header inside R3 on fields {0,1} but outside on field 2: the
        # candidate must fail the false-positive check.
        header = (2, 2, 15)
        assert engine.lookup(header) is None
        assert engine.stats.false_positives >= 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("l", [1, 2])
    def test_equivalent_to_linear_scan(self, seed, l):
        rng = random.Random(seed)
        k = random_classifier(rng, num_rules=30)
        grouping = l_mgr(k, l=l)
        engine = MultiGroupEngine(k, grouping.groups)
        for header in k.sample_headers(200, rng):
            expected = k.match(header)
            got = engine.match(header)
            assert got.index == expected.index

    def test_match_falls_back_to_catch_all(self, example3_classifier):
        grouping = l_mgr(example3_classifier, l=2)
        engine = MultiGroupEngine(example3_classifier, grouping.groups)
        result = engine.match((15, 15, 15))
        assert result.rule is example3_classifier.catch_all

    def test_stats_counters(self, example3_classifier):
        grouping = l_mgr(example3_classifier, l=2)
        engine = MultiGroupEngine(example3_classifier, grouping.groups)
        engine.lookup((2, 4, 5))
        assert engine.stats.lookups == 1
        assert engine.stats.probes == len(engine.groups)

    def test_num_rules(self, example3_classifier):
        grouping = l_mgr(example3_classifier, l=2)
        engine = MultiGroupEngine(example3_classifier, grouping.groups)
        assert engine.num_rules == 5


class TestShadow:
    def test_shadow_rule_found_via_host(self):
        schema = uniform_schema(2, 5)
        k = Classifier(
            schema,
            [
                make_rule([(0, 7), (0, 31)], name="host"),
                make_rule([(2, 5), (3, 3)], name="shadowed"),
            ],
        )
        # Only the host is in the group; the shadowed rule rides along.
        engine = MultiGroupEngine(
            k, [Group((0,), (0,))], shadow={0: (1,)}
        )
        # Header matching both: min priority (the host) wins.
        assert engine.lookup((3, 3)) == 0
        # Header matching only the shadowed region in field 1? The host
        # covers field 0 fully, so the probe still surfaces it.
        assert engine.lookup((3, 4)) == 0

    def test_shadow_priority_merge(self):
        schema = uniform_schema(2, 5)
        k = Classifier(
            schema,
            [
                make_rule([(2, 5), (3, 3)], name="shadowed"),
                make_rule([(0, 7), (0, 31)], name="host"),
            ],
        )
        engine = MultiGroupEngine(
            k, [Group((1,), (0,))], shadow={1: (0,)}
        )
        # The shadowed rule has higher priority and must win when both hit.
        assert engine.lookup((3, 3)) == 0
        assert engine.lookup((6, 9)) == 1
        assert engine.stats.shadow_checks >= 1

    def test_shadow_load(self):
        schema = uniform_schema(1, 4)
        k = Classifier(schema, [make_rule([(0, 3)]), make_rule([(1, 2)])])
        engine = MultiGroupEngine(
            k, [Group((0,), (0,))], shadow={0: (1,)}
        )
        assert engine.shadow_load == 1
        empty = MultiGroupEngine(k, [Group((0,), (0,))])
        assert empty.shadow_load == 0


class TestStructureByFieldCount:
    def test_structure_stamped_by_field_count(self):
        k = _disjoint_classifier(8)
        for index in _indexes(k):
            assert index.backend == STRUCTURE_OF[len(index.fields)]
            assert index.build_seconds >= 0.0
            report = index.backend_report()
            assert set(report) == REPORT_KEYS
            assert report["backend"] == index.backend
            assert report["fields"] == list(index.fields)
            assert report["slots"] == report["live"] == 8
            assert report["memory_items"] == index.memory_items()

    def test_matches_linear_scan_on_sweep(self):
        n = 96
        k = _disjoint_classifier(n)
        headers = [(v, 0, 0) for v in range(4 * n + 4)]
        harr = headers_array(headers, k.schema)
        reference = LinearGroupIndex(k, Group(tuple(range(n)), (0,)))
        want = reference.probe_batch(headers, harr)
        for index in _indexes(k):
            assert np.array_equal(index.probe_batch(headers, harr), want)
            for header in headers[::7]:
                assert index.probe(header) == reference.probe(header)

    def test_tombstones_mask_hits(self):
        k = _disjoint_classifier(80)
        dead = 5
        header = (4 * dead + 1, 0, 0)
        harr = headers_array([header], k.schema)
        for index in _indexes(k):
            ids = index.rule_ids.copy()
            ids[dead] = -1
            view = index.reindexed(ids)
            assert index.probe(header) == dead
            assert view.probe(header) is None
            assert view.probe_batch([header], harr)[0] == -1
            assert len(view) == len(index) - 1

    def test_reindexed_view_shares_no_mutable_state(self):
        """A tombstone view shares the lookup structure read-only but
        owns its labels: relabeling it never changes what the serving
        index answers, for single probes or batches."""
        k = _disjoint_classifier(40)
        headers = [(4 * i + 1, 0, 0) for i in range(40)]
        harr = headers_array(headers, k.schema)
        for index in _indexes(k):
            before = index.probe_batch(headers, harr).copy()
            view = index.reindexed(np.full(40, -1, dtype=np.int64))
            assert view.rule_ids is not index.rule_ids
            assert (view.probe_batch(headers, harr) == -1).all()
            assert np.array_equal(index.probe_batch(headers, harr), before)
            assert [index.probe(h) for h in headers] == list(range(40))
            with pytest.raises(ValueError, match="slots"):
                index.reindexed([0])

    @given(st.data())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_each_structure_matches_linear_reference(self, data):
        k = data.draw(classifiers(max_rules=14))
        headers = [data.draw(corner_headers_for(k)) for _ in range(10)]
        want = [m.index for m in linear_match_batch(k, headers)]
        for width in sorted(STRUCTURE_OF):
            engine = SaxPacEngine(k, EngineConfig(max_group_fields=width))
            for index in engine.software.groups:
                assert index.backend == STRUCTURE_OF[len(index.fields)]
            got = [m.index for m in engine.match_batch(headers)]
            assert got == want, f"max_group_fields={width} diverged"


class TestEngineReporting:
    def test_report_carries_structures_out_of_equality(self):
        engine = SaxPacEngine(_disjoint_classifier(64))
        report = engine.report()
        assert report.group_backends == tuple(
            STRUCTURE_OF[len(fields)] for fields in report.group_fields
        )
        # The structure names are an implementation detail: two
        # decision-identical builds must still compare equal.
        relabeled = dataclasses.replace(
            report, group_backends=("linear",) * report.num_groups
        )
        assert relabeled == report

    def test_backend_summary_shape(self):
        engine = SaxPacEngine(_disjoint_classifier(64))
        summary = engine.backend_summary()
        assert len(summary) == len(engine.software.groups)
        for entry in summary:
            assert set(entry) == REPORT_KEYS
            assert entry["backend"] == STRUCTURE_OF[len(entry["fields"])]
            assert entry["slots"] >= entry["live"]
            assert entry["memory_items"] > 0

    def test_carried_group_keeps_its_structure_on_rebuild(self):
        n = 80
        k = _disjoint_classifier(n)
        engine = SaxPacEngine(k)
        shrunk = Classifier(k.schema, k.body[: n - 2])
        rebuilt = engine.rebuild(*positional_change(k, shrunk))
        assert rebuilt.build_incremental
        old, new = engine.software.groups[0], rebuilt.software.groups[0]
        assert type(new) is type(old)
        assert new.backend == old.backend
        assert len(new) == n - 2
        headers = [(4 * i + 1, 3, 3) for i in range(n)]
        want = [m.index for m in linear_match_batch(shrunk, headers)]
        assert [m.index for m in rebuilt.match_batch(headers)] == want


class TestServingSurfaces:
    def test_service_snapshot_exposes_structures(self):
        from repro.runtime.service import RuntimeService

        k = _disjoint_classifier(64)
        with RuntimeService(k) as service:
            summary = service.backend_summary()
            assert summary is not None
            assert summary[0]["backend"] == "segment"
            assert set(summary[0]) == REPORT_KEYS
            payload = service.info_payload()
            assert payload["lookup_backends"] == summary
            server = service.serve_metrics(port=0)
            snapshot = server.render_snapshot()
            assert snapshot["lookup_backends"][0]["backend"] == "segment"

    def test_render_top_annotates_structures(self):
        from repro.obs.heat import render_top

        report = {
            "sample_period": 1,
            "seen_packets": 10,
            "sampled_packets": 10,
            "rules": [],
            "groups": {
                "g0[0]": {"probes": 10, "candidates": 8,
                          "fp_failures": 0, "fp_rate": 0.0, "hits": 8},
                "d": {"probes": 10, "candidates": 2,
                      "fp_failures": 0, "fp_rate": 0.0, "hits": 2},
            },
        }
        text = render_top(report, backends={"g0[0]": "interval"})
        assert "backend=interval" in text
        assert "d " in text  # the D pseudo-stage stays unannotated


class TestTelemetryCounters:
    def test_per_structure_counters(self):
        from repro.runtime.telemetry import Telemetry

        k = _disjoint_classifier(64)
        recorder = Telemetry()
        engine = SaxPacEngine(
            k, EngineConfig(max_group_fields=1), recorder=recorder
        )
        assert engine.report().group_backends == ("interval",)
        headers = [(4 * i + 1, 3, 3) for i in range(32)]
        engine.match_batch(headers)
        counters = recorder.snapshot().counters
        assert counters["lookup.backend.interval.probes"] == 32
        assert counters["lookup.backend.interval.candidates"] == 32
