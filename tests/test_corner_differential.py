"""Exhaustive corner-point differential of the batch kernels.

The batch path answers D with per-field bitsets and the two-field groups
with a flat segment tree; both turn interval bounds into sorted cut and
key arrays, where an off-by-one or a lossy cast of a bound changes an
answer.  So every bound is probed, not a random sample: for each rule of
D, on every field, and for each group member, on the group fields, the
header sits inside the rule except for one field set to ``low - 1``,
``low``, ``high`` or ``high + 1``.  ``match_batch_indices`` must equal
the first-match scan on all of them.

Schemas: a 128-bit IPv6 forwarding table (object-dtype bounds), the
5k-rule fw and acl sets the benchmark serves, and an engine that went
through :meth:`SaxPacEngine.rebuild` so its groups are reindexed and
tombstoned views.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import positional_change

from repro.core.classifier import Classifier
from repro.runtime.batch import linear_match_indices
from repro.saxpac.engine import SaxPacEngine
from repro.workloads.forwarding import generate_forwarding_table
from repro.workloads.generator import generate_classifier

#: Every n-th group member is probed on the 5k sets (all of D always).
GROUP_STRIDE = 8


def corner_headers(engine: SaxPacEngine, group_stride: int = 1):
    """Headers inside one rule except for one field on a ±1 corner of
    that rule's bound there: all fields of every D rule, the group
    fields of every ``group_stride``-th member of every group."""
    classifier = engine.classifier
    maxima = [spec.max_value for spec in classifier.schema]
    probes = [
        (i, range(classifier.num_fields)) for i in engine.decomposition()[1]
    ]
    for index in engine.software.groups:
        live = [int(r) for r in index.rule_ids if r >= 0]
        probes.extend((r, index.fields) for r in live[::group_stride])
    headers = set()
    for rule_index, fields in probes:
        intervals = classifier.rules[rule_index].intervals
        inside = [iv.low for iv in intervals]
        for f in fields:
            iv = intervals[f]
            for value in (iv.low - 1, iv.low, iv.high, iv.high + 1):
                if 0 <= value <= maxima[f]:
                    header = list(inside)
                    header[f] = value
                    headers.add(tuple(header))
    return sorted(headers)


def assert_corners_agree(engine: SaxPacEngine, headers) -> None:
    classifier = engine.classifier
    got = engine.match_batch_indices(headers)
    want = linear_match_indices(classifier, headers)
    bad = np.nonzero(got != want)[0]
    assert not bad.size, (
        f"{bad.size} of {len(headers)} corners disagree, first "
        f"{headers[bad[0]]}: engine {got[bad[0]]}, scan {want[bad[0]]}"
    )
    # The vectorized scan is itself checked against Classifier.match on
    # a deterministic spread of the corners.
    for j in range(0, len(headers), max(1, len(headers) // 150)):
        assert classifier.match(headers[j]).index == want[j]


class TestWideField:
    def test_ipv6_forwarding_table(self):
        table = generate_forwarding_table(2000, seed=3, version=6)
        assert list(table.schema.widths) == [128]
        engine = SaxPacEngine(table)
        assert len(engine.decomposition()[1]) == 200
        headers = corner_headers(engine)
        # Bounds past 2**64 reach the kernels as exact Python ints.
        assert max(h[0] for h in headers) > 1 << 64
        assert_corners_agree(engine, headers)


@pytest.mark.parametrize("style", ["fw", "acl"])
def test_benchmark_rule_sets(style):
    classifier = generate_classifier(style, 5000, 2014)
    engine = SaxPacEngine(classifier)
    assert engine.decomposition()[1]
    assert_corners_agree(engine, corner_headers(engine, GROUP_STRIDE))


def test_rebuilt_engine_with_reindexed_and_tombstoned_groups():
    base = generate_classifier("acl", 2000, 41)
    fresh = generate_classifier("acl", 40, 43).body[:5]
    kept = [rule for i, rule in enumerate(base.body) if i % 25 != 7]
    target = Classifier(base.schema, list(fresh) + kept)
    engine = SaxPacEngine(base).rebuild(*positional_change(base, target))
    assert engine.build_incremental
    assert any((g.rule_ids < 0).any() for g in engine.software.groups)
    assert_corners_agree(engine, corner_headers(engine))
