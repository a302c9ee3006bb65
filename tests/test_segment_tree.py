"""Tests for the segment tree."""

import math
import random

import pytest

from repro.core import Interval
from repro.lookup.segment_tree import SegmentTree


def _random_intervals(rng, count, universe=100, span=20):
    out = []
    for _ in range(count):
        lo = rng.randint(0, universe)
        out.append(Interval(lo, lo + rng.randint(0, span)))
    return out


class TestStab:
    def test_single_interval(self):
        tree = SegmentTree([Interval(3, 7)])
        tree.insert(Interval(3, 7), "x")
        assert list(tree.stab(5)) == [(Interval(3, 7), "x")]
        assert list(tree.stab(2)) == []
        assert list(tree.stab(8)) == []

    def test_boundaries_inclusive(self):
        tree = SegmentTree([Interval(3, 7)])
        tree.insert(Interval(3, 7), "x")
        assert list(tree.stab(3)) and list(tree.stab(7))

    @pytest.mark.parametrize("seed", range(6))
    def test_stab_equals_linear_scan(self, seed):
        rng = random.Random(seed)
        intervals = _random_intervals(rng, 40)
        tree = SegmentTree(intervals)
        for i, iv in enumerate(intervals):
            tree.insert(iv, i)
        for value in range(-1, 130):
            got = sorted(p for _iv, p in tree.stab(value))
            expected = sorted(
                i for i, iv in enumerate(intervals) if iv.contains(value)
            )
            assert got == expected

    def test_insert_unknown_interval_rejected(self):
        tree = SegmentTree([Interval(0, 5)])
        with pytest.raises(ValueError):
            tree.insert(Interval(1, 4), "x")

    def test_empty_tree(self):
        tree = SegmentTree([])
        assert list(tree.stab(0)) == []


class TestComplexity:
    def test_logarithmic_node_usage(self):
        # Each insertion touches at most ~2 log2(leaves) + 2 nodes.
        rng = random.Random(42)
        intervals = _random_intervals(rng, 200, universe=5000, span=500)
        tree = SegmentTree(intervals)
        bound = 2 * math.ceil(math.log2(2 * len(intervals) + 2)) + 2
        for iv in intervals:
            assert tree.insert(iv, 0) <= bound

    def test_num_slots_linearithmic(self):
        rng = random.Random(43)
        intervals = _random_intervals(rng, 300, universe=10000, span=800)
        tree = SegmentTree(intervals)
        for iv in intervals:
            tree.insert(iv, 0)
        n = len(intervals)
        assert tree.num_slots <= n * (2 * math.ceil(math.log2(2 * n)) + 2)
