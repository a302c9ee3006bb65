"""Software lookup structures: interval maps, segment trees and the
group engine."""

from .cascading import CascadingTwoFieldIndex
from .decision_tree import DecisionTreeClassifier, TreeStats
from .tuple_space import TupleSpaceClassifier
from .group_engine import (
    GroupIndex,
    LinearGroupIndex,
    MultiGroupEngine,
    build_group_index,
)
from .interval_map import DisjointIntervalMap
from .segment_tree import SegmentTree
from .two_field import TwoFieldIndex

__all__ = [
    "CascadingTwoFieldIndex",
    "DecisionTreeClassifier",
    "DisjointIntervalMap",
    "TreeStats",
    "TupleSpaceClassifier",
    "GroupIndex",
    "LinearGroupIndex",
    "MultiGroupEngine",
    "SegmentTree",
    "TwoFieldIndex",
    "build_group_index",
]
