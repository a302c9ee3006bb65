"""Software lookup structures: interval maps, segment trees, group
engine, and the pluggable backend registry (:mod:`repro.lookup.backends`)."""

from .cascading import CascadingTwoFieldIndex
from .decision_tree import DecisionTreeClassifier, TreeStats
from .tuple_space import TupleSpaceClassifier
from .group_engine import (
    GroupIndex,
    LinearGroupIndex,
    MultiGroupEngine,
    build_group_index,
)
from .backends import (
    AUTO_BACKEND,
    LearnedGroupIndex,
    LookupBackend,
    backend_names,
    build_with_backend,
    get_backend,
    register_backend,
    select_backend,
)
from .interval_map import DisjointIntervalMap
from .segment_tree import SegmentTree
from .two_field import TwoFieldIndex

__all__ = [
    "AUTO_BACKEND",
    "CascadingTwoFieldIndex",
    "DecisionTreeClassifier",
    "DisjointIntervalMap",
    "TreeStats",
    "TupleSpaceClassifier",
    "GroupIndex",
    "LearnedGroupIndex",
    "LinearGroupIndex",
    "LookupBackend",
    "MultiGroupEngine",
    "SegmentTree",
    "TwoFieldIndex",
    "backend_names",
    "build_group_index",
    "build_with_backend",
    "get_backend",
    "register_backend",
    "select_backend",
]
