"""TCAM substrate: ternary entries, range encodings, simulator, costs."""

from .bitset import BitsetTcam
from .cost import (
    STANDARD_ROW_WIDTHS,
    SpaceReport,
    classifier_entry_count,
    classifier_space,
    snapped_width,
)
from .encoding import (
    BinaryRangeEncoder,
    RangeEncoder,
    SrgeRangeEncoder,
    binary_expand,
    expand_rule,
    gray_decode,
    gray_encode,
    rule_entry_count,
    srge_expand,
)
from .entry import TernaryEntry, concat_entries, entry_from_pattern
from .negative import DecisionList, SignedEntry, negative_range_encode
from .tcam import Tcam, TcamClassifier, TcamEntryRecord, build_tcam
from .updates import ManagedTcam, UpdateStats

__all__ = [
    "BinaryRangeEncoder",
    "BitsetTcam",
    "RangeEncoder",
    "STANDARD_ROW_WIDTHS",
    "SpaceReport",
    "SrgeRangeEncoder",
    "Tcam",
    "TcamClassifier",
    "TcamEntryRecord",
    "TernaryEntry",
    "DecisionList",
    "ManagedTcam",
    "SignedEntry",
    "UpdateStats",
    "binary_expand",
    "negative_range_encode",
    "build_tcam",
    "classifier_entry_count",
    "classifier_space",
    "concat_entries",
    "entry_from_pattern",
    "expand_rule",
    "gray_decode",
    "gray_encode",
    "rule_entry_count",
    "snapped_width",
    "srge_expand",
]
