"""Two-field lookup for rule sets order-independent on two fields.

This is the software representation the paper leans on ([36]): if a group
of rules is order-independent on fields (a, b), then any two rules whose
first-field intervals overlap must have disjoint second-field intervals.
A segment tree over the first field therefore stores, at every canonical
node, rules whose first-field intervals all cover the node's span — i.e.
pairwise overlapping in the first field — so their second-field intervals
are pairwise disjoint and support binary search.

Layout: the tree is flat.  Every (canonical node, rule) pair becomes one
sorted composite key ``(node << 32) | rank``, where ``rank`` is the rank
of the rule's second-field low among all distinct lows of the set.  A
probe computes, for each level of the query's root-to-leaf path, the key
``(node << 32) | rank(q_b)`` and one ``searchsorted`` over the keys finds
the node's last interval starting at or below ``q_b`` — the binary
search of the classic per-node map, for every level and every header of
a batch at once.  Memory stays the segment tree's O(N log N) slots, held
in flat arrays instead of per-node Python buckets; a probe is
O(log^2 N) comparisons (fractional cascading would recover O(log N);
:mod:`repro.lookup.cascading` implements it for the scalar path).

At most one rule of the group can match any header on these two fields;
the caller still runs the Theorem 2 false-positive check on the remaining
fields.
"""

from __future__ import annotations

import bisect
from typing import Generic, Iterable, List, Optional, Tuple, TypeVar

import numpy as np

from ..core.intervals import Interval

__all__ = ["TwoFieldIndex"]

T = TypeVar("T")


def value_array(values: List[int]) -> np.ndarray:
    """int64 array of non-negative field values, or an exact Python-int
    object array when one does not fit (fields wider than 62 bits)."""
    if values and max(values) >= 1 << 62:
        return np.array(values, dtype=object)
    return np.array(values, dtype=np.int64)


def canonical_nodes(first: np.ndarray, last: np.ndarray, size: int):
    """Segment-tree cover of leaf ranges ``[first, last]`` in a heap of
    ``size`` leaves: ``(nodes, owner)`` pairs, at most ~2 log N per range
    — the bottom-up walk of the classic insert, run for all ranges at
    once."""
    lo = first + size
    hi = last + size
    owner = np.arange(len(first))
    nodes, owners = [], []
    active = lo <= hi
    while active.any():
        take = active & ((lo & 1) == 1)
        nodes.append(lo[take])
        owners.append(owner[take])
        lo = lo + take
        take = active & ((hi & 1) == 0)
        nodes.append(hi[take])
        owners.append(owner[take])
        hi = hi - take
        lo >>= 1
        hi >>= 1
        active &= lo <= hi
    if not nodes:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(nodes), np.concatenate(owners)


class TwoFieldIndex(Generic[T]):
    """Point-location index over (interval_a, interval_b, payload) triples
    whose rule set is order-independent on the two dimensions."""

    def __init__(self, items: Iterable[Tuple[Interval, Interval, T]]) -> None:
        triples = list(items)
        self._payloads: List[T] = [p for _a, _b, p in triples]
        self._count = len(triples)
        a_lo = value_array([a.low for a, _b, _p in triples])
        a_end = value_array([a.high + 1 for a, _b, _p in triples])
        b_lo = value_array([b.low for _a, b, _p in triples])
        b_hi = value_array([b.high for _a, b, _p in triples])
        # Elementary segment i spans [bounds[i], bounds[i + 1] - 1].
        bounds = np.unique(np.concatenate([a_lo, a_end]))
        if not len(bounds):
            bounds = np.array([0, 1], dtype=np.int64)
        self._bounds = bounds
        self._num_leaves = max(1, len(bounds) - 1)
        size = 1
        while size < self._num_leaves:
            size *= 2
        self._size = size
        first = np.searchsorted(bounds, a_lo).astype(np.int64)
        last = np.searchsorted(bounds, a_end).astype(np.int64) - 1
        nodes, owner = canonical_nodes(first, last, size)
        self._b_lows = np.unique(b_lo)
        rank = np.searchsorted(self._b_lows, b_lo).astype(np.int64)
        keys = (nodes << 32) | rank[owner]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        items = owner[order]
        highs = b_hi[items]
        same_node = (keys[1:] >> 32) == (keys[:-1] >> 32)
        overlap = same_node & (b_lo[items[1:]] <= highs[:-1])
        if overlap.any():
            j = int(np.argmax(overlap))
            raise ValueError(
                "rule set is not order-independent on the two chosen "
                f"fields: items {int(items[j])} and {int(items[j + 1])} "
                "overlap in a canonical node"
            )
        # Position 0 is a sentinel (node -1) so every probe lands on a
        # real array slot; it never matches a node check.
        self._keys = np.concatenate([[np.int64(-1) << 32], keys])
        self._items = np.concatenate([[-1], items])
        self._highs = np.concatenate([np.array([-1], dtype=highs.dtype), highs])
        # searchsorted(bounds, v, "right") -> heap index of v's leaf, or
        # 0 (a node no key carries) for values outside every segment.
        self._leaf_heap = np.zeros(len(bounds) + 1, dtype=np.int64)
        self._leaf_heap[1 : self._num_leaves + 1] = size + np.arange(
            self._num_leaves
        )
        # Only levels holding at least one node are probed; a level is
        # the right shift taking a leaf's heap index to its ancestor.
        depth = size.bit_length()
        levels = np.unique(depth - np.frexp(nodes.astype(np.float64))[1])
        # Root first: each row's keys then ascend, which numpy's
        # searchsorted exploits (it keeps the previous lower bound).
        self._shifts = levels[::-1].astype(np.int64)
        self._shift_list = self._shifts.tolist()
        # Node -> first key position (CSR offsets), for scalar probes.
        self._node_start = np.searchsorted(
            self._keys >> 32, np.arange(2 * size + 1)
        ).astype(np.int32)
        self.memory_slots = int(len(keys))

    def __len__(self) -> int:
        return self._count

    def __getstate__(self) -> dict:
        # The scalar path's cached memoryviews cannot be pickled or
        # copied; they are rebuilt on first use.
        state = dict(self.__dict__)
        state.pop("_views", None)
        return state

    def key_labels(self, per_item: np.ndarray) -> np.ndarray:
        """``per_item`` (one int64 per triple, in construction order)
        laid out in key order, for :meth:`locate`'s ``labels``."""
        per_item = np.asarray(per_item, dtype=np.int64)
        return np.concatenate([[-1], per_item[self._items[1:]]])

    def locate(
        self,
        values_a: np.ndarray,
        values_b: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Position (in construction order) of the unique triple containing
        each ``(values_a[j], values_b[j])``, or -1: one ``searchsorted``
        over every (query, tree level) pair.  With ``labels`` (from
        :meth:`key_labels`), the matched triple's label instead."""
        heap = self._leaf_heap[self._bounds.searchsorted(values_a, "right")]
        # Count of second-field lows <= q_b: the node's candidate is its
        # last key below (node << 32) + count.
        count = self._b_lows.searchsorted(values_b, "right")
        nodes = heap[:, None] >> self._shifts
        query = (nodes << 32) + count[:, None]
        pos = self._keys.searchsorted(query) - 1
        valid = (self._keys[pos] >> 32) == nodes
        valid &= self._highs[pos] >= values_b[:, None]
        found = (self._items if labels is None else labels)[pos]
        # At most one level holds the match (order independence).
        return np.where(valid, found, -1).max(axis=1, initial=-1)

    def lookup(self, value_a: int, value_b: int) -> Optional[T]:
        """Payload of the unique matching triple, or None.  The same
        arrays as :meth:`locate`, binary-searched per non-empty node of
        the path with :func:`bisect.bisect_left` through zero-copy
        memoryviews."""
        views = self.__dict__.get("_views")
        if views is None:
            views = self._views = tuple(
                memoryview(arr) if arr.dtype != object else arr
                for arr in (
                    self._bounds, self._b_lows, self._keys, self._highs,
                    self._node_start,
                )
            )
        bounds, b_lows, keys, highs, starts = views
        leaf = bisect.bisect_right(bounds, value_a) - 1
        count = bisect.bisect_right(b_lows, value_b)
        if leaf < 0 or leaf >= self._num_leaves or not count:
            return None
        heap = leaf + self._size
        for shift in self._shift_list:
            node = heap >> shift
            lo = starts[node]
            hi = starts[node + 1]
            if lo == hi:
                continue
            i = bisect.bisect_left(keys, (node << 32) + count, lo, hi) - 1
            if i >= lo and highs[i] >= value_b:
                return self._payloads[int(self._items[i])]
        return None
