"""Static segment tree over coordinate-compressed intervals.

The bucket form of the two-field structure (the fractionally cascaded
variant builds on it; :class:`~repro.lookup.two_field.TwoFieldIndex` keeps
the same tree as flat arrays): rules are stabbed into the
O(log N) canonical nodes covering their first-field interval, and a point
query visits exactly the root-to-leaf path of nodes whose span contains the
query value.  Memory is O(N log N) node-slots; with N rules each stored in
at most 2 log N nodes, the structure is linear in N up to the logarithmic
factor the paper's two-field scheme also carries.
"""

from __future__ import annotations

from typing import Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

from ..core.intervals import Interval

__all__ = ["SegmentTree"]

T = TypeVar("T")


class SegmentTree(Generic[T]):
    """Segment tree with payload lists at canonical nodes.

    Build once from the interval population (for coordinate compression),
    then :meth:`insert` each (interval, payload) and answer :meth:`stab`
    queries — iterating the payload lists of every node on the query path.
    """

    def __init__(self, intervals: Iterable[Interval]) -> None:
        # Elementary boundaries: every low and high+1 becomes a cut so each
        # inserted interval is an exact union of elementary segments.
        cuts = set()
        for interval in intervals:
            cuts.add(interval.low)
            cuts.add(interval.high + 1)
        if not cuts:
            cuts = {0, 1}
        self._bounds: List[int] = sorted(cuts)
        # Elementary segment i spans [bounds[i], bounds[i+1] - 1]; add
        # sentinel segments for values outside every interval.
        self._num_leaves = max(1, len(self._bounds) - 1)
        size = 1
        while size < self._num_leaves:
            size *= 2
        self._size = size
        self._nodes: List[Optional[List[Tuple[Interval, T]]]] = [None] * (2 * size)

    # ------------------------------------------------------------------
    # Coordinate helpers
    # ------------------------------------------------------------------
    def _leaf_of(self, value: int) -> Optional[int]:
        """Elementary segment index containing ``value``, or None if the
        value falls outside all segments."""
        import bisect

        i = bisect.bisect_right(self._bounds, value) - 1
        if i < 0 or i >= self._num_leaves:
            return None
        return i

    def _leaf_range(self, interval: Interval) -> Tuple[int, int]:
        """[first, last] elementary segment indices of an inserted interval
        (must align with the compression cuts)."""
        import bisect

        first = bisect.bisect_left(self._bounds, interval.low)
        last = bisect.bisect_left(self._bounds, interval.high + 1) - 1
        if (
            first >= len(self._bounds)
            or self._bounds[first] != interval.low
            or last + 1 >= len(self._bounds)
            or self._bounds[last + 1] != interval.high + 1
        ):
            raise ValueError(
                f"interval {interval} was not part of the compression set"
            )
        return first, last

    # ------------------------------------------------------------------
    # Insertion and query
    # ------------------------------------------------------------------
    def insert(self, interval: Interval, payload: T) -> int:
        """Store ``payload`` at the canonical nodes covering ``interval``.
        Returns the number of nodes used (at most ~2 log N)."""
        first, last = self._leaf_range(interval)
        used = 0
        lo = first + self._size
        hi = last + self._size
        while lo <= hi:
            if lo & 1:
                used += self._attach(lo, interval, payload)
                lo += 1
            if not hi & 1:
                used += self._attach(hi, interval, payload)
                hi -= 1
            lo //= 2
            hi //= 2
        return used

    def _attach(self, node: int, interval: Interval, payload: T) -> int:
        bucket = self._nodes[node]
        if bucket is None:
            bucket = []
            self._nodes[node] = bucket
        bucket.append((interval, payload))
        return 1

    def stab(self, value: int) -> Iterator[Tuple[Interval, T]]:
        """Yield every (interval, payload) whose interval contains
        ``value`` — all buckets on the root-to-leaf path."""
        leaf = self._leaf_of(value)
        if leaf is None:
            return
        node = leaf + self._size
        while node >= 1:
            bucket = self._nodes[node]
            if bucket:
                yield from bucket
            node //= 2

    @property
    def num_slots(self) -> int:
        """Total stored (interval, payload) slots — the memory figure."""
        return sum(len(b) for b in self._nodes if b)
