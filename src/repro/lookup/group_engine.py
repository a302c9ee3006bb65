"""Multi-group software engine (Theorem 3).

Executes the lookup procedure of Figures 4-5: every group — order-
independent on at most l of the fields — is probed with the header's values
on *its own* field subset, returns at most one candidate rule, and the
candidate is checked on all remaining fields to rule out a false positive
(Theorem 2).  The highest-priority surviving candidate wins; the catch-all
backstops everything.

Each group is probed by one exact structure, fixed by its field count
(:func:`build_group_index`): binary search over disjoint intervals for
one field, the flat segment-tree index for two, and a vectorized scan
for more.

The ``shadow`` mechanism implements the Section 7.2 insertion trick
(Example 10): a freshly inserted rule that would need more fields/groups
can ride along as an extra false-positive check attached to the rules it
collides with, bounded by the line-rate budget C.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.mgr import Group
from ..core.classifier import Classifier, MatchResult
from ..core.intervals import Interval
from ..core.packet import headers_array
from ..runtime.telemetry import NULL_RECORDER
from .cascading import CascadingTwoFieldIndex
from .interval_map import DisjointIntervalMap
from .two_field import TwoFieldIndex, value_array

__all__ = ["GroupIndex", "LinearGroupIndex", "MultiGroupEngine", "build_group_index"]

#: Merge sentinel above every rule index ("no verified candidate").
_NONE = np.iinfo(np.int64).max


class GroupIndex:
    """Interface: probe a group with a header, get at most one candidate
    body-rule index (pre false-positive check).

    The lookup structures store **slots** (positions within the group's
    member list); the per-index ``rule_ids`` array translates a slot to
    its classifier rule index.  That indirection is what makes incremental
    rebuilds cheap: a priority shift re-labels rules with a new
    ``rule_ids`` array via :meth:`reindexed` (sharing the interval maps /
    segment trees untouched), and a removal tombstones its slot with -1
    without rebuilding the structure — sound because group members are
    pairwise disjoint on the group fields, so a dead slot's region has no
    other candidate in this group.
    """

    fields: Tuple[int, ...]
    #: slot -> classifier rule index; -1 marks a tombstoned (removed) slot.
    rule_ids: np.ndarray
    #: Name of the lookup structure (``interval``, ``segment`` or
    #: ``linear``).
    backend: str = "custom"
    #: Wall-clock seconds spent constructing this index (stamped by
    #: :func:`build_group_index`).
    build_seconds: float = 0.0

    def probe(self, header: Sequence[int]) -> Optional[int]:
        """Candidate rule index matching on the group fields, or None."""
        raise NotImplementedError

    def probe_batch(
        self, headers: Sequence[Sequence[int]], harr: np.ndarray
    ) -> np.ndarray:
        """Candidates for a whole batch: int64 array aligned with
        ``headers``, -1 where the group yields no candidate.  ``harr`` is
        the :func:`~repro.core.packet.headers_array` view of ``headers``."""
        raise NotImplementedError

    def reindexed(self, rule_ids: Sequence[int]) -> "GroupIndex":
        """Shallow copy sharing the lookup structure, with slots relabeled
        by ``rule_ids`` (length = slot count; -1 tombstones a slot).

        Derived per-label state is recomputed for the clone (via
        :meth:`_on_reindexed`), so the serving engine and a tombstone
        view never share anything mutable.
        """
        clone = copy.copy(self)
        clone.rule_ids = np.asarray(rule_ids, dtype=np.int64)
        if clone.rule_ids.shape != self.rule_ids.shape:
            raise ValueError(
                f"rule_ids must cover all {self.rule_ids.shape[0]} slots"
            )
        clone._on_reindexed()
        return clone

    def _on_reindexed(self) -> None:
        """Hook for subclasses holding state derived from ``rule_ids``:
        recompute it for the clone.  Default: nothing to derive."""

    def __len__(self) -> int:
        """Live (non-tombstoned) rules in the group."""
        return int((self.rule_ids >= 0).sum())

    def memory_items(self) -> int:
        """Stored scalars — the memory half of :meth:`backend_report`."""
        return int(self.rule_ids.size)

    def backend_report(self) -> Dict[str, object]:
        """Structure name, shape, memory and build cost of this index."""
        return {
            "backend": self.backend,
            "fields": list(self.fields),
            "slots": int(self.rule_ids.size),
            "live": len(self),
            "memory_items": self.memory_items(),
            "build_seconds": self.build_seconds,
        }

    def _translate(self, slot: Optional[int]) -> Optional[int]:
        if slot is None:
            return None
        rid = int(self.rule_ids[slot])
        return rid if rid >= 0 else None


class _OneFieldIndex(GroupIndex):
    backend = "interval"

    def __init__(self, classifier: Classifier, group: Group) -> None:
        self.fields = group.fields
        self.rule_ids = np.asarray(group.rule_indices, dtype=np.int64)
        (f,) = group.fields
        self._field = f
        self._map: DisjointIntervalMap[int] = DisjointIntervalMap(
            (classifier.rules[idx].intervals[f], slot)
            for slot, idx in enumerate(group.rule_indices)
        )
        lows, highs, slots = self._map.bounds()
        self._lows = value_array(lows)
        self._highs = value_array(highs)
        self._slots = np.asarray(slots, dtype=np.int64)

    def probe(self, header: Sequence[int]) -> Optional[int]:
        return self._translate(self._map.lookup(header[self._field]))

    def memory_items(self) -> int:
        return 2 * len(self._map) + int(self.rule_ids.size)

    def probe_batch(
        self, headers: Sequence[Sequence[int]], harr: np.ndarray
    ) -> np.ndarray:
        """Vectorized binary search: one ``searchsorted`` for the whole
        batch instead of B bisects."""
        if not len(self._slots):
            return np.full(len(headers), -1, dtype=np.int64)
        values = harr[:, self._field]
        pos = np.searchsorted(self._lows, values, side="right") - 1
        inside = pos >= 0
        clamped = np.where(inside, pos, 0)
        inside &= values <= self._highs[clamped]
        result = self.rule_ids[self._slots[clamped]]
        return np.where(inside & (result >= 0), result, np.int64(-1))


class _TwoFieldGroupIndex(GroupIndex):
    backend = "segment"

    def __init__(
        self, classifier: Classifier, group: Group, cascading: bool = False
    ) -> None:
        self.fields = group.fields
        self.rule_ids = np.asarray(group.rule_indices, dtype=np.int64)
        a, b = group.fields
        self._a = a
        self._b = b
        items = [
            (
                classifier.rules[idx].intervals[a],
                classifier.rules[idx].intervals[b],
                slot,
            )
            for slot, idx in enumerate(group.rule_indices)
        ]
        # The flat index serves batches; the cascaded variant, when
        # asked for, serves single-header probes in O(log N).
        self._flat = TwoFieldIndex(items)
        self._index = CascadingTwoFieldIndex(items) if cascading else self._flat
        self._on_reindexed()

    def _on_reindexed(self) -> None:
        # Rule ids in the flat index's key order: a batch probe reads
        # them directly (tombstones read -1).
        self._key_rules = self._flat.key_labels(self.rule_ids)

    def probe(self, header: Sequence[int]) -> Optional[int]:
        return self._translate(self._index.lookup(header[self._a], header[self._b]))

    def memory_items(self) -> int:
        slots = self._index.memory_slots
        return int(slots) + int(self.rule_ids.size)

    def probe_batch(
        self, headers: Sequence[Sequence[int]], harr: np.ndarray
    ) -> np.ndarray:
        """One flat-tree ``searchsorted`` for the whole batch."""
        return self._flat.locate(
            harr[:, self._a], harr[:, self._b], self._key_rules
        )


class LinearGroupIndex(GroupIndex):
    """Fallback for groups keyed on more than two fields: scan members,
    matching only the group fields.  Order-independence on those fields
    still guarantees at most one hit."""

    backend = "linear"

    def __init__(self, classifier: Classifier, group: Group) -> None:
        self.fields = group.fields
        self.rule_ids = np.asarray(group.rule_indices, dtype=np.int64)
        self._members: List[Tuple[int, Tuple[Interval, ...]]] = [
            (
                slot,
                tuple(classifier.rules[idx].intervals[f] for f in group.fields),
            )
            for slot, idx in enumerate(group.rule_indices)
        ]
        self._bounds: Optional[Tuple[np.ndarray, ...]] = None

    def memory_items(self) -> int:
        return 2 * len(self._members) * len(self.fields) + int(
            self.rule_ids.size
        )

    def probe(self, header: Sequence[int]) -> Optional[int]:
        """Linear scan over members, matching only the group fields."""
        values = [header[f] for f in self.fields]
        for slot, intervals in self._members:
            if all(iv.contains(v) for iv, v in zip(intervals, values)):
                return self._translate(slot)
        return None

    def probe_batch(
        self, headers: Sequence[Sequence[int]], harr: np.ndarray
    ) -> np.ndarray:
        """Vectorized scan: one containment test over the (B, M, f) cube.
        Order-independence on the group fields means at most one member
        matches, so 'first match' needs no tie-breaking."""
        if not self._members:
            return np.full(len(headers), -1, dtype=np.int64)
        if self._bounds is None:
            slots = np.asarray([m for m, _ in self._members], dtype=np.int64)
            lo = np.asarray(
                [[iv.low for iv in ivs] for _, ivs in self._members]
            )
            hi = np.asarray(
                [[iv.high for iv in ivs] for _, ivs in self._members]
            )
            self._bounds = (slots, lo, hi)
        slots, lo, hi = self._bounds
        cube = harr[:, None, self.fields]
        ok = ((lo <= cube) & (cube <= hi)).all(axis=2)
        # Tombstoned slots read -1 through rule_ids.
        found = self.rule_ids[slots][ok.argmax(axis=1)]
        return np.where(ok.any(axis=1), found, np.int64(-1))


def build_group_index(
    classifier: Classifier, group: Group, cascading: bool = False
) -> GroupIndex:
    """The lookup structure for ``group``, fixed by its field count:
    interval map (1 field), segment tree (2, with ``cascading`` adding
    the fractionally-cascaded variant for single-header probes), linear
    scan otherwise.  Stamps the build wall-clock on the index."""
    start = time.perf_counter()
    if len(group.fields) == 1:
        index: GroupIndex = _OneFieldIndex(classifier, group)
    elif len(group.fields) == 2:
        index = _TwoFieldGroupIndex(classifier, group, cascading)
    else:
        index = LinearGroupIndex(classifier, group)
    index.build_seconds = time.perf_counter() - start
    return index


@dataclass
class EngineStats:
    """Operational counters for experiments."""

    lookups: int = 0
    probes: int = 0
    candidates: int = 0
    false_positives: int = 0
    shadow_checks: int = 0


class MultiGroupEngine:
    """The software half of SAX-PAC: parallel (simulated) group lookups,
    false-positive verification, priority merge.

    Matches only rules placed in its groups; returns None for headers whose
    best match lives elsewhere (the order-dependent part D or the
    catch-all) so that a hybrid wrapper can merge results.
    """

    def __init__(
        self,
        classifier: Classifier,
        groups: Iterable[Group],
        shadow: Optional[Dict[int, Tuple[int, ...]]] = None,
        cascading: bool = False,
        recorder=None,
        prebuilt: Optional[Sequence[GroupIndex]] = None,
    ) -> None:
        self.classifier = classifier
        if prebuilt is not None:
            # Incremental rebuilds hand over already-constructed (possibly
            # reindexed / tombstoned) group indexes; ``groups`` is ignored.
            self.groups = list(prebuilt)
        else:
            self.groups = [
                build_group_index(classifier, g, cascading) for g in groups
            ]
        self.shadow: Dict[int, Tuple[int, ...]] = dict(shadow or {})
        self.stats = EngineStats()
        #: Telemetry sink (``groups.*`` counters, ``engine.group_probe``
        #: spans, per-group heat); the null recorder keeps it free.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: Stable per-group heat keys: position + field subset.
        self._group_keys = [
            f"g{i}[{','.join(str(f) for f in g.fields)}]"
            for i, g in enumerate(self.groups)
        ]

    @property
    def num_rules(self) -> int:
        """Total rules held across all group indexes."""
        return sum(len(g) for g in self.groups)

    def backend_summary(self) -> List[Dict[str, object]]:
        """Per-group structure reports (name, shape, memory, build
        cost), in group order."""
        return [g.backend_report() for g in self.groups]

    @property
    def shadow_load(self) -> int:
        """Worst-case extra false-positive checks on any candidate — must
        stay within the line-rate budget C (Section 7.2)."""
        if not self.shadow:
            return 0
        return max(len(v) for v in self.shadow.values())

    def lookup(self, header: Sequence[int]) -> Optional[int]:
        """Best (lowest) matching body-rule index across all groups, after
        false-positive checks, or None if no group rule truly matches."""
        self.stats.lookups += 1
        rules = self.classifier.rules
        best: Optional[int] = None
        for group in self.groups:
            self.stats.probes += 1
            candidate = group.probe(header)
            if candidate is None:
                continue
            self.stats.candidates += 1
            if rules[candidate].matches(header):
                if best is None or candidate < best:
                    best = candidate
            else:
                self.stats.false_positives += 1
            for extra in self.shadow.get(candidate, ()):
                self.stats.shadow_checks += 1
                if rules[extra].matches(header) and (best is None or extra < best):
                    best = extra
        return best

    def lookup_batch(
        self,
        headers: Sequence[Sequence[int]],
        harr: Optional[np.ndarray] = None,
        miss: int = -1,
    ) -> np.ndarray:
        """Batched :meth:`lookup`: best verified body-rule index per
        header (int64, ``miss`` where no group rule matches).

        Probes each group index once for the whole batch, then verifies
        every group's candidates on all fields in one vectorized
        containment test against :meth:`Classifier.bounds_arrays`, so the
        fixed per-call cost does not grow with the group count.  Stats
        are updated in aggregate; results are identical to per-header
        :meth:`lookup`.
        """
        n = len(headers)
        stats = self.stats
        stats.lookups += n
        if n == 0 or not self.groups:
            return np.full(n, miss, dtype=np.int64)
        recorder = self.recorder
        instrumented = recorder.enabled
        if harr is None:
            harr = headers_array(headers, self.classifier.schema)
        num_groups = len(self.groups)
        stats.probes += n * num_groups
        cand = np.empty((num_groups, n), dtype=np.int64)
        for gi, group in enumerate(self.groups):
            if instrumented:
                with recorder.span(
                    "engine.group_probe", group=self._group_keys[gi],
                    batch=n, backend=group.backend,
                ):
                    cand[gi] = group.probe_batch(headers, harr)
            else:
                cand[gi] = group.probe_batch(headers, harr)
        cand = cand.ravel()
        flat = np.flatnonzero(cand >= 0)
        stats.candidates += int(flat.size)
        # Groups hold disjoint rule sets and a lower index has priority:
        # the answer is the per-header minimum over verified candidates.
        # A miss above every body index (the catch-all) fills directly.
        fill = miss if miss >= len(self.classifier.rules) - 1 else _NONE
        merged = np.full(num_groups * n, fill)
        verified = np.zeros(0, dtype=bool)
        if flat.size:
            lows, highs = self.classifier.bounds_arrays()
            c = cand[flat]
            h = harr[flat % n]
            verified = ((lows[c] <= h) & (h <= highs[c])).all(axis=1)
            stats.false_positives += int(flat.size - verified.sum())
            merged[flat[verified]] = c[verified]
        best = merged.reshape(num_groups, n).min(axis=0)
        if fill != miss:
            best[best == fill] = miss
        if instrumented:
            self._record_batch(n, flat, verified)
        if self.shadow:
            self._shadow_batch(
                headers, cand.reshape(num_groups, n), best, miss
            )
        return best

    def _record_batch(self, n, flat, verified) -> None:
        """Per-group counters, per-structure counters and heat for one
        batch."""
        recorder = self.recorder
        heat = recorder.heat
        num_groups = len(self.groups)
        group_of = flat // n
        candidates = np.bincount(group_of, minlength=num_groups)
        hits = np.bincount(group_of[verified], minlength=num_groups)
        for gi, group in enumerate(self.groups):
            found = int(candidates[gi])
            verified_hits = int(hits[gi])
            fp_failures = found - verified_hits
            recorder.incr("groups.probes", n)
            if found:
                recorder.incr("groups.fp_checks", found)
            if fp_failures:
                recorder.incr("groups.fp_failures", fp_failures)
            recorder.incr(f"lookup.backend.{group.backend}.probes", n)
            if found:
                recorder.incr(
                    f"lookup.backend.{group.backend}.candidates", found
                )
            if heat is not None:
                heat.record_group(
                    self._group_keys[gi],
                    probes=n,
                    candidates=found,
                    fp_failures=fp_failures,
                    hits=verified_hits,
                )

    def _shadow_batch(self, headers, cand, best, miss) -> None:
        """Rare path (fresh dynamic inserts riding as extra checks): only
        headers whose candidate hosts shadows take the loop."""
        rules = self.classifier.rules
        shadow = self.shadow
        for row in cand:
            for j in np.nonzero(row >= 0)[0]:
                extras = shadow.get(int(row[j]))
                if not extras:
                    continue
                header = headers[j]
                for extra in extras:
                    self.stats.shadow_checks += 1
                    if rules[extra].matches(header) and (
                        best[j] == miss or extra < best[j]
                    ):
                        best[j] = extra

    def match(self, header: Sequence[int]) -> MatchResult:
        """Standalone semantics: group rules else the catch-all.  Only
        semantically complete when the engine holds *all* body rules (a
        fully order-independent classifier)."""
        index = self.lookup(header)
        if index is None:
            index = len(self.classifier.rules) - 1
        return MatchResult(index, self.classifier.rules[index])
