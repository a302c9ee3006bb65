"""Batched TCAM first-match as per-field bitsets.

A TCAM compares the search key against every row at once and a priority
encoder returns the first matching row.  The software model here keeps
that shape for a whole batch of headers: each field's value axis is cut
into *elementary intervals* (every rule low and ``high + 1`` is a cut),
and each elementary interval stores one bit per rule — set when the rule
covers it.  A lookup is one ``searchsorted`` per field, a gather of the
matching bitset rows, a bitwise AND across fields (the match lines), and
the lowest set bit (the priority encoder).  Rules are kept in priority
order, so bit ``j`` of word ``w`` is rule ``64·w + j``.

Memory is ``k`` tables of at most ``2M + 1`` rows of ``ceil(M / 64)``
words for ``M`` rules; fields wider than 62 bits keep their cuts as
Python-int object arrays, which ``searchsorted`` handles exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.classifier import splice_rows

__all__ = ["BitsetTcam"]

#: Bound on the boolean cover matrix materialized per build chunk.
_BUILD_CELLS = 1 << 22


def _field_table(lo: np.ndarray, hi: np.ndarray, words: int):
    """Cuts and bitset rows of one field.  Row ``t`` answers values ``v``
    with ``searchsorted(cuts, v, side="right") == t``; rows ``0`` and
    ``len(cuts)`` (outside every rule) stay empty.  One-word rows are
    kept 1-D."""
    cuts = np.unique(np.concatenate([lo, hi + 1]))
    # Rule j covers elementary interval e = t - 1 for t in (first, end].
    first = np.searchsorted(cuts, lo).astype(np.int64)
    end = np.searchsorted(cuts, hi + 1).astype(np.int64)
    rows = np.zeros((len(cuts) + 1, words), dtype="<u8")
    step = max(1, _BUILD_CELLS // max(1, len(lo)))
    for start in range(0, rows.shape[0], step):
        t = np.arange(start, min(start + step, rows.shape[0]))[:, None]
        cover = (t > first[None, :]) & (t <= end[None, :])
        packed = np.packbits(cover, axis=1, bitorder="little")
        padded = np.zeros((t.shape[0], words * 8), dtype=np.uint8)
        padded[:, : packed.shape[1]] = packed
        rows[start : start + t.shape[0]] = padded.view("<u8")
    return cuts, rows[:, 0].copy() if words == 1 else rows


class BitsetTcam:
    """First-match over ``M`` rules given as ``(M, k)`` bound matrices in
    priority order: :meth:`match` returns ``rule_ids[j]`` of the first
    covering rule per header, or ``miss`` — the row a TCAM programs last,
    such as the catch-all."""

    def __init__(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        rule_ids: Sequence[int],
        miss: int = -1,
    ) -> None:
        self.rule_ids = np.asarray(rule_ids, dtype=np.int64)
        if lows.shape != highs.shape or lows.shape[0] != len(self.rule_ids):
            raise ValueError("bounds and rule_ids disagree in shape")
        self.miss = miss
        # Bit position -> answer; a miss computes position -1.
        self._answers = np.append(self.rule_ids, np.int64(miss))
        self.words = max(1, -(-len(self.rule_ids) // 64))
        self._tables = [
            _field_table(lows[:, f], highs[:, f], self.words)
            for f in range(lows.shape[1])
        ] if len(self.rule_ids) else []

    @classmethod
    def from_classifier(cls, classifier, rule_indices: Sequence[int]):
        """The bitsets of ``classifier``'s body rules ``rule_indices``,
        missing to the catch-all."""
        ids = np.asarray(sorted(rule_indices), dtype=np.int64)
        lows, highs = classifier.bounds_arrays()
        return cls(lows[ids], highs[ids], ids, miss=len(classifier.rules) - 1)

    def updated(
        self,
        rule_ids: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        added_ids: Sequence[int],
        miss: int,
    ) -> "BitsetTcam":
        """A successor that shares nothing mutable with this one: bit
        ``j`` now answers ``rule_ids[j]`` (-1 clears the bit, its rule
        has left), and one bit per row of the ``(A, k)`` bounds
        ``lows``/``highs`` is appended at the lowest priority, answering
        ``added_ids`` (ascending, above every live id).

        Each field table is copied once, with its rows split at the
        appended rules' new cuts; no table is rebuilt from its rules."""
        ids = np.asarray(rule_ids, dtype=np.int64)
        if ids.shape != self.rule_ids.shape:
            raise ValueError("rule_ids must cover every bit position")
        added = np.asarray(added_ids, dtype=np.int64)
        if not self._tables:
            return BitsetTcam(lows, highs, added, miss=miss)
        clone = object.__new__(BitsetTcam)
        clone.miss = miss
        clone.rule_ids = np.concatenate([ids, added])
        clone._answers = np.append(clone.rule_ids, np.int64(miss))
        clone.words = max(1, -(-len(clone.rule_ids) // 64))
        cleared = [
            (bit // 64, ~(np.uint64(1) << np.uint64(bit % 64)))
            for bit in np.flatnonzero((self.rule_ids >= 0) & (ids < 0)).tolist()
        ]
        masks = [
            (bit // 64, np.uint64(1) << np.uint64(bit % 64))
            for bit in range(len(ids), len(clone.rule_ids))
        ]
        clone._tables = []
        for f, (cuts, rows) in enumerate(self._tables):
            if rows.ndim == 1:
                rows = rows[:, None]
            wanted = sorted(set(lows[:, f].tolist() + (highs[:, f] + 1).tolist()))
            at = cuts.searchsorted(wanted)
            fresh = [
                v for v, p in zip(wanted, at.tolist())
                if p == len(cuts) or cuts[p] != v
            ]
            if fresh:
                # Each new cut splits the old row it falls in: a copy of
                # that row goes in right after it.
                at = cuts.searchsorted(fresh)
                cuts = np.insert(cuts, at, fresh)
                rows = splice_rows(
                    rows, (), at + 1 + np.arange(len(at)), rows[at]
                )
            else:
                rows = rows.copy()
            for word, mask in cleared:
                rows[:, word] &= mask
            if clone.words == self.words:
                table = rows
            else:
                table = np.zeros((len(rows), clone.words), dtype="<u8")
                table[:, : self.words] = rows
            firsts = cuts.searchsorted(lows[:, f]).tolist()
            ends = cuts.searchsorted(highs[:, f] + 1).tolist()
            for (word, mask), first, end in zip(masks, firsts, ends):
                table[first + 1 : end + 1, word] |= mask
            clone._tables.append(
                (cuts, table.reshape(-1) if clone.words == 1 else table)
            )
        return clone

    def match(self, harr: np.ndarray) -> np.ndarray:
        """First matching rule id per row of the ``(B, k)`` header array
        (int64, :attr:`miss` where no rule matches)."""
        n = harr.shape[0]
        if not self._tables or n == 0:
            return np.full(n, self.miss, dtype=np.int64)
        acc = None
        for f, (cuts, rows) in enumerate(self._tables):
            hit = rows[cuts.searchsorted(harr[:, f], "right")]
            if acc is None:
                acc = hit
            else:
                acc &= hit
        if self.words == 1:
            word = 0
            bits = acc
        else:
            nonzero = acc != 0
            word = nonzero.argmax(axis=1)
            bits = acc[np.arange(n), word]
        # The lowest set bit is the priority encoder's answer.  A power
        # of two converts to float64 exactly and frexp reads its exponent
        # (bit position + 1); no bit set reads position -1, the miss.
        lowest = bits & -bits
        pos = word * 64 + np.frexp(lowest.astype(np.float64))[1] - 1
        return self._answers[pos]
