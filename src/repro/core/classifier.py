"""Classifiers: ordered rule lists with first-match semantics.

This is the reference ("ground truth") implementation of the model in
Section 2 of the paper: rules are applied sequentially, the earliest match
wins, and the last rule is a catch-all that transmits.  Every optimized
engine in :mod:`repro.saxpac` and :mod:`repro.lookup` is validated against
the linear scan performed here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .actions import Action, TRANSMIT
from .fields import FieldSchema, FieldSpec
from .intervals import Interval
from .packet import Header
from .rule import Rule, catch_all_rule

__all__ = ["Classifier", "MatchResult"]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of classifying one header: the winning rule and its priority
    (position; lower is higher priority)."""

    index: int
    rule: Rule

    @property
    def action(self) -> Action:
        """The winning rule's action."""
        return self.rule.action


class Classifier:
    """An ordered set of N rules over a schema, ending in a catch-all.

    The class is *immutable by convention*: methods return new classifiers.
    Priorities are positional — ``rules[0]`` is the highest priority and the
    catch-all sits at ``rules[-1]``.
    """

    def __init__(
        self,
        schema: FieldSchema,
        rules: Iterable[Rule],
        ensure_catch_all: bool = True,
        default_action: Action = TRANSMIT,
    ) -> None:
        self.schema = schema
        rule_list = list(rules)
        k = len(schema)
        limits = [spec.max_value for spec in schema]
        for i, rule in enumerate(rule_list):
            intervals = rule.intervals
            if len(intervals) != k:
                raise ValueError(
                    f"rule {i} has {len(intervals)} fields, "
                    f"schema expects {k}"
                )
            for f, limit in enumerate(limits):
                if intervals[f].high > limit:
                    spec = schema[f]
                    raise ValueError(
                        f"rule {i}: interval {intervals[f]} exceeds field "
                        f"{spec.name!r} ({spec.width} bits)"
                    )
        if ensure_catch_all:
            if not rule_list or not rule_list[-1].is_catch_all(schema):
                rule_list.append(catch_all_rule(schema, default_action))
        self.rules: Tuple[Rule, ...] = tuple(rule_list)
        self._bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._results: Optional[Tuple[MatchResult, ...]] = None

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __getitem__(self, index: int) -> Rule:
        return self.rules[index]

    @property
    def num_fields(self) -> int:
        """Number of fields in the schema."""
        return len(self.schema)

    @property
    def body(self) -> Tuple[Rule, ...]:
        """All rules except the final catch-all."""
        return self.rules[:-1]

    @property
    def catch_all(self) -> Rule:
        """The mandatory final wildcard rule."""
        return self.rules[-1]

    # ------------------------------------------------------------------
    # Reference semantics
    # ------------------------------------------------------------------
    def match(self, header: Sequence[int]) -> MatchResult:
        """First-match linear scan — the semantic ground truth."""
        for i, rule in enumerate(self.rules):
            if rule.matches(header):
                return MatchResult(i, rule)
        raise AssertionError("catch-all rule failed to match")  # pragma: no cover

    def results_of(self, indices) -> List[MatchResult]:
        """The :class:`MatchResult` of each rule index in ``indices`` (ints
        or an integer ndarray), in order.  A result is an immutable
        (index, rule) value, so batch paths share one per rule instead of
        allocating one per packet."""
        if self._results is None:
            self._results = tuple(
                MatchResult(i, rule) for i, rule in enumerate(self.rules)
            )
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()
        results = self._results
        return [results[i] for i in indices]

    def match_batch(
        self, headers: Iterable[Sequence[int]]
    ) -> List[MatchResult]:
        """Naive batched reference: one linear-scan :meth:`match` per
        header, results in input order.  Ground truth for the optimized
        batch paths in :mod:`repro.runtime`."""
        return [self.match(header) for header in headers]

    def classify(self, header: Sequence[int]) -> Action:
        """Action of the highest-priority matching rule."""
        return self.match(header).action

    # ------------------------------------------------------------------
    # Field surgery (classifier-level Theorems 1 and 2)
    # ------------------------------------------------------------------
    def restrict(self, indices: Sequence[int]) -> "Classifier":
        """The classifier ``K(S)`` keeping only the fields at ``indices``."""
        schema = self.schema.keep(indices)
        return Classifier(
            schema,
            (r.restrict(indices) for r in self.rules),
            ensure_catch_all=False,
        )

    def drop_fields(self, indices: Sequence[int]) -> "Classifier":
        """The classifier ``K^-F`` with the fields at ``indices`` removed."""
        kept = [i for i in range(self.num_fields) if i not in set(indices)]
        return self.restrict(kept)

    def extend(
        self,
        extra_specs: Sequence[FieldSpec],
        extra_intervals: Sequence[Sequence[Interval]],
    ) -> "Classifier":
        """The classifier ``K^+F`` with new fields appended to every rule
        (Theorem 1).  ``extra_intervals[j]`` holds the new ranges of rule j;
        the catch-all automatically receives wildcards."""
        if len(extra_intervals) not in (len(self.rules), len(self.body)):
            raise ValueError(
                f"need intervals for {len(self.body)} body rules "
                f"(or all {len(self.rules)}), got {len(extra_intervals)}"
            )
        schema = self.schema.extend(extra_specs)
        new_rules: List[Rule] = []
        for j, rule in enumerate(self.body):
            new_rules.append(rule.extend(extra_intervals[j]))
        return Classifier(schema, new_rules, ensure_catch_all=True,
                          default_action=self.catch_all.action)

    def subset(self, indices: Sequence[int]) -> "Classifier":
        """A classifier made of the body rules at ``indices`` (original
        relative order preserved) plus the original catch-all.

        The catch-all is appended explicitly so a full-wildcard *body*
        rule among the selection keeps its body status (and its index
        accounting) instead of being absorbed as the catch-all."""
        body = [self.rules[i] for i in indices]
        return Classifier(
            self.schema,
            body + [self.catch_all],
            ensure_catch_all=False,
        )

    def without(self, indices: Sequence[int]) -> "Classifier":
        """A classifier with the body rules at ``indices`` removed."""
        dropped = set(indices)
        kept = [i for i in range(len(self.body)) if i not in dropped]
        return self.subset(kept)

    # ------------------------------------------------------------------
    # Vectorized views (used by the analysis package)
    # ------------------------------------------------------------------
    def bounds_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(lows, highs)``: two ``(N, k)`` arrays over the *body*
        rules.  int64 normally; Python-object arrays when any field is too
        wide for int64 (e.g. 128-bit IPv6 prefixes).  Cached; treat as
        read-only."""
        if self._bounds is None:
            self._set_bounds(*self._rule_bounds(self.body))
        return self._bounds

    def carry_bounds(
        self, previous: "Classifier", previous_to_self: np.ndarray
    ) -> None:
        """Seed the :meth:`bounds_arrays` cache from ``previous``'s, for a
        classifier that shares most of its rules with it:
        ``previous_to_self[i]`` is this classifier's body index of
        ``previous``'s body rule ``i`` (-1 when it is gone).  Rows no
        previous rule maps to are derived from their rules.  A schema
        mismatch or an already cached matrix leaves the cache alone."""
        if self._bounds is not None or previous.schema != self.schema:
            return
        old_lows, old_highs = previous.bounds_arrays()
        mapping = np.asarray(previous_to_self)[: len(previous.body)]
        src = np.flatnonzero(mapping >= 0)
        dst = mapping[src]
        shape = (len(self.body), self.num_fields)
        lows = np.empty(shape, dtype=old_lows.dtype)
        highs = np.empty(shape, dtype=old_highs.dtype)
        lows[dst] = old_lows[src]
        highs[dst] = old_highs[src]
        rows = np.setdiff1d(np.arange(shape[0]), dst)
        if rows.size:
            body = self.body
            lows[rows], highs[rows] = self._rule_bounds(
                [body[j] for j in rows.tolist()]
            )
        self._set_bounds(lows, highs)

    def _rule_bounds(
        self, rules: Sequence[Rule]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(lows, highs)`` of ``rules``, one row per rule."""
        wide = any(spec.width > 62 for spec in self.schema)
        dtype = object if wide else np.int64
        k = self.num_fields
        intervals = [iv for rule in rules for iv in rule.intervals]
        lows = np.array([iv.low for iv in intervals], dtype=dtype)
        highs = np.array([iv.high for iv in intervals], dtype=dtype)
        return lows.reshape(-1, k), highs.reshape(-1, k)

    def _set_bounds(self, lows: np.ndarray, highs: np.ndarray) -> None:
        lows.setflags(write=False)
        highs.setflags(write=False)
        self._bounds = (lows, highs)

    # ------------------------------------------------------------------
    # Equivalence testing
    # ------------------------------------------------------------------
    def equivalent_on(
        self, other_match, headers: Iterable[Sequence[int]]
    ) -> bool:
        """Check that ``other_match(header)`` returns the same *rule* this
        classifier matches, for every header in ``headers``.

        ``other_match`` is any callable returning a :class:`Rule` (or an
        object with a ``rule`` attribute).  Used by tests to validate
        engines against the linear scan.
        """
        for header in headers:
            expected = self.match(header).rule
            got = other_match(header)
            got_rule = getattr(got, "rule", got)
            if got_rule is not expected and got_rule != expected:
                return False
        return True

    def sample_headers(
        self, count: int, rng: random.Random, hit_bias: float = 0.5
    ) -> List[Header]:
        """Random headers for equivalence testing: with probability
        ``hit_bias`` sample a point inside a random rule (so specific rules
        actually get exercised), else uniform over the whole space."""
        headers: List[Header] = []
        body = self.body or self.rules
        for _ in range(count):
            if body and rng.random() < hit_bias:
                rule = rng.choice(body)
                headers.append(
                    tuple(rng.randint(iv.low, iv.high) for iv in rule.intervals)
                )
            else:
                headers.append(
                    tuple(rng.randint(0, s.max_value) for s in self.schema)
                )
        return headers

    def all_headers(self) -> Iterator[Header]:
        """Exhaustive header enumeration — only sensible for tiny schemas
        in tests."""
        spaces = [range(spec.max_value + 1) for spec in self.schema]
        return iter(itertools.product(*spaces))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Classifier({len(self.body)} rules + catch-all, "
            f"{self.num_fields} fields, {self.schema.total_width} bits)"
        )
