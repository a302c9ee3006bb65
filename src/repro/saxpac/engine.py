"""The hybrid SAX-PAC engine: software groups + TCAM remainder.

Build pipeline (Sections 4 and 8):

1. **I-selection** — greedy maximal order-independent subset on all k
   fields, scanned in priority order so that I holds the highest-priority
   rules possible.
2. **Grouping** — (β,l)-MRC on I: groups order-independent on at most l
   fields each (l = 2 by default, giving the linear-memory, logarithmic
   lookup structures of :mod:`repro.lookup`).  Spill-over and undersized
   groups fold into the order-dependent part D.
3. **Optional MRCC** — demote I rules that intersect higher-priority D
   rules so an I match can preempt the (power-hungry) D lookup entirely.
4. **Programming** — D expands into the TCAM simulator at full width.

Lookup issues the group probes and the D probe "in parallel" (simulated
sequentially), false-positive-checks the single candidate per group, and
returns the highest-priority survivor — exactly the dataflow of Figure 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.mgr import Group, MGRResult, enforce_cache_property, l_mgr
from ..analysis.mrc import greedy_independent_set
from ..chaos.injector import NULL_INJECTOR
from ..core.actions import Action
from ..core.classifier import Classifier, MatchResult
from ..core.packet import headers_array
from ..lookup.group_engine import (
    GroupIndex,
    MultiGroupEngine,
    build_group_index,
)
from ..runtime.telemetry import NULL_RECORDER
from ..tcam.encoding import BinaryRangeEncoder, RangeEncoder
from ..tcam.bitset import BitsetTcam
from ..tcam.tcam import build_tcam
from .config import EngineConfig

__all__ = ["SaxPacEngine", "EngineReport"]


@dataclass(frozen=True)
class EngineReport:
    """Structural summary of a built engine — the headline numbers of the
    evaluation (what fraction of rules escaped the TCAM, and how big the
    remaining TCAM is compared to a TCAM-only deployment)."""

    total_rules: int
    software_rules: int
    tcam_rules: int
    num_groups: int
    group_fields: Tuple[Tuple[int, ...], ...]
    tcam_entries: int
    tcam_entries_full: int
    #: Wall-clock seconds of the (latest) build or rebuild.  Timing fields
    #: are measurements, not structure — they stay out of equality so two
    #: builds of the same classifier compare equal.
    build_seconds: float = field(default=0.0, compare=False)
    #: Per-stage build breakdown, in execution order.
    build_stages: Tuple[Tuple[str, float], ...] = field(
        default=(), compare=False
    )
    #: True when this engine came from :meth:`SaxPacEngine.rebuild` reusing
    #: prior structures rather than a from-scratch compile.
    build_incremental: bool = field(default=False, compare=False)
    #: Lookup structure serving each group, in group order (``interval``,
    #: ``segment`` or ``linear``).  Like the timing fields it stays out
    #: of equality: it is an implementation detail, not structure.
    group_backends: Tuple[str, ...] = field(default=(), compare=False)

    @property
    def software_fraction(self) -> float:
        """Share of body rules served by the software groups."""
        if self.total_rules == 0:
            return 1.0
        return self.software_rules / self.total_rules

    @property
    def tcam_saving(self) -> float:
        """1 - (hybrid TCAM entries / all-TCAM entries)."""
        if self.tcam_entries_full == 0:
            return 0.0
        return 1.0 - self.tcam_entries / self.tcam_entries_full

    def is_sane(self) -> bool:
        """Structural invariants every honest report satisfies; a False
        here means the report is corrupt (a chaos plan can force this via
        the ``engine.report`` site) and must not be trusted or exported."""
        return (
            self.total_rules >= 0
            and self.software_rules >= 0
            and self.tcam_rules >= 0
            and self.num_groups >= 0
            and self.tcam_entries >= 0
            and self.tcam_entries_full >= 0
            and self.software_rules + self.tcam_rules == self.total_rules
            and len(self.group_fields) == self.num_groups
        )


class _BuildStage:
    """Times one build stage and reports it to telemetry: appends
    ``(name, seconds)`` to the shared list, emits an
    ``engine.build.<name>`` observation, and nests an
    ``engine.build.<name>`` span when tracing is enabled."""

    __slots__ = ("_name", "_stages", "_recorder", "_span", "_start")

    def __init__(self, name, stages, recorder) -> None:
        self._name = name
        self._stages = stages
        self._recorder = recorder
        self._span = None
        self._start = 0.0

    def __enter__(self) -> "_BuildStage":
        if self._recorder.enabled:
            self._span = self._recorder.span(f"engine.build.{self._name}")
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        self._stages.append((self._name, elapsed))
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
            self._span = None
        if self._recorder.enabled and exc_type is None:
            self._recorder.observe(f"engine.build.{self._name}", elapsed)


class SaxPacEngine:
    """Semantically equivalent drop-in for first-match classification."""

    def __init__(
        self,
        classifier: Classifier,
        config: Optional[EngineConfig] = None,
        encoder: Optional[RangeEncoder] = None,
        recorder=None,
        injector=None,
    ) -> None:
        self.classifier = classifier
        self.config = config or EngineConfig()
        self.encoder = encoder or BinaryRangeEncoder()
        #: Telemetry sink (:mod:`repro.runtime.telemetry`); the default
        #: null recorder keeps the hot path free of instrumentation cost.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: Chaos hook (:mod:`repro.chaos`); the default null injector is
        #: a no-op, so production lookups pay one attribute load.
        self.injector = injector if injector is not None else NULL_INJECTOR
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _stage(self, name: str, stages: List[Tuple[str, float]]):
        """Context manager timing one build stage: appends ``(name,
        seconds)`` to ``stages``, mirrors it to the telemetry recorder and
        opens an ``engine.build.<name>`` span when tracing is on."""
        return _BuildStage(name, stages, self.recorder)

    def _build(self) -> None:
        cfg = self.config
        classifier = self.classifier
        stages: List[Tuple[str, float]] = []
        with self._stage("disjointness", stages):
            independent = greedy_independent_set(classifier)
        with self._stage("grouping", stages):
            grouping = l_mgr(
                classifier,
                l=min(cfg.max_group_fields, classifier.num_fields),
                beta=cfg.max_groups,
                rule_subset=independent.rule_indices,
            )
            # Rules that never made it into I also belong to D.
            spill = set(grouping.ungrouped)
            spill.update(independent.complement(len(classifier.body)))
            # Fold undersized groups into D (Example 5's practical advice).
            kept_groups: List[Group] = []
            for group in grouping.groups:
                if group.size < cfg.min_group_size:
                    spill.update(group.rule_indices)
                else:
                    kept_groups.append(group)
            grouping = MGRResult(
                tuple(kept_groups), tuple(sorted(spill)), grouping.l
            )
            if cfg.enforce_cache:
                grouping = enforce_cache_property(classifier, grouping)
        self._compile(grouping, stages)

    def _compile(
        self, grouping: MGRResult, stages: List[Tuple[str, float]]
    ) -> None:
        """Lookup structures for a decomposition: one index per group,
        then D programmed into the TCAM and its bitsets."""
        cfg = self.config
        classifier = self.classifier
        self.grouping = grouping
        with self._stage("lookup", stages):
            self.software = MultiGroupEngine(
                classifier,
                grouping.groups,
                cascading=cfg.use_cascading,
                recorder=self.recorder,
            )
        self._d_indices: Tuple[int, ...] = grouping.ungrouped
        with self._stage("tcam", stages):
            self._tcam, self._tcam_view = build_tcam(
                classifier,
                encoder=self.encoder,
                rule_indices=self._d_indices,
                capacity=cfg.d_capacity,
            )
            self._d_bits = BitsetTcam.from_classifier(
                classifier, self._d_indices
            )
        self.d_lookups_skipped = 0
        self.build_stages: Tuple[Tuple[str, float], ...] = tuple(stages)
        self.build_seconds: float = sum(dt for _, dt in stages)
        self.build_incremental: bool = False

    @classmethod
    def from_decomposition(
        cls,
        classifier: Classifier,
        config: Optional[EngineConfig],
        groups: Sequence[Group],
        d_indices: Sequence[int],
        recorder=None,
        injector=None,
    ) -> "SaxPacEngine":
        """An engine serving a decomposition computed by another engine
        over the same rules (``groups`` and the D indices, as
        :meth:`decomposition` returns them).  Skips the
        disjointness and grouping stages — shared-memory shard workers
        compile a snapshot this way — and answers exactly like any
        engine over ``classifier``."""
        self = cls.__new__(cls)
        self.classifier = classifier
        self.config = config or EngineConfig()
        self.encoder = BinaryRangeEncoder()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.injector = injector if injector is not None else NULL_INJECTOR
        l = min(self.config.max_group_fields, classifier.num_fields)
        grouping = MGRResult(tuple(groups), tuple(sorted(d_indices)), l)
        self._compile(grouping, [])
        return self

    def decomposition(self) -> Tuple[Tuple[Group, ...], Tuple[int, ...]]:
        """``(groups, d_indices)``: live group members and fields and the
        order-dependent part — what :meth:`from_decomposition` needs."""
        return self.grouping.groups, self._d_indices

    # ------------------------------------------------------------------
    # Incremental rebuild
    # ------------------------------------------------------------------
    #: Fraction of (tombstoned + added) rules beyond which an incremental
    #: rebuild stops paying off and :meth:`rebuild` compiles from scratch.
    STALENESS_LIMIT = 0.25

    #: Delta groups of fewer rules go to D.  Every group costs a probe of
    #: each batch whatever its size, while a D rule costs one more bit in
    #: D's per-field bitsets: on acl-5k (2-vCPU host) a one-rule group
    #: added ~75 µs to a 512-packet batch and a D rule ~1 µs, so one-rule
    #: groups from hot inserts made reads ~19x slower after 180 inserts.
    DELTA_MIN_GROUP_SIZE = 16

    def rebuild(self, new_classifier: Classifier) -> "SaxPacEngine":
        """A new engine for ``new_classifier``, reusing this engine's
        structures where the rule set did not change.

        Rules are diffed by **object identity** (snapshot flows such as
        :class:`~repro.runtime.swap.HotSwapRuntime` and
        :class:`~repro.saxpac.updates.DynamicSaxPac` reuse ``Rule``
        instances across versions).  Carried rules keep their group slots —
        priority shifts only relabel the per-group ``rule_ids`` arrays;
        removed rules tombstone their slots (sound because members are
        pairwise disjoint on the group fields); added rules are grouped
        among themselves with the same l-MGR admission and become new
        groups, or go to D when ungrouped or in a group of fewer than
        :data:`DELTA_MIN_GROUP_SIZE` rules.  D re-encodes through a
        ternary-pattern cache so only rules new to D pay range expansion.

        The serving engine is never mutated — shared structures are reused
        read-only, so an RCU-style swap can retire it safely.  Falls back
        to a from-scratch build when the diff cannot be trusted (duplicate
        rule objects, schema change, MRCC mode) or when accumulated churn
        exceeds :data:`STALENESS_LIMIT`.  Semantics always match a full
        build; the grouping *shape* may differ (delta groups).
        """
        cfg = self.config
        stages: List[Tuple[str, float]] = []
        with self._stage("diff", stages):
            plan = self._diff(new_classifier)
            if plan is not None:
                # Carried rows come from this engine's bounds matrix;
                # only the added rules are derived.
                new_classifier.carry_bounds(self.classifier, plan[0])
        if plan is None:
            return SaxPacEngine(
                new_classifier, cfg, self.encoder, self.recorder,
                injector=self.injector,
            )
        old_to_new, added = plan
        with self._stage("grouping", stages):
            l = min(cfg.max_group_fields, new_classifier.num_fields)
            #: (old index, relabeled rule_ids) per carried group.
            carried: List[Tuple[GroupIndex, np.ndarray]] = []
            for index in self.software.groups:
                ids = index.rule_ids
                mapped = np.where(
                    ids >= 0, old_to_new[np.maximum(ids, 0)], np.int64(-1)
                )
                if (mapped >= 0).any():
                    carried.append((index, mapped))
            spill: set = set()
            delta_groups: List[Group] = []
            if added:
                if cfg.max_groups is not None:
                    budget = cfg.max_groups - len(carried)
                    delta = (
                        l_mgr(new_classifier, l, beta=budget, rule_subset=added)
                        if budget > 0
                        else MGRResult((), tuple(added), l)
                    )
                else:
                    delta = l_mgr(new_classifier, l, rule_subset=added)
                spill.update(delta.ungrouped)
                min_size = max(cfg.min_group_size, self.DELTA_MIN_GROUP_SIZE)
                for group in delta.groups:
                    if group.size < min_size:
                        spill.update(group.rule_indices)
                    else:
                        delta_groups.append(group)
        with self._stage("lookup", stages):
            indexes = [index.reindexed(mapped) for index, mapped in carried]
            indexes.extend(
                build_group_index(new_classifier, g, cfg.use_cascading)
                for g in delta_groups
            )
            software = MultiGroupEngine(
                new_classifier,
                (),
                cascading=cfg.use_cascading,
                recorder=self.recorder,
                prebuilt=indexes,
            )
        carried_d = [
            int(old_to_new[i]) for i in self._d_indices if old_to_new[i] >= 0
        ]
        d_indices = tuple(sorted(set(carried_d) | spill))
        with self._stage("tcam", stages):
            cache: dict = {}
            per_index: dict = {}
            for record in self._tcam.rows:
                per_index.setdefault(record.rule_index, (record.rule, []))[
                    1
                ].append(record.entry)
            for rule, entries in per_index.values():
                cache[rule] = tuple(entries)
            tcam, tcam_view = build_tcam(
                new_classifier,
                encoder=self.encoder,
                rule_indices=d_indices,
                capacity=cfg.d_capacity,
                pattern_cache=cache,
            )
            d_bits = BitsetTcam.from_classifier(new_classifier, d_indices)
        groups = tuple(
            Group(
                rule_indices=tuple(
                    int(r) for r in index.rule_ids if r >= 0
                ),
                fields=index.fields,
            )
            for index in indexes
        )
        grouping = MGRResult(groups, d_indices, l)
        return SaxPacEngine._from_parts(
            new_classifier,
            cfg,
            self.encoder,
            self.recorder,
            grouping=grouping,
            software=software,
            d_indices=d_indices,
            tcam=tcam,
            tcam_view=tcam_view,
            d_bits=d_bits,
            stages=tuple(stages),
            injector=self.injector,
        )

    def _diff(
        self, new_classifier: Classifier
    ) -> Optional[Tuple[np.ndarray, List[int]]]:
        """Identity diff against ``new_classifier``: the old-index → new-
        index map (-1 for removed) and the list of new body indices.  None
        when the incremental path is not applicable."""
        if self.config.enforce_cache:
            # MRCC demotions depend on global priorities; localized
            # re-admission cannot preserve the cache property.
            return None
        if new_classifier.schema != self.classifier.schema:
            return None
        old_body = self.classifier.body
        new_body = new_classifier.body
        old_ids = {id(rule): i for i, rule in enumerate(old_body)}
        if len(old_ids) != len(old_body):
            return None
        if len({id(rule) for rule in new_body}) != len(new_body):
            return None
        old_to_new = np.full(max(len(old_body), 1), -1, dtype=np.int64)
        added: List[int] = []
        carried = 0
        for j, rule in enumerate(new_body):
            i = old_ids.get(id(rule))
            if i is None:
                added.append(j)
            else:
                old_to_new[i] = j
                carried += 1
        removed = len(old_body) - carried
        tombstones = sum(
            int((index.rule_ids < 0).sum()) for index in self.software.groups
        )
        churn = removed + tombstones + len(added)
        if churn > self.STALENESS_LIMIT * max(1, len(new_body)):
            return None
        return old_to_new, added

    @classmethod
    def _from_parts(
        cls,
        classifier: Classifier,
        config: EngineConfig,
        encoder: RangeEncoder,
        recorder,
        *,
        grouping: MGRResult,
        software: MultiGroupEngine,
        d_indices: Tuple[int, ...],
        tcam,
        tcam_view,
        d_bits: BitsetTcam,
        stages: Tuple[Tuple[str, float], ...],
        injector=None,
    ) -> "SaxPacEngine":
        self = cls.__new__(cls)
        self.classifier = classifier
        self.config = config
        self.encoder = encoder
        self.recorder = recorder
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.grouping = grouping
        self.software = software
        self._d_indices = d_indices
        self._tcam = tcam
        self._tcam_view = tcam_view
        self._d_bits = d_bits
        self.d_lookups_skipped = 0
        self.build_stages = stages
        self.build_seconds = sum(dt for _, dt in stages)
        self.build_incremental = True
        return self

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def match(self, header: Sequence[int]) -> MatchResult:
        """Highest-priority match across the software part, the TCAM part
        and the catch-all."""
        if self.injector.enabled:
            self.injector.fire("engine.lookup", batch=1)
        recorder = self.recorder
        if recorder.enabled:
            start = time.perf_counter()
        software_best = self.software.lookup(header)
        skip_d = (
            software_best is not None and self.config.enforce_cache
        )
        if skip_d:
            # MRCC guarantees no higher-priority D rule can also match.
            self.d_lookups_skipped += 1
            tcam_best: Optional[int] = None
        else:
            tcam_best = self._tcam_view.match_index(header)
        candidates = [c for c in (software_best, tcam_best) if c is not None]
        index = min(candidates) if candidates else len(self.classifier.rules) - 1
        if recorder.enabled:
            recorder.incr("engine.lookups")
            recorder.incr("engine.group_probes", len(self.software.groups))
            if software_best is not None:
                recorder.incr("engine.software_hits")
            recorder.incr(
                "engine.d_skipped" if skip_d else "engine.d_probes"
            )
            if tcam_best is not None:
                recorder.incr("engine.tcam_hits")
            recorder.observe("engine.match", time.perf_counter() - start)
            heat = recorder.heat
            if heat is not None:
                heat.record_rules((index,))
                if tcam_best is not None and tcam_best == index:
                    heat.record_group("d", probes=1, hits=1)
                elif not skip_d:
                    heat.record_group("d", probes=1)
        return MatchResult(index, self.classifier.rules[index])

    def match_batch(
        self, headers: Sequence[Sequence[int]]
    ) -> List[MatchResult]:
        """Batched :meth:`match`: identical results, amortized cost.

        Each group index is probed once for the whole batch, candidate
        verification runs as one containment test, and the order-dependent
        part D is matched by its per-field bitsets
        (:class:`~repro.tcam.bitset.BitsetTcam`, the batch model of the
        TCAM's parallel first-match) instead of the row-at-a-time TCAM
        walk.  TCAM lookup/activation counters advance in aggregate so
        power-proxy experiments stay comparable.
        """
        return self.classifier.results_of(self.match_batch_indices(headers))

    def match_batch_indices(
        self, headers: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """The index core of :meth:`match_batch`: winning rule index per
        header as an int64 ndarray, no :class:`MatchResult`
        materialization.  This is the form shared-memory shard workers
        write straight into result slabs (:mod:`repro.runtime.shm`) and
        the wire path encodes without touching rule objects."""
        n = len(headers)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if self.injector.enabled:
            # The slow-lookup / lookup-crash chaos site: fires before any
            # state is touched, so an injected exception leaves the
            # engine consistent for the caller's retry or fallback.
            self.injector.fire("engine.lookup", batch=n)
        recorder = self.recorder
        span = None
        if recorder.enabled:
            start = time.perf_counter()
            span = recorder.span("engine.match_batch", batch=n)
            span.__enter__()
        rules = self.classifier.rules
        catch_all = len(rules) - 1
        harr = headers_array(headers, self.classifier.schema)
        best = self.software.lookup_batch(headers, harr, miss=catch_all)
        if recorder.enabled:
            software_hits = int((best < catch_all).sum())
        need_d = None
        probed = n
        if self.config.enforce_cache:
            # MRCC: a software hit outranks every D rule that matches.
            need_d = np.flatnonzero(best == catch_all)
            probed = len(need_d)
            self.d_lookups_skipped += n - probed
        # One simulated TCAM cycle per non-skipped packet.
        self._tcam.lookups += probed
        self._tcam.row_activations += probed * len(self._tcam)
        d_hits = 0
        if probed and self._d_indices:
            d_span = (
                recorder.span("engine.d_probe", batch=probed)
                if recorder.enabled
                else None
            )
            if d_span is not None:
                d_span.__enter__()
            rows = harr if need_d is None else harr[need_d]
            d_best = self._d_bits.match(rows)
            if d_span is not None:
                d_span.__exit__(None, None, None)
            if need_d is None:
                np.minimum(best, d_best, out=best)
            else:
                best[need_d] = np.minimum(best[need_d], d_best)
            if recorder.enabled:
                d_hits = int((d_best < catch_all).sum())
        if recorder.enabled:
            recorder.incr("engine.lookups", n)
            recorder.incr("engine.batches")
            recorder.incr(
                "engine.group_probes", n * len(self.software.groups)
            )
            recorder.incr("engine.software_hits", software_hits)
            recorder.incr("engine.d_probes", probed)
            recorder.incr("engine.d_skipped", n - probed)
            heat = recorder.heat
            if heat is not None:
                heat.record_rules(best)
                if probed:
                    heat.record_group("d", probes=probed, hits=d_hits)
            span.__exit__(None, None, None)
            recorder.observe(
                "engine.match_batch", time.perf_counter() - start
            )
        return best

    def classify(self, header: Sequence[int]) -> Action:
        """Action of the highest-priority matching rule."""
        return self.match(header).action

    def classify_batch(
        self, headers: Sequence[Sequence[int]]
    ) -> List[Action]:
        """Actions of the highest-priority matches, in input order."""
        return [result.action for result in self.match_batch(headers)]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> EngineReport:
        """Structural summary: decomposition sizes and TCAM savings.

        Under a chaos plan with an ``engine.report`` corrupt spec, the
        returned report is deliberately nonsensical (negative sizes) —
        consumers must reject it via :meth:`EngineReport.is_sane`.
        """
        from ..tcam.cost import classifier_entry_count

        if self.injector.enabled and self.injector.corrupted(
            "engine.report"
        ):
            return EngineReport(
                total_rules=-1,
                software_rules=-1,
                tcam_rules=-1,
                num_groups=-1,
                group_fields=(),
                tcam_entries=-1,
                tcam_entries_full=-1,
            )
        full_entries = classifier_entry_count(self.classifier, self.encoder)
        return EngineReport(
            total_rules=len(self.classifier.body),
            software_rules=self.software.num_rules,
            tcam_rules=len(self._d_indices),
            num_groups=len(self.grouping.groups),
            group_fields=tuple(g.fields for g in self.grouping.groups),
            tcam_entries=len(self._tcam),
            tcam_entries_full=full_entries,
            build_seconds=self.build_seconds,
            build_stages=self.build_stages,
            build_incremental=self.build_incremental,
            group_backends=tuple(
                g.backend for g in self.software.groups
            ),
        )

    def backend_summary(self) -> List[dict]:
        """Per-group lookup-structure reports (name, shape, memory,
        build cost), in group order — the detail behind
        :attr:`EngineReport.group_backends`."""
        return self.software.backend_summary()
