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

import itertools
import os
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
from ..core.rule import Rule
from ..lookup.group_engine import (
    GroupIndex,
    MultiGroupEngine,
    build_group_index,
)
from ..runtime.telemetry import NULL_RECORDER
from ..tcam.bitset import BitsetTcam
from ..tcam.encoding import BinaryRangeEncoder, RangeEncoder, expand_rule
from ..tcam.tcam import Tcam, TcamClassifier
from .config import EngineConfig

__all__ = ["EngineDelta", "EngineReport", "SaxPacEngine", "compose_deltas"]


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


#: Lineage roots: one per from-scratch build in this process.
_ROOTS = itertools.count(1)


def _new_root() -> int:
    """A lineage root no other process issues (forked shard workers
    inherit the counter, not the pid)."""
    return os.getpid() << 32 | next(_ROOTS)


@dataclass(frozen=True, eq=False)
class EngineDelta:
    """One incremental rebuild as data: what :meth:`SaxPacEngine.plan`
    decides and :meth:`SaxPacEngine.apply` carries out.

    ``base`` is the lineage of the engine the delta applies to.  The body
    rules at positions ``removed`` of that engine's classifier leave, and
    ``rules`` enter at positions ``added`` of the result (both
    ascending); every other rule keeps its relative order.  The added
    rules are placed here, so every engine that applies the delta ends
    with the same decomposition: ``groups`` are the new groups as
    ``(fields, member positions)``, and ``d`` the added positions that
    go to D.
    """

    base: Tuple[int, int]
    removed: np.ndarray
    added: np.ndarray
    rules: Tuple[Rule, ...]
    groups: Tuple[Tuple[Tuple[int, ...], np.ndarray], ...]
    d: np.ndarray
    #: How many planned rebuilds this delta carries out (more than one
    #: for a :func:`compose_deltas` result).
    steps: int = 1


def compose_deltas(deltas: Sequence[EngineDelta], size: int) -> EngineDelta:
    """One delta with the effect of applying ``deltas`` in order to an
    engine whose body holds ``size`` rules: one :meth:`SaxPacEngine
    .apply` instead of one per delta, ending in the same decomposition.
    Positions move forward through each later delta's position map; a
    rule added and then removed drops out, and so does a new group whose
    members all left."""
    if len(deltas) == 1:
        return deltas[0]
    to_final = np.arange(size, dtype=np.int64)
    #: Per delta: (added positions, its groups, its D part), kept current.
    entered: List[Tuple[np.ndarray, list, np.ndarray]] = []
    for delta in deltas:
        step = _position_map(size, delta.removed, delta.added)
        to_final = _relabel(to_final, step)
        entered = [
            (
                _relabel(added, step),
                [(fields, _relabel(members, step)) for fields, members in groups],
                _relabel(d, step),
            )
            for added, groups, d in entered
        ]
        entered.append((delta.added, list(delta.groups), delta.d))
        size += len(delta.added) - len(delta.removed)
    positions = np.concatenate([added for added, _, _ in entered])
    rows = np.flatnonzero(positions >= 0)
    order = rows[np.argsort(positions[rows], kind="stable")]
    rules = [rule for delta in deltas for rule in delta.rules]
    groups = []
    for _, delta_groups, _ in entered:
        for fields, members in delta_groups:
            live = members[members >= 0]
            if len(live):
                groups.append((fields, live))
    d = np.concatenate([d for _, _, d in entered])
    return EngineDelta(
        base=deltas[0].base,
        removed=np.flatnonzero(to_final < 0),
        added=positions[order],
        rules=tuple(rules[i] for i in order.tolist()),
        groups=tuple(groups),
        d=np.sort(d[d >= 0]),
        steps=sum(delta.steps for delta in deltas),
    )


def _check_positions(positions: np.ndarray, size: int, what: str) -> None:
    if len(positions) and (
        positions[0] < 0
        or positions[-1] >= size
        or (np.diff(positions) <= 0).any()
    ):
        raise ValueError(
            f"{what} positions must ascend within [0, {size})"
        )


def _position_map(
    old_size: int, removed: np.ndarray, added: np.ndarray
) -> np.ndarray:
    """Old body position -> new one (-1 for removed): carried rules fill
    the positions ``added`` leaves free, in order."""
    keep = np.ones(old_size, dtype=bool)
    keep[removed] = False
    free = np.ones(old_size - len(removed) + len(added), dtype=bool)
    free[added] = False
    old_to_new = np.full(old_size, -1, dtype=np.int64)
    old_to_new[keep] = np.flatnonzero(free)
    return old_to_new


def _relabel(ids: np.ndarray, old_to_new: np.ndarray) -> np.ndarray:
    """``ids`` mapped through ``old_to_new``; -1 stays -1."""
    if not len(old_to_new):
        return np.full(len(ids), -1, dtype=np.int64)
    return np.where(ids >= 0, old_to_new[np.maximum(ids, 0)], np.int64(-1))


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
        self,
        grouping: MGRResult,
        stages: List[Tuple[str, float]],
        lineage: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Lookup structures for a decomposition: one index per group,
        then D programmed into the TCAM and its bitsets.  Starts a new
        lineage unless ``lineage`` names the one this build copies."""
        cfg = self.config
        classifier = self.classifier
        self._grouping: Optional[MGRResult] = grouping
        with self._stage("lookup", stages):
            self.software = MultiGroupEngine(
                classifier,
                grouping.groups,
                cascading=cfg.use_cascading,
                recorder=self.recorder,
            )
        d_indices = np.asarray(grouping.ungrouped, dtype=np.int64)
        with self._stage("tcam", stages):
            self._d_bits = BitsetTcam.from_classifier(classifier, d_indices)
            self._tcam = Tcam(classifier.schema.total_width, cfg.d_capacity)
            self._program_d(self._tcam, classifier, self._d_bits.rule_ids, 0)
        self._finish(
            tuple(stages),
            incremental=False,
            lineage=lineage or (_new_root(), 0),
            deltas=(),
            tombstones=0,
        )

    def _finish(self, stages, incremental, lineage, deltas, tombstones):
        self._tcam_view = TcamClassifier(
            self._tcam, self.classifier, self.encoder,
            range(self.classifier.num_fields),
        )
        self.d_lookups_skipped = 0
        self.build_stages: Tuple[Tuple[str, float], ...] = stages
        self.build_seconds: float = sum(dt for _, dt in stages)
        self.build_incremental: bool = incremental
        #: ``(root, step)``: the from-scratch build this engine descends
        #: from and how many deltas it applied since.
        self.lineage: Tuple[int, int] = lineage
        #: The deltas applied since that build, in order.
        self.deltas: Tuple[EngineDelta, ...] = deltas
        #: Tombstoned group slots: churn that counts toward
        #: :data:`STALENESS_LIMIT`, kept as a running total.
        self._tombstones = tombstones

    def _program_d(self, tcam, classifier, indices, first_slot, known=None):
        """Program the TCAM model with the D rules at body ``indices``,
        labelling each row with its rule's D bit position (from
        ``first_slot`` on): an incremental rebuild relabels D by one
        gather over the bitsets' ``rule_ids`` instead of rewriting rows.
        ``known`` maps a body index to already expanded entries."""
        schema = classifier.schema
        for slot, index in enumerate(np.asarray(indices).tolist(), first_slot):
            if index < 0:
                continue
            rule = classifier.rules[index]
            entries = known.get(index) if known else None
            if entries is None:
                entries = expand_rule(rule, schema, self.encoder)
            for entry in entries:
                tcam.program(entry, slot, rule)

    @classmethod
    def from_decomposition(
        cls,
        classifier: Classifier,
        config: Optional[EngineConfig],
        groups: Sequence[Group],
        d_indices: Sequence[int],
        recorder=None,
        injector=None,
        lineage: Optional[Tuple[int, int]] = None,
    ) -> "SaxPacEngine":
        """An engine serving a decomposition computed by another engine
        over the same rules (``groups`` and the D indices, as
        :meth:`decomposition` returns them).  Skips the
        disjointness and grouping stages — shared-memory shard workers
        compile a snapshot this way — and answers exactly like any
        engine over ``classifier``.  ``lineage`` is the source engine's,
        so the deltas it applies next apply here too."""
        self = cls.__new__(cls)
        self.classifier = classifier
        self.config = config or EngineConfig()
        self.encoder = BinaryRangeEncoder()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.injector = injector if injector is not None else NULL_INJECTOR
        l = min(self.config.max_group_fields, classifier.num_fields)
        grouping = MGRResult(tuple(groups), tuple(sorted(d_indices)), l)
        self._compile(grouping, [], lineage)
        return self

    @property
    def grouping(self) -> MGRResult:
        """The decomposition as an :class:`MGRResult` (live group members
        and D, in body indices), derived on first use after a rebuild."""
        if self._grouping is None:
            groups = tuple(
                Group(
                    rule_indices=tuple(
                        index.rule_ids[index.rule_ids >= 0].tolist()
                    ),
                    fields=index.fields,
                )
                for index in self.software.groups
            )
            l = min(self.config.max_group_fields, self.classifier.num_fields)
            self._grouping = MGRResult(
                groups, tuple(self._d_live().tolist()), l
            )
        return self._grouping

    def decomposition(self) -> Tuple[Tuple[Group, ...], Tuple[int, ...]]:
        """``(groups, d_indices)``: live group members and fields and the
        order-dependent part — what :meth:`from_decomposition` needs."""
        grouping = self.grouping
        return grouping.groups, grouping.ungrouped

    def _d_live(self) -> np.ndarray:
        """Body indices of the D rules, ascending."""
        ids = self._d_bits.rule_ids
        return ids[ids >= 0]

    def in_d(self, index: int) -> bool:
        """True when body rule ``index`` lives in the order-dependent
        part D."""
        return bool((self._d_bits.rule_ids == index).any())

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

    def rebuild(
        self,
        removed: Sequence[int],
        added: Sequence[int],
        rules: Sequence[Rule],
    ) -> "SaxPacEngine":
        """A new engine for this engine's rules with the body positions
        ``removed`` dropped and ``rules`` placed at positions ``added`` of
        the result (both ascending; every other rule keeps its relative
        order — the position map a rule table derives from its ids).

        :meth:`plan` places the added rules and :meth:`apply` carries the
        plan out, so the work is O(changed rules) Python plus array
        copies: carried group indexes are relabelled by one gather,
        removed rules tombstone their group slots (sound because members
        are pairwise disjoint on the group fields) or clear their D bit,
        and only the added rules are grouped and expanded.  ``rules``
        must fit the schema (:meth:`Classifier.check_rules`; a rule
        table checks each rule as it enters).

        The serving engine is never mutated, so an RCU-style swap can
        retire it safely.  Falls back to a from-scratch build in MRCC mode
        or when accumulated churn exceeds :data:`STALENESS_LIMIT`.
        Semantics always match a full build; the grouping *shape* may
        differ (delta groups)."""
        stages: List[Tuple[str, float]] = []
        delta = self._plan(removed, added, rules, stages)
        if delta is None:
            return SaxPacEngine(
                self.classifier.successor(removed, added, tuple(rules)),
                self.config, self.encoder, self.recorder,
                injector=self.injector,
            )
        return self.apply(delta, stages)

    def plan(
        self,
        removed: Sequence[int],
        added: Sequence[int],
        rules: Sequence[Rule],
    ) -> Optional[EngineDelta]:
        """The first half of :meth:`rebuild`: check the change and place
        the added rules — the l-MGR admission among themselves, with
        groups under :data:`DELTA_MIN_GROUP_SIZE` rules going to D.  None
        when the change needs a from-scratch build instead."""
        return self._plan(removed, added, rules, [])

    def _plan(self, removed, added, rules, stages):
        cfg = self.config
        schema = self.classifier.schema
        with self._stage("diff", stages):
            removed = np.asarray(removed, dtype=np.int64)
            added = np.asarray(added, dtype=np.int64)
            rules = tuple(rules)
            old_size = len(self.classifier.rules) - 1
            new_size = old_size - len(removed) + len(added)
            _check_positions(removed, old_size, "removed")
            _check_positions(added, new_size, "added")
            if len(rules) != len(added):
                raise ValueError("need one rule per added position")
            if cfg.enforce_cache:
                # MRCC demotions depend on global priorities; localized
                # re-admission cannot preserve the cache property.
                return None
            churn = len(removed) + self._tombstones + len(added)
            if churn > self.STALENESS_LIMIT * max(1, new_size):
                return None
        with self._stage("grouping", stages):
            min_size = max(cfg.min_group_size, self.DELTA_MIN_GROUP_SIZE)
            groups: List[Tuple[Tuple[int, ...], np.ndarray]] = []
            d = added
            if len(added) >= min_size:
                # Admission among the added rules alone: l-MGR over a
                # classifier of just them places them exactly as a scan
                # of their positions in the full one would.
                mini = Classifier.from_checked(
                    schema, rules + (self.classifier.catch_all,)
                )
                mini._set_bounds(*mini._rule_bounds(rules))
                l = min(cfg.max_group_fields, len(schema))
                budget = None
                if cfg.max_groups is not None:
                    budget = cfg.max_groups - sum(
                        1
                        for index in self.software.groups
                        if np.isin(
                            index.rule_ids[index.rule_ids >= 0], removed,
                            invert=True,
                        ).any()
                    )
                admitted = (
                    l_mgr(mini, l, beta=budget)
                    if budget is None or budget > 0
                    else MGRResult((), tuple(range(len(rules))), l)
                )
                spill = list(admitted.ungrouped)
                for group in admitted.groups:
                    if group.size < min_size:
                        spill.extend(group.rule_indices)
                    else:
                        members = added[list(group.rule_indices)]
                        groups.append((group.fields, members))
                d = added[np.sort(np.asarray(spill, dtype=np.int64))]
        return EngineDelta(
            base=self.lineage, removed=removed, added=added, rules=rules,
            groups=tuple(groups), d=d,
        )

    def apply(
        self, delta: EngineDelta, stages: Sequence[Tuple[str, float]] = ()
    ) -> "SaxPacEngine":
        """The second half of :meth:`rebuild`: a new engine with ``delta``
        carried out — carried group indexes relabelled, the delta's groups
        built, D updated in place of a rebuild.  Shard workers apply the
        deltas their parent planned, so their decomposition equals the
        parent's.  ``ValueError`` when ``delta`` was planned against
        another lineage."""
        if delta.base != self.lineage:
            raise ValueError(
                f"delta planned for lineage {delta.base} applied to an "
                f"engine at {self.lineage}"
            )
        cfg = self.config
        stages = list(stages)
        old_size = len(self.classifier.rules) - 1
        with self._stage("lookup", stages):
            classifier = self.classifier.successor(
                delta.removed, delta.added, delta.rules
            )
            old_to_new = _position_map(old_size, delta.removed, delta.added)
            indexes: List[GroupIndex] = []
            tombstones = self._tombstones
            for index in self.software.groups:
                ids = index.rule_ids
                mapped = _relabel(ids, old_to_new)
                dead = int((mapped < 0).sum())
                was_dead = int((ids < 0).sum())
                if dead < len(mapped):
                    indexes.append(index.reindexed(mapped))
                    tombstones += dead - was_dead
                else:  # every member left: the group goes
                    tombstones -= was_dead
            for fields, members in delta.groups:
                group = Group(tuple(members.tolist()), tuple(fields))
                indexes.append(
                    build_group_index(classifier, group, cfg.use_cascading)
                )
            software = MultiGroupEngine(
                classifier,
                (),
                cascading=cfg.use_cascading,
                recorder=self.recorder,
                prebuilt=indexes,
            )
        with self._stage("tcam", stages):
            d_bits, tcam = self._updated_d(classifier, old_to_new, delta.d)
        engine = SaxPacEngine.__new__(SaxPacEngine)
        engine.classifier = classifier
        engine.config = cfg
        engine.encoder = self.encoder
        engine.recorder = self.recorder
        engine.injector = self.injector
        engine._grouping = None
        engine.software = software
        engine._d_bits = d_bits
        engine._tcam = tcam
        root, step = self.lineage
        engine._finish(
            tuple(stages),
            incremental=True,
            lineage=(root, step + delta.steps),
            deltas=self.deltas + (delta,),
            tombstones=tombstones,
        )
        return engine

    def _updated_d(self, classifier, old_to_new, added):
        """D's bitsets and TCAM model for ``classifier``: this engine's D
        relabelled through ``old_to_new`` plus the body positions
        ``added``.  Rules appended below every carried D rule append
        their bits and rows and removed rules clear theirs; an addition
        above a carried D rule (a modify), or dead bits outnumbering live
        ones, rebuilds the tables (reusing carried rules' entries)."""
        bits = self._d_bits
        ids = _relabel(bits.rule_ids, old_to_new)
        live = ids[ids >= 0]
        miss = len(classifier.rules) - 1
        in_order = not len(added) or not len(live) or live[-1] < added[0]
        dead = len(ids) - len(live)
        if in_order and dead <= max(64, len(live)):
            lows, highs = classifier.bounds_arrays()
            new_bits = bits.updated(ids, lows[added], highs[added], added, miss)
            tcam = self._tcam.copy()
            for slot in np.flatnonzero((bits.rule_ids >= 0) & (ids < 0)).tolist():
                tcam.drop_rows(slot)
            self._program_d(tcam, classifier, added, len(ids))
            return new_bits, tcam
        d_indices = np.union1d(live, added)
        known: dict = {}
        for record in self._tcam.rows:
            index = int(ids[record.rule_index])
            if index >= 0:
                known.setdefault(index, []).append(record.entry)
        new_bits = BitsetTcam.from_classifier(classifier, d_indices)
        tcam = Tcam(classifier.schema.total_width, self.config.d_capacity)
        self._program_d(tcam, classifier, new_bits.rule_ids, 0, known)
        return new_bits, tcam

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
            # TCAM rows carry D bit positions; rule_ids reads the index.
            slot = self._tcam_view.match_index(header)
            tcam_best = (
                None if slot is None else int(self._d_bits.rule_ids[slot])
            )
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
        if probed and len(self._d_bits.rule_ids):
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
        groups = self.software.groups
        return EngineReport(
            total_rules=len(self.classifier.rules) - 1,
            software_rules=self.software.num_rules,
            tcam_rules=len(self._d_live()),
            num_groups=len(groups),
            group_fields=tuple(g.fields for g in groups),
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
