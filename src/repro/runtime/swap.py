"""RCU-style hot swap: rebuild the engine off the data path, swap
atomically, degrade gracefully.

A :class:`HotSwapRuntime` owns the authoritative rule state (an ordered
rule table: rule id → :class:`~repro.core.rule.Rule`, in priority order)
and a built serving engine.  Updates apply to the table immediately and
are recorded in :attr:`~HotSwapRuntime.update_log`; a rebuild — inline by
default, in a background thread when ``background=True`` — constructs a
fresh :class:`~repro.saxpac.engine.SaxPacEngine` from a snapshot and swaps
it in with one attribute store (atomic under the GIL, the RCU
writer-side).  The table does no placement of its own: the engine
decomposes each snapshot into groups and D, so seeding is one pass over
the rules.  Readers grab the engine reference once per lookup or batch
and finish on whichever engine they started with (the read-side), so
traffic never blocks on a rebuild.

**Failure handling.**  A failed rebuild never crashes the serving path;
it degrades, in two tiers:

* with a good engine already serving, the failed build is *quarantined*:
  the old engine keeps serving (its answers stay exactly the linear
  reference of *its* snapshot — stale rules, correct semantics), the
  failure is counted (``swap.quarantined``) and :attr:`~HotSwapRuntime
  .quarantined` stays True until a later rebuild succeeds;
* with no engine to keep (the initial build, or the previous build
  already failed), :class:`LinearFallback` — a vectorized linear scan
  over the snapshot — swaps in, so classification stays *correct* while
  losing the sub-linear lookup, and repairs itself on the next
  successful rebuild.

Both paths signal an attached :class:`~repro.runtime.health
.HealthMonitor`; a chaos plan can force them deterministically through
the ``swap.build`` injection site (see :mod:`repro.chaos`).
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..chaos.injector import NULL_INJECTOR
from ..core.classifier import Classifier, MatchResult
from ..core.rule import Rule
from ..saxpac.config import EngineConfig
from ..saxpac.engine import SaxPacEngine
from ..saxpac.updates import InsertOutcome, InsertReport
from .batch import linear_match_batch
from .telemetry import NULL_RECORDER

__all__ = ["HotSwapRuntime", "LinearFallback", "UpdateRecord"]


@dataclass(frozen=True)
class UpdateRecord:
    """One entry of the update log: what changed and when."""

    kind: str  # "insert" | "remove" | "modify"
    rule_id: Optional[int]
    rule: Optional[Rule] = None
    timestamp: float = 0.0


class LinearFallback:
    """Degraded but correct serving path: vectorized linear scan over a
    classifier snapshot.  Swapped in when an engine rebuild fails."""

    def __init__(self, classifier: Classifier) -> None:
        self.classifier = classifier

    def match(self, header: Sequence[int]) -> MatchResult:
        """First-match scan (reference semantics)."""
        return self.classifier.match(header)

    def match_batch(
        self, headers: Sequence[Sequence[int]]
    ) -> List[MatchResult]:
        """Vectorized first-match over the whole rule list."""
        return linear_match_batch(self.classifier, headers)


class HotSwapRuntime:
    """Serve traffic from a built engine while updates rebuild it in the
    background (Section 7.2's recomputation, made operational)."""

    def __init__(
        self,
        source,
        config: Optional[EngineConfig] = None,
        recorder=None,
        builder: Optional[Callable[[Classifier], object]] = None,
        background: bool = False,
        injector=None,
        health=None,
    ) -> None:
        """``source`` is the :class:`Classifier` to seed the rule table
        with: its body rules get ids 0..n-1 in priority order.
        ``builder`` maps a classifier snapshot to a serving engine —
        override to inject build policies (or failures, in tests).
        ``injector`` is the chaos hook (no-op by default) consulted at
        the ``swap.build`` site; ``health`` an optional
        :class:`~repro.runtime.health.HealthMonitor` receiving
        build-failure/-success signals."""
        self.config = config or EngineConfig()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.background = background
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.health = health
        #: True while the latest rebuild failed and the previous engine
        #: keeps serving (stale rules, correct semantics).
        self.quarantined = False
        # A custom builder opts out of incremental rebuilds: we cannot
        # know whether its engines support SaxPacEngine.rebuild.
        self._incremental = builder is None
        self._builder = builder or self._default_builder
        if not isinstance(source, Classifier):
            raise TypeError(
                f"source must be a Classifier, not {type(source).__name__}"
            )
        self.schema = source.schema
        self.default_action = source.catch_all.action
        #: The rule table: id -> rule, insertion order = priority order.
        self._rules: Dict[int, Rule] = dict(enumerate(source.body))
        self._next_id = len(self._rules)
        # Guards the table against concurrent writers and the background
        # rebuild's snapshot.
        self._table_lock = threading.Lock()
        self.update_log: List[UpdateRecord] = []
        self.generation = 0
        self._lock = threading.Lock()  # writer-side only
        self._rebuild_thread: Optional[threading.Thread] = None
        self._dirty = False
        self._engine = None
        self.rebuild(wait=True)

    # ------------------------------------------------------------------
    # Engine construction / swapping
    # ------------------------------------------------------------------
    def _default_builder(self, snapshot: Classifier) -> SaxPacEngine:
        return SaxPacEngine(
            snapshot, self.config, recorder=self.recorder,
            injector=self.injector,
        )

    @property
    def engine(self):
        """The currently serving engine (RCU read-side: grab once, use
        for the whole batch)."""
        return self._engine

    @property
    def degraded(self) -> bool:
        """True while the linear fallback is serving."""
        return isinstance(self._engine, LinearFallback)

    def snapshot_classifier(self) -> Classifier:
        """Priority-ordered static snapshot of the rule table."""
        with self._table_lock:
            rules = tuple(self._rules.values())
        return Classifier(
            self.schema,
            rules,
            ensure_catch_all=True,
            default_action=self.default_action,
        )

    def serving_classifier(self) -> Classifier:
        """The classifier the *serving* engine answers for.  Equal to
        :meth:`snapshot_classifier` except under quarantine, where the
        old engine (and its older snapshot) keeps serving — differential
        checks must compare against this one."""
        return self._engine.classifier

    def _build_and_swap(self) -> None:
        recorder = self.recorder
        start = time.perf_counter() if recorder.enabled else 0.0
        # Off the data path, so the span is unconditional; background
        # rebuilds start fresh traces (no caller context in the worker).
        with recorder.span(
            "swap.rebuild",
            generation=self.generation + 1,
            background=self.background,
        ):
            snapshot = self.snapshot_classifier()
            engine = None
            failed = False
            previous = self._engine
            injector = self.injector
            try:
                if injector.enabled:
                    injector.fire(
                        "swap.build", generation=self.generation + 1
                    )
            except Exception:
                failed = True
            if (
                not failed
                and self._incremental
                and isinstance(previous, SaxPacEngine)
            ):
                # Incremental path: re-admit only the changed rules,
                # reusing the serving engine's structures read-only (the
                # old engine keeps serving until the swap below).
                try:
                    engine = previous.rebuild(snapshot)
                    if engine.build_incremental:
                        recorder.incr("swap.incremental_rebuilds")
                    else:
                        recorder.incr("swap.full_rebuilds")
                except Exception:
                    recorder.incr("swap.incremental_failures")
                    engine = None
            if engine is None and not failed:
                try:
                    engine = self._builder(snapshot)
                    if self._incremental:
                        recorder.incr("swap.full_rebuilds")
                except Exception:
                    failed = True
            if failed:
                recorder.incr("swap.rebuild_failures")
                if self.health is not None:
                    self.health.record_failure("swap.build")
                if previous is not None and not isinstance(
                    previous, LinearFallback
                ):
                    # Quarantine the failed build: the old engine keeps
                    # serving (stale but exactly correct for its own
                    # snapshot); the serving path never sees the wreck.
                    self.quarantined = True
                    recorder.incr("swap.quarantined")
                    tracer = recorder.tracer
                    if tracer is not None:
                        tracer.event(
                            "swap.quarantine", generation=self.generation
                        )
                    return
                engine = LinearFallback(snapshot)
        # The swap itself: one attribute store, atomic under the GIL.
        # In-flight readers hold the old reference and drain naturally.
        self._engine = engine
        self.generation += 1
        # Whatever swapped in serves the *current* snapshot — any prior
        # quarantine (stale engine) is over.
        self.quarantined = False
        recorder.incr("swap.swaps")
        if isinstance(engine, LinearFallback):
            recorder.incr("swap.fallback_swaps")
        else:
            if self.health is not None:
                self.health.record_success("swap.build")
        if recorder.enabled:
            recorder.observe("swap.rebuild", time.perf_counter() - start)

    def rebuild(self, wait: bool = True) -> None:
        """Rebuild from the current rule table and swap the result in.

        ``wait=False`` (or ``background=True`` construction) runs the
        rebuild in a daemon thread; concurrent requests coalesce into one
        trailing rebuild.
        """
        if wait and not self.background:
            with self._lock:
                self._build_and_swap()
            return
        with self._lock:
            self._dirty = True
            if self._rebuild_thread and self._rebuild_thread.is_alive():
                return  # the running worker picks the dirty flag up
            self._rebuild_thread = threading.Thread(
                target=self._rebuild_worker,
                name="saxpac-rebuild",
                daemon=True,
            )
            self._rebuild_thread.start()
        if wait:
            self.flush()

    def _rebuild_worker(self) -> None:
        while True:
            with self._lock:
                if not self._dirty:
                    return
                self._dirty = False
            self._build_and_swap()

    def flush(self) -> None:
        """Block until no rebuild is pending (test/shutdown hook)."""
        while True:
            with self._lock:
                thread = self._rebuild_thread
                pending = self._dirty
            if thread is None or not thread.is_alive():
                if not pending:
                    return
                # Worker died between flag and start; run inline.
                with self._lock:
                    self._dirty = False
                self._build_and_swap()
                return
            thread.join(timeout=0.1)

    # ------------------------------------------------------------------
    # Updates (writer side)
    # ------------------------------------------------------------------
    def _log(self, kind: str, rule_id: Optional[int], rule: Optional[Rule]) -> None:
        self.update_log.append(
            UpdateRecord(kind, rule_id, rule, time.time())
        )
        self.recorder.incr(f"swap.{kind}s")

    def _check_arity(self, rule: Rule) -> None:
        if rule.num_fields != len(self.schema):
            raise ValueError(
                f"rule has {rule.num_fields} fields, schema expects "
                f"{len(self.schema)}"
            )

    def _report(self, rule_id: int, rule: Rule, position: int) -> InsertReport:
        """The report of a write that put ``rule`` at body index
        ``position`` of the table's snapshot (see :meth:`insert`)."""
        engine = self._engine
        outcome = InsertOutcome.ORDER_DEPENDENT
        if isinstance(engine, SaxPacEngine):
            body = engine.classifier.body
            if position < len(body) and body[position] is rule:
                _, d_indices = engine.decomposition()
                at = bisect.bisect_left(d_indices, position)
                if at == len(d_indices) or d_indices[at] != position:
                    outcome = InsertOutcome.GROUP
        return InsertReport(outcome, rule_id)

    def insert(self, rule: Rule) -> InsertReport:
        """Append a rule at the lowest priority (above the catch-all)
        under the next id; the change serves after the next swap.

        The report is always accepted and carries the rule's id.  Its
        outcome is read from the engine serving when the call returns:
        ``GROUP`` when one of its groups holds the rule, else
        ``ORDER_DEPENDENT``.  A rule that engine does not hold yet (a
        background rebuild still pending, a quarantined build) or serves
        by linear scan (the fallback) reports ``ORDER_DEPENDENT``.
        ``ValueError`` for a rule of the wrong arity (no id is used)."""
        self._check_arity(rule)
        with self._table_lock:
            rule_id = self._next_id
            self._next_id += 1
            self._rules[rule_id] = rule
            position = len(self._rules) - 1
        self._log("insert", rule_id, rule)
        self.rebuild(wait=not self.background)
        return self._report(rule_id, rule, position)

    def remove(self, rule_id: int) -> None:
        """Remove a rule by id (``KeyError`` for an unknown id); the
        change serves after the next swap."""
        with self._table_lock:
            if rule_id not in self._rules:
                raise KeyError(f"unknown rule id {rule_id}")
            del self._rules[rule_id]
        self._log("remove", rule_id, None)
        self.rebuild(wait=not self.background)

    def modify(self, rule_id: int, new_rule: Rule) -> InsertReport:
        """Replace a rule in place (same id and priority); ``KeyError``
        for an unknown id.  Reports like :meth:`insert`."""
        with self._table_lock:
            if rule_id not in self._rules:
                raise KeyError(f"unknown rule id {rule_id}")
            self._check_arity(new_rule)
            self._rules[rule_id] = new_rule
            position = list(self._rules).index(rule_id)
        self._log("modify", rule_id, new_rule)
        self.rebuild(wait=not self.background)
        return self._report(rule_id, new_rule, position)

    # ------------------------------------------------------------------
    # Classification (reader side)
    # ------------------------------------------------------------------
    def match(self, header: Sequence[int]) -> MatchResult:
        """Single-packet match on the current engine."""
        return self._engine.match(header)

    def match_batch(
        self, headers: Sequence[Sequence[int]]
    ) -> List[MatchResult]:
        """Batched match; the whole batch runs on one engine reference."""
        return self._engine.match_batch(headers)

    def classify_batch(self, headers: Sequence[Sequence[int]]):
        """Actions of the winning rules, in input order."""
        return [result.action for result in self.match_batch(headers)]

    def __len__(self) -> int:
        return len(self._rules)
