"""Sharded classification: persistent worker processes over a shared ring.

A batch is split into N contiguous chunks.  Each chunk is written once
into a slot of a shared-memory ring (:mod:`repro.runtime.shm`), a
persistent worker process classifies it in place, and the per-chunk
index arrays are concatenated back in input order.  No chunk is
pickled, and completion is a slot sequence counter.

Workers return bare rule indices; the parent materializes
:class:`MatchResult` objects against its own classifier, so results are
identical (by value) to the unsharded path.

**Failure handling.**  Chunk execution is guarded:

* ``deadline_ms`` bounds each *batch*: a chunk that has not produced a
  result when the batch deadline expires is abandoned, the workers are
  respawned (``runtime.worker_respawns`` — a hung worker would otherwise
  occupy its slots forever), and the chunk is served through the
  always-correct vectorized linear scan (``runtime.chunk_fallbacks``) so
  the caller still gets exact results on time-ish;
* a chunk whose worker *raises* (or dies) is retried up to
  ``max_retries`` times with linear backoff (``runtime.retries``);
  persistent errors either raise :class:`ShardWorkerError` — carrying
  the worker-side traceback, never a bare pool error — or, under
  ``on_error="fallback"`` (what
  :class:`~repro.runtime.service.RuntimeService` uses), fall back to the
  linear scan like timeouts do;
* every failure signal lands in the attached
  :class:`~repro.runtime.health.HealthMonitor` (when one is wired) so the
  service's health ladder reflects shard trouble.

Fault injection rides on the same guard: for each chunk the runtime
asks ``injector`` (default :data:`~repro.chaos.NULL_INJECTOR`, a no-op)
whether the ``shard.worker`` and ``engine.lookup`` sites fire, and the
worker enacts the answer, so a chaos plan can crash, hang or slow
chunks deterministically with one budget and one tally for the whole
fleet — see :mod:`repro.chaos`.  The workers hold a copy of the plan to
look the specs up, re-shipped whenever it changes.

**Telemetry fold-back.**  Workers record into their own recorders; the
deltas ride the pool's status queue and are absorbed into the parent's
recorder per chunk and on :meth:`ShardedRuntime.collect` (called by the
service before every snapshot, and on close).  Span context crosses
into the workers as two control words, so chunk and engine spans nest
under the caller's batch span.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..chaos.injector import NULL_INJECTOR
from ..core.classifier import Classifier, MatchResult
from ..saxpac.config import EngineConfig
from .batch import linear_match_indices
from .shm import ShmWorkerPool
from .telemetry import NULL_RECORDER

__all__ = [
    "ShardedRuntime",
    "ShardWorkerError",
    "check_shard_mode",
    "default_num_shards",
]


def default_num_shards() -> int:
    """Worker count when unspecified: CPUs, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


def check_shard_mode(mode: str) -> None:
    """Reject every shard transport but ``"shm"``, the only one left."""
    if mode != "shm":
        raise ValueError(
            f"unknown shard mode {mode!r}: thread and process shards were "
            f"removed; shm is the only shard transport"
        )


class ShardWorkerError(RuntimeError):
    """A shard worker failed persistently; carries the worker-side
    traceback so the root cause is never hidden behind a bare pool
    error."""

    def __init__(self, message: str, worker_traceback: str = "") -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback

    def __str__(self) -> str:
        base = super().__str__()
        if self.worker_traceback:
            return f"{base}\n--- worker traceback ---\n{self.worker_traceback}"
        return base


class ShardedRuntime:
    """Partition batches across shm worker processes and merge in order.

    Two construction styles:

    * ``ShardedRuntime(classifier=k, config=cfg)`` — the workers build
      their engines from a columnar snapshot of ``k``;
    * ``ShardedRuntime(engine_source=lambda: runtime.engine)`` — the
      workers start from the source engine's decomposition, and
      :meth:`sync` re-reads the source per batch: when the engine
      changed it ships the deltas of its incremental rebuilds, or one
      full snapshot when it does not descend from the workers' engine,
      so hot swaps work without rebuilding the pool.  This is the hook
      :class:`~repro.runtime.service.RuntimeService` uses.

    ``mode`` accepts only ``"shm"``; it stays for callers that name the
    transport.  Schemas with a field wider than 32 bits are rejected:
    the ring carries headers as uint32 slabs.

    Guard knobs: ``deadline_ms`` (per-batch deadline; also what detects a
    hung worker), ``max_retries``/``backoff_s`` (bounded retry of
    erroring chunks), ``on_error`` (``"raise"`` surfaces a
    :class:`ShardWorkerError` after retries; ``"fallback"`` serves the
    chunk via the linear scan instead), ``injector`` (chaos hook,
    production default is a no-op), ``health`` (an optional
    :class:`~repro.runtime.health.HealthMonitor` receiving failure
    signals).
    """

    def __init__(
        self,
        classifier: Optional[Classifier] = None,
        config=None,
        num_shards: Optional[int] = None,
        mode: str = "shm",
        recorder=None,
        engine_source: Optional[Callable[[], object]] = None,
        deadline_ms: Optional[float] = None,
        max_retries: int = 2,
        backoff_s: float = 0.02,
        on_error: str = "raise",
        injector=None,
        health=None,
        shm_capacity: int = 16384,
        shm_depth: int = 4,
    ) -> None:
        check_shard_mode(mode)
        if on_error not in ("raise", "fallback"):
            raise ValueError(f"unknown on_error policy {on_error!r}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if (classifier is None) == (engine_source is None):
            raise ValueError("pass exactly one of classifier / engine_source")
        self.num_shards = (
            default_num_shards() if num_shards is None else num_shards
        )
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.deadline_ms = deadline_ms
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.on_error = on_error
        self.health = health
        self.injector = injector if injector is not None else NULL_INJECTOR
        #: Failure signals (timeouts + worker errors) seen while serving
        #: the most recent batch; the service reads this to decide
        #: whether the batch counts as a health success.
        self.last_batch_faults = 0
        #: The most recent persistent worker failure (kept even when
        #: ``on_error="fallback"`` swallowed it), for diagnostics.
        self.last_worker_error: Optional[ShardWorkerError] = None
        self._source = engine_source
        obs_spec = None
        if self.recorder.enabled:
            heat = self.recorder.heat
            obs_spec = {
                "tracing": self.recorder.tracer is not None,
                "heat": heat is not None,
                "sample_period": heat.sample_period if heat is not None else 1,
            }
        source_engine = None
        if classifier is None:
            source_engine = engine_source()
            classifier = source_engine.classifier
            if config is None:
                config = getattr(source_engine, "config", None)
        self.classifier = classifier
        self._shm_config = config or EngineConfig()
        #: The engine the workers hold (None for a classifier pool).
        self._shipped_engine = source_engine
        self._sync_lock = threading.Lock()
        self._shipped_plan = getattr(self.injector, "plan", None)
        self._shm_pool = ShmWorkerPool(
            classifier,
            self._shm_config,
            num_workers=self.num_shards,
            capacity=shm_capacity,
            depth=shm_depth,
            obs_spec=obs_spec,
            plan=self._shipped_plan,
            engine=source_engine,
        )

    def _respawn(self) -> None:
        """Replace every worker: hung ones would otherwise occupy their
        slots forever.  The ring survives — workers are replaced in place
        and their in-flight slots reclaimed (``runtime.slots_reclaimed``)."""
        reclaimed = self._shm_pool.respawn_all()
        if reclaimed:
            self.recorder.incr("runtime.slots_reclaimed", reclaimed)
        self.recorder.incr("runtime.worker_respawns")
        tracer = self.recorder.tracer
        if tracer is not None:
            tracer.event("shard.respawn")

    def sync(self) -> None:
        """Bring the workers up to the source engine.  When it descends
        from the engine they hold (same lineage, later step), the deltas
        they lack ship as one control message, which each worker applies
        as one composed rebuild (``runtime.delta_ships``); otherwise — a
        from-scratch rebuild, a linear fallback — one full snapshot does
        (``runtime.snapshot_ships``).

        Runs before every batch.  :class:`~repro.runtime.service
        .RuntimeService` also runs it on every hot swap, so the workers
        apply each delta while the writer moves on; a worker that falls
        behind folds the delta messages queued for it into one rebuild."""
        if self._source is None:
            return
        with self._sync_lock:
            pool = self._shm_pool
            engine = self._source()
            if pool is None or engine is self._shipped_engine:
                return
            held = getattr(self._shipped_engine, "lineage", None)
            lineage = getattr(engine, "lineage", None)
            if (
                held is not None
                and lineage is not None
                and lineage[0] == held[0]
                and lineage[1] >= held[1]
            ):
                missing = engine.deltas[held[1]:]
                if missing:
                    pool.ship_deltas(missing, engine)
                    self.recorder.incr("runtime.delta_ships")
            else:
                pool.ship_swap(engine.classifier, self._shm_config, engine)
                self.recorder.incr("runtime.snapshot_ships")
            self._shipped_engine = engine
            self.classifier = engine.classifier

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _chunks(
        self, headers: Sequence[Sequence[int]]
    ) -> List[Sequence[Sequence[int]]]:
        n = len(headers)
        # A chunk must fit one ring slot; oversize batches split into
        # more pieces (round-robined over the workers by index).
        capacity = self._shm_pool.capacity
        pieces = max(min(self.num_shards, n), -(-n // capacity))
        base, extra = divmod(n, pieces)
        chunks = []
        start = 0
        for i in range(pieces):
            size = base + (1 if i < extra else 0)
            chunks.append(headers[start : start + size])
            start += size
        return chunks

    def _serving_classifier(self) -> Classifier:
        """The classifier whose linear reference equals the serving
        engines' answers (re-read under hot swaps)."""
        if self._source is not None:
            return self._source().classifier
        return self.classifier

    def _linear_chunk(self, chunk) -> np.ndarray:
        """Always-correct slow path for one chunk (deadline/crash
        degradation); answers equal the serving engines' by Theorem 1."""
        return linear_match_indices(self._serving_classifier(), chunk)

    def _absorb_deltas(self) -> None:
        """Fold the telemetry deltas the workers shipped so far into
        :attr:`recorder`."""
        recorder = self.recorder
        if recorder.enabled and hasattr(recorder, "absorb"):
            for delta in self._shm_pool.take_deltas():
                recorder.absorb(delta)

    def _faults(self) -> Tuple[int, int]:
        """This chunk's chaos decisions as the pool's fault words (plan
        index + 1, 0 = none).  ``engine.lookup`` is only visited when the
        worker would reach its engine: not after a crash or error."""
        shard = self.injector.decide("shard.worker")
        if shard is not None and shard[1].kind not in ("hang", "slow"):
            return shard[0] + 1, 0
        lookup = self.injector.decide("engine.lookup")
        return (
            0 if shard is None else shard[0] + 1,
            0 if lookup is None else lookup[0] + 1,
        )

    def _record_failure(self, source: str) -> None:
        self.last_batch_faults += 1
        if self.health is not None:
            self.health.record_failure(source)

    def match_indices(self, headers: Sequence[Sequence[int]]) -> np.ndarray:
        """Winning rule indices for a batch, in input order.

        Chunks that time out against ``deadline_ms`` or whose workers
        fail persistently degrade to the linear reference (or raise, see
        ``on_error``); results are exact either way.
        """
        if not len(headers):
            return np.empty(0, dtype=np.int64)
        pool = self._shm_pool
        self.sync()
        injector = self.injector
        if injector.enabled and injector.plan is not self._shipped_plan:
            # The workers look up the specs the fault words name.
            pool.ship_plan(injector.plan)
            self._shipped_plan = injector.plan
        chunks = self._chunks(headers)
        recorder = self.recorder
        self.last_batch_faults = 0
        parent_ctx = None
        if recorder.enabled and recorder.tracer is not None:
            parent_ctx = recorder.tracer.current_context()
        deadline_s = (
            self.deadline_ms / 1000.0 if self.deadline_ms is not None else None
        )
        started = time.monotonic()
        parts: List[Optional[np.ndarray]] = [None] * len(chunks)
        pending = list(range(len(chunks)))
        attempt = 0
        while pending:
            handles = {}
            for i in pending:
                faults = self._faults() if injector.enabled else (0, 0)
                handles[i] = pool.submit(
                    i % self.num_shards, chunks[i], parent_ctx, faults
                )
            failed: List[int] = []
            last_traceback = ""
            timed_out = False
            # Newest first: the last chunk submitted tends to finish last,
            # so the caller sleeps once per batch, not once per chunk.
            for i, handle in reversed(handles.items()):
                remaining = None
                if deadline_s is not None:
                    remaining = max(
                        0.005, deadline_s - (time.monotonic() - started)
                    )
                status, value = pool.wait(handle, remaining)
                self._absorb_deltas()
                if status == "ok":
                    parts[i] = value
                    continue
                if status == "timeout":
                    timed_out = True
                    recorder.incr("runtime.deadline_timeouts")
                    self._record_failure("shard.deadline")
                else:
                    failed.append(i)
                    last_traceback = value or last_traceback
                    recorder.incr("runtime.worker_errors")
                    self._record_failure("shard.worker")
            if timed_out:
                # The deadline is a latency promise: no retries, abandon
                # the hung workers and serve the stragglers linearly.
                self._respawn()
                for i in pending:
                    if parts[i] is None and i not in failed:
                        parts[i] = self._linear_chunk(chunks[i])
                        recorder.incr("runtime.chunk_fallbacks")
            if not failed:
                break
            if attempt >= self.max_retries:
                error = ShardWorkerError(
                    f"shard worker failed after {attempt + 1} attempt(s)",
                    worker_traceback=last_traceback,
                )
                self.last_worker_error = error
                if self.on_error == "raise":
                    raise error
                for i in failed:
                    parts[i] = self._linear_chunk(chunks[i])
                    recorder.incr("runtime.chunk_fallbacks")
                break
            attempt += 1
            recorder.incr("runtime.retries", len(failed))
            time.sleep(self.backoff_s * attempt)
            pending = failed
        if recorder.enabled:
            recorder.incr("shard.batches")
            recorder.incr("shard.packets", len(headers))
            recorder.incr("shard.chunks", len(chunks))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def match_batch(
        self, headers: Sequence[Sequence[int]]
    ) -> List[MatchResult]:
        """Batched classification across the shards; results identical to
        the unsharded engine."""
        if self._source is not None:
            # The rule set moves under hot swaps, so materialize against
            # the engine that is serving right now.
            self.classifier = self._source().classifier
        return self.classifier.results_of(self.match_indices(headers))

    # ------------------------------------------------------------------
    # Telemetry fold-back
    # ------------------------------------------------------------------
    def collect(self) -> None:
        """Fold worker telemetry into :attr:`recorder`.  Cheap and
        idempotent — the service calls it before every snapshot."""
        if self._shm_pool is not None:
            self._absorb_deltas()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Fold the remaining worker telemetry back, then stop and reap
        the workers and unlink the ring (idempotent) — no orphaned
        children, no leftover ``/dev/shm`` segment."""
        if self._shm_pool is not None:
            self._absorb_deltas()
            self._shm_pool.close()
            self._shm_pool = None

    def __enter__(self) -> "ShardedRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
