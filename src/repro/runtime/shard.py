"""Sharded classification: a worker pool over N engine replicas.

A batch is split into N contiguous chunks, each classified on its own
replica of the engine, and the per-chunk results are merged back in input
order.  Threads are the default (replicas are deep copies, so per-replica
counters stay exact and lock-free); ``mode="process"`` opts into
``multiprocessing`` workers that each build their own engine from the
pickled classifier — useful when the per-chunk work is heavy enough to
amortize the IPC; ``mode="shm"`` runs persistent process workers over a
shared-memory packet/result ring (:mod:`repro.runtime.shm`) with no
per-chunk pickling at all — headers are written once into shared numpy
slabs, workers classify in place, and completion is a slot sequence
counter.

Workers return bare rule indices; the parent materializes
:class:`MatchResult` objects against its own classifier, so results are
identical (by value) to the unsharded path regardless of mode.

**Failure handling.**  Chunk execution is guarded:

* ``deadline_ms`` bounds each *batch*: a chunk that has not produced a
  result when the batch deadline expires is abandoned, the worker pool is
  respawned (``runtime.worker_respawns`` — a hung worker would otherwise
  occupy its slot forever), and the chunk is served through the
  always-correct vectorized linear scan (``runtime.chunk_fallbacks``) so
  the caller still gets exact results on time-ish;
* a chunk whose worker *raises* is retried up to ``max_retries`` times
  with linear backoff (``runtime.retries``); persistent errors either
  raise :class:`ShardWorkerError` — carrying the worker-side traceback,
  never a bare pool error — or, under ``on_error="fallback"`` (what
  :class:`~repro.runtime.service.RuntimeService` uses), fall back to the
  linear scan like timeouts do;
* every failure signal lands in the attached
  :class:`~repro.runtime.health.HealthMonitor` (when one is wired) so the
  service's health ladder reflects shard trouble.

Fault injection rides on the same guard: the runtime consults
``injector`` (default :data:`~repro.chaos.NULL_INJECTOR`, a no-op) at the
``shard.worker`` site inside each worker, so a chaos plan can crash,
hang or slow chunks deterministically — see :mod:`repro.chaos`.

**Telemetry fold-back.**  Replicas record into private recorders (a deep
copy cannot share the parent's lock, and a process worker cannot share
its memory); those recordings used to vanish.  Now every replica gets a
fresh :class:`~repro.runtime.telemetry.Telemetry` that shares the
parent's tracer/heat sinks (thread mode) or its own full stack (process
mode), and the data flows back via
:meth:`~repro.runtime.telemetry.Telemetry.drain` /
:meth:`~repro.runtime.telemetry.Telemetry.absorb`: per chunk result in
process mode, on :meth:`ShardedRuntime.collect` (called by the service
before every snapshot, and on close) in thread mode.  Span context
propagates into workers as an explicit parent
:class:`~repro.obs.tracing.SpanContext`, so chunk and engine spans nest
under the caller's batch span across thread and process boundaries.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..chaos.injector import NULL_INJECTOR
from ..core.classifier import Classifier, MatchResult
from .batch import linear_match_batch, match_batch
from .telemetry import NULL_RECORDER, Telemetry

__all__ = ["ShardedRuntime", "ShardWorkerError", "default_num_shards"]


def default_num_shards() -> int:
    """Worker count when unspecified: CPUs, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


class ShardWorkerError(RuntimeError):
    """A shard worker failed persistently; carries the worker-side
    traceback (thread or process) so the root cause is never hidden
    behind a bare pool error."""

    def __init__(self, message: str, worker_traceback: str = "") -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback

    def __str__(self) -> str:
        base = super().__str__()
        if self.worker_traceback:
            return f"{base}\n--- worker traceback ---\n{self.worker_traceback}"
        return base


def _rebind_recorder(engine, recorder) -> None:
    """Point an engine replica (and its software sub-engine) at a
    recorder.  Duck-typed: engines without recorder slots are left
    alone."""
    if hasattr(engine, "recorder"):
        engine.recorder = recorder
        software = getattr(engine, "software", None)
        if software is not None and hasattr(software, "recorder"):
            software.recorder = recorder


# -- process-mode plumbing (module level so workers can unpickle it) ----
_WORKER_ENGINE = None
_WORKER_RECORDER = NULL_RECORDER
_WORKER_INJECTOR = NULL_INJECTOR


def _init_process_worker(classifier, config, obs_spec=None, plan=None) -> None:
    global _WORKER_ENGINE, _WORKER_RECORDER, _WORKER_INJECTOR
    from ..saxpac.engine import SaxPacEngine

    if obs_spec is None:
        _WORKER_RECORDER = NULL_RECORDER
    else:
        # Worker-local tracer/heat; their recordings travel back in the
        # per-chunk TelemetryDelta.
        tracer = heat = None
        if obs_spec.get("tracing"):
            from ..obs.tracing import Tracer

            tracer = Tracer(capacity=obs_spec.get("span_capacity", 4096))
        if obs_spec.get("heat"):
            from ..obs.heat import HeatProfiler

            heat = HeatProfiler(
                sample_period=obs_spec.get("sample_period", 1)
            )
        _WORKER_RECORDER = Telemetry(tracer=tracer, heat=heat)
    if plan is None:
        _WORKER_INJECTOR = NULL_INJECTOR
    else:
        # Worker-local injector armed from the shared plan: fault
        # schedules apply per worker process (memory does not cross the
        # IPC boundary).
        from ..chaos.injector import FaultInjector

        _WORKER_INJECTOR = FaultInjector(plan)
    _WORKER_ENGINE = SaxPacEngine(
        classifier, config, recorder=_WORKER_RECORDER
    )


def _classify_chunk_in_worker(payload) -> Tuple[str, object, object]:
    """Classify one chunk; returns ``("ok", indices, drained telemetry
    delta or None)`` or ``("err", formatted traceback, None)`` — worker
    failures are *data*, so the parent always gets the real traceback
    instead of a broken pool.  ``payload`` is ``(chunk, shard, parent
    span context)``."""
    chunk, shard, parent_ctx = payload
    try:
        injector = _WORKER_INJECTOR
        if injector.enabled:
            injector.fire("shard.worker", shard=shard, pid=os.getpid())
        recorder = _WORKER_RECORDER
        if recorder.enabled:
            with recorder.span(
                "shard.chunk", parent=parent_ctx, shard=shard,
                packets=len(chunk), pid=os.getpid(),
            ):
                indices = [
                    result.index
                    for result in _WORKER_ENGINE.match_batch(chunk)
                ]
            delta = recorder.drain()
            # An empty delta still pickles as a full TelemetryDelta; send
            # the None sentinel instead so quiet chunks return cheap.
            return "ok", indices, (None if delta.is_empty() else delta)
        indices = [
            result.index for result in _WORKER_ENGINE.match_batch(chunk)
        ]
        return "ok", indices, None
    except Exception:
        return "err", traceback.format_exc(), None


class ShardedRuntime:
    """Partition batches across engine replicas and merge in order.

    Three construction styles:

    * ``ShardedRuntime(engine=built_engine)`` — thread workers over deep
      copies of an already-built engine (cheapest; the default);
    * ``ShardedRuntime(engine_source=lambda: runtime.engine)`` — thread
      workers that re-read the engine per chunk, sharing one instance;
      this is the hook :class:`~repro.runtime.swap.HotSwapRuntime` uses so
      shards observe hot swaps;
    * ``ShardedRuntime(classifier=k, config=cfg, mode="process")`` —
      process workers, each building a private engine at pool start.

    ``mode="shm"`` composes with the first and third styles: process
    workers like ``"process"``, but chunks travel through a shared-memory
    ring (:mod:`repro.runtime.shm`) instead of the pickle channel, and an
    ``engine_source`` is allowed — the runtime detects classifier changes
    per batch and ships one columnar snapshot to the workers
    (:meth:`~repro.runtime.shm.ShmWorkerPool.ship_swap`), so hot swaps
    work without rebuilding the pool.

    Guard knobs: ``deadline_ms`` (per-batch deadline; also what detects a
    dead/hung process worker), ``max_retries``/``backoff_s`` (bounded
    retry of erroring chunks), ``on_error`` (``"raise"`` surfaces a
    :class:`ShardWorkerError` after retries; ``"fallback"`` serves the
    chunk via the linear scan instead), ``injector`` (chaos hook,
    production default is a no-op), ``health`` (an optional
    :class:`~repro.runtime.health.HealthMonitor` receiving failure
    signals).
    """

    def __init__(
        self,
        engine=None,
        classifier: Optional[Classifier] = None,
        config=None,
        num_shards: Optional[int] = None,
        mode: str = "thread",
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
        if mode not in ("thread", "process", "shm"):
            raise ValueError(f"unknown shard mode {mode!r}")
        if on_error not in ("raise", "fallback"):
            raise ValueError(f"unknown on_error policy {on_error!r}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        sources = sum(
            x is not None for x in (engine, engine_source, classifier)
        )
        if sources != 1:
            raise ValueError(
                "pass exactly one of engine / engine_source / classifier"
            )
        if mode == "process" and classifier is None:
            raise ValueError(
                "process mode needs a classifier (engines do not cross "
                "process boundaries)"
            )
        if mode == "shm" and engine is not None:
            raise ValueError(
                "shm mode needs a classifier or engine_source (engines "
                "do not cross process boundaries)"
            )
        self.num_shards = (
            default_num_shards() if num_shards is None else num_shards
        )
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.mode = mode
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.deadline_ms = deadline_ms
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.on_error = on_error
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.health = health
        #: Failure signals (timeouts + worker errors) seen while serving
        #: the most recent batch; the service reads this to decide
        #: whether the batch counts as a health success.
        self.last_batch_faults = 0
        #: The most recent persistent worker failure (kept even when
        #: ``on_error="fallback"`` swallowed it), for diagnostics.
        self.last_worker_error: Optional[ShardWorkerError] = None
        self._pool = None
        self._executor = None
        self._pool_args = None
        self._shm_pool = None
        self._shipped_classifier: Optional[Classifier] = None
        self._replicas: List[object] = []
        self._replica_recorders: List[Telemetry] = []
        self._restore: List[Tuple[object, object]] = []
        self._source = engine_source
        if mode in ("process", "shm"):
            from ..saxpac.config import EngineConfig

            obs_spec = None
            if self.recorder.enabled:
                heat = self.recorder.heat
                obs_spec = {
                    "tracing": self.recorder.tracer is not None,
                    "heat": heat is not None,
                    "sample_period": (
                        heat.sample_period if heat is not None else 1
                    ),
                }
            plan = (
                copy.deepcopy(self.injector.plan)
                if getattr(self.injector, "plan", None) is not None
                else None
            )
            if mode == "shm":
                from .shm import ShmWorkerPool

                source_engine = None
                if classifier is None:
                    source_engine = engine_source()
                    classifier = source_engine.classifier
                    if config is None:
                        config = getattr(source_engine, "config", None)
                self.classifier = classifier
                self._shm_config = config or EngineConfig()
                self._shipped_classifier = classifier
                self._shm_pool = ShmWorkerPool(
                    classifier,
                    self._shm_config,
                    num_workers=self.num_shards,
                    capacity=shm_capacity,
                    depth=shm_depth,
                    obs_spec=obs_spec,
                    plan=plan,
                    engine=source_engine,
                )
                return
            self.classifier = classifier
            self._pool_args = (
                classifier, config or EngineConfig(), obs_spec, plan
            )
            self._spawn_pool()
        else:
            if classifier is not None:
                from ..saxpac.engine import SaxPacEngine

                engine = SaxPacEngine(classifier, config)
            if engine is not None:
                self.classifier = engine.classifier
                self._replicas = [engine] + [
                    copy.deepcopy(engine)
                    for _ in range(self.num_shards - 1)
                ]
                if self.recorder.enabled:
                    self._bind_replica_recorders()
            else:
                self.classifier = engine_source().classifier
            self._spawn_executor()

    def _spawn_pool(self) -> None:
        ctx = multiprocessing.get_context()
        self._pool = ctx.Pool(
            processes=self.num_shards,
            initializer=_init_process_worker,
            initargs=self._pool_args,
        )

    def _spawn_executor(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self.num_shards,
            thread_name_prefix="saxpac-shard",
        )

    def _respawn(self) -> None:
        """Replace the worker pool: hung/dead workers would otherwise
        occupy their slots forever.  Abandoned threads finish (or sleep
        out) on their own; a terminated process pool is reaped.  In shm
        mode the ring survives — workers are replaced in place and their
        in-flight slots reclaimed (``runtime.slots_reclaimed``)."""
        if self.mode == "shm":
            reclaimed = self._shm_pool.respawn_all()
            if reclaimed:
                self.recorder.incr("runtime.slots_reclaimed", reclaimed)
        elif self.mode == "process":
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
            self._spawn_pool()
        else:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._spawn_executor()
        self.recorder.incr("runtime.worker_respawns")
        tracer = self.recorder.tracer
        if tracer is not None:
            tracer.event("shard.respawn", mode=self.mode)

    def _bind_replica_recorders(self) -> None:
        """Give every replica a private recorder whose data folds back
        into :attr:`recorder` on :meth:`collect`.

        Deep-copied replicas carry a *copy* of the original recorder
        (stale data that must not be double-counted) — and the original
        engine may carry no recorder at all — so all replicas are rebound
        to fresh recorders sharing the parent's tracer/heat sinks (both
        are thread-safe by design); the original engine's binding is
        restored on :meth:`close`.
        """
        parent = self.recorder
        for replica in self._replicas:
            local = Telemetry(tracer=parent.tracer, heat=parent.heat)
            self._restore.append(
                (replica, getattr(replica, "recorder", None))
            )
            _rebind_recorder(replica, local)
            self._replica_recorders.append(local)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _chunks(
        self, headers: Sequence[Sequence[int]]
    ) -> List[Sequence[Sequence[int]]]:
        n = len(headers)
        pieces = min(self.num_shards, n)
        if self._shm_pool is not None:
            # A chunk must fit one ring slot; oversize batches split into
            # more pieces (round-robined over the workers by index).
            capacity = self._shm_pool.capacity
            pieces = max(pieces, -(-n // capacity))
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

    def _classify_on_replica(
        self, shard: int, chunk, parent_ctx=None
    ) -> List[int]:
        injector = self.injector
        if injector.enabled:
            injector.fire("shard.worker", shard=shard)
        if self._replicas:
            engine = self._replicas[shard]
        else:
            engine = self._source()  # shared, re-read per chunk (RCU)
        recorder = self.recorder
        if recorder.enabled:
            # Pool threads do not inherit the caller's span context, so
            # parent explicitly under the captured batch span.
            with recorder.span(
                "shard.chunk", parent=parent_ctx, shard=shard,
                packets=len(chunk),
            ):
                return [
                    result.index for result in match_batch(engine, chunk)
                ]
        return [result.index for result in match_batch(engine, chunk)]

    def _linear_chunk(self, chunk) -> List[int]:
        """Always-correct slow path for one chunk (deadline/crash
        degradation); answers equal the serving engines' by Theorem 1."""
        classifier = self._serving_classifier()
        return [
            result.index for result in linear_match_batch(classifier, chunk)
        ]

    # -- guarded chunk execution ---------------------------------------
    def _submit(self, index: int, chunk, parent_ctx):
        if self.mode == "shm":
            return self._shm_pool.submit(
                index % self.num_shards, chunk, parent_ctx
            )
        if self.mode == "process":
            return self._pool.apply_async(
                _classify_chunk_in_worker,
                ((chunk, index % self.num_shards, parent_ctx),),
            )
        return self._executor.submit(
            self._classify_on_replica,
            index % self.num_shards, chunk, parent_ctx,
        )

    def _await(self, handle, timeout_s):
        """Collect one chunk handle: ``("ok", indices)``, ``("err",
        traceback text)`` or ``("timeout", None)``."""
        if self.mode == "shm":
            status, value = self._shm_pool.wait(handle, timeout_s)
            if self.recorder.enabled and hasattr(self.recorder, "absorb"):
                for delta in self._shm_pool.take_deltas():
                    self.recorder.absorb(delta)
            return status, value
        if self.mode == "process":
            try:
                status, value, delta = handle.get(timeout=timeout_s)
            except multiprocessing.TimeoutError:
                return "timeout", None
            except Exception as exc:  # pool torn down mid-wait, etc.
                return "err", "".join(
                    traceback.format_exception(
                        type(exc), exc, exc.__traceback__
                    )
                )
            if status == "err":
                return "err", value
            if delta is not None and hasattr(self.recorder, "absorb"):
                self.recorder.absorb(delta)
            return "ok", value
        try:
            return "ok", handle.result(timeout=timeout_s)
        except FutureTimeoutError:
            return "timeout", None
        except Exception as exc:
            return "err", "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )

    def _record_failure(self, source: str) -> None:
        self.last_batch_faults += 1
        if self.health is not None:
            self.health.record_failure(source)

    def match_indices(self, headers: Sequence[Sequence[int]]) -> List[int]:
        """Winning rule indices for a batch, in input order.

        Chunks that time out against ``deadline_ms`` or whose workers
        fail persistently degrade to the linear reference (or raise, see
        ``on_error``); results are exact either way.
        """
        if not len(headers):
            return []
        if self._shm_pool is not None and self._source is not None:
            # Hot-swap detection: ship one columnar snapshot (with the
            # engine's decomposition) when the source engine's rule set
            # changed since the last batch.
            engine = self._source()
            current = engine.classifier
            if current is not self._shipped_classifier:
                self._shm_pool.ship_swap(current, self._shm_config, engine)
                self._shipped_classifier = current
                self.classifier = current
                self.recorder.incr("runtime.snapshot_ships")
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
        parts: List[Optional[List[int]]] = [None] * len(chunks)
        pending = list(range(len(chunks)))
        attempt = 0
        while pending:
            handles = {
                i: self._submit(i, chunks[i], parent_ctx) for i in pending
            }
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
                status, value = self._await(handle, remaining)
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
        if len(parts) == 1:
            return parts[0]
        if all(isinstance(part, np.ndarray) for part in parts):
            return np.concatenate(parts)  # shm fast path: no boxing
        merged: List[int] = []
        for part in parts:  # chunk order == input order
            merged.extend(
                part.tolist() if isinstance(part, np.ndarray) else part
            )
        return merged

    def match_batch(
        self, headers: Sequence[Sequence[int]]
    ) -> List[MatchResult]:
        """Batched classification across the shards; results identical to
        the unsharded engine."""
        if self._source is not None:
            # Shared-engine mode: the rule set moves under hot swaps, so
            # materialize against the engine that is serving right now.
            self.classifier = self._source().classifier
        return self.classifier.results_of(self.match_indices(headers))

    # ------------------------------------------------------------------
    # Telemetry fold-back
    # ------------------------------------------------------------------
    def collect(self) -> None:
        """Fold per-replica recordings into :attr:`recorder`.

        Thread-mode replicas record counters/histograms into private
        recorders (their spans/heat already land in the shared sinks);
        this drains them into the parent so a snapshot taken right after
        sees every shard's data.  Process-mode deltas are absorbed per
        chunk, so this is a no-op there.  Cheap and idempotent — the
        service calls it before every snapshot.
        """
        recorder = self.recorder
        if not hasattr(recorder, "absorb"):
            return
        if self._shm_pool is not None and recorder.enabled:
            for delta in self._shm_pool.take_deltas():
                recorder.absorb(delta)
        for local in self._replica_recorders:
            delta = local.drain(sinks=False)
            if not delta.is_empty():
                recorder.absorb(delta)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent); folds any remaining
        per-replica telemetry back and restores original recorder
        bindings.  Process workers are closed gracefully and ``join()``ed
        so their exit codes are reaped — no orphaned children."""
        self.collect()
        for engine, original in self._restore:
            if original is not None:
                _rebind_recorder(engine, original)
        self._restore = []
        self._replica_recorders = []
        if self._shm_pool is not None:
            self._shm_pool.close()
            self._shm_pool = None
        elif self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        elif self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardedRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
