"""Shared-memory sharding: persistent workers over shared numpy rings.

This is the transport under :class:`~repro.runtime.shard.ShardedRuntime`.
A worker pool that pickles each chunk pays the full IPC tax on every
batch: the packet list is pickled in, the engine answers are pickled
back, and each respawn re-pickles the whole classifier.  This module
removes all of it, following the write-once/read-in-place design that
NuevoMatch (arXiv 2002.07584) uses for its parallel independent sets and
the update/data-path split RVH (arXiv 1909.07159) argues for:

* one ``multiprocessing.shared_memory`` segment holds a **slot ring**:
  preallocated uint32 packet slabs, uint32 result slabs and an int64
  control block per slot;
* the dispatcher writes a header block *once* into a slot and bumps the
  slot's submit sequence counter; the owning worker classifies **in
  place** through a ``np.frombuffer`` view and writes bare rule indices
  into the slot's result slab; completion is the done sequence counter
  catching up — no pickled return values anywhere on the hot path;
* a hot swap ships through a per-worker control pipe as the
  incremental rebuild's **deltas** (:func:`pack_delta`: changed
  positions, the added rules as columns, their placement), which each
  worker applies to its own engine with
  :meth:`~repro.saxpac.engine.SaxPacEngine.apply`.  Only a spawn, a
  respawn, a new lineage (a from-scratch rebuild) or an engine without a
  decomposition ships a full snapshot, packed by :func:`pack_snapshot`
  into the columnar ``(N, k)`` bounds form instead of 10k pickled
  ``Rule`` objects.  One sender thread per pool writes the pipes in
  FIFO order, so a caller never waits on a sleeping worker to drain a
  large message.  Slots are generation-stamped so chunks submitted
  against the old engine are still answered by it;
* trace context crosses the boundary as two bare int64 control words
  (:class:`~repro.obs.tracing.SpanContext` is two ints), and telemetry
  deltas ride a status queue only when observability is enabled.

**Slot lifecycle.**  A slot belongs to exactly one worker (static
ownership: worker ``w`` owns ``depth`` consecutive slots).  The
dispatcher claims a free slot (``seq_done >= seq_submit``), fills
``packets[slot, :count]``, stamps count/generation/trace words, then
publishes with ``seq_submit = seq_done + 1``.  The worker answers by
filling ``results[slot, :count]``, setting the status word and
publishing ``seq_done = seq_submit``.  Sequence counters only grow, so
slot reuse (ring wraparound) needs no cleanup.  The counters are aligned
8-byte words, and each side writes its payload strictly before the
sequence store that publishes it.

**Doorbells.**  Nobody polls.  Each worker has a "work" and a "done"
semaphore: the dispatcher rings work after publishing a slot (and after
sending a control message), the worker rings done after publishing a
result, and each side sleeps on its bell between rounds.  A bell only
says "look again": the sequence words stay the authority, so a stale or
stolen ring costs one extra check, never a wrong answer.  The waits time
out, and the dispatcher runs its dead-worker and deadline checks on the
timeout.

**Failure semantics.**  A worker that dies (chaos ``shard.worker`` crash
specs call ``os._exit``, like a real segfault) is detected by the
dispatcher's wait loop; its in-flight slots are *reclaimed* (status ←
``RECLAIMED``, ``seq_done`` forced up) so they surface as retryable
errors, and a fresh worker is spawned on the same slot region with the
current snapshot.  Worker-side exceptions mark the slot ``ERROR`` and
ship the traceback on the status queue — never a broken pool.  The
deadline/retry/health ladder stays where it always lived, in
:class:`~repro.runtime.shard.ShardedRuntime`.

**Fault plans.**  Chaos at the worker sites (``shard.worker`` and
``engine.lookup``) is decided by the dispatcher, against the caller's
one injector, so budgets, ``after`` counts and tallies stay fleet-wide.
The decisions ride two slot words as plan indices, and the worker
enacts them (:func:`~repro.chaos.injector.inject`) before it runs the
engine.  The workers hold the plan only to look specs up; a changed
plan ships like a swap, as a generation-stamped control message.
"""

from __future__ import annotations

import os
import queue
import stat
import threading
import time
import traceback
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.mgr import Group
from ..core.actions import Action, ActionKind
from ..core.classifier import Classifier
from ..core.fields import FieldKind, FieldSchema, FieldSpec
from ..core.intervals import Interval
from ..core.rule import Rule

__all__ = [
    "ShmRing",
    "ShmWorkerPool",
    "check_shm_schema",
    "pack_delta",
    "pack_snapshot",
    "unpack_decomposition",
    "unpack_delta",
    "unpack_snapshot",
]

# Control words per slot (int64 each).  DELTA_FLAG marks slots whose
# worker enqueued a telemetry delta on the status queue before
# publishing SEQ_DONE, so the dispatcher knows to wait for it (the
# queue's feeder thread can lag the shared-memory store).
# FAULT_SHARD/FAULT_LOOKUP carry the dispatcher's chaos decisions for
# the chunk: the plan index of the spec to enact plus one, 0 for none.
SLOT_WORDS = 10
(
    SEQ_SUBMIT, SEQ_DONE, COUNT, GEN, STATUS, TRACE_ID, SPAN_ID,
    DELTA_FLAG, FAULT_SHARD, FAULT_LOOKUP,
) = range(SLOT_WORDS)

STATUS_OK = 0
STATUS_ERROR = 1
STATUS_RECLAIMED = 2

#: Exit code of a worker killed by an injected ``shard.worker`` crash
#: (distinguishable in logs from real faults, which exit negative).
CRASH_EXIT_CODE = 17

SNAPSHOT_VERSION = 3

#: How long an idle worker sleeps on its work bell before re-checking
#: its control pipe (bounds how long it outlives a vanished dispatcher).
IDLE_WAIT_S = 0.1
#: How long a waiting dispatcher sleeps on a done bell between its
#: dead-worker and deadline checks.
DONE_WAIT_S = 0.01


def check_shm_schema(schema: FieldSchema) -> None:
    """Reject a schema the ring cannot carry, naming the wide fields:
    headers travel as uint32 slabs, so every field must fit 32 bits."""
    wide = [spec.name for spec in schema if spec.width > 32]
    if wide:
        raise ValueError(
            f"shm shards carry headers as uint32 slabs; schema fields "
            f"{wide} are wider than 32 bits (serve this schema with one "
            f"shard)"
        )


# ---------------------------------------------------------------------------
# Columnar snapshot packing
# ---------------------------------------------------------------------------

def pack_snapshot(
    classifier: Classifier, config, engine=None
) -> Dict[str, object]:
    """Pack a classifier + engine config for shipping to workers.

    Rules travel as two contiguous ``(N, k)`` int64 bound matrices (the
    columnar store layout — the body rows come straight from the cached
    :meth:`~repro.core.classifier.Classifier.bounds_arrays`) plus flat
    action/name columns, instead of ``N`` pickled :class:`Rule` object
    graphs.  For the 10k-rule acl workload this is ~1 MB of array bytes
    versus tens of MB of pickle, and unpacking is array reshapes plus one
    flat pass of ``Rule`` construction.

    ``engine`` (serving ``classifier``) adds its decomposition — each
    group's fields and members as int64 bytes, plus the D indices — so
    workers compile lookup structures directly instead of re-running the
    disjointness and grouping stages.  Each worker derives a group's
    structure from its field count, as every build does.
    """
    lows, highs = classifier.bounds_arrays()
    if lows.dtype == object:
        raise ValueError(
            "shm snapshots need int64-packable bounds; a field wider "
            "than 62 bits cannot ride the columnar form"
        )
    catch = classifier.catch_all
    tail_lo = np.array([[iv.low for iv in catch.intervals]], dtype=np.int64)
    tail_hi = np.array([[iv.high for iv in catch.intervals]], dtype=np.int64)
    all_lo = np.concatenate([np.asarray(lows, dtype=np.int64), tail_lo])
    all_hi = np.concatenate([np.asarray(highs, dtype=np.int64), tail_hi])
    rules = classifier.rules
    return {
        "version": SNAPSHOT_VERSION,
        "n": len(rules),
        "k": classifier.num_fields,
        "schema": [
            (spec.name, spec.width, spec.kind.value)
            for spec in classifier.schema
        ],
        "lows": np.ascontiguousarray(all_lo).tobytes(),
        "highs": np.ascontiguousarray(all_hi).tobytes(),
        **_rule_columns(rules),
        "config": config,
        "decomposition": _pack_decomposition(engine),
        "lineage": getattr(engine, "lineage", None),
    }


def _rule_columns(rules) -> Dict[str, object]:
    """The action and name columns of ``rules``."""
    return {
        "actions": [
            (rule.action.kind.value, rule.action.payload) for rule in rules
        ],
        "names": {
            i: rule.name for i, rule in enumerate(rules) if rule.name is not None
        },
    }


def _int64_bytes(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.int64).tobytes()


def _int64s(raw: bytes) -> np.ndarray:
    return np.frombuffer(raw, dtype=np.int64)


def pack_delta(delta, k: int) -> Dict[str, object]:
    """An :class:`~repro.saxpac.engine.EngineDelta` over a ``k``-field
    schema in shippable form: positions and the added rules' bounds as
    int64 bytes, their actions and names as flat columns, the placement
    as member bytes.  A one-rule delta is a few hundred bytes, against a
    full snapshot's hundreds of kilobytes."""
    intervals = [iv for rule in delta.rules for iv in rule.intervals]
    return {
        "base": delta.base,
        "k": k,
        "removed": _int64_bytes(delta.removed),
        "added": _int64_bytes(delta.added),
        "lows": _int64_bytes([iv.low for iv in intervals]),
        "highs": _int64_bytes([iv.high for iv in intervals]),
        **_rule_columns(delta.rules),
        "groups": [
            (tuple(fields), _int64_bytes(members))
            for fields, members in delta.groups
        ],
        "d": _int64_bytes(delta.d),
    }


def unpack_delta(payload: Dict[str, object]):
    """Inverse of :func:`pack_delta`."""
    from ..saxpac.engine import EngineDelta

    k = payload["k"]
    lows = _int64s(payload["lows"]).reshape(-1, k)
    highs = _int64s(payload["highs"]).reshape(-1, k)
    return EngineDelta(
        base=tuple(payload["base"]),
        removed=_int64s(payload["removed"]),
        added=_int64s(payload["added"]),
        rules=tuple(
            _column_rules(lows, highs, payload["actions"], payload["names"])
        ),
        groups=tuple(
            (fields, _int64s(members)) for fields, members in payload["groups"]
        ),
        d=_int64s(payload["d"]),
    )


def _pack_decomposition(engine) -> Optional[Dict[str, object]]:
    """The engine's decomposition in shippable form; None for no engine
    or one without groups (such as a linear fallback)."""
    decompose = getattr(engine, "decomposition", None)
    if decompose is None:
        return None
    groups, d_indices = decompose()
    return {
        "groups": [
            (
                tuple(group.fields),
                np.asarray(group.rule_indices, dtype=np.int64).tobytes(),
            )
            for group in groups
        ],
        "d": np.asarray(d_indices, dtype=np.int64).tobytes(),
    }


def unpack_decomposition(payload: Dict[str, object]):
    """The shipped ``(groups, d_indices)`` of a snapshot, or None when it
    carries none."""
    packed = payload.get("decomposition")
    if packed is None:
        return None
    groups = tuple(
        Group(
            rule_indices=tuple(
                np.frombuffer(members, dtype=np.int64).tolist()
            ),
            fields=fields,
        )
        for fields, members in packed["groups"]
    )
    d_indices = tuple(np.frombuffer(packed["d"], dtype=np.int64).tolist())
    return groups, d_indices


def unpack_snapshot(payload: Dict[str, object]) -> Tuple[Classifier, object]:
    """Inverse of :func:`pack_snapshot`: rebuild ``(classifier, config)``.

    The reconstructed classifier is decision-identical to the packed one
    (same bounds, same order, same catch-all); ``Rule`` object identity
    is *not* preserved — irrelevant on the worker side, which only ever
    reports rule indices back.
    """
    if payload.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported shm snapshot version {payload.get('version')!r}"
        )
    n = payload["n"]
    k = payload["k"]
    lows = np.frombuffer(payload["lows"], dtype=np.int64).reshape(n, k)
    highs = np.frombuffer(payload["highs"], dtype=np.int64).reshape(n, k)
    schema = FieldSchema(
        tuple(
            FieldSpec(name, width, FieldKind(kind))
            for name, width, kind in payload["schema"]
        )
    )
    rules = _column_rules(lows, highs, payload["actions"], payload["names"])
    classifier = Classifier(schema, rules, ensure_catch_all=False)
    # The body rows of the shipped matrices are the classifier's bounds
    # arrays; seed its cache instead of rebuilding them from the rules.
    classifier._bounds = (lows[:-1], highs[:-1])
    return classifier, payload["config"]


def _column_rules(lows, highs, actions, names) -> List[Rule]:
    """Rules from ``(N, k)`` bound columns and action/name columns."""
    k = lows.shape[1]
    # Rules are immutable, so equal intervals and actions share one
    # object: a rule set repeats most of them (wildcards, port ranges,
    # verbs), and a worker's memory is mostly these objects.
    intervals: Dict[Tuple[int, int], Interval] = {}

    def shared(key: Tuple[int, int]) -> Interval:
        found = intervals.get(key)
        if found is None:
            found = intervals[key] = Interval(*key)
        return found

    columns = [
        [
            shared(key)
            for key in zip(lows[:, j].tolist(), highs[:, j].tolist())
        ]
        for j in range(k)
    ]
    verbs: Dict[object, Action] = {}
    rules: List[Rule] = []
    for i, (kind, action_payload) in enumerate(actions):
        try:
            action = verbs.get((kind, action_payload))
        except TypeError:  # unhashable payload: not shared
            action = Action(ActionKind(kind), action_payload)
        if action is None:
            action = verbs[(kind, action_payload)] = Action(
                ActionKind(kind), action_payload
            )
        rules.append(
            Rule(
                tuple(column[i] for column in columns),
                action,
                names.get(i),
            )
        )
    return rules


# ---------------------------------------------------------------------------
# The shared ring
# ---------------------------------------------------------------------------

class ShmRing:
    """Numpy views over one shared-memory segment.

    Layout (all offsets 8-byte aligned):

    ========================  =======================================
    ``ctrl``                  int64 ``(num_slots, 8)`` control words
    ``worker_state``          int64 ``(num_workers,)`` ready flags
    ``results``               uint32 ``(num_slots, capacity)``
    ``packets``               uint32 ``(num_slots, capacity, k)``
    ========================  =======================================
    """

    def __init__(
        self,
        num_workers: int,
        depth: int,
        capacity: int,
        k: int,
        name: Optional[str] = None,
        create: bool = True,
    ) -> None:
        self.num_workers = num_workers
        self.depth = depth
        self.capacity = capacity
        self.k = k
        self.num_slots = num_workers * depth
        ctrl_bytes = self.num_slots * SLOT_WORDS * 8
        state_bytes = num_workers * 8
        result_bytes = self.num_slots * capacity * 4
        packet_bytes = self.num_slots * capacity * k * 4
        total = ctrl_bytes + state_bytes + result_bytes + packet_bytes
        # Pad the uint32 region so every section stays 8-byte aligned.
        total += (-total) % 8
        if create:
            self.shm = SharedMemory(create=True, size=total, name=name)
        else:
            # Attaching also registers with the shared resource tracker;
            # that is idempotent (the tracker cache is a set) and the
            # creating side's unlink() unregisters once for everyone.
            self.shm = SharedMemory(name=name)
        buf = self.shm.buf
        off = 0
        self.ctrl = np.frombuffer(
            buf, dtype=np.int64, count=self.num_slots * SLOT_WORDS, offset=off
        ).reshape(self.num_slots, SLOT_WORDS)
        off += ctrl_bytes
        self.worker_state = np.frombuffer(
            buf, dtype=np.int64, count=num_workers, offset=off
        )
        off += state_bytes
        self.results = np.frombuffer(
            buf, dtype=np.uint32, count=self.num_slots * capacity, offset=off
        ).reshape(self.num_slots, capacity)
        off += result_bytes
        self.packets = np.frombuffer(
            buf, dtype=np.uint32,
            count=self.num_slots * capacity * k, offset=off,
        ).reshape(self.num_slots, capacity, k)
        if create:
            self.ctrl[:] = 0
            self.worker_state[:] = 0

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self.shm.name

    def slots_of(self, worker: int) -> range:
        """The slot indices owned by ``worker``."""
        return range(worker * self.depth, (worker + 1) * self.depth)

    def close(self, unlink: bool = False) -> None:
        """Drop the numpy views and close (and optionally unlink) the
        segment.  Idempotent."""
        if self.shm is None:
            return
        # The views hold exported buffers; SharedMemory.close() raises
        # BufferError while any are alive.
        self.ctrl = self.worker_state = self.results = self.packets = None
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass
        if unlink:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self.shm = None


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _build_worker_recorder(obs_spec):
    """Worker-local telemetry stack; its recordings travel back to the
    dispatcher as drained deltas."""
    from .telemetry import NULL_RECORDER, Telemetry

    if obs_spec is None:
        return NULL_RECORDER
    tracer = heat = None
    if obs_spec.get("tracing"):
        from ..obs.tracing import Tracer

        tracer = Tracer(capacity=obs_spec.get("span_capacity", 4096))
    if obs_spec.get("heat"):
        from ..obs.heat import HeatProfiler

        heat = HeatProfiler(sample_period=obs_spec.get("sample_period", 1))
    return Telemetry(tracer=tracer, heat=heat)


def _pin_to_cpu(worker_id: int) -> None:
    """Pin worker ``w`` to the w-th allowed CPU (round-robin).

    A doorbell wake-up is a synchronous hand-off, and the scheduler
    places the woken worker next to its waker: unpinned, the workers of
    one batch pile onto the dispatcher's CPU and run one after another.
    Pinning spreads them the way the slot ownership already does."""
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover - non-Linux
        return
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[worker_id % len(cpus)]})


def _close_inherited_sockets() -> None:
    """Close every socket a forked worker inherited from its parent.

    A worker never uses a socket, but the copy it holds keeps the
    parent's connection open: a server that aborts its clients (a
    killed replica) would leave them waiting on a peer that neither
    answers nor closes."""
    if not os.path.isdir("/proc/self/fd"):  # pragma: no cover - non-Linux
        return
    for name in os.listdir("/proc/self/fd"):
        fd = int(name)
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # the listing's own directory fd, now closed
            pass


def _build_engine(snapshot, recorder):
    from ..saxpac.engine import SaxPacEngine

    classifier, config = unpack_snapshot(snapshot)
    decomposition = unpack_decomposition(snapshot)
    if decomposition is None:
        return SaxPacEngine(classifier, config, recorder=recorder)
    groups, d_indices = decomposition
    return SaxPacEngine.from_decomposition(
        classifier, config, groups, d_indices, recorder=recorder,
        lineage=snapshot["lineage"],
    )


def _apply_deltas(engine, packed):
    """``engine`` with the shipped deltas applied, composed into one
    apply (a worker that fell behind catches up at the cost of one).
    The worker drops the engine's record of them: only the parent ships
    deltas, so a worker needs its engine's lineage position, not the
    history."""
    from ..saxpac.engine import compose_deltas

    deltas = [unpack_delta(payload) for payload in packed]
    engine = engine.apply(
        compose_deltas(deltas, len(engine.classifier.rules) - 1)
    )
    engine.deltas = ()
    return engine


def _shm_worker_main(
    ring_name: str,
    num_workers: int,
    depth: int,
    capacity: int,
    k: int,
    worker_id: int,
    conn,
    status_queue,
    bells,
    snapshot,
    generation: int,
    obs_spec,
    plan,
) -> None:
    """Worker entry point: serve owned slots in place, sleeping on the
    work bell between rounds.

    ``conn`` receives ``("swap", gen, snapshot)``, ``("deltas", gen,
    (mergeable, [packed deltas]))``, ``("plan", gen, plan)``, ``("inspect", gen,
    None)`` (report the newest engine's decomposition) and ``("stop",)``
    control messages; ``status_queue``
    carries readiness, per-slot error tracebacks and (when observability
    is on) telemetry deltas back to the dispatcher; ``bells`` is the
    worker's ``(work, done)`` semaphore pair.  ``plan`` is the fault
    plan the slots' fault words index into (None without chaos).
    """
    recorder = _build_worker_recorder(obs_spec)
    _close_inherited_sockets()
    _pin_to_cpu(worker_id)
    ring = ShmRing(
        num_workers, depth, capacity, k, name=ring_name, create=False
    )
    try:
        # The serving loop runs in its own frame so its slot/row views
        # die on return and ring.close() can release the buffer cleanly.
        _shm_worker_loop(
            ring, worker_id, conn, status_queue, bells, snapshot,
            generation, recorder, plan,
        )
    finally:
        ring.close()


def _shm_worker_loop(
    ring: ShmRing,
    worker_id: int,
    conn,
    status_queue,
    bells,
    snapshot,
    generation: int,
    recorder,
    plan,
) -> None:
    from ..chaos.injector import InjectedCrash, inject
    from ..obs.tracing import SpanContext

    engines: Dict[int, object] = {}
    try:
        engines[generation] = _build_engine(snapshot, recorder)
    except Exception:
        status_queue.put(
            ("build_error", worker_id, traceback.format_exc())
        )
        return
    ring.worker_state[worker_id] = 1
    status_queue.put(("ready", worker_id, generation))

    def apply(msg) -> bool:
        """Apply a swap, deltas or plan message; each opens a
        generation.  False when the engine could not be built: the
        worker then exits, and the dispatcher respawns it from a full
        snapshot of the current engine."""
        nonlocal plan
        kind, new_gen, payload = msg
        if kind == "inspect":
            newest = max(engines)
            status_queue.put(
                ("decomposition", worker_id, newest,
                 _pack_decomposition(engines[newest]))
            )
            return True
        try:
            if kind == "swap":
                engines[new_gen] = _build_engine(payload, recorder)
            elif kind == "deltas":
                engines[new_gen] = _apply_deltas(
                    engines[max(engines)], payload[1]
                )
            else:
                # A changed fault plan: same engine, new spec table.
                plan = payload
                engines[new_gen] = engines[max(engines)]
        except Exception:
            status_queue.put(
                ("build_error", worker_id, traceback.format_exc())
            )
            return False
        # Keep the previous generation so in-flight old-snapshot
        # slots are still answered by the engine they were aimed at.
        for stale in sorted(engines)[:-2]:
            del engines[stale]
        return True

    held: List[tuple] = []

    def receive():
        try:
            return conn.recv()
        except (EOFError, OSError):
            return ("stop",)

    def control():
        """The next control message; a closed pipe means stop.  A deltas
        message absorbs every mergeable one queued behind it, so a
        worker that fell behind catches up with one composed rebuild."""
        msg = held.pop() if held else receive()
        if msg[0] != "deltas":
            return msg
        _, generation, (_, packed) = msg
        packed = list(packed)
        while not held and conn.poll():
            following = receive()
            if following[0] == "deltas" and following[2][0]:
                generation = following[1]
                packed.extend(following[2][1])
            else:
                held.append(following)
        return ("deltas", generation, (False, packed))

    work_bell, done_bell = bells
    ctrl = ring.ctrl
    my_slots = list(ring.slots_of(worker_id))
    pid = os.getpid()
    while True:
        worked = False
        for slot in my_slots:
            row = ctrl[slot]
            seq = int(row[SEQ_SUBMIT])
            if seq <= int(row[SEQ_DONE]):
                continue
            worked = True
            slot_gen = int(row[GEN])
            while slot_gen not in engines and max(engines) < slot_gen:
                # The dispatcher ships the swap before stamping any
                # slot with the new generation, so it is in the pipe.
                msg = control()
                if msg[0] == "stop" or not apply(msg):
                    return
            engine = engines.get(slot_gen) or engines[max(engines)]
            count = int(row[COUNT])
            view = ring.packets[slot, :count]
            try:
                fault = int(row[FAULT_SHARD])
                if fault:
                    inject(
                        plan.specs[fault - 1], "shard.worker",
                        shard=worker_id, pid=pid,
                    )
                fault = int(row[FAULT_LOOKUP])
                if fault:
                    # Where the engine's own site fires in-process:
                    # before it touches any state.
                    inject(plan.specs[fault - 1], "engine.lookup", batch=count)
                if recorder.enabled:
                    trace_id = int(row[TRACE_ID])
                    parent = (
                        SpanContext(trace_id, int(row[SPAN_ID]))
                        if trace_id
                        else None
                    )
                    with recorder.span(
                        "shard.chunk", parent=parent, shard=worker_id,
                        packets=count, pid=pid,
                    ):
                        indices = engine.match_batch_indices(view)
                    delta = recorder.drain()
                    if not delta.is_empty():
                        # Flag before the put and both before SEQ_DONE:
                        # whoever observes the completed slot knows one
                        # delta for it is (at least) in the queue pipe.
                        row[DELTA_FLAG] = 1
                        status_queue.put(("delta", delta))
                else:
                    indices = engine.match_batch_indices(view)
                ring.results[slot, :count] = indices
                row[STATUS] = STATUS_OK
            except InjectedCrash:
                # A crash spec kills the worker like a real segfault
                # would; the dispatcher reclaims this slot.  The
                # traceback is flushed first so the caller's error
                # names the cause.
                status_queue.put(
                    ("error", worker_id, slot, seq, traceback.format_exc())
                )
                status_queue.close()
                status_queue.join_thread()
                os._exit(CRASH_EXIT_CODE)
            except Exception:
                row[STATUS] = STATUS_ERROR
                status_queue.put(
                    (
                        "error",
                        worker_id,
                        slot,
                        seq,
                        traceback.format_exc(),
                    )
                )
            # Publish strictly after the result/status stores.
            row[SEQ_DONE] = seq
            done_bell.release()
        if worked:
            continue
        # Idle: control messages first (the sender rings the work bell
        # after writing one, so deltas apply before the next chunk needs
        # the new engine), then sleep on the bell.
        if held or conn.poll():
            msg = control()
            if msg[0] == "stop" or not apply(msg):
                return
            continue
        work_bell.acquire(timeout=IDLE_WAIT_S)


# ---------------------------------------------------------------------------
# Dispatcher side
# ---------------------------------------------------------------------------

class ShmWorkerPool:
    """Owns the ring, the worker processes and their control channels.

    The public surface mirrors what
    :class:`~repro.runtime.shard.ShardedRuntime` needs from a pool:
    :meth:`submit` / :meth:`wait` per chunk, :meth:`ship_deltas` (or
    :meth:`ship_swap`, a full snapshot) once per hot swap,
    :meth:`respawn_all` for the deadline ladder, and :meth:`close`.

    Control messages leave through one sender thread, in the order they
    were shipped: a message larger than the pipe buffer blocks until its
    worker reads it, and the worker may be asleep on its bell, so the
    caller only queues it.  A worker blocks on its pipe until the
    generation its next slot names arrives.
    """

    def __init__(
        self,
        classifier: Classifier,
        config,
        num_workers: int,
        capacity: int = 16384,
        depth: int = 4,
        obs_spec=None,
        plan=None,
        spawn_timeout_s: float = 180.0,
        engine=None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        check_shm_schema(classifier.schema)
        self.num_workers = num_workers
        self.capacity = capacity
        self.depth = depth
        self.generation = 0
        self.slots_reclaimed = 0
        self._deltas_flagged = 0
        self._deltas_received = 0
        self._ctx = get_context()
        self._lock = threading.Lock()
        #: What a (re)spawned worker starts from: the latest shipped
        #: engine, packed lazily (deltas leave the old packing stale).
        self._config = config
        self._classifier = classifier
        self._engine = engine
        self._snapshot: Optional[Dict[str, object]] = None
        #: A slot was stamped with the current generation.
        self._stamped = False
        self._obs_spec = obs_spec
        self._plan = plan
        self._spawn_timeout_s = spawn_timeout_s
        self.ring = ShmRing(
            num_workers, depth, capacity, len(classifier.schema)
        )
        self.status_queue = self._ctx.Queue()
        self._errors: Dict[Tuple[int, int], str] = {}
        self._deltas: List[object] = []
        self._inspected: Dict[int, Tuple[int, object]] = {}
        #: slot -> (seq, count) of a completed-or-in-flight submit whose
        #: results the dispatcher has not read yet.  A slot may only be
        #: reused after its previous results are either waited on or
        #: stashed (see ``_stash``) — otherwise the worker would
        #: overwrite the results slab under an outstanding handle.
        self._unread: Dict[int, Tuple[int, int]] = {}
        #: (slot, seq) -> (status, results, had_delta_flag) copied out
        #: by ``submit`` when it reclaims a finished slot before the
        #: owner of the previous handle got to ``wait`` on it.
        self._stash: Dict[Tuple[int, int], Tuple[int, object, bool]] = {}
        self._workers: List[object] = [None] * num_workers
        self._conns: List[object] = [None] * num_workers
        #: Per-worker (work, done) doorbells; they outlive respawns.
        self._bells = [
            (self._ctx.Semaphore(0), self._ctx.Semaphore(0))
            for _ in range(num_workers)
        ]
        #: FIFO of (conn, work bell, message) for the sender thread; a
        #: None message closes the conn, a None item stops the thread.
        self._outbox: "queue.SimpleQueue" = queue.SimpleQueue()
        self._sender = threading.Thread(
            target=self._send_loop, name="shm-control", daemon=True
        )
        self._sender.start()
        try:
            for w in range(num_workers):
                self._spawn(w)
            self._wait_ready(range(num_workers))
        except Exception:
            self.close()
            raise

    # -- spawning ------------------------------------------------------
    def _spawn(self, worker: int) -> None:
        if self._snapshot is None:
            self._snapshot = pack_snapshot(
                self._classifier, self._config, self._engine
            )
        recv, send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_shm_worker_main,
            args=(
                self.ring.name,
                self.num_workers,
                self.depth,
                self.capacity,
                self.ring.k,
                worker,
                recv,
                self.status_queue,
                self._bells[worker],
                self._snapshot,
                self.generation,
                self._obs_spec,
                self._plan,
            ),
            daemon=True,
        )
        self.ring.worker_state[worker] = 0
        process.start()
        recv.close()  # worker's end; the parent keeps the send side
        self._workers[worker] = process
        self._conns[worker] = send

    def _wait_ready(self, workers) -> None:
        """Block until every listed worker built its engine (the spawn
        barrier keeps engine build time out of serving latency and
        surfaces build errors at construction)."""
        deadline = time.monotonic() + self._spawn_timeout_s
        state = self.ring.worker_state
        pending = set(workers)
        while pending:
            self._drain_status()
            for w in list(pending):
                if state[w]:
                    pending.discard(w)
                    continue
                process = self._workers[w]
                if process is not None and not process.is_alive():
                    raise RuntimeError(
                        f"shm worker {w} died during spawn:\n"
                        + self._errors.pop((-1, w), "(no traceback)")
                    )
            if not pending:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"shm workers {sorted(pending)} not ready after "
                    f"{self._spawn_timeout_s}s"
                )
            time.sleep(0.002)

    # -- status channel ------------------------------------------------
    def _drain_status(self, wait_s: float = 0.0) -> None:
        """Pull everything off the status queue; with ``wait_s``, first
        block up to that long for one item."""
        import queue as _queue

        while True:
            try:
                item = self.status_queue.get(wait_s > 0, wait_s or None)
            except (_queue.Empty, OSError, EOFError):
                return
            wait_s = 0.0
            kind = item[0]
            if kind == "error":
                _, worker, slot, seq, tb = item
                self._errors[(slot, seq)] = tb
            elif kind == "build_error":
                _, worker, tb = item
                self._errors[(-1, worker)] = tb
            elif kind == "delta":
                self._deltas.append(item[1])
                self._deltas_received += 1
            elif kind == "decomposition":
                _, worker, generation, packed = item
                self._inspected[worker] = (
                    generation,
                    unpack_decomposition({"decomposition": packed}),
                )
            # "ready" items only matter for their queue-drain side effect;
            # readiness itself is the shared worker_state word.

    def _await_deltas(self, timeout_s: float = 1.0) -> None:
        """Drain the status queue until every flagged delta arrived.

        Flags and receipts are both global monotonic counts, so one
        blocked waiter also satisfies earlier flagged slots.  Bounded:
        a worker that died between the flag store and the queue flush
        must not hang the dispatcher."""
        deadline = time.monotonic() + timeout_s
        while self._deltas_received < self._deltas_flagged:
            remaining = deadline - time.monotonic()
            if remaining <= 0:  # pragma: no cover - crash race
                self._deltas_flagged = self._deltas_received
                return
            self._drain_status(wait_s=min(DONE_WAIT_S, remaining))

    def take_deltas(self) -> List[object]:
        """Telemetry deltas shipped by workers since the last call."""
        self._drain_status()
        with self._lock:
            deltas, self._deltas = self._deltas, []
        return deltas

    # -- hot swap ------------------------------------------------------
    def ship_swap(self, classifier: Classifier, config, engine=None) -> int:
        """Pack ``classifier`` (with ``engine``'s decomposition and
        lineage, when given) once and ship it to every worker; returns
        the new generation.  Subsequent submits stamp slots with it, so
        workers upgrade before serving any new-generation chunk while
        old-generation slots still get the old engine."""
        snapshot = pack_snapshot(classifier, config, engine)
        with self._lock:
            self._classifier, self._config = classifier, config
            self._engine, self._snapshot = engine, snapshot
            return self._ship("swap", snapshot)

    def ship_deltas(self, deltas, engine) -> int:
        """Ship the incremental rebuilds that take the workers' engine to
        ``engine`` (its lineage's deltas they lack, in order) as one
        control message; returns the new generation.  Each worker
        applies them to its own engine, as a swap would upgrade it."""
        k = engine.classifier.num_fields
        packed = [pack_delta(delta, k) for delta in deltas]
        with self._lock:
            self._classifier, self._engine = engine.classifier, engine
            self._snapshot = None
            # With no slot stamped since the last message, no slot can
            # ever name the generation between them: a worker may apply
            # both as one composed rebuild.
            return self._ship("deltas", (not self._stamped, packed))

    def ship_plan(self, plan) -> int:
        """Ship a changed fault plan (specs armed on it, or a new one)
        to every worker; returns the new generation.  As with a swap,
        a worker takes the plan before it serves any chunk whose fault
        words index into it."""
        with self._lock:
            self._plan = plan
            return self._ship("plan", plan)

    def _ship(self, kind: str, payload) -> int:
        """Queue a generation-opening control message for every worker
        (caller holds the lock)."""
        self.generation += 1
        self._stamped = False
        for worker, conn in enumerate(self._conns):
            if conn is not None:
                self._outbox.put(
                    (conn, self._bells[worker][0],
                     (kind, self.generation, payload))
                )
        return self.generation

    def decompositions(self, timeout_s: float = 30.0) -> Dict[int, object]:
        """worker -> ``(generation, (groups, d_indices))`` of the newest
        engine each worker holds once it has read every message shipped
        so far: a diagnostic that shows the workers' decompositions
        equal the parent's."""
        for worker, process in enumerate(self._workers):
            if process is None or not process.is_alive():
                self.respawn_worker(worker)
        with self._lock:
            self._inspected = {}
            for worker, conn in enumerate(self._conns):
                self._outbox.put(
                    (conn, self._bells[worker][0],
                     ("inspect", self.generation, None))
                )
        deadline = time.monotonic() + timeout_s
        while len(self._inspected) < self.num_workers:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"workers {sorted(set(range(self.num_workers)) - set(self._inspected))} "
                    f"did not report within {timeout_s}s"
                )
            self._drain_status(wait_s=DONE_WAIT_S)
        return dict(self._inspected)

    def _send_loop(self) -> None:
        """The sender thread: write queued control messages in order,
        ringing each worker's work bell after its message is written."""
        while True:
            item = self._outbox.get()
            if item is None:
                return
            conn, bell, msg = item
            try:
                if msg is None:
                    conn.close()
                else:
                    conn.send(msg)
            except (OSError, ValueError):
                pass  # dead worker; its respawn gets the current state
            if bell is not None:
                bell.release()

    # -- data path -----------------------------------------------------
    def submit(
        self,
        worker: int,
        chunk,
        trace_ctx=None,
        faults: Tuple[int, int] = (0, 0),
        claim_timeout_s: float = 60.0,
    ) -> Tuple[int, int, int, int]:
        """Write ``chunk`` into a free slot of ``worker`` and publish it.

        ``faults`` are the chaos decisions for the chunk, as the
        ``FAULT_SHARD``/``FAULT_LOOKUP`` words (plan index + 1, 0 = none).

        Returns the wait handle ``(worker, slot, seq, count)``.  Blocks
        (briefly) when all of the worker's slots are in flight; a worker
        found dead while waiting is respawned, which frees its slots.
        """
        block = np.ascontiguousarray(np.asarray(chunk, dtype=np.uint32))
        if block.ndim == 1:
            block = block.reshape(1, -1)
        count = block.shape[0]
        if count > self.capacity:
            raise ValueError(
                f"chunk of {count} packets exceeds slot capacity "
                f"{self.capacity}"
            )
        ctrl = self.ring.ctrl
        deadline = time.monotonic() + claim_timeout_s
        while True:
            with self._lock:
                for slot in self.ring.slots_of(worker):
                    row = ctrl[slot]
                    if row[SEQ_DONE] >= row[SEQ_SUBMIT]:
                        seq = int(row[SEQ_SUBMIT]) + 1
                        prior = self._unread.pop(slot, None)
                        if prior is not None:
                            # The worker finished this slot but its
                            # handle was not waited on yet (a batch with
                            # more chunks than ring slots submits them
                            # all up front): copy the results out before
                            # the slab is overwritten.
                            prior_seq, prior_count = prior
                            self._stash[(slot, prior_seq)] = (
                                int(row[STATUS]),
                                self.ring.results[slot, :prior_count].copy(),
                                bool(row[DELTA_FLAG]),
                            )
                        self.ring.packets[slot, :count] = block
                        row[COUNT] = count
                        row[GEN] = self.generation
                        self._stamped = True
                        row[STATUS] = STATUS_OK
                        if trace_ctx is not None:
                            row[TRACE_ID] = trace_ctx.trace_id
                            row[SPAN_ID] = trace_ctx.span_id
                        else:
                            row[TRACE_ID] = 0
                            row[SPAN_ID] = 0
                        row[DELTA_FLAG] = 0
                        row[FAULT_SHARD], row[FAULT_LOOKUP] = faults
                        self._unread[slot] = (seq, count)
                        # Publish strictly after the payload stores.
                        row[SEQ_SUBMIT] = seq
                        self._bells[worker][0].release()
                        return worker, slot, seq, count
            process = self._workers[worker]
            if process is None or not process.is_alive():
                self.respawn_worker(worker)
                continue
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"no free ring slot on worker {worker} after "
                    f"{claim_timeout_s}s (depth={self.depth})"
                )
            time.sleep(0.0002)

    def wait(
        self, handle: Tuple[int, int, int, int], timeout_s: Optional[float]
    ):
        """Wait for a submitted slot: ``("ok", uint32 indices)``,
        ``("err", traceback text)`` or ``("timeout", None)``.  The
        indices keep the result slab's uint32 form — the form the wire
        encodes — rather than widening every answer to int64.

        Detects a dead worker mid-wait, reclaims its slots and respawns
        it — the caller sees a retryable error, never a hang."""
        worker, slot, seq, count = handle
        ctrl = self.ring.ctrl
        row = ctrl[slot]
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        done_bell = self._bells[worker][1]
        rung = False
        while row[SEQ_DONE] < seq:
            # A ring may belong to another slot of this worker; the loop
            # re-checks the sequence word either way.
            if done_bell.acquire(timeout=DONE_WAIT_S):
                rung = True
                continue
            # Keep the status pipe flowing: a worker flushing its queue
            # (a delta, or a crash traceback before it exits) must not
            # block on a full pipe while we wait on it.
            self._drain_status()
            process = self._workers[worker]
            if process is None or not process.is_alive():
                self.respawn_worker(worker)
                break
            if deadline is not None and time.monotonic() > deadline:
                with self._lock:
                    # Abandoned handle: nobody will read these results,
                    # so let a later submit reuse the slot freely.
                    if self._unread.get(slot, (None, 0))[0] == seq:
                        del self._unread[slot]
                return "timeout", None
        if not rung:
            # Already done on arrival: take this completion's ring so
            # rings left unheard do not pile up on the bell.
            done_bell.acquire(False)
        with self._lock:
            stashed = self._stash.pop((slot, seq), None)
            if stashed is not None:
                # A later submit reclaimed the slot first and copied
                # these results out of the slab (see ``submit``).
                status, results, had_flag = stashed
            else:
                done = row[SEQ_DONE] >= seq
                status = int(row[STATUS]) if done else -1
                had_flag = bool(row[DELTA_FLAG]) and done
                results = (
                    self.ring.results[slot, :count].copy()
                    if done and status == STATUS_OK
                    else None
                )
                if self._unread.get(slot, (None, 0))[0] == seq:
                    del self._unread[slot]
        if had_flag:
            # The worker enqueued a telemetry delta for this slot before
            # publishing completion; the queue feeder thread may still
            # be flushing it, so wait (bounded) until it lands — this
            # keeps collect()-after-batch deterministic.
            self._deltas_flagged += 1
            self._await_deltas()
        if status == STATUS_OK and results is not None:
            return "ok", results
        self._drain_status()
        if status == STATUS_ERROR:
            # The worker queued the traceback before publishing the
            # error; the queue feeder thread may still be flushing it.
            deadline = time.monotonic() + 1.0
            while (
                (slot, seq) not in self._errors
                and time.monotonic() < deadline
            ):
                self._drain_status(wait_s=DONE_WAIT_S)
        detail = self._errors.pop(
            (slot, seq),
            f"shm worker {worker} lost slot {slot} (seq {seq}, "
            f"status {status})",
        )
        return "err", detail

    # -- failure handling ---------------------------------------------
    def _reclaim(self, worker: int) -> int:
        """Force-complete the in-flight slots of ``worker`` so waiters
        see a retryable error instead of a hang; returns how many."""
        ctrl = self.ring.ctrl
        reclaimed = 0
        for slot in self.ring.slots_of(worker):
            row = ctrl[slot]
            if row[SEQ_DONE] < row[SEQ_SUBMIT]:
                row[STATUS] = STATUS_RECLAIMED
                row[SEQ_DONE] = row[SEQ_SUBMIT]
                reclaimed += 1
        self.slots_reclaimed += reclaimed
        return reclaimed

    def respawn_worker(self, worker: int) -> int:
        """Replace one (dead or hung) worker; returns reclaimed slots."""
        with self._lock:
            process = self._workers[worker]
            if process is not None:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5.0)
            conn = self._conns[worker]
            if conn is not None:
                # Closed by the sender, after any message still queued
                # for it: the sender may be writing to it right now.
                self._outbox.put((conn, None, None))
            reclaimed = self._reclaim(worker)
            self._spawn(worker)
            return reclaimed

    def respawn_all(self) -> int:
        """The deadline ladder's big hammer: replace every worker and
        reclaim all in-flight slots; returns the reclaimed count."""
        reclaimed = 0
        for worker in range(self.num_workers):
            reclaimed += self.respawn_worker(worker)
        return reclaimed

    def workers_alive(self) -> int:
        """How many worker processes are currently alive."""
        return sum(
            1
            for process in self._workers
            if process is not None and process.is_alive()
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop the workers, reap them, release the segment.  Idempotent."""
        for worker, conn in enumerate(self._conns):
            if conn is not None:
                self._outbox.put((conn, self._bells[worker][0], ("stop",)))
                self._outbox.put((conn, None, None))
        self._outbox.put(None)
        self._sender.join(timeout=2.0)
        for process in self._workers:
            if process is not None:
                process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=2.0)
        # A worker that never read its pipe held the sender up; the
        # dead worker's pipe errors out, so the sender finishes now.
        self._sender.join(timeout=2.0)
        self._workers = []
        self._conns = []
        try:
            self.status_queue.close()
            self.status_queue.join_thread()
        except (OSError, AttributeError):  # pragma: no cover
            pass
        if self.ring is not None:
            self.ring.close(unlink=True)
            self.ring = None
