"""`NetServer`: the asyncio TCP serving layer over `RuntimeService`.

The server turns the in-process runtime into a wire service without
giving up the batched fast path:

* **framing** — every connection speaks the length-prefixed binary
  protocol of :mod:`repro.net.protocol`; packet blocks decode zero-copy
  into ``(count, k)`` uint32 arrays;
* **coalescing** — an adaptive micro-batcher merges small pipelined
  requests (across connections) into one contiguous lookup: requests
  queue while a lookup is in flight and are drained greedily when the
  batcher comes back around, with an optional ``coalesce_wait_ms``
  window that only arms once a batch is already forming, so an idle
  server adds no latency.  Merged requests bound by ``max_batch``
  packets;
* **backpressure** — each connection holds a ``max_inflight`` semaphore:
  when a client pipelines past it, the server stops reading that socket
  (TCP backpressure) instead of buffering unboundedly; the wrapped
  :class:`~repro.runtime.service.RuntimeService` still sheds at its
  ``shed_watermark``, which comes back as a retryable ``SHED`` error
  frame;
* **degradation, not crashes** — payload errors answer with ``ERROR``
  frames and keep the connection; framing errors answer then close;
  lookup failures answer ``INTERNAL``; the ``net.conn`` chaos site can
  tear down connections, slow responses, or corrupt outgoing frames;
* **graceful drain** — :meth:`NetServer.drain` stops accepting, answers
  queued requests, rejects new ones with ``DRAINING``, and closes every
  connection; in-flight accounting ends at zero.

Everything lands in telemetry under ``net.*`` (counters, the
``net.request`` / ``net.batch`` latency histograms, spans of the same
names) and is exported by the usual ``/metrics`` endpoint.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..obs.flightrec import FlightRecorder
from ..obs.stages import STAGES, StageWaterfall
from ..obs.tracing import SpanContext
from ..runtime.service import LoadShedError, RuntimeService
from .protocol import (
    FLAG_GENERATION,
    FLAG_TRACE,
    GEN_BLOCK,
    MAX_PAYLOAD,
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameType,
    PayloadError,
    ProtocolError,
    check_wire_schema,
    decode_match_request,
    encode_error,
    encode_frame,
    encode_match_response,
    split_trace_context,
)

__all__ = ["NetConfig", "NetServer", "ServerHandle", "serve_background"]


@dataclass(frozen=True)
class NetConfig:
    """Knobs of the wire layer (the runtime's knobs ride on the
    service's own :class:`~repro.runtime.service.RuntimeConfig`).

    ``max_batch`` caps how many packets one coalesced lookup may carry;
    ``coalesce_wait_ms`` bounds how long a forming batch may wait for
    more requests (0 disables the wait; requests still coalesce while a
    lookup occupies the executor); ``max_inflight`` bounds outstanding
    requests per connection before the server stops reading the socket;
    ``drain_grace_s`` bounds how long :meth:`NetServer.drain` waits for
    queued requests before tearing connections down.

    ``stage_waterfall`` / ``flight_recorder`` toggle the per-request
    observability layers (on by default; the overhead benchmark gate
    runs with them off as its baseline).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 8192
    coalesce_wait_ms: float = 0.5
    max_inflight: int = 32
    max_payload: int = MAX_PAYLOAD
    drain_grace_s: float = 5.0
    write_timeout_s: float = 10.0
    stage_waterfall: bool = True
    flight_recorder: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.coalesce_wait_ms < 0:
            raise ValueError("coalesce_wait_ms must be >= 0")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_payload < 1:
            raise ValueError("max_payload must be >= 1")
        if self.drain_grace_s < 0:
            raise ValueError("drain_grace_s must be >= 0")
        if self.write_timeout_s <= 0:
            raise ValueError("write_timeout_s must be > 0")


class _Pending:
    """One accepted match request waiting for (or inside) a lookup.

    ``span`` is the server-side request span (manual lifetime — it is
    born in the connection task and finished by the batch task, so it
    cannot be a contextvar-scoped ``with`` block); ``stage_s`` is the
    request's stage durations in :data:`~repro.obs.stages.STAGES` order
    (plain floats accumulated here and handed to the waterfall in one
    ``commit_row`` call at finalize — per-stage ring writes on the hot
    path cost too much); ``picked`` is when the batch loop dequeued it;
    ``hint`` upgrades the flight-recorder verdict
    (``deadline``/``chaos``) based on what the lookup absorbed.
    """

    __slots__ = (
        "conn",
        "request_id",
        "headers",
        "count",
        "corrupt",
        "enqueued",
        "span",
        "stage_s",
        "picked",
        "hint",
    )

    def __init__(self, conn, request_id, headers, corrupt, enqueued):
        self.conn = conn
        self.request_id = request_id
        self.headers = headers
        self.count = int(headers.shape[0])
        self.corrupt = corrupt
        self.enqueued = enqueued
        self.span = None
        self.stage_s = None
        self.picked = enqueued
        self.hint = None


#: Queue sentinel that stops the batch loop.
_SHUTDOWN = object()


class _Connection:
    """Per-connection state: decoder, write lock, inflight semaphore."""

    def __init__(self, server: "NetServer", reader, writer) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder(server.config.max_payload)
        self.semaphore = asyncio.Semaphore(server.config.max_inflight)
        self.write_lock = asyncio.Lock()
        self.open = True
        #: Negotiated per connection: stamp responses with the serving
        #: engine generation (the cluster tier's convergence signal).
        self.stamp_generation = False

    async def send(self, data: bytes) -> bool:
        """Write one frame; False when the peer is gone.

        The drain is bounded by ``write_timeout_s`` so one client that
        stops reading cannot head-of-line-block the batch loop — it gets
        aborted instead.
        """
        if not self.open:
            return False
        try:
            async with self.write_lock:
                self.writer.write(data)
                await asyncio.wait_for(
                    self.writer.drain(),
                    self.server.config.write_timeout_s,
                )
            return True
        except (OSError, RuntimeError, asyncio.TimeoutError):
            self.abort()
            return False

    def abort(self) -> None:
        """Tear the transport down immediately.

        ``shutdown(SHUT_RDWR)`` first: process shard workers forked
        after this connection was accepted hold duplicates of its fd,
        and closing only our copy would leave the TCP connection alive
        with the peer blocked on a socket that will never speak again.
        Shutdown acts on the connection itself, so the peer sees EOF no
        matter how many forked children still hold the fd.
        """
        if self.open:
            self.open = False
            try:
                sock = self.writer.get_extra_info("socket")
                if sock is not None:
                    sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.writer.transport.abort()
            except Exception:
                pass


class NetServer:
    """Asyncio TCP front end over one :class:`RuntimeService`."""

    def __init__(
        self,
        service: RuntimeService,
        config: Optional[NetConfig] = None,
        injector=None,
    ) -> None:
        self.service = service
        self.config = config or NetConfig()
        self.telemetry = service.telemetry
        self.injector = injector if injector is not None else service.injector
        schema = service.serving_classifier().schema
        check_wire_schema(schema)
        self.num_fields = len(schema)
        #: Per-request stage waterfall + anomaly flight recorder (both
        #: bounded, both optional via NetConfig).
        self.stages = (
            StageWaterfall() if self.config.stage_waterfall else None
        )
        self.flightrec = (
            FlightRecorder() if self.config.flight_recorder else None
        )
        service.net = self
        self._server: Optional[asyncio.base_events.Server] = None
        self._queue: Optional[asyncio.Queue] = None
        self._batch_task: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._connections: set = set()
        self._inflight = 0
        self._draining = False
        self._idle = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """Bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def inflight(self) -> int:
        """Requests accepted but not yet answered."""
        return self._inflight

    async def start(self) -> "NetServer":
        """Bind and start accepting connections."""
        self._queue = asyncio.Queue()
        self._idle = asyncio.Event()
        self._idle.set()
        self._batch_task = asyncio.ensure_future(self._batch_loop())
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
        )
        return self

    async def serve_forever(self) -> None:
        """Run until cancelled (``start`` must have been awaited)."""
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()

    async def quiesce(self, grace_s: Optional[float] = None) -> bool:
        """Temporarily stop serving: reject new requests with
        ``DRAINING`` (a replica-set client reroutes them) and wait for
        everything in flight to be answered.  Unlike :meth:`drain` the
        listener and connections stay up, so :meth:`resume` brings the
        replica straight back — this is one leg of a zero-downtime
        rolling swap.  True when in-flight hit zero within the grace."""
        self._draining = True
        self.telemetry.incr("net.quiesces")
        if self._idle is None:
            return True
        try:
            await asyncio.wait_for(
                self._idle.wait(),
                self.config.drain_grace_s if grace_s is None else grace_s,
            )
            return True
        except asyncio.TimeoutError:
            return False

    def resume(self) -> None:
        """Accept requests again after :meth:`quiesce`."""
        self._draining = False
        self.telemetry.incr("net.resumes")

    async def drain(self) -> bool:
        """Graceful shutdown: stop accepting, answer what is queued,
        close every connection.  True when everything in flight was
        answered within ``drain_grace_s``."""
        self._draining = True
        if self._queue is None:
            return True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        clean = True
        try:
            await asyncio.wait_for(
                self._idle.wait(), self.config.drain_grace_s
            )
        except asyncio.TimeoutError:
            clean = False
        await self._queue.put(_SHUTDOWN)
        if self._batch_task is not None:
            try:
                await asyncio.wait_for(
                    self._batch_task, self.config.drain_grace_s
                )
            except asyncio.TimeoutError:
                self._batch_task.cancel()
                clean = False
        for conn in list(self._connections):
            conn.abort()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self.telemetry.incr("net.drains")
        if not clean:
            self.telemetry.incr("net.dirty_drains")
        return clean

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        conn = _Connection(self, reader, writer)
        self._connections.add(conn)
        self.telemetry.incr("net.connections")
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await self._read_loop(conn)
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            self._connections.discard(conn)
            self.telemetry.incr("net.disconnects")
            conn.open = False
            try:
                writer.close()
            except Exception:
                pass

    async def _read_loop(self, conn: _Connection) -> None:
        while True:
            try:
                data = await conn.reader.read(1 << 16)
            except ConnectionError:
                return
            if not data:
                return
            try:
                frames = conn.decoder.feed(data)
            except ProtocolError as exc:
                # Framing is gone: apologise once, then hang up.
                self.telemetry.incr("net.protocol_errors")
                await conn.send(
                    encode_error(0, ErrorCode.PROTOCOL, str(exc))
                )
                conn.abort()
                return
            for frame in frames:
                if self.injector.enabled and not self._chaos_frame(conn):
                    return
                if not await self._dispatch(conn, frame):
                    return

    def _chaos_frame(self, conn: _Connection) -> bool:
        """Consult the ``net.conn`` chaos site; False tears the
        connection down (an injected disconnect)."""
        try:
            self.injector.fire("net.conn")
        except Exception:
            self.telemetry.incr("net.chaos_disconnects")
            conn.abort()
            return False
        return True

    async def _dispatch(self, conn: _Connection, frame: Frame) -> bool:
        """Route one frame; False ends the read loop."""
        if frame.type == FrameType.MATCH_REQUEST:
            return await self._accept_request(conn, frame)
        if frame.type == FrameType.PING:
            self.telemetry.incr("net.pings")
            # Trace negotiation: echo FLAG_TRACE back iff this server
            # can join trace contexts; a pre-extension server would pack
            # flags as 0, which tells the client not to send them.
            flags = (
                FLAG_TRACE
                if (frame.flags & FLAG_TRACE)
                and self.telemetry.tracer is not None
                else 0
            )
            payload = b""
            if frame.flags & FLAG_GENERATION:
                # Generation negotiation: echo the flag with the current
                # engine generation as payload, and stamp every response
                # on this connection from here on.
                flags |= FLAG_GENERATION
                payload = GEN_BLOCK.pack(self.service.swap.generation)
                conn.stamp_generation = True
            return await conn.send(
                encode_frame(
                    FrameType.PONG, frame.request_id, payload, flags=flags
                )
            )
        self.telemetry.incr("net.protocol_errors")
        return await conn.send(
            encode_error(
                frame.request_id,
                ErrorCode.PROTOCOL,
                f"unexpected frame type {int(frame.type)}",
            )
        )

    async def _accept_request(self, conn: _Connection, frame: Frame) -> bool:
        telemetry = self.telemetry
        decode_t0 = time.perf_counter()
        trace = None
        try:
            if frame.flags & FLAG_TRACE:
                trace, frame = split_trace_context(frame)
            block = decode_match_request(frame)
        except PayloadError as exc:
            telemetry.incr("net.protocol_errors")
            return await conn.send(
                encode_error(frame.request_id, ErrorCode.PROTOCOL, str(exc))
            )
        decode_s = time.perf_counter() - decode_t0
        if block.shape[1] != self.num_fields:
            telemetry.incr("net.protocol_errors")
            return await conn.send(
                encode_error(
                    frame.request_id,
                    ErrorCode.PROTOCOL,
                    f"request carries {block.shape[1]} fields; "
                    f"schema has {self.num_fields}",
                )
            )
        if self._draining:
            telemetry.incr("net.drain_rejects")
            if self.flightrec is not None:
                self.flightrec.note(
                    frame.request_id,
                    trace.trace_id if trace is not None else 0,
                    "drain",
                    state=self._state_snapshot(),
                )
            return await conn.send(
                encode_error(
                    frame.request_id,
                    ErrorCode.DRAINING,
                    "server is draining",
                )
            )
        corrupt = self.injector.enabled and self.injector.corrupted(
            "net.conn"
        )
        # Backpressure: when this connection has max_inflight requests
        # outstanding, stop here — which stops the read loop, which
        # stops reading the socket.
        await conn.semaphore.acquire()
        self._inflight += 1
        self._idle.clear()
        telemetry.incr("net.requests")
        telemetry.incr("net.request_packets", block.shape[0])
        pending = _Pending(
            conn, frame.request_id, block, corrupt, time.perf_counter()
        )
        tracer = telemetry.tracer
        if tracer is not None:
            # Joined server span: parented under the client's request
            # span when the frame carried a trace context, a fresh local
            # root otherwise.  Manual lifetime — finished by the batch
            # task in _finalize, which a contextvar token cannot cross.
            parent = (
                SpanContext(trace.trace_id, trace.parent_span_id)
                if trace is not None
                else None
            )
            pending.span = tracer.start_span(
                "net.request",
                parent=parent,
                request_id=frame.request_id,
                packets=pending.count,
            )
        if self.stages is not None:
            # STAGES order: decode, queue_wait, coalesce_wait, lookup,
            # encode, write.
            pending.stage_s = [decode_s, 0.0, 0.0, 0.0, 0.0, 0.0]
        await self._queue.put(pending)
        return True

    # ------------------------------------------------------------------
    # Coalescing batch loop
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        queue = self._queue
        max_batch = self.config.max_batch
        wait_s = self.config.coalesce_wait_ms / 1e3
        loop = asyncio.get_running_loop()
        stop = False
        while not stop:
            item = await queue.get()
            if item is _SHUTDOWN:
                return
            item.picked = time.perf_counter()
            batch: List[_Pending] = [item]
            packets = item.count
            # Greedy merge of everything already queued (requests that
            # arrived while the previous lookup ran).
            while packets < max_batch:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is _SHUTDOWN:
                    stop = True
                    break
                item.picked = time.perf_counter()
                batch.append(item)
                packets += item.count
            # Adaptive window: once a batch is forming, briefly hold the
            # door for stragglers; an idle stream (batch of one) is
            # served immediately, so light traffic pays no added delay.
            if not stop and wait_s > 0 and 1 < len(batch):
                deadline = loop.time() + wait_s
                while packets < max_batch:
                    timeout = deadline - loop.time()
                    if timeout <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(queue.get(), timeout)
                    except asyncio.TimeoutError:
                        break
                    if item is _SHUTDOWN:
                        stop = True
                        break
                    item.picked = time.perf_counter()
                    batch.append(item)
                    packets += item.count
            await self._serve_batch(batch)
            if self._inflight == 0:
                self._idle.set()

    def _run_lookup(self, block, parent_ctx):
        """Executor-thread body of one coalesced lookup.  The default
        executor does not propagate contextvars, so the batch span is
        re-activated explicitly: runtime.batch / shard.chunk /
        engine.group_probe spans nest under it.

        Index-only path: the wire encodes bare rule indices, so this asks
        the service for indices and never materializes MatchResult
        objects — with ``--shards N`` the coalesced block goes
        straight from the decoder's uint32 view into the shared ring and
        the answers come back as one index array, zero intermediate
        copies."""
        tracer = self.telemetry.tracer
        if tracer is None or parent_ctx is None:
            return self.service.match_indices(block)
        token = tracer.activate(parent_ctx)
        try:
            return self.service.match_indices(block)
        finally:
            tracer.deactivate(token)

    async def _serve_batch(self, batch: List[_Pending]) -> None:
        telemetry = self.telemetry
        loop = asyncio.get_running_loop()
        block = (
            batch[0].headers
            if len(batch) == 1
            else np.concatenate([p.headers for p in batch])
        )
        telemetry.incr("net.lookups")
        telemetry.incr("net.lookup_packets", block.shape[0])
        if len(batch) > 1:
            telemetry.incr("net.coalesced_requests", len(batch) - 1)
        if self.stages is not None:
            now = time.perf_counter()
            for pending in batch:
                stage_s = pending.stage_s
                if stage_s is not None:
                    stage_s[1] = pending.picked - pending.enqueued
                    stage_s[2] = now - pending.picked
        # Span-tree policy: a coalesced lookup serves many requests but
        # a span has exactly one parent, so the batch/lookup subtree
        # parents under the *first* traced request of the batch (the one
        # that opened it); siblings keep their own net.request spans.
        lead = next((p.span for p in batch if p.span is not None), None)
        watch = self.flightrec is not None
        deadline_before = (
            telemetry.counter("runtime.deadline_timeouts") if watch else 0
        )
        chaos_before = (
            self.injector.total_injected()
            if watch and self.injector.enabled
            else 0
        )
        start = time.perf_counter()
        try:
            with telemetry.span(
                "net.batch",
                parent=lead.context if lead is not None else None,
                requests=len(batch),
                packets=int(block.shape[0]),
            ) as batch_span:
                results = await loop.run_in_executor(
                    None,
                    self._run_lookup,
                    block,
                    batch_span.context if batch_span is not None else None,
                )
        except LoadShedError as exc:
            telemetry.incr("net.shed", len(batch))
            await self._fail_batch(batch, ErrorCode.SHED, str(exc))
            return
        except Exception as exc:
            telemetry.incr("net.lookup_errors", len(batch))
            await self._fail_batch(batch, ErrorCode.INTERNAL, str(exc))
            return
        lookup_s = time.perf_counter() - start
        telemetry.observe("net.batch", lookup_s)
        hint = None
        if watch:
            if (
                telemetry.counter("runtime.deadline_timeouts")
                > deadline_before
            ):
                hint = "deadline"
            elif (
                self.injector.enabled
                and self.injector.total_injected() > chaos_before
            ):
                hint = "chaos"
        for pending in batch:
            pending.hint = hint
            if pending.stage_s is not None:
                pending.stage_s[3] = lookup_s
        indices = np.asarray(results, dtype="<u4")
        offset = 0
        for pending in batch:
            await self._respond_match(
                pending, indices[offset : offset + pending.count]
            )
            offset += pending.count

    async def _respond_match(self, pending: _Pending, indices) -> None:
        telemetry = self.telemetry
        encode_t0 = time.perf_counter()
        # The stamp reads the generation at response time, which may
        # already exceed the generation that served the lookup — safe,
        # because generations are monotonic and read-your-writes only
        # needs a lower bound on what this replica has converged to.
        data = encode_match_response(
            pending.request_id,
            indices,
            generation=(
                self.service.swap.generation
                if pending.conn.stamp_generation
                else None
            ),
        )
        if pending.corrupt:
            # Chaos corrupt-frame: flip the magic so the client's
            # decoder rejects the stream and reconnects.
            telemetry.incr("net.corrupted_frames")
            data = b"\x00" + data[1:]
        write_t0 = time.perf_counter()
        sent = await pending.conn.send(data)
        done = time.perf_counter()
        if sent:
            telemetry.incr("net.responses")
        stage_s = pending.stage_s
        if stage_s is not None:
            stage_s[4] = write_t0 - encode_t0
            stage_s[5] = done - write_t0
        total_s = done - pending.enqueued
        telemetry.observe("net.request", total_s)
        verdict = pending.hint or ("chaos" if pending.corrupt else "ok")
        self._finalize(pending, verdict, total_s)
        self._finish(pending)

    #: ERROR-frame code -> flight-recorder verdict.
    _VERDICTS = {
        ErrorCode.SHED: "shed",
        ErrorCode.INTERNAL: "error",
        ErrorCode.DRAINING: "drain",
    }

    async def _fail_batch(
        self, batch: List[_Pending], code: ErrorCode, message: str
    ) -> None:
        verdict = self._VERDICTS.get(code, "error")
        for pending in batch:
            await pending.conn.send(
                encode_error(pending.request_id, code, message)
            )
            total_s = time.perf_counter() - pending.enqueued
            self.telemetry.observe("net.request", total_s)
            self._finalize(pending, verdict, total_s, error=message)
            self._finish(pending)

    def _state_snapshot(self) -> dict:
        """Health/backend state frozen into a flight-recorder entry."""
        service = self.service
        return {
            "health": service.health.state.label,
            "net_inflight": self._inflight,
            "generation": service.swap.generation,
            "draining": self._draining,
        }

    def _finalize(
        self,
        pending: _Pending,
        verdict: str,
        total_s: float,
        error: Optional[str] = None,
    ) -> None:
        """Close out one answered request: finish its server span,
        commit its waterfall row, offer it to the flight recorder."""
        tracer = self.telemetry.tracer
        span = pending.span
        if span is not None:
            span.tags["verdict"] = verdict
            if error:
                span.tags["error"] = error
            tracer.finish(span)
        stage_s = pending.stage_s
        if stage_s is not None:
            self.stages.commit_row(
                pending.request_id,
                span.trace_id if span is not None else 0,
                stage_s,
            )
        recorder = self.flightrec
        if recorder is None:
            return
        # Harvests are lazy closures: the recorder only invokes them for
        # requests it actually retains, so the sampled-out happy path
        # pays one note() call and nothing else.
        spans_fn = None
        if span is not None:
            trace_id = span.trace_id

            def spans_fn():
                return [
                    s.as_dict()
                    for s in tracer.spans()
                    if s.trace_id == trace_id
                ]

        stages_fn = None
        if stage_s is not None:

            def stages_fn():
                return {
                    name: stage_s[i]
                    for i, name in enumerate(STAGES)
                    if stage_s[i] > 0.0
                }

        tags = {"packets": pending.count}
        if error:
            tags["error"] = error
        recorder.note(
            pending.request_id,
            span.trace_id if span is not None else 0,
            verdict,
            total_s=total_s,
            stages=stages_fn,
            spans=spans_fn,
            state=self._state_snapshot,
            **tags,
        )

    def _finish(self, pending: _Pending) -> None:
        pending.conn.semaphore.release()
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()


class ServerHandle:
    """A `NetServer` running on a background event-loop thread.

    What tests, benchmarks and the CLI client path use to stand a server
    up without going async themselves: ``handle.port`` to connect,
    ``handle.stop()`` (or the context manager) to drain and join.
    """

    def __init__(self, server: NetServer, loop, thread) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread
        self.drained: Optional[bool] = None

    @property
    def port(self) -> int:
        """Bound TCP port."""
        return self.server.port

    def stop(self, timeout: float = 10.0) -> bool:
        """Drain the server, stop the loop, join the thread."""
        if self.drained is None:
            future = asyncio.run_coroutine_threadsafe(
                self.server.drain(), self.loop
            )
            try:
                self.drained = future.result(timeout)
            except Exception:
                self.drained = False
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout)
        return bool(self.drained)

    def kill(self, timeout: float = 10.0) -> None:
        """Tear the server down *without* draining: abort every
        connection mid-request, close the listener, stop the loop.
        What a crashing replica looks like to its clients — the chaos
        soak uses this; production shutdown wants :meth:`stop`."""
        if self.drained is not None:
            return
        self.drained = False
        server = self.server

        def _slam() -> None:
            if server._server is not None:
                server._server.close()
            for conn in list(server._connections):
                conn.abort()
            # Cancel everything, then stop on the *next* cycle so the
            # cancellations are delivered before the loop closes.
            for task in asyncio.all_tasks(self.loop):
                task.cancel()
            self.loop.call_soon(self.loop.stop)

        self.loop.call_soon_threadsafe(_slam)
        self.thread.join(timeout)

    def quiesce(self, timeout: float = 10.0) -> bool:
        """Thread-safe :meth:`NetServer.quiesce` (see there)."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.quiesce(timeout), self.loop
        )
        return future.result(timeout + 5.0)

    def resume(self) -> None:
        """Thread-safe :meth:`NetServer.resume`."""
        self.loop.call_soon_threadsafe(self.server.resume)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_background(
    service: RuntimeService,
    config: Optional[NetConfig] = None,
    injector=None,
) -> ServerHandle:
    """Start a :class:`NetServer` on a fresh daemon thread and return a
    :class:`ServerHandle` once the port is bound."""
    server = NetServer(service, config, injector=injector)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: List[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _boot() -> None:
            try:
                await server.start()
            except BaseException as exc:
                failure.append(exc)
            finally:
                started.set()

        loop.run_until_complete(_boot())
        if not failure:
            loop.run_forever()
        loop.close()

    thread = threading.Thread(
        target=_run, name="saxpac-net-server", daemon=True
    )
    thread.start()
    started.wait(10.0)
    if failure:
        thread.join(5.0)
        raise failure[0]
    return ServerHandle(server, loop, thread)
