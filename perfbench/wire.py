"""Driving ``repro serve`` from outside: process start, the open-loop
request generator and the ``/metrics`` scrape."""

from __future__ import annotations

import os
import re
import selectors
import socket
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .core import pc, stop_process, vm_hwm_mb

_PORT_RE = re.compile(r"^serving .* on [\d.]+:(\d+) ")
_METRICS_RE = re.compile(r"^metrics: (http://\S+)/metrics")
_PROM_PREFIX = "saxpac_"
#: How long an open-loop pass waits for stragglers after its last send;
#: a request still unanswered then has failed.
DRAIN_S = 5.0


class Server:
    """One ``python -m repro serve`` process (unsharded, defaults) with
    ``/metrics`` exposed, launched by the constructor; :meth:`wait_ready`
    gives launch-to-first-PING."""

    def __init__(self, src: str, rules_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.launched = pc()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", rules_path,
             "--port", "0", "--serve-metrics", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env,
        )
        self.port: Optional[int] = None
        self.metrics_url: Optional[str] = None

    def wait_ready(self) -> float:
        """Block until the port is printed and a PING answers; returns
        seconds from launch to that first PONG."""
        from repro.net.client import NetClient

        while self.port is None or self.metrics_url is None:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro serve exited early (code {self.proc.poll()})"
                )
            m = _PORT_RE.match(line)
            if m:
                self.port = int(m.group(1))
            m = _METRICS_RE.match(line)
            if m:
                self.metrics_url = m.group(1)
        with NetClient(port=self.port) as client:
            client.ping()
        return pc() - self.launched

    def counters(self) -> Dict[str, float]:
        """Counters from the server's Prometheus ``/metrics``, keyed by the
        telemetry name as exposed (``net_requests`` for ``net.requests``);
        a counter never incremented is absent."""
        with urllib.request.urlopen(self.metrics_url + "/metrics",
                                    timeout=10) as resp:
            text = resp.read().decode()
        out: Dict[str, float] = {}
        for line in text.splitlines():
            if line.startswith("#") or " " not in line:
                continue
            name, value = line.rsplit(" ", 1)
            if name.startswith(_PROM_PREFIX) and name.endswith("_total"):
                out[name[len(_PROM_PREFIX):-len("_total")]] = float(value)
        return out

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        stop_process(self.proc)


@dataclass
class OpenLoopResult:
    """One open-loop pass: per-request latency from its due time
    (``inf`` when never answered or refused), send lateness, answers."""

    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    answers: List[Optional[np.ndarray]] = field(default_factory=list)
    block_ids: List[int] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for lat in self.latencies if lat == float("inf"))

    def p(self, q: float) -> float:
        """Latency quantile in seconds (failures count as infinite)."""
        return float(np.quantile(np.asarray(self.latencies), q))

    def growing_backlog(self) -> bool:
        """True when the last quarter waited much longer than the first:
        the queue grew during the pass."""
        n = len(self.latencies)
        if n < 8:
            return False
        first = np.median(self.latencies[: n // 4])
        last = np.median(self.latencies[-(n // 4):])
        return bool(last > 2.0 * first + 0.001)


def open_loop(port: int, blocks: List[np.ndarray], rate: float,
              duration: float) -> OpenLoopResult:
    """Send 16-packet ``MATCH_REQUEST`` frames on one connection at a fixed
    rate, from one thread, regardless of replies; read replies in between
    sends.  Request ``i`` is due at ``t0 + i / rate`` and is timed from
    that due time, so a stall also charges the requests queued behind it.
    Frames are encoded before the clock starts."""
    from repro.net.protocol import (FrameDecoder, FrameType,
                                    decode_match_response, encode_match_request)

    n = max(1, int(rate * duration))
    ids = [i % len(blocks) for i in range(n)]
    frames = [encode_match_request(i + 1, blocks[b]) for i, b in enumerate(ids)]
    result = OpenLoopResult(block_ids=ids)
    done = [float("inf")] * n
    answers: List[Optional[np.ndarray]] = [None] * n
    lateness = [0.0] * n
    decoder = FrameDecoder()
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sel = selectors.DefaultSelector()
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sel.register(sock, selectors.EVENT_READ)
        received = 0
        sent = 0
        t0 = pc() + 0.002
        deadline = t0 + n / rate + DRAIN_S
        while received < n:
            now = pc()
            while sent < n and t0 + sent / rate <= now:
                sock.sendall(frames[sent])
                lateness[sent] = pc() - (t0 + sent / rate)
                sent += 1
                now = pc()
            if now >= deadline:
                break
            wait = (t0 + sent / rate - now) if sent < n else deadline - now
            for _key, _ev in sel.select(max(0.0, wait)):
                data = sock.recv(1 << 16)
                if not data:
                    raise ConnectionError("server closed the connection")
                stamp = pc()
                for frame in decoder.feed(data):
                    i = frame.request_id - 1
                    if not 0 <= i < n or done[i] != float("inf"):
                        continue
                    received += 1
                    if frame.type == FrameType.MATCH_RESPONSE:
                        done[i] = stamp
                        answers[i] = decode_match_response(frame)
                    else:
                        done[i] = -1.0  # answered, but refused
    finally:
        sel.close()
        sock.close()
    for i in range(n):
        due = t0 + i / rate
        ok = done[i] not in (float("inf"), -1.0)
        result.latencies.append(done[i] - due if ok else float("inf"))
    result.lateness = lateness
    result.answers = answers
    return result
