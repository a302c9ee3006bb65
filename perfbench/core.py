"""Shared machinery of the benchmark: spans, statistics, the linear oracle,
memory probes, provenance and the per-run result record.

Nothing here imports the program under test at module level, so the
runner can report a missing source tree before anything else happens.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

pc = time.perf_counter


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; ``q`` in [0, 1]."""
    if len(values) == 0:
        raise ValueError("quantile of an empty sample")
    return float(np.quantile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span:
    """One timed call: name, start/end (perf_counter ns), parent span id
    and the request id shared by every span of one operation."""

    __slots__ = ("tracer", "name", "span_id", "parent", "request_id",
                 "args", "start", "end")

    def __init__(self, tracer, name, span_id, parent, request_id, args):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.request_id = request_id
        self.args = args
        self.start = 0
        self.end = 0

    def __enter__(self) -> "Span":
        self.tracer._stack.append(self.span_id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter_ns()
        self.tracer._stack.pop()
        self.tracer.spans.append(self)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    """In-memory span recorder around the benchmark's own calls into the
    program.  Single-threaded by design (the driving thread is the only
    one that opens spans); spans are written out once, at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._request_of: Dict[int, Optional[int]] = {}
        self._next_id = 1

    def span(self, name: str, request_id: Optional[int] = None, **args) -> Span:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        if request_id is None and parent:
            request_id = self._request_of.get(parent)
        span = Span(self, name, span_id, parent, request_id, args)
        self._request_of[span_id] = request_id
        return span

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self time (seconds).  Self time
        is the span's duration minus the union of its children's
        intervals (children of one thread never overlap, but the union is
        taken anyway)."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append(s)
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            covered = 0
            cursor = s.start
            for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
                lo = max(c.start, cursor)
                if c.end > lo:
                    covered += c.end - lo
                    cursor = c.end
            row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += (s.end - s.start - covered) * 1e-9
        return out

    def write_chrome(self, path: str, metadata: Dict[str, object]) -> None:
        """All spans as one Chrome trace-event file (``chrome://tracing``,
        Perfetto), with the per-name self times under ``otherData``."""
        if not self.spans:
            return
        origin = min(s.start for s in self.spans)
        pid = os.getpid()
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            args = dict(s.args)
            args.update(span_id=s.span_id, parent=s.parent,
                        request_id=s.request_id)
            events.append({
                "name": s.name, "ph": "X", "pid": pid, "tid": 1,
                "ts": (s.start - origin) / 1000.0,
                "dur": (s.end - s.start) / 1000.0,
                "args": args,
            })
        other = dict(metadata)
        other["self_time"] = self.self_times()
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"traceEvents": events, "otherData": other}, fh)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Linear first-match oracle
# ----------------------------------------------------------------------
def rule_key(rule) -> tuple:
    """What decides whether a rule matches a header: its intervals."""
    return tuple((iv.low, iv.high) for iv in rule.intervals)


class Oracle:
    """First-match reference over a fixed packet set.

    Which rules match which packet is worked out once, by plain interval
    containment, for every rule the run may ever serve, and kept as one
    sorted list of matching rules per packet.  The answer for a
    classifier is then, per packet, the matching rule that sits first in
    that classifier's priority order.  It shares no code with the engine,
    and it runs only after the clock stops.
    """

    def __init__(self, headers: np.ndarray, rules: Iterable) -> None:
        headers = np.asarray(headers, dtype=np.int64)
        self.columns: Dict[tuple, int] = {}
        keys: List[tuple] = []
        for rule in rules:
            key = rule_key(rule)
            if key not in self.columns:
                self.columns[key] = len(keys)
                keys.append(key)
        bounds = np.asarray(keys, dtype=np.int64)  # (R, k, 2)
        table = np.empty((headers.shape[0], len(keys)), dtype=bool)
        step = 256
        for lo in range(0, len(keys), step):
            chunk = bounds[lo:lo + step]
            ok = np.ones((headers.shape[0], chunk.shape[0]), dtype=bool)
            for f in range(headers.shape[1]):
                col = headers[:, f, None]
                ok &= chunk[None, :, f, 0] <= col
                ok &= col <= chunk[None, :, f, 1]
            table[:, lo:lo + step] = ok
        packet, self._rule = np.nonzero(table)
        self._starts = np.searchsorted(packet, np.arange(headers.shape[0]))
        self._answers: Dict[int, Tuple[object, np.ndarray]] = {}

    def expected(self, classifier, rows: slice) -> np.ndarray:
        """Winning rule index in ``classifier.rules`` for each packet in
        ``rows``."""
        cached = self._answers.get(id(classifier))
        if cached is None or cached[0] is not classifier:
            order = np.fromiter(
                (self.columns[rule_key(r)] for r in classifier.rules),
                dtype=np.int64,
            )
            # Position of each known rule in this classifier; assigned
            # back to front so a duplicate keeps its first position.
            pos = np.full(len(self.columns), np.iinfo(np.int64).max)
            pos[order[::-1]] = np.arange(len(order) - 1, -1, -1)
            answers = np.minimum.reduceat(pos[self._rule], self._starts)
            cached = (classifier, answers)
            self._answers[id(classifier)] = cached
        return cached[1][rows]


# ----------------------------------------------------------------------
# Memory and processes
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MB; 0 when unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def worker_pids() -> List[int]:
    """Live multiprocessing children of this process (shm shard workers)."""
    return [p.pid for p in multiprocessing.active_children()]


def child_pids() -> List[int]:
    """Every child of this process, running or exited but not yet reaped
    (read from ``/proc``, so it sees children multiprocessing does not
    track, such as its resource tracker)."""
    me = os.getpid()
    out: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The parent pid is the second field after the parenthesised name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


def stop_children() -> List[int]:
    """Stop and reap every child process left at the end of a run.

    multiprocessing's resource tracker, which the shm ring's
    ``SharedMemory`` starts, is shut down the way multiprocessing does
    it: its pipe is closed, it exits, and it is waited on.  Anything
    else still alive then is killed and reaped.  Returns the pids of
    those others (a clean run leaves none)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    leftover = child_pids()
    for pid in leftover:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return leftover


def serving_rss_mb() -> float:
    """Peak RSS of this process plus its live shard workers, in MB."""
    return sum(vm_hwm_mb(pid) for pid in [os.getpid()] + worker_pids())


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git_rev(root: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _src_digest(src: str) -> str:
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(root: str, src: str, seeds: Dict[str, int]) -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_rev": _git_rev(root),
        "src_sha256": _src_digest(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seeds": seeds,
    }


# ----------------------------------------------------------------------
# Run context and result
# ----------------------------------------------------------------------
#: Seed of every workload's rule set (the classifiers the workload names
#: describe: fw-5k with |D| = 525 in 6 groups, acl-2k with |D| = 58).
RULES_SEED = 2014


@dataclass
class RunContext:
    """What one invocation was asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    toy: bool
    workdir: str
    src: str
    corrupt_oracle: bool = False
    tracer: Optional[Tracer] = None

    def seeds(self) -> Dict[str, int]:
        """Every seed of the run.  The rule set is part of a workload's
        definition (its style, size and shape), so it has a fixed seed;
        traffic, fresh rules and the write script come from ``--seed``."""
        return {
            "rules": RULES_SEED,
            "trace": self.seed + 1,
            "fresh_rules": self.seed + 2,
            "write_script": self.seed + 3,
        }


@dataclass
class Result:
    """Everything one run measured."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    shape: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


class Checker:
    """Collects served answers during the timed phase and checks them all
    against the oracle afterwards, so checking costs no measured time."""

    def __init__(self, corrupt: bool = False) -> None:
        self.items: List[Tuple[object, slice, object]] = []
        self.corrupt = corrupt

    def add(self, classifier, rows: slice, answer) -> None:
        self.items.append((classifier, rows, answer))

    def run(self, oracle: Oracle) -> int:
        """Number of checked operations with at least one wrong answer."""
        bad = 0
        for n, (classifier, rows, answer) in enumerate(self.items):
            want = oracle.expected(classifier, rows)
            if self.corrupt and n == 0:
                want = want.copy()
                want[0] = (want[0] + 1) % len(classifier.rules)
            got = np.asarray(answer, dtype=np.int64)
            if got.shape != want.shape or not np.array_equal(got, want):
                bad += 1
        return bad


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM, wait, and SIGKILL if the process will not drain."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def pct_ms(samples: Sequence[float], q: float) -> float:
    """Quantile ``q`` of second-valued samples, in ms."""
    return quantile(samples, q) * 1000.0


def write_json(path: str, payload: Dict[str, object]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)
    os.replace(tmp, path)
