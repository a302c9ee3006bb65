"""Toy-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Runs every workload at toy size (300 rules, one-second phases), untraced
and traced, and checks the result contract: every declared metric with
its unit, a corrupted oracle failing the run, a tree without the program
failing it, and no shared-memory segment or child process outliving a
run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import uuid

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
#: Every workload the command runs; ``wire-acl2k`` runs but is not in
#: BENCHMARK.json (see LAYERS.md).
WORKLOADS = ["read-fw5k", "churn-acl5k", "wire-acl2k"]
#: Workload-specific end-to-end metrics, printed by name on their workload.
SPECIFIC = {
    "wire-acl2k": ("req_p50_ms", "req_p99_ms", "max_rate_rps"),
    "churn-acl5k": ("update_p50_ms", "update_p90_ms"),
    "read-fw5k": (),
}


def _shm_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _marked_processes(mark: str):
    """Pids of live processes whose environment carries ``mark``."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as fh:
                if mark.encode() in fh.read():
                    found.append(int(pid))
        except OSError:
            continue
    return found


def _session_processes(sid: int):
    """Pids of processes, exited-but-unreaped ones included, in session
    ``sid``: a zombie has no readable environment, so the mark misses it."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            if os.getsid(int(pid)) == sid:
                found.append(int(pid))
        except OSError:
            continue
    return found


def _run(workload, trace, *extra, cwd=ROOT):
    mark = f"PERFBENCH_SMOKE_{uuid.uuid4().hex}"
    env = dict(os.environ, PERFBENCH_SMOKE_MARK=mark)
    before = _shm_segments()
    # Its own session, so whatever it leaves behind is found by session id.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--toy",
         *extra],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    sid = proc.pid
    try:
        stdout, stderr = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    proc = subprocess.CompletedProcess(proc.args, proc.returncode,
                                       stdout, stderr)
    assert _session_processes(sid) == [], \
        "a process of the run outlived it"
    assert _marked_processes(mark) == [], "a child process outlived the run"
    assert not (_shm_segments() - before), "a /dev/shm segment outlived the run"
    return proc


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _printed(proc):
    """``metric <name> = <value> <unit>`` lines as {name: unit}."""
    out = {}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            _, name, _, _, unit = line.split()
            out[name] = unit
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
    printed = _printed(proc)
    for name in SPECIFIC[workload] + ("failed_frac",):
        assert name in printed, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
    trace_path = os.path.join(ROOT, ".perfbench",
                              f"trace-{workload}-s5-t1.json")
    with open(trace_path) as fh:
        trace = json.load(fh)
    events = trace["traceEvents"]
    assert events and all("parent" in e["args"] and "request_id" in e["args"]
                          for e in events)
    assert "service.match_indices" in trace["otherData"]["self_time"] or \
        "cluster.match_many" in trace["otherData"]["self_time"]


def test_corrupted_oracle_fails_the_run():
    proc = _run("read-fw5k", 0, "--corrupt-oracle")
    assert proc.returncode != 0
    assert _result(proc)["correct"] is False


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
