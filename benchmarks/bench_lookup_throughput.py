"""Lookup throughput of the classification engines (extra experiment).

The paper argues complexity, not absolute throughput; this bench measures
the *relative* shape on our substrate: the SAX-PAC software engine (few
group probes, each O(log N)) should scale far better than the naive linear
scan, and the hybrid engine should stay close to the pure software path
because the TCAM part D holds only a few percent of the rules (simulated
TCAM rows are scanned sequentially, so a small D matters).
"""

import pytest

from repro.bench.harness import bench_rules, cached_suite
from repro.saxpac.engine import SaxPacEngine
from repro.workloads.traces import generate_trace

TRACE_LEN = 2000


@pytest.fixture(scope="module")
def workload():
    suite = cached_suite(rules=min(bench_rules(), 2000))
    classifier = suite["acl1"]
    trace = generate_trace(classifier, TRACE_LEN, seed=31)
    return classifier, trace


def test_linear_scan_throughput(benchmark, workload):
    classifier, trace = workload

    def run():
        for header in trace:
            classifier.match(header)

    benchmark(run)


def test_saxpac_engine_throughput(benchmark, workload):
    classifier, trace = workload
    engine = SaxPacEngine(classifier)

    def run():
        for header in trace:
            engine.match(header)

    benchmark(run)
    # Sanity: the engine agrees with the reference on this trace.
    for header in trace[:200]:
        assert engine.match(header).index == classifier.match(header).index


def test_software_only_throughput(benchmark, workload):
    classifier, trace = workload
    engine = SaxPacEngine(classifier)

    def run():
        for header in trace:
            engine.software.lookup(header)

    benchmark(run)


def test_tuple_space_throughput(benchmark, workload):
    from repro.lookup.tuple_space import TupleSpaceClassifier

    classifier, trace = workload
    tss = TupleSpaceClassifier(classifier)

    def run():
        for header in trace:
            tss.match_index(header)

    benchmark(run)
    for header in trace[:200]:
        assert tss.match(header).index == classifier.match(header).index


def test_decision_tree_throughput(benchmark, workload):
    from repro.lookup.decision_tree import DecisionTreeClassifier

    classifier, trace = workload
    tree = DecisionTreeClassifier(classifier, binth=8)

    def run():
        for header in trace:
            tree.match_index(header)

    benchmark(run)
    for header in trace[:200]:
        assert tree.match(header).index == classifier.match(header).index


def test_memory_footprint(benchmark, workload, save_result):
    """Stored-item counts of each structure — the memory half of the
    space/time tradeoff the throughput numbers show one side of."""
    from repro.bench.harness import format_table
    from repro.lookup.decision_tree import DecisionTreeClassifier
    from repro.lookup.tuple_space import TupleSpaceClassifier

    classifier, _trace = workload
    n = len(classifier.body)

    def run():
        engine = SaxPacEngine(classifier)
        report = engine.report()
        tree = DecisionTreeClassifier(classifier, binth=8)
        tss = TupleSpaceClassifier(classifier)
        return [
            ["linear scan", n, "1.00x"],
            [
                "SAX-PAC (sw rules + TCAM entries)",
                report.software_rules + report.tcam_entries,
                f"{(report.software_rules + report.tcam_entries) / n:.2f}x",
            ],
            [
                "decision tree (stored rule refs)",
                tree.stats.stored_rules,
                f"{tree.stats.replication_factor(n):.2f}x",
            ],
            [
                "tuple space (hash entries)",
                tss.num_entries,
                f"{tss.num_entries / n:.2f}x",
            ],
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "memory_footprint",
        format_table(
            ["structure", "stored items", "vs rules"],
            rows,
            title=f"Memory footprint on acl1 ({n} rules)",
        ),
    )
