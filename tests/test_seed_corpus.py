"""Seed-corpus regression tests: frozen classifiers, frozen traces,
exact digests.

``tests/data/`` holds three small classifiers (acl/fw/ipc styles, JSON
via :mod:`repro.saxpac.serialization`) plus a frozen 500-packet trace
each, and the SHA-256 digest of the winning rule indices the linear
reference produced when the corpus was frozen.  Any engine or reference
change that alters a single answer — or a serialization change that
alters how the corpus loads — moves a digest and fails loudly here,
independent of the hypothesis-driven suites whose inputs move between
runs.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.runtime.batch import linear_match_batch
from repro.saxpac.engine import SaxPacEngine
from repro.saxpac.serialization import load_classifier

DATA = os.path.join(os.path.dirname(__file__), "data")
STYLES = ("acl", "fw", "ipc")


def _digest(indices) -> str:
    return hashlib.sha256(
        ",".join(str(i) for i in indices).encode()
    ).hexdigest()


@pytest.fixture(scope="module")
def digests():
    with open(os.path.join(DATA, "seed_digests.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module", params=STYLES)
def corpus(request):
    style = request.param
    classifier, _ = load_classifier(
        os.path.join(DATA, f"seed_{style}.json")
    )
    with open(os.path.join(DATA, f"seed_{style}_trace.json")) as handle:
        trace = [tuple(h) for h in json.load(handle)]
    return style, classifier, trace


class TestSeedCorpus:
    def test_corpus_shape_is_frozen(self, corpus, digests):
        style, classifier, trace = corpus
        assert len(classifier.body) == digests[style]["rules"]
        assert len(trace) == digests[style]["packets"]

    def test_linear_reference_digest(self, corpus, digests):
        style, classifier, trace = corpus
        indices = [classifier.match(h).index for h in trace]
        assert _digest(indices) == digests[style]["digest"]

    def test_vectorized_linear_digest(self, corpus, digests):
        style, classifier, trace = corpus
        indices = [
            r.index for r in linear_match_batch(classifier, trace)
        ]
        assert _digest(indices) == digests[style]["digest"]

    def test_engine_match_digest(self, corpus, digests):
        style, classifier, trace = corpus
        engine = SaxPacEngine(classifier)
        indices = [engine.match(h).index for h in trace]
        assert _digest(indices) == digests[style]["digest"]

    def test_engine_batch_digest(self, corpus, digests):
        style, classifier, trace = corpus
        engine = SaxPacEngine(classifier)
        indices = [r.index for r in engine.match_batch(trace)]
        assert _digest(indices) == digests[style]["digest"]

    def test_rebuilt_engine_digest(self, corpus, digests):
        style, classifier, trace = corpus
        engine = SaxPacEngine(classifier).rebuild([], [], [])
        indices = [r.index for r in engine.match_batch(trace)]
        assert _digest(indices) == digests[style]["digest"]
