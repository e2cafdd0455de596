"""Served-parity golden tests: HTTP answers == in-process batch answers.

For the same signatures, the server's ``/query`` and ``/query_top_k``
responses must be bit-identical to ``query_batch`` /
``query_top_k_batch`` run in process — across a flat index, a router
over in-process shards, and an index loaded back from an mmap'd v2
snapshot.  JSON
round-trips floats exactly (repr-based), so even the top-k scores are
compared for equality, not approximately.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.core.ensemble import LSHEnsemble
from repro.minhash.generator import MinHashGenerator
from repro.persistence import load_ensemble, save_ensemble
from repro.serve import start_in_thread

NUM_PERM = 64
THRESHOLDS = (0.2, 0.5)
NUM_QUERIES = 12


@pytest.fixture(scope="module")
def corpus():
    domains = {}
    # Overlapping windows of shared values so queries have real hits.
    for i in range(80):
        domains["d%d" % i] = {"v%d" % j for j in range(2 * i, 2 * i + 30)}
    generator = MinHashGenerator(num_perm=NUM_PERM)
    return domains, generator.bulk(domains)


def _entries(corpus):
    domains, batch = corpus
    return [(key, batch[j], len(domains[key]))
            for j, key in enumerate(batch.keys)]


@pytest.fixture(scope="module")
def flat(corpus):
    index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4, threshold=0.5)
    index.index(_entries(corpus))
    return index


@pytest.fixture(scope="module")
def router(corpus, in_process_cluster):
    router, _ = in_process_cluster(
        _entries(corpus), 3,
        lambda: LSHEnsemble(num_perm=NUM_PERM, num_partitions=4,
                            threshold=0.5))
    with router:
        yield router


@pytest.fixture(scope="module")
def mmap_loaded(corpus, tmp_path_factory):
    index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4, threshold=0.5)
    index.index(_entries(corpus))
    path = tmp_path_factory.mktemp("serve-parity") / "index.lshe"
    save_ensemble(index, path)
    return load_ensemble(path, mmap=True)


def _post(port: int, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        "http://127.0.0.1:%d%s" % (port, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request) as response:
        assert response.status == 200
        return json.loads(response.read())


def _query_items(corpus):
    domains, batch = corpus
    rows = range(0, len(batch.keys), len(batch.keys) // NUM_QUERIES)
    items, sizes, indices = [], [], []
    for row in list(rows)[:NUM_QUERIES]:
        key = batch.keys[row]
        items.append({"signature": [int(v) for v in batch.matrix[row]],
                      "seed": batch.seed, "size": len(domains[key])})
        sizes.append(len(domains[key]))
        indices.append(row)
    return items, sizes, indices


def _index_cases(flat, router, mmap_loaded):
    return [("flat", flat), ("router", router),
            ("mmap_loaded", mmap_loaded)]


class TestServedParity:
    @pytest.mark.parametrize("case", ["flat", "router", "mmap_loaded"])
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_query_matches_in_process_batch(self, case, threshold, corpus,
                                            flat, router, mmap_loaded):
        index = dict(_index_cases(flat, router, mmap_loaded))[case]
        domains, batch = corpus
        items, sizes, indices = _query_items(corpus)
        expected = index.query_batch(
            batch.matrix[indices], sizes=sizes, threshold=threshold)
        assert expected == flat.query_batch(
            batch.matrix[indices], sizes=sizes, threshold=threshold)
        with start_in_thread(index) as handle:
            served = _post(handle.port, "/query",
                           {"queries": items, "threshold": threshold})
        assert served["results"] == [sorted(found, key=str)
                                     for found in expected]
        # Results are non-trivial: every query at least finds itself.
        assert all(served["results"][j] for j in range(len(items)))

    @pytest.mark.parametrize("case", ["flat", "router", "mmap_loaded"])
    def test_top_k_matches_in_process_batch(self, case, corpus, flat,
                                            router, mmap_loaded):
        index = dict(_index_cases(flat, router, mmap_loaded))[case]
        domains, batch = corpus
        items, sizes, indices = _query_items(corpus)
        expected = index.query_top_k_batch(
            batch.matrix[indices], 5, sizes=sizes)
        assert expected == flat.query_top_k_batch(
            batch.matrix[indices], 5, sizes=sizes)
        with start_in_thread(index) as handle:
            served = _post(handle.port, "/query_top_k",
                           {"queries": items, "k": 5})
        assert served["results"] == [
            [[key, float(score)] for key, score in row]
            for row in expected]
        assert all(len(row) == 5 for row in served["results"])

    def test_default_threshold_used_when_omitted(self, corpus, flat):
        _, batch = corpus
        items, sizes, indices = _query_items(corpus)
        expected = flat.query_batch(batch.matrix[indices], sizes=sizes)
        with start_in_thread(flat) as handle:
            served = _post(handle.port, "/query", {"queries": items})
        assert served["results"] == [sorted(found, key=str)
                                     for found in expected]

    def test_size_estimated_when_omitted(self, corpus, flat):
        """Omitting ``size`` estimates it from the signature, matching
        the in-process default (``approx(|Q|)``)."""
        _, batch = corpus
        items, _, indices = _query_items(corpus)
        for item in items:
            del item["size"]
        expected = flat.query_batch(batch.matrix[indices], threshold=0.2)
        with start_in_thread(flat) as handle:
            served = _post(handle.port, "/query",
                           {"queries": items, "threshold": 0.2})
        assert served["results"] == [sorted(found, key=str)
                                     for found in expected]

    def test_values_form_matches_signature_form(self, corpus, flat):
        domains, _ = corpus
        values = sorted(domains["d10"])
        with start_in_thread(flat) as handle:
            by_values = _post(handle.port, "/query",
                              {"queries": [{"values": values}],
                               "threshold": 0.3})
        generator = MinHashGenerator(num_perm=NUM_PERM)
        lean = generator.lean(set(values))
        expected = flat.query_batch([lean], sizes=[len(set(values))],
                                    threshold=0.3)
        assert by_values["results"] == [sorted(expected[0], key=str)]
        assert "d10" in by_values["results"][0]

    def test_cached_responses_stay_identical(self, corpus, flat):
        """A cache hit must replay the exact live response body."""
        items, sizes, _ = _query_items(corpus)
        payload = {"queries": items, "threshold": 0.2}
        with start_in_thread(flat) as handle:
            live = _post(handle.port, "/query", payload)
            cached = _post(handle.port, "/query", payload)
        assert cached["cached"] == [True] * len(items)
        assert cached["results"] == live["results"]
        assert cached["mutation_epoch"] == live["mutation_epoch"]
