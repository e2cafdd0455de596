"""Router == flat parity: bit-identical answers over real HTTP.

The router fans every query out to shard-node servers over localhost
HTTP, unions / globally ranks, and must return **exactly** what one
flat in-process index holding all the data returns — same key sets,
same top-k order, same float scores (JSON round-trips floats exactly).
Pinned across static topologies (2 and 3 shards), a dynamic topology
(deltas + tombstones applied mid-test), and arbitrary query subsets
via Hypothesis.

**Precondition.**  Parity needs every shard built with the flat
index's partition bounds.  The near-uniform corpus hides that (per-shard
equi-depth bounds happen to tune alike); the power-law parametrisation
of :class:`TestStaticParity` is where it bites, so there the shards are
built with ``partitions=flat.partitions``.
"""

from __future__ import annotations

import json
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.distributions import power_law_sizes
from repro.minhash.generator import MinHashGenerator, SignatureFactory
from repro.minhash.lean import LeanMinHash
from repro.serve import start_in_thread
from repro.serve.router import RouterServer

from cluster_harness import (
    NUM_PERM,
    make_index,
    query_rows,
    router_over,
    split_entries,
    thread_cluster,
)

THRESHOLDS = (0.2, 0.5, 0.8)


@pytest.fixture(scope="module")
def shape(request):
    """Size distribution of the corpus: ``"uniform"`` unless a class
    parametrises it (indirectly)."""
    return getattr(request, "param", "uniform")


@pytest.fixture(scope="module")
def corpus(shape, corpus):
    if shape == "uniform":
        return corpus
    # alpha = 2 power law, sizes 10..2000, nested value windows (small
    # domains sit inside the big ones, so containment hits are real).
    sizes = power_law_sizes(60, alpha=2.0, min_size=10, max_size=2000,
                            seed=5)
    domains = {"d%d" % i: {"v%d" % j
                           for j in range(2 * i, 2 * i + int(size))}
               for i, size in enumerate(sizes)}
    return domains, MinHashGenerator(num_perm=NUM_PERM).bulk(domains)


@pytest.fixture(scope="module")
def entries(corpus):
    domains, batch = corpus
    return [(key, batch[j], len(domains[key]))
            for j, key in enumerate(batch.keys)]


@pytest.fixture(scope="module")
def flat(entries):
    return make_index(entries)


@pytest.fixture(scope="module", params=[2, 3])
def cluster(request, entries, flat, shape):
    # The near-uniform case keeps per-shard bounds (as deployed before
    # the precondition was known); skewed sizes need the flat bounds.
    partitions = flat.partitions if shape == "power-law" else None
    shards = [make_index(part, partitions)
              for part in split_entries(entries, request.param)]
    with thread_cluster(shards) as handles:
        with router_over(handles) as router:
            yield router


def _lean(corpus, row: int) -> LeanMinHash:
    _, batch = corpus
    return LeanMinHash(seed=batch.seed, hashvalues=batch.matrix[row])


@pytest.mark.parametrize("shape", ["uniform", "power-law"], indirect=True)
class TestStaticParity:
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_query_batch(self, cluster, flat, corpus, threshold):
        matrix, sizes, _ = query_rows(corpus)
        expected = flat.query_batch(matrix, sizes=sizes,
                                    threshold=threshold)
        got = cluster.query_batch(matrix, sizes=sizes,
                                  threshold=threshold)
        assert got == expected
        assert any(expected)  # the corpus makes the comparison real

    def test_query_single(self, cluster, flat, corpus):
        domains, batch = corpus
        for row in (0, 17, 41):
            size = len(domains[batch.keys[row]])
            lean = _lean(corpus, row)
            assert cluster.query(lean, size=size, threshold=0.5) \
                == flat.query(lean, size, 0.5)

    def test_query_top_k_batch(self, cluster, flat, corpus):
        matrix, sizes, _ = query_rows(corpus)
        expected = flat.query_top_k_batch(matrix, 5, sizes=sizes,
                                          min_threshold=0.05)
        got = cluster.query_top_k_batch(matrix, 5, sizes=sizes,
                                        min_threshold=0.05)
        assert got == expected  # exact: keys, order, float scores
        assert all(expected)

    def test_query_top_k_single(self, cluster, flat, corpus):
        domains, batch = corpus
        for row in (3, 29):
            size = len(domains[batch.keys[row]])
            lean = _lean(corpus, row)
            assert cluster.query_top_k(lean, 4, size=size) \
                == flat.query_top_k(lean, 4, size=size)

    def test_signatures_for(self, cluster, flat, corpus):
        _, batch = corpus
        keys = [batch.keys[row] for row in (0, 13, 26)] + ["absent"]
        pool, sizes = cluster.signatures_for(keys)
        assert set(pool) == set(keys) - {"absent"}
        for key in pool:
            stored = flat.get_signature(key)
            assert pool[key].seed == stored.seed
            assert np.array_equal(pool[key].hashvalues,
                                  stored.hashvalues)
            assert sizes[key] == flat.size_of(key)

    def test_router_len_and_epoch(self, cluster, flat):
        assert len(cluster) == len(flat)
        assert cluster.mutation_epoch == 0


def _post(port: int, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        "http://127.0.0.1:%d%s" % (port, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request) as response:
        assert response.status == 200
        return json.loads(response.read())


class TestServedParity:
    def test_http_answers_match_flat_server(self, cluster, flat, corpus):
        _, sizes, items = query_rows(corpus)
        with start_in_thread(flat) as flat_handle, \
                start_in_thread(cluster,
                                server_factory=RouterServer) as router_handle:
            for path, payload in (
                    ("/query", {"queries": items, "threshold": 0.5}),
                    ("/query_top_k", {"queries": items, "k": 5})):
                flat_answer = _post(flat_handle.port, path, payload)
                router_answer = _post(router_handle.port, path, payload)
                assert router_answer["results"] \
                    == flat_answer["results"]
            health = json.loads(urllib.request.urlopen(
                "http://127.0.0.1:%d/healthz"
                % router_handle.port).read())
            assert health["executor"] == "router"
            assert health["keys"] == len(flat)
            assert health["degraded"] == []


class TestDynamicParity:
    def test_parity_survives_deltas_and_tombstones(self, entries,
                                                   corpus):
        domains, batch = corpus
        num_shards = 2
        flat = make_index(entries)
        parts = split_entries(entries, num_shards)
        shards = [make_index(part) for part in parts]
        factory = SignatureFactory(num_perm=NUM_PERM, seed=batch.seed)
        with thread_cluster(shards) as handles:
            with router_over(handles) as router:
                # Deltas: new domains land on their owning shard and
                # on the flat reference alike.
                for j in range(4):
                    key = "delta_%d" % j
                    values = {"v%d" % v for v in range(3 * j, 3 * j + 25)}
                    lean = factory.lean(values)
                    flat.insert(key, lean, len(values))
                    shards[j % num_shards].insert(key, lean, len(values))
                # Tombstones: drop existing corpus keys from both.
                for i in (4, 9):
                    key = batch.keys[i]
                    flat.remove(key)
                    shards[i % num_shards].remove(key)

                matrix, sizes, _ = query_rows(corpus)
                for threshold in (0.2, 0.5):
                    assert router.query_batch(
                        matrix, sizes=sizes, threshold=threshold) \
                        == flat.query_batch(matrix, sizes=sizes,
                                            threshold=threshold)
                assert router.query_top_k_batch(
                    matrix, 5, sizes=sizes) \
                    == flat.query_top_k_batch(matrix, 5, sizes=sizes)
                # Removed keys are gone from the served answers too.
                removed = {batch.keys[4], batch.keys[9]}
                for found in router.query_batch(matrix, sizes=sizes,
                                                threshold=0.2):
                    assert not (found & removed)


class TestPropertyParity:
    @settings(max_examples=8, deadline=None)
    @given(rows=st.lists(st.integers(0, 59), min_size=1, max_size=6,
                         unique=True),
           threshold=st.floats(0.05, 1.0, allow_nan=False),
           k=st.integers(1, 6))
    def test_arbitrary_queries_match_flat(self, cluster, flat, corpus,
                                          rows, threshold, k):
        domains, batch = corpus
        matrix = batch.matrix[rows]
        sizes = [len(domains[batch.keys[row]]) for row in rows]
        assert cluster.query_batch(matrix, sizes=sizes,
                                   threshold=threshold) \
            == flat.query_batch(matrix, sizes=sizes,
                                threshold=threshold)
        assert cluster.query_top_k_batch(matrix, k, sizes=sizes) \
            == flat.query_top_k_batch(matrix, k, sizes=sizes)
