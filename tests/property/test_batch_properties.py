"""Property tests: the batch query path is a pure optimisation.

For arbitrary corpora, query batches, and thresholds, every batch API
must return exactly what the corresponding single-signature loop
returns — bit-for-bit, including candidate sets, top-k ranking order,
and estimated cardinalities.  Any divergence is a bug in the batch
path, never an acceptable approximation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ensemble import LSHEnsemble
from repro.lsh.lsh import MinHashLSH
from repro.minhash.batch import SignatureBatch
from repro.minhash.generator import MinHashGenerator, SignatureFactory
from repro.minhash.minhash import MinHash

NUM_PERM = 64


def sig(values):
    return MinHash.from_values(values, num_perm=NUM_PERM)


domain_corpora = st.dictionaries(
    keys=st.text(min_size=1, max_size=6),
    values=st.sets(st.integers(0, 500), min_size=1, max_size=50),
    min_size=2,
    max_size=25,
)

thresholds = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def build_index(domains, num_partitions=3):
    index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=num_partitions)
    index.index((k, sig(v), len(v)) for k, v in domains.items())
    return index


@settings(max_examples=25, deadline=None)
@given(domains=domain_corpora, threshold=thresholds)
def test_query_batch_equals_single_query_loop(domains, threshold):
    """ensemble.query_batch == [ensemble.query(s, c) for s, c in batch]."""
    index = build_index(domains)
    sigs = [sig(v) for v in domains.values()]
    sizes = [len(v) for v in domains.values()]
    batch = SignatureBatch.from_signatures(sigs)
    expected = [index.query(s, size=c, threshold=threshold)
                for s, c in zip(sigs, sizes)]
    assert index.query_batch(batch, sizes=sizes,
                             threshold=threshold) == expected
    # A plain sequence of signatures must behave identically.
    assert index.query_batch(sigs, sizes=sizes,
                             threshold=threshold) == expected
    # n = 1 sits on the other side of the one-row selection (a one-row
    # batch takes the scalar probe); the batches above have >= 2 rows.
    assert len(sigs) >= 2
    assert index.query_batch(sigs[:1], sizes=sizes[:1],
                             threshold=threshold) == expected[:1]


@settings(max_examples=25, deadline=None)
@given(domains=domain_corpora, threshold=thresholds)
def test_query_batch_estimated_sizes_equal_single(domains, threshold):
    """Without sizes, the vectorised approx(|Q|) matches per-signature."""
    index = build_index(domains)
    sigs = [sig(v) for v in domains.values()]
    batch = SignatureBatch.from_signatures(sigs)
    expected = [index.query(s, threshold=threshold) for s in sigs]
    assert index.query_batch(batch, threshold=threshold) == expected
    assert index.query_batch(sigs[:1], threshold=threshold) == expected[:1]


@settings(max_examples=15, deadline=None)
@given(domains=domain_corpora, k=st.integers(1, 5))
def test_query_top_k_batch_equals_single(domains, k):
    index = build_index(domains)
    sigs = [sig(v) for v in domains.values()]
    sizes = [len(v) for v in domains.values()]
    batch = SignatureBatch.from_signatures(sigs)
    expected = [index.query_top_k(s, k, size=c)
                for s, c in zip(sigs, sizes)]
    assert index.query_top_k_batch(batch, k, sizes=sizes) == expected
    assert index.query_top_k_batch(sigs[:1], k,
                                   sizes=sizes[:1]) == expected[:1]


@settings(max_examples=15, deadline=None)
@given(domains=domain_corpora, threshold=thresholds)
def test_router_query_batch_equals_single(in_process_cluster, domains,
                                          threshold):
    router, flat = in_process_cluster(
        ((k, sig(v), len(v)) for k, v in domains.items()), 3,
        lambda: LSHEnsemble(num_perm=NUM_PERM, num_partitions=2))
    sigs = [sig(v) for v in domains.values()]
    sizes = [len(v) for v in domains.values()]
    batch = SignatureBatch.from_signatures(sigs)
    with router:
        expected = [router.query(s, size=c, threshold=threshold)
                    for s, c in zip(sigs, sizes)]
        assert router.query_batch(batch, sizes=sizes,
                                  threshold=threshold) == expected
        assert len(sigs) >= 2
        assert router.query_batch(sigs[:1], sizes=sizes[:1],
                                  threshold=threshold) == expected[:1]
    assert flat.query_batch(batch, sizes=sizes,
                            threshold=threshold) == expected


@settings(max_examples=15, deadline=None)
@given(domains=domain_corpora, k=st.integers(1, 5))
def test_router_top_k_batch_equals_single(in_process_cluster, domains, k):
    router, flat = in_process_cluster(
        ((k, sig(v), len(v)) for k, v in domains.items()), 3,
        lambda: LSHEnsemble(num_perm=NUM_PERM, num_partitions=2))
    sigs = [sig(v) for v in domains.values()]
    sizes = [len(v) for v in domains.values()]
    batch = SignatureBatch.from_signatures(sigs)
    with router:
        expected = [router.query_top_k(s, k, size=c)
                    for s, c in zip(sigs, sizes)]
        assert router.query_top_k_batch(batch, k, sizes=sizes) == expected
        assert router.query_top_k_batch(sigs[:1], k,
                                        sizes=sizes[:1]) == expected[:1]
    assert flat.query_top_k_batch(batch, k, sizes=sizes) == expected


@settings(max_examples=25, deadline=None)
@given(domains=domain_corpora)
def test_minhash_lsh_query_batch_equals_single(domains):
    index = MinHashLSH(threshold=0.5, num_perm=NUM_PERM)
    for k, v in domains.items():
        index.insert(k, sig(v))
    sigs = [sig(v) for v in domains.values()]
    batch = SignatureBatch.from_signatures(sigs)
    assert index.query_batch(batch) == [index.query(s) for s in sigs]


@settings(max_examples=25, deadline=None)
@given(domains=domain_corpora)
def test_bulk_equals_one_at_a_time_construction(domains):
    """MinHashGenerator.bulk == one-at-a-time MinHash construction."""
    generator = MinHashGenerator(num_perm=NUM_PERM, seed=1)
    factory = SignatureFactory(num_perm=NUM_PERM, seed=1)
    batch = generator.bulk(domains)
    assert list(batch.keys) == list(domains.keys())
    for j, (key, values) in enumerate(domains.items()):
        one_at_a_time = factory.lean(values)
        assert np.array_equal(batch.matrix[j], one_at_a_time.hashvalues), key
        assert batch[j] == one_at_a_time
        # And against raw MinHash.from_values (shared seed, no cache).
        assert np.array_equal(batch.matrix[j], sig(values).hashvalues)


@settings(max_examples=25, deadline=None)
@given(domains=domain_corpora)
def test_batch_counts_equal_per_signature_counts(domains):
    generator = MinHashGenerator(num_perm=NUM_PERM, seed=1)
    batch = generator.bulk(domains)
    counts = batch.counts()
    for j in range(len(batch)):
        assert counts[j] == batch[j].count()
