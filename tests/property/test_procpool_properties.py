"""Property tests: process-executor results are bit-identical.

ISSUE 5's acceptance bar: ``executor="process"`` must answer exactly
like the threaded and flat single-query paths — same sets, same top-k
order, same scores — across every index shape that can serve traffic:

* a freshly built flat index,
* a flat index with *pending* dynamic state (delta-tier inserts and
  tombstones that exist only in parent memory, shipped to workers as
  overlay payloads),
* a sharded cluster (thread fan-out vs process fan-out),
* an index loaded back from a v2 snapshot with ``mmap=True`` (workers
  and parent then share the very same segment file).

Hypothesis drives corpus sizes, the size distribution, seeds,
thresholds and the mutation mix; the shared session pool keeps worker
startup out of the example loop (important under the CI spawn leg).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ensemble import LSHEnsemble
from repro.minhash.batch import SignatureBatch
from repro.minhash.generator import sample_signatures
from repro.parallel.procpool import PooledIndex
from repro.parallel.sharded import ShardedEnsemble

pytestmark = [pytest.mark.procpool, pytest.mark.timeout(300)]

NUM_PERM = 32

SETTINGS = settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large])


@st.composite
def corpus_spec(draw):
    n = draw(st.integers(min_value=24, max_value=70))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=600),
                          min_size=n, max_size=n))
    seed = draw(st.integers(min_value=1, max_value=4))
    rng_seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    threshold = draw(st.sampled_from([0.05, 0.2, 0.5, 0.8]))
    # >= 2 rows: a one-row batch takes the scalar probe, so comparing
    # it with the single-query loop would compare that probe with
    # itself; n = 1 is an explicit extra case in _assert_flat_parity.
    num_queries = draw(st.integers(min_value=2, max_value=10))
    return sizes, seed, rng_seed, threshold, num_queries


def _entries(sizes, seed, rng_seed):
    signatures = sample_signatures(
        sizes, num_perm=NUM_PERM, seed=seed,
        rng=np.random.default_rng(rng_seed))
    return [("d%d" % i, sig, size)
            for i, (sig, size) in enumerate(zip(signatures, sizes))]


def _build_flat(entries):
    index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=3,
                        threshold=0.5)
    index.index(entries)
    return index


def _query_batch_of(entries, num_queries, seed):
    picks = entries[:num_queries]
    matrix = np.vstack([sig.hashvalues for _, sig, __ in picks])
    return (SignatureBatch(None, matrix, seed=seed),
            [size for _, __, size in picks])


def _assert_flat_parity(index, pooled, batch, sizes, threshold):
    """process == threaded batch == single-query loop, bit-exactly."""
    batch_rows = index.query_batch(batch, sizes=sizes,
                                   threshold=threshold)
    single_rows = [index.query(batch[j], size=sizes[j],
                               threshold=threshold)
                   for j in range(len(batch))]
    process_rows = pooled.query_batch(batch, sizes=sizes,
                                      threshold=threshold)
    assert process_rows == batch_rows == single_rows
    process_single = [pooled.query(batch[j], size=sizes[j],
                                   threshold=threshold)
                      for j in range(min(3, len(batch)))]
    assert process_single == single_rows[:len(process_single)]
    one = SignatureBatch(None, batch.matrix[:1], seed=batch.seed)
    assert (pooled.query_batch(one, sizes=sizes[:1], threshold=threshold)
            == index.query_batch(one, sizes=sizes[:1], threshold=threshold)
            == single_rows[:1])


class TestFlatParity:
    @SETTINGS
    @given(spec=corpus_spec())
    def test_query_batch_matches_threaded_and_single(self, proc_pool,
                                                     spec):
        sizes, seed, rng_seed, threshold, num_queries = spec
        entries = _entries(sizes, seed, rng_seed)
        index = _build_flat(entries)
        with PooledIndex(index, proc_pool) as pooled:
            batch, qsizes = _query_batch_of(entries, num_queries, seed)
            _assert_flat_parity(index, pooled, batch, qsizes, threshold)

    @SETTINGS
    @given(spec=corpus_spec(), k=st.integers(min_value=1, max_value=6))
    def test_top_k_matches_flat(self, proc_pool, spec, k):
        sizes, seed, rng_seed, _, num_queries = spec
        entries = _entries(sizes, seed, rng_seed)
        index = _build_flat(entries)
        with PooledIndex(index, proc_pool) as pooled:
            batch, qsizes = _query_batch_of(entries, num_queries, seed)
            assert (pooled.query_top_k_batch(batch, k, sizes=qsizes)
                    == index.query_top_k_batch(batch, k, sizes=qsizes))
            assert (pooled.query_top_k(batch[0], k, size=qsizes[0])
                    == index.query_top_k(batch[0], k, size=qsizes[0]))


class TestDynamicParity:
    @SETTINGS
    @given(spec=corpus_spec(),
           num_inserts=st.integers(min_value=0, max_value=8),
           num_removes=st.integers(min_value=0, max_value=6))
    def test_pending_deltas_and_tombstones(self, proc_pool, spec,
                                           num_inserts, num_removes):
        """Dynamic state that exists only in parent memory must reach
        the workers intact: inserts land in the shipped delta, removed
        keys never appear in any process-computed row."""
        sizes, seed, rng_seed, threshold, num_queries = spec
        entries = _entries(sizes, seed, rng_seed)
        index = _build_flat(entries)
        extra_sizes = [700 + 11 * i for i in range(num_inserts)]
        extra = sample_signatures(extra_sizes, num_perm=NUM_PERM,
                                  seed=seed,
                                  rng=np.random.default_rng(rng_seed + 1))
        for i, (sig, size) in enumerate(zip(extra, extra_sizes)):
            index.insert("delta-%d" % i, sig, size)
        removed = [key for key, _, __ in
                   entries[num_queries:num_queries + num_removes]]
        for key in removed:
            index.remove(key)
        with PooledIndex(index, proc_pool) as pooled:
            batch, qsizes = _query_batch_of(entries, num_queries, seed)
            _assert_flat_parity(index, pooled, batch, qsizes, threshold)
            process_rows = pooled.query_batch(batch, sizes=qsizes,
                                              threshold=threshold)
            for found in process_rows:
                assert not (found & set(removed))
            if num_inserts:
                # The freshest delta entry is findable through workers.
                hit = pooled.query(extra[-1], size=extra_sizes[-1],
                                   threshold=0.95)
                assert "delta-%d" % (num_inserts - 1) in hit

    @SETTINGS
    @given(spec=corpus_spec())
    def test_parity_survives_rebalance(self, proc_pool, spec):
        sizes, seed, rng_seed, threshold, num_queries = spec
        entries = _entries(sizes, seed, rng_seed)
        index = _build_flat(entries)
        with PooledIndex(index, proc_pool) as pooled:
            batch, qsizes = _query_batch_of(entries, num_queries, seed)
            _assert_flat_parity(index, pooled, batch, qsizes, threshold)
            index.remove(entries[-1][0])
            index.rebalance()
            _assert_flat_parity(index, pooled, batch, qsizes, threshold)


class TestShardedParity:
    @SETTINGS
    @given(spec=corpus_spec(),
           num_shards=st.integers(min_value=1, max_value=4))
    def test_process_fanout_matches_thread_fanout(self, proc_pool, spec,
                                                  num_shards):
        sizes, seed, rng_seed, threshold, num_queries = spec
        entries = _entries(sizes, seed, rng_seed)
        factory = (lambda: LSHEnsemble(num_perm=NUM_PERM,
                                       num_partitions=3, threshold=0.5))
        threaded = ShardedEnsemble(num_shards=num_shards,
                                   ensemble_factory=factory)
        threaded.index(list(entries))
        process = ShardedEnsemble(num_shards=num_shards,
                                  ensemble_factory=factory,
                                  executor="process", pool=proc_pool)
        process.index(list(entries))
        with threaded, process:
            batch, qsizes = _query_batch_of(entries, num_queries, seed)
            assert (process.query_batch(batch, sizes=qsizes,
                                        threshold=threshold)
                    == threaded.query_batch(batch, sizes=qsizes,
                                            threshold=threshold))
            assert (process.query(batch[0], size=qsizes[0],
                                  threshold=threshold)
                    == threaded.query(batch[0], size=qsizes[0],
                                      threshold=threshold))
            assert (process.query_top_k(batch[0], 3, size=qsizes[0])
                    == threaded.query_top_k(batch[0], 3, size=qsizes[0]))


class TestMmapLoadedParity:
    @SETTINGS
    @given(spec=corpus_spec())
    def test_snapshot_loaded_index_parity(self, proc_pool, tmp_path_factory,
                                          spec):
        """Workers mmap the very segment the parent was loaded from;
        answers stay bit-identical, pending mutations included."""
        from repro.persistence import load_ensemble, save_ensemble

        sizes, seed, rng_seed, threshold, num_queries = spec
        entries = _entries(sizes, seed, rng_seed)
        index = _build_flat(entries)
        path = tmp_path_factory.mktemp("procpool-mmap") / "idx.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path, mmap=True)
        with PooledIndex(loaded, proc_pool, source_path=path) as pooled:
            assert pooled._base_path == path  # no spill: shared segment
            batch, qsizes = _query_batch_of(entries, num_queries, seed)
            _assert_flat_parity(loaded, pooled, batch, qsizes, threshold)
            loaded.remove(entries[0][0])
            _assert_flat_parity(loaded, pooled, batch, qsizes, threshold)
