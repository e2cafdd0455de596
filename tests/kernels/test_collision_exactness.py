"""Exactness under band-hash collisions.

The bucket layout sorts buckets by their band hash and verifies every
hash match against the bucket's slot and prefix lanes; buckets sharing
a hash sit in one contiguous run, and a probe whose check fails on the
run's first bucket scans the rest of it.  A real 64-bit FNV collision is
far too rare to meet in a test, so every index here runs a kernel whose
band hash keeps 3 bits — nearly every bucket shares its hash — and must
still answer exactly like the default kernel.
"""

import numpy as np
import pytest

from repro.core.ensemble import LSHEnsemble
from repro.datagen import generate_corpus
from repro.forest.prefix_forest import PrefixForest
from repro.kernels import NumpyKernel, get_kernel, kernel_name
from repro.lsh.lsh import MinHashLSH
from repro.minhash.batch import SignatureBatch

NUM_PERM = 64
BBITS = [None, 8, 16]


class WeakHashKernel(NumpyKernel):
    """The numpy kernel with its band hash cut to 3 bits."""

    name = "weak-hash"

    def band_hash(self, lanes, salt=None):
        return super().band_hash(lanes, salt) & np.uint64(7)


WEAK = WeakHashKernel()


@pytest.fixture(scope="module")
def entries():
    corpus = generate_corpus(num_domains=160, max_size=2_000, seed=23)
    return corpus.entries(corpus.signatures(num_perm=NUM_PERM, seed=1))


def _queries(entries, step=5):
    picked = entries[::step]
    batch = SignatureBatch(None, np.stack([sig.hashvalues
                                           for _, sig, _ in picked]))
    return batch, [size for _, __, size in picked]


def _collided(layout) -> bool:
    """Whether some built depth really holds buckets sharing a hash."""
    return any(layout.depth(r).ambiguous for r in layout.built_depths)


def test_the_weak_kernel_is_an_unregistered_instance():
    assert kernel_name(WEAK) is None
    assert get_kernel(WEAK) is WEAK


class TestEnsemble:
    @staticmethod
    def _pair(entries, bbit=None):
        indexes = [LSHEnsemble(threshold=0.5, num_perm=NUM_PERM,
                               num_partitions=4, kernel=kernel, bbit=bbit)
                   for kernel in (WEAK, None)]
        for index in indexes:
            index.index(entries)
        return indexes

    @pytest.mark.parametrize("bbit", BBITS)
    def test_query_batch_one_row_and_many(self, entries, bbit):
        weak, default = self._pair(entries, bbit)
        batch, sizes = _queries(entries)
        for threshold in (0.2, 0.5, 0.9):
            assert (weak.query_batch(batch, sizes, threshold)
                    == default.query_batch(batch, sizes, threshold))
            for j in range(0, len(sizes), 4):
                one = SignatureBatch(None, batch.matrix[j:j + 1])
                assert (weak.query_batch(one, sizes[j:j + 1], threshold)
                        == default.query_batch(one, sizes[j:j + 1],
                                               threshold))
        assert _collided(weak._layout)

    def test_query_top_k_batch(self, entries):
        weak, default = self._pair(entries)
        batch, sizes = _queries(entries, step=7)
        assert (weak.query_top_k_batch(batch, 5, sizes)
                == default.query_top_k_batch(batch, 5, sizes))

    def test_pending_delta_and_tombstones(self, entries):
        base, extra = entries[:120], entries[120:]
        batch, sizes = _queries(entries, step=3)
        indexes = []
        for kernel in (WEAK, None):
            index = LSHEnsemble(threshold=0.5, num_perm=NUM_PERM,
                                num_partitions=4, kernel=kernel)
            index.index(base)
            for key, sig, size in extra[:30]:
                index.insert(key, sig, size)
            index.query_batch(batch, sizes)  # flushes the delta
            for key, _, __ in base[::9] + extra[:30:4]:
                index.remove(key)  # tombstones and flushed-delta removes
            for key, sig, size in extra[30:]:
                index.insert(key, sig, size)  # left pending
            indexes.append(index)
        weak, default = indexes
        assert weak.query_batch(batch, sizes) == default.query_batch(
            batch, sizes)
        assert (weak.query_top_k_batch(batch, 5, sizes)
                == default.query_top_k_batch(batch, 5, sizes))
        assert _collided(weak._layout)


@pytest.mark.parametrize("bbit", BBITS)
def test_prefix_forest_query_batch(entries, bbit):
    keys = [key for key, _, __ in entries]
    matrix = np.stack([sig.hashvalues for _, sig, __ in entries])
    weak = PrefixForest(NUM_PERM, kernel=WEAK, bbit=bbit)
    default = PrefixForest(NUM_PERM, bbit=bbit)
    for forest in (weak, default):
        forest.insert_batch(keys, matrix)
    batch, _ = _queries(entries)
    for b, r in ((1, 1), (3, 2), (8, 5), (8, 8)):
        assert weak.query_batch(batch, b, r) == default.query_batch(
            batch, b, r)
    assert _collided(weak._layout)


@pytest.mark.parametrize("bbit", BBITS)
def test_minhash_lsh_query_batch(entries, bbit):
    keys = [key for key, _, __ in entries]
    matrix = np.stack([sig.hashvalues for _, sig, __ in entries])
    batch, _ = _queries(entries)
    for threshold in (0.3, 0.7):
        weak = MinHashLSH(threshold, NUM_PERM, kernel=WEAK, bbit=bbit)
        default = MinHashLSH(threshold, NUM_PERM, bbit=bbit)
        for lsh in (weak, default):
            lsh.insert_batch(keys, matrix)
        assert weak.query_batch(batch) == default.query_batch(batch)
        assert _collided(weak._forest._layout)
