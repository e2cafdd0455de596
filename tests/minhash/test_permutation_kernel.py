"""The one permutation kernel: exact reduction, block-edge parity with
the scalar paths, and working memory bounded by the block."""

import tracemalloc

import numpy as np
import pytest

from repro.minhash.generator import MinHashGenerator
from repro.minhash.minhash import (
    MAX_HASH,
    MinHash,
    _CHUNK_ELEMENTS,
    _mod_mersenne_low32,
    permuted_minima,
)

NUM_PERM = 16
P = (1 << 61) - 1
MASK = (1 << 32) - 1


def reference_permuted(h, a, b):
    """The permuted hash in Python ints: numpy's uint64 wrap made explicit."""
    return ((h * a + b) % 2**64) % P & MASK


class TestReduction:
    @pytest.mark.parametrize("x", [0, 1, P - 1, P, P + 1, P + 7, 2 * P,
                                   2**61, 2**63, 2**64 - 1])
    def test_fold_matches_modulo_on_wrapped_values(self, x):
        buf = np.array([[x]], dtype=np.uint64)
        _mod_mersenne_low32(buf, np.empty_like(buf))
        assert int(buf[0, 0]) == x % P & MASK

    @pytest.mark.parametrize("h", [0, 1, 2**32 - 1])
    @pytest.mark.parametrize("a", [1, P - 1, P - 2])
    @pytest.mark.parametrize("b", [1, P - 1, P - 2])
    def test_kernel_matches_python_int_arithmetic(self, h, a, b):
        out = np.full((1, 1), 2**64 - 1, dtype=np.uint64)
        permuted_minima(np.array([h], dtype=np.uint64),
                        np.zeros(1, dtype=np.intp),
                        np.array([a], dtype=np.uint64),
                        np.array([b], dtype=np.uint64), out)
        assert int(out[0, 0]) == reference_permuted(h, a, b)

    def test_random_lanes_match_the_division(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2**64, size=(64, 32), dtype=np.uint64)
        expected = (x % np.uint64(P)) & MAX_HASH
        _mod_mersenne_low32(x, np.empty_like(x))
        assert np.array_equal(x, expected)


def edge_domains(block_rows, rng):
    """Domains whose sizes sit on every edge of a ``block_rows`` block."""
    sizes = [0, block_rows, 0, block_rows + 1, 3 * block_rows + 2, 1, 0,
             max(1, block_rows - 1), 2 * block_rows, 0]
    sizes += rng.integers(0, 2 * block_rows + 2, size=6).tolist()
    # Values are drawn from a pool a little larger than the biggest
    # domain, so domains overlap and the value-hash cache takes hits.
    pool = 4 * block_rows + 8
    return [["v%d" % v for v in rng.choice(pool, size=n, replace=False)]
            for n in sizes]


@pytest.mark.parametrize("rows_per_block", [1, 3, 7, None])
def test_bulk_equals_minhash_equals_scalar_loop(rows_per_block):
    rng = np.random.default_rng(11)
    chunk = None if rows_per_block is None else NUM_PERM * rows_per_block
    block_rows = rows_per_block or _CHUNK_ELEMENTS // NUM_PERM
    domains = edge_domains(block_rows, rng)
    generator = MinHashGenerator(num_perm=NUM_PERM, seed=3)
    a, b = generator._permutations()
    batch = generator.bulk(domains, chunk_elements=chunk)
    for row, values in zip(batch.matrix, domains):
        assert np.array_equal(
            row, MinHash.from_values(values, num_perm=NUM_PERM,
                                     seed=3).hashvalues)
        scalar = MinHash(num_perm=NUM_PERM, seed=3)
        for v in values:
            scalar.update(v)
        assert np.array_equal(row, scalar.hashvalues)
        hashes = [generator.hashfunc(v) for v in values]
        assert row.tolist() == [
            min([reference_permuted(h, int(ai), int(bi)) for h in hashes],
                default=MASK)
            for ai, bi in zip(a, b)]


@pytest.mark.parametrize("empties", ["first", "middle", "last", "all"])
@pytest.mark.parametrize("rows_per_block", [1, 3, 7, None])
def test_empty_domains_keep_the_unupdated_row(empties, rows_per_block):
    full = ["x%d" % i for i in range(10)]
    domains = {"first": [[], full, full[:4]],
               "middle": [full, [], [], full[:4]],
               "last": [full, full[:4], []],
               "all": [[], [], []]}[empties]
    generator = MinHashGenerator(num_perm=NUM_PERM, seed=1)
    batch = generator.bulk(
        domains, chunk_elements=rows_per_block and NUM_PERM * rows_per_block)
    for row, values in zip(batch.matrix, domains):
        assert np.array_equal(
            row, MinHash.from_values(values, num_perm=NUM_PERM,
                                     seed=1).hashvalues)


class TestWorkingMemoryIsOneBlock:
    """The chunk budget is a bound: one huge domain allocates O(block),
    not a (values, num_perm) matrix (205 MB here, three times over)."""

    VALUES = 200_000
    BOUND = 8 * 1024 * 1024

    def peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_bulk(self):
        generator = MinHashGenerator(num_perm=128, hashfunc=int)
        domain = list(range(self.VALUES))
        # The value-hash cache (and the coefficient arrays) are state the
        # generator keeps, not working memory of a pass: fill them first.
        generator.bulk([domain])
        assert self.peak(lambda: generator.bulk([domain])) < self.BOUND

    def test_update_hashvalues_batch(self):
        hashes = np.arange(self.VALUES, dtype=np.uint64)
        m = MinHash(num_perm=128)
        assert self.peak(
            lambda: m.update_hashvalues_batch(hashes)) < self.BOUND
