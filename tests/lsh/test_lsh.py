"""Unit tests for the classic MinHash LSH index."""

import pytest

from repro.lsh.lsh import MinHashLSH
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MinHash
from tests.conftest import make_overlapping_sets


def sig(values, num_perm=128):
    return MinHash.from_values(values, num_perm=num_perm)


class TestConstruction:
    def test_default_params_respect_budget(self):
        lsh = MinHashLSH(threshold=0.5, num_perm=128)
        assert lsh.b * lsh.r <= 128

    def test_explicit_params(self):
        lsh = MinHashLSH(num_perm=128, params=(16, 8))
        assert (lsh.b, lsh.r) == (16, 8)

    def test_explicit_params_over_budget(self):
        with pytest.raises(ValueError):
            MinHashLSH(num_perm=64, params=(32, 8))

    def test_explicit_params_need_a_band(self):
        with pytest.raises(ValueError, match="b must be positive"):
            MinHashLSH(num_perm=64, params=(0, 8))

    def test_invalid_num_perm(self):
        with pytest.raises(ValueError):
            MinHashLSH(num_perm=1)


class TestInsertQuery:
    def test_identical_set_always_found(self):
        lsh = MinHashLSH(threshold=0.8, num_perm=128)
        s = sig(["a", "b", "c", "d"])
        lsh.insert("doc", s)
        assert "doc" in lsh.query(s)

    def test_near_duplicates_found(self):
        lsh = MinHashLSH(threshold=0.5, num_perm=128)
        base = {"v%d" % i for i in range(200)}
        near = set(list(base)[:190]) | {"x%d" % i for i in range(10)}
        lsh.insert("base", sig(base))
        assert "base" in lsh.query(sig(near))

    def test_disjoint_not_found(self):
        lsh = MinHashLSH(threshold=0.8, num_perm=128)
        lsh.insert("a", sig(["a%d" % i for i in range(100)]))
        result = lsh.query(sig(["b%d" % i for i in range(100)]))
        assert "a" not in result

    def test_accepts_lean_signatures(self):
        lsh = MinHashLSH(threshold=0.5, num_perm=128)
        s = LeanMinHash(sig(["x", "y"]))
        lsh.insert("k", s)
        assert "k" in lsh.query(s)

    def test_duplicate_key_rejected(self):
        lsh = MinHashLSH(num_perm=128)
        lsh.insert("k", sig(["a"]))
        with pytest.raises(ValueError):
            lsh.insert("k", sig(["b"]))

    def test_num_perm_mismatch_rejected(self):
        lsh = MinHashLSH(num_perm=128)
        with pytest.raises(ValueError):
            lsh.insert("k", sig(["a"], num_perm=64))
        lsh.insert("k", sig(["a"]))
        with pytest.raises(ValueError):
            lsh.query(sig(["a"], num_perm=64))

    def test_wrong_type_rejected(self):
        lsh = MinHashLSH(num_perm=128)
        with pytest.raises(TypeError):
            lsh.insert("k", [1, 2, 3])

    def test_query_probability_shape(self):
        # Similarity above the threshold should be retrieved far more often
        # than similarity far below it.
        lsh = MinHashLSH(threshold=0.6, num_perm=128)
        high_hits = low_hits = 0
        trials = 30
        for i in range(trials):
            tag = "t%d" % i
            shared_hi, other_hi = make_overlapping_sets(90, 5, 5,
                                                        tag=tag + "hi")
            shared_lo, other_lo = make_overlapping_sets(10, 90, 90,
                                                        tag=tag + "lo")
            fresh = MinHashLSH(threshold=0.6, num_perm=128)
            fresh.insert("hi", sig(shared_hi))
            fresh.insert("lo", sig(shared_lo))
            if "hi" in fresh.query(sig(other_hi)):
                high_hits += 1
            if "lo" in fresh.query(sig(other_lo)):
                low_hits += 1
        assert high_hits > trials * 0.8
        assert low_hits < trials * 0.3


class TestRemove:
    def test_remove_then_absent(self):
        lsh = MinHashLSH(num_perm=128)
        s = sig(["a", "b"])
        lsh.insert("k", s)
        lsh.remove("k")
        assert "k" not in lsh
        assert "k" not in lsh.query(s)

    def test_remove_missing(self):
        with pytest.raises(KeyError):
            MinHashLSH(num_perm=128).remove("ghost")


class TestIntrospection:
    def test_len_and_contains(self):
        lsh = MinHashLSH(num_perm=128)
        assert lsh.is_empty()
        lsh.insert("k", sig(["a"]))
        assert len(lsh) == 1 and "k" in lsh

    def test_get_signature(self):
        lsh = MinHashLSH(num_perm=128)
        s = sig(["a"])
        lsh.insert("k", s)
        assert lsh.get_signature("k").jaccard(LeanMinHash(s)) == 1.0

    def test_repr(self):
        assert "keys=0" in repr(MinHashLSH(num_perm=128))


class TestQueryBatch:
    def test_matches_single_query_loop(self):
        lsh = MinHashLSH(threshold=0.5, num_perm=128)
        sigs = {}
        for i in range(20):
            values = ["b%d_%d" % (i, j) for j in range(5 + i)]
            sigs["k%d" % i] = sig(values)
            lsh.insert("k%d" % i, sigs["k%d" % i])
        probes = list(sigs.values())
        from repro.minhash.batch import SignatureBatch

        batch = SignatureBatch.from_signatures(probes)
        assert lsh.query_batch(batch) == [lsh.query(s) for s in probes]

    def test_accepts_sequence_and_matrix(self):
        import numpy as np

        lsh = MinHashLSH(threshold=0.5, num_perm=128)
        s = sig(["a", "b", "c"])
        lsh.insert("k", s)
        from_seq = lsh.query_batch([s])
        from_mat = lsh.query_batch(
            np.asarray([LeanMinHash(s).hashvalues]))
        assert from_seq == from_mat == [lsh.query(s)]

    def test_empty_batch(self):
        lsh = MinHashLSH(num_perm=128)
        lsh.insert("k", sig(["a"]))
        assert lsh.query_batch([]) == []

    def test_num_perm_mismatch_rejected(self):
        lsh = MinHashLSH(num_perm=128)
        lsh.insert("k", sig(["a"]))
        with pytest.raises(ValueError):
            lsh.query_batch([sig(["a"], num_perm=64)])


class TestInsertBatch:
    def _pair(self, n=30):
        keys = ["k%d" % i for i in range(n)]
        sigs = [sig(["v%d_%d" % (i, j) for j in range(4 + i)])
                for i in range(n)]
        loop = MinHashLSH(threshold=0.6, num_perm=128)
        for k, s in zip(keys, sigs):
            loop.insert(k, s)
        bulk = MinHashLSH(threshold=0.6, num_perm=128)
        from repro.minhash.batch import SignatureBatch

        bulk.insert_batch(keys, SignatureBatch.from_signatures(sigs))
        return loop, bulk, keys, sigs

    def test_queries_match_per_entry_build(self):
        loop, bulk, keys, sigs = self._pair()
        for s in sigs[::5]:
            assert bulk.query(s) == loop.query(s)

    def test_query_batch_matches(self):
        from repro.minhash.batch import SignatureBatch

        loop, bulk, keys, sigs = self._pair()
        batch = SignatureBatch.from_signatures(sigs)
        assert bulk.query_batch(batch) == loop.query_batch(batch)

    def test_signatures_stored(self):
        _, bulk, keys, sigs = self._pair(5)
        assert bulk.get_signature(keys[2]) == LeanMinHash(sigs[2])
        assert len(bulk) == 5

    def test_remove_after_batch(self):
        loop, bulk, keys, sigs = self._pair(10)
        loop.remove(keys[3])
        bulk.remove(keys[3])
        assert bulk.query(sigs[3]) == loop.query(sigs[3])

    def test_duplicate_keys_rejected(self):
        _, bulk, keys, sigs = self._pair(4)
        from repro.minhash.batch import SignatureBatch

        with pytest.raises(ValueError):
            bulk.insert_batch([keys[0]],
                              SignatureBatch.from_signatures([sigs[0]]))
