"""Unit tests for the dynamic LSH prefix forest."""

import pytest

from repro.forest.prefix_forest import PrefixForest, default_forest_shape
from repro.minhash.minhash import MinHash
from tests.conftest import make_overlapping_sets


def sig(values, num_perm=64):
    return MinHash.from_values(values, num_perm=num_perm)


def built_depths(forest):
    """The depths whose buckets the forest has built so far."""
    layout = forest._layout
    return () if layout is None else layout.built_depths


class TestDefaultShape:
    def test_paper_shape(self):
        assert default_forest_shape(256) == (32, 8)

    def test_product_fits(self):
        for m in (16, 64, 128, 256, 100, 30):
            trees, depth = default_forest_shape(m)
            assert trees * depth <= m

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_forest_shape(1)


class TestConstruction:
    def test_auto_shape(self):
        f = PrefixForest(num_perm=64)
        assert f.num_trees * f.max_depth <= 64

    def test_explicit_shape_validated(self):
        with pytest.raises(ValueError):
            PrefixForest(num_perm=64, num_trees=16, max_depth=8)

    def test_bad_shape_values(self):
        with pytest.raises(ValueError):
            PrefixForest(num_perm=64, num_trees=0, max_depth=4)

    def test_invalid_num_perm(self):
        with pytest.raises(ValueError):
            PrefixForest(num_perm=1)


class TestInsertQuery:
    def test_identical_found_at_any_params(self):
        f = PrefixForest(num_perm=64, num_trees=8, max_depth=8)
        s = sig(["a", "b", "c"])
        f.insert("k", s)
        for b in (1, 4, 8):
            for r in (1, 4, 8):
                assert "k" in f.query(s, b, r)

    def test_duplicate_key_rejected(self):
        f = PrefixForest(num_perm=64)
        f.insert("k", sig(["a"]))
        with pytest.raises(ValueError):
            f.insert("k", sig(["b"]))

    def test_num_perm_mismatch(self):
        f = PrefixForest(num_perm=64)
        with pytest.raises(ValueError):
            f.insert("k", sig(["a"], num_perm=32))
        f.insert("k", sig(["a"]))
        with pytest.raises(ValueError):
            f.query(sig(["a"], num_perm=32), 1, 1)

    def test_param_bounds_checked(self):
        f = PrefixForest(num_perm=64, num_trees=8, max_depth=8)
        f.insert("k", sig(["a"]))
        s = sig(["a"])
        with pytest.raises(ValueError):
            f.query(s, 0, 1)
        with pytest.raises(ValueError):
            f.query(s, 9, 1)
        with pytest.raises(ValueError):
            f.query(s, 1, 0)
        with pytest.raises(ValueError):
            f.query(s, 1, 9)

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            PrefixForest(num_perm=64).insert("k", {"a"})


class TestDynamicBehaviour:
    """The point of the forest: (b, r) selectivity knobs at query time."""

    def _build(self):
        f = PrefixForest(num_perm=128, num_trees=16, max_depth=8)
        for i in range(30):
            shared, other = make_overlapping_sets(
                20 + i, 30, 30, tag="dyn%d" % i
            )
            f.insert("d%d" % i, sig(shared, num_perm=128))
        return f

    def test_deeper_r_is_more_selective(self):
        f = self._build()
        probe = sig(["dyn5_shared_%d" % i for i in range(25)], num_perm=128)
        shallow = f.query(probe, b=16, r=1)
        deep = f.query(probe, b=16, r=8)
        assert deep <= shallow

    def test_more_trees_is_more_inclusive(self):
        f = self._build()
        probe = sig(["dyn5_shared_%d" % i for i in range(25)], num_perm=128)
        few = f.query(probe, b=1, r=4)
        many = f.query(probe, b=16, r=4)
        assert few <= many

    def test_agrees_with_static_lsh(self):
        """Forest at (b, r) must equal a static LSH built at (b, r)."""
        from repro.lsh.lsh import MinHashLSH

        f = PrefixForest(num_perm=128, num_trees=16, max_depth=8)
        static = MinHashLSH(num_perm=128, params=(16, 8))
        sigs = {}
        for i in range(40):
            shared, _ = make_overlapping_sets(10 + i, 20, 0, tag="ag%d" % i)
            s = sig(shared, num_perm=128)
            sigs["k%d" % i] = s
            f.insert("k%d" % i, s)
            static.insert("k%d" % i, s)
        probe = sigs["k7"]
        assert f.query(probe, b=16, r=8) == static.query(probe)


class TestRemove:
    def test_remove_then_absent(self):
        f = PrefixForest(num_perm=64, num_trees=8, max_depth=8)
        s = sig(["a", "b"])
        f.insert("k", s)
        f.remove("k")
        assert "k" not in f
        assert "k" not in f.query(s, 8, 1)

    def test_remove_missing(self):
        with pytest.raises(KeyError):
            PrefixForest(num_perm=64).remove("ghost")

    def test_remove_leaves_others(self):
        f = PrefixForest(num_perm=64, num_trees=8, max_depth=8)
        s1, s2 = sig(["a"]), sig(["b"])
        f.insert("k1", s1)
        f.insert("k2", s2)
        f.remove("k1")
        assert "k2" in f.query(s2, 8, 1)


class TestIntrospection:
    def test_len_contains_empty(self):
        f = PrefixForest(num_perm=64)
        assert f.is_empty() and len(f) == 0
        f.insert("k", sig(["a"]))
        assert not f.is_empty() and len(f) == 1 and "k" in f

    def test_get_signature(self):
        f = PrefixForest(num_perm=64)
        s = sig(["a"])
        f.insert("k", s)
        assert f.get_signature("k").jaccard(s) == 1.0

    def test_repr(self):
        assert "keys=0" in repr(PrefixForest(num_perm=64))


class TestQueryBatch:
    def _populated(self, n=20):
        f = PrefixForest(num_perm=64, num_trees=8, max_depth=8)
        probes = []
        for i in range(n):
            s = sig(["f%d_%d" % (i, j) for j in range(4 + i)])
            f.insert("k%d" % i, s)
            probes.append(s)
        return f, probes

    def test_matches_single_query_loop(self):
        f, probes = self._populated()
        from repro.minhash.batch import SignatureBatch

        batch = SignatureBatch.from_signatures(probes)
        for b, r in ((1, 1), (4, 3), (8, 8)):
            assert f.query_batch(batch, b, r) == \
                [f.query(s, b, r) for s in probes]

    def test_vectorized_path_matches_loop_path(self):
        # Enough (row, tree) pairs to cross the prefilter gate.
        f, probes = self._populated(80)
        from repro.minhash.batch import SignatureBatch

        batch = SignatureBatch.from_signatures(probes)
        assert f.query_batch(batch, 8, 4) == \
            [f.query(s, 8, 4) for s in probes]

    def test_probe_cache_invalidated_by_mutation(self):
        f, probes = self._populated(80)
        from repro.minhash.batch import SignatureBatch

        batch = SignatureBatch.from_signatures(probes)
        before = f.query_batch(batch, 8, 4)           # builds the index
        extra = sig(["extra%d" % i for i in range(9)])
        f.insert("fresh", extra)                       # must invalidate
        after = f.query_batch(
            SignatureBatch.from_signatures(probes + [extra]), 8, 4)
        assert after[:-1] == before
        assert "fresh" in after[-1]
        f.remove("fresh")                              # must invalidate
        assert f.query_batch(batch, 8, 4) == before

    def test_invalid_params_rejected(self):
        f, probes = self._populated(3)
        from repro.minhash.batch import SignatureBatch

        batch = SignatureBatch.from_signatures(probes)
        with pytest.raises(ValueError):
            f.query_batch(batch, 0, 1)
        with pytest.raises(ValueError):
            f.query_batch(batch, 1, 9)


class TestInsertBatch:
    """Bulk build must be indistinguishable from a loop of inserts."""

    def _entries(self, n):
        sets = [["v%d_%d" % (i, j) for j in range(5 + i)] for i in range(n)]
        return ["k%d" % i for i in range(n)], [sig(v) for v in sets]

    def _pair(self, n=40):
        keys, sigs = self._entries(n)
        loop = PrefixForest(num_perm=64)
        for k, s in zip(keys, sigs):
            loop.insert(k, s)
        bulk = PrefixForest(num_perm=64)
        from repro.minhash.batch import SignatureBatch

        bulk.insert_batch(keys, SignatureBatch.from_signatures(sigs))
        return loop, bulk, keys, sigs

    def test_queries_match_per_entry_build(self):
        loop, bulk, keys, sigs = self._pair()
        for b, r in ((1, 1), (4, 3), (8, 8)):
            for s in sigs[::7]:
                assert bulk.query(s, b, r) == loop.query(s, b, r)

    def test_query_batch_matches(self):
        from repro.minhash.batch import SignatureBatch

        loop, bulk, keys, sigs = self._pair(60)
        batch = SignatureBatch.from_signatures(sigs)
        assert bulk.query_batch(batch, 8, 4) == loop.query_batch(batch, 8, 4)

    def test_membership_and_signatures_immediate(self):
        _, bulk, keys, sigs = self._pair()
        # Before any query materialises tables, the keys are visible.
        assert len(bulk) == len(keys)
        assert keys[3] in bulk
        assert bulk.get_signature(keys[3]).hashvalues.tolist() == \
            sigs[3].hashvalues.tolist()

    def test_mutation_after_batch(self):
        loop, bulk, keys, sigs = self._pair()
        extra = sig(["x1", "x2", "x3"])
        loop.insert("extra", extra)
        bulk.insert("extra", extra)
        loop.remove(keys[5])
        bulk.remove(keys[5])
        for b, r in ((2, 2), (8, 8)):
            for s in (sigs[5], extra):
                assert bulk.query(s, b, r) == loop.query(s, b, r)

    def test_matrix_input_and_seeds(self):
        import numpy as np

        keys, sigs = self._entries(10)
        matrix = np.vstack([s.hashvalues for s in sigs])
        f = PrefixForest(num_perm=64)
        f.insert_batch(keys, matrix, seeds=7)
        assert f.get_signature(keys[0]).seed == 7

    def test_readonly_matrix_rows_are_aliased(self):
        import numpy as np

        keys, sigs = self._entries(4)
        matrix = np.vstack([s.hashvalues for s in sigs])
        matrix.setflags(write=False)
        f = PrefixForest(num_perm=64)
        f.insert_batch(keys, matrix, seeds=1)
        stored = f.get_signature(keys[2]).hashvalues
        assert stored.base is matrix or stored.base is matrix.base

    def test_duplicate_keys_rejected(self):
        keys, sigs = self._entries(4)
        f = PrefixForest(num_perm=64)
        from repro.minhash.batch import SignatureBatch

        batch = SignatureBatch.from_signatures(sigs)
        with pytest.raises(ValueError):
            f.insert_batch(["a", "b", "a", "c"], batch)
        f.insert_batch(keys, batch)
        with pytest.raises(ValueError):
            f.insert_batch([keys[1]], SignatureBatch.from_signatures(
                [sigs[1]]))

    def test_key_count_mismatch_rejected(self):
        keys, sigs = self._entries(4)
        from repro.minhash.batch import SignatureBatch

        with pytest.raises(ValueError):
            PrefixForest(num_perm=64).insert_batch(
                keys[:2], SignatureBatch.from_signatures(sigs))

    def test_empty_batch_is_noop(self):
        f = PrefixForest(num_perm=64)
        import numpy as np

        f.insert_batch([], np.empty((0, 64), dtype=np.uint64))
        assert f.is_empty()

    def test_materialize_idempotent(self):
        loop, bulk, keys, sigs = self._pair()
        assert built_depths(bulk) == ()
        bulk.materialize()
        depths = {r: bulk._layout.depth(r) for r in range(1, 9)}
        assert built_depths(bulk) == tuple(range(1, 9))
        bulk.materialize()
        assert all(bulk._layout.depth(r) is index
                   for r, index in depths.items())
        assert bulk.query(sigs[0], 8, 8) == loop.query(sigs[0], 8, 8)

    def test_insert_after_batch_keeps_blocks_lazy(self):
        loop, bulk, keys, sigs = self._pair()
        assert bulk.query(sigs[2], 2, 2) == loop.query(sigs[2], 2, 2)
        assert built_depths(bulk) == (2,)  # a query builds its depth only
        extra = sig(["y1", "y2", "y3"])
        bulk.insert("extra2", extra)
        assert built_depths(bulk) == ()  # dynamic insert builds no depth
        loop.insert("extra2", extra)
        for b, r in ((2, 2), (8, 8)):
            assert bulk.query(extra, b, r) == loop.query(extra, b, r)
            assert bulk.query(sigs[2], b, r) == loop.query(sigs[2], b, r)
        assert built_depths(bulk) == (2, 8)
