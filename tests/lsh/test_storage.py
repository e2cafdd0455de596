"""Unit tests for bucket storage."""

from repro.lsh.storage import DictHashTableStorage


class TestDictHashTableStorage:
    def test_insert_and_get(self):
        s = DictHashTableStorage()
        s.insert("bucket", "k1")
        s.insert("bucket", "k2")
        assert s.get("bucket") == {"k1", "k2"}

    def test_get_missing_is_empty(self):
        assert DictHashTableStorage().get("nope") == frozenset()

    def test_get_returns_snapshot(self):
        s = DictHashTableStorage()
        s.insert("b", "k")
        snap = s.get("b")
        s.insert("b", "k2")
        assert snap == {"k"}

    def test_remove(self):
        s = DictHashTableStorage()
        s.insert("b", "k1")
        s.insert("b", "k2")
        s.remove("b", "k1")
        assert s.get("b") == {"k2"}

    def test_remove_last_key_drops_bucket(self):
        s = DictHashTableStorage()
        s.insert("b", "k")
        s.remove("b", "k")
        assert len(s) == 0

    def test_remove_missing_is_noop(self):
        s = DictHashTableStorage()
        s.remove("b", "k")  # must not raise
        s.insert("b", "k")
        s.remove("b", "other")
        assert s.get("b") == {"k"}

    def test_len_counts_buckets(self):
        s = DictHashTableStorage()
        s.insert("b1", "k")
        s.insert("b2", "k")
        assert len(s) == 2

    def test_keys_iteration(self):
        s = DictHashTableStorage()
        s.insert("b1", "k")
        s.insert("b2", "k")
        assert set(s.keys()) == {"b1", "b2"}

    def test_bucket_sizes(self):
        s = DictHashTableStorage()
        s.insert("b1", "k1")
        s.insert("b1", "k2")
        s.insert("b2", "k3")
        assert sorted(s.bucket_sizes()) == [1, 2]

    def test_duplicate_insert_collapses(self):
        s = DictHashTableStorage()
        s.insert("b", "k")
        s.insert("b", "k")
        assert s.get("b") == {"k"}


class TestGetView:
    def test_view_reflects_contents(self):
        s = DictHashTableStorage()
        s.insert("b", "k1")
        s.insert("b", "k2")
        assert set(s.get_view("b")) == {"k1", "k2"}

    def test_missing_bucket_is_empty_frozenset(self):
        view = DictHashTableStorage().get_view("nope")
        assert view == frozenset()

    def test_view_is_live(self):
        # Unlike get(), the view aliases internal state (documented).
        s = DictHashTableStorage()
        s.insert("b", "k1")
        view = s.get_view("b")
        s.insert("b", "k2")
        assert "k2" in view

    def test_union_does_not_mutate_view(self):
        s = DictHashTableStorage()
        s.insert("b", "k1")
        out = set()
        out |= s.get_view("b")
        out.add("other")
        assert s.get("b") == {"k1"}


class TestGetViewAliasingContract:
    """Regression tests for the documented aliasing rules.

    ``get_view`` results may alias internal state and must not be
    retained across mutations; ``get`` must return an independent
    frozenset snapshot.  Code relying on anything stronger is wrong.
    """

    def test_view_must_not_be_retained_across_bucket_removal(self):
        # After the last member of a bucket is removed, a retained view
        # is detached from storage: later inserts under the same bucket
        # key are invisible to it.  This is exactly why the contract
        # forbids retaining views across mutations.
        s = DictHashTableStorage()
        s.insert("b", "k1")
        view = s.get_view("b")
        s.remove("b", "k1")     # bucket dropped; view now points nowhere
        s.insert("b", "k2")     # fresh bucket object
        assert "k2" not in view
        assert s.get("b") == {"k2"}

    def test_get_returns_independent_frozenset(self):
        s = DictHashTableStorage()
        s.insert("b", "k1")
        snapshot = s.get("b")
        assert isinstance(snapshot, frozenset)
        s.insert("b", "k2")
        s.remove("b", "k1")
        assert snapshot == {"k1"}
        assert s.get("b") == {"k2"}

    def test_get_of_missing_bucket_is_fresh_empty(self):
        s = DictHashTableStorage()
        empty = s.get("missing")
        assert isinstance(empty, frozenset)
        s.insert("missing", "k")
        assert empty == frozenset()


class TestBatchedProbes:
    def test_merge_packed_small_table_dict_path(self):
        s = DictHashTableStorage()
        key1 = (1).to_bytes(8, "little")
        key2 = (2).to_bytes(8, "little")
        s.insert(key1, "k1")
        s.insert(key2, "k2")
        results = [set(), set(), set()]
        buf = key2 + key1 + (9).to_bytes(8, "little")
        s.merge_packed(buf, 8, results, [0, 1, 2])
        assert results == [{"k2"}, {"k1"}, set()]

    def test_merge_packed_vectorized_path_matches_dict_path(self):
        import numpy as np

        from repro.lsh.storage import _MIN_VECTOR_KEYS

        rng = np.random.default_rng(3)
        s = DictHashTableStorage()
        keys = []
        for i in range(_MIN_VECTOR_KEYS + 10):
            key = rng.integers(0, 2 ** 63, size=2,
                               dtype=np.uint64).tobytes()
            s.insert(key, "k%d" % i)
            keys.append(key)
        # Probe every stored key plus misses, above the vector-probe gate.
        probes = keys + [rng.integers(0, 2 ** 63, size=2,
                                      dtype=np.uint64).tobytes()
                         for _ in range(20)]
        results = [set() for _ in probes]
        s.merge_packed(b"".join(probes), 16, results, range(len(probes)))
        expected = [set(s.get(k)) for k in probes]
        assert results == expected

    def test_merge_packed_row_remapping(self):
        s = DictHashTableStorage()
        key = (7).to_bytes(8, "little")
        s.insert(key, "hit")
        results = [set(), set()]
        s.merge_packed(key, 8, results, [1])
        assert results == [set(), {"hit"}]

    def test_vector_index_invalidated_by_mutation(self):
        import numpy as np

        rng = np.random.default_rng(4)
        s = DictHashTableStorage()
        keys = [rng.integers(0, 2 ** 63, size=1, dtype=np.uint64).tobytes()
                for _ in range(100)]
        for i, key in enumerate(keys):
            s.insert(key, "k%d" % i)
        results = [set() for _ in range(100)]
        s.merge_packed(b"".join(keys), 8, results, range(100))  # build
        new_key = (12345).to_bytes(8, "little")
        s.insert(new_key, "fresh")      # must invalidate the index
        s.remove(keys[0], "k0")         # bucket dropped: also invalidates
        probes = [new_key, keys[0]] + keys[1:40]
        results = [set() for _ in probes]
        s.merge_packed(b"".join(probes), 8, results, range(len(probes)))
        assert results[0] == {"fresh"}
        assert results[1] == set()
        for got, key in zip(results[2:], keys[1:40]):
            assert got == set(s.get(key))


class TestInsertPacked:
    def test_matches_per_key_inserts(self):
        import numpy as np

        rows = np.arange(24, dtype=np.uint64).reshape(6, 4)
        buf = rows.tobytes()
        keys = ["k%d" % i for i in range(6)]
        bulk = DictHashTableStorage()
        bulk.insert_packed(buf, 32, keys)
        loop = DictHashTableStorage()
        for i, key in enumerate(keys):
            loop.insert(rows[i].tobytes(), key)
        for i in range(6):
            assert bulk.get(rows[i].tobytes()) == loop.get(rows[i].tobytes())
        assert len(bulk) == len(loop)

    def test_duplicate_bucket_keys_accumulate(self):
        import numpy as np

        rows = np.zeros((3, 2), dtype=np.uint64)
        s = DictHashTableStorage()
        s.insert_packed(rows.tobytes(), 16, ["a", "b", "c"])
        assert s.get(rows[0].tobytes()) == {"a", "b", "c"}
