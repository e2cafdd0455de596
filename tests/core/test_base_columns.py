"""The base tier is its columns: no per-row signature objects exist.

Build, reopen, delta top-up, physical removal and rebalance move
row-aligned arrays; a signature is a matrix row wrapped only when
``get_signature`` / ``signatures_for`` asks for it.
"""

import gc

import numpy as np
import pytest

from repro import LeanMinHash, LSHEnsemble, load_ensemble, save_ensemble

NUM_PERM = 32
ROWS = 2000


def live_lean_count() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, LeanMinHash))


def entries(n, start=0, seed=0):
    """``(key, signature, size)`` triples whose signatures are dropped
    as soon as the index has read them."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2 ** 32, size=(n, NUM_PERM), dtype=np.uint64)
    sizes = rng.pareto(1.5, size=n).astype(np.int64) * 10 + 10
    for i in range(n):
        yield ("k%d" % (start + i),
               LeanMinHash(seed=1, hashvalues=matrix[i]), int(sizes[i]))


def build(n=ROWS):
    index = LSHEnsemble(threshold=0.5, num_perm=NUM_PERM, num_partitions=8)
    index.index(entries(n))
    return index


# Wrappers the test itself or the interpreter may hold; far below ROWS.
SLACK = 64


class TestNoPerRowObjects:
    def test_build_keeps_no_wrappers(self):
        before = live_lean_count()
        index = build()
        assert live_lean_count() - before < SLACK
        assert not hasattr(index, "_signatures")
        assert not hasattr(index, "_sizes")

    def test_reopen_keeps_no_wrappers(self, tmp_path):
        save_ensemble(build(), tmp_path / "index.lshe")
        before = live_lean_count()
        loaded = load_ensemble(tmp_path / "index.lshe")
        assert live_lean_count() - before < SLACK
        assert len(loaded) == ROWS

    def test_rebalance_and_removal_keep_no_wrappers(self, tmp_path):
        save_ensemble(build(), tmp_path / "index.lshe")
        before = live_lean_count()
        loaded = load_ensemble(tmp_path / "index.lshe")
        for key in ("k1", "k7", "k1999"):
            loaded.remove(key)
        loaded.rebalance()
        assert live_lean_count() - before < SLACK
        assert len(loaded) == ROWS - 3

    def test_delta_top_up_and_physical_remove_keep_no_wrappers(self):
        before = live_lean_count()
        index = build(10)
        for key, signature, size in entries(200, start=10_000, seed=1):
            index.insert(key, signature, size)
        index.materialize()             # flush: a full inner rebuild
        for key, signature, size in entries(20, start=20_000, seed=2):
            index.insert(key, signature, size)
        inner = index._delta.inner_index()   # flush: a top-up
        index.remove("k10000")               # physical inner removal
        assert len(inner) == 219
        # The delta stages one wrapper per inserted entry (its inputs);
        # its inner index adds none.
        staged = len(index._delta)
        assert live_lean_count() - before < staged + SLACK

    def test_signature_wraps_the_mapped_row(self, tmp_path):
        index = build()
        save_ensemble(index, tmp_path / "index.lshe")
        loaded = load_ensemble(tmp_path / "index.lshe", mmap=True)
        signature = loaded.get_signature("k42")
        assert np.shares_memory(signature.hashvalues, loaded._layout.matrix)
        assert signature == index.get_signature("k42")
        signatures, sizes = loaded.signatures_for(["k42", "absent"])
        assert list(signatures) == ["k42"]
        assert sizes == {"k42": index.size_of("k42")}


class TestColumns:
    def test_columns_are_row_aligned_and_read_only(self):
        index = build(300)
        keys, sizes, matrix, seeds = index._columns()
        assert len(keys) == len(sizes) == len(matrix) == len(seeds) == 300
        for column in (keys, sizes, matrix, seeds):
            assert not column.flags.writeable
        assert index._rows == {key: row for row, key in enumerate(keys)}

    def test_keys_iterate_in_row_order(self):
        index = build(300)
        index.remove("k5")
        index.insert("new", LeanMinHash(seed=1, hashvalues=np.arange(
            NUM_PERM, dtype=np.uint64)), 50)
        rows = [key for key in index._layout.keys.tolist() if key != "k5"]
        assert list(index.keys()) == rows + ["new"]

    def test_stats_partition_counts_match_the_rows(self):
        index = build(500)
        index.remove("k3")
        index.insert("huge", LeanMinHash(seed=1, hashvalues=np.arange(
            NUM_PERM, dtype=np.uint64)), 10 ** 7)
        stats = index.stats()
        counts = [p["count"] for p in stats["partitions"]]
        assert sum(counts) == len(index) == 500
        for partition, entry in zip(index.partitions, stats["partitions"]):
            held = [index.size_of(key) for key in index.keys()
                    if min(max(index.size_of(key), index.partitions[0].lower),
                           index.partitions[-1].upper - 1) in partition]
            assert entry["count"] == len(held)
            assert entry["min_size"] == (min(held) if held else None)
            assert entry["max_size"] == (max(held) if held else None)

    def test_remove_physical_unknown_key_raises(self):
        index = build(100)
        with index.locked(), pytest.raises(KeyError):
            index._remove_physical_locked("absent")
