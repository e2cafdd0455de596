"""Mutation-epoch semantics: bumps, reporting, and persistence.

``generation`` only moves on rebalance; the epoch must move on *every*
logical mutation and survive save/load round trips (single-file v2,
dynamic manifest — where the always-rewritten manifest is authoritative
over a reused base segment — and sharded cluster manifests).
"""

from __future__ import annotations

import pytest

from repro.core.ensemble import LSHEnsemble
from repro.minhash.generator import sample_signatures
from repro.parallel.sharded import ShardedEnsemble
from repro.persistence import load_ensemble, read_header, save_ensemble

NUM_PERM = 64


def _entries(n: int, offset: int = 0):
    sizes = [10 + 5 * (i % 20) for i in range(n)]
    signatures = sample_signatures(sizes, num_perm=NUM_PERM, seed=1)
    return [("k%d" % (offset + i), sig, size)
            for i, (sig, size) in enumerate(zip(signatures, sizes))]


@pytest.fixture()
def index():
    index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4,
                        threshold=0.5)
    index.index(_entries(60))
    return index


class TestEpochBumps:
    def test_build_starts_at_zero(self, index):
        assert index.mutation_epoch == 0
        assert index.generation == 0

    def test_every_mutation_bumps_once(self, index):
        (key, sig, size), = _entries(1, offset=100)
        index.insert(key, sig, size)
        assert index.mutation_epoch == 1
        index.remove(key)           # delta-tier removal
        assert index.mutation_epoch == 2
        index.remove("k0")          # base-tier tombstone
        assert index.mutation_epoch == 3
        summary = index.rebalance()
        assert index.mutation_epoch == 4
        assert index.generation == summary["generation"] == 1

    def test_generation_alone_cannot_distinguish_states(self, index):
        """The satellite fix's motivation: same generation, different
        contents — only the epoch tells them apart."""
        generation = index.generation
        index.remove("k0")
        assert index.generation == generation
        assert index.mutation_epoch == 1

    def test_queries_do_not_bump(self, index):
        (key, sig, size), = _entries(1, offset=100)
        index.insert(key, sig, size)
        epoch = index.mutation_epoch
        index.query(sig, size=size, threshold=0.1)  # flushes the delta
        index.query_batch([sig], sizes=[size], threshold=0.1)
        index.query_top_k(sig, 3, size=size)
        index.drift_stats()
        index.stats()
        assert index.mutation_epoch == epoch

    def test_reported_in_drift_and_stats(self, index):
        index.remove("k1")
        assert index.drift_stats()["mutation_epoch"] == 1
        assert index.stats()["mutation_epoch"] == 1


class TestEpochPersistence:
    def test_v2_single_file_round_trip(self, index, tmp_path):
        (key, sig, size), = _entries(1, offset=100)
        index.insert(key, sig, size)
        index.remove("k0")
        index.rebalance()  # folds the write tiers: v2-saveable again
        assert index.mutation_epoch == 3
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        assert read_header(path)["mutation_epoch"] == 3
        loaded = load_ensemble(path)
        assert loaded.mutation_epoch == 3
        assert loaded.generation == 1

    def test_dynamic_manifest_round_trip(self, index, tmp_path):
        (key, sig, size), = _entries(1, offset=100)
        index.insert(key, sig, size)
        index.remove("k0")
        directory = tmp_path / "dynamic"
        save_ensemble(index, directory)
        assert read_header(directory)["mutation_epoch"] == 2
        loaded = load_ensemble(directory)
        assert loaded.mutation_epoch == 2

    def test_manifest_is_authoritative_over_reused_base(self, tmp_path):
        """A re-save that reuses the immutable base segment must still
        persist the *current* epoch (the base header's copy is stale)."""
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4)
        index.index(_entries(60))
        directory = tmp_path / "dynamic"
        (key, sig, size), = _entries(1, offset=100)
        index.insert(key, sig, size)
        save_ensemble(index, directory)
        loaded = load_ensemble(directory)
        assert loaded.mutation_epoch == 1
        (key2, sig2, size2), = _entries(1, offset=200)
        loaded.insert(key2, sig2, size2)
        loaded.remove("k3")
        save_ensemble(loaded, directory)  # base segment is reused
        reloaded = load_ensemble(directory)
        assert reloaded.mutation_epoch == 3
        base_header = read_header(
            directory / sorted(p.name for p in directory.glob("base-*"))[0])
        assert base_header["mutation_epoch"] < 3  # stale copy, ignored


class TestShardedEpoch:
    def _cluster(self, parallel: bool = True):
        cluster = ShardedEnsemble(
            num_shards=3, parallel=parallel,
            ensemble_factory=lambda: LSHEnsemble(
                num_perm=NUM_PERM, num_partitions=4, threshold=0.5))
        cluster.index(_entries(60))
        return cluster

    def test_cluster_mutations_bump_once(self):
        with self._cluster() as cluster:
            (key, sig, size), = _entries(1, offset=100)
            cluster.insert(key, sig, size)
            assert cluster.mutation_epoch == 1
            cluster.remove(key)
            assert cluster.mutation_epoch == 2
            cluster.rebalance()
            assert cluster.mutation_epoch == 3
            assert cluster.drift_stats()["mutation_epoch"] == 3

    def test_epoch_monotone_across_decommission(self):
        """Shard removal must not shrink the cluster epoch (a per-shard
        sum would)."""
        with self._cluster() as cluster:
            victim_keys = list(cluster.shards[-1].keys())
            for key in victim_keys:
                cluster.remove(key)
            before = cluster.mutation_epoch
            cluster.rebalance()
            assert cluster.active_shards == 2
            assert cluster.mutation_epoch == before + 1

    def test_cluster_save_load_round_trip(self, tmp_path):
        with self._cluster() as cluster:
            (key, sig, size), = _entries(1, offset=100)
            cluster.insert(key, sig, size)
            cluster.remove("k5")
            directory = tmp_path / "cluster"
            cluster.save(directory)
            epoch = cluster.mutation_epoch
        loaded = ShardedEnsemble.load(directory)
        with loaded:
            assert loaded.mutation_epoch == epoch == 2

    def test_legacy_cluster_manifest_falls_back_to_shard_sum(self,
                                                             tmp_path):
        import json

        with self._cluster() as cluster:
            (key, sig, size), = _entries(1, offset=100)
            cluster.insert(key, sig, size)
            directory = tmp_path / "cluster"
            cluster.save(directory)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["mutation_epoch"]
        manifest_path.write_text(json.dumps(manifest))
        loaded = ShardedEnsemble.load(directory)
        with loaded:
            # The inserting shard persisted epoch 1; the others 0.
            assert loaded.mutation_epoch == 1
