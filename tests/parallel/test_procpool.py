"""Process-pool executor: pool mechanics, adapter edges, and the
stale-epoch regression battery.

The parity guarantees (process == threaded == flat, bit-identical) are
property-tested in ``tests/property/test_procpool_properties.py``;
crash/respawn behaviour lives in ``test_procpool_faults.py``.  This
module covers the deterministic unit surface: task plumbing, input
validation, and — critically — that a worker can never answer from
pre-mutation state once the parent's mutation epoch has moved.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import LSHEnsemble
from repro.minhash.batch import SignatureBatch
from repro.minhash.generator import sample_signatures
from repro.parallel.procpool import (
    PooledIndex,
    ProcPool,
    RemoteTaskError,
)

pytestmark = [pytest.mark.procpool, pytest.mark.timeout(120)]

NUM_PERM = 64


def _build_flat(n: int = 200, num_partitions: int = 4) -> tuple:
    sizes = [10 + 7 * (i % 40) for i in range(n)]
    signatures = sample_signatures(sizes, num_perm=NUM_PERM, seed=1)
    entries = [("d%d" % i, sig, size)
               for i, (sig, size) in enumerate(zip(signatures, sizes))]
    index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=num_partitions,
                        threshold=0.5)
    index.index(entries)
    return index, entries


def _batch_of(entries, rows) -> tuple[SignatureBatch, list[int]]:
    matrix = np.vstack([entries[j][1].hashvalues for j in rows])
    return (SignatureBatch(None, matrix, seed=1),
            [entries[j][2] for j in rows])


def _echo_task(value, delay: float = 0.0) -> dict:
    return {"method": "_echo", "args": {"value": value, "delay": delay},
            "source": None, "overlay": None}


class TestProcPool:
    def test_results_align_with_task_order(self, proc_pool):
        tasks = [_echo_task(i) for i in range(7)]
        assert proc_pool.run(tasks) == list(range(7))

    def test_empty_run(self, proc_pool):
        assert proc_pool.run([]) == []

    def test_unknown_method_raises_remote_error(self, proc_pool):
        index, entries = _build_flat(60)
        pooled = PooledIndex(index, proc_pool)
        task = pooled.task_for("query_batch", {
            "matrix": np.vstack([entries[0][1].hashvalues]),
            "seed": 1, "sizes": [entries[0][2]], "threshold": 0.5})
        task["method"] = "no_such_method"
        with pytest.raises(RemoteTaskError, match="no_such_method"):
            proc_pool.run([task])
        # The worker survived the exception: the pool answers again.
        assert proc_pool.run([_echo_task("alive")]) == ["alive"]
        pooled.close()

    def test_remote_error_carries_traceback(self, proc_pool):
        index, entries = _build_flat(60)
        pooled = PooledIndex(index, proc_pool)
        task = pooled.task_for("query_batch", {
            "matrix": np.vstack([entries[0][1].hashvalues]),
            "seed": 1, "sizes": [entries[0][2]], "threshold": 7.5})
        with pytest.raises(RemoteTaskError, match="threshold") as info:
            proc_pool.run([task])
        assert "Traceback" in info.value.remote_traceback
        pooled.close()

    def test_run_after_close_raises(self):
        pool = ProcPool(num_workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run([_echo_task(1)])

    def test_stats_shape(self, proc_pool):
        stats = proc_pool.stats()
        assert stats["num_workers"] == 2
        assert stats["start_method"] in ("fork", "spawn", "forkserver")
        for key in ("runs", "tasks", "retries", "respawns"):
            assert stats[key] >= 0


class TestPooledIndex:
    def test_requires_built_index(self, proc_pool):
        with pytest.raises(RuntimeError, match="empty"):
            PooledIndex(LSHEnsemble(num_perm=NUM_PERM), proc_pool)

    def test_empty_batch(self, proc_pool):
        index, _ = _build_flat(60)
        pooled = PooledIndex(index, proc_pool)
        assert pooled.query_batch(
            SignatureBatch(None, np.empty((0, NUM_PERM),
                                          dtype=np.uint64), seed=1)) == []
        pooled.close()

    def test_sizes_length_mismatch(self, proc_pool):
        index, entries = _build_flat(60)
        pooled = PooledIndex(index, proc_pool)
        batch, sizes = _batch_of(entries, range(4))
        with pytest.raises(ValueError, match="sizes"):
            pooled.query_batch(batch, sizes=sizes[:2])
        pooled.close()

    @pytest.mark.parametrize("rows", [1, 2, 5, 23])
    def test_slicing_is_invisible(self, proc_pool, rows):
        """Any batch size slices across workers without changing the
        answers (including n smaller than the worker count)."""
        index, entries = _build_flat(120)
        pooled = PooledIndex(index, proc_pool)
        batch, sizes = _batch_of(entries, range(rows))
        assert (pooled.query_batch(batch, sizes=sizes, threshold=0.3)
                == index.query_batch(batch, sizes=sizes, threshold=0.3))
        pooled.close()

    def test_shared_spill_dir_no_collision(self, proc_pool, tmp_path):
        """Two adapters sharing one spill_dir must not overwrite each
        other's segments (names embed the unique source id)."""
        index_a, entries_a = _build_flat(90)
        index_b, entries_b = _build_flat(40)
        pa = PooledIndex(index_a, proc_pool, spill_dir=tmp_path)
        pb = PooledIndex(index_b, proc_pool, spill_dir=tmp_path)
        batch, sizes = _batch_of(entries_a, range(5))
        assert (pa.query_batch(batch, sizes=sizes, threshold=0.2)
                == index_a.query_batch(batch, sizes=sizes, threshold=0.2))
        assert (pb.query_batch(batch, sizes=sizes, threshold=0.2)
                == index_b.query_batch(batch, sizes=sizes, threshold=0.2))
        assert pa._base_path != pb._base_path
        pa.close()
        pb.close()

    def test_no_mmap_workers_parity(self, proc_pool):
        """mmap=False reaches the workers (they read the segment into
        memory) without changing any answer."""
        index, entries = _build_flat(80)
        pooled = PooledIndex(index, proc_pool, mmap=False)
        batch, sizes = _batch_of(entries, range(6))
        task = pooled._tasks("query_batch", [{"matrix": batch.matrix,
                                              "seed": 1, "sizes": sizes,
                                              "threshold": 0.3}])[0]
        assert task["source"]["mmap"] is False
        assert (pooled.query_batch(batch, sizes=sizes, threshold=0.3)
                == index.query_batch(batch, sizes=sizes, threshold=0.3))
        pooled.close()

    def test_passthrough_introspection(self, proc_pool):
        index, _ = _build_flat(60)
        pooled = PooledIndex(index, proc_pool)
        assert pooled.num_perm == index.num_perm
        assert pooled.generation == index.generation
        assert pooled.mutation_epoch == index.mutation_epoch
        assert len(pooled) == len(index)
        pooled.close()


class TestShardedProcessCluster:
    def test_loaded_cluster_process_executor_parity(self, tmp_path,
                                                    proc_pool):
        index, entries = _build_flat(180)
        cluster = _build_cluster(entries, 3)
        cluster.save(tmp_path / "cluster")
        cluster.close()
        from repro.parallel.sharded import ShardedEnsemble

        loaded = ShardedEnsemble.load(tmp_path / "cluster",
                                      executor="process", num_workers=1)
        with loaded:
            assert loaded.executor == "process"
            batch, sizes = _batch_of(entries, range(9))
            assert (loaded.query_batch(batch, sizes=sizes, threshold=0.3)
                    == index.query_batch(batch, sizes=sizes,
                                         threshold=0.3))
            # Workers reuse the saved shard segments (v2 loads record
            # _base_source) instead of spilling duplicate copies.
            for client in loaded._clients:
                assert client._base_path.parent == tmp_path / "cluster"

    def test_decommission_rebalance_refreshes_clients(self, proc_pool):
        """Emptying a shard and rebalancing shrinks the topology; the
        per-shard pool clients must follow it."""
        _, entries = _build_flat(120)
        cluster = _build_cluster(entries, 3, pool=proc_pool)
        with cluster:
            batch, sizes = _batch_of(entries, range(6))
            before_clients = len(cluster._clients)
            victim = cluster.shards[-1]
            for key in list(victim.keys()):
                cluster.remove(key)
            cluster.rebalance()
            assert cluster.active_shards == 2
            assert len(cluster._clients) == 2 < before_clients
            # Union of the surviving parent shards' own answers == the
            # thread-path semantics the process fan-out must match.
            expected = [set() for _ in range(len(batch))]
            for shard in cluster.shards:
                for j, hits in enumerate(
                        shard.query_batch(batch, sizes=sizes,
                                          threshold=0.2)):
                    expected[j] |= hits
            assert cluster.query_batch(batch, sizes=sizes,
                                       threshold=0.2) == expected


def _build_cluster(entries, num_shards, **kwargs):
    from repro.parallel.sharded import ShardedEnsemble

    cluster = ShardedEnsemble(
        num_shards=num_shards,
        ensemble_factory=lambda: LSHEnsemble(
            num_perm=NUM_PERM, num_partitions=4, threshold=0.5),
        executor="process", num_workers=1, **kwargs)
    cluster.index(list(entries))
    return cluster


class TestStaleEpochRegression:
    """Mutations landing between dispatch and worker execution must
    never leak pre-mutation answers (ISSUE 5 satellite)."""

    def test_worker_reapplies_overlay_on_epoch_bump(self):
        # One worker, so the *same* process provably serves both epochs.
        index, entries = _build_flat(150)
        with ProcPool(num_workers=1) as pool:
            pooled = PooledIndex(index, pool)
            probe, probe_sizes = _batch_of(entries, range(10))
            before = pooled.query_batch(probe, sizes=probe_sizes,
                                        threshold=0.2)
            assert before == index.query_batch(probe, sizes=probe_sizes,
                                               threshold=0.2)
            # Capture a task at the current epoch, then mutate the
            # parent before the worker runs it: the answer must reflect
            # the *captured* epoch (that is what the serve cache keys
            # it under), not the mutated state.
            args = {"matrix": probe.matrix, "seed": 1,
                    "sizes": probe_sizes, "threshold": 0.2}
            stale_task = pooled.task_for("query_batch", args)
            victim = entries[3][0]
            assert any(victim in found for found in before)
            index.remove(victim)
            stale_results = pool.run([stale_task])[0]
            assert stale_results == before  # epoch-0 answer, as labelled
            # A fresh dispatch captures the bumped epoch: the worker
            # notices, drops the old overlay, and the removed key is
            # gone from every row.
            after = pooled.query_batch(probe, sizes=probe_sizes,
                                       threshold=0.2)
            assert after == index.query_batch(probe, sizes=probe_sizes,
                                              threshold=0.2)
            assert all(victim not in found for found in after)
            pooled.close()

    def test_insert_visible_to_workers_immediately(self, proc_pool):
        index, entries = _build_flat(100)
        pooled = PooledIndex(index, proc_pool)
        sizes = [30, 31]
        extra = sample_signatures(sizes, num_perm=NUM_PERM, seed=1)
        index.insert("fresh-key", extra[0], sizes[0])
        found = pooled.query(extra[0], size=sizes[0], threshold=0.95)
        assert "fresh-key" in found
        assert found == index.query(extra[0], size=sizes[0],
                                    threshold=0.95)
        pooled.close()

    def test_rebalance_between_dispatches_reopens_segment(self, proc_pool):
        index, entries = _build_flat(150)
        pooled = PooledIndex(index, proc_pool)
        probe, probe_sizes = _batch_of(entries, range(8))
        pooled.query_batch(probe, sizes=probe_sizes, threshold=0.3)
        token_before = pooled._token
        extra_sigs, extra_sizes = _extra_entries(12)
        for i, (sig, size) in enumerate(zip(extra_sigs, extra_sizes)):
            index.insert("n-%d" % i, sig, size)
        index.remove(entries[0][0])
        index.rebalance()
        after = pooled.query_batch(probe, sizes=probe_sizes,
                                   threshold=0.3)
        assert after == index.query_batch(probe, sizes=probe_sizes,
                                          threshold=0.3)
        assert pooled._token > token_before  # base was re-spilled
        pooled.close()

    def test_served_results_track_mutations_through_cache(self):
        """HTTP serving with the process executor: a cached pre-mutation
        result must become unreachable the instant the epoch bumps."""
        import http.client
        import json

        from repro.serve import start_in_thread

        index, entries = _build_flat(120)
        sizes = [25]
        (extra,) = sample_signatures(sizes, num_perm=NUM_PERM, seed=1)
        payload = json.dumps({
            "queries": [{"signature": [int(v) for v in extra.hashvalues],
                         "seed": 1, "size": sizes[0]}],
            "threshold": 0.9})

        def ask(port):
            conn = http.client.HTTPConnection("127.0.0.1", port)
            conn.request("POST", "/query", payload,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
            conn.close()
            assert response.status == 200
            return body

        with start_in_thread(index, executor="process", workers=2,
                             cache_size=64) as handle:
            first = ask(handle.port)
            assert "fresh-key" not in first["results"][0]
            again = ask(handle.port)  # warm the cache at this epoch
            assert again["cached"] == [True]
            index.insert("fresh-key", extra, sizes[0])
            after = ask(handle.port)
            assert after["cached"] == [False]  # epoch key changed
            assert after["mutation_epoch"] == first["mutation_epoch"] + 1
            assert "fresh-key" in after["results"][0]


def _extra_entries(n: int):
    sizes = [500 + 13 * i for i in range(n)]
    return sample_signatures(sizes, num_perm=NUM_PERM, seed=1), sizes


class TestPeakInflightWindow:
    """``peak_inflight`` is a *windowed* utilisation gauge: it restarts
    at every base re-spill (``note_base_refresh``) so the stat always
    describes load against the current segment, while the
    ``_lifetime`` twin keeps the all-time high."""

    def test_note_base_refresh_resets_window_not_lifetime(self):
        pool = ProcPool(num_workers=2)
        try:
            # Slow echoes overlap, so both workers hold tasks at once.
            pool.run([_echo_task(i, delay=0.05) for i in range(6)])
            before = pool.stats()
            assert before["peak_inflight"] >= 2
            assert before["peak_inflight_lifetime"] \
                == before["peak_inflight"]

            pool.note_base_refresh()
            windowed = pool.stats()
            assert windowed["peak_inflight"] == 0
            assert windowed["peak_inflight_lifetime"] \
                == before["peak_inflight_lifetime"]

            # The fresh window observes only post-refresh load.
            pool.run([_echo_task(0)])
            after = pool.stats()
            assert after["peak_inflight"] == 1
            assert after["peak_inflight_lifetime"] \
                == before["peak_inflight_lifetime"]
        finally:
            pool.close()

    def test_rebalance_respill_opens_a_new_window(self):
        pool = ProcPool(num_workers=2)
        try:
            index, entries = _build_flat(150)
            pooled = PooledIndex(index, pool)
            probe, probe_sizes = _batch_of(entries, range(8))
            pooled.query_batch(probe, sizes=probe_sizes, threshold=0.3)
            # Inflate the window well past what one sliced batch needs.
            pool.run([_echo_task(i, delay=0.05) for i in range(6)])
            inflated = pool.stats()
            assert inflated["peak_inflight"] >= 2

            extra_sigs, extra_sizes = _extra_entries(12)
            for i, (sig, size) in enumerate(zip(extra_sigs,
                                                extra_sizes)):
                index.insert("n-%d" % i, sig, size)
            index.rebalance()
            # The next dispatch re-spills the base — and with it the
            # utilisation window: a single-row query leaves the gauge
            # at 1, not at the stale pre-rebalance peak.
            single, single_sizes = _batch_of(entries, [0])
            pooled.query_batch(single, sizes=single_sizes,
                               threshold=0.3)
            fresh = pool.stats()
            assert fresh["peak_inflight"] == 1
            assert fresh["peak_inflight_lifetime"] \
                == inflated["peak_inflight_lifetime"]
            pooled.close()
        finally:
            pool.close()
