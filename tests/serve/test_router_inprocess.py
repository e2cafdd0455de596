"""A router over in-process shards answers like one flat index.

The paper's deployment unions per-node answers (Section 6.3);
:class:`~repro.serve.router.RouterIndex` is the one facade that does
it.  Here every shard is an
:class:`~repro.serve.executor.InProcessExecutor`, so the fan-out, the
union, the global top-k ladder and the key-routed write path run with
no HTTP, and each answer is compared with a flat index holding the
same entries (shards built with its partition bounds — the parity
precondition).
"""

import numpy as np
import pytest

from repro.core.ensemble import LSHEnsemble
from repro.minhash.batch import SignatureBatch
from repro.minhash.minhash import MinHash
from repro.serve.executor import InProcessExecutor
from repro.serve.router import RouterIndex

NUM_PERM = 64


def sig(values, num_perm=NUM_PERM, seed=1):
    return MinHash.from_values(values, num_perm=num_perm, seed=seed)


def make_entries(n=60):
    entries = []
    for i in range(n):
        values = ["s%d_%d" % (i, j) for j in range(10 + i)]
        entries.append(("k%d" % i, sig(values), len(values)))
    return entries


def factory():
    return LSHEnsemble(num_perm=NUM_PERM, num_partitions=2)


def holds(executor, key) -> bool:
    signatures, _ = executor.signatures_for([key])
    return key in signatures


def shard_keys(executor) -> list:
    return list(executor._index.keys())


class ClosingSpy(InProcessExecutor):
    """Counts :meth:`close` calls."""

    def __init__(self, index) -> None:
        super().__init__(index)
        self.closed = 0

    def close(self) -> None:
        self.closed += 1


@pytest.fixture()
def cluster(in_process_cluster):
    """``(n, num_shards) -> (entries, router, flat)``; routers are
    closed at teardown."""
    routers = []

    def build(n=30, num_shards=3):
        entries = make_entries(n)
        router, flat = in_process_cluster(entries, num_shards, factory)
        routers.append(router)
        return entries, router, flat

    yield build
    for router in routers:
        router.close()


class TestBuild:
    def test_fewer_entries_than_shards(self, cluster):
        entries, router, _ = cluster(2, 4)
        assert len(router.executors()) == 2
        assert len(router) == 2
        for key, probe, size in entries:
            assert key in router.query(probe, size=size, threshold=0.9)

    def test_emptied_shard_keeps_answering(self, cluster):
        entries, router, flat = cluster(30, 3)
        victim = router.executors()["shard_002"]
        doomed = shard_keys(victim)
        for key in doomed:
            router.remove(key)
            flat.remove(key)
        assert len(victim._index) == 0
        assert len(router) == len(entries) - len(doomed)
        assert router.stats()["keys_per_shard"]["shard_002"] == 0
        for key, probe, size in entries[::4]:
            assert router.query(probe, size=size, threshold=0.5) == \
                flat.query(probe, size=size, threshold=0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            RouterIndex({})

    @pytest.mark.parametrize("field", ["num_perm", "signature_seed"])
    def test_shards_that_disagree_are_rejected(self, field):
        num_perm, seed = (32, 1) if field == "num_perm" else (NUM_PERM, 2)
        agreeing = factory()
        agreeing.index(make_entries(6))
        odd = LSHEnsemble(num_perm=num_perm, num_partitions=2)
        odd.index([("o%d" % i, sig(["o%d" % i], num_perm, seed), 1)
                   for i in range(4)])
        with pytest.raises(ValueError, match=field):
            RouterIndex({"a": InProcessExecutor(agreeing),
                         "b": InProcessExecutor(odd)})


class TestQuery:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_query_matches_flat(self, cluster, num_shards):
        entries, router, flat = cluster(40, num_shards)
        for threshold in (0.3, 0.6, 1.0):
            for key, probe, size in entries[::5]:
                assert router.query(probe, size=size,
                                    threshold=threshold) == \
                    flat.query(probe, size=size, threshold=threshold)

    def test_union_of_shard_results(self, cluster):
        entries, router, flat = cluster(30, 3)
        probe = entries[7][1]
        expected = set()
        for executor in router.executors().values():
            expected |= executor.query(probe, size=17, threshold=0.8)
        assert router.query(probe, size=17, threshold=0.8) == expected
        assert expected == flat.query(probe, size=17, threshold=0.8)

    def test_self_queries_found(self, cluster):
        entries, router, _ = cluster(50, 5)
        for key, probe, size in entries[::7]:
            assert key in router.query(probe, size=size, threshold=0.9)


class TestQueryBatch:
    def test_batch_matches_single_query_loop(self, cluster):
        entries, router, flat = cluster(40, 4)
        sigs = [e[1] for e in entries[:12]]
        sizes = [e[2] for e in entries[:12]]
        batch = SignatureBatch.from_signatures(sigs)
        expected = [router.query(s, size=c, threshold=0.7)
                    for s, c in zip(sigs, sizes)]
        assert router.query_batch(batch, sizes=sizes,
                                  threshold=0.7) == expected
        assert flat.query_batch(batch, sizes=sizes,
                                threshold=0.7) == expected

    def test_batch_with_emptied_shard(self, cluster):
        entries, router, flat = cluster(24, 3)
        for key in shard_keys(router.executors()["shard_000"]):
            router.remove(key)
            flat.remove(key)
        sigs = [e[1] for e in entries]
        sizes = [e[2] for e in entries]
        batch = SignatureBatch.from_signatures(sigs)
        assert router.query_batch(batch, sizes=sizes, threshold=0.4) == \
            flat.query_batch(batch, sizes=sizes, threshold=0.4)

    def test_empty_batch(self, cluster):
        _, router, _ = cluster(6, 2)
        assert router.query_batch([]) == []

    def test_sequence_input(self, cluster):
        entries, router, _ = cluster(10, 2)
        sigs = [e[1] for e in entries[:3]]
        assert router.query_batch(sigs) == [router.query(s) for s in sigs]

    def test_matrix_input(self, cluster):
        entries, router, _ = cluster(10, 2)
        sigs = [e[1] for e in entries[:3]]
        matrix = np.vstack([s.hashvalues for s in sigs])
        assert router.query_batch(matrix) == \
            [router.query(s) for s in sigs]


class TestLifecycle:
    def _spied(self, n=3):
        spies = {}
        for i in range(n):
            shard = factory()
            shard.index(make_entries(12)[i::n])
            spies["shard_%03d" % i] = ClosingSpy(shard)
        return spies

    def test_close_closes_every_shard(self):
        spies = self._spied()
        RouterIndex(spies).close()
        assert [spy.closed for spy in spies.values()] == [1, 1, 1]

    def test_close_idempotent(self):
        spies = self._spied()
        router = RouterIndex(spies)
        router.close()
        router.close()
        assert all(spy.closed == 2 for spy in spies.values())

    def test_context_manager(self):
        spies = self._spied()
        with RouterIndex(spies) as router:
            assert len(router) == 12
            assert not any(spy.closed for spy in spies.values())
        assert all(spy.closed == 1 for spy in spies.values())

    def test_describe_tracks_writes(self, cluster):
        _, router, _ = cluster(30, 3)
        router.insert("fresh", sig(["f1", "f2"]), 2)
        router.remove("k4")
        info = router.describe()
        assert info["index"] == "RouterIndex"
        assert info["executor"] == "router"
        assert info["status"] == "ok" and info["degraded"] == []
        assert info["shards"] == ["shard_000", "shard_001", "shard_002"]
        assert info["keys"] == len(router) == 30
        assert info["num_perm"] == NUM_PERM
        assert info["signature_seed"] == 1


class TestStats:
    def test_stats_aggregate_the_shards(self, cluster):
        entries, router, _ = cluster(30, 3)
        executors = router.executors()
        router.insert("fresh", sig(["f1", "f2", "f3"]), 3)
        router.remove("k0")
        stats = router.stats()
        assert stats["keys_per_shard"] == {
            name: len(executor._index)
            for name, executor in executors.items()}
        assert sum(stats["keys_per_shard"].values()) == len(router) == 30
        assert stats["mutation_epochs"] == {
            name: executor.mutation_epoch
            for name, executor in executors.items()}
        assert stats["writes"] == 2
        assert stats["degraded"] == []
        tiers = [shard["tiers"] for shard in stats["shards"].values()]
        assert sum(t["delta"] for t in tiers) == 1
        assert sum(t["tombstones"] for t in tiers) == 1
        assert sum(t["base"] for t in tiers) == len(entries) - 1

    def test_refresh_sees_writes_made_behind_the_router(self, cluster):
        _, router, _ = cluster(30, 3)
        shard = router.executors()["shard_001"]._index
        shard.insert("behind", sig(["b1", "b2"]), 2)
        assert len(router) == 30
        infos = router.refresh()
        assert infos["shard_001"]["keys"] == len(shard)
        assert len(router) == 31
        assert router.stats_sections()["router"]["keys_per_shard"][
            "shard_001"] == len(shard)


class TestWrites:
    def test_insert_lands_on_the_owning_shard(self, cluster):
        _, router, _ = cluster(30, 3)
        values = ["f1", "f2", "f3"]
        router.insert("fresh", sig(values), 3)
        assert len(router) == 31
        owners = [name for name, executor in router.executors().items()
                  if holds(executor, "fresh")]
        assert owners == [router.owning_shard("fresh")]
        assert "fresh" in router.query(sig(values), size=3, threshold=1.0)

    def test_insert_duplicate_rejected(self, cluster):
        # The round-robin split leaves "k3" on shard_000, not on the
        # shard its hash routes writes to: the duplicate check must
        # look beyond the owner, and one remove must then take the key
        # out of every answer.
        entries, router, _ = cluster()
        executors = router.executors()
        assert not holds(executors[router.owning_shard("k3")], "k3")
        with pytest.raises(ValueError):
            router.insert("k3", sig(["a"]), 1)
        assert len(router) == len(entries)
        _, probe, size = entries[3]
        router.remove("k3")
        assert not any(holds(executor, "k3")
                       for executor in executors.values())
        assert "k3" not in router.query(probe, size=size, threshold=0.0)

    def test_remove_finds_owning_shard(self, cluster):
        entries, router, _ = cluster()
        key, probe, size = entries[7]
        router.remove(key)
        assert not any(holds(executor, key)
                       for executor in router.executors().values())
        assert len(router) == len(entries) - 1
        assert key not in router.query(probe, size=size, threshold=0.0)

    def test_remove_missing_rejected(self, cluster):
        _, router, _ = cluster()
        with pytest.raises(KeyError):
            router.remove("ghost")

    def test_delta_and_tombstones_keep_flat_parity(self, cluster):
        entries, router, flat = cluster(30, 3)
        for i in range(6):
            values = ["n%d_%d" % (i, j) for j in range(200 + 10 * i)]
            for index in (router, flat):
                index.insert("n%d" % i, sig(values), len(values))
        for index in (router, flat):
            index.remove("k3")
        sigs = [e[1] for e in entries[:10]]
        sizes = [e[2] for e in entries[:10]]
        batch = SignatureBatch.from_signatures(sigs)
        assert router.query_batch(batch, sizes=sizes, threshold=0.5) == \
            flat.query_batch(batch, sizes=sizes, threshold=0.5)
        assert router.query_top_k_batch(batch, 4, sizes=sizes) == \
            flat.query_top_k_batch(batch, 4, sizes=sizes)


class TestTopK:
    def test_single_shard_bit_exact_parity(self, cluster):
        # One shard holds the whole corpus: partitions, ladder and
        # ranking are identical to the flat index by construction.
        entries, router, flat = cluster(40, 1)
        for key, probe, size in entries[::6]:
            assert router.query_top_k(probe, 5, size=size) == \
                flat.query_top_k(probe, 5, size=size)

    def test_multi_shard_parity_with_flat(self, cluster):
        # The global ladder makes per-rung candidate recovery the union
        # over shards, so the ranking matches the flat index's.
        entries, router, flat = cluster(45, 3)
        for key, probe, size in entries[::4]:
            assert router.query_top_k(probe, 4, size=size) == \
                flat.query_top_k(probe, 4, size=size)

    def test_batch_matches_single_loop(self, cluster):
        entries, router, _ = cluster(40, 4)
        sigs = [e[1] for e in entries[:10]]
        sizes = [e[2] for e in entries[:10]]
        batch = SignatureBatch.from_signatures(sigs)
        assert router.query_top_k_batch(batch, 3, sizes=sizes) == \
            [router.query_top_k(s, 3, size=c)
             for s, c in zip(sigs, sizes)]

    def test_top_k_sees_dynamic_inserts(self, cluster):
        _, router, _ = cluster(30, 3)
        dup_values = ["s7_%d" % j for j in range(17)]  # clone of k7
        router.insert("clone", sig(dup_values), len(dup_values))
        ranked = router.query_top_k(sig(dup_values), 3,
                                    size=len(dup_values))
        assert {key for key, _ in ranked[:2]} == {"k7", "clone"}

    def test_top_k_drops_removed_keys(self, cluster):
        entries, router, flat = cluster(30, 3)
        key, probe, size = entries[7]
        assert router.query_top_k(probe, 3, size=size)[0][0] == key
        router.remove(key)
        flat.remove(key)
        ranked = router.query_top_k(probe, 3, size=size)
        assert key not in {k for k, _ in ranked}
        assert ranked == flat.query_top_k(probe, 3, size=size)

    def test_validation(self, cluster):
        _, router, _ = cluster(10, 2)
        with pytest.raises(ValueError):
            router.query_top_k(sig(["a"]), 0)
        with pytest.raises(ValueError):
            router.query_top_k_batch([sig(["a"])], 2, min_threshold=0.0)
        assert router.query_top_k_batch([], 2) == []
