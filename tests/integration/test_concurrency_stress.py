"""Concurrency stress: threads racing mutations against batch queries.

ISSUE 4's serving layer lets HTTP traffic and operator mutations hit
one index from different threads, so the ensemble's lock must make
``insert`` / ``remove`` / ``rebalance`` safe to race against
``query_batch`` — on the flat index and through a router over
in-process shards.  The contract checked here:

* no thread observes an exception (no half-swapped base tier, no
  executor submitted to mid-shutdown);
* a key whose ``remove()`` *completed before a query started* never
  appears in that query's results (tombstones / physical removal are
  atomic with respect to queries);
* the mutation epoch observed by query threads is monotone
  non-decreasing, and by the end equals the number of mutations.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.core.ensemble import LSHEnsemble
from repro.minhash.batch import SignatureBatch
from repro.minhash.generator import sample_signatures

NUM_PERM = 64
NUM_BASE = 240
NUM_DOOMED = 40
NUM_INSERTS = 60
NUM_REBALANCES = 3
QUERY_BATCH = 16
JOIN_TIMEOUT = 120
# Query-thread count scaled to the runner: a floor of 2 keeps the race
# real everywhere, the cap keeps oversubscription from turning a 2-core
# CI runner's run into pure scheduler thrash.
NUM_QUERIERS = max(2, min(4, os.cpu_count() or 1))


def _corpus():
    sizes = [10 + 7 * (i % 50) for i in range(NUM_BASE + NUM_INSERTS)]
    signatures = sample_signatures(sizes, num_perm=NUM_PERM, seed=1)
    entries = [("base-%d" % i, sig, size)
               for i, (sig, size) in enumerate(zip(signatures, sizes))]
    base, extra = entries[:NUM_BASE], entries[NUM_BASE:]
    extra = [("new-%d" % i, sig, size)
             for i, (_, sig, size) in enumerate(extra)]
    return base, extra


class _Stress:
    """Drives writer/remover/rebalancer/query threads over one index."""

    def __init__(self, index, base, extra):
        self.index = index
        self.extra = extra
        self.doomed = [key for key, _, __ in base[:NUM_DOOMED]]
        self.removed_done: set = set()
        self.removed_lock = threading.Lock()
        self.errors: list[BaseException] = []
        self.done = threading.Event()
        rows = [sig.hashvalues for _, sig, __ in base[:QUERY_BATCH]]
        self.batch = SignatureBatch(
            None, [list(map(int, row)) for row in rows], seed=1)
        self.sizes = [size for _, __, size in base[:QUERY_BATCH]]
        self.epoch_observations = 0

    def _guard(self, fn):
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 — reported by main thread
            self.errors.append(exc)
            self.done.set()

    def writer(self):
        for key, sig, size in self.extra:
            self.index.insert(key, sig, size)

    def remover(self):
        for key in self.doomed:
            self.index.remove(key)
            with self.removed_lock:
                self.removed_done.add(key)

    def rebalancer(self):
        for _ in range(NUM_REBALANCES):
            self.index.rebalance()

    def querier(self):
        last_epoch = -1
        while not self.done.is_set():
            with self.removed_lock:
                gone = set(self.removed_done)
            epoch = self.index.mutation_epoch
            assert epoch >= last_epoch, (
                "mutation epoch went backwards: %d -> %d"
                % (last_epoch, epoch))
            last_epoch = epoch
            self.epoch_observations += 1
            results = self.index.query_batch(self.batch, sizes=self.sizes,
                                             threshold=0.05)
            for found in results:
                stale = found & gone
                assert not stale, (
                    "query returned removed keys %r" % sorted(stale))

    def run(self, num_queriers: int = NUM_QUERIERS):
        mutators = [threading.Thread(target=self._guard, args=(fn,))
                    for fn in (self.writer, self.remover, self.rebalancer)]
        queriers = [threading.Thread(target=self._guard,
                                     args=(self.querier,))
                    for _ in range(num_queriers)]
        for thread in queriers + mutators:
            thread.start()
        for thread in mutators:
            thread.join(timeout=JOIN_TIMEOUT)
            assert not thread.is_alive(), "mutator thread hung"
        self.done.set()
        for thread in queriers:
            thread.join(timeout=JOIN_TIMEOUT)
            assert not thread.is_alive(), "query thread hung"
        if self.errors:
            raise self.errors[0]


def _check_final_state(stress, index):
    assert not stress.errors
    assert stress.epoch_observations > 0
    for key in stress.doomed:
        assert key not in index
    for key, _, __ in stress.extra:
        assert key in index
    assert len(index) == NUM_BASE - NUM_DOOMED + NUM_INSERTS
    # Every mutation bumped the epoch exactly once (rebalances too).
    assert index.mutation_epoch == (NUM_INSERTS + NUM_DOOMED
                                    + NUM_REBALANCES)


class TestFlatEnsembleUnderRace:
    def test_mutations_race_query_batch(self):
        base, extra = _corpus()
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4,
                            threshold=0.5)
        index.index(base)
        stress = _Stress(index, base, extra)
        stress.run()
        _check_final_state(stress, index)
        # The raced index answers like a freshly built one.
        fresh = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4,
                            threshold=0.5)
        fresh.index([(key, index.get_signature(key), index.size_of(key))
                     for key in index.keys()])
        assert (index.query_batch(stress.batch, sizes=stress.sizes,
                                  threshold=0.05)
                == fresh.query_batch(stress.batch, sizes=stress.sizes,
                                     threshold=0.05))


class TestRouterUnderRace:
    """The same race through a router over in-process shards, with
    each shard rebalancing itself as a shard node would."""

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_mutations_race_query_batch(self, in_process_cluster,
                                        num_shards):
        base, extra = _corpus()
        router, flat = in_process_cluster(
            base, num_shards,
            lambda: LSHEnsemble(num_perm=NUM_PERM, num_partitions=4,
                                threshold=0.5))
        shards = [executor._index
                  for executor in router.executors().values()]
        with router:
            stress = _Stress(router, base, extra)

            def rebalance_shards():
                for _ in range(NUM_REBALANCES):
                    for shard in shards:
                        shard.rebalance()

            stress.rebalancer = rebalance_shards
            stress.run()
            assert not stress.errors
            assert stress.epoch_observations > 0
            held, _ = router.signatures_for(
                stress.doomed + [key for key, _, __ in extra])
            assert not held.keys() & set(stress.doomed)
            assert held.keys() == {key for key, _, __ in extra}
            assert len(router) == NUM_BASE - NUM_DOOMED + NUM_INSERTS
            assert sum(shard.mutation_epoch for shard in shards) == (
                NUM_INSERTS + NUM_DOOMED + NUM_REBALANCES * num_shards)
            assert router.mutation_epoch == min(
                shard.mutation_epoch for shard in shards)
            # The raced router answers like the flat index after the
            # same writes.
            for key, sig, size in extra:
                flat.insert(key, sig, size)
            for key in stress.doomed:
                flat.remove(key)
            assert (router.query_batch(stress.batch, sizes=stress.sizes,
                                       threshold=0.05)
                    == flat.query_batch(stress.batch, sizes=stress.sizes,
                                        threshold=0.05))

    def test_emptying_a_shard_races_queries(self, in_process_cluster):
        """Removing every key of one shard stays invisible to
        concurrent router queries, and the emptied shard keeps
        answering (with nothing)."""
        base, _ = _corpus()
        router, _ = in_process_cluster(
            base, 4,
            lambda: LSHEnsemble(num_perm=NUM_PERM, num_partitions=4,
                                threshold=0.5))
        victim = router.executors()["shard_003"]._index
        victim_keys = list(victim.keys())
        with router:
            stress = _Stress(router, base, [])
            stress.doomed = []

            def empty_one_shard():
                for key in victim_keys:
                    router.remove(key)
                    with stress.removed_lock:
                        stress.removed_done.add(key)

            stress.writer = empty_one_shard
            stress.remover = lambda: None
            stress.rebalancer = lambda: None
            stress.run()
            assert not stress.errors
            assert len(victim) == 0
            assert len(router) == NUM_BASE - len(victim_keys)
            held, _ = router.signatures_for(victim_keys)
            assert held == {}
