"""Unit tests for the dynamic two-tier lifecycle: delta tier,
tombstones, drift monitor, and rebalance."""

import pytest

from repro.core.ensemble import LSHEnsemble
from repro.minhash.batch import SignatureBatch
from repro.minhash.minhash import MinHash

NUM_PERM = 128


def sig(values):
    return MinHash.from_values(values, num_perm=NUM_PERM)


def make_domains(n=50, start=0, size_base=10, size_step=6, tag="d"):
    return {
        "%s%d" % (tag, i): {
            "%s%d_%d" % (tag, i, j)
            for j in range(size_base + (i - start) * size_step)}
        for i in range(start, start + n)
    }


def build_index(domains=None, **kwargs):
    domains = domains if domains is not None else make_domains()
    kwargs.setdefault("num_perm", NUM_PERM)
    kwargs.setdefault("num_partitions", 4)
    kwargs.setdefault("threshold", 0.7)
    index = LSHEnsemble(**kwargs)
    index.index((k, sig(v), len(v)) for k, v in domains.items())
    return domains, index


class TestDeltaTier:
    def test_insert_lands_in_delta_not_base(self):
        domains, index = build_index()
        base_physical = set(index._rows)
        new = {"n%d" % j for j in range(25)}
        index.insert("newcomer", sig(new), len(new))
        assert set(index._rows) == base_physical      # base immutable
        assert "newcomer" in index._delta
        assert "newcomer" in index
        assert len(index) == len(domains) + 1

    def test_inserted_keys_queryable_before_and_after_flush(self):
        _, index = build_index()
        new = {"n%d" % j for j in range(30)}
        index.insert("newcomer", sig(new), len(new))
        # First query flushes the staged entry into the inner index.
        assert "newcomer" in index.query(sig(new), size=len(new),
                                         threshold=1.0)
        # And again once flushed.
        assert "newcomer" in index.query(sig(new), size=len(new),
                                         threshold=1.0)

    def test_delta_self_partitions_far_beyond_base_range(self):
        # Sizes far outside the built range get their own partitions in
        # the delta instead of clamping into the base boundary.
        _, index = build_index()
        base_upper = index.partitions[-1].upper
        huge = {"h%d" % j for j in range(base_upper * 5)}
        index.insert("huge", sig(huge), len(huge))
        assert "huge" in index.query(sig(huge), size=len(huge),
                                     threshold=1.0)
        inner = index._delta.inner_index()
        assert inner.partitions[-1].upper > base_upper

    def test_amortised_flush_routes_small_topups(self):
        _, index = build_index()
        first = {"f%d" % (j,) for j in range(200)}
        for i in range(80):
            values = {"n%d_%d" % (i, j) for j in range(20 + i)}
            index.insert("n%d" % i, sig(values), len(values))
        index.query(sig(first), size=len(first), threshold=0.9)  # flush
        inner_before = index._delta._index
        late = {"late%d" % j for j in range(40)}
        index.insert("late", sig(late), len(late))
        assert "late" in index.query(sig(late), size=len(late),
                                     threshold=1.0)
        # A single staged entry against 80 flushed ones must not rebuild.
        assert index._delta._index is inner_before

    def test_remove_delta_entry_drops_it(self):
        _, index = build_index()
        new = {"n%d" % j for j in range(20)}
        index.insert("newcomer", sig(new), len(new))
        index.remove("newcomer")
        assert "newcomer" not in index
        assert not index._tombstones          # delta removals: no tombstone
        assert index.query(sig(new), size=len(new), threshold=1.0) == set()

    def test_num_perm_mismatch_rejected(self):
        _, index = build_index()
        with pytest.raises(ValueError):
            index.insert("bad", MinHash.from_values(["a"], num_perm=32), 1)

    def test_concurrent_first_queries_after_insert(self):
        # The first query after a write flushes the delta; concurrent
        # readers must serialise on that flush instead of observing a
        # half-published inner index (regression: AttributeError on
        # _index None when one thread cleared the staged set before
        # finishing the build).
        from concurrent.futures import ThreadPoolExecutor

        domains, _ = build_index(make_domains(20))
        new = {"n%d" % j for j in range(30)}
        probe = sig(new)
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _trial in range(30):
                index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4,
                                    threshold=0.7)
                index.index((k, sig(v), len(v))
                            for k, v in domains.items())
                index.insert("newcomer", probe, len(new))
                futures = [pool.submit(index.query, probe, len(new), 1.0)
                           for _ in range(4)]
                for future in futures:
                    assert "newcomer" in future.result()

    def test_failed_flush_retries_instead_of_losing_writes(self):
        _, index = build_index()
        new = {"n%d" % j for j in range(30)}
        index.insert("newcomer", sig(new), len(new))
        broken = index._delta._make_index
        calls = {"n": 0}

        def flaky():
            if calls["n"] == 0:
                calls["n"] += 1
                raise MemoryError("simulated build failure")
            return broken()

        index._delta._make_index = flaky
        with pytest.raises(MemoryError):
            index.query(sig(new), size=len(new), threshold=1.0)
        # The staged entry survived the failed flush and the next query
        # flushes it successfully.
        assert "newcomer" in index.query(sig(new), size=len(new),
                                         threshold=1.0)


class TestTombstones:
    def test_remove_base_key_tombstones(self):
        domains, index = build_index()
        key = next(iter(domains))
        index.remove(key)
        assert key in index._rows             # physically still present
        assert key in index._tombstones
        assert key not in index
        with pytest.raises(KeyError):
            index.size_of(key)
        with pytest.raises(KeyError):
            index.get_signature(key)

    def test_tombstoned_key_filtered_from_all_query_paths(self):
        domains, index = build_index()
        key = "d5"
        values = domains[key]
        probe = sig(values)
        assert key in index.query(probe, size=len(values), threshold=1.0)
        index.remove(key)
        assert key not in index.query(probe, size=len(values),
                                      threshold=0.0)
        batch = SignatureBatch.from_signatures([probe])
        assert key not in index.query_batch(batch, sizes=[len(values)],
                                            threshold=0.0)[0]
        assert key not in dict(index.query_top_k(probe, 5,
                                                 size=len(values)))

    def test_double_remove_raises(self):
        domains, index = build_index()
        key = next(iter(domains))
        index.remove(key)
        with pytest.raises(KeyError):
            index.remove(key)

    def test_reinsert_after_tombstone(self):
        domains, index = build_index()
        key = "d5"
        new_values = {"replacement%d" % j for j in range(40)}
        index.remove(key)
        index.insert(key, sig(new_values), len(new_values))
        assert key in index
        assert index.size_of(key) == len(new_values)
        found = index.query(sig(new_values), size=len(new_values),
                            threshold=1.0)
        assert key in found
        # Removing again drops the delta copy; the tombstone stays.
        index.remove(key)
        assert key not in index

    def test_batch_equals_single_loop_with_dynamic_state(self):
        domains, index = build_index()
        for i in range(10):
            values = {"x%d_%d" % (i, j) for j in range(300 + 30 * i)}
            domains["x%d" % i] = values
            index.insert("x%d" % i, sig(values), len(values))
        for gone in ("d3", "d11", "x4"):
            index.remove(gone)
            del domains[gone]
        names = sorted(domains)
        probes = [sig(domains[k]) for k in names]
        sizes = [len(domains[k]) for k in names]
        batch = SignatureBatch.from_signatures(probes)
        for threshold in (0.0, 0.5, 0.9, 1.0):
            assert index.query_batch(batch, sizes=sizes,
                                     threshold=threshold) == \
                [index.query(p, size=c, threshold=threshold)
                 for p, c in zip(probes, sizes)]

    def test_query_with_report_tags_delta_tier(self):
        domains, index = build_index()
        new = {"n%d" % j for j in range(25)}
        index.insert("newcomer", sig(new), len(new))
        _, reports = index.query_with_report(sig(new), size=len(new),
                                             threshold=0.5)
        tiers = {r.tier for r in reports}
        assert tiers == {"base", "delta"}
        assert len([r for r in reports if r.tier == "base"]) == \
            len(index.partitions)


class TestStaleMaxRegression:
    """remove() of a partition's maximal key must not inflate u forever."""

    def test_partition_max_recomputed_after_remove(self):
        domains, index = build_index()
        # The largest domain lives in the last partition.
        largest = max(domains, key=lambda k: len(domains[k]))
        i = index._route_index(len(domains[largest]))
        stale_max = index._partition_max_size[i]
        assert stale_max == len(domains[largest])
        index.remove(largest)
        with index.locked():
            index._resolve_live_max_locked()
        live_sizes = [len(v) for k, v in domains.items()
                      if k != largest
                      and index._route_index(len(v)) == i]
        assert index._partition_max_size[i] == max(live_sizes, default=0)
        assert index._partition_max_size[i] < stale_max

    def test_recompute_is_lazy(self):
        domains, index = build_index()
        largest = max(domains, key=lambda k: len(domains[k]))
        index.remove(largest)
        assert index._live_max_dirty
        probe = sig(domains["d2"])
        index.query(probe, size=len(domains["d2"]), threshold=0.9)
        assert not index._live_max_dirty

    def test_clamped_build_entries_keep_conservative_max(self):
        # Build-time clamped entries (explicit narrow partitions) must
        # keep their true size as the bound after unrelated removals.
        from repro.core.partitioner import Partition

        index = LSHEnsemble(num_perm=NUM_PERM)
        huge = {"h%d" % j for j in range(1000)}
        index.index(
            [("tiny", sig({"a", "b"}), 2),
             ("mid", sig({"m%d" % j for j in range(80)}), 80),
             ("huge", sig(huge), 1000)],
            partitions=[Partition(2, 100)],
        )
        index.remove("tiny")
        with index.locked():
            index._resolve_live_max_locked()
        assert index._partition_max_size[0] == 1000
        assert "huge" in index.query(sig(huge), size=1000, threshold=1.0)


class TestDriftMonitor:
    def test_fresh_build_has_zero_drift(self):
        _, index = build_index()
        drift = index.drift_stats()
        assert drift["drift_score"] == 0.0
        assert drift["delta_keys"] == 0
        assert drift["tombstones"] == 0
        assert drift["generation"] == 0

    def test_skew_tracked_incrementally(self):
        from repro.stats import skewness

        domains, index = build_index()
        for i in range(12):
            values = {"x%d_%d" % (i, j) for j in range(1000 + 100 * i)}
            index.insert("x%d" % i, sig(values), len(values))
        index.remove("d3")
        drift = index.drift_stats()
        live_sizes = [index.size_of(k) for k in index.keys()]
        assert drift["size_skewness"] == pytest.approx(
            skewness(live_sizes), rel=1e-9)

    def test_drift_grows_under_skewed_writes(self):
        _, index = build_index()
        scores = [index.drift_stats()["drift_score"]]
        for i in range(30):
            values = {"x%d_%d" % (i, j) for j in range(2000 + 50 * i)}
            index.insert("x%d" % i, sig(values), len(values))
            scores.append(index.drift_stats()["drift_score"])
        assert scores[-1] > scores[0]
        assert scores[-1] > 0.2

    def test_churn_counts_both_tiers(self):
        domains, index = build_index(make_domains(40))
        for i in range(6):
            index.insert("x%d" % i, sig({"x%d" % i}), 1)
        index.remove("d3")
        index.remove("d4")
        drift = index.drift_stats()
        assert drift["delta_keys"] == 6
        assert drift["tombstones"] == 2
        # 8 churned writes over 44 live keys.
        assert drift["churn_ratio"] == pytest.approx(8 / 44)

    def test_fully_tombstoned_index_is_max_drift(self):
        _, index = build_index(make_domains(5))
        for key in list(index.keys()):
            index.remove(key)
        drift = index.drift_stats()
        assert drift["churn_ratio"] == 1.0
        assert drift["drift_score"] == 1.0

    def test_unbuilt_index_rejected(self):
        with pytest.raises(RuntimeError):
            LSHEnsemble(num_perm=NUM_PERM).drift_stats()


class TestRebalance:
    def _drifted(self):
        domains, index = build_index()
        extra = make_domains(n=50, start=100, size_base=600,
                             size_step=40, tag="x")
        for key, values in extra.items():
            index.insert(key, sig(values), len(values))
        domains.update(extra)
        for gone in ("d3", "d17", "x105"):
            index.remove(gone)
            del domains[gone]
        return domains, index

    def test_rebalance_restores_depth_balance(self):
        from repro.core.partitioner import partition_counts

        domains, index = self._drifted()
        summary = index.rebalance()
        sizes = [len(v) for v in domains.values()]
        fresh_counts = partition_counts(sizes, index.partitions)
        # Equi-depth over the merged distribution: balanced again.
        assert summary["depth_cv_after"] <= summary["depth_cv_before"]
        assert max(fresh_counts) - min(fresh_counts) <= len(domains) // 2
        assert index.drift_stats()["drift_score"] == 0.0

    def test_rebalance_equals_fresh_build(self):
        domains, index = self._drifted()
        index.rebalance()
        _, fresh = build_index(domains)
        assert index.partitions == fresh.partitions
        assert index._partition_max_size == fresh._partition_max_size
        names = sorted(domains)
        probes = [sig(domains[k]) for k in names]
        sizes = [len(domains[k]) for k in names]
        batch = SignatureBatch.from_signatures(probes)
        for threshold in (0.2, 0.7, 1.0):
            assert index.query_batch(batch, sizes=sizes,
                                     threshold=threshold) == \
                fresh.query_batch(batch, sizes=sizes, threshold=threshold)

    def test_rebalance_summary_and_generation(self):
        domains, index = self._drifted()
        assert index.generation == 0
        summary = index.rebalance()
        assert summary["generation"] == index.generation == 1
        assert summary["live_keys"] == len(domains)
        assert summary["folded"]["tombstones"] == 2  # d3, d17 were base
        assert index._delta is None
        assert not index._tombstones
        index.insert("again", sig({"a", "b", "c"}), 3)
        index.rebalance()
        assert index.generation == 2

    def test_rebalance_empty_rejected(self):
        _, index = build_index(make_domains(3))
        for key in list(index.keys()):
            index.remove(key)
        with pytest.raises(ValueError):
            index.rebalance()

    def test_rebalance_unbuilt_rejected(self):
        with pytest.raises(RuntimeError):
            LSHEnsemble(num_perm=NUM_PERM).rebalance()

    def test_rebalance_with_new_partition_count(self):
        domains, index = self._drifted()
        index.rebalance(num_partitions=8)
        assert 1 <= len(index.partitions) <= 8
        assert index.num_partitions == 8


class TestAutoRebalance:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            LSHEnsemble(num_perm=NUM_PERM, auto_rebalance_at=0.0)
        with pytest.raises(ValueError):
            LSHEnsemble(num_perm=NUM_PERM, auto_rebalance_at=1.5)

    def test_auto_rebalance_triggers_on_drift(self):
        domains, index = build_index(auto_rebalance_at=0.5)
        assert index.generation == 0
        for i in range(120):
            values = {"x%d_%d" % (i, j) for j in range(3000 + 100 * i)}
            index.insert("x%d" % i, sig(values), len(values))
        assert index.generation >= 1
        assert index.drift_stats()["drift_score"] < 0.5
        # Everything is still findable after the automatic compaction.
        key = "x100"
        values = {"x100_%d" % j for j in range(3000 + 100 * 100)}
        assert key in index.query(sig(values), size=len(values),
                                  threshold=1.0)

    def test_no_auto_rebalance_by_default(self):
        _, index = build_index()
        for i in range(40):
            values = {"x%d_%d" % (i, j) for j in range(2000 + 100 * i)}
            index.insert("x%d" % i, sig(values), len(values))
        assert index.generation == 0


class TestIntrospectionWithTiers:
    def test_len_keys_contains(self):
        domains, index = build_index()
        index.insert("new", sig({"a", "b"}), 2)
        index.remove("d3")
        assert len(index) == len(domains)  # +1 insert, -1 remove
        keys = set(index.keys())
        assert "new" in keys and "d3" not in keys
        assert "new" in index and "d3" not in index

    def test_stats_reports_tiers_and_live_view(self):
        domains, index = build_index()
        index.insert("new", sig({"a", "b"}), 2)
        index.remove("d3")
        stats = index.stats()
        assert stats["num_domains"] == len(domains)
        assert stats["base_keys"] == len(domains) - 1
        assert stats["delta_keys"] == 1
        assert stats["tombstones"] == 1
        assert sum(e["count"] for e in stats["partitions"]) == \
            stats["num_domains"]

    def test_top_k_sees_both_tiers(self):
        domains, index = build_index()
        new = {"q%d" % j for j in range(50)}
        index.insert("exact_dup", sig(new), len(new))
        ranked = index.query_top_k(sig(new), 3, size=len(new))
        assert ranked and ranked[0][0] == "exact_dup"
        assert ranked[0][1] == pytest.approx(1.0)
