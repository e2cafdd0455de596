"""Integration tests for dynamic persistence: the generation-numbered
manifest (base + delta + tombstones) and mutation of mmap-loaded
indexes with lazy bucket materialisation."""

import json

import pytest

from repro.core.ensemble import LSHEnsemble
from repro.minhash.batch import SignatureBatch
from repro.minhash.minhash import MinHash
from repro.persistence import (
    FormatError,
    load_ensemble,
    read_header,
    save_ensemble,
)

NUM_PERM = 64


def sig(values):
    return MinHash.from_values(values, num_perm=NUM_PERM)


def make_domains():
    domains = {"d%d" % i: {"v%d_%d" % (i, j) for j in range(10 + 5 * i)}
               for i in range(40)}
    return domains


@pytest.fixture()
def dynamic_index():
    """A built index with delta-tier inserts and tombstones."""
    domains = make_domains()
    index = LSHEnsemble(threshold=0.6, num_perm=NUM_PERM,
                        num_partitions=4)
    index.index((k, sig(v), len(v)) for k, v in domains.items())
    for i in range(8):
        values = {"x%d_%d" % (i, j) for j in range(400 + 50 * i)}
        domains["x%d" % i] = values
        index.insert("x%d" % i, sig(values), len(values))
    for gone in ("d3", "d20", "x5"):
        index.remove(gone)
        del domains[gone]
    return domains, index


def _assert_same_answers(a, b, domains, thresholds=(0.2, 0.6, 1.0)):
    names = sorted(domains)
    probes = [sig(domains[k]) for k in names]
    sizes = [len(domains[k]) for k in names]
    batch = SignatureBatch.from_signatures(probes)
    for threshold in thresholds:
        for probe, q in zip(probes, sizes):
            assert a.query(probe, size=q, threshold=threshold) == \
                b.query(probe, size=q, threshold=threshold)
        assert a.query_batch(batch, sizes=sizes, threshold=threshold) == \
            b.query_batch(batch, sizes=sizes, threshold=threshold)


class TestManifestRoundtrip:
    def test_dynamic_index_saves_as_manifest_directory(self, dynamic_index,
                                                       tmp_path):
        _, index = dynamic_index
        path = tmp_path / "dyn.lshe"
        save_ensemble(index, path)
        assert path.is_dir()
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format"] == "lshe-dynamic"
        assert (path / manifest["base"]).is_file()
        assert (path / manifest["delta"]).is_file()
        assert len(manifest["tombstones"]) == 2  # d3, d20 (x5 was delta)

    def test_roundtrip_preserves_answers_and_tiers(self, dynamic_index,
                                                   tmp_path):
        domains, index = dynamic_index
        path = tmp_path / "dyn.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        assert len(loaded) == len(index) == len(domains)
        assert set(loaded.keys()) == set(domains)
        assert loaded._tombstones == index._tombstones
        assert len(loaded._delta) == len(index._delta)
        assert loaded.generation == index.generation
        _assert_same_answers(loaded, index, domains)

    def test_drift_stats_roundtrip(self, dynamic_index, tmp_path):
        _, index = dynamic_index
        path = tmp_path / "dyn.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        got, want = loaded.drift_stats(), index.drift_stats()
        for field in ("depth_cv", "churn_ratio", "size_skewness",
                      "skewness_shift", "drift_score", "live_counts"):
            assert got[field] == pytest.approx(want[field]), field

    def test_top_k_roundtrip(self, dynamic_index, tmp_path):
        domains, index = dynamic_index
        path = tmp_path / "dyn.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        probe = sig(domains["x1"])
        q = len(domains["x1"])
        assert loaded.query_top_k(probe, 5, size=q) == \
            index.query_top_k(probe, 5, size=q)

    def test_auto_rebalance_threshold_roundtrips(self, tmp_path):
        domains = make_domains()
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4,
                            auto_rebalance_at=0.8)
        index.index((k, sig(v), len(v)) for k, v in domains.items())
        index.insert("new", sig({"a", "b", "c"}), 3)
        path = tmp_path / "auto.lshe"
        save_ensemble(index, path)
        assert load_ensemble(path).auto_rebalance_at == 0.8

    def test_clean_index_still_single_file(self, tmp_path):
        domains = make_domains()
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4)
        index.index((k, sig(v), len(v)) for k, v in domains.items())
        path = tmp_path / "clean.lshe"
        save_ensemble(index, path)
        assert path.is_file()
        assert read_header(path)["version"] == 2

    def test_v2_refuses_dynamic_state(self, dynamic_index, tmp_path):
        _, index = dynamic_index
        with pytest.raises(ValueError, match="rebalance"):
            save_ensemble(index, tmp_path / "x.lshe", version=2)

    def test_version_3_forces_manifest_for_clean_index(self, tmp_path):
        domains = make_domains()
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4)
        index.index((k, sig(v), len(v)) for k, v in domains.items())
        path = tmp_path / "clean.lshe"
        save_ensemble(index, path, version=3)
        assert path.is_dir()
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["delta"] is None
        _assert_same_answers(load_ensemble(path), index, domains)

    def test_generation_survives_rebalance_roundtrip(self, dynamic_index,
                                                     tmp_path):
        domains, index = dynamic_index
        index.rebalance()
        assert index.generation == 1
        path = tmp_path / "gen.lshe"
        save_ensemble(index, path)
        assert path.is_file()  # clean again -> single file
        loaded = load_ensemble(path)
        assert loaded.generation == 1
        _assert_same_answers(loaded, index, domains)

    def test_read_header_on_manifest(self, dynamic_index, tmp_path):
        _, index = dynamic_index
        path = tmp_path / "dyn.lshe"
        save_ensemble(index, path)
        header = read_header(path)
        assert header["version"] == 3
        assert header["generation"] == 0
        assert header["tombstones"] == 2
        assert header["delta_keys"] == len(index._delta)


class TestManifestResave:
    def test_resave_reuses_immutable_base_segment(self, dynamic_index,
                                                  tmp_path):
        domains, index = dynamic_index
        path = tmp_path / "dyn.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        base_name = json.loads(
            (path / "manifest.json").read_text())["base"]
        base_mtime_ns = (path / base_name).stat().st_mtime_ns
        new = {"fresh%d" % j for j in range(60)}
        loaded.insert("fresh", sig(new), len(new))
        domains["fresh"] = new
        save_ensemble(loaded, path)
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["base"] == base_name  # reused, not rewritten
        assert (path / base_name).stat().st_mtime_ns == base_mtime_ns
        assert manifest["delta"] != None  # noqa: E711  (new generation)
        reloaded = load_ensemble(path)
        _assert_same_answers(reloaded, loaded, domains)

    def test_resave_after_rebalance_writes_new_base(self, dynamic_index,
                                                    tmp_path):
        domains, index = dynamic_index
        path = tmp_path / "dyn.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        old_base = json.loads((path / "manifest.json").read_text())["base"]
        loaded.rebalance()
        save_ensemble(loaded, path)
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["base"] != old_base
        assert manifest["delta"] is None
        assert not (path / old_base).exists()  # stale segment dropped
        _assert_same_answers(load_ensemble(path), loaded, domains)

    def test_single_file_converted_in_place_by_mutation(self, tmp_path):
        domains = make_domains()
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4)
        index.index((k, sig(v), len(v)) for k, v in domains.items())
        path = tmp_path / "conv.lshe"
        save_ensemble(index, path)
        assert path.is_file()
        loaded = load_ensemble(path)  # mmap aliases the file being replaced
        loaded.remove("d7")
        del domains["d7"]
        save_ensemble(loaded, path)
        assert path.is_dir()
        _assert_same_answers(load_ensemble(path), loaded, domains)

    def test_stale_segments_cleaned_after_resave(self, dynamic_index,
                                                 tmp_path):
        _, index = dynamic_index
        path = tmp_path / "dyn.lshe"
        save_ensemble(index, path)
        first_delta = json.loads(
            (path / "manifest.json").read_text())["delta"]
        loaded = load_ensemble(path)
        loaded.insert("one_more", sig({"zzz"}), 1)
        save_ensemble(loaded, path)
        manifest = json.loads((path / "manifest.json").read_text())
        segs = sorted(p.name for p in path.glob("*.seg"))
        assert segs == sorted(n for n in (manifest["base"],
                                          manifest["delta"]) if n)
        assert first_delta not in segs

    def test_base_reuse_after_file_to_dir_conversion(self, tmp_path):
        # The in-place file->directory conversion must leave the index
        # able to reuse its (just written) base segment on the next
        # save into the same path.
        domains = make_domains()
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4)
        index.index((k, sig(v), len(v)) for k, v in domains.items())
        path = tmp_path / "conv.lshe"
        save_ensemble(index, path)       # single file
        index.insert("one", sig({"o1", "o2"}), 2)
        save_ensemble(index, path)       # converts to manifest dir
        base_name = json.loads((path / "manifest.json").read_text())["base"]
        mtime_ns = (path / base_name).stat().st_mtime_ns
        index.insert("two", sig({"t1", "t2", "t3"}), 3)
        save_ensemble(index, path)       # must reuse, not rewrite, base
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["base"] == base_name
        assert (path / base_name).stat().st_mtime_ns == mtime_ns

    def test_auto_rebalance_threshold_survives_base_reuse(self, tmp_path):
        # auto_rebalance_at changed after load must persist even when
        # the (unchanged) base segment is reused: the manifest, not the
        # segment header, is its authoritative home.
        domains = make_domains()
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4)
        index.index((k, sig(v), len(v)) for k, v in domains.items())
        index.insert("one", sig({"o1", "o2"}), 2)
        path = tmp_path / "auto.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        assert loaded.auto_rebalance_at is None
        loaded.auto_rebalance_at = 0.35
        loaded.insert("two", sig({"t1", "t2"}), 2)
        save_ensemble(loaded, path)      # base segment reused
        assert load_ensemble(path).auto_rebalance_at == 0.35
        # And clearing it round-trips too.
        cleared = load_ensemble(path)
        cleared.auto_rebalance_at = None
        cleared.insert("three", sig({"x1", "x2"}), 2)
        save_ensemble(cleared, path)
        assert load_ensemble(path).auto_rebalance_at is None

    def test_emptied_base_tier_roundtrips(self, tmp_path):
        domains = {"a": {"v1", "v2"}, "b": {"w%d" % j for j in range(9)}}
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=2)
        index.index((k, sig(v), len(v)) for k, v in domains.items())
        for key in ("a", "b"):
            index.remove(key)
        live = {"c%d" % i: {"c%d_%d" % (i, j) for j in range(5 + i)}
                for i in range(4)}
        for key, values in live.items():
            index.insert(key, sig(values), len(values))
        path = tmp_path / "hollow.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        assert set(loaded.keys()) == set(live)
        _assert_same_answers(loaded, index, live)


class TestManifestErrors:
    def _saved(self, dynamic_index, tmp_path):
        _, index = dynamic_index
        path = tmp_path / "dyn.lshe"
        save_ensemble(index, path)
        return path

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "junk").mkdir()
        with pytest.raises(FormatError, match="manifest"):
            load_ensemble(tmp_path / "junk")

    def test_corrupt_manifest_json(self, dynamic_index, tmp_path):
        path = self._saved(dynamic_index, tmp_path)
        (path / "manifest.json").write_text("{ nope")
        with pytest.raises(FormatError, match="corrupt manifest"):
            load_ensemble(path)

    def test_unknown_manifest_format(self, dynamic_index, tmp_path):
        path = self._saved(dynamic_index, tmp_path)
        (path / "manifest.json").write_text(json.dumps({"format": "???"}))
        with pytest.raises(FormatError, match="unrecognised"):
            load_ensemble(path)

    def test_missing_base_segment(self, dynamic_index, tmp_path):
        path = self._saved(dynamic_index, tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        (path / manifest["base"]).unlink()
        with pytest.raises(FormatError, match="base segment"):
            load_ensemble(path)

    def test_missing_delta_segment(self, dynamic_index, tmp_path):
        path = self._saved(dynamic_index, tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        (path / manifest["delta"]).unlink()
        with pytest.raises(FormatError, match="delta segment"):
            load_ensemble(path)

    def test_read_header_missing_segment_is_format_error(
            self, dynamic_index, tmp_path):
        path = self._saved(dynamic_index, tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        (path / manifest["delta"]).unlink()
        with pytest.raises(FormatError, match="missing"):
            read_header(path)

    def test_bad_auto_rebalance_threshold_rejected(self, dynamic_index,
                                                   tmp_path):
        path = self._saved(dynamic_index, tmp_path)
        for bad in (-1, 0, 2.5, "high"):
            manifest = json.loads((path / "manifest.json").read_text())
            manifest["auto_rebalance_at"] = bad
            (path / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(FormatError, match="auto_rebalance_at"):
                load_ensemble(path)

    def test_tombstone_of_unknown_key_rejected(self, dynamic_index,
                                               tmp_path):
        path = self._saved(dynamic_index, tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["tombstones"].append("ghost")
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="tombstone"):
            load_ensemble(path)

    def test_sharded_directory_rejected_with_hint(self, tmp_path):
        from repro.parallel.sharded import ShardedEnsemble

        cluster = ShardedEnsemble(
            num_shards=2, parallel=False,
            ensemble_factory=lambda: LSHEnsemble(num_perm=NUM_PERM,
                                                 num_partitions=2))
        cluster.index([("k%d" % i,
                        sig({"v%d_%d" % (i, j) for j in range(10 + i)}),
                        10 + i) for i in range(8)])
        cluster.save(tmp_path / "cluster")
        with pytest.raises(FormatError, match="ShardedEnsemble"):
            load_ensemble(tmp_path / "cluster")

    def test_save_refuses_to_clobber_foreign_directory(self, dynamic_index,
                                                       tmp_path):
        # A non-empty directory that is not a dynamic manifest (here: a
        # ShardedEnsemble snapshot, plus a stray .seg) must never be
        # adopted — its files would be clobbered or garbage-collected.
        from repro.parallel.sharded import ShardedEnsemble

        _, index = dynamic_index
        cluster = ShardedEnsemble(
            num_shards=2, parallel=False,
            ensemble_factory=lambda: LSHEnsemble(num_perm=NUM_PERM,
                                                 num_partitions=2))
        cluster.index([("k%d" % i,
                        sig({"v%d_%d" % (i, j) for j in range(10 + i)}),
                        10 + i) for i in range(8)])
        cluster.save(tmp_path / "cluster")
        (tmp_path / "cluster" / "unrelated.seg").write_bytes(b"data")
        with pytest.raises(FormatError):
            save_ensemble(index, tmp_path / "cluster")
        assert (tmp_path / "cluster" / "unrelated.seg").exists()
        assert ShardedEnsemble.load(tmp_path / "cluster") is not None
        other = tmp_path / "junk"
        other.mkdir()
        (other / "precious.txt").write_text("keep me")
        with pytest.raises(FormatError):
            save_ensemble(index, other, version=3)
        assert (other / "precious.txt").read_text() == "keep me"


class TestMutatingLoadedIndex:
    """insert()/remove() on an mmap-loaded ensemble must interact
    correctly with lazy per-depth bucket materialisation."""

    def _saved(self, tmp_path):
        domains = make_domains()
        index = LSHEnsemble(threshold=0.6, num_perm=NUM_PERM,
                            num_partitions=4)
        index.index((k, sig(v), len(v)) for k, v in domains.items())
        path = tmp_path / "cold.lshe"
        save_ensemble(index, path)
        return domains, index, path

    @staticmethod
    def _built(index):
        """The depths whose base-tier buckets exist so far."""
        return index._layout.built_depths

    def test_insert_before_any_query_keeps_lazy_blocks_correct(
            self, tmp_path):
        domains, orig, path = self._saved(tmp_path)
        loaded = load_ensemble(path)  # mmap, no depth built yet
        assert self._built(loaded) == ()
        new = {"n%d" % j for j in range(35)}
        loaded.insert("newcomer", sig(new), len(new))
        assert self._built(loaded) == ()  # insert builds no depth
        domains["newcomer"] = new
        # Different thresholds reach different depths r, materialising
        # different lazy tables with the delta merge active throughout.
        for threshold in (1.0, 0.6, 0.2):
            for key in ("newcomer", "d2", "d33"):
                values = domains[key]
                assert key in loaded.query(sig(values), size=len(values),
                                           threshold=threshold)
        # Queries built only the depths they reached.
        reached = self._built(loaded)
        assert reached and len(reached) < loaded.max_depth
        loaded.materialize()
        assert self._built(loaded) == tuple(range(1, loaded.max_depth + 1))

    def test_remove_on_loaded_index_stays_lazy(self, tmp_path):
        domains, orig, path = self._saved(tmp_path)
        loaded = load_ensemble(path)
        assert self._built(loaded) == ()
        loaded.remove("d5")
        # Tombstoning must not build any depth of the base tier.
        assert self._built(loaded) == ()
        found = loaded.query(sig(domains["d5"]), size=len(domains["d5"]),
                             threshold=0.0)
        assert "d5" not in found
        # The base layout still physically contains d5; only the
        # tombstone filter hides it.
        assert "d5" in loaded._rows
        assert "d5" in loaded._layout.keys.tolist()

    def test_mutations_then_materialize_matches_incremental(self, tmp_path):
        domains, orig, path = self._saved(tmp_path)
        lazy = load_ensemble(path)
        warm = load_ensemble(path)
        warm.materialize()
        for target in (lazy, warm):
            new = {"n%d" % j for j in range(85)}
            target.insert("newcomer", sig(new), len(new))
            target.remove("d11")
        domains["newcomer"] = {"n%d" % j for j in range(85)}
        del domains["d11"]
        _assert_same_answers(lazy, warm, domains)

    def test_batch_queries_on_mutated_loaded_index(self, tmp_path):
        domains, orig, path = self._saved(tmp_path)
        loaded = load_ensemble(path)
        new = {"n%d" % j for j in range(50)}
        loaded.insert("newcomer", sig(new), len(new))
        orig.insert("newcomer", sig(new), len(new))
        loaded.remove("d9")
        orig.remove("d9")
        domains["newcomer"] = new
        del domains["d9"]
        _assert_same_answers(loaded, orig, domains)

    def test_mutate_save_reload_chain(self, tmp_path):
        domains, orig, path = self._saved(tmp_path)
        first = load_ensemble(path)
        new = {"n%d" % j for j in range(45)}
        first.insert("newcomer", sig(new), len(new))
        first.remove("d13")
        domains["newcomer"] = new
        del domains["d13"]
        save_ensemble(first, path)
        second = load_ensemble(path)
        more = {"m%d" % j for j in range(25)}
        second.insert("moreish", sig(more), len(more))
        domains["moreish"] = more
        save_ensemble(second, path)
        final = load_ensemble(path)
        assert set(final.keys()) == set(domains)
        _assert_same_answers(final, second, domains)

    def test_rebalance_of_mmap_loaded_index(self, tmp_path):
        domains, orig, path = self._saved(tmp_path)
        loaded = load_ensemble(path)
        for i in range(6):
            values = {"x%d_%d" % (i, j) for j in range(500 + 100 * i)}
            domains["x%d" % i] = values
            loaded.insert("x%d" % i, sig(values), len(values))
        loaded.rebalance()  # copies signature rows out of the mmap
        fresh = LSHEnsemble(threshold=0.6, num_perm=NUM_PERM,
                            num_partitions=4)
        fresh.index((k, sig(v), len(v)) for k, v in domains.items())
        assert loaded.partitions == fresh.partitions
        _assert_same_answers(loaded, fresh, domains)
