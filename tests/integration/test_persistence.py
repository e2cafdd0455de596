"""Integration tests for index save/load."""

import json
import struct

import pytest

from repro.core.ensemble import LSHEnsemble
from repro.core.partitioner import (
    equi_depth_partitions,
    register_partitioner,
)
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MinHash
from repro.persistence import (
    FormatError,
    load_ensemble,
    read_header,
    save_ensemble,
    unpack_snapshot,
)

NUM_PERM = 64


def sig(values):
    return MinHash.from_values(values, num_perm=NUM_PERM)


@pytest.fixture()
def built_index():
    domains = {
        "alpha": {"a%d" % i for i in range(25)},
        "beta": {"b%d" % i for i in range(120)},
        ("table", "attr"): {"c%d" % i for i in range(60)},
        42: {"d%d" % i for i in range(15)},
    }
    for i in range(30):
        domains["fill%d" % i] = {"f%d_%d" % (i, j)
                                 for j in range(10 + 4 * i)}
    index = LSHEnsemble(threshold=0.7, num_perm=NUM_PERM,
                        num_partitions=4)
    index.index((k, sig(v), len(v)) for k, v in domains.items())
    return domains, index


class TestRoundtrip:
    def test_identical_query_answers(self, built_index, tmp_path):
        domains, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        for key, values in list(domains.items())[:10]:
            probe = sig(values)
            for threshold in (0.3, 0.7, 1.0):
                assert loaded.query(probe, size=len(values),
                                    threshold=threshold) == \
                    index.query(probe, size=len(values),
                                threshold=threshold)

    def test_configuration_preserved(self, built_index, tmp_path):
        _, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        assert loaded.threshold == index.threshold
        assert loaded.num_perm == index.num_perm
        assert loaded.partitions == index.partitions
        assert len(loaded) == len(index)

    def test_key_types_roundtrip(self, built_index, tmp_path):
        _, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        assert ("table", "attr") in loaded
        assert 42 in loaded
        assert "alpha" in loaded

    def test_signatures_bit_exact(self, built_index, tmp_path):
        _, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        assert loaded.get_signature("alpha") == \
            index.get_signature("alpha")

    def test_loaded_index_accepts_inserts(self, built_index, tmp_path):
        _, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        new = {"n%d" % i for i in range(20)}
        loaded.insert("new-domain", sig(new), len(new))
        assert "new-domain" in loaded.query(sig(new), size=len(new),
                                            threshold=1.0)


class TestErrors:
    def test_empty_index_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_ensemble(LSHEnsemble(num_perm=NUM_PERM),
                          tmp_path / "x.lshe")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lshe"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_ensemble(path)

    def test_bad_version(self, built_index, tmp_path):
        _, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # corrupt the version field
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_ensemble(path)

    def test_truncated_payload(self, built_index, tmp_path):
        _, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 20])
        with pytest.raises(FormatError):
            load_ensemble(path)

    def test_corrupt_header(self, built_index, tmp_path):
        _, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        blob = bytearray(path.read_bytes())
        blob[15] ^= 0xFF  # flip a byte inside the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises((FormatError, KeyError)):
            load_ensemble(path)


def _rewrite_header(path, edit):
    """Apply ``edit(header_dict)`` to a v2 file's JSON header in place,
    rewriting the u32 length field; the payload is untouched."""
    blob = path.read_bytes()
    (length,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + length])
    edit(header)
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw
                     + blob[12 + length:])


def _custom_partitioner(sizes, num_partitions):
    return equi_depth_partitions(sizes, num_partitions)


register_partitioner("test-custom", _custom_partitioner)


class TestFormatV2:
    def test_header_reports_v2_and_backend(self, built_index, tmp_path):
        _, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        header = read_header(path)
        assert header["version"] == 2
        assert header["storage"] == "dict"
        assert header["partitioner"] == "equi_depth"
        assert sum(header["partition_rows"]) == len(index)
        assert len(header["partition_max_size"]) == len(index.partitions)

    def test_v1_preamble_is_refused_as_retired(self, built_index, tmp_path):
        _, index = built_index
        # Nothing writes v1 any more: hand-build its preamble (magic,
        # u32 1, u32 header length, JSON header).
        header = b'{"keys":[],"sizes":[]}'
        path = tmp_path / "index.v1.lshe"
        path.write_bytes(b"LSHE" + struct.pack("<I", 1)
                         + struct.pack("<I", len(header)) + header)
        with pytest.raises(FormatError, match="retired"):
            load_ensemble(path)
        with pytest.raises(FormatError, match="retired"):
            read_header(path)
        with pytest.raises(ValueError, match="unsupported save version"):
            save_ensemble(index, tmp_path / "x.lshe", version=1)

    def test_header_without_storage_field_loads(self, built_index,
                                                tmp_path):
        domains, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        _rewrite_header(path, lambda header: header.pop("storage"))
        assert "storage" not in read_header(path)
        loaded = load_ensemble(path)
        for key, values in list(domains.items())[:8]:
            probe = sig(values)
            for threshold in (0.3, 0.7, 1.0):
                assert loaded.query(probe, size=len(values),
                                    threshold=threshold) == \
                    index.query(probe, size=len(values),
                                threshold=threshold)

    def test_mmap_off_equivalent(self, built_index, tmp_path):
        domains, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path, mmap=False)
        for key, values in list(domains.items())[:5]:
            probe = sig(values)
            assert loaded.query(probe, size=len(values), threshold=0.7) == \
                index.query(probe, size=len(values), threshold=0.7)

    def test_seed_column_roundtrip(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(3)
        entries = [
            ("small-seed", LeanMinHash(
                seed=5, hashvalues=rng.integers(
                    0, 2 ** 32, NUM_PERM, dtype=np.uint64)), 20),
            ("big-seed", LeanMinHash(
                seed=2 ** 40, hashvalues=rng.integers(
                    0, 2 ** 32, NUM_PERM, dtype=np.uint64)), 30),
        ]
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=2)
        index.index(entries)
        path = tmp_path / "seeds.lshe"
        save_ensemble(index, path)
        assert read_header(path)["seed_dtype"] == "<i8"
        loaded = load_ensemble(path)
        assert loaded.get_signature("small-seed").seed == 5
        assert loaded.get_signature("big-seed").seed == 2 ** 40
        assert loaded.get_signature("big-seed") == \
            index.get_signature("big-seed")


class TestDriftedRoundtrip:
    """Round trips of an index mutated beyond its built size range."""

    def _drifted(self):
        domains = {"d%d" % i: {"v%d_%d" % (i, j) for j in range(10 + 3 * i)}
                   for i in range(40)}
        index = LSHEnsemble(threshold=0.6, num_perm=NUM_PERM,
                            num_partitions=4)
        index.index((k, sig(v), len(v)) for k, v in domains.items())
        # Drift: sizes far beyond the built partition range on both ends
        # (clamped routing; grows _partition_max_size), then removals —
        # including the largest domain, so the tracked high-water mark
        # exceeds anything derivable from the remaining entries.
        huge = {"h%d" % j for j in range(5000)}
        domains["huge"] = huge
        index.insert("huge", sig(huge), len(huge))
        tiny = {"t"}
        domains["tiny"] = tiny
        index.insert("tiny", sig(tiny), len(tiny))
        big2 = {"b%d" % j for j in range(2000)}
        domains["big2"] = big2
        index.insert("big2", sig(big2), len(big2))
        for gone in ("huge", "d3", "d20"):
            index.remove(gone)
            del domains[gone]
        return domains, index

    def test_query_and_batch_set_equal_after_roundtrip(self, tmp_path):
        from repro.minhash.batch import SignatureBatch

        domains, index = self._drifted()
        path = tmp_path / "drift.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        assert loaded._partition_max_size == index._partition_max_size
        names = sorted(domains, key=str)
        probes = [sig(domains[name]) for name in names]
        qsizes = [len(domains[name]) for name in names]
        for threshold in (0.2, 0.6, 0.9, 1.0):
            for probe, q in zip(probes, qsizes):
                assert loaded.query(probe, size=q, threshold=threshold) == \
                    index.query(probe, size=q, threshold=threshold)
            batch = SignatureBatch.from_signatures(probes)
            assert loaded.query_batch(batch, sizes=qsizes,
                                      threshold=threshold) == \
                index.query_batch(batch, sizes=qsizes, threshold=threshold)

    def test_drifted_roundtrip_accepts_more_drift(self, tmp_path):
        domains, index = self._drifted()
        path = tmp_path / "drift.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        more = {"m%d" % j for j in range(8000)}
        loaded.insert("more", sig(more), len(more))
        assert "more" in loaded.query(sig(more), size=len(more),
                                      threshold=1.0)


class TestTrailingBytes:
    def test_v2_trailing_bytes_rejected(self, built_index, tmp_path):
        _, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 16)
        with pytest.raises(FormatError, match="trailing"):
            load_ensemble(path)

    def test_v2_doubly_written_rejected(self, built_index, tmp_path):
        _, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        blob = path.read_bytes()
        path.write_bytes(blob + blob)
        with pytest.raises(FormatError):
            load_ensemble(path)


class TestBackendFidelity:
    def test_registered_backend_roundtrips(self, built_index, tmp_path):
        domains, _ = built_index
        index = LSHEnsemble(threshold=0.7, num_perm=NUM_PERM,
                            num_partitions=4,
                            partitioner=_custom_partitioner)
        index.index((k, sig(v), len(v)) for k, v in domains.items())
        path = tmp_path / "custom.lshe"
        save_ensemble(index, path)
        header = read_header(path)
        assert header["partitioner"] == "test-custom"
        loaded = load_ensemble(path)
        assert loaded._partitioner is _custom_partitioner
        for key, values in list(domains.items())[:5]:
            probe = sig(values)
            assert loaded.query(probe, size=len(values), threshold=0.7) == \
                index.query(probe, size=len(values), threshold=0.7)

    def test_unregistered_partitioner_fails_loudly(self, built_index,
                                                   tmp_path):
        domains, _ = built_index
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4,
                            partitioner=lambda sizes, n:
                            equi_depth_partitions(sizes, n))
        index.index((k, sig(v), len(v)) for k, v in domains.items())
        path = tmp_path / "anonpart.lshe"
        save_ensemble(index, path)
        with pytest.raises(FormatError, match="unregistered partitioner"):
            load_ensemble(path)
        loaded = load_ensemble(path, partitioner=equi_depth_partitions)
        assert loaded._partitioner is equi_depth_partitions

    def test_unknown_backend_name_fails_loudly(self, built_index, tmp_path):
        _, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        # Same-length substitution keeps the header length field valid.
        blob = path.read_bytes().replace(b'"storage":"dict"',
                                         b'"storage":"duck"')
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="unknown storage backend"):
            load_ensemble(path)

    def test_null_backend_name_fails_loudly(self, built_index, tmp_path):
        # What the parent wrote for an unregistered custom backend.
        _, index = built_index
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        _rewrite_header(path,
                        lambda header: header.update(storage=None))
        assert read_header(path)["storage"] is None
        with pytest.raises(FormatError, match="unknown storage backend"):
            load_ensemble(path)


class TestEdgeCases:
    def test_empty_partition_roundtrip(self, tmp_path):
        # Explicit partitions with a hole no domain size falls into: its
        # partition_rows entry becomes 0 and the loaded forest must come
        # back empty but functional.  (Removals no longer empty physical
        # partitions — they only tombstone — so the hole is built in.)
        from repro.core.partitioner import Partition

        domains = {"a%d" % i: {"v%d_%d" % (i, j) for j in range(10 + i)}
                   for i in range(20)}
        domains["big"] = {"b%d" % j for j in range(120)}
        index = LSHEnsemble(threshold=0.6, num_perm=NUM_PERM)
        index.index(
            ((k, sig(v), len(v)) for k, v in domains.items()),
            partitions=[Partition(10, 40), Partition(40, 100),
                        Partition(100, 121)],
        )
        path = tmp_path / "holes.lshe"
        save_ensemble(index, path)
        assert 0 in read_header(path)["partition_rows"]
        loaded = load_ensemble(path)
        for key, values in list(domains.items())[:6]:
            probe = sig(values)
            assert loaded.query(probe, size=len(values), threshold=0.6) == \
                index.query(probe, size=len(values), threshold=0.6)

    def test_materialize_then_query(self, built_index, tmp_path):
        domains, index = built_index
        path = tmp_path / "warm.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)
        loaded.materialize()  # full warm-up instead of lazy fill
        for key, values in list(domains.items())[:6]:
            probe = sig(values)
            assert loaded.query(probe, size=len(values), threshold=0.7) == \
                index.query(probe, size=len(values), threshold=0.7)

    def test_resave_over_own_mmap_is_safe(self, built_index, tmp_path):
        """Saving a memmap-loaded index over its own file must not
        truncate the pages the index is still mapping (atomic rename)."""
        domains, index = built_index
        path = tmp_path / "self.lshe"
        save_ensemble(index, path)
        loaded = load_ensemble(path)          # mmaps the matrix
        save_ensemble(loaded, path)           # save over the mapped file
        again = load_ensemble(path)
        for key, values in list(domains.items())[:5]:
            probe = sig(values)
            assert again.query(probe, size=len(values), threshold=0.7) == \
                index.query(probe, size=len(values), threshold=0.7)
        # The still-open first load must keep answering too.
        key, values = next(iter(domains.items()))
        assert loaded.query(sig(values), size=len(values), threshold=0.7) \
            == index.query(sig(values), size=len(values), threshold=0.7)

    def test_failed_save_leaves_no_temp_files(self, tmp_path):
        with pytest.raises(ValueError):
            save_ensemble(LSHEnsemble(num_perm=NUM_PERM),
                          tmp_path / "never.lshe")
        assert list(tmp_path.iterdir()) == []

    def test_negative_partition_rows_rejected(self, built_index, tmp_path):
        _, index = built_index
        path = tmp_path / "neg.lshe"
        save_ensemble(index, path)
        header = read_header(path)
        rows = header["partition_rows"]
        assert rows[0] > 0 and len(rows) >= 2
        # Same-length JSON substitution: shift one entry negative while
        # keeping the sum (and the header length) unchanged.
        old = json.dumps(rows, separators=(",", ":")).encode()
        bad = rows[:]
        bad[0], bad[1] = -1, rows[1] + rows[0] + 1
        new = json.dumps(bad, separators=(",", ":")).encode()
        if len(new) == len(old):
            path.write_bytes(path.read_bytes().replace(old, new))
            with pytest.raises(FormatError, match="negative"):
                load_ensemble(path)


def _snapshot(manifest, payload=b""):
    """A snapshot archive around ``manifest`` (an object to encode, or
    raw manifest bytes) followed by ``payload``."""
    raw = (manifest if isinstance(manifest, bytes)
           else json.dumps(manifest).encode("utf-8"))
    return b"LSHESNAP" + struct.pack("<I", len(raw)) + raw + payload


def _dir_snapshot(rel):
    return _snapshot({"version": 1, "kind": "dir", "files": [[rel, 4]]},
                     b"evil")


_ONE_FILE = {"version": 1, "kind": "file", "files": [["index.lshe", 4]]}


@pytest.mark.parametrize("make_archive,reason", [
    (lambda tmp: b"NOTASNAP" + _snapshot(_ONE_FILE, b"abcd")[8:],
     "bad magic"),
    (lambda tmp: b"LSHESNAP\x01\x00", "truncated snapshot header"),
    (lambda tmp: _snapshot(b"[1,2]"), "corrupt snapshot manifest"),
    (lambda tmp: _snapshot(b'"x"'), "corrupt snapshot manifest"),
    (lambda tmp: _snapshot(b"\x80{}"), "corrupt snapshot manifest"),
    (lambda tmp: _dir_snapshot(str(tmp / "outside" / "evil")), "escapes"),
    (lambda tmp: _dir_snapshot("../outside-evil"), "escapes"),
    (lambda tmp: _dir_snapshot("sub/../../outside-evil"), "escapes"),
    (lambda tmp: _dir_snapshot("."), "escapes"),
    (lambda tmp: _snapshot(_ONE_FILE, b"ab"),
     "truncated snapshot payload"),
    (lambda tmp: _snapshot(_ONE_FILE, b"abcdEXTRA"), "trailing bytes"),
    (lambda tmp: _snapshot({"version": 1, "kind": "file",
                            "files": [["a.lshe", 2], ["b.lshe", 2]]},
                           b"abcd"), "corrupt snapshot manifest"),
    (lambda tmp: _snapshot({"version": 1, "kind": "dir",
                            "files": [["a", 2], ["./a", 2]]},
                           b"abcd"), "corrupt snapshot file table"),
    (lambda tmp: _snapshot({"version": 1, "kind": "dir",
                            "files": [["a", 2], ["a/b", 2]]},
                           b"abcd"), "corrupt snapshot file table"),
], ids=["bad-magic", "truncated-header", "manifest-list",
        "manifest-string", "manifest-not-utf8", "absolute-path",
        "dotdot-path", "nested-dotdot-path", "dest-itself",
        "truncated-payload",
        "trailing-bytes", "multi-file-file-archive", "duplicate-path",
        "file-under-file"])
def test_unpack_snapshot_refusals(tmp_path, make_archive, reason):
    """A snapshot arrives from a peer (``shardnode --bootstrap-from``):
    every malformed archive is a :class:`FormatError`, and a refused
    archive writes nothing, inside ``dest`` or out of it."""
    dest = tmp_path / "dest"
    with pytest.raises(FormatError, match=reason):
        unpack_snapshot(make_archive(tmp_path), dest)
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []
