"""Index persistence: save and load a built LSH Ensemble.

At the paper's scale an index takes hours to build (Table 4: ~105 min
for 262M domains), so rebuilding on every process start is a
non-starter.  This module serialises a built index in a compact,
versioned binary format and rematerialises it on load.  Bucket
structures re-derive deterministically from the signatures, so they are
never persisted — only the entries, the configuration, and the
partition state.

Dynamic indexes (post-build delta-tier writes and/or tombstones) are
saved as a **generation-numbered manifest directory** instead of a
single file::

    path/
      manifest.json        format marker, compaction generation,
                           segment names, tombstoned keys
      base-%05d.seg        the immutable base tier — a v2 single-file
                           snapshot of the *physical* base (including
                           tombstoned rows)
      delta-%05d.seg       the flushed delta tier (absent when empty),
                           same v2 format

    Segment files are never overwritten: each save writes a new save
    generation and the manifest replace is atomic, so a crash mid-save
    leaves the previous manifest fully loadable; superseded segments
    are deleted only after the new manifest is durable.  A re-save into
    the directory an index was loaded from reuses the (immutable) base
    segment when only the write tiers changed, making incremental saves
    O(delta), not O(N).

``save_ensemble`` picks the layout automatically: clean indexes keep
the single-file v2 format below (and stay readable forever), dynamic
ones get the manifest; ``version=3`` forces the manifest, ``version=2``
refuses dynamic state.  ``load_ensemble`` accepts both transparently.

Format v2 (current, little-endian) — zero-copy columnar::

    magic   b"LSHE"            4 bytes
    version u32                2
    header  u32 length + JSON  configuration, partitions, key/size
                               tables, storage + partitioner names
    seeds   N x u32 (or i64)   per-signature permutation seed column
    matrix  N x num_perm x u64 all signature hash values, C-order,
                               rows ordered partition-major

The payload is one homogeneous matrix: a load is a single
``np.memmap`` (or ``np.frombuffer``) with **no per-entry
deserialisation**, and because rows are written partition-major the
mapped matrix *is* the loaded index's base tier, with no copy or
reorder.  The header records:

* ``partition_rows`` — rows per partition, delimiting the blocks;
* ``partition_max_size`` — the per-partition true-size high-water mark,
  restored verbatim so drifted indexes (clamped inserts, removed
  maxima) answer queries identically after a round trip;
* ``partitioner`` — the *registry name* of the partitioning strategy
  (:func:`repro.core.partitioner.register_partitioner`), so a loaded
  index keeps the strategy it was built with.  Unknown names fail
  loudly; unregistered customs are recorded as ``null`` and require an
  explicit ``partitioner=`` override at load time;
* ``storage`` — always ``"dict"``, a format constant: buckets are not
  persisted (:mod:`repro.forest.layout` builds them from the matrix
  per depth, on first use).  The field is still written so files stay
  byte-identical for older readers; a header naming anything else
  fails loudly, an absent field is fine;
* ``seed_dtype`` — ``"<u4"`` normally, escalated to ``"<i8"`` when a
  seed does not fit in 32 bits.

The reader rejects files with trailing bytes after the payload: a
truncated-then-concatenated or doubly-written file must not load
"successfully".  Format v1 (per-entry ``LeanMinHash.serialize()`` blobs;
superseded by v2 in PR 2) was retired: a v1 preamble raises
:class:`FormatError` and the index must be rebuilt.

Keys are JSON-encoded in the header, so any JSON-representable key
(strings, numbers, or lists/tuples of those) round-trips; tuple keys
are restored as tuples.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np

from repro.core.ensemble import LSHEnsemble
from repro.core.partitioner import (
    Partition,
    partitioner_name,
    resolve_partitioner,
)
from repro.kernels import kernel_for_header, kernel_name

__all__ = ["save_ensemble", "load_ensemble", "read_header", "FormatError",
           "export_columnar", "import_columnar",
           "pack_snapshot_bytes", "unpack_snapshot"]

_MAGIC = b"LSHE"
_VERSION = 2
# A format constant (see the module docstring) and the only value the
# reader accepts.
_STORAGE_NAME = "dict"
_MANIFEST_VERSION = 3
_MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "lshe-dynamic"
_U32 = struct.Struct("<I")


class FormatError(ValueError):
    """The file is not a valid serialised LSH Ensemble."""


def _fsync_dir(path: Path) -> None:
    """Flush a directory's entries to disk (rename durability)."""
    dir_fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _process_umask() -> int:
    """The current umask, read without mutating process-global state.

    ``os.umask`` can only *probe* by setting, which races with other
    threads creating files; prefer the kernel's race-free report and
    fall back to the probe where /proc is unavailable.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Umask:"):
                    return int(line.split()[1], 8)
    except (OSError, ValueError, IndexError):
        pass
    umask = os.umask(0)
    os.umask(umask)
    return umask


def _encode_key(key: object) -> object:
    if isinstance(key, tuple):
        return {"__tuple__": [_encode_key(v) for v in key]}
    return key


def _decode_key(key: object) -> object:
    if isinstance(key, dict) and "__tuple__" in key:
        return tuple(_decode_key(v) for v in key["__tuple__"])
    return key


# --------------------------------------------------------------------- #
# Save
# --------------------------------------------------------------------- #


def _has_dynamic_state(index: LSHEnsemble) -> bool:
    return bool(index._tombstones) or (index._delta is not None
                                       and len(index._delta) > 0)


def save_ensemble(index: LSHEnsemble, path: str | Path,
                  version: int | None = None) -> None:
    """Serialise a built index to ``path``.

    ``version`` selects the on-disk format:

    * ``None`` (default) — automatic: the generation-numbered manifest
      directory when the index carries dynamic state (delta-tier writes
      or tombstones) or ``path`` is already a manifest directory; the
      single-file columnar v2 format otherwise.
    * ``3`` — always the manifest directory.
    * ``2`` — the single-file columnar format; refuses dynamic state
      (``rebalance()`` first, or let the automatic mode write a
      manifest).
    """
    # Saving reads every tier; hold the index's mutation/query lock so
    # a concurrent insert/remove/rebalance (now supported — the serving
    # layer mutates live indexes) cannot tear the snapshot.
    with index.locked():
        if index.is_empty():
            raise ValueError("refusing to save an empty index")
        path = Path(path)
        dynamic = _has_dynamic_state(index)
        if version is None:
            version = (_MANIFEST_VERSION if dynamic or path.is_dir()
                       else _VERSION)
        if version == _MANIFEST_VERSION:
            _save_manifest(index, path)
            return
        if dynamic:
            raise ValueError(
                "index has delta-tier writes or tombstones; call "
                "rebalance() first or save as a dynamic manifest "
                "(version=3)")
        if version != _VERSION:
            raise ValueError("unsupported save version %d" % version)
        _atomic_write(path, lambda fh: _save_v2(index, fh))


def _atomic_write(path: str | Path, writer) -> None:
    """Write via a temp file + rename so saves never corrupt ``path``.

    Saving *over* an existing snapshot must not truncate it in place:
    the index being saved may hold memory-mapped signature rows aliasing
    that very file (a load_ensemble → save_ensemble round trip), and
    in-place truncation would fault those pages mid-write.  The rename
    also makes saves crash-atomic.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".",
                               prefix=path.name + ".", suffix=".tmp")
    try:
        # mkstemp creates 0600 files; restore the umask-derived mode a
        # plain open(path, "wb") would have produced, so snapshots stay
        # readable by the users the deployment's umask intends.
        os.chmod(tmp, 0o666 & ~_process_umask())
        with os.fdopen(fd, "wb") as fh:
            writer(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _base_header(index: LSHEnsemble) -> dict:
    return {
        "threshold": index.threshold,
        "num_perm": index.num_perm,
        "num_partitions": index.num_partitions,
        "num_trees": index.num_trees,
        "max_depth": index.max_depth,
        "partitions": [[p.lower, p.upper] for p in index.partitions],
        # The kernel travels by *registry name* (null for unregistered
        # customs) and is advisory: backends are bit-identical, so a
        # loader missing the named backend falls back rather than
        # failing.  ``bbit`` is NOT advisory — packed bucket keys only
        # reproduce when the loaded index truncates bands identically.
        "kernel": kernel_name(index._kernel),
        "bbit": index.bbit,
    }


def _write_header(fh, version: int, header: dict) -> None:
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    fh.write(_MAGIC)
    fh.write(_U32.pack(version))
    fh.write(_U32.pack(len(header_bytes)))
    fh.write(header_bytes)


def _columnar_export_state(index: LSHEnsemble) -> tuple[dict, np.ndarray,
                                                         np.ndarray]:
    """Header and payload columns shared by the v2 file writer and the
    in-memory exporter (:func:`export_columnar`).

    The base tier's columns are the payload as they stand: rows are
    partition-major, so each partition's rows load as views.  They are
    the *physical* base tier — tombstoned rows included (the manifest
    carries the tombstones).  Returns ``(header, seeds, matrix)``
    row-aligned to ``header["keys"]`` (raw keys; the file writer
    encodes them).
    """
    with index.locked():
        # Resolve any pending lazy live-max recompute so the header
        # records the exact (non-inflated) per-partition tuning bounds.
        index._resolve_live_max_locked()
        keys, sizes, matrix, seeds = index._columns()
        header = _base_header(index)
        header.update({
            "keys": keys.tolist(),
            "sizes": sizes.tolist(),
            "partition_rows": list(index._layout.partition_rows),
            "partition_max_size": list(index._partition_max_size),
            "generation": index._generation,
            "mutation_epoch": index._mutation_epoch,
            "auto_rebalance_at": index.auto_rebalance_at,
            "baseline_depth_cv": index._baseline_depth_cv,
            "baseline_skew": index._baseline_skew,
        })
        return header, seeds, matrix


def _restore_recorded_state(index: LSHEnsemble, header: dict) -> None:
    """Reapply the versioning/drift fields a columnar header records."""
    with index.locked():
        index._generation = int(header.get("generation", 0))
        index._mutation_epoch = int(header.get("mutation_epoch", 0))
        if header.get("baseline_depth_cv") is not None:
            index._baseline_depth_cv = float(header["baseline_depth_cv"])
        if header.get("baseline_skew") is not None:
            index._baseline_skew = float(header["baseline_skew"])


def _save_v2(index: LSHEnsemble, fh) -> None:
    header, seeds, matrix = _columnar_export_state(index)
    seed_dtype = ("<u4" if seeds.size == 0
                  or (0 <= seeds.min() and seeds.max() < 2 ** 32)
                  else "<i8")
    header["keys"] = [_encode_key(k) for k in header["keys"]]
    header.update({
        "storage": _STORAGE_NAME,
        "partitioner": partitioner_name(index._partitioner),
        "seed_dtype": seed_dtype,
    })
    _write_header(fh, 2, header)
    fh.write(memoryview(np.ascontiguousarray(
        seeds.astype(seed_dtype))).cast("B"))
    # Write the matrix in ~8 MB slices: a slice of the (C-order,
    # possibly memory-mapped) matrix is written without a copy, and a
    # mapped matrix is faulted in one bounded slice at a time.
    rows_per_chunk = max(1, 8_000_000 // (index.num_perm * 8))
    for start in range(0, len(matrix), rows_per_chunk):
        block = np.ascontiguousarray(matrix[start:start + rows_per_chunk],
                                     dtype="<u8")
        fh.write(memoryview(block).cast("B"))


# --------------------------------------------------------------------- #
# In-memory columnar round trip (process-pool task payloads)
# --------------------------------------------------------------------- #


def export_columnar(index: LSHEnsemble) -> dict:
    """The v2 payload of a *physically clean* index as in-memory arrays.

    Returns ``{"header": dict, "seeds": int64 array, "matrix": uint64
    (n, num_perm) array}`` with rows ordered partition-major — exactly
    the bytes :func:`save_ensemble` would write at ``version=2``, minus
    the file.  The arrays are the index's own read-only columns, not
    copies.  The whole dict is picklable, which is what the
    process-pool executor (:mod:`repro.parallel.procpool`) relies on to
    ship a dynamic index's small delta tier to worker processes
    without a disk round trip; :func:`import_columnar` rebuilds a
    bit-identical index (same partitions, tuning bounds, signatures).

    Unlike the file writer the header carries no partitioner registry
    name: the importer supplies the callable explicitly (workers use
    the partitioner of the base index the delta rides on).
    """
    with index.locked():
        if _has_dynamic_state(index):
            raise ValueError(
                "export_columnar requires a physically clean index; "
                "rebalance() first (the delta tier's inner index is "
                "always clean)")
        if not index.partitions:
            raise ValueError("cannot export an unbuilt index")
        header, seeds, matrix = _columnar_export_state(index)
        return {"header": header, "seeds": seeds, "matrix": matrix}


def import_columnar(spec: dict, *, partitioner=None,
                    kernel=None) -> LSHEnsemble:
    """Rebuild an index from :func:`export_columnar` output.

    ``partitioner`` defaults to the :class:`LSHEnsemble` constructor
    default; pass the base index's own ``partitioner`` (and ``kernel``)
    to keep a shipped delta tier on the same strategy as the base index
    it rides on.
    """
    try:
        header = spec["header"]
        keys = list(header["keys"])
        sizes = [int(s) for s in header["sizes"]]
        partitions = [Partition(lo, hi) for lo, hi in header["partitions"]]
        partition_rows = [int(c) for c in header["partition_rows"]]
        partition_max_size = [int(m) for m in header["partition_max_size"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("corrupt columnar spec: %s" % exc) from exc
    if len(keys) != len(sizes):
        raise FormatError("key/size table length mismatch")
    if len(set(keys)) != len(keys):
        raise FormatError("duplicate keys in columnar spec")
    matrix = np.ascontiguousarray(spec["matrix"], dtype=np.uint64)
    matrix.setflags(write=False)
    seeds = np.asarray(spec["seeds"], dtype=np.int64)
    index = _make_ensemble(header, partitioner, kernel)
    with index.locked():
        index._restore_columnar_locked(partitions, keys, sizes, matrix,
                                       seeds, partition_rows,
                                       partition_max_size)
    _restore_recorded_state(index, header)
    return index


# --------------------------------------------------------------------- #
# Dynamic manifest (base + delta + tombstones)
# --------------------------------------------------------------------- #


def _scan_save_generation(root: Path) -> int:
    """Next unused segment save-generation in ``root``."""
    generation = -1
    for existing in root.glob("*.seg"):
        fields = existing.stem.split("-")
        if len(fields) == 2 and fields[1].isdigit():
            generation = max(generation, int(fields[1]))
    return generation + 1


def _save_manifest(index: LSHEnsemble, root: Path) -> None:
    if root.exists() and not root.is_dir():
        # Converting a single-file snapshot in place: stage the whole
        # manifest tree beside it, move the old file aside, and swap.
        # The file->directory conversion cannot be one atomic rename,
        # but no state of the sequence destroys data: a crash in the
        # tiny window between the two renames leaves both the staged
        # tree and the old snapshot (as <name>.pre-manifest) on disk.
        parent = root.parent
        tmp = Path(tempfile.mkdtemp(dir=str(parent) or ".",
                                    prefix=root.name + ".", suffix=".tmpdir"))
        backup = root.with_name(root.name + ".pre-manifest")
        try:
            os.chmod(tmp, 0o777 & ~_process_umask())
            base_name = _write_manifest_tree(index, tmp, 0)
            os.replace(root, backup)
            try:
                os.rename(tmp, root)
            except BaseException:
                os.replace(backup, root)
                raise
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        # The staging path recorded during the tree write died with the
        # rename; repoint at the final segment so later re-saves into
        # this directory can reuse it.
        index._base_source = str((root / base_name).resolve())
        _fsync_dir(parent)
        os.unlink(backup)
        return
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        # Never adopt (and then clean segments out of) a non-empty
        # directory that is not already a dynamic manifest — it could
        # be a ShardedEnsemble snapshot or unrelated data.
        _read_manifest(root)
    _write_manifest_tree(index, root, _scan_save_generation(root))


def _write_manifest_tree(index: LSHEnsemble, root: Path,
                         generation: int) -> str:
    """Write segments + manifest into ``root`` (an existing directory).

    Ordering matters for crash safety: segment files become durable
    directory entries before the manifest can name them, and segments
    the old manifest referenced are deleted only after the replacement
    manifest is durable.  Returns the base segment's name.
    """
    delta_inner = (index._delta.inner_index()
                   if index._delta is not None else None)
    base_name = None
    if index._base_source is not None:
        # Loaded from this very directory and the base tier is still the
        # same immutable segment: reuse it instead of rewriting O(N)
        # signature bytes.
        source = Path(index._base_source)
        try:
            if source.parent.resolve() == root.resolve() \
                    and source.is_file():
                base_name = source.name
        except OSError:
            base_name = None
    if base_name is None:
        base_name = "base-%05d.seg" % generation
        _atomic_write(root / base_name, lambda fh: _save_v2(index, fh))
        index._base_source = str((root / base_name).resolve())
    delta_name = None
    if delta_inner is not None:
        delta_name = "delta-%05d.seg" % generation
        _atomic_write(root / delta_name,
                      lambda fh: _save_v2(delta_inner, fh))
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "generation": index._generation,
        "base": base_name,
        "delta": delta_name,
        "tombstones": [_encode_key(k)
                       for k in sorted(index._tombstones, key=str)],
        # Mutable without a base rewrite, so the (always rewritten)
        # manifest is their authoritative home — a reused base
        # segment's header may hold stale values.
        "auto_rebalance_at": index.auto_rebalance_at,
        "mutation_epoch": index._mutation_epoch,
    }
    payload = json.dumps(manifest, indent=2).encode("utf-8")
    _fsync_dir(root)
    _atomic_write(root / _MANIFEST_NAME, lambda fh: fh.write(payload))
    _fsync_dir(root)
    for stale in root.glob("*.seg"):
        if stale.name not in (base_name, delta_name):
            stale.unlink()
    return base_name


# --------------------------------------------------------------------- #
# Load
# --------------------------------------------------------------------- #


def read_header(path: str | Path) -> dict:
    """The decoded JSON header of a saved index, plus ``"version"``.

    Cheap metadata inspection (``cli info`` uses it to report the
    on-disk format) — no payload bytes are touched.  For a dynamic
    manifest directory the base segment's header is returned, with
    ``"version"`` set to 3 plus ``"generation"``, ``"tombstones"`` (a
    count) and ``"delta_keys"``.
    """
    path = Path(path)
    if path.is_dir():
        manifest = _read_manifest(path)
        try:
            header = read_header(path / manifest["base"])
            delta_name = manifest.get("delta")
            delta_keys = (len(read_header(path / delta_name)["keys"])
                          if delta_name else 0)
        except FileNotFoundError as exc:
            raise FormatError(
                "manifest names segment %s but it is missing"
                % Path(exc.filename).name) from None
        header["version"] = _MANIFEST_VERSION
        header["generation"] = int(manifest.get("generation", 0))
        if "mutation_epoch" in manifest:
            # Manifest wins: a reused base segment's header is stale.
            header["mutation_epoch"] = int(manifest["mutation_epoch"])
        header["tombstones"] = len(manifest.get("tombstones") or [])
        header["delta_keys"] = delta_keys
        return header
    with open(path, "rb") as fh:
        version, header, _ = _read_preamble(fh)
    header["version"] = version
    return header


def _read_manifest(root: Path) -> dict:
    try:
        manifest = json.loads(
            (root / _MANIFEST_NAME).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FormatError(
            "%s is not a saved LSH Ensemble (no %s)"
            % (root, _MANIFEST_NAME)) from None
    except json.JSONDecodeError as exc:
        raise FormatError("corrupt manifest: %s" % exc) from exc
    if isinstance(manifest, dict) and "shards" in manifest:
        raise FormatError(
            "%s holds a saved ShardedEnsemble; load it with "
            "repro.parallel.ShardedEnsemble.load" % root)
    if (not isinstance(manifest, dict)
            or manifest.get("format") != _MANIFEST_FORMAT):
        raise FormatError(
            "unrecognised manifest format %r"
            % (manifest.get("format") if isinstance(manifest, dict)
               else manifest))
    if not isinstance(manifest.get("base"), str):
        raise FormatError("corrupt manifest: missing base segment name")
    return manifest


def _read_preamble(fh) -> tuple[int, dict, int]:
    """(version, header, payload offset) of a single-file snapshot."""
    magic = fh.read(4)
    if magic != _MAGIC:
        raise FormatError("bad magic %r; not an LSH Ensemble file" % magic)
    raw = fh.read(_U32.size)
    if len(raw) != _U32.size:
        raise FormatError("truncated file: missing version field")
    (version,) = _U32.unpack(raw)
    if version == 1:
        raise FormatError(
            "format v1 was retired; rebuild the index with `repro build`")
    if version != _VERSION:
        raise FormatError("unsupported format version %d" % version)
    raw = fh.read(_U32.size)
    if len(raw) != _U32.size:
        raise FormatError("truncated file: missing header length")
    (header_len,) = _U32.unpack(raw)
    header_bytes = fh.read(header_len)
    if len(header_bytes) != header_len:
        raise FormatError("truncated header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError("corrupt header: %s" % exc) from exc
    return version, header, 4 + 2 * _U32.size + header_len


def _resolve_partitioner(header: dict, partitioner):
    """Thread the recorded partitioner through, or fail loudly.

    An explicit load-time override wins.  Otherwise the header names
    the partitioner in the registry (unknown names and unregistered
    customs raise — never silently fall back to the default).
    """
    if partitioner is None:
        name = header.get("partitioner")
        if name is None:
            raise FormatError(
                "index was saved with an unregistered partitioner; pass "
                "partitioner= to load_ensemble (or register the "
                "partitioner before saving)")
        try:
            partitioner = resolve_partitioner(name)
        except KeyError as exc:
            raise FormatError(str(exc)) from exc
    return partitioner


def _make_ensemble(header: dict, partitioner,
                   kernel=None) -> LSHEnsemble:
    kwargs = {}
    if partitioner is not None:
        kwargs["partitioner"] = partitioner
    if header.get("auto_rebalance_at") is not None:
        kwargs["auto_rebalance_at"] = float(header["auto_rebalance_at"])
    return LSHEnsemble(
        threshold=header["threshold"],
        num_perm=header["num_perm"],
        num_partitions=header["num_partitions"],
        num_trees=header["num_trees"],
        max_depth=header["max_depth"],
        kernel=kernel_for_header(header.get("kernel"), kernel),
        bbit=header.get("bbit"),
        **kwargs,
    )


def load_ensemble(path: str | Path, *, partitioner=None, kernel=None,
                  mmap: bool = True) -> LSHEnsemble:
    """Load an index previously written by :func:`save_ensemble`.

    The returned index answers queries identically to the saved one
    (signatures are bit-exact; bucket structures re-derive
    deterministically from them with the saved partition bounds and
    high-water marks).  Snapshots load through one numpy view of the
    signature matrix — ``mmap=True`` (the default) maps it from disk so
    signature pages are only faulted in as queries touch them, and each
    depth's buckets are built the first time a query reaches it.

    Parameters
    ----------
    partitioner:
        Override for the partitioning strategy.  By default the name
        recorded in the header is resolved through the registry; an
        unknown or unrecorded name raises :class:`FormatError` rather
        than silently reverting to the default.
    kernel:
        Hot-loop backend override (name or :class:`~repro.kernels.Kernel`
        instance).  Unlike the partitioner, the header-recorded kernel
        name is advisory: precedence is this argument, then the
        ``REPRO_KERNEL`` environment, then the header name, then the
        default — and an unavailable header name (old files can name
        the retired ``numba`` kernel) falls back silently, because
        every backend is bit-identical.
    mmap:
        Memory-map the signature matrix instead of reading it into
        memory (for a manifest, applies to the base segment — the small
        mutable delta segment is always read into memory).
    """
    path = Path(path)
    if path.is_dir():
        return _load_manifest(path, partitioner, kernel, mmap)
    with open(path, "rb") as fh:
        _, header, offset = _read_preamble(fh)
        return _load_v2(fh, path, header, offset, partitioner, kernel, mmap)


def _load_manifest(root: Path, partitioner, kernel,
                   mmap: bool) -> LSHEnsemble:
    manifest = _read_manifest(root)
    base_path = root / manifest["base"]
    try:
        index = load_ensemble(base_path, partitioner=partitioner,
                              kernel=kernel, mmap=mmap)
    except FileNotFoundError:
        raise FormatError(
            "manifest names base segment %s but it is missing"
            % manifest["base"]) from None
    delta_index = None
    delta_name = manifest.get("delta")
    if delta_name is not None:
        try:
            delta_index = load_ensemble(
                root / delta_name, partitioner=partitioner, kernel=kernel,
                mmap=False)
        except FileNotFoundError:
            raise FormatError(
                "manifest names delta segment %s but it is missing"
                % delta_name) from None
    tombstones = [_decode_key(k)
                  for k in manifest.get("tombstones") or []]
    if len(set(tombstones)) != len(tombstones):
        raise FormatError("duplicate tombstones in manifest")
    missing = [k for k in tombstones if k not in index._rows]
    if missing:
        raise FormatError(
            "tombstone %r does not name a base-tier key" % (missing[0],))
    if delta_index is not None:
        tombstone_set = set(tombstones)
        for key in delta_index._rows:
            if key in index._rows and key not in tombstone_set:
                raise FormatError(
                    "delta key %r is still live in the base tier"
                    % (key,))
    with index.locked():
        index._attach_dynamic_state_locked(
            tombstones, delta_index, int(manifest.get("generation", 0)))
        # The manifest (always rewritten) is authoritative over the
        # base segment's header, which may be a reused file with a
        # stale epoch.
        if "mutation_epoch" in manifest:
            index._mutation_epoch = int(manifest["mutation_epoch"])
    if "auto_rebalance_at" in manifest:
        value = manifest["auto_rebalance_at"]
        if value is not None:
            try:
                value = float(value)
            except (TypeError, ValueError) as exc:
                raise FormatError(
                    "corrupt manifest: bad auto_rebalance_at %r"
                    % (value,)) from exc
            if not 0.0 < value <= 1.0:
                raise FormatError(
                    "corrupt manifest: auto_rebalance_at %r is outside "
                    "(0, 1]" % (value,))
        index.auto_rebalance_at = value
    index._base_source = str(base_path.resolve())
    return index


def _header_entry_tables(header: dict) -> tuple[list, list]:
    keys = [_decode_key(k) for k in header["keys"]]
    sizes = header["sizes"]
    if len(keys) != len(sizes):
        raise FormatError("key/size table length mismatch")
    if len(set(keys)) != len(keys):
        raise FormatError("duplicate keys in header")
    return keys, sizes


def _load_v2(fh, path, header: dict, offset: int, partitioner, kernel,
             mmap: bool) -> LSHEnsemble:
    if header.get("storage", _STORAGE_NAME) != _STORAGE_NAME:
        # Written while the bucket table was pluggable, by a backend
        # this code does not have.
        raise FormatError(
            "unknown storage backend %r; this build has only %r"
            % (header["storage"], _STORAGE_NAME))
    partitioner = _resolve_partitioner(header, partitioner)
    keys, sizes = _header_entry_tables(header)
    partitions = [Partition(lo, hi) for lo, hi in header["partitions"]]
    try:
        partition_rows = [int(c) for c in header["partition_rows"]]
        partition_max_size = [int(m) for m in header["partition_max_size"]]
        seed_dtype = np.dtype(header.get("seed_dtype", "<u4"))
        num_perm = int(header["num_perm"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("corrupt v2 header: %s" % exc) from exc
    n = len(keys)
    if sum(partition_rows) != n:
        raise FormatError(
            "partition_rows sum %d does not match %d entries"
            % (sum(partition_rows), n))
    if any(count < 0 for count in partition_rows):
        raise FormatError("negative partition_rows entry")
    if (len(partition_rows) != len(partitions)
            or len(partition_max_size) != len(partitions)):
        raise FormatError("per-partition table length mismatch")
    seeds_nbytes = n * seed_dtype.itemsize
    matrix_nbytes = n * num_perm * 8
    expected = offset + seeds_nbytes + matrix_nbytes
    actual = os.fstat(fh.fileno()).st_size
    if actual < expected:
        raise FormatError(
            "truncated payload: expected %d bytes, file has %d"
            % (expected, actual))
    if actual > expected:
        raise FormatError(
            "trailing bytes after the signature matrix (%d extra); "
            "the file is corrupt (truncated-then-concatenated or "
            "doubly written)" % (actual - expected))
    if n == 0 and not partitions:
        return _make_ensemble(header, partitioner, kernel)
    if n == 0:
        # A dynamic index whose base tier emptied out entirely (every
        # built key tombstoned away) still carries its partition
        # structure; restore it so the write tiers can be reattached.
        matrix = np.empty((0, num_perm), dtype="<u8")
        seeds = np.empty(0, dtype=np.int64)
    else:
        seeds_raw = fh.read(seeds_nbytes)
        if len(seeds_raw) != seeds_nbytes:
            raise FormatError("truncated seed column")
        seeds = np.frombuffer(seeds_raw, dtype=seed_dtype).astype(np.int64)
        matrix_offset = offset + seeds_nbytes
        if mmap:
            # A plain ndarray view of the mapping: the same pages, but
            # row reads and array ops skip np.memmap's subclass hooks.
            matrix = np.memmap(path, dtype="<u8", mode="r",
                               offset=matrix_offset,
                               shape=(n, num_perm)).view(np.ndarray)
        else:
            payload = fh.read(matrix_nbytes)
            matrix = np.frombuffer(payload,
                                   dtype="<u8").reshape(n, num_perm)
    index = _make_ensemble(header, partitioner, kernel)
    with index.locked():
        index._restore_columnar_locked(partitions, keys, sizes, matrix,
                                       seeds, partition_rows,
                                       partition_max_size)
    _restore_recorded_state(index, header)
    # The file IS the physical base tier: remember it so manifest
    # re-saves and the process-pool executor can hand the same segment
    # around instead of rewriting an identical copy.  Anything that
    # changes the physical base (rebalance, physical routing) clears
    # it; a manifest load overrides it with the base segment's path.
    index._base_source = str(Path(path).resolve())
    return index


# --------------------------------------------------------------------- #
# Snapshot shipping (replica bootstrap over the wire)
# --------------------------------------------------------------------- #

_SNAPSHOT_MAGIC = b"LSHESNAP"
_SNAPSHOT_VERSION = 1


def pack_snapshot_bytes(index) -> bytes:
    """Pack an index's full on-disk state into one byte string.

    This is the payload of the shard-node ``GET /snapshot`` endpoint:
    the index is saved through its normal persistence path (single-file
    v2, dynamic manifest directory, or a sharded cluster directory —
    whichever :func:`save_ensemble` / ``ShardedEnsemble.save`` would
    produce) into a scratch directory, and the resulting file set is
    archived as::

        b"LSHESNAP" + u32 manifest_len + manifest_json + file bytes...

    where the manifest records ``{"version", "kind": "file"|"dir",
    "files": [[relative_path, size], ...]}`` and the file bytes are
    concatenated in manifest order.  :func:`unpack_snapshot` restores
    the identical file set, so a replica loading it answers queries
    bit-identically to the donor.
    """
    with tempfile.TemporaryDirectory(prefix="lshe-snapshot-") as tmp:
        root = Path(tmp) / "index"
        if hasattr(index, "shards") and hasattr(index, "save"):
            index.save(root)          # sharded cluster directory
        else:
            save_ensemble(index, root)  # v2 file or manifest dir
        if root.is_dir():
            kind = "dir"
            paths = sorted(p for p in root.rglob("*") if p.is_file())
            rels = [p.relative_to(root).as_posix() for p in paths]
        else:
            kind = "file"
            paths = [root]
            rels = ["index.lshe"]
        entries = []
        blobs = []
        for rel, p in zip(rels, paths):
            blob = p.read_bytes()
            entries.append([rel, len(blob)])
            blobs.append(blob)
        manifest = json.dumps(
            {"version": _SNAPSHOT_VERSION, "kind": kind,
             "files": entries},
            separators=(",", ":")).encode("utf-8")
        return b"".join([_SNAPSHOT_MAGIC, _U32.pack(len(manifest)),
                         manifest] + blobs)


def unpack_snapshot(data: bytes, dest: str | Path) -> Path:
    """Restore a :func:`pack_snapshot_bytes` archive under ``dest``.

    Returns the path to load the index from: ``dest/index.lshe`` for a
    single-file snapshot, ``dest/index`` (a directory) otherwise —
    feed it to :func:`load_ensemble` / ``ShardedEnsemble.load`` (the
    CLI's serving loader auto-detects which).
    """
    head = len(_SNAPSHOT_MAGIC)
    if data[:head] != _SNAPSHOT_MAGIC:
        raise FormatError("not a snapshot archive (bad magic)")
    if len(data) < head + _U32.size:
        raise FormatError("truncated snapshot header")
    (manifest_len,) = _U32.unpack_from(data, head)
    offset = head + _U32.size
    try:
        manifest = json.loads(data[offset:offset + manifest_len])
    except json.JSONDecodeError as exc:
        raise FormatError("corrupt snapshot manifest: %s" % exc) from exc
    offset += manifest_len
    if manifest.get("version") != _SNAPSHOT_VERSION:
        raise FormatError("unsupported snapshot version %r"
                          % manifest.get("version"))
    kind = manifest.get("kind")
    files = manifest.get("files")
    if kind not in ("file", "dir") or not isinstance(files, list) \
            or not files:
        raise FormatError("corrupt snapshot manifest")
    dest = Path(dest)
    root = dest / ("index.lshe" if kind == "file" else "index")
    if kind == "dir":
        root.mkdir(parents=True, exist_ok=True)
    else:
        dest.mkdir(parents=True, exist_ok=True)
    for entry in files:
        if (not isinstance(entry, list) or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], int) or entry[1] < 0):
            raise FormatError("corrupt snapshot file table")
        rel, size = entry
        parts = Path(rel).parts
        # The manifest names untrusted relative paths; never let one
        # escape the destination directory.
        if Path(rel).is_absolute() or ".." in parts:
            raise FormatError("snapshot path %r escapes the "
                              "destination" % rel)
        blob = data[offset:offset + size]
        if len(blob) != size:
            raise FormatError("truncated snapshot payload at %r" % rel)
        offset += size
        target = root if kind == "file" else root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(blob)
    if offset != len(data):
        raise FormatError("trailing bytes after snapshot payload")
    return root
