"""The one bucket layout: sorted per-depth arrays built from a signature matrix.

The paper answers a query at ``(b, r)`` with ``b`` exact bucket lookups
in each partition's LSH Forest (Section 5.5).  Here every bucket of an
index at one depth ``r`` — all partitions, all trees — lives in one
:class:`~repro.kernels.ProbeIndex` built straight from the signature
matrix: one band-hash pass over every (row, tree) prefix, one stable
argsort, and CSR member lists of int32 row ids (the contiguous sorted
buckets Teixeira et al. use for cache reasons, PAPERS.md).  Nothing
else stores buckets: :class:`~repro.core.ensemble.LSHEnsemble` builds
one :class:`BucketLayout` over its partition-major matrix,
:class:`~repro.forest.prefix_forest.PrefixForest` is the one-partition
case, and :class:`~repro.lsh.lsh.MinHashLSH` is a forest queried at
its fixed ``(b, r)``.

The trees of every partition are numbered consecutively — *slots*,
``partition * num_trees + tree`` — and each slot salts its band hash,
so one sorted array serves all partitions.  A layout is immutable:
depths are built lazily, the first time a probe reaches them (a
re-opened snapshot pays only for the depths its queries use), the
matrix is never copied (a memory-mapped snapshot stays mapped), and a
changed index is a new layout.

Exact under 64-bit collisions: the build orders buckets by (hash, slot,
prefix), so buckets sharing a hash sit in one contiguous run.  Every
hash match is verified against its bucket's slot and prefix lanes, and
a probe whose check fails on the first bucket of a shared hash scans
the rest of the run.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import ProbeIndex

__all__ = ["BucketLayout", "key_column"]

_SALT = np.uint64(0x9E3779B97F4A7C15)


def key_column(keys) -> np.ndarray:
    """``keys`` as a 1-D object array (tuples stay whole elements)."""
    if isinstance(keys, np.ndarray) and keys.dtype == object:
        return keys
    return np.fromiter(keys, dtype=object, count=len(keys))


def _salts(slots: np.ndarray) -> np.ndarray:
    """The band-hash salt of every slot."""
    return _SALT * (slots.astype(np.uint64) + np.uint64(1))


class BucketLayout:
    """Lazily built per-depth bucket arrays over one signature matrix.

    Parameters
    ----------
    matrix:
        ``(n, num_perm)`` uint64 signature rows, partition-major.
    keys:
        The ``n`` row keys.
    num_trees, max_depth:
        Forest shape ``(B, K)``: tree ``t`` of a row is its columns
        ``t * K .. t * K + K - 1``, and a depth-``r`` bucket key is the
        first ``r`` of them.
    kernel:
        The :class:`~repro.kernels.Kernel` every build and probe runs
        its band-hash / probe / merge ops through.
    dtype:
        Band-key lane dtype (``repro.kernels.band_dtype``): uint64, or
        uint8 / uint16 for b-bit packing.
    partition_rows:
        Rows per partition, in matrix order; one partition when omitted.

    The member lists of all depths share one ``(max_depth, n *
    num_trees)`` row-id array (depth ``r`` fills row ``r - 1`` when
    built) and one offsets array indexing it, so a probe that spans
    several depths merges all of its hits in one kernel call.
    """

    __slots__ = ("matrix", "keys", "partition_rows", "num_trees",
                 "max_depth", "kernel", "dtype", "_depths", "_members",
                 "_offsets", "_merged")

    def __init__(self, matrix: np.ndarray, keys, num_trees: int,
                 max_depth: int, kernel, dtype: np.dtype,
                 partition_rows=None) -> None:
        self.matrix = matrix
        self.keys = key_column(keys)
        self.partition_rows = ((len(self.keys),) if partition_rows is None
                               else tuple(int(c) for c in partition_rows))
        self.num_trees = num_trees
        self.max_depth = max_depth
        self.kernel = kernel
        self.dtype = dtype
        self._depths: dict[int, ProbeIndex] = {}
        # Allocated (not touched) on the first build.
        self._members: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        self._merged: ProbeIndex | None = None

    @property
    def built_depths(self) -> tuple[int, ...]:
        """The depths whose buckets exist so far, ascending."""
        return tuple(sorted(self._depths))

    def depth(self, r: int) -> ProbeIndex:
        """The depth-``r`` buckets, built on first use."""
        index = self._depths.get(r)
        if index is None:
            index = self._depths[r] = self._build(r)
        return index

    def materialize(self) -> None:
        """Build every depth now (idempotent)."""
        for r in range(1, self.max_depth + 1):
            self.depth(r)

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #

    def _build(self, r: int) -> ProbeIndex:
        n, t = self.keys.size, self.num_trees
        size = n * t
        if self._members is None:
            self._members = np.empty((self.max_depth, size), dtype=np.int32)
            self._offsets = np.empty((self.max_depth, size + 1),
                                     dtype=np.int64)
            empty = np.empty(0, dtype=np.uint64)
            self._merged = ProbeIndex.from_columns(
                empty, empty, empty,
                (self._members.reshape(-1), self._offsets.reshape(-1),
                 self.keys), frozenset())
        # Entry e = row * t + tree: the depth-r prefix of one tree of
        # one row (a view of the matrix when num_perm == t * max_depth).
        prefixes = self.matrix[:, :t * self.max_depth].reshape(
            n * t, self.max_depth)[:, :r]
        if self.dtype.itemsize != 8:
            prefixes = prefixes.astype(self.dtype)
        first_slots = np.repeat(np.arange(len(self.partition_rows)) * t,
                                self.partition_rows)
        slots = (first_slots[:, None] + np.arange(t)).ravel()
        hashes = self.kernel.band_hash(
            prefixes.astype(np.uint64, copy=False), _salts(slots))

        def grouped(order):
            """Hashes, slots and prefixes in ``order``, and whether each
            entry starts a new bucket key there."""
            h, s, p = hashes[order], slots[order], prefixes[order]
            new = np.ones(size, dtype=bool)
            new[1:] = (h[1:] != h[:-1]) | (s[1:] != s[:-1]) | (
                p[1:] != p[:-1]).any(axis=1)
            return h, s, p, new

        order = np.argsort(hashes, kind="stable")
        h, s, p, new = grouped(order)
        if (new[1:] & (h[1:] == h[:-1])).any():
            # A 64-bit collision: order by (hash, slot, prefix) so every
            # bucket is one contiguous stretch of its hash's run.
            order = np.lexsort(tuple(prefixes[:, c]
                                     for c in range(r - 1, -1, -1))
                               + (slots, hashes))
            h, s, p, new = grouped(order)
        starts = np.flatnonzero(new)
        bucket_hashes = h[starts]
        shared = bucket_hashes[1:] == bucket_hashes[:-1]
        # Depth r's members are row r - 1 of the shared arrays; its
        # offsets point into the flattened row-id array.
        members, offsets = self._members[r - 1], self._offsets[r - 1]
        members[:] = order // t
        offsets[:starts.size] = starts + (r - 1) * size
        offsets[starts.size] = r * size
        return ProbeIndex.from_columns(
            bucket_hashes, s[starts], p[starts],
            (self._members.reshape(-1), offsets[:starts.size + 1],
             self.keys),
            frozenset(bucket_hashes[1:][shared].tolist()))

    # ------------------------------------------------------------------ #
    # Probe
    # ------------------------------------------------------------------ #

    def probe(self, queries: np.ndarray, rows: np.ndarray,
              first_slots: np.ndarray, bs: np.ndarray, rs: np.ndarray,
              results: list) -> None:
        """Union every plan item's candidates into ``results``.

        Item ``i`` looks up query row ``rows[i]`` at ``(bs[i], rs[i])``
        over slots ``first_slots[i] .. first_slots[i] + bs[i] - 1`` and
        unions the hit buckets into ``results[rows[i]]``.  The items
        expand to one probe per (item, tree) in one pass; each distinct
        depth is then one hash pass, one probe and one verify, however
        many rows and partitions the plan spans, and every verified hit
        of every depth is merged in one kernel call.
        """
        t, k = self.num_trees, self.max_depth
        kernel = self.kernel
        order = np.argsort(rs, kind="stable")
        b = bs[order]
        item = np.repeat(order, b)
        tree = np.arange(item.size) - np.repeat(np.cumsum(b) - b, b)
        probe_rows = rows[item]
        slots = first_slots[item] + tree
        lanes = queries[:, :t * k].reshape(len(queries), t, k)[
            probe_rows, tree]
        if self.dtype.itemsize != 8:
            lanes = lanes.astype(self.dtype)
        wide = lanes.astype(np.uint64, copy=False)
        salts = _salts(slots)
        size = self.keys.size * t
        hit_rows, hit_pos = [], []
        lo = 0
        for r, count in enumerate(np.bincount(
                rs, weights=bs, minlength=k + 1).astype(np.intp).tolist()):
            if not count:
                continue
            hi = lo + count
            index = self.depth(r)
            if index.hashes.size:
                hashes = kernel.band_hash(wide[lo:hi, :r], salts[lo:hi])
                pos, hits = kernel.probe_hits(index, hashes)
                if hits.size:
                    at = pos[hits]
                    sel = hits + lo
                    ok = (index.tree_ids[at] == slots[sel]) & (
                        index.prefix_lanes[at] == lanes[sel, :r]).all(axis=1)
                    if index.ambiguous and not ok.all():
                        at, ok = _scan_runs(index, at, ok, hashes[hits],
                                            slots[sel], lanes[sel, :r])
                    hit_rows.append(probe_rows[sel[ok]])
                    hit_pos.append(at[ok] + (r - 1) * (size + 1))
            lo = hi
        if hit_rows:
            kernel.merge(results, range(len(results)),
                         np.concatenate(hit_rows), np.concatenate(hit_pos),
                         self._merged)


def _scan_runs(index: ProbeIndex, at: np.ndarray, ok: np.ndarray,
               hashes: np.ndarray, slots: np.ndarray,
               prefixes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re-verify failed hits along their hash's run of buckets.

    ``at[i]`` is the first bucket with hit ``i``'s hash; a failed hit
    steps through the following buckets while they share the hash and
    stops at the one whose slot and prefix match, if any.  Returns the
    corrected ``(at, ok)``.
    """
    at, ok = at.copy(), ok.copy()
    todo = np.flatnonzero(~ok)
    cur = at[todo]
    size = index.hashes.size
    while todo.size:
        cur = cur + 1
        alive = cur < size
        todo, cur = todo[alive], cur[alive]
        alive = index.hashes[cur] == hashes[todo]
        todo, cur = todo[alive], cur[alive]
        match = (index.tree_ids[cur] == slots[todo]) & (
            index.prefix_lanes[cur] == prefixes[todo]).all(axis=1)
        at[todo[match]] = cur[match]
        ok[todo[match]] = True
        todo, cur = todo[~match], cur[~match]
    return at, ok
