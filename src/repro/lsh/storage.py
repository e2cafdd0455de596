"""Bucket storage for LSH indexes.

LSH maps a band of a signature to a bucket key and appends the domain key to
that bucket.  The paper keeps one hash table per (tree, depth) of each
partition's LSH Forest (Sections 5.5 and 6); :class:`DictHashTableStorage`
is that table, and the index classes hold lists of them directly.

Batched probes dispatch through the kernel registry
(:mod:`repro.kernels`): a vectorised kernel answers ``merge_packed``
with one hash pass and one binary search over the whole batch, while the
``python`` reference kernel keeps the plain dict loop.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence

import numpy as np

from repro.kernels import SortedHashes, get_kernel, lanes_from_bytes

__all__ = ["DictHashTableStorage"]

# Tables smaller than this answer packed probes with plain dict lookups;
# building the sorted hash index only pays off once it is amortised over
# enough buckets.  Likewise for batches with fewer probes than
# _MIN_VECTOR_PROBES, where numpy call overhead exceeds the dict loop.
_MIN_VECTOR_KEYS = 64
_MIN_VECTOR_PROBES = 32


class DictHashTableStorage:
    """In-memory dict-of-sets multimap from bucket key to domain keys.

    Batched probes (:meth:`merge_packed`) are answered through a lazily
    built sorted-key index: all bucket keys packed into one numpy void
    array, binary-searched for the whole batch in a single
    ``np.searchsorted`` call, so only *hits* are touched by Python code.
    The index is invalidated by any bucket-key mutation and rebuilt on
    the next batch probe.

    ``kernel`` is the owning index's :class:`repro.kernels.Kernel`; None
    resolves the process default lazily at probe time.
    """

    __slots__ = ("_table", "_packed", "_kernel")

    def __init__(self, kernel=None) -> None:
        self._table: dict[Hashable, set] = {}
        # (stride, sorted_hash_index) or (stride, None) when keys are
        # not uniform `stride`-byte strings.
        self._packed: tuple[int, object | None] | None = None
        self._kernel = kernel

    def insert(self, bucket_key: Hashable, key: Hashable) -> None:
        bucket = self._table.get(bucket_key)
        if bucket is None:
            self._table[bucket_key] = {key}
            self._packed = None  # new bucket key: probe index is stale
        else:
            bucket.add(key)

    def get(self, bucket_key: Hashable) -> frozenset:
        bucket = self._table.get(bucket_key)
        return frozenset(bucket) if bucket else frozenset()

    _EMPTY: frozenset = frozenset()

    def get_view(self, bucket_key: Hashable):
        """Read-only view of a bucket for the query hot path.

        Unlike :meth:`get`, the returned collection may alias internal
        state and MUST NOT be mutated or retained across mutations of the
        storage; it exists to avoid one copy per bucket probe.
        """
        return self._table.get(bucket_key) or DictHashTableStorage._EMPTY

    def merge_packed(self, buf: bytes, stride: int, results: Sequence[set],
                     rows: Sequence[int]) -> None:
        """Union packed-key buckets directly into the caller's result sets.

        ``buf`` is the concatenation of ``len(rows)`` bucket keys of
        ``stride`` bytes each — one ``ndarray.tobytes`` call over a band
        slice of a signature matrix (the vectorised byte-packing the
        batch query path is built on).  The bucket of the ``i``-th key is
        unioned into ``results[rows[i]]``.  This fuses key slicing, the
        bucket lookup, and the merge into one loop per band — the
        innermost loop of the batch query path.
        """
        kernel = self._kernel or get_kernel(None)
        n = len(buf) // stride if stride else 0
        index = (self._packed_index(stride, kernel)
                 if kernel.vectorized and n >= _MIN_VECTOR_PROBES
                 else None)
        if index is None:
            # The reference path (and the `python` kernel's only path):
            # one slice + dict lookup + set union per probe.
            get = self._table.get
            for j, off in zip(rows, range(0, len(buf), stride)):
                bucket = get(buf[off:off + stride])
                if bucket:
                    results[j] |= bucket
            return
        # Vectorised prefilter: hash every probe key, probe the stored-key
        # hash index, and fall through to real dict lookups only for rows
        # whose hash matched (hash collisions are filtered by the lookup
        # itself, so results stay exact).
        probes = kernel.band_hash(lanes_from_bytes(buf, n, stride))
        _, hits = kernel.probe_hits(index, probes)
        get = self._table.get
        for i in hits.tolist():
            off = i * stride
            bucket = get(buf[off:off + stride])
            if bucket:
                results[rows[i]] |= bucket

    def _packed_index(self, stride: int, kernel):
        """Sorted hashes of all ``stride``-byte bucket keys, or None.

        None means "use dict lookups": the table is small, or its keys
        are not uniform ``stride``-length byte strings (generic keys are
        allowed; only the packed-bytes layout used by the LSH band
        tables vectorises).  b-bit packed keys (stride not
        a multiple of 8) are hashed through their widened byte lanes —
        see :func:`repro.kernels.lanes_from_bytes`.
        """
        cached = self._packed
        if cached is not None and cached[0] == stride:
            return cached[1]
        table = self._table
        if len(table) < _MIN_VECTOR_KEYS:
            return None
        keys = table.keys()
        if not all(isinstance(k, bytes) and len(k) == stride for k in keys):
            self._packed = (stride, None)
            return None
        lanes = lanes_from_bytes(b"".join(keys), len(table), stride)
        index = SortedHashes(np.sort(kernel.band_hash(lanes)))
        self._packed = (stride, index)
        return index

    def insert_packed(self, buf: bytes, stride: int,
                      keys: Sequence[Hashable]) -> None:
        """Bulk-insert packed bucket keys: the write-side twin of
        :meth:`merge_packed`.

        ``buf`` concatenates ``len(keys)`` bucket keys of ``stride``
        bytes each (one ``ndarray.tobytes`` pass over a band slice of a
        signature matrix); ``keys[i]`` is filed under
        ``buf[i * stride : (i + 1) * stride]``.
        """
        # The bulk-build hot loop: same effect as a loop over insert(),
        # but with the dict access inlined so each (bucket key, member)
        # pair costs one slice, one lookup, and one set update.
        table = self._table
        off = 0
        for key in keys:
            bucket_key = buf[off:off + stride]
            bucket = table.get(bucket_key)
            if bucket is None:
                table[bucket_key] = {key}
            else:
                bucket.add(key)
            off += stride
        self._packed = None  # new bucket keys: probe index is stale

    def remove(self, bucket_key: Hashable, key: Hashable) -> None:
        bucket = self._table.get(bucket_key)
        if bucket is None:
            return
        bucket.discard(key)
        if not bucket:
            del self._table[bucket_key]
            self._packed = None  # bucket key disappeared: index is stale

    def __len__(self) -> int:
        return len(self._table)

    def keys(self) -> Iterator[Hashable]:
        return iter(self._table)

    def bucket_sizes(self) -> list[int]:
        """Sizes of all buckets (diagnostics: collision profile)."""
        return [len(b) for b in self._table.values()]
