"""Dynamic LSH via prefix trees (LSH Forest, Bawa et al. 2005).

Section 5.5 of the paper needs the banding parameters ``(b, r)`` to change
*per query*: the optimal trade-off between false positives and false
negatives depends on the query size ``q`` and threshold ``t*``.  A static
:class:`~repro.lsh.lsh.MinHashLSH` bakes ``(b, r)`` into its buckets, so the
paper instead stores each band as a *prefix tree* over its ``K`` hash
values:

* the effective ``r`` is chosen at query time by how deep each tree is
  traversed (any ``r <= K``), and
* the effective ``b`` by how many trees are visited (any ``b <= B``).

Following the standard hashtable realisation of LSH Forest, each tree keeps
one hash table per depth ``d`` keyed by the length-``d`` prefix of the band,
so a query at ``(b, r)`` is ``b`` exact bucket lookups — no tree walking.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro.kernels import (ProbeIndex, band_dtype, get_kernel, pack_block,
                           pack_row, validate_bbit)
from repro.lsh.storage import DictHashTableStorage
from repro.minhash.batch import (as_lean, as_signature_matrix,
                                 prepare_bulk_insert)
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MinHash

# Batches probing fewer than this many (row, tree) pairs use the plain
# per-tree loop; the numpy prefilter's fixed call cost needs volume to
# amortise.
_MIN_VECTOR_PROBES = 256

__all__ = ["PrefixForest", "default_forest_shape"]


def default_forest_shape(num_perm: int) -> tuple[int, int]:
    """A balanced ``(B, K)`` with ``B * K == num_perm`` and ``K`` near 8.

    With the paper's ``m = 256`` this yields 32 trees of depth 8, giving the
    tuner the grid ``b <= 32, r <= 8``.
    """
    if num_perm < 2:
        raise ValueError("num_perm must be at least 2")
    for depth in (8, 7, 6, 5, 4, 3, 2, 1):
        if num_perm % depth == 0:
            return num_perm // depth, depth
    return num_perm, 1


class PrefixForest:
    """A forest of ``num_trees`` prefix trees of depth ``max_depth``.

    Parameters
    ----------
    num_perm:
        Signature length ``m``; must satisfy ``num_trees * max_depth <= m``.
    num_trees:
        Upper bound ``B`` on the per-query band count ``b``.
    max_depth:
        Upper bound ``K`` on the per-query rows-per-band ``r``.
    kernel:
        Hot-loop backend (a registered name or
        :class:`~repro.kernels.Kernel` instance); defaults to the
        process selection (``REPRO_KERNEL`` env, then ``numpy``).
    bbit:
        b-bit band-key packing: None stores full uint64 lanes (the
        default), 8 or 16 keeps only each hash value's low bits in
        bucket keys — an 8x / 4x memory-bandwidth cut on the probe
        path at the cost of extra candidate collisions (recall can
        only grow; see :mod:`repro.kernels.packing`).
    """

    def __init__(self, num_perm: int = 256, num_trees: int | None = None,
                 max_depth: int | None = None,
                 kernel=None, bbit=None) -> None:
        if num_perm < 2:
            raise ValueError("num_perm must be at least 2")
        if num_trees is None or max_depth is None:
            auto_trees, auto_depth = default_forest_shape(num_perm)
            num_trees = num_trees if num_trees is not None else auto_trees
            max_depth = max_depth if max_depth is not None else auto_depth
        if num_trees <= 0 or max_depth <= 0:
            raise ValueError("num_trees and max_depth must be positive")
        if num_trees * max_depth > num_perm:
            raise ValueError(
                "num_trees * max_depth = %d exceeds num_perm = %d"
                % (num_trees * max_depth, num_perm)
            )
        self.num_perm = int(num_perm)
        self.num_trees = int(num_trees)
        self.max_depth = int(max_depth)
        self._kernel = get_kernel(kernel)
        self.bbit = validate_bbit(bbit)
        # Band bucket keys are packed `_band_dtype` bytes; a depth-d
        # prefix of a band is its first d * itemsize bytes.
        self._band_dtype = band_dtype(self.bbit)
        self._item = self._band_dtype.itemsize
        # _tables[tree][depth-1] maps the length-`depth` prefix of the
        # tree's band to the set of keys stored under it.
        self._tables = [
            [DictHashTableStorage(self._kernel)
             for _ in range(self.max_depth)]
            for _ in range(self.num_trees)
        ]
        self._keys: dict[Hashable, LeanMinHash] = {}
        # Bulk-inserted signature blocks whose bucket tables have not
        # been filled at every depth yet.  Each entry is
        # [keys, matrix, built_depths]: the signatures are queryable via
        # _keys immediately, while depth tables are materialised lazily
        # — a loaded snapshot pays table-fill cost only for the depths
        # its queries actually reach.
        self._pending: list[list] = []
        # Batch-probe index, per query depth r: sorted salted key hashes
        # covering every tree's depth-r table, with aligned bucket views.
        # Lazily built, dropped on any mutation.
        self._probe_cache: dict[int, ProbeIndex] = {}
        self._tree_salts = (
            np.uint64(0x9E3779B97F4A7C15)
            * np.arange(1, self.num_trees + 1, dtype=np.uint64)
        )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def insert(self, key: Hashable, signature: MinHash | LeanMinHash) -> None:
        """Index ``signature`` under ``key`` in every tree at every depth."""
        lean = as_lean(signature)
        if lean.num_perm != self.num_perm:
            raise ValueError(
                "signature num_perm %d does not match forest num_perm %d"
                % (lean.num_perm, self.num_perm)
            )
        if key in self._keys:
            raise ValueError("key %r is already in the forest" % (key,))
        # No need to materialise pending bulk blocks: this key's bucket
        # entries are independent of theirs (set adds commute), so lazy
        # blocks keep filling on demand even on the dynamic-insert path.
        self._keys[key] = lean
        self._probe_cache.clear()
        item = self._item
        for tree in range(self.num_trees):
            start = tree * self.max_depth
            band = pack_row(lean.hashvalues, start, start + self.max_depth,
                            self._band_dtype)
            tables = self._tables[tree]
            for depth in range(1, self.max_depth + 1):
                tables[depth - 1].insert(band[:depth * item], key)

    def insert_batch(self, keys: Sequence[Hashable], batch,
                     seeds=None) -> None:
        """Index many signatures in one vectorised pass.

        Equivalent to ``for key, sig in zip(keys, batch): insert(key,
        sig)`` but with no per-entry Python work: ``batch`` is taken as
        an ``(n, num_perm)`` uint64 matrix (a
        :class:`~repro.minhash.batch.SignatureBatch`, a plain matrix, or
        a sequence of signatures), each tree's band bucket keys for the
        whole block are packed with one ``tobytes`` pass, and the bucket
        tables are filled through their
        :meth:`~repro.lsh.storage.DictHashTableStorage.insert_packed`
        bulk path.

        Table fill is *lazy per depth*: the signatures are immediately
        visible (``__contains__`` / ``get_signature`` / ``remove``), but
        a depth-``r`` table is only materialised the first time a query
        reaches depth ``r`` — which is what makes re-opening a persisted
        snapshot cheap.  When the matrix is read-only (e.g. rows of a
        frozen batch or a memory-mapped snapshot) the stored signatures
        alias it instead of copying.

        ``seeds`` is the signatures' permutation seed: a scalar shared
        by the block, or one value per row.  Defaults to the batch's
        seed for a :class:`SignatureBatch` and to 1 otherwise (matching
        the MinHash default).
        """
        keys, matrix, signatures = prepare_bulk_insert(
            keys, batch, seeds, self.num_perm, self._keys, "forest")
        if not keys:
            return
        self._keys.update(zip(keys, signatures))
        self._pending.append([keys, matrix, set()])
        self._probe_cache.clear()

    def _ensure_depth(self, r: int) -> None:
        """Materialise the depth-``r`` tables of every pending block."""
        if not self._pending:
            return
        filled = False
        for block in self._pending:
            keys, matrix, built = block
            if r in built:
                continue
            stride = r * self._item
            for tree in range(self.num_trees):
                start = tree * self.max_depth
                buf = pack_block(matrix, start, start + r,
                                 self._band_dtype)
                self._tables[tree][r - 1].insert_packed(buf, stride, keys)
            built.add(r)
            filled = True
        if not filled:
            return  # depth already complete: keep the probe cache warm
        # Retire blocks whose every depth is filled: nothing left to
        # materialise, so stop re-scanning them (and drop the extra
        # key-list reference they pin).
        self._pending = [block for block in self._pending
                         if len(block[2]) < self.max_depth]
        self._probe_cache.pop(r, None)

    def materialize(self) -> None:
        """Fill every depth of every pending bulk-inserted block.

        Queries materialise depth tables on demand; call this to pay
        the whole fill cost up front (e.g. to warm a freshly loaded
        snapshot before taking traffic).  ``remove`` also forces it —
        a key deleted from incomplete tables would otherwise reappear
        when its pending block materialises.
        """
        if not self._pending:
            return
        for r in range(1, self.max_depth + 1):
            self._ensure_depth(r)
        self._pending.clear()

    def remove(self, key: Hashable) -> None:
        """Remove ``key`` from every tree and depth."""
        if key not in self._keys:
            raise KeyError(key)
        self.materialize()
        lean = self._keys.pop(key)
        self._probe_cache.clear()
        item = self._item
        for tree in range(self.num_trees):
            start = tree * self.max_depth
            band = pack_row(lean.hashvalues, start, start + self.max_depth,
                            self._band_dtype)
            tables = self._tables[tree]
            for depth in range(1, self.max_depth + 1):
                tables[depth - 1].remove(band[:depth * item], key)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, signature: MinHash | LeanMinHash, b: int, r: int) -> set:
        """Candidates at query-time parameters ``(b, r)``.

        ``b`` trees are consulted; in each, the bucket holding keys that
        agree with the query on the first ``r`` hash values of that tree's
        band is unioned into the result.
        """
        lean = as_lean(signature)
        if lean.num_perm != self.num_perm:
            raise ValueError(
                "signature num_perm %d does not match forest num_perm %d"
                % (lean.num_perm, self.num_perm)
            )
        if not 1 <= b <= self.num_trees:
            raise ValueError(
                "b must be in [1, %d], got %d" % (self.num_trees, b)
            )
        if not 1 <= r <= self.max_depth:
            raise ValueError(
                "r must be in [1, %d], got %d" % (self.max_depth, r)
            )
        self._ensure_depth(r)
        out: set = set()
        for tree in range(b):
            start = tree * self.max_depth
            prefix = pack_row(lean.hashvalues, start, start + r,
                              self._band_dtype)
            # get_view avoids one bucket copy per probe; the union below
            # copies the members into the fresh result set.
            out |= self._tables[tree][r - 1].get_view(prefix)
        return out

    def query_batch(self, batch, b: int, r: int) -> list[set]:
        """:meth:`query` for many signatures at once.

        ``batch`` is a :class:`~repro.minhash.batch.SignatureBatch`, an
        ``(n, num_perm)`` matrix, or a sequence of signatures; the result
        list is aligned with its rows and equals
        ``[self.query(s, b, r) for s in batch]``.  Per tree, the depth-``r``
        prefixes of all rows are packed with one ``tobytes`` pass and
        probed against the tree's depth table in one fused storage call.
        """
        matrix = as_signature_matrix(batch, self.num_perm)
        if not 1 <= b <= self.num_trees:
            raise ValueError(
                "b must be in [1, %d], got %d" % (self.num_trees, b)
            )
        if not 1 <= r <= self.max_depth:
            raise ValueError(
                "r must be in [1, %d], got %d" % (self.max_depth, r)
            )
        n = matrix.shape[0]
        if n == 0:
            return []
        results: list[set] = [set() for _ in range(n)]
        self.query_batch_into(matrix, b, r, results, range(n))
        return results

    def query_batch_into(self, matrix: np.ndarray, b: int, r: int,
                         results: list, rows) -> None:
        """:meth:`query_batch` merging straight into ``results[rows[j]]``.

        The zero-allocation core of the batch path: callers that already
        hold per-query result sets (the ensemble unions over partitions)
        pass them in and no intermediate per-partition sets are built.
        ``matrix`` must be a validated C-contiguous ``(len(rows),
        num_perm)`` slice.

        Large batches go through a forest-wide prefilter: every (row,
        tree) probe is hashed in one vectorised pass and binary-searched
        against the sorted hashes of all stored depth-``r`` prefixes, so
        only probes that actually hit a bucket reach Python code; hits
        are then verified against the real tables, which keeps results
        bit-exact even across 64-bit hash collisions.
        """
        n = matrix.shape[0]
        self._ensure_depth(r)
        kernel = self._kernel
        if kernel.vectorized and n * b >= _MIN_VECTOR_PROBES:
            index = self._probe_index(r)
            if not index.hashes.size:
                return  # no stored prefixes at this depth
            K = self.max_depth
            lanes = matrix[:, :b * K].reshape(n, b, K)[:, :, :r]
            if self.bbit is not None:
                # Truncate to the packed lanes, widened back to
                # uint64 so probe hashing matches the stored keys'.
                lanes = lanes.astype(self._band_dtype).astype(
                    np.uint64)
            probes = kernel.band_hash(lanes,
                                      self._tree_salts[:b]).ravel()
            pos, hits = kernel.probe_hits(index, probes)
            if not hits.size:
                return
            hit_rows = hits // b
            hit_trees = hits - hit_rows * b
            hit_pos = pos[hits]
            # Exact verification, still vectorised: a hash match only
            # counts when the stored entry's tree and prefix lanes
            # equal the probe's (64-bit collisions are dropped here).
            verified = (index.tree_ids[hit_pos] == hit_trees) & (
                index.prefix_lanes[hit_pos]
                == lanes[hit_rows, hit_trees, :]).all(axis=1)
            ver = np.nonzero(verified)[0]
            kernel.merge(results, rows, hit_rows[ver], hit_pos[ver],
                         index)
            if index.ambiguous and ver.size != hits.size:
                # A failed lane check can also mean the probe matched
                # the second entry of a stored-duplicate hash run
                # (searchsorted lands on the first): re-check those
                # probes against the real tables.
                for i in np.nonzero(~verified)[0].tolist():
                    if int(probes[hits[i]]) not in index.ambiguous:
                        continue
                    j = int(hit_rows[i])
                    start = int(hit_trees[i]) * K
                    bucket = self._tables[int(hit_trees[i])][
                        r - 1].get_view(
                        pack_row(matrix[j], start, start + r,
                                 self._band_dtype))
                    if bucket:
                        results[rows[j]] |= bucket
            return
        stride = r * self._item
        for tree in range(b):
            start = tree * self.max_depth
            buf = pack_block(matrix, start, start + r, self._band_dtype)
            self._tables[tree][r - 1].merge_packed(buf, stride, results,
                                                   rows)

    def _probe_index(self, r: int) -> ProbeIndex:
        """The depth-``r`` :class:`~repro.kernels.ProbeIndex`.

        Holds the salted hash of every stored depth-``r`` prefix across
        all trees, sorted, with per-key verification lanes and the live
        bucket views aligned to the sort order (views stay current
        because member mutation happens in place — any bucket-key
        change clears the whole cache).  ``ambiguous`` is the set of
        hash values shared by more than one (tree, prefix) — normally
        empty; probes whose lane check fails there are re-verified
        against the real tables, so results stay bit-exact despite
        64-bit collisions.
        """
        if r in self._probe_cache:
            return self._probe_cache[r]
        kernel = self._kernel
        parts: list[np.ndarray] = []
        lane_parts: list[np.ndarray] = []
        tree_parts: list[np.ndarray] = []
        views: list = []
        for tree in range(self.num_trees):
            table = self._tables[tree][r - 1]
            keys = list(table.keys())
            if not keys:
                continue
            lanes = np.frombuffer(b"".join(keys),
                                  dtype=self._band_dtype).reshape(
                                      len(keys), r)
            if self.bbit is not None:
                lanes = lanes.astype(np.uint64)
            parts.append(kernel.band_hash(lanes,
                                          self._tree_salts[tree]))
            lane_parts.append(lanes)
            tree_parts.append(np.full(len(keys), tree, dtype=np.intp))
            views.extend(table.get_view(k) for k in keys)
        if not parts:
            index = ProbeIndex(np.empty(0, dtype=np.uint64),
                               np.empty(0, dtype=np.intp),
                               np.empty((0, r), dtype=np.uint64), [],
                               frozenset())
            self._probe_cache[r] = index
            return index
        hashes = np.concatenate(parts)
        order = np.argsort(hashes, kind="stable")
        sorted_hashes = hashes[order]
        buckets = [views[i] for i in order.tolist()]
        dup = sorted_hashes[1:] == sorted_hashes[:-1]
        ambiguous = frozenset(sorted_hashes[:-1][dup].tolist())
        index = ProbeIndex(sorted_hashes,
                           np.concatenate(tree_parts)[order],
                           np.concatenate(lane_parts)[order], buckets,
                           ambiguous)
        self._probe_cache[r] = index
        return index

    def get_signature(self, key: Hashable) -> LeanMinHash:
        """The stored signature for ``key`` (KeyError when absent)."""
        return self._keys[key]

    @property
    def kernel(self):
        """The resolved hot-loop kernel backend."""
        return self._kernel

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __contains__(self, key: Hashable) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def is_empty(self) -> bool:
        return not self._keys

    def __repr__(self) -> str:
        return ("PrefixForest(num_perm=%d, num_trees=%d, max_depth=%d, "
                "keys=%d)" % (self.num_perm, self.num_trees, self.max_depth,
                              len(self._keys)))
