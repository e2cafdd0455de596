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

Following the standard hashtable realisation of LSH Forest, each depth
``d`` keeps the buckets of the length-``d`` band prefixes, so a query at
``(b, r)`` is ``b`` exact bucket lookups — no tree walking.  Those
buckets are the one sorted layout of :mod:`repro.forest.layout`, of
which a forest is the one-partition case.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro.forest.layout import BucketLayout
from repro.kernels import band_dtype, get_kernel, validate_bbit
from repro.minhash.batch import (as_lean, as_signature_matrix,
                                 prepare_bulk_insert)
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MinHash

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

    Buckets live in one immutable :class:`~repro.forest.layout.BucketLayout`
    over the stored signatures, built per depth on first use; any
    mutation replaces it with a fresh, unbuilt one.
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
        self._keys: dict[Hashable, LeanMinHash] = {}
        # The signature matrix of the one bulk block the forest holds,
        # while that is all it holds — the layout then indexes it
        # without a copy.
        self._block: np.ndarray | None = None
        self._layout: BucketLayout | None = None

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def insert(self, key: Hashable, signature: MinHash | LeanMinHash) -> None:
        """Index ``signature`` under ``key`` in every tree at every depth."""
        lean = self._checked(signature)
        if key in self._keys:
            raise ValueError("key %r is already in the forest" % (key,))
        self._keys[key] = lean
        self._changed()

    def insert_batch(self, keys: Sequence[Hashable], batch,
                     seeds=None) -> None:
        """Index many signatures in one pass.

        Equivalent to ``for key, sig in zip(keys, batch): insert(key,
        sig)`` with no per-entry bucket work: ``batch`` is taken as an
        ``(n, num_perm)`` uint64 matrix (a
        :class:`~repro.minhash.batch.SignatureBatch`, a plain matrix, or
        a sequence of signatures) and the buckets of each depth are
        built from the whole matrix the first time a query reaches that
        depth (:meth:`materialize` builds them all now).  When the
        matrix is read-only (e.g. rows of a frozen batch or a
        memory-mapped snapshot) the stored signatures alias it instead
        of copying.

        ``seeds`` is the signatures' permutation seed: a scalar shared
        by the block, or one value per row.  Defaults to the batch's
        seed for a :class:`SignatureBatch` and to 1 otherwise (matching
        the MinHash default).
        """
        keys, matrix, signatures = prepare_bulk_insert(
            keys, batch, seeds, self.num_perm, self._keys, "forest")
        if not keys:
            return
        first = not self._keys
        self._keys.update(zip(keys, signatures))
        self._changed()
        if first:
            self._block = matrix

    def remove(self, key: Hashable) -> None:
        """Remove ``key`` from every tree and depth."""
        if key not in self._keys:
            raise KeyError(key)
        del self._keys[key]
        self._changed()

    def _changed(self) -> None:
        self._block = None
        self._layout = None

    def materialize(self) -> None:
        """Build the buckets of every depth now (idempotent).

        Queries build each depth on first use; call this to pay the
        whole cost up front (e.g. to warm a freshly loaded snapshot
        before taking traffic).
        """
        self._current_layout().materialize()

    def _current_layout(self) -> BucketLayout:
        layout = self._layout
        if layout is None:
            matrix = self._block
            if matrix is None:
                matrix = (np.stack([lean.hashvalues
                                    for lean in self._keys.values()])
                          if self._keys else
                          np.empty((0, self.num_perm), dtype=np.uint64))
            layout = self._layout = BucketLayout(
                matrix, list(self._keys), self.num_trees, self.max_depth,
                self._kernel, band_dtype(self.bbit))
        return layout

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, signature: MinHash | LeanMinHash, b: int, r: int) -> set:
        """Candidates at query-time parameters ``(b, r)``.

        ``b`` trees are consulted; in each, the bucket holding keys that
        agree with the query on the first ``r`` hash values of that tree's
        band is unioned into the result.
        """
        lean = self._checked(signature)
        return self.query_batch(lean.hashvalues[None, :], b, r)[0]

    def query_batch(self, batch, b: int, r: int) -> list[set]:
        """:meth:`query` for many signatures at once.

        ``batch`` is a :class:`~repro.minhash.batch.SignatureBatch`, an
        ``(n, num_perm)`` matrix, or a sequence of signatures; the result
        list is aligned with its rows and equals
        ``[self.query(s, b, r) for s in batch]`` — one hash pass, one
        probe and one merge over every (row, tree) of the batch.
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
        results: list[set] = [set() for _ in range(n)]
        if n:
            zeros = np.zeros(n, dtype=np.intp)
            self._current_layout().probe(
                matrix, np.arange(n), zeros, np.full(n, b), np.full(n, r),
                results)
        return results

    def _checked(self, signature) -> LeanMinHash:
        lean = as_lean(signature)
        if lean.num_perm != self.num_perm:
            raise ValueError(
                "signature num_perm %d does not match forest num_perm %d"
                % (lean.num_perm, self.num_perm)
            )
        return lean

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
