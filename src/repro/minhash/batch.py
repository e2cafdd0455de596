"""Signature matrices: many MinHash signatures as one ndarray.

The paper's deployment answers domain-search queries for many users at
once; per-query Python overhead (object construction, per-band tuple
building, attribute lookups) dominates once the index fits in memory.
:class:`SignatureBatch` holds ``n`` signatures as a single
``(n, num_perm)`` uint64 matrix so that the batch query path can

* estimate all ``n`` cardinalities in one vectorised pass
  (:meth:`SignatureBatch.counts`), and
* pack all band bucket-keys of all signatures with one
  ``ndarray.tobytes`` call per band slice (:func:`pack_band_keys`)
  instead of one Python loop iteration per signature.

Row ``j`` of the matrix is bit-identical to
``LeanMinHash(seed, matrix[j]).hashvalues``, which is what pins the batch
path's results to the single-query path: both derive bucket keys from the
same bytes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.minhash.hashfunc import MAX_HASH_32
from repro.minhash.lean import LeanMinHash, _deeply_readonly
from repro.minhash.minhash import HASH_RANGE, MinHash

__all__ = ["SignatureBatch", "pack_band_keys", "as_signature_matrix",
           "as_lean", "as_batch", "prepare_bulk_insert"]


def as_lean(signature: MinHash | LeanMinHash) -> LeanMinHash:
    """Coerce a signature argument to a frozen :class:`LeanMinHash`."""
    if isinstance(signature, LeanMinHash):
        return signature
    if isinstance(signature, MinHash):
        return LeanMinHash(signature)
    raise TypeError(
        "expected MinHash or LeanMinHash, got %r" % type(signature).__name__
    )


def as_batch(batch) -> "SignatureBatch":
    """Coerce a batch argument (a :class:`SignatureBatch`, a 2-D
    matrix, or a sequence of signatures) to a :class:`SignatureBatch`."""
    if isinstance(batch, SignatureBatch):
        return batch
    if isinstance(batch, np.ndarray):
        return SignatureBatch(None, batch)
    return SignatureBatch.from_signatures(list(batch))


def prepare_bulk_insert(keys, batch, seeds, num_perm: int, existing,
                        container_name: str):
    """Prologue of :meth:`PrefixForest.insert_batch
    <repro.forest.prefix_forest.PrefixForest.insert_batch>` (and so of
    :class:`~repro.lsh.lsh.MinHashLSH`): validate and freeze.

    Normalises ``batch`` to an ``(n, num_perm)`` matrix, checks key
    count/duplicates (against ``existing`` too), freezes a writable
    matrix so stored signatures cannot be mutated through the caller's
    array, and wraps every row as a zero-copy :class:`LeanMinHash`.
    :class:`~repro.core.ensemble.LSHEnsemble` does not use it: its base
    tier keeps rows as columns and wraps one only when asked.
    ``seeds`` is a scalar or per-row sequence, defaulting to the batch's
    seed for a :class:`SignatureBatch` and to 1 otherwise (the MinHash
    default).  Returns ``(keys, matrix, signatures)`` with the matrix
    read-only and the signatures row-aligned with ``keys``.
    """
    if isinstance(batch, SignatureBatch) and seeds is None:
        seeds = batch.seed
    matrix = as_signature_matrix(batch, num_perm)
    keys = list(keys)
    if len(keys) != matrix.shape[0]:
        raise ValueError(
            "got %d keys for %d signature rows" % (len(keys),
                                                   matrix.shape[0])
        )
    if not keys:
        return keys, matrix, []
    key_set = set(keys)
    if len(key_set) != len(keys):
        raise ValueError("duplicate keys in batch")
    if existing and not key_set.isdisjoint(existing):
        dup = next(k for k in keys if k in existing)
        raise ValueError(
            "key %r is already in the %s" % (dup, container_name))
    if not _deeply_readonly(matrix):
        matrix = matrix.copy()
        matrix.setflags(write=False)
    if seeds is None:
        seeds = 1
    if np.ndim(seeds) == 0:
        seed = int(seeds)
        signatures = [LeanMinHash.wrap(seed, matrix[i])
                      for i in range(len(keys))]
    else:
        if len(seeds) != len(keys):
            raise ValueError(
                "got %d seeds for %d signature rows"
                % (len(seeds), len(keys))
            )
        signatures = [LeanMinHash.wrap(int(seeds[i]), matrix[i])
                      for i in range(len(keys))]
    return keys, matrix, signatures


def pack_band_keys(matrix: np.ndarray, start: int, stop: int) -> list[bytes]:
    """Bucket keys of one band slice for every row, in one byte-packing pass.

    ``matrix[:, start:stop]`` is copied to a contiguous block and converted
    with a single ``tobytes`` call; the per-row keys are then constant-size
    slices of that buffer.  Row ``j``'s key equals
    ``LeanMinHash(..., matrix[j]).band(start, stop)`` exactly, so batch
    probes hit the same buckets single-signature probes do.
    """
    block = np.ascontiguousarray(matrix[:, start:stop])
    stride = block.shape[1] * block.itemsize
    buf = block.tobytes()
    return [buf[off:off + stride] for off in range(0, len(buf), stride)]


def as_signature_matrix(batch, num_perm: int) -> np.ndarray:
    """Normalise a batch argument to an ``(n, num_perm)`` uint64 matrix.

    Accepts a :class:`SignatureBatch`, a 2-D uint-compatible ndarray, or a
    sequence of :class:`MinHash` / :class:`LeanMinHash` signatures.
    """
    if isinstance(batch, SignatureBatch):
        matrix = batch.matrix
    elif isinstance(batch, np.ndarray):
        matrix = np.ascontiguousarray(batch, dtype=np.uint64)
        if matrix.ndim != 2:
            raise ValueError(
                "signature matrix must be 2-D, got %d-D" % matrix.ndim
            )
    else:
        matrix = SignatureBatch.from_signatures(batch).matrix
    if matrix.shape[0] and matrix.shape[1] != num_perm:
        raise ValueError(
            "batch num_perm %d does not match index num_perm %d"
            % (matrix.shape[1], num_perm)
        )
    return matrix


class SignatureBatch:
    """``n`` frozen MinHash signatures stored as one ``(n, m)`` matrix.

    Parameters
    ----------
    keys:
        One identifier per row (any objects; queries report results in
        this order).  ``None`` uses the row indices ``0..n-1``.
    matrix:
        ``(n, num_perm)`` array of minimum hash values; copied to a
        read-only contiguous uint64 array.
    seed:
        Permutation-family seed shared by all rows (signatures built with
        different seeds are not comparable; the batch stores one).
    """

    __slots__ = ("keys", "matrix", "seed")

    def __init__(self, keys: Sequence | None, matrix: np.ndarray,
                 seed: int = 1) -> None:
        mat = np.ascontiguousarray(matrix, dtype=np.uint64)
        if mat.ndim != 2:
            raise ValueError("matrix must be 2-D, got %d-D" % mat.ndim)
        if mat.shape[1] < 1:
            raise ValueError("matrix must have at least one column")
        if keys is None:
            keys = range(mat.shape[0])
        keys = list(keys)
        if len(keys) != mat.shape[0]:
            raise ValueError(
                "got %d keys for %d signature rows" % (len(keys), mat.shape[0])
            )
        if mat.base is not None or mat is matrix:
            mat = mat.copy()
        mat.setflags(write=False)
        self.keys = keys
        self.matrix = mat
        self.seed = int(seed)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_signatures(cls, signatures: Sequence[MinHash | LeanMinHash],
                        keys: Sequence | None = None) -> "SignatureBatch":
        """Stack individual signatures into a batch (copying their rows)."""
        sigs = list(signatures)
        if not sigs:
            return cls(keys, np.empty((0, 1), dtype=np.uint64))
        first = sigs[0]
        for s in sigs:
            if not isinstance(s, (MinHash, LeanMinHash)):
                raise TypeError(
                    "expected MinHash or LeanMinHash, got %r"
                    % type(s).__name__
                )
            if s.num_perm != first.num_perm:
                raise ValueError(
                    "all signatures in a batch must share num_perm "
                    "(%d vs %d)" % (s.num_perm, first.num_perm)
                )
            if s.seed != first.seed:
                raise ValueError(
                    "all signatures in a batch must share the seed"
                )
        matrix = np.vstack([s.hashvalues for s in sigs])
        return cls(keys, matrix, seed=first.seed)

    # ------------------------------------------------------------------ #
    # Vectorised estimators
    # ------------------------------------------------------------------ #

    def counts(self) -> np.ndarray:
        """Per-row cardinality estimates, one vectorised pass.

        Bit-identical to ``[self[j].count() for j in range(len(self))]``
        (same float64 operations applied row-wise), which keeps the
        batch query path's ``approx(|Q|)`` equal to the single-query one.
        """
        totals = (self.matrix / np.float64(MAX_HASH_32)).sum(axis=1)
        with np.errstate(divide="ignore"):
            est = np.rint(self.matrix.shape[1] / totals - 1.0)
        est = np.where(totals == 0.0, np.float64(HASH_RANGE), est)
        return est.astype(np.int64)

    def band_keys(self, start: int, stop: int) -> list[bytes]:
        """Per-row bucket keys for one band; see :func:`pack_band_keys`."""
        return pack_band_keys(self.matrix, start, stop)

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #

    @property
    def num_perm(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def __getitem__(self, index: int) -> LeanMinHash:
        """Row ``index`` as a :class:`LeanMinHash` aliasing the matrix.

        The matrix is frozen (read-only), so the row can be wrapped
        without a copy — thawing a whole batch into signatures costs no
        signature-payload copies.
        """
        return LeanMinHash.wrap(self.seed, self.matrix[index])

    def __iter__(self):
        for j in range(len(self)):
            yield self[j]

    def take(self, rows: Sequence[int]) -> np.ndarray:
        """The sub-matrix of the given rows (a contiguous copy)."""
        return np.ascontiguousarray(self.matrix[list(rows)])

    def __repr__(self) -> str:
        return "SignatureBatch(n=%d, num_perm=%d, seed=%d)" % (
            len(self), self.num_perm, self.seed)
