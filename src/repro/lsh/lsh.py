"""Classic MinHash LSH (Indyk & Motwani 1998, Section 3.2 of the paper).

The index splits each ``m``-value signature into ``b`` bands of ``r`` rows.
Two domains land in the same bucket of band ``i`` exactly when their
signatures agree on all ``r`` rows of that band, which happens with
probability ``s^r``; over ``b`` bands the candidate probability is
``1 - (1 - s^r)^b`` (Eq. 5).

This class is both a substrate (LSH Ensemble builds per-partition dynamic
variants on the same banding idea) and the paper's *Baseline* when wrapped
with the containment-threshold conversion of Section 5.1.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.kernels import band_dtype, get_kernel, pack_block, pack_row, \
    validate_bbit
from repro.lsh.params import optimal_params
from repro.lsh.storage import DictHashTableStorage
from repro.minhash.batch import (as_lean, as_signature_matrix,
                                 prepare_bulk_insert)
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MinHash

__all__ = ["MinHashLSH"]


class MinHashLSH:
    """A static-threshold MinHash LSH index.

    Parameters
    ----------
    threshold:
        Jaccard similarity threshold ``s*`` the index is tuned for.
    num_perm:
        Signature length; inserted/queried signatures must match.
    params:
        Optional explicit ``(b, r)``; overrides threshold-based tuning.
    fp_weight, fn_weight:
        Penalty weights handed to the tuner (ignored when ``params`` given).
    kernel:
        Hot-loop backend name or instance (see :mod:`repro.kernels`);
        defaults to the process selection (``REPRO_KERNEL``, then
        ``numpy``).
    bbit:
        b-bit band-key packing (None / 8 / 16); narrower bucket keys
        trade extra candidate collisions for memory bandwidth.
    """

    def __init__(self, threshold: float = 0.9, num_perm: int = 256,
                 params: tuple[int, int] | None = None,
                 fp_weight: float = 0.5, fn_weight: float = 0.5,
                 kernel=None, bbit=None) -> None:
        if num_perm < 2:
            raise ValueError("num_perm must be at least 2")
        self.num_perm = int(num_perm)
        self.threshold = float(threshold)
        if params is not None:
            b, r = params
            if b <= 0:
                raise ValueError("b must be positive, got %d" % b)
            if b * r > num_perm:
                raise ValueError(
                    "b * r = %d exceeds num_perm = %d" % (b * r, num_perm)
                )
        else:
            b, r = optimal_params(self.threshold, self.num_perm,
                                  fp_weight, fn_weight)
        self.b = int(b)
        self.r = int(r)
        self._kernel = get_kernel(kernel)
        self.bbit = validate_bbit(bbit)
        self._band_dtype = band_dtype(self.bbit)
        # One hash table per band, b tables total.
        self._tables = [DictHashTableStorage(self._kernel)
                        for _ in range(self.b)]
        self._keys: dict[Hashable, LeanMinHash] = {}

    @property
    def kernel(self):
        """The resolved hot-loop kernel backend."""
        return self._kernel

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def insert(self, key: Hashable, signature: MinHash | LeanMinHash) -> None:
        """Index ``signature`` under ``key``.

        Keys are unique; re-inserting an existing key raises ``ValueError``
        (remove first), matching the append-only build the paper assumes.
        """
        lean = as_lean(signature)
        if lean.num_perm != self.num_perm:
            raise ValueError(
                "signature num_perm %d does not match index num_perm %d"
                % (lean.num_perm, self.num_perm)
            )
        if key in self._keys:
            raise ValueError("key %r is already in the index" % (key,))
        self._keys[key] = lean
        for i in range(self.b):
            band = pack_row(lean.hashvalues, i * self.r, (i + 1) * self.r,
                            self._band_dtype)
            self._tables[i].insert(band, key)

    def insert_batch(self, keys: Sequence[Hashable], batch,
                     seeds=None) -> None:
        """Index many signatures in one vectorised pass.

        Equivalent to ``for key, sig in zip(keys, batch): insert(key,
        sig)``: per band, the bucket keys of the whole block are packed
        with one ``tobytes`` pass and filed through the table's bulk
        :meth:`~repro.lsh.storage.DictHashTableStorage.insert_packed`
        path.
        ``seeds`` is a scalar or per-row sequence, defaulting to the
        batch's seed for a :class:`SignatureBatch` and to 1 otherwise.
        When the matrix is read-only the stored signatures alias its
        rows instead of copying them.
        """
        keys, matrix, signatures = prepare_bulk_insert(
            keys, batch, seeds, self.num_perm, self._keys, "index")
        if not keys:
            return
        self._keys.update(zip(keys, signatures))
        stride = self.r * self._band_dtype.itemsize
        for i in range(self.b):
            buf = pack_block(matrix, i * self.r, (i + 1) * self.r,
                             self._band_dtype)
            self._tables[i].insert_packed(buf, stride, keys)

    def remove(self, key: Hashable) -> None:
        """Remove a key and all its bucket entries."""
        lean = self._keys.pop(key, None)
        if lean is None:
            raise KeyError(key)
        for i in range(self.b):
            band = pack_row(lean.hashvalues, i * self.r, (i + 1) * self.r,
                            self._band_dtype)
            self._tables[i].remove(band, key)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, signature: MinHash | LeanMinHash) -> set:
        """Keys whose signatures collide with the query in >= 1 band."""
        lean = as_lean(signature)
        if lean.num_perm != self.num_perm:
            raise ValueError(
                "signature num_perm %d does not match index num_perm %d"
                % (lean.num_perm, self.num_perm)
            )
        out: set = set()
        for i in range(self.b):
            band = pack_row(lean.hashvalues, i * self.r, (i + 1) * self.r,
                            self._band_dtype)
            out |= self._tables[i].get_view(band)
        return out

    def query_batch(self, batch) -> list[set]:
        """:meth:`query` for many signatures at once, band by band.

        ``batch`` is a :class:`~repro.minhash.batch.SignatureBatch`, an
        ``(n, num_perm)`` matrix, or a sequence of signatures.  Returns
        one result set per row, in order — exactly
        ``[self.query(s) for s in batch]``, but all bucket keys of a band
        are packed with one ``tobytes`` pass and probed against that
        band's table in one fused storage call (which vectorises large
        probes behind a sorted-hash prefilter).
        """
        matrix = as_signature_matrix(batch, self.num_perm)
        n = matrix.shape[0]
        if n == 0:
            return []
        results: list[set] = [set() for _ in range(n)]
        rows = range(n)
        stride = self.r * self._band_dtype.itemsize
        for i in range(self.b):
            buf = pack_block(matrix, i * self.r, (i + 1) * self.r,
                             self._band_dtype)
            self._tables[i].merge_packed(buf, stride, results, rows)
        return results

    def get_signature(self, key: Hashable) -> LeanMinHash:
        """The stored signature for ``key`` (KeyError when absent)."""
        return self._keys[key]

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
        return ("MinHashLSH(threshold=%.3f, num_perm=%d, b=%d, r=%d, keys=%d)"
                % (self.threshold, self.num_perm, self.b, self.r,
                   len(self._keys)))
