"""Classic MinHash LSH (Indyk & Motwani 1998, Section 3.2 of the paper).

The index splits each ``m``-value signature into ``b`` bands of ``r`` rows.
Two domains land in the same bucket of band ``i`` exactly when their
signatures agree on all ``r`` rows of that band, which happens with
probability ``s^r``; over ``b`` bands the candidate probability is
``1 - (1 - s^r)^b`` (Eq. 5).

This class is both a substrate (LSH Ensemble builds per-partition dynamic
variants on the same banding idea) and the paper's *Baseline* when wrapped
with the containment-threshold conversion of Section 5.1.  Its ``b`` bands
of ``r`` rows are a :class:`~repro.forest.prefix_forest.PrefixForest` of
``b`` trees of depth ``r`` queried at ``(b, r)``, so it shares the one
bucket layout of :mod:`repro.forest.layout`.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.forest.prefix_forest import PrefixForest
from repro.lsh.params import optimal_params
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
        # Band i is rows [i * r, (i + 1) * r): exactly tree i of a
        # forest of b trees of depth r, queried at full depth.
        self._forest = PrefixForest(self.num_perm, self.b, self.r,
                                    kernel=kernel, bbit=bbit)
        self.bbit = self._forest.bbit

    @property
    def kernel(self):
        """The resolved hot-loop kernel backend."""
        return self._forest.kernel

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def insert(self, key: Hashable, signature: MinHash | LeanMinHash) -> None:
        """Index ``signature`` under ``key``.

        Keys are unique; re-inserting an existing key raises ``ValueError``
        (remove first), matching the append-only build the paper assumes.
        """
        self._forest.insert(key, signature)

    def insert_batch(self, keys: Sequence[Hashable], batch,
                     seeds=None) -> None:
        """Index many signatures in one pass.

        Equivalent to ``for key, sig in zip(keys, batch): insert(key,
        sig)``; see :meth:`PrefixForest.insert_batch` (the buckets are
        built from the whole matrix on the first query).
        ``seeds`` is a scalar or per-row sequence, defaulting to the
        batch's seed for a :class:`SignatureBatch` and to 1 otherwise.
        When the matrix is read-only the stored signatures alias its
        rows instead of copying them.
        """
        self._forest.insert_batch(keys, batch, seeds)

    def remove(self, key: Hashable) -> None:
        """Remove a key and all its bucket entries."""
        self._forest.remove(key)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, signature: MinHash | LeanMinHash) -> set:
        """Keys whose signatures collide with the query in >= 1 band."""
        return self._forest.query(signature, self.b, self.r)

    def query_batch(self, batch) -> list[set]:
        """:meth:`query` for many signatures at once.

        ``batch`` is a :class:`~repro.minhash.batch.SignatureBatch`, an
        ``(n, num_perm)`` matrix, or a sequence of signatures.  Returns
        one result set per row, in order — exactly
        ``[self.query(s) for s in batch]``.
        """
        return self._forest.query_batch(batch, self.b, self.r)

    def get_signature(self, key: Hashable) -> LeanMinHash:
        """The stored signature for ``key`` (KeyError when absent)."""
        return self._forest.get_signature(key)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __contains__(self, key: Hashable) -> bool:
        return key in self._forest

    def __len__(self) -> int:
        return len(self._forest)

    def is_empty(self) -> bool:
        return self._forest.is_empty()

    def __repr__(self) -> str:
        return ("MinHashLSH(threshold=%.3f, num_perm=%d, b=%d, r=%d, keys=%d)"
                % (self.threshold, self.num_perm, self.b, self.r,
                   len(self._forest)))
