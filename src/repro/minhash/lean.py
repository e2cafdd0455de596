"""Frozen, compact MinHash signatures.

At index-build time LSH Ensemble holds one signature per domain — hundreds
of millions in the paper's WDC experiment.  :class:`LeanMinHash` drops the
permutation coefficients and the per-instance hash function, keeping only
the ``(seed, hashvalues)`` pair, which makes it

* ~8 bytes x ``m`` of payload,
* hashable (usable as a dict key / dedup key),
* cheaply serialisable to bytes (:meth:`serialize` / :meth:`deserialize`).

A LeanMinHash supports the read-only half of the :class:`MinHash` API
(jaccard, count, band slicing) but not updates.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.minhash.hashfunc import MAX_HASH_32
from repro.minhash.minhash import HASH_RANGE, MinHash

__all__ = ["LeanMinHash"]


def _deeply_readonly(array) -> bool:
    """True when no array in ``array``'s base chain is writable.

    A read-only *view* of a writable array is not frozen — the caller
    can still mutate the storage through the base — so zero-copy
    aliasing is only safe when the whole chain is read-only (owning
    read-only arrays, read-only memmaps, frombuffer-over-bytes, and
    views thereof; non-array bases like ``mmap`` objects end the walk).
    """
    node = array
    while node is not None:
        flags = getattr(node, "flags", None)
        if flags is not None and flags.writeable:
            return False
        node = getattr(node, "base", None)
    return True


class LeanMinHash:
    """Immutable MinHash signature: just the seed and the hash values."""

    __slots__ = ("seed", "hashvalues", "_hash")

    def __init__(self, minhash: MinHash | None = None, *,
                 seed: int | None = None,
                 hashvalues: np.ndarray | None = None) -> None:
        if minhash is not None:
            seed = minhash.seed
            hashvalues = minhash.hashvalues
        if seed is None or hashvalues is None:
            raise ValueError(
                "provide either a MinHash or both seed and hashvalues"
            )
        self.seed = int(seed)
        hv = np.asarray(hashvalues, dtype=np.uint64)
        hv = hv.copy()
        hv.setflags(write=False)
        self.hashvalues = hv
        self._hash: int | None = None

    @classmethod
    def wrap(cls, seed: int, hashvalues: np.ndarray) -> "LeanMinHash":
        """Wrap an existing read-only uint64 row without copying it.

        The zero-copy construction path used by the bulk-build and
        persistence machinery: rows of a frozen
        :class:`~repro.minhash.batch.SignatureBatch` matrix (or of a
        memory-mapped snapshot) become signatures that alias the matrix
        storage.  ``hashvalues`` must already be a non-writable 1-D
        uint64 array; anything else falls back to the copying
        constructor so immutability is never violated.
        """
        if (not isinstance(hashvalues, np.ndarray)
                or hashvalues.dtype != np.uint64
                or hashvalues.ndim != 1
                or not _deeply_readonly(hashvalues)):
            return cls(seed=seed, hashvalues=hashvalues)
        obj = object.__new__(cls)
        obj.seed = int(seed)
        obj.hashvalues = hashvalues
        obj._hash = None
        return obj

    # ------------------------------------------------------------------ #
    # Read-only estimator API (mirrors MinHash)
    # ------------------------------------------------------------------ #

    @property
    def num_perm(self) -> int:
        return int(self.hashvalues.shape[0])

    def jaccard(self, other: "LeanMinHash | MinHash") -> float:
        """Unbiased Jaccard similarity estimate against another signature."""
        self._check_compatible(other)
        return float(
            np.count_nonzero(self.hashvalues == other.hashvalues)
        ) / self.num_perm

    def count(self) -> int:
        """Cardinality estimate; see :meth:`MinHash.count`."""
        total = np.sum(self.hashvalues / np.float64(MAX_HASH_32))
        if total == 0:
            return HASH_RANGE
        return int(round(self.num_perm / float(total) - 1.0))

    def band(self, start: int, stop: int) -> bytes:
        """The hash values of one LSH band, packed to hashable bytes.

        One ``ndarray.tobytes`` call per probe — faster to build and hash
        than a tuple of Python ints, and prefix-sliceable: the first
        ``d * itemsize`` bytes equal ``band(start, start + d)``, the
        depth-``d`` prefix of a prefix-forest tree.
        :func:`repro.minhash.batch.pack_band_keys` produces the same
        bytes for whole signature matrices in one call.
        """
        return self.hashvalues[start:stop].tobytes()

    def to_minhash(self, hashfunc=None) -> MinHash:
        """Thaw back into a mutable :class:`MinHash`."""
        from repro.minhash.hashfunc import hash_value32

        return MinHash(
            num_perm=self.num_perm,
            seed=self.seed,
            hashfunc=hashfunc or hash_value32,
            hashvalues=self.hashvalues,
        )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #

    _HEADER = struct.Struct("<qi")

    def serialize(self) -> bytes:
        """Pack to bytes: little-endian seed, num_perm, then the values."""
        return self._HEADER.pack(self.seed, self.num_perm) + self.hashvalues.tobytes()

    @classmethod
    def deserialize(cls, buf: bytes) -> "LeanMinHash":
        """Inverse of :meth:`serialize`."""
        seed, num_perm = cls._HEADER.unpack_from(buf, 0)
        hv = np.frombuffer(buf, dtype=np.uint64, count=num_perm,
                           offset=cls._HEADER.size)
        return cls(seed=seed, hashvalues=hv)

    # ------------------------------------------------------------------ #
    # Dunder plumbing
    # ------------------------------------------------------------------ #

    def _check_compatible(self, other: "LeanMinHash | MinHash") -> None:
        if self.seed != other.seed:
            raise ValueError("cannot compare signatures with different seeds")
        if self.num_perm != other.num_perm:
            raise ValueError("cannot compare signatures with different num_perm")

    def __len__(self) -> int:
        return self.num_perm

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LeanMinHash):
            return NotImplemented
        return self.seed == other.seed and bool(
            np.array_equal(self.hashvalues, other.hashvalues)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.seed, self.hashvalues.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return "LeanMinHash(num_perm=%d, seed=%d)" % (self.num_perm, self.seed)
