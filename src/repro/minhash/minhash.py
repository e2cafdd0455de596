"""Minwise hashing signatures (Broder 1997), the paper's Section 3.1.

A :class:`MinHash` holds ``m`` minimum hash values, one per random
permutation of the value universe.  Permutations are approximated with the
standard universal-hash family ``h_i(v) = ((a_i * v + b_i) mod p) mod 2^32``
over the Mersenne prime ``p = 2^61 - 1``.

That arithmetic lives in exactly one place, :func:`permuted_minima` below
(with its reduction step :func:`_mod_mersenne_low32`); :meth:`MinHash.update`,
:meth:`MinHash.update_hashvalues_batch` and
:meth:`~repro.minhash.generator.MinHashGenerator.bulk` all call it, so every
construction style yields the same bits.  The kernel never divides: because
``2^61 ≡ 1 (mod p)``, a wrapped uint64 ``x = hi * 2^61 + lo`` satisfies
``x ≡ lo + hi = (x & p) + (x >> 61)``, a value of at most ``p + 7`` that one
conditional subtraction of ``p`` brings into ``[0, p)`` — the fold is exact,
not an approximation of ``%``.  It walks its input in row blocks small enough
for the ``(rows, m)`` working buffers to stay in cache, so working memory is
O(block) however long a domain is.

The estimator properties the rest of the system relies on:

* ``P(hmin_i(X) == hmin_i(Y)) == s(X, Y)`` (Eq. 4) — Jaccard similarity is
  the collision probability, so :meth:`MinHash.jaccard` is unbiased.
* the signature of a union is the element-wise minimum of signatures
  (:meth:`MinHash.merge`), which LSH Ensemble uses to stream domains.
* domain cardinality is estimated from the signature alone
  (:meth:`MinHash.count`, Cohen & Kaplan bottom-k style) — Algorithm 1's
  ``approx(|Q|)``.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.minhash.hashfunc import MAX_HASH_32, hash_value32

__all__ = ["MinHash", "MERSENNE_PRIME", "MAX_HASH", "HASH_RANGE",
           "permuted_minima"]

# The Mersenne prime 2^61 - 1: large enough that (a * h + b) never collides
# modulo p for 32-bit inputs, small enough for exact uint64 arithmetic via
# Python ints / numpy objects. We do the modular arithmetic in uint64 space.
MERSENNE_PRIME = np.uint64((1 << 61) - 1)
MAX_HASH = np.uint64(MAX_HASH_32)
HASH_RANGE = 1 << 32

_DEFAULT_SEED = 1

_SHIFT_61 = np.uint64(61)
_ONE = np.uint64(1)
# Elements of one (rows, m) block of permuted hashes: two 512 KB uint64
# buffers sit inside a per-core L2 with room for the coefficient rows.
_CHUNK_ELEMENTS = 1 << 16


def _mod_mersenne_low32(x: np.ndarray, scratch: np.ndarray) -> None:
    """In place, ``x <- (x mod (2^61 - 1)) & 0xFFFFFFFF`` without dividing.

    ``x`` holds arbitrary (wrapped) uint64 values; ``scratch`` is a buffer
    of the same shape whose contents are overwritten.
    """
    np.right_shift(x, _SHIFT_61, out=scratch)
    np.bitwise_and(x, MERSENNE_PRIME, out=x)
    np.add(x, scratch, out=x)            # y ≡ x (mod p), 0 <= y <= p + 7
    np.add(x, _ONE, out=scratch)
    np.right_shift(scratch, _SHIFT_61, out=scratch)   # 1 iff y >= p
    # The conditional subtract: p ≡ -1 (mod 2^32), so the low 32 bits of
    # y - p are those of y + 1, and the mask below keeps nothing else.
    np.add(x, scratch, out=x)
    np.bitwise_and(x, MAX_HASH, out=x)


def permuted_minima(value_hashes: np.ndarray, starts: np.ndarray,
                    a: np.ndarray, b: np.ndarray, out: np.ndarray,
                    chunk_elements: int | None = None) -> None:
    """Fold the permuted hashes of segmented values into ``out``, in place.

    Row ``j`` of ``out`` becomes the element-wise minimum of itself and of
    ``((h * a + b) mod 2^64 mod p) & MAX_HASH`` over every ``h`` in segment
    ``j`` of ``value_hashes``.

    Parameters
    ----------
    value_hashes:
        Flat uint64 array: the value hashes of all segments, concatenated.
    starts:
        Offset of each segment's first value: strictly increasing (no
        empty segment), ``starts[0] == 0``, signed integer dtype.
    a, b:
        The ``(m,)`` permutation coefficients.
    out:
        ``(len(starts), m)`` uint64 array of running minima.
    chunk_elements:
        Cap on the elements of one permuted block; blocks are cut by rows
        wherever they fall, a segment that straddles two is folded twice.
    """
    n = value_hashes.size
    if n == 0:
        return
    rows = min(n, max(1, int(chunk_elements or _CHUNK_ELEMENTS) // a.size))
    x = np.empty((rows, a.size), dtype=np.uint64)
    scratch = np.empty_like(x)
    los = np.arange(0, n, rows)
    # Segments [first, last) overlap block [lo, lo + rows).
    firsts = starts.searchsorted(los, side="right") - 1
    lasts = starts.searchsorted(los + rows, side="left")
    for lo, first, last in zip(los.tolist(), firsts.tolist(),
                               lasts.tolist()):
        block = value_hashes[lo:lo + rows]
        xb, sb = x[:block.size], scratch[:block.size]
        np.multiply(block[:, np.newaxis], a, out=xb)
        np.add(xb, b, out=xb)
        _mod_mersenne_low32(xb, sb)
        cuts = starts[first:last] - lo
        cuts[0] = 0     # the first segment may have begun in an earlier block
        minima = out[first:last]
        np.minimum(minima, np.minimum.reduceat(xb, cuts, axis=0), out=minima)


def _init_permutations(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (a, b) coefficients of ``num_perm`` universal hash functions."""
    rng = np.random.RandomState(seed)
    # a must be non-zero modulo p.
    a = rng.randint(1, int(MERSENNE_PRIME), size=num_perm, dtype=np.uint64)
    b = rng.randint(0, int(MERSENNE_PRIME), size=num_perm, dtype=np.uint64)
    return a, b


class MinHash:
    """A MinHash signature of a domain.

    Parameters
    ----------
    num_perm:
        Number of minwise hash functions ``m`` (the paper uses 256).
    seed:
        Seed for the permutation family.  Signatures are only comparable
        when built with the same ``num_perm`` and ``seed``.
    hashfunc:
        Maps a domain value to a 32-bit integer.  Defaults to SHA1-based
        hashing of the canonicalised value.
    hashvalues:
        Pre-computed signature array (used internally by copy/deserialise).
    """

    __slots__ = ("seed", "num_perm", "hashvalues", "_a", "_b", "hashfunc")

    # Cache of permutation coefficient arrays, keyed by (seed, num_perm):
    # building them dominates MinHash() construction cost otherwise.
    _perm_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def __init__(
        self,
        num_perm: int = 256,
        seed: int = _DEFAULT_SEED,
        hashfunc=hash_value32,
        hashvalues: np.ndarray | None = None,
    ) -> None:
        if num_perm <= 0:
            raise ValueError("num_perm must be positive, got %d" % num_perm)
        if num_perm > HASH_RANGE:
            raise ValueError("num_perm cannot exceed the hash range")
        if not callable(hashfunc):
            raise TypeError("hashfunc must be callable")
        self.seed = int(seed)
        self.num_perm = int(num_perm)
        self.hashfunc = hashfunc
        if hashvalues is not None:
            hashvalues = np.asarray(hashvalues, dtype=np.uint64)
            if hashvalues.shape != (num_perm,):
                raise ValueError(
                    "hashvalues has shape %s, expected (%d,)"
                    % (hashvalues.shape, num_perm)
                )
            self.hashvalues = hashvalues.copy()
        else:
            self.hashvalues = np.full(num_perm, MAX_HASH, dtype=np.uint64)
        key = (self.seed, self.num_perm)
        if key not in MinHash._perm_cache:
            MinHash._perm_cache[key] = _init_permutations(num_perm, self.seed)
        self._a, self._b = MinHash._perm_cache[key]

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def update(self, value: object) -> None:
        """Fold one domain value into the signature."""
        self.update_hashvalues_batch([self.hashfunc(value)])

    def update_batch(self, values: Iterable[object]) -> None:
        """Fold many domain values into the signature (vectorised).

        One permutation pass over an ``(n,)`` array of value hashes updates
        all ``m`` hash functions at once.
        """
        self.update_hashvalues_batch(np.fromiter(
            (self.hashfunc(v) for v in values), dtype=np.uint64, count=-1
        ))

    def update_hashvalues_batch(self, value_hashes: np.ndarray) -> None:
        """Fold pre-hashed 32-bit values into the signature.

        Splitting value hashing from permutation lets the corpus pipeline
        hash each distinct value once and reuse it across signatures.
        """
        permuted_minima(np.asarray(value_hashes, dtype=np.uint64),
                        np.zeros(1, dtype=np.intp), self._a, self._b,
                        self.hashvalues[np.newaxis, :])

    # ------------------------------------------------------------------ #
    # Estimators
    # ------------------------------------------------------------------ #

    def jaccard(self, other: "MinHash") -> float:
        """Unbiased estimate of the Jaccard similarity with ``other`` (Eq. 4)."""
        self._check_compatible(other)
        return float(
            np.count_nonzero(self.hashvalues == other.hashvalues)
        ) / self.num_perm

    def count(self) -> int:
        """Estimate the domain cardinality from the signature alone.

        This is Algorithm 1's ``approx(|Q|)``: with ``m`` minimum values of
        uniform hashes on ``[0, 1)``, ``m / mean(h) - 1`` is a consistent
        estimator of the number of distinct values (Cohen & Kaplan 2007).
        """
        total = np.sum(self.hashvalues / np.float64(int(MAX_HASH)))
        if total == 0:
            # Degenerate: every minimum collapsed to 0; the domain is huge.
            return HASH_RANGE
        return int(round(self.num_perm / float(total) - 1.0))

    def is_empty(self) -> bool:
        """True when no value has been folded in yet."""
        return bool(np.all(self.hashvalues == MAX_HASH))

    # ------------------------------------------------------------------ #
    # Set algebra
    # ------------------------------------------------------------------ #

    def merge(self, other: "MinHash") -> None:
        """In-place union: after the call this signature represents X ∪ Y."""
        self._check_compatible(other)
        np.minimum(self.hashvalues, other.hashvalues, out=self.hashvalues)

    @classmethod
    def union(cls, *minhashes: "MinHash") -> "MinHash":
        """Signature of the union of two or more domains."""
        if len(minhashes) < 2:
            raise ValueError("union requires at least two MinHash objects")
        first = minhashes[0]
        for other in minhashes[1:]:
            first._check_compatible(other)
        hv = np.minimum.reduce([m.hashvalues for m in minhashes])
        return cls(
            num_perm=first.num_perm,
            seed=first.seed,
            hashfunc=first.hashfunc,
            hashvalues=hv,
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_values(
        cls,
        values: Iterable[object],
        num_perm: int = 256,
        seed: int = _DEFAULT_SEED,
        hashfunc=hash_value32,
    ) -> "MinHash":
        """Build a signature from an iterable of domain values."""
        m = cls(num_perm=num_perm, seed=seed, hashfunc=hashfunc)
        m.update_batch(values)
        return m

    def copy(self) -> "MinHash":
        """Deep copy (signature array is duplicated)."""
        return MinHash(
            num_perm=self.num_perm,
            seed=self.seed,
            hashfunc=self.hashfunc,
            hashvalues=self.hashvalues,
        )

    # ------------------------------------------------------------------ #
    # Dunder plumbing
    # ------------------------------------------------------------------ #

    def _check_compatible(self, other: "MinHash") -> None:
        if not isinstance(other, MinHash):
            raise TypeError("expected a MinHash, got %r" % type(other).__name__)
        if self.seed != other.seed:
            raise ValueError("cannot compare MinHash with different seeds")
        if self.num_perm != other.num_perm:
            raise ValueError(
                "cannot compare MinHash with different num_perm "
                "(%d vs %d)" % (self.num_perm, other.num_perm)
            )

    def __len__(self) -> int:
        return self.num_perm

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MinHash):
            return NotImplemented
        return (
            self.seed == other.seed
            and self.num_perm == other.num_perm
            and bool(np.array_equal(self.hashvalues, other.hashvalues))
        )

    def __repr__(self) -> str:
        return "MinHash(num_perm=%d, seed=%d)" % (self.num_perm, self.seed)
