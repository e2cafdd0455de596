"""Bulk signature construction and synthetic signature sampling.

Three distinct jobs live here:

* :class:`SignatureFactory` builds real signatures for a corpus of domains,
  hashing every *distinct* value once and re-using the 32-bit value hash
  across domains.  Open-data corpora share values heavily (province names,
  years, ...), so the cache removes most SHA1 work.

* :class:`MinHashGenerator` extends the factory with :meth:`~MinHashGenerator.bulk`,
  which hands the value hashes of *many* domains, as one flat array, to
  :func:`repro.minhash.minhash.permuted_minima` and returns a
  :class:`~repro.minhash.batch.SignatureBatch` — the input of the batch
  query path.  No permutation arithmetic lives in this module: the
  kernel in ``minhash.py`` is the one place it is written (division-free,
  exact because ``2^61 ≡ 1 mod 2^61 - 1``, cache-blocked; see there).

* :func:`sample_signatures` draws *synthetic* signatures for domains of a
  given size without materialising any values.  For a random domain of size
  ``x``, each minwise hash value is the minimum of ``x`` i.i.d. uniform
  draws on ``[0, max_hash]``; its exact law is ``H * (1 - U^(1/x))`` with
  ``U ~ Uniform(0, 1)``.  This is what makes the paper's 262-million-domain
  scale experiment (Figure 9 / Table 4) reproducible on one machine: the
  timing-relevant code path (LSH insertion and querying over signatures) is
  identical, only the upstream value hashing is skipped.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from itertools import chain

import numpy as np

from repro.minhash.batch import SignatureBatch
from repro.minhash.hashfunc import MAX_HASH_32, hash_value32
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MAX_HASH, MinHash, permuted_minima

__all__ = ["SignatureFactory", "MinHashGenerator", "build_signatures",
           "bulk_signatures", "sample_signatures"]


class SignatureFactory:
    """Builds MinHash signatures for many domains with a shared value cache.

    Parameters
    ----------
    num_perm:
        Signature length ``m``.
    seed:
        Permutation seed; all signatures from one factory are comparable.
    hashfunc:
        Value-to-32-bit hash.  Defaults to SHA1-based hashing.
    """

    def __init__(self, num_perm: int = 256, seed: int = 1,
                 hashfunc=hash_value32) -> None:
        self.num_perm = int(num_perm)
        self.seed = int(seed)
        self.hashfunc = hashfunc
        self._value_hash_cache: dict[object, int] = {}

    def _hash_values(self, values: Iterable[object]) -> list[int]:
        cache = self._value_hash_cache
        if not isinstance(values, Collection):
            values = list(values)   # one-shot iterator: misses are revisited
        # Hits cost one C-level pass; only misses are visited in Python.
        hashes = list(map(cache.get, values))
        if None in hashes:
            for i, v in enumerate(values):
                if hashes[i] is None:
                    hashes[i] = cache[v] = self.hashfunc(v)
        return hashes

    def minhash(self, values: Iterable[object]) -> MinHash:
        """Signature of one domain as a mutable :class:`MinHash`."""
        m = MinHash(num_perm=self.num_perm, seed=self.seed,
                    hashfunc=self.hashfunc)
        m.update_hashvalues_batch(self._hash_values(values))
        return m

    def lean(self, values: Iterable[object]) -> LeanMinHash:
        """Signature of one domain as a frozen :class:`LeanMinHash`."""
        return LeanMinHash(self.minhash(values))

    def build(self, domains: Mapping[object, Iterable[object]]
              ) -> dict[object, LeanMinHash]:
        """Signatures for a whole corpus, keyed like ``domains``."""
        return {key: self.lean(values) for key, values in domains.items()}

    def cache_size(self) -> int:
        """Number of distinct values hashed so far."""
        return len(self._value_hash_cache)


class MinHashGenerator(SignatureFactory):
    """A :class:`SignatureFactory` with a vectorised many-domains path.

    :meth:`bulk` produces bit-identical hash values to building one
    :class:`~repro.minhash.minhash.MinHash` per domain (both run the one
    kernel, :func:`~repro.minhash.minhash.permuted_minima`, here over a
    concatenation of all domains' value hashes min-reduced per domain),
    so callers may mix the two construction styles freely.
    """

    def bulk(self, domains, keys: Sequence | None = None,
             chunk_elements: int | None = None) -> SignatureBatch:
        """Signatures for many domains as one :class:`SignatureBatch`.

        Parameters
        ----------
        domains:
            Either a mapping ``{key: values}`` or an iterable of
            ``values`` collections (then ``keys`` labels them, defaulting
            to their positions).
        keys:
            Explicit row keys when ``domains`` is not a mapping.
        chunk_elements:
            Cap on the elements of the permuted-hash block of one numpy
            pass, and so on working memory: blocks are cut inside
            domains, a domain longer than a block is folded block by
            block (testing/tuning knob; the default keeps a block in
            cache).
        """
        if isinstance(domains, Mapping):
            if keys is not None:
                raise ValueError("keys must not be given with a mapping")
            keys = list(domains.keys())
            value_sets: list = [domains[k] for k in keys]
        else:
            value_sets = list(domains)
            keys = list(keys) if keys is not None else list(
                range(len(value_sets)))
            if len(keys) != len(value_sets):
                raise ValueError(
                    "got %d keys for %d domains"
                    % (len(keys), len(value_sets))
                )
        hashed = [self._hash_values(values) for values in value_sets]
        sizes = np.fromiter(map(len, hashed), dtype=np.intp,
                            count=len(hashed))
        matrix = np.full((len(hashed), self.num_perm), MAX_HASH,
                         dtype=np.uint64)
        # Empty domains keep the all-MAX_HASH row, exactly like an
        # un-updated MinHash; the kernel sees the others back to back.
        nonempty = np.flatnonzero(sizes)
        starts = np.zeros(nonempty.size, dtype=np.intp)
        np.cumsum(sizes[nonempty[:-1]], out=starts[1:])
        flat = np.fromiter(chain.from_iterable(hashed), dtype=np.uint64,
                           count=int(sizes.sum()))
        minima = matrix[nonempty]
        permuted_minima(flat, starts, *self._permutations(), minima,
                        chunk_elements)
        matrix[nonempty] = minima
        return SignatureBatch(keys, matrix, seed=self.seed)

    def _permutations(self) -> tuple[np.ndarray, np.ndarray]:
        """The shared (a, b) coefficient arrays for (seed, num_perm)."""
        key = (self.seed, self.num_perm)
        perms = MinHash._perm_cache.get(key)
        if perms is None:
            # Constructing one MinHash populates the shared cache, which
            # guarantees bulk() and MinHash() agree on coefficients.
            probe = MinHash(num_perm=self.num_perm, seed=self.seed,
                            hashfunc=self.hashfunc)
            perms = probe._a, probe._b
        return perms


def build_signatures(domains: Mapping[object, Iterable[object]],
                     num_perm: int = 256, seed: int = 1,
                     ) -> dict[object, LeanMinHash]:
    """One-shot corpus signature build; see :class:`SignatureFactory`."""
    return SignatureFactory(num_perm=num_perm, seed=seed).build(domains)


def bulk_signatures(domains: Mapping[object, Iterable[object]],
                    num_perm: int = 256, seed: int = 1) -> SignatureBatch:
    """One-shot vectorised batch build; see :meth:`MinHashGenerator.bulk`."""
    return MinHashGenerator(num_perm=num_perm, seed=seed).bulk(domains)


def sample_signatures(sizes: Sequence[int], num_perm: int = 256,
                      seed: int = 1, rng: np.random.Generator | None = None,
                      ) -> list[LeanMinHash]:
    """Draw synthetic signatures for random domains of the given sizes.

    Each returned signature is distributed exactly like the MinHash of a
    domain whose ``sizes[i]`` values were drawn fresh from the hash range:
    the minimum of ``x`` uniforms has CDF ``1 - (1 - v)^x``, sampled by
    inverse transform as ``1 - U^(1/x)``.

    Parameters
    ----------
    sizes:
        Domain cardinalities; every entry must be >= 1.
    num_perm, seed:
        Signature shape; ``seed`` only tags compatibility (synthetic
        signatures have no permutation coefficients to agree on).
    rng:
        Source of randomness (defaults to ``default_rng(seed)``).
    """
    sizes_arr = np.asarray(sizes, dtype=np.float64)
    if sizes_arr.ndim != 1:
        raise ValueError("sizes must be one-dimensional")
    if sizes_arr.size and sizes_arr.min() < 1:
        raise ValueError("all domain sizes must be >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    out: list[LeanMinHash] = []
    # Chunk so the (chunk, m) uniform matrix stays cache-friendly.
    chunk = max(1, int(4_000_000 // max(num_perm, 1)))
    for lo in range(0, sizes_arr.size, chunk):
        xs = sizes_arr[lo:lo + chunk]
        u = rng.random((xs.size, num_perm))
        # min of x uniforms on [0, 1]: 1 - U^(1/x), then scale to hash range.
        mins = 1.0 - np.power(u, 1.0 / xs[:, np.newaxis])
        hvs = (mins * MAX_HASH_32).astype(np.uint64)
        for row in hvs:
            out.append(LeanMinHash(seed=seed, hashvalues=row))
    return out
