"""Asymmetric Minwise Hashing containment index — the paper's "Asym" baseline.

Every indexed signature is padded to the corpus maximum size ``M``
(:mod:`repro.asym.padding`); queries stay unpadded.  Per the experimental
setup in Section 6.1, the index then uses the *same* dynamic-LSH machinery
as LSH Ensemble — one prefix forest, with ``(b, r)`` tuned per query
against the containment objective with upper bound ``M`` — so accuracy
differences against the ensemble isolate the padding-vs-partitioning
design choice rather than implementation details.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.asym.padding import pad_signature
from repro.core.tuning import tune_params_quantized
from repro.forest.prefix_forest import PrefixForest, default_forest_shape
from repro.minhash.batch import as_lean
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MinHash

__all__ = ["AsymmetricMinHashLSH"]


class AsymmetricMinHashLSH:
    """Containment search via signature padding plus dynamic LSH.

    Parameters mirror :class:`~repro.core.ensemble.LSHEnsemble` where they
    overlap; the index has no partitions — padding plays that role.
    """

    def __init__(self, threshold: float = 0.8, num_perm: int = 256,
                 num_trees: int | None = None, max_depth: int | None = None,
                 pad_seed: int = 7) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if num_perm < 2:
            raise ValueError("num_perm must be at least 2")
        self.threshold = float(threshold)
        self.num_perm = int(num_perm)
        if num_trees is None or max_depth is None:
            auto_trees, auto_depth = default_forest_shape(num_perm)
            num_trees = num_trees if num_trees is not None else auto_trees
            max_depth = max_depth if max_depth is not None else auto_depth
        self.num_trees = int(num_trees)
        self.max_depth = int(max_depth)
        self.pad_seed = int(pad_seed)
        self._forest: PrefixForest | None = None
        self._sizes: dict[Hashable, int] = {}
        self._max_size = 0

    def index(self, entries: Iterable[tuple[Hashable, MinHash | LeanMinHash,
                                            int]]) -> None:
        """Bulk-build: find ``M``, pad every signature to it, insert.

        Padding needs ``M`` up front, so unlike the ensemble this index
        cannot accept post-build insertions of domains larger than ``M``
        without a rebuild — an inherent cost of the asymmetric transform.
        """
        if self._forest is not None:
            raise RuntimeError("index() may only be called on an empty index")
        staged = [(key, as_lean(sig), int(size)) for key, sig, size in
                  entries]
        if not staged:
            raise ValueError("cannot index an empty collection of domains")
        if min(size for _, __, size in staged) < 1:
            raise ValueError("all domain sizes must be >= 1")
        self._max_size = max(size for _, __, size in staged)
        self._forest = PrefixForest(self.num_perm, self.num_trees,
                                    self.max_depth)
        for key, lean, size in staged:
            if key in self._sizes:
                raise ValueError("key %r is already in the index" % (key,))
            padded = pad_signature(lean, size, self._max_size, key,
                                   self.pad_seed)
            self._forest.insert(key, padded)
            self._sizes[key] = size

    def query(self, signature: MinHash | LeanMinHash,
              size: int | None = None,
              threshold: float | None = None) -> set:
        """Candidate keys for containment ``>= t*`` of the query.

        ``(b, r)`` is tuned with the corpus maximum ``M`` as the size upper
        bound (every padded domain "has" size ``M``), the asymmetric
        analogue of the ensemble's per-partition ``u_i``.
        """
        if self._forest is None:
            raise RuntimeError("the index is empty; call index() first")
        lean = as_lean(signature)
        t_star = self.threshold if threshold is None else float(threshold)
        if not 0.0 <= t_star <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        q = int(size) if size is not None else max(1, lean.count())
        if q < 1:
            raise ValueError("query size must be >= 1")
        tuning = tune_params_quantized(self._max_size, q, t_star,
                                       self.num_trees, self.max_depth,
                                       self.num_perm)
        return self._forest.query(lean, tuning.b, tuning.r)

    @property
    def max_size(self) -> int:
        """The padding target ``M`` (0 before :meth:`index`)."""
        return self._max_size

    def __contains__(self, key: Hashable) -> bool:
        return key in self._sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def __repr__(self) -> str:
        return ("AsymmetricMinHashLSH(threshold=%.2f, num_perm=%d, M=%d, "
                "keys=%d)" % (self.threshold, self.num_perm, self._max_size,
                              len(self._sizes)))
