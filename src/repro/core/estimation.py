"""Containment estimation from signatures alone.

The index returns *candidates*; ranking or verifying them normally needs
the raw value sets.  When only signatures are available (the common case
at web scale — shipping 262M raw domains is exactly what the paper is
avoiding), containment can still be estimated by inverting Eq. 6:

    t̂(Q, X) = (x/q + 1) · ŝ / (1 + ŝ)

with ŝ the MinHash Jaccard estimate and ``q``, ``x`` the (known or
estimated) cardinalities.  :func:`rank_candidates` scores a whole pool
in one vectorised pass (stacked rows, one equal-lane count, Eq. 6 with
an array ``x``), bit-identical to :func:`estimate_containment` per
candidate.  This powers the top-k search extension
(:meth:`repro.core.ensemble.LSHEnsemble.query_top_k`) and lets
pipelines rank candidates without fetching any data.
"""

from __future__ import annotations

import numpy as np

from repro.core.containment import jaccard_to_containment
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MinHash

__all__ = ["estimate_containment", "rank_candidates"]


def estimate_containment(query_signature: MinHash | LeanMinHash,
                         candidate_signature: MinHash | LeanMinHash,
                         query_size: int | None = None,
                         candidate_size: int | None = None) -> float:
    """Estimate ``t(Q, X)`` from two signatures.

    Sizes default to the signatures' own cardinality estimates.  The
    result is clipped to ``[0, 1]`` (the raw transform can exceed 1 when
    the Jaccard estimate is noisy and ``x > q``).
    """
    q = query_size if query_size is not None else max(
        1, query_signature.count())
    x = candidate_size if candidate_size is not None else max(
        1, candidate_signature.count())
    if q < 1 or x < 1:
        raise ValueError("sizes must be >= 1")
    s = query_signature.jaccard(candidate_signature)
    t = jaccard_to_containment(s, float(x), float(q))
    return min(1.0, max(0.0, float(t)))


def rank_candidates(query_signature: MinHash | LeanMinHash,
                    candidates: dict,
                    query_size: int | None = None,
                    sizes: dict | None = None,
                    ) -> list[tuple[object, float]]:
    """Rank candidate keys by estimated containment, descending.

    Parameters
    ----------
    query_signature:
        MinHash of the query domain.
    candidates:
        Mapping of candidate key -> signature.
    query_size:
        ``|Q|`` if known.
    sizes:
        Optional mapping of candidate key -> exact size; missing entries
        fall back to the signature's own estimate.

    Scores and errors equal :func:`estimate_containment`'s per
    candidate.  Ties break on the key's string form so the order is
    deterministic.
    """
    if not candidates:
        return []
    sizes = sizes or {}
    q = query_size if query_size is not None else max(
        1, query_signature.count())
    xs = []
    for key, signature in candidates.items():
        x = sizes.get(key)
        x = x if x is not None else max(1, signature.count())
        # estimate_containment's checks, in its order (the query's own
        # compatibility check is the one jaccard() runs).
        if q < 1 or x < 1:
            raise ValueError("sizes must be >= 1")
        query_signature._check_compatible(signature)
        xs.append(x)
    rows = np.stack([sig.hashvalues for sig in candidates.values()])
    s = np.count_nonzero(rows == query_signature.hashvalues,
                         axis=1) / query_signature.num_perm
    t = jaccard_to_containment(s, np.asarray(xs, dtype=np.float64),
                               float(q))
    scored = list(zip(candidates, np.clip(t, 0.0, 1.0).tolist()))
    scored.sort(key=lambda pair: (-pair[1], str(pair[0])))
    return scored
