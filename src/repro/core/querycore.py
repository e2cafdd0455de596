"""The one query core: ``query_batch`` is the only read primitive.

The paper has exactly one search procedure — Algorithm 1,
Partitioned-Containment-Search — with top-k named as complementary to
it (Section 2) and the multi-node deployment being a union over nodes
(Section 6.3).  Every index-shaped class in this repo (flat,
process-pooled, shard executor, router) therefore supplies just two
hooks to :class:`QuerySurface`:

* ``query_batch(batch, sizes, threshold)`` — *probe rows at a
  threshold*: one candidate set per signature row;
* ``signatures_for(keys)`` — *fetch* ``(signatures, sizes)`` for the
  keys it holds (absent keys are silently missing);

and inherits the other three entry points: ``query`` is a one-row
``query_batch``, ``query_top_k`` a one-row ``query_top_k_batch``, and
``query_top_k_batch`` the shared driver :func:`top_k_batch`.  This
module holds the only copies of the batch + sizes normalisation (and
its error messages), the top-k argument validation, the ladder
constants, the per-row ladder and the rank step.
"""

from __future__ import annotations

import contextlib
from collections.abc import Hashable, Sequence

from repro.core.estimation import rank_candidates
from repro.minhash.batch import SignatureBatch, as_batch, as_lean

__all__ = ["QuerySurface", "normalise_queries", "top_k_batch"]

# The top-k search's descending threshold ladder: probe at START, step
# down by STEP until k candidates accumulate (or min_threshold).  Every
# topology walks these same rungs — their bit-exact parity with the
# flat index is structural, not a matter of keeping copies in sync.
TOPK_LADDER_START = 0.95
TOPK_LADDER_STEP = 0.15


def normalise_queries(batch, sizes: Sequence[int] | None,
                      ) -> tuple[SignatureBatch, list[int]]:
    """A batch argument and its optional sizes as ``(batch, sizes)``.

    Missing sizes are estimated from the signature matrix (the
    vectorised ``approx(|Q|)`` of Algorithm 1, bit-identical to the
    per-signature estimate).
    """
    sb = as_batch(batch)
    if sizes is None:
        return sb, [max(1, int(c)) for c in sb.counts()]
    qs = [int(s) for s in sizes]
    if len(qs) != len(sb):
        raise ValueError("got %d sizes for %d signatures"
                         % (len(qs), len(sb)))
    if any(q < 1 for q in qs):
        raise ValueError("query size must be >= 1")
    return sb, qs


def _ladder_candidates_batch(probe_rows, n: int, k: int,
                             min_threshold: float) -> list[set]:
    """Per-row ladder candidates; each rung answers only the rows that
    still need candidates.

    ``probe_rows(rows, threshold) -> list[set]`` aligned with ``rows``.
    Row ``j`` stops descending once it holds ``k`` candidates or the
    ``min_threshold`` floor rung has been probed, so the expensive
    early rungs are shared by the whole batch.
    """
    candidates: list[set] = [set() for _ in range(n)]
    active = list(range(n))
    threshold = TOPK_LADDER_START
    while active:
        found = probe_rows(active, threshold)
        still_active = []
        for j, hits in zip(active, found):
            candidates[j] |= hits
            if len(candidates[j]) < k and threshold > min_threshold:
                still_active.append(j)
        active = still_active
        threshold = max(min_threshold, threshold - TOPK_LADDER_STEP)
    return candidates


def top_k_batch(probe, fetch, batch, k: int,
                sizes: Sequence[int] | None = None,
                min_threshold: float = 0.05,
                ) -> list[list[tuple[Hashable, float]]]:
    """The top-k driver every topology shares.

    ``probe(batch, sizes, threshold) -> list[set]`` answers one ladder
    rung; ``fetch(keys) -> (signatures, sizes)`` resolves candidates.
    Walks the per-row ladder over ``probe``, fetches the union of all
    rows' candidates in **one** ``fetch`` call, then ranks each row by
    signature-estimated containment (Eq. 6 inverted) and keeps the
    best ``k``.  A candidate ``fetch`` could not resolve is left
    unranked — callers that must not tolerate that (the router's
    strict mode) check inside their ``fetch``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < min_threshold <= 1.0:
        raise ValueError("min_threshold must be in (0, 1]")
    sb, qs = normalise_queries(batch, sizes)
    n = len(sb)
    if n == 0:
        return []
    candidates = _ladder_candidates_batch(
        lambda rows, threshold: probe(
            SignatureBatch(None, sb.take(rows), seed=sb.seed),
            [qs[j] for j in rows], threshold),
        n, k, min_threshold)
    pool, pool_sizes = fetch(set().union(*candidates))
    return [
        rank_candidates(
            sb[j], {key: pool[key] for key in candidates[j] if key in pool},
            query_size=qs[j], sizes=pool_sizes)[:k]
        for j in range(n)]


class QuerySurface:
    """Derives ``query``, ``query_top_k`` and ``query_top_k_batch``
    from the two hooks described in the module docstring.

    ``locked()`` brackets a whole top-k (ladder + fetch + rank) so it
    is one atomic read; classes with an index lock return it, the
    default is no lock.
    """

    def query_batch(self, batch, sizes: Sequence[int] | None = None,
                    threshold: float | None = None) -> list[set]:
        """One candidate set per batch row (the read primitive)."""
        raise NotImplementedError

    def signatures_for(self, keys) -> tuple[dict, dict]:
        """``(signatures, sizes)`` for the ``keys`` held here."""
        raise NotImplementedError

    def locked(self):
        return contextlib.nullcontext()

    def query(self, signature, size: int | None = None,
              threshold: float | None = None) -> set:
        """Single-signature threshold query: a one-row batch."""
        return self.query_batch(
            [as_lean(signature)], None if size is None else [size],
            threshold)[0]

    def query_top_k(self, signature, k: int, size: int | None = None,
                    min_threshold: float = 0.05,
                    ) -> list[tuple[Hashable, float]]:
        """The ``k`` domains with the highest *estimated* containment.

        The paper (Section 2) notes the top-k formulation is
        complementary to threshold search; this extension implements it
        on top of the threshold machinery: walk a descending threshold
        ladder until at least ``k`` candidates accumulate (or
        ``min_threshold`` is reached), then rank candidates by
        signature-estimated containment (Eq. 6 inverted).

        Returns ``(key, estimated_containment)`` pairs, best first.  The
        estimates are approximate — a verification pass over raw values
        is still advisable before acting on fine-grained ordering.
        """
        return self.query_top_k_batch(
            [as_lean(signature)], k, None if size is None else [size],
            min_threshold)[0]

    def query_top_k_batch(self, batch, k: int,
                          sizes: Sequence[int] | None = None,
                          min_threshold: float = 0.05,
                          ) -> list[list[tuple[Hashable, float]]]:
        """:meth:`query_top_k` for many signatures in one pass.

        Each ladder rung is one :meth:`query_batch` over only the rows
        that still need candidates — so candidate recovery and the stop
        rule see whatever union ``query_batch`` computes (over
        partitions, shards or nodes) at every rung: a global ladder,
        never per-shard ladders merged after the fact (those would
        descend further on sparse shards and surface candidates a flat
        index never ranks).
        """
        with self.locked():
            return top_k_batch(self.query_batch, self.signatures_for,
                               batch, k, sizes, min_threshold)
