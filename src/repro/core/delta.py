"""The delta write tier of the dynamic (two-tier) LSH Ensemble.

The paper builds its index once (Section 6.2 only studies how accuracy
*degrades* under drift); a production deployment needs a mutation path
that does not erode the equi-depth optimality guarantee.  Following the
LSM-tree playbook — and the layered online-maintenance designs of
Bahmani et al. (distributed LSH) — :class:`DeltaTier` absorbs all
post-build writes into a small *self-partitioned* side index:

* ``add`` is O(1): the entry is staged in a dict, no bucket work at all,
  which is what sustains bulk insert throughput
  (``benchmarks/bench_dynamic.py`` asserts >= 10k inserts/s);
* the first query after a write *flushes* the staged entries into an
  inner :class:`~repro.core.ensemble.LSHEnsemble` whose partitions are
  computed from the **delta's own size distribution** — drifted sizes
  get fresh equi-depth bounds instead of clamping into the base tier's
  stale boundary partitions;
* flushes are amortised: while the staged batch is small relative to
  the already-flushed inner index, entries are routed into the existing
  delta partitions (cheap, still correct — clamping only costs
  optimality, and only until the next full flush or
  :meth:`~repro.core.ensemble.LSHEnsemble.rebalance`); once the staged
  batch rivals the inner index in size, the inner index is rebuilt from
  scratch through the vectorised bulk path.

The tier intentionally reuses ``LSHEnsemble`` for its inner index, so
the one query plan and bucket layout apply to delta probes unchanged.
The inner index is kept *physically clean* — top-ups and removes go
through the base-tier fill and physical-removal primitives (each
rebuilds the small inner layout), never through the inner index's own
delta — so a flushed tier serialises as a plain columnar segment.

Concurrency: queries are no longer pure reads (the first one after a
write flushes, and a flush may top up the inner index *in place*), so
every delta operation — mutation, flush, and the inner probe itself —
serialises on one internal lock.  Concurrent *queries* are therefore
always safe, even immediately after writes (they block on the in-flight
flush instead of observing a half-built tier), and a flush that raises
leaves the staged entries intact for the next attempt.  This lock is
not what serialises queries, though: every public mutator and query
entry point of :class:`~repro.core.ensemble.LSHEnsemble` holds the
ensemble's own reentrant lock for its whole duration — base-tier probe
included — so one index answers one query at a time, and mutations and
``rebalance`` are safe to run concurrently with queries without
external coordination.  Each shard node behind a
:class:`~repro.serve.router.RouterIndex` owns its own index, lock and
tier, so shards still probe in parallel.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Iterable

import numpy as np

from repro.forest.layout import key_column

__all__ = ["DeltaTier"]

# A staged batch at least half the size of the flushed inner index
# triggers a full rebuild (fresh self-partitioning); smaller batches
# are routed into the existing delta partitions instead.  Below the
# floor, rebuilds are so cheap that routing isn't worth the optimality
# loss.
_REBUILD_FLOOR = 64


class DeltaTier:
    """Write-absorbing side index: staged entries + self-partitioned LSH.

    Parameters
    ----------
    make_index:
        Zero-argument callable returning an empty, delta-sized
        :class:`~repro.core.ensemble.LSHEnsemble` (the parent ensemble
        binds its own configuration into this).
    """

    __slots__ = ("_make_index", "_entries", "_fresh", "_index", "_lock")

    def __init__(self, make_index) -> None:
        self._make_index = make_index
        # key -> (LeanMinHash, size) for every live delta entry.
        self._entries: dict[Hashable, tuple] = {}
        # Keys staged since the last flush (ordered set via dict).
        self._fresh: dict[Hashable, None] = {}
        self._index = None  # inner LSHEnsemble over flushed entries
        self._lock = threading.Lock()

    @classmethod
    def adopt(cls, inner_index, make_index) -> "DeltaTier":
        """Wrap a loaded (physically clean) inner index as a delta tier."""
        tier = cls(make_index)
        tier._index = inner_index
        tier._entries = {
            key: (inner_index.get_signature(key), inner_index.size_of(key))
            for key in inner_index.keys()
        }
        return tier

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, key: Hashable, signature, size: int) -> None:
        """Stage one entry; duplicate checking is the caller's job."""
        with self._lock:
            self._entries[key] = (signature, size)
            self._fresh[key] = None

    def discard(self, key: Hashable) -> int:
        """Drop ``key`` from the tier; returns its size (KeyError absent)."""
        with self._lock:
            _, size = self._entries.pop(key)
            if key in self._fresh:
                del self._fresh[key]
            else:
                # Physically flushed: remove through the base-tier
                # primitive so the inner index stays clean (no nested
                # tombstones).  The tier lock (held here) is what
                # serialises the inner index — its own lock is unused.
                self._index._remove_physical_locked(key)
            return size

    def flush(self) -> None:
        """Materialise staged entries into the inner index.

        ``_fresh`` is cleared only after the flush succeeds — so a
        failed flush retries on the next query instead of losing
        writes.
        """
        if not self._fresh:  # benign unlocked fast path
            return
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._fresh:
            return  # another thread flushed while we waited
        fresh = list(self._fresh)
        self._fill_inner_locked(fresh)
        self._fresh.clear()

    def _fill_inner_locked(self, fresh: list) -> None:
        flushed = 0 if self._index is None else len(self._index)
        if (self._index is not None and flushed >= _REBUILD_FLOOR
                and 2 * len(fresh) < flushed):
            # Small top-up: bulk-route into the existing delta
            # partitions through the vectorised fill (clamped routing;
            # exact again after the next full rebuild).  Mutates the
            # inner index in place, which is why probes hold the same
            # lock as flushes.
            self._index._bulk_fill_locked(self.columns(fresh),
                                          initial=False)
        else:
            index = self._make_index()
            index.index(
                (key, signature, size)
                for key, (signature, size) in self._entries.items()
            )
            self._index = index

    def materialize(self) -> None:
        """Flush, and build every depth of the inner index now."""
        if not self._entries:
            return
        with self._lock:
            self._flush_locked()
            self._index.materialize()

    # ------------------------------------------------------------------ #
    # Queries (thin shims over the inner ensemble's vectorised paths,
    # serialised with flushes — see the module docstring)
    # ------------------------------------------------------------------ #

    def query_with_report(self, lean, q: int, t_star: float):
        if not self._entries:
            return set(), []
        with self._lock:
            self._flush_locked()
            return self._index.query_with_report(lean, size=q,
                                                 threshold=t_star)

    def query_batch(self, batch, qs, t_star: float) -> list[set]:
        if not self._entries:
            return [set() for _ in range(len(batch))]
        with self._lock:
            self._flush_locked()
            return self._index.query_batch(batch, sizes=qs,
                                           threshold=t_star)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def get_signature(self, key: Hashable):
        return self._entries[key][0]

    def size_of(self, key: Hashable) -> int:
        return self._entries[key][1]

    def items(self) -> Iterable[tuple]:
        """``(key, signature, size)`` triples for every delta entry."""
        for key, (signature, size) in self._entries.items():
            yield key, signature, size

    def columns(self, keys: list | None = None) -> tuple:
        """Row-aligned ``(keys, sizes, matrix, seeds)`` of ``keys``
        (non-empty; default every entry, in insertion order)."""
        keys = list(self._entries) if keys is None else keys
        entries = [self._entries[key] for key in keys]
        return (key_column(keys),
                np.array([size for _, size in entries], dtype=np.int64),
                np.stack([signature.hashvalues for signature, _ in entries]),
                np.array([signature.seed for signature, _ in entries],
                         dtype=np.int64))

    def inner_index(self):
        """The flushed inner ensemble (flushes first; None when empty)."""
        if not self._entries:
            return None
        self.flush()
        return self._index

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return "DeltaTier(keys=%d, staged=%d)" % (len(self._entries),
                                                  len(self._fresh))
