"""The shard-executor interface: *where* a batch of queries executes.

There is one read primitive — ``query_batch`` — and
:class:`~repro.core.querycore.QuerySurface` derives the single-query
and top-k entry points from it (see that module).  A
:class:`ShardExecutor` is a ``QuerySurface`` for **one shard backend**
that additionally stamps every answer with the mutation epoch it
reflects.  What a backend supplies:

* ``query_batch_with_epoch`` / ``signatures_with_epoch`` — the two
  reads the router's fan-out and global top-k ladder call (probe rows
  at a threshold; fetch the candidate pool), each returning the epoch;
* ``insert_entries`` / ``remove_keys`` — the idempotent write path;
* ``mutation_epoch``, ``describe`` (the ``/healthz`` payload),
  ``stats`` and ``close``.

``query_batch``, ``query``, ``query_top_k`` and ``signatures_for`` are
derived.  Implementations:

* :class:`InProcessExecutor` — the built
  :class:`~repro.core.ensemble.LSHEnsemble` itself.
* :class:`ProcPoolExecutor` — a
  :class:`~repro.parallel.procpool.PooledIndex`: batches row-sliced
  across worker processes over shared mmap segments.  Both forward
  ``query_top_k_batch`` to their index so the ladder stays atomic
  under the index lock / inside one pool-worker round trip.
* :class:`~repro.serve.remote.RemoteShardExecutor` — keep-alive HTTP to
  a shard-node server (with replica failover); lives in
  :mod:`repro.serve.remote` so *all* network transport is in one module
  (enforced by lint rule RL007).
* :class:`~repro.serve.router.RouterIndex` — many executors behind one:
  its probe is a fan-out + row-wise union, its pool fetch a fan-out +
  dict union, and the shared top-k driver over those two *is* the
  global ladder.

The serving engine talks only to this interface.  Results are
bit-identical across implementations — the ``tests/distributed`` parity
battery pins it.
"""

from __future__ import annotations

import abc
from collections.abc import Hashable, Sequence

from repro.core.querycore import QuerySurface

__all__ = ["ShardExecutor", "InProcessExecutor", "ProcPoolExecutor",
           "ShardUnavailableError", "EpochConsistencyError",
           "WriteQuorumError"]


class ShardUnavailableError(RuntimeError):
    """Every replica of a shard failed (or timed out); the query cannot
    be answered completely.  The HTTP layer maps it to ``503`` — the
    condition is transient (a replica restart / failover away)."""


class WriteQuorumError(RuntimeError):
    """Fewer replicas than the configured write quorum acknowledged a
    mutation.  The write may have landed on a minority of replicas —
    the anti-entropy sweep reconciles them — but it is **not acked**:
    the HTTP layer maps this to ``503`` and the client must retry
    (mutations are idempotent, so retrying a partially applied write is
    safe)."""


class EpochConsistencyError(RuntimeError):
    """A multi-round query (the top-k ladder) observed a shard at two
    different mutation epochs and exhausted its restart budget; the
    response would have mixed pre- and post-mutation state.  Mapped to
    ``503`` — an immediate retry starts a fresh, consistent ladder."""


class ShardExecutor(QuerySurface, abc.ABC):
    """Query surface for one shard backend; see the module docstring."""

    #: Transport kind ("thread" / "process" / "remote" / "router").
    kind: str = "thread"

    # ------------------------- the read path ------------------------ #

    @abc.abstractmethod
    def query_batch_with_epoch(self, batch,
                               sizes: Sequence[int] | None = None,
                               threshold: float | None = None,
                               ) -> tuple[list[set], int]:
        """One result set per batch row, plus the mutation epoch the
        answers reflect."""

    @abc.abstractmethod
    def signatures_with_epoch(self, keys: Sequence[Hashable],
                              ) -> tuple[dict, dict, int]:
        """``(signatures, sizes, epoch)`` for the keys this shard holds.

        Keys the shard does not hold are silently absent — the router
        unions candidate pools across shards, so absence means "someone
        else's key", not an error.
        """

    def query_batch(self, batch, sizes=None, threshold=None) -> list[set]:
        return self.query_batch_with_epoch(batch, sizes=sizes,
                                           threshold=threshold)[0]

    def signatures_for(self, keys) -> tuple[dict, dict]:
        return self.signatures_with_epoch(keys)[:2]

    # ------------------------- the write path ----------------------- #

    def insert_entries(self, entries: Sequence[tuple],
                       quorum: int | None = None,
                       ) -> tuple[list[bool], int]:
        """Apply ``(key, signature, size)`` inserts to this shard.

        Idempotent: a key the shard already holds is skipped and
        reported ``False`` in the applied-flags list (not an error), so
        replica retries and repair shipping are safe.  Returns the
        flags plus the shard's post-write mutation epoch — the
        consistency token the caller hands back to clients.  ``quorum``
        is meaningful only for replicated (remote) executors; a
        single-backend executor either applies or raises.
        """
        raise NotImplementedError("%s does not accept writes" % self.kind)

    def remove_keys(self, keys: Sequence[Hashable],
                    quorum: int | None = None,
                    ) -> tuple[list[bool], int]:
        """Apply removals; absent keys report ``False``, not errors."""
        raise NotImplementedError("%s does not accept writes" % self.kind)

    # ------------------------- introspection ------------------------ #

    @property
    @abc.abstractmethod
    def mutation_epoch(self) -> int:
        """The epoch the *next* answer is expected to reflect (for
        remote executors: the last epoch observed on the wire)."""

    @property
    def generation(self) -> int:
        """Compaction generation (stamped on every query response)."""
        return int(self.describe()["generation"])

    @abc.abstractmethod
    def describe(self) -> dict:
        """This backend's self-description: the ``/healthz`` payload
        (``index``, ``keys``, ``num_perm``, ``generation``,
        ``mutation_epoch``, ``executor``, ``kernel``, ``bbit``,
        ``signature_seed``, ...)."""

    def stats(self) -> dict:
        """This backend's counters."""
        return {"executor": self.kind}

    def stats_sections(self) -> dict:
        """The sections this backend adds to ``/stats`` beneath the
        version facts :meth:`describe` reports."""
        return self.stats()

    def snapshot_bytes(self) -> bytes | None:
        """The index packed for replica bootstrap (``GET /snapshot``);
        ``None`` when the backend has no single index to ship."""
        return None

    # -------------------------- lifecycle --------------------------- #

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release transport resources (pools, connections)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _IndexBackedExecutor(ShardExecutor):
    """Executors whose queries land on an in-process index object
    (directly or through a worker pool).  That index is in this
    process, so the ``/healthz`` / ``/stats`` facts are assembled
    here."""

    def __init__(self, target, index) -> None:
        # ``target`` answers queries; ``index`` is the authoritative
        # in-process object for introspection (signatures, epoch).
        self._target = target
        self._index = index

    def query_batch(self, batch, sizes=None, threshold=None):
        return self._target.query_batch(batch, sizes=sizes,
                                        threshold=threshold)

    def query_batch_with_epoch(self, batch, sizes=None, threshold=None):
        # The epoch is read *before* dispatching: a mutation racing the
        # dispatch has either already bumped it (answer newer than the
        # label, the accepted imprecision) or lands after (label exact).
        epoch = self.mutation_epoch
        return self.query_batch(batch, sizes=sizes,
                                threshold=threshold), epoch

    def query_top_k_batch(self, batch, k, sizes=None, min_threshold=0.05):
        # Forwarded, not derived: the whole ladder stays atomic under
        # the index lock / inside one pool-worker round trip.
        return self._target.query_top_k_batch(
            batch, k, sizes=sizes, min_threshold=min_threshold)

    def signatures_with_epoch(self, keys):
        epoch = self.mutation_epoch
        return (*self._index.signatures_for(keys), epoch)

    def insert_entries(self, entries, quorum=None):
        applied = []
        for key, signature, size in entries:
            if key in self._index:
                applied.append(False)
                continue
            self._index.insert(key, signature, int(size))
            applied.append(True)
        return applied, int(self._index.mutation_epoch)

    def remove_keys(self, keys, quorum=None):
        removed = []
        for key in keys:
            if key not in self._index:
                removed.append(False)
                continue
            self._index.remove(key)
            removed.append(True)
        return removed, int(self._index.mutation_epoch)

    @property
    def mutation_epoch(self) -> int:
        return int(self._index.mutation_epoch)

    @property
    def generation(self) -> int:
        return int(self._index.generation)

    def describe(self) -> dict:
        index = self._index
        # Server-side hashing of ``values`` payloads must use the seed
        # the index was built with; sample it from any stored signature
        # (one shared seed per index is the supported regime).
        seed = next((int(index.get_signature(key).seed)
                     for key in index.keys()), 1)
        return {
            "status": "ok",
            "index": type(index).__name__,
            "keys": len(index),
            "num_perm": int(index.num_perm),
            "generation": self.generation,
            "mutation_epoch": self.mutation_epoch,
            "executor": self.kind,
            "kernel": index.kernel.name,
            "bbit": index.bbit,
            "signature_seed": seed,
        }

    def stats(self) -> dict:
        """Tier sizes and the full drift report."""
        drift = self._index.drift_stats()
        return {
            "tiers": {
                "base": drift["base_keys"],
                "delta": drift["delta_keys"],
                "tombstones": drift["tombstones"],
            },
            "drift": drift,
        }

    def snapshot_bytes(self) -> bytes | None:
        from repro.persistence import pack_snapshot_bytes

        return pack_snapshot_bytes(self._index)


class InProcessExecutor(_IndexBackedExecutor):
    """Dispatch straight onto the built index object."""

    def __init__(self, index) -> None:
        super().__init__(index, index)


class ProcPoolExecutor(_IndexBackedExecutor):
    """Dispatch through a :class:`~repro.parallel.procpool.PooledIndex`
    — batches row-sliced across worker processes that ``np.memmap`` the
    spilled base segment.  Introspection reads the authoritative
    in-process index the adapter wraps."""

    kind = "process"

    def __init__(self, pooled) -> None:
        super().__init__(pooled, pooled.index)

    def stats(self) -> dict:
        """The in-process index's stats plus the pool counters."""
        return {**super().stats(), "pool": self._target.pool.stats()}

    def close(self) -> None:
        self._target.close()
