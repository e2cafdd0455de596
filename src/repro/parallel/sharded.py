"""Sharded deployment of LSH Ensemble — the paper's 5-node cluster, simulated.

At 262 million domains the paper splits the corpus into equal chunks, one
index per node, fans a query out to all nodes in parallel and unions the
results (Section 6.3).  :class:`ShardedEnsemble` reproduces that topology
in-process: round-robin sharding, a thread pool for the fan-out, and a
plain set-union of per-shard answers.  Result semantics are identical to a
single ensemble over the full corpus built with per-shard partitioning.

The dynamic lifecycle threads through: every shard owns a delta write
tier, :meth:`ShardedEnsemble.insert` routes new domains to the
least-loaded shard, :meth:`ShardedEnsemble.rebalance` compacts the whole
cluster (concurrently when parallel), and
:meth:`ShardedEnsemble.drift_stats` aggregates the per-shard drift
monitors.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from collections.abc import Hashable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.ensemble import LSHEnsemble
from repro.core.querycore import QuerySurface, normalise_queries
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MinHash
from repro.parallel.procpool import PooledIndex, ProcPool

__all__ = ["ShardedEnsemble"]


class ShardedEnsemble(QuerySurface):
    """Round-robin sharded LSH Ensemble with parallel query fan-out.

    Parameters
    ----------
    num_shards:
        Number of simulated nodes (the paper uses 5).
    ensemble_factory:
        Zero-argument callable building one shard's
        :class:`~repro.core.ensemble.LSHEnsemble`; lets callers control
        partitions/num_perm per shard.
    parallel:
        When False, shards are queried sequentially (useful for timing the
        pure algorithmic cost without thread overhead).
    executor:
        ``"thread"`` (default) fans queries out on a thread pool —
        cheap, but CPU-bound probing serialises under the GIL.
        ``"process"`` fans shards out across a
        :class:`~repro.parallel.procpool.ProcPool` of worker processes
        that open each shard's spilled v2 segment via ``np.memmap``
        (one page-cache copy of the signature bytes, no per-worker
        matrix copy) — the paper's multi-node deployment on one box,
        actually using its cores.  Results are bit-identical either
        way (pinned by the process-parity property suite).
    num_workers, start_method:
        Process-pool sizing and multiprocessing start method
        (``executor="process"`` only).  Workers default to
        ``min(active shards, cpu_count)``.
    pool:
        Share an existing :class:`~repro.parallel.procpool.ProcPool`
        instead of owning one (the cluster then never closes it).
    """

    def __init__(self, num_shards: int = 5,
                 ensemble_factory=None, parallel: bool = True,
                 executor: str = "thread",
                 num_workers: int | None = None,
                 start_method: str | None = None,
                 pool: ProcPool | None = None) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if executor not in ("thread", "process"):
            raise ValueError(
                "executor must be 'thread' or 'process', got %r"
                % (executor,))
        self.num_shards = int(num_shards)
        self._factory = ensemble_factory or (lambda: LSHEnsemble())
        self.parallel = bool(parallel)
        self.executor = executor
        self._num_workers = num_workers
        self._start_method = start_method
        self._pool = pool
        self._owns_pool = False
        self._clients: list[PooledIndex] = []
        # Whether pool workers mmap the shard segments; load() threads
        # its own mmap argument through so --no-mmap reaches workers.
        self._client_mmap = True
        self._shards: list[LSHEnsemble] = []
        self._executor: ThreadPoolExecutor | None = None
        # Cluster-level logical-mutation counter.  A per-shard sum
        # would go *backwards* when rebalance() decommissions an
        # emptied shard, so the cluster keeps its own monotone count;
        # see LSHEnsemble.mutation_epoch for the semantics.
        self._mutation_epoch = 0
        # Serialises topology changes (rebalance's shard/executor swap)
        # against the query fan-outs and cluster mutations; per-shard
        # work still parallelises across shards inside one holder.
        self._lock = threading.RLock()

    def index(self, entries: Iterable[tuple[Hashable, MinHash | LeanMinHash,
                                            int]]) -> None:
        """Distribute entries round-robin and build every shard.

        With fewer entries than configured shards, only as many shards
        as have data are built and ``num_shards`` is updated to the
        realised count (``active_shards``) — the configured count would
        otherwise misreport the topology and oversize the thread pool.
        """
        if self._shards:
            raise RuntimeError("index() may only be called once")
        buckets: list[list] = [[] for _ in range(self.num_shards)]
        for i, entry in enumerate(entries):
            buckets[i % self.num_shards].append(entry)
        self._shards = []
        for chunk in buckets:
            if not chunk:
                continue
            shard = self._factory()
            shard.index(chunk)
            self._shards.append(shard)
        if not self._shards:
            raise ValueError("cannot index an empty collection of domains")
        self.num_shards = len(self._shards)
        if self.parallel:
            self._executor = ThreadPoolExecutor(
                max_workers=len(self._shards),
                thread_name_prefix="lshensemble-shard",
            )
        if self.executor == "process":
            self._start_process_backend()

    @property
    def active_shards(self) -> int:
        """Number of shards actually built (0 before :meth:`index`)."""
        return len(self._shards)

    # ------------------------------------------------------------------ #
    # Process-pool backend (executor="process")
    # ------------------------------------------------------------------ #

    def _start_process_backend(self) -> None:
        """One shared worker pool, one spill/overlay client per shard.

        Each shard's immutable base spills lazily to a v2 segment on
        the first process-mode query; workers ``np.memmap`` those
        segments, so cross-shard fan-out runs on real cores while the
        parent keeps the authoritative (mutable) shards in memory.
        """
        if self._pool is None:
            workers = self._num_workers or max(
                1, min(len(self._shards), os.cpu_count() or 1))
            self._pool = ProcPool(num_workers=workers,
                                  start_method=self._start_method)
            self._owns_pool = True
        self._refresh_clients()

    def _refresh_clients(self) -> None:
        """(Re)bind one :class:`PooledIndex` per current shard, keeping
        clients (and their spilled segments) of surviving shards."""
        existing = {id(client.index): client for client in self._clients}
        clients = []
        for shard in self._shards:
            client = existing.pop(id(shard), None)
            clients.append(client if client is not None
                           else PooledIndex(shard, self._pool,
                                            mmap=self._client_mmap))
        for client in existing.values():  # decommissioned shards
            client.close()
        self._clients = clients

    def _process_fanout(self, method: str, args_of) -> list:
        """One pool task per shard; ``args_of(shard_index) -> args``.

        Every client captures its shard's (base token, overlay) under
        that shard's own lock — the cluster lock is already held, so
        the per-shard epochs are mutually consistent for this fan-out.
        """
        tasks = [client.task_for(method, args_of(i))
                 for i, client in enumerate(self._clients)]
        return self._pool.run(tasks)

    # ------------------------------------------------------------------ #
    # Dynamic lifecycle (per-shard delta tiers)
    # ------------------------------------------------------------------ #

    def insert(self, key: Hashable, signature: MinHash | LeanMinHash,
               size: int) -> None:
        """Add one domain to the cluster.

        The entry lands in the delta tier of the least-loaded shard
        (fewest live keys; ties go to the lowest shard id), keeping the
        round-robin balance of the initial build under sustained writes.
        """
        with self._lock:
            if not self._shards:
                raise RuntimeError("the index is empty; call index() first")
            if any(key in shard for shard in self._shards):
                raise ValueError(
                    "key %r is already in the cluster" % (key,))
            min(self._shards, key=len).insert(key, signature, size)
            self._mutation_epoch += 1

    def remove(self, key: Hashable) -> None:
        """Remove a domain from whichever shard holds it."""
        with self._lock:
            for shard in self._shards:
                if key in shard:
                    shard.remove(key)
                    self._mutation_epoch += 1
                    return
            raise KeyError(key)

    def rebalance(self) -> list[dict]:
        """Fold every shard's write tiers into freshly partitioned bases.

        Each shard repartitions over its *own* live size distribution
        (the paper's deployment builds per-node partitionings the same
        way); shards rebalance concurrently when the cluster is
        parallel.  A shard whose every key was removed has nothing left
        to partition and is decommissioned from the topology instead
        (``num_shards`` shrinks).  Returns the per-shard summaries of
        :meth:`repro.core.ensemble.LSHEnsemble.rebalance` for the
        surviving shards.
        """
        with self._lock:
            if not self._shards:
                raise RuntimeError("the index is empty; call index() first")
            live = [shard for shard in self._shards if len(shard)]
            if not live:
                raise ValueError(
                    "cannot rebalance a cluster with no live keys")
            if self.parallel and self._executor is not None:
                futures = [self._executor.submit(shard.rebalance)
                           for shard in live]
                summaries = [f.result() for f in futures]
            else:
                summaries = [shard.rebalance() for shard in live]
            if len(live) != len(self._shards):
                self._shards = live
                self.num_shards = len(live)
                if self._executor is not None:
                    self._executor.shutdown(wait=True)
                    self._executor = ThreadPoolExecutor(
                        max_workers=len(live),
                        thread_name_prefix="lshensemble-shard",
                    )
                if self._clients:
                    self._refresh_clients()
            self._mutation_epoch += 1
            return summaries

    def drift_stats(self) -> dict:
        """Cluster-wide drift summary: per-shard stats plus aggregates.

        ``drift_score`` is the max over shards — one badly drifted node
        dominates tail latency, so it is what an operator alarms on.
        """
        with self._lock:
            if not self._shards:
                raise RuntimeError("the index is empty; call index() first")
            per_shard = [shard.drift_stats() for shard in self._shards]
            return {
                "shards": per_shard,
                "drift_score": max(s["drift_score"] for s in per_shard),
                "delta_keys": sum(s["delta_keys"] for s in per_shard),
                "tombstones": sum(s["tombstones"] for s in per_shard),
                "base_keys": sum(s["base_keys"] for s in per_shard),
                "generation": max(s["generation"] for s in per_shard),
                "mutation_epoch": self._mutation_epoch,
            }

    @property
    def mutation_epoch(self) -> int:
        """Cluster-wide logical-mutation counter; see
        :attr:`repro.core.ensemble.LSHEnsemble.mutation_epoch`."""
        return self._mutation_epoch

    def locked(self):
        """The cluster's reentrant lock, for multi-step atomic
        sections spanning several shard operations; mirrors
        :meth:`repro.core.ensemble.LSHEnsemble.locked`."""
        return self._lock

    @property
    def generation(self) -> int:
        """Highest compaction generation across the shards (0 before
        any rebalance)."""
        if not self._shards:
            return 0
        return max(shard.generation for shard in self._shards)

    def query_batch(self, batch, sizes: Sequence[int] | None = None,
                    threshold: float | None = None) -> list[set]:
        """Union of all shard answers, row by row
        (Partitioned-Containment-Search over the cluster).

        The whole batch goes to every shard's vectorised
        :meth:`~repro.core.ensemble.LSHEnsemble.query_batch` — one
        process-pool task, thread-pool task or sequential call per
        shard, so the fan-out overhead is paid once per batch, not per
        query.  Batch and sizes are normalised once here rather than
        once per shard.
        """
        if not self._shards:
            raise RuntimeError("the index is empty; call index() first")
        batch, sizes = normalise_queries(batch, sizes)
        if len(batch) == 0:
            return []
        with self._lock:
            if not self._shards:
                raise RuntimeError("the index is empty; call index() first")
            if self.executor == "process" and self._clients:
                args = {"matrix": np.ascontiguousarray(batch.matrix,
                                                       dtype=np.uint64),
                        "seed": int(batch.seed), "sizes": sizes,
                        "threshold": threshold}
                per_shard = self._process_fanout("query_batch",
                                                 lambda i: args)
            elif self.parallel and self._executor is not None:
                futures = [
                    self._executor.submit(shard.query_batch, batch, sizes,
                                          threshold)
                    for shard in self._shards
                ]
                per_shard = [f.result() for f in futures]
            else:
                per_shard = [shard.query_batch(batch, sizes, threshold)
                             for shard in self._shards]
        results: list[set] = [set() for _ in range(len(batch))]
        for shard_results in per_shard:
            for j, hits in enumerate(shard_results):
                results[j] |= hits
        return results

    def signatures_for(self, keys) -> tuple[dict, dict]:
        """``(signatures, sizes)`` of ``keys``, pooled from their
        owning shards (the parent's authoritative copies, whatever the
        fan-out backend)."""
        keys = list(keys)
        pool: dict = {}
        sizes: dict = {}
        with self._lock:
            for shard in self._shards:
                shard_pool, shard_sizes = shard.signatures_for(keys)
                pool.update(shard_pool)
                sizes.update(shard_sizes)
        return pool, sizes

    @property
    def shards(self) -> list[LSHEnsemble]:
        return list(self._shards)

    def materialize(self) -> None:
        """Build every depth of every shard's buckets now; see
        :meth:`repro.core.ensemble.LSHEnsemble.materialize`."""
        for shard in self._shards:
            shard.materialize()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str | Path) -> None:
        """Persist the cluster: one columnar snapshot per shard.

        ``path`` becomes a directory holding ``manifest.json`` plus one
        shard file per built shard (the v2 format of
        :func:`repro.persistence.save_ensemble`), mirroring how the
        paper's deployment would snapshot each node independently.

        Re-saving into the same directory is crash-safe: shard files
        carry a generation number so a new save never overwrites the
        files the current manifest points at, the manifest is replaced
        atomically, and files no longer referenced are removed only
        after the new manifest is durable.

        A shard that carries dynamic state (delta-tier writes or
        tombstones) is saved as its own nested manifest directory
        rather than a single file — ``load`` handles both forms
        transparently.
        """
        with self._lock:
            self._save_locked(path)

    def _save_locked(self, path: str | Path) -> None:
        # Holding the cluster lock keeps the snapshot consistent: no
        # concurrent insert/remove/rebalance can land between shard
        # files, and the recorded mutation_epoch matches the contents.
        from repro.persistence import _atomic_write, _fsync_dir, save_ensemble

        if not self._shards:
            raise RuntimeError("the index is empty; call index() first")
        # A fully-emptied shard has nothing persistable (an empty index
        # cannot be saved); it simply drops out of the saved topology.
        shards = [shard for shard in self._shards if len(shard)]
        if not shards:
            raise ValueError("refusing to save a cluster with no live keys")
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        generation = -1
        for existing in root.glob("shard-*.lshe"):
            fields = existing.name.split("-")
            if len(fields) == 3 and fields[1].isdigit():
                generation = max(generation, int(fields[1]))
        generation += 1
        names = []
        for i, shard in enumerate(shards):
            name = "shard-%03d-%05d.lshe" % (generation, i)
            save_ensemble(shard, root / name)
            names.append(name)
        manifest = {"num_shards": len(shards),
                    "parallel": self.parallel, "shards": names,
                    "mutation_epoch": self._mutation_epoch}
        payload = json.dumps(manifest, indent=2).encode("utf-8")
        # Ordering matters for crash safety: make the shard files'
        # directory entries durable before the manifest can name them,
        # and make the manifest replace durable before deleting the
        # generation it supersedes.
        _fsync_dir(root)
        _atomic_write(root / "manifest.json",
                      lambda fh: fh.write(payload))
        _fsync_dir(root)
        for stale in root.glob("shard-*.lshe"):
            if stale.name not in names:
                if stale.is_dir():
                    shutil.rmtree(stale)
                else:
                    stale.unlink()

    @classmethod
    def load(cls, path: str | Path, *, parallel: bool | None = None,
             partitioner=None, kernel=None, mmap: bool = True,
             executor: str = "thread", num_workers: int | None = None,
             start_method: str | None = None) -> "ShardedEnsemble":
        """Load a cluster saved by :meth:`save`.

        ``parallel`` defaults to the saved setting; ``executor`` /
        ``num_workers`` / ``start_method`` select the fan-out backend
        (see the constructor); the remaining keyword arguments
        (including the ``kernel`` hot-loop backend override) are
        forwarded to each shard's
        :func:`repro.persistence.load_ensemble` (same registry
        resolution and lazy per-depth bucket builds).
        """
        from repro.persistence import FormatError, load_ensemble

        root = Path(path)
        try:
            manifest = json.loads(
                (root / "manifest.json").read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise FormatError(
                "%s is not a saved ShardedEnsemble (no manifest.json)"
                % root) from None
        except json.JSONDecodeError as exc:
            raise FormatError("corrupt manifest: %s" % exc) from exc
        names = manifest.get("shards")
        if not isinstance(names, list) or not names:
            raise FormatError("corrupt manifest: missing shard list")
        if parallel is None:
            parallel = bool(manifest.get("parallel", True))
        cluster = cls(num_shards=len(names), parallel=parallel,
                      executor=executor, num_workers=num_workers,
                      start_method=start_method)
        cluster._client_mmap = bool(mmap)
        shards = []
        for name in names:
            try:
                shards.append(
                    load_ensemble(root / name, partitioner=partitioner,
                                  kernel=kernel, mmap=mmap))
            except FileNotFoundError as exc:
                raise FormatError(
                    "manifest names shard file %s but it is missing"
                    % name) from exc
        cluster._shards = shards
        # Older manifests predate the counter; the sum of the shard
        # epochs restores a monotone (if conservative) starting point.
        with cluster.locked():
            cluster._mutation_epoch = int(manifest.get(
                "mutation_epoch",
                sum(shard.mutation_epoch for shard in shards)))
        if cluster.parallel:
            cluster._executor = ThreadPoolExecutor(
                max_workers=len(cluster._shards),
                thread_name_prefix="lshensemble-shard",
            )
        if cluster.executor == "process":
            cluster._start_process_backend()
        return cluster

    def close(self) -> None:
        """Shut the fan-out thread pool (and any process backend) down."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for client in self._clients:
            client.close()
        self._clients = []
        if self._pool is not None and self._owns_pool:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ShardedEnsemble":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def __contains__(self, key: Hashable) -> bool:
        return any(key in s for s in self._shards)
