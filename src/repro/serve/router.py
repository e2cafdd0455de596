"""The router tier: one query surface over many shard nodes.

:class:`RouterIndex` composes one :class:`~repro.serve.executor
.ShardExecutor` per shard (usually
:class:`~repro.serve.remote.RemoteShardExecutor` — keep-alive HTTP with
replica failover) and is itself a ``ShardExecutor``, so it runs under
the one :class:`~repro.serve.engine.ServingEngine` and the whole HTTP
stack (coalescer, admission control, stats) fronts a cluster unchanged.
Placement comes from a :class:`~repro.serve.placement.PlacementMap`;
swapping maps (:meth:`RouterIndex.set_placement`) is how rebalance and
decommission happen — in-flight requests drain on the old replica
clients, new requests see the new topology, nothing is dropped.

Query semantics (mirroring :class:`~repro.parallel.sharded
.ShardedEnsemble`, which is what the parity battery compares against):

* ``query_batch`` (``query`` is a one-row batch) — one fan-out round,
  per-row union over shards.  Each shard answers at a single epoch (the
  transport enforces it chunk-to-chunk) and the response is tagged with
  the **minimum** epoch observed across shards — the staleness floor.
* ``query_top_k_batch`` (``query_top_k`` is a one-row batch) — the
  shared top-k driver (:func:`repro.core.querycore.top_k_batch`) over
  that probe, which makes the ladder *global* by construction: every
  rung is a cluster-wide fan-out, candidate recovery and the stop rule
  see the union over shards, and the final ranking runs locally over
  candidate signatures fetched from their owning shards in one round
  (``POST /signatures``), preserving the flat index's ordering and
  tie-breaks bit for bit.

**Epoch consistency.**  A ladder is multi-round, so a shard mutating
mid-ladder could leak a mix of pre- and post-mutation candidates into
one response.  The router tracks the epoch each shard reports per
round; on a mismatch the whole ladder restarts from scratch (bounded by
``max_ladder_restarts``), and when the budget is exhausted it raises
:class:`~repro.serve.executor.EpochConsistencyError` (HTTP 503 — an
immediate retry starts a fresh ladder).  Within one fan-out round,
shards are *mutually* independent: each shard's answer is internally
consistent, and the response's ``mutation_epoch`` is the min.

**Failure semantics.**  A shard whose every replica fails raises
:class:`~repro.serve.executor.ShardUnavailableError` (HTTP 503) by
default.  With ``partial=True`` the router instead answers from the
shards it can reach and marks the response ``degraded`` with the
unreachable shard names — explicitly trading completeness for
availability.  The degraded set is maintained per fan-out (a shard
leaves it as soon as it answers again); a response assembled
concurrently with a recovery may briefly over- or under-report it,
which is acceptable for a diagnostic flag.  Degraded shards are
excluded from the response's ``mutation_epoch`` floor — a shard nobody
heard from cannot drag the label of an answer it contributed nothing
to — and surfaced in the ``degraded`` list instead.

**The write path.**  Mutations route by key: :func:`~repro.serve
.placement.owning_shard` picks the one shard a key belongs to (the
same deterministic hash placement lookups use), and the write fans out
to **all** of that shard's replicas, acking only once ``write_quorum``
of them applied it (:class:`~repro.serve.executor.WriteQuorumError` /
HTTP 503 otherwise).  The acked response carries the shard's post-write
mutation epoch — the consistency token readers observe monotonically.
Replicas a write missed (crashed mid-write, below quorum) are
reconciled by :meth:`RouterIndex.repair`: an epoch/key-count compare
across each shard's replicas, then delta shipping (snapshot diff →
``/remove`` + ``/insert``) from the freshest replica to the drifted
ones.  Removals route owner-first, then broadcast-locate: corpora
indexed before hash routing existed may hold keys off their owning
shard.
"""

from __future__ import annotations

import tempfile
import threading
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.querycore import normalise_queries, top_k_batch
from repro.minhash.batch import SignatureBatch, as_lean
from repro.serve.executor import (
    EpochConsistencyError,
    ShardExecutor,
    ShardUnavailableError,
)
from repro.serve.placement import ClusterManifest, PlacementMap
from repro.serve.placement import owning_shard as _owning_shard
from repro.serve.remote import (
    NodeFailure,
    RemoteProtocolError,
    RemoteShardExecutor,
)
from repro.serve.server import QueryServer

__all__ = ["RouterIndex", "RouterServer"]


class _LadderRestart(Exception):
    """Internal: a shard changed epoch mid-ladder; retry the ladder."""

    def __init__(self, shard: str, before: int, after: int) -> None:
        super().__init__(shard, before, after)
        self.shard = shard
        self.before = before
        self.after = after


class RouterIndex(ShardExecutor):
    """Many per-shard executors behind one; module docstring has the
    semantics.  Build one with :meth:`from_manifest` (remote cluster)
    or :meth:`from_executors` (tests, in-process shards).

    **Parity precondition.**  ``router == flat`` holds bit for bit only
    when every shard was built with the flat index's partition bounds
    (``shard.index(entries, partitions=flat.partitions)``): tuning
    reads the partition upper bound, so per-shard equi-depth bounds
    over a skewed (power-law) corpus select different ``(b, r)`` and
    return different candidates.  Near-uniform sizes hide this.
    """

    kind = "router"

    def __init__(self, executors: Mapping[str, ShardExecutor], *,
                 placement: PlacementMap | None = None,
                 partial: bool = False,
                 max_ladder_restarts: int = 2,
                 write_quorum: int | None = None) -> None:
        if not executors:
            raise ValueError("a router needs at least one shard")
        self.shard_names = list(executors)
        self._executors = dict(executors)
        self.placement = placement
        self.partial = bool(partial)
        self.max_ladder_restarts = int(max_ladder_restarts)
        # None = per-shard majority (the executor's default); an int is
        # clamped to each shard's replica count by the executor.
        self.write_quorum = write_quorum
        self._lock = threading.Lock()
        self._degraded: set[str] = set()
        self._counters = {"fanouts": 0, "ladder_restarts": 0,
                          "partial_responses": 0, "writes": 0,
                          "repair_sweeps": 0}
        # Per-shard (address, epoch, keys) vectors recorded after each
        # sweep: replicas legitimately stay epoch-skewed after a repair
        # (shipping bumps the target further), so "unchanged since the
        # sweep that verified convergence" — not "equal epochs" — is
        # what lets the next sweep skip the snapshot diff.
        self._repair_baselines: dict[str, tuple] = {}
        # Two concurrent fan-outs (coalescer dispatch + a direct single
        # query) must not starve each other's shard slots.
        self._fanout_pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self._executors)),
            thread_name_prefix="lshensemble-router")
        # Cluster facts, filled by connect(): the shards must agree on
        # these or cross-shard results are not comparable at all.
        self.num_perm = 0
        self._seed = 1
        self._kernel = "?"
        self._bbit: int | None = None
        self._generation = 0
        self._keys: dict[str, int] = {}
        self.connect()

    # ------------------------- construction ------------------------- #

    @classmethod
    def from_manifest(cls, manifest: ClusterManifest, *,
                      timeout: float = 10.0, partial: bool = False,
                      max_ladder_restarts: int = 2,
                      write_quorum: int | None = None) -> "RouterIndex":
        return cls.from_placement(manifest.shards, manifest.placement,
                                  timeout=timeout, partial=partial,
                                  max_ladder_restarts=max_ladder_restarts,
                                  write_quorum=write_quorum)

    @classmethod
    def from_placement(cls, shards: Sequence[str],
                       placement: PlacementMap, *,
                       timeout: float = 10.0, partial: bool = False,
                       max_ladder_restarts: int = 2,
                       write_quorum: int | None = None) -> "RouterIndex":
        executors = {
            shard: RemoteShardExecutor(placement.endpoints_for(shard),
                                       shard=shard, timeout=timeout)
            for shard in shards}
        return cls(executors, placement=placement, partial=partial,
                   max_ladder_restarts=max_ladder_restarts,
                   write_quorum=write_quorum)

    @classmethod
    def from_executors(cls, executors: Mapping[str, ShardExecutor],
                       **kwargs) -> "RouterIndex":
        return cls(executors, **kwargs)

    # ------------------- cluster facts / lifecycle ------------------ #

    def connect(self) -> None:
        """Fetch every shard's description, verify the cluster is
        coherent, and prime the per-shard epoch observations.

        ``num_perm`` and the signature seed **must** agree across
        shards — containment estimates between differently-hashed
        signatures are meaningless, so a mismatch is a deployment bug
        worth failing loudly on, not routing around.  A node that
        reports a shard label different from the one placement routed
        to it is serving the wrong data — same treatment.
        """
        infos = self._fanout(
            lambda ex: (ex.describe(), ex.mutation_epoch))
        first_name = next(iter(infos))
        first = infos[first_name]
        for name, info in infos.items():
            label = info.get("shard")
            if label is not None and label != name:
                raise ValueError(
                    "node for shard %r identifies as shard %r — "
                    "placement and deployment disagree" % (name, label))
            for field in ("num_perm", "signature_seed"):
                if info.get(field) != first.get(field):
                    raise ValueError(
                        "shards %r and %r disagree on %s (%r vs %r); "
                        "their results are not comparable"
                        % (first_name, name, field, first.get(field),
                           info.get(field)))
        self.num_perm = int(first["num_perm"])
        self._seed = int(first.get("signature_seed", 1))
        self._kernel = str(first.get("kernel", "?"))
        self._bbit = first.get("bbit")
        with self._lock:
            self._keys = {name: int(info.get("keys", 0))
                          for name, info in infos.items()}
            self._generation = max(int(info.get("generation", 0))
                                   for info in infos.values())

    def refresh(self) -> dict:
        """Re-poll the shards (key counts, generation, epochs) and
        return the per-shard descriptions."""
        infos = self._fanout(
            lambda ex: (ex.describe(), ex.mutation_epoch))
        with self._lock:
            for name, info in infos.items():
                self._keys[name] = int(info.get("keys", 0))
            self._generation = max(
                [self._generation]
                + [int(info.get("generation", 0))
                   for info in infos.values()])
        return infos

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    @property
    def mutation_epoch(self) -> int:
        """The staleness floor: minimum last-observed epoch across the
        shards that are actually answering (epochs are per-shard
        independent counters).

        Degraded shards are excluded: in partial mode their answers are
        not in the response at all, so their (frozen, possibly zero)
        last-observed epoch must not drag the floor of answers they
        contributed nothing to — the ``degraded`` marker carries that
        information instead.  If *every* shard is degraded there is no
        reachable floor; fall back to the full set rather than raise on
        a diagnostic read.
        """
        with self._lock:
            degraded = set(self._degraded)
        live = [ex.mutation_epoch
                for name, ex in self._executors.items()
                if name not in degraded]
        if not live:
            live = [ex.mutation_epoch
                    for ex in self._executors.values()]
        return min(live)

    def __len__(self) -> int:
        with self._lock:
            return sum(self._keys.values())

    def degraded_shards(self) -> list[str]:
        with self._lock:
            return sorted(self._degraded)

    def executors(self) -> dict[str, ShardExecutor]:
        return dict(self._executors)

    def describe(self) -> dict:
        """The cluster facts gathered at connect time (refreshed on
        ``/stats``), in the shape of a node's ``/healthz`` payload."""
        degraded = self.degraded_shards()
        return {
            "status": "degraded" if degraded else "ok",
            "index": "RouterIndex",
            "keys": len(self),
            "num_perm": self.num_perm,
            "generation": self.generation,
            "mutation_epoch": self.mutation_epoch,
            "executor": self.kind,
            "kernel": self._kernel,
            "bbit": self._bbit,
            "signature_seed": self._seed,
            "shards": list(self.shard_names),
            "degraded": degraded,
        }

    def stats(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            degraded = sorted(self._degraded)
            keys = dict(self._keys)
        shard_stats = {name: ex.stats()
                       for name, ex in self._executors.items()}
        requests = sum(s.get("requests", 0)
                       for s in shard_stats.values())
        retries = sum(s.get("retries", 0) for s in shard_stats.values())
        return {
            "shards": shard_stats,
            "keys_per_shard": keys,
            "mutation_epochs": {name: ex.mutation_epoch
                                for name, ex
                                in self._executors.items()},
            "degraded": degraded,
            "partial_mode": self.partial,
            "write_quorum": self.write_quorum,
            "placement": (self.placement.describe()
                          if self.placement is not None else None),
            "shard_requests": requests,
            "shard_retries": retries,
            "retry_rate": (retries / requests) if requests else 0.0,
            **counters,
        }

    def stats_sections(self) -> dict:
        try:
            self.refresh()
        except ShardUnavailableError:
            pass  # stats must stay observable while shards are down
        return {"router": self.stats()}

    # --------------------- topology transitions --------------------- #

    def set_placement(self, placement: PlacementMap) -> list[str]:
        """Atomically adopt a new placement map; returns the shards
        whose replica sets changed.  Requests already in flight finish
        on the replicas they started on (the executors keep the old
        clients alive until those calls return), so a rolling
        rebalance/decommission loses no in-flight queries."""
        changed = []
        for shard, executor in self._executors.items():
            if not isinstance(executor, RemoteShardExecutor):
                raise TypeError(
                    "set_placement needs remote executors; shard %r is "
                    "%s" % (shard, type(executor).__name__))
            endpoints = placement.endpoints_for(shard)
            current = ["%s:%d" % ep for ep in endpoints]
            if current != executor.endpoints:
                executor.replace_clients(endpoints)
                changed.append(shard)
        self.placement = placement
        return changed

    def decommission(self, node: str) -> list[str]:
        """Drain ``node`` out of the topology without downtime; returns
        the shards that moved off it.  The node itself keeps running
        until the operator stops it — the router just stops sending."""
        if self.placement is None:
            raise RuntimeError("this router has no placement map")
        return self.set_placement(self.placement.without_node(node))

    def add_node(self, name: str, address: str) -> list[str]:
        """Admit a (bootstrapped) node; returns the shards now
        (partly) served by it."""
        if self.placement is None:
            raise RuntimeError("this router has no placement map")
        return self.set_placement(self.placement.with_node(name, address))

    def close(self) -> None:
        self._fanout_pool.shutdown(wait=True)
        for executor in self._executors.values():
            executor.close()

    def __enter__(self) -> "RouterIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --------------------------- fan-out ---------------------------- #

    def _fanout(self, op, tracker: dict | None = None) -> dict:
        """Run ``op(executor) -> (value, epoch)`` on every shard in
        parallel; returns ``{shard: value}`` for the shards that
        answered.

        ``tracker`` carries the per-shard epoch across the rounds of
        one ladder: a shard answering at a different epoch than it did
        earlier in the same ladder raises :class:`_LadderRestart`.
        Unavailable shards raise unless ``partial`` mode is on.
        """
        with self._lock:
            self._counters["fanouts"] += 1
        futures = {name: self._fanout_pool.submit(op, ex)
                   for name, ex in self._executors.items()}
        out: dict = {}
        failures: list[tuple[str, ShardUnavailableError]] = []
        mismatch: _LadderRestart | None = None
        for name, future in futures.items():
            try:
                value, epoch = future.result()
            except ShardUnavailableError as exc:
                failures.append((name, exc))
                continue
            out[name] = value
            if tracker is not None:
                previous = tracker.setdefault(name, epoch)
                if previous != epoch and mismatch is None:
                    # Note it but keep draining futures, so the whole
                    # round's epochs/counters are recorded coherently.
                    mismatch = _LadderRestart(name, previous, epoch)
        with self._lock:
            for name in out:
                self._degraded.discard(name)
            for name, _ in failures:
                self._degraded.add(name)
            if failures and out and self.partial:
                self._counters["partial_responses"] += 1
        if mismatch is not None:
            raise mismatch
        if failures and (not self.partial or not out):
            detail = "; ".join("%s: %s" % (name, exc)
                               for name, exc in failures)
            raise ShardUnavailableError(
                "%d/%d shard(s) unavailable: %s"
                % (len(failures), len(self._executors), detail))
        return out

    def _batch_round(self, sb: SignatureBatch, sizes: list[int],
                     threshold, tracker: dict | None) -> list[set]:
        """One fan-out round: per-row union of the shards' answers."""
        per_shard = self._fanout(
            lambda ex: ex.query_batch_with_epoch(
                sb, sizes=sizes, threshold=threshold),
            tracker=tracker)
        merged: list[set] = [set() for _ in range(len(sb))]
        for shard_rows in per_shard.values():
            for j, hits in enumerate(shard_rows):
                merged[j] |= hits
        return merged

    def _pool_fetch(self, keys, tracker: dict | None,
                    ) -> tuple[dict, dict]:
        """Candidate signatures/sizes, unioned from their owning
        shards; participates in the ladder's epoch tracking."""
        if not keys:
            return {}, {}
        # Deterministic wire order (diagnostics); shards return only
        # the keys they hold, the union is disjoint by construction.
        keys = sorted(keys, key=str)

        def op(executor):
            pool, sizes, epoch = executor.signatures_with_epoch(keys)
            return (pool, sizes), epoch

        pool: dict = {}
        sizes: dict = {}
        for shard_pool, shard_sizes in self._fanout(
                op, tracker=tracker).values():
            pool.update(shard_pool)
            sizes.update(shard_sizes)
        return pool, sizes

    # ------------------------- query paths -------------------------- #

    def query_batch_with_epoch(self, batch, sizes=None, threshold=None):
        sb, sizes = normalise_queries(batch, sizes)
        found = (self._batch_round(sb, sizes, threshold, tracker=None)
                 if len(sb) else [])
        # Read after the fan-out, which just observed every shard.
        return found, self.mutation_epoch

    def signatures_with_epoch(self, keys):
        pool, sizes = self._pool_fetch(list(keys), tracker=None)
        return pool, sizes, self.mutation_epoch

    def query_top_k_batch(self, batch, k: int,
                          sizes: Sequence[int] | None = None,
                          min_threshold: float = 0.05) -> list[list]:
        """The shared top-k driver over cluster-wide fan-outs, retried
        from scratch whenever a shard changes epoch mid-ladder."""
        restart: _LadderRestart | None = None
        for _ in range(self.max_ladder_restarts + 1):
            try:
                return self._top_k_attempt(batch, k, sizes, min_threshold)
            except _LadderRestart as exc:
                restart = exc
                with self._lock:
                    self._counters["ladder_restarts"] += 1
        raise EpochConsistencyError(
            "top-k ladder restarted %d times without observing a "
            "stable cluster (last offender: shard %s)"
            % (self.max_ladder_restarts, restart.shard))

    def _top_k_attempt(self, batch, k, sizes, min_threshold) -> list[list]:
        """One whole ladder + fetch + rank under one epoch tracker."""
        tracker: dict = {}

        def probe(sb, qs, threshold):
            return self._batch_round(sb, qs, threshold, tracker)

        def fetch(keys):
            # A candidate the pool fetch cannot resolve means the
            # cluster changed between the rung that surfaced it and the
            # fetch — in strict mode an epoch inconsistency (restart);
            # in partial mode its shard is down and the key is dropped
            # with the rest of that shard's answers.
            pool, pool_sizes = self._pool_fetch(keys, tracker)
            missing = keys - pool.keys()
            if missing and not self.partial:
                raise _LadderRestart(repr(min(missing, key=str)), -1, -1)
            return pool, pool_sizes

        return top_k_batch(probe, fetch, batch, k, sizes, min_threshold)

    # -------------------------- write path -------------------------- #

    def owning_shard(self, key) -> str:
        """The shard ``key``'s mutations route to (deterministic hash
        placement; see :func:`repro.serve.placement.owning_shard`)."""
        return _owning_shard(key, self.shard_names)

    def insert_entries(self, entries) -> tuple[list[bool], int]:
        """Route ``(key, signature, size)`` inserts to their owning
        shards, each write fanning to all replicas under the configured
        quorum.  Returns per-entry applied flags (``False`` = already
        present, the idempotent ack) and the highest post-write epoch —
        the consistency token the caller hands back to its client.
        """
        entries = [(key, as_lean(signature), int(size))
                   for key, signature, size in entries]
        groups: dict[str, list[int]] = {}
        for j, (key, _, _) in enumerate(entries):
            groups.setdefault(self.owning_shard(key), []).append(j)
        applied = [False] * len(entries)
        epochs: list[int] = []
        for shard, rows in sorted(groups.items()):
            flags, epoch = self._executors[shard].insert_entries(
                [entries[j] for j in rows], quorum=self.write_quorum)
            for j, flag in zip(rows, flags):
                applied[j] = bool(flag)
            epochs.append(int(epoch))
            fresh = sum(1 for flag in flags if flag)
            if fresh:
                with self._lock:
                    self._keys[shard] = self._keys.get(shard, 0) + fresh
        with self._lock:
            self._counters["writes"] += 1
        return applied, max(epochs)

    def insert(self, key, signature, size: int) -> int:
        """Single-key insert mirroring the flat index surface (raises
        ``ValueError`` on a duplicate); returns the new epoch."""
        applied, epoch = self.insert_entries([(key, signature, size)])
        if not applied[0]:
            raise ValueError("key %r is already in the index" % (key,))
        return epoch

    def remove_keys(self, keys) -> tuple[list[bool], int]:
        """Remove keys: owning shard first, then a broadcast-locate
        pass over the other shards for any still-unremoved key (corpora
        split before hash routing existed hold keys off their owner).
        Per-key flags report whether *any* shard dropped the key."""
        keys = list(keys)
        removed = [False] * len(keys)
        epochs: list[int] = []

        def sweep(shard: str, rows: list[int]) -> None:
            flags, epoch = self._executors[shard].remove_keys(
                [keys[j] for j in rows], quorum=self.write_quorum)
            hit = [j for j, flag in zip(rows, flags) if flag]
            for j in hit:
                removed[j] = True
            epochs.append(int(epoch))
            if hit:
                with self._lock:
                    self._keys[shard] = max(
                        0, self._keys.get(shard, 0) - len(hit))

        groups: dict[str, list[int]] = {}
        for j, key in enumerate(keys):
            groups.setdefault(self.owning_shard(key), []).append(j)
        for shard, rows in sorted(groups.items()):
            sweep(shard, rows)
        if not all(removed):
            for shard in sorted(self.shard_names):
                rows = [j for j in range(len(keys))
                        if not removed[j]
                        and self.owning_shard(keys[j]) != shard]
                if rows:
                    sweep(shard, rows)
        with self._lock:
            self._counters["writes"] += 1
        return removed, max(epochs)

    def remove(self, key) -> None:
        """Single-key removal mirroring the flat index surface (raises
        ``KeyError`` when no shard holds the key)."""
        removed, _ = self.remove_keys([key])
        if not removed[0]:
            raise KeyError(key)

    # ------------------------- anti-entropy ------------------------- #

    def _probe_replicas(self, clients) -> tuple[dict, list[str]]:
        infos: dict = {}
        unreachable: list[str] = []
        for client in clients:
            try:
                infos[client.address] = client.healthz()
            except (NodeFailure, RemoteProtocolError) as exc:
                unreachable.append("%s: %s" % (client.address, exc))
        return infos, unreachable

    @staticmethod
    def _replica_vector(infos: dict) -> tuple:
        return tuple(sorted(
            (addr, int(info.get("mutation_epoch", 0)),
             int(info.get("keys", 0)))
            for addr, info in infos.items()))

    def repair(self) -> dict:
        """One anti-entropy sweep over every remote shard's replicas.

        Per shard: probe each replica's ``/healthz`` (epoch + key
        count).  If the vector is uniform, single-replica, or unchanged
        since the last sweep that verified convergence, the shard is
        healthy.  Otherwise pick the freshest replica (max epoch, then
        key count) as the source, snapshot-diff each other replica
        against it, and ship the delta over the replica's own
        ``/remove`` + ``/insert`` endpoints — idempotent, so a sweep
        racing live writes at worst re-ships what the next sweep
        confirms converged.  Returns a per-shard report plus aggregate
        shipping counts.
        """
        report: dict = {"shards": {}, "repaired_replicas": 0,
                        "shipped_inserts": 0, "shipped_removes": 0}
        for shard in sorted(self.shard_names):
            entry = self._repair_shard(shard, self._executors[shard])
            report["shards"][shard] = entry
            report["repaired_replicas"] += len(entry.get("repaired", []))
            shipped = entry.get("shipped", {})
            report["shipped_inserts"] += shipped.get("inserts", 0)
            report["shipped_removes"] += shipped.get("removes", 0)
        with self._lock:
            self._counters["repair_sweeps"] += 1
        return report

    def _repair_shard(self, shard: str, executor) -> dict:
        if not isinstance(executor, RemoteShardExecutor):
            return {"status": "local"}
        clients = executor.replica_clients()
        infos, unreachable = self._probe_replicas(clients)
        if not infos:
            return {"status": "unreachable",
                    "unreachable": unreachable}
        epochs = {addr: int(info.get("mutation_epoch", 0))
                  for addr, info in infos.items()}
        key_counts = {addr: int(info.get("keys", 0))
                      for addr, info in infos.items()}
        vector = self._replica_vector(infos)
        uniform = (len(set(epochs.values())) == 1
                   and len(set(key_counts.values())) == 1)
        with self._lock:
            baseline = self._repair_baselines.get(shard)
        if len(infos) == 1 or uniform or vector == baseline:
            with self._lock:
                self._repair_baselines[shard] = vector
            return {"status": "healthy", "epochs": epochs,
                    "unreachable": unreachable}

        source_addr = max(
            infos, key=lambda addr: (epochs[addr], key_counts[addr],
                                     addr))
        source_client = next(client for client in clients
                             if client.address == source_addr)
        repaired: list[str] = []
        shipped = {"inserts": 0, "removes": 0}
        from repro.persistence import load_ensemble

        with tempfile.TemporaryDirectory(prefix="lshe-repair-") as tmp:
            tmp_path = Path(tmp)
            source = load_ensemble(
                source_client.snapshot(tmp_path / "source"))
            source_keys = set(source.keys())
            for idx, client in enumerate(clients):
                addr = client.address
                if addr == source_addr or addr not in infos:
                    continue
                replica = load_ensemble(
                    client.snapshot(tmp_path / ("replica_%d" % idx)))
                replica_keys = set(replica.keys())
                changed = [
                    key for key in replica_keys & source_keys
                    if replica.size_of(key) != source.size_of(key)
                    or not np.array_equal(
                        replica.get_signature(key).hashvalues,
                        source.get_signature(key).hashvalues)]
                removes = sorted(
                    list(replica_keys - source_keys) + changed, key=str)
                inserts = sorted(
                    list(source_keys - replica_keys) + changed, key=str)
                if not removes and not inserts:
                    continue
                if removes:
                    client.remove(removes)
                if inserts:
                    client.insert([(key, source.get_signature(key),
                                    source.size_of(key))
                                   for key in inserts])
                repaired.append(addr)
                shipped["inserts"] += len(inserts)
                shipped["removes"] += len(removes)

        # Re-probe: the post-repair vector is the convergence baseline
        # the next sweep compares against (and the shipping itself
        # bumped the repaired replicas' epochs).
        infos, post_unreachable = self._probe_replicas(clients)
        with self._lock:
            self._repair_baselines[shard] = self._replica_vector(infos)
        return {"status": "repaired" if repaired else "healthy",
                "source": source_addr,
                "repaired": repaired,
                "shipped": shipped,
                "epochs": {addr: int(info.get("mutation_epoch", 0))
                           for addr, info in infos.items()},
                "unreachable": unreachable + post_unreachable}


class RouterServer(QueryServer):
    """:class:`~repro.serve.server.QueryServer` over a
    :class:`RouterIndex`: the same HTTP stack, two differences.

    The result cache defaults to **off**: the router only observes
    remote epochs when a fan-out happens to report them, so an
    epoch-keyed cache could serve entries at a stale label after a
    shard mutates.  Operators who accept bounded staleness can pass a
    ``cache_size`` explicitly.  And query responses are re-labelled
    after dispatch (see :meth:`_finalise_payload`).

    The router stays caller-owned: the CLI / test that built it also
    closes it, so a server shutting down never tears down a topology
    the caller may keep querying in-process.
    """

    def __init__(self, router: RouterIndex, host: str = "127.0.0.1",
                 port: int = 0, *, max_batch: int = 64,
                 window_ms: float = 2.0, cache_size: int = 0,
                 max_pending: int = 1024) -> None:
        super().__init__(router, host, port, max_batch=max_batch,
                         window_ms=window_ms, cache_size=cache_size,
                         max_pending=max_pending)

    def _finalise_payload(self, payload: dict) -> dict:
        # Re-read the staleness floor *after* dispatch: the fan-out
        # just observed every shard's epoch, so the label reflects the
        # answers in this response, not the previous fan-out's.
        payload["mutation_epoch"] = self.engine.mutation_epoch
        degraded = self.engine.executor.degraded_shards()
        if degraded:
            payload["degraded"] = degraded
        return payload
