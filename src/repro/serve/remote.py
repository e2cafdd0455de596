"""Remote shard transport: keep-alive HTTP clients for shard nodes.

This module is the **only** place in :mod:`repro.serve` that talks raw
HTTP/sockets (lint rule RL007 enforces it): the serving engine and the
router see shards exclusively through the
:class:`~repro.serve.executor.ShardExecutor` interface, and this module
supplies the remote implementation of it.

Two layers:

* :class:`ShardNodeClient` — a pool of persistent keep-alive
  ``http.client`` connections to **one** shard-node server, speaking
  the node's public JSON endpoints (``/query``, ``/signatures``,
  ``/insert``, ``/remove``, ``/healthz``, ``/stats``)
  plus the binary ``/snapshot`` stream.  Every query response carries
  the node's ``mutation_epoch``; the client hands it back alongside the
  results so callers can reason about staleness per call, not per
  property read.

* :class:`RemoteShardExecutor` — one *shard* behind N replica nodes.
  Reads go to a sticky preferred replica; a timeout, connection error,
  node 5xx, or malformed response fails the attempt over to the next
  replica (the preference advances, so later calls do not re-pay a
  dead primary's timeout).  Only when every replica fails does the call
  raise :class:`~repro.serve.executor.ShardUnavailableError`.  Writes
  are different: they **broadcast** to every replica and ack only when
  a quorum applied them
  (:class:`~repro.serve.executor.WriteQuorumError` otherwise) — a
  replica that missed a write is repaired by the router's anti-entropy
  sweep, not read around forever.  Counters
  (``requests``/``retries``/``failovers``/``unavailable`` plus the
  write-path ``writes``/``write_replica_failures``/
  ``write_quorum_failures``) feed the router's ``/stats`` and the
  benchmark retry-rate metrics.

Failure semantics worth pinning: an HTTP **400** from a node is *not*
retried — it is deterministic (a protocol bug), and replaying it on a
replica would just fail again; it surfaces as
:class:`RemoteProtocolError`.  A **503** (node overloaded) *is* retried
on a replica: the whole point of replication is routing around a busy
or dead node.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.core.querycore import normalise_queries
from repro.minhash.lean import LeanMinHash
from repro.serve.executor import (
    ShardExecutor,
    ShardUnavailableError,
    WriteQuorumError,
)

__all__ = ["ShardNodeClient", "RemoteShardExecutor",
           "RemoteProtocolError", "NodeFailure", "restore_key"]

#: Server-side bound on queries per HTTP request (mirrors
#: repro.serve.server.MAX_QUERIES_PER_REQUEST); larger batches are
#: split into sequential chunks on one keep-alive connection.
MAX_QUERIES_PER_CHUNK = 256

#: Node statuses that fail over to a replica (transient by contract).
RETRYABLE_STATUSES = frozenset({500, 502, 503, 504})


class RemoteProtocolError(RuntimeError):
    """A node answered with a deterministic error (4xx) or an
    unintelligible body; retrying on a replica cannot help."""


class NodeFailure(RuntimeError):
    """One attempt against one node failed transiently (connection
    refused/reset, timeout, node 5xx); the caller may fail over."""


def restore_key(obj):
    """Undo JSON's tuple->list coercion on result keys.

    Mirrors the persistence layer's key round-trip rule ("tuple keys
    are restored as tuples"): lists become tuples recursively, every
    other JSON scalar passes through — so keys coming off the wire are
    hashable and compare equal to the in-process originals.
    """
    if isinstance(obj, list):
        return tuple(restore_key(item) for item in obj)
    return obj


def _json_key(key):
    """The JSON form of a key (tuples serialise as lists)."""
    if isinstance(key, tuple):
        return [_json_key(item) for item in key]
    return key


class ShardNodeClient:
    """Keep-alive HTTP client for one shard-node server.

    Thread-safe: connections are checked out of a small stack per
    request, and a fresh connection is opened when the stack is empty —
    concurrent fan-out threads never share a socket.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: float = 10.0, max_idle: int = 4) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._max_idle = int(max_idle)
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        self._closed = False

    @property
    def address(self) -> str:
        return "%s:%d" % (self.host, self.port)

    # ------------------------- connections -------------------------- #

    def _checkout(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def _checkin(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self._max_idle:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # --------------------------- requests --------------------------- #

    def _request(self, method: str, path: str,
                 body: bytes | None = None) -> tuple[int, bytes]:
        """One round trip; transient transport problems raise
        :class:`NodeFailure` (a dropped keep-alive connection is
        retried once on a fresh socket before giving up)."""
        conn = self._checkout()
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            try:
                conn.request(method, path, body, headers)
                response = conn.getresponse()
                payload = response.read()
            except (http.client.HTTPException, OSError,
                    socket.timeout) as exc:
                conn.close()
                if attempt == 1:
                    raise NodeFailure(
                        "%s %s on %s failed: %s"
                        % (method, path, self.address, exc)) from exc
                # The node may have legitimately closed an idle
                # keep-alive connection; one fresh-socket retry.
                conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout)
                continue
            self._checkin(conn)
            return response.status, payload
        raise AssertionError("unreachable")

    def _json_call(self, method: str, path: str,
                   payload: dict | None = None) -> dict:
        body = (json.dumps(payload, separators=(",", ":")).encode("utf-8")
                if payload is not None else None)
        status, raw = self._request(method, path, body)
        if status in RETRYABLE_STATUSES:
            raise NodeFailure("%s answered %d for %s"
                              % (self.address, status, path))
        if status != 200:
            raise RemoteProtocolError(
                "%s answered %d for %s: %s"
                % (self.address, status, path, raw[:200].decode(
                    "utf-8", "replace")))
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise NodeFailure("unparseable response from %s %s: %s"
                              % (self.address, path, exc)) from exc
        if not isinstance(data, dict):
            raise NodeFailure("non-object response from %s %s"
                              % (self.address, path))
        return data

    # ----------------------- node endpoints ------------------------- #

    def healthz(self) -> dict:
        return self._json_call("GET", "/healthz")

    def stats(self) -> dict:
        return self._json_call("GET", "/stats")

    def query(self, items: list[dict],
              threshold: float | None) -> tuple[list[set], int]:
        """POST ``/query``; returns per-item hit sets + the epoch."""
        payload: dict = {"queries": items}
        if threshold is not None:
            payload["threshold"] = threshold
        data = self._json_call("POST", "/query", payload)
        results = [{restore_key(key) for key in found}
                   for found in data["results"]]
        return results, int(data["mutation_epoch"])

    def signatures(self, keys: Sequence) -> tuple[dict, dict, int]:
        """POST ``/signatures``; the candidate pool this node holds."""
        data = self._json_call("POST", "/signatures", {
            "keys": [_json_key(key) for key in keys]})
        pool: dict = {}
        sizes: dict = {}
        for key_json, seed, size, values in data["found"]:
            key = restore_key(key_json)
            pool[key] = LeanMinHash(
                seed=int(seed),
                hashvalues=np.asarray(values, dtype=np.uint64))
            sizes[key] = int(size)
        return pool, sizes, int(data["mutation_epoch"])

    def insert(self, entries: Sequence[tuple]) -> tuple[list[bool], int]:
        """POST ``/insert``: apply ``(key, lean, size)`` entries.

        Idempotent on the node — an already-present key reports
        ``False`` in the applied-flags list — so retries and repair
        shipping are safe.  Returns the flags plus the node's
        post-write mutation epoch.
        """
        items = [{"key": _json_key(key),
                  "signature": [int(v) for v in lean.hashvalues],
                  "seed": int(lean.seed), "size": int(size)}
                 for key, lean, size in entries]
        # Chunk under the server's per-request entry bound so a large
        # repair shipment is a sequence of valid requests, not a 400.
        applied: list[bool] = []
        epoch = 0
        for start in range(0, len(items), MAX_QUERIES_PER_CHUNK):
            data = self._json_call("POST", "/insert", {
                "entries": items[start:start + MAX_QUERIES_PER_CHUNK]})
            applied.extend(bool(flag) for flag in data["applied"])
            epoch = int(data["mutation_epoch"])
        return applied, epoch

    def remove(self, keys: Sequence) -> tuple[list[bool], int]:
        """POST ``/remove``: drop keys; absent ones report ``False``."""
        data = self._json_call("POST", "/remove", {
            "keys": [_json_key(key) for key in keys]})
        return ([bool(flag) for flag in data["removed"]],
                int(data["mutation_epoch"]))

    def snapshot(self, dest: str | Path) -> Path:
        """GET ``/snapshot``: download the node's packed index state
        and unpack it under ``dest``; returns the loadable path."""
        from repro.persistence import unpack_snapshot

        status, raw = self._request("GET", "/snapshot")
        if status in RETRYABLE_STATUSES:
            raise NodeFailure("%s answered %d for /snapshot"
                              % (self.address, status))
        if status != 200:
            raise RemoteProtocolError("%s answered %d for /snapshot"
                                      % (self.address, status))
        return unpack_snapshot(raw, dest)


class RemoteShardExecutor(ShardExecutor):
    """One shard served by N replica nodes, behind the executor
    interface; see the module docstring for the failover contract.

    Parameters
    ----------
    endpoints:
        ``[(host, port), ...]`` replicas serving *the same shard data*.
    shard:
        Shard label (stats/diagnostics; verified against the nodes'
        ``/healthz`` by the router when it builds the topology).
    timeout:
        Per-request socket timeout — the per-shard latency bound; a
        node that blows it is failed over, not waited on.
    """

    kind = "remote"

    def __init__(self, endpoints: Sequence[tuple[str, int]], *,
                 shard: str = "?", timeout: float = 10.0) -> None:
        if not endpoints:
            raise ValueError("a shard needs at least one endpoint")
        self.shard = shard
        self._clients = [ShardNodeClient(host, port, timeout=timeout)
                         for host, port in endpoints]
        self._preferred = 0
        self._lock = threading.Lock()
        self._last_epoch = 0
        self._high_epoch = 0
        self.counters = {"requests": 0, "retries": 0, "failovers": 0,
                         "unavailable": 0, "writes": 0,
                         "write_replica_failures": 0,
                         "write_quorum_failures": 0}

    # ------------------------ replica cycling ------------------------ #

    @property
    def endpoints(self) -> list[str]:
        return [client.address for client in self._clients]

    def replace_clients(self, endpoints: Sequence[tuple[str, int]],
                        ) -> None:
        """Swap the replica set (rebalance/decommission).  In-flight
        requests hold references to the old clients and complete on
        them; only *new* calls see the new topology.  The old clients'
        idle sockets are closed."""
        if not endpoints:
            raise ValueError("a shard needs at least one endpoint")
        new = [ShardNodeClient(host, port,
                               timeout=self._clients[0].timeout)
               for host, port in endpoints]
        with self._lock:
            old, self._clients = self._clients, new
            self._preferred = 0
        for client in old:
            client.close()

    def _attempt_order(self) -> list[ShardNodeClient]:
        with self._lock:
            clients = list(self._clients)
            start = self._preferred % len(clients)
        return clients[start:] + clients[:start]

    def _advance_preferred(self, failed: ShardNodeClient) -> None:
        with self._lock:
            clients = self._clients
            if failed in clients \
                    and clients[self._preferred % len(clients)] is failed:
                self._preferred = (self._preferred + 1) % len(clients)
                self.counters["failovers"] += 1

    def _call(self, op):
        """Run ``op(client)`` against the replicas until one answers."""
        self.counters["requests"] += 1
        errors = []
        for i, client in enumerate(self._attempt_order()):
            try:
                return op(client)
            except NodeFailure as exc:
                errors.append(str(exc))
                self._advance_preferred(client)
                if i + 1 < len(self._clients):
                    self.counters["retries"] += 1
        self.counters["unavailable"] += 1
        raise ShardUnavailableError(
            "shard %r: all %d replica(s) failed: %s"
            % (self.shard, len(self._clients), "; ".join(errors)))

    def replica_clients(self) -> list[ShardNodeClient]:
        """The current replica set (the anti-entropy sweep probes and
        repairs replicas individually, bypassing failover)."""
        with self._lock:
            return list(self._clients)

    def _note_epoch(self, epoch: int) -> int:
        """Record an epoch seen on the wire; returns it **raw**.

        Consistency machinery (the router's ladder tracker) compares
        raw wire epochs — a failover to a stale replica must look like
        a mismatch, never be papered over.  Separately,
        :attr:`mutation_epoch` tracks the monotone high-water mark,
        which is what response staleness labels use (a floor may not
        move backward when a read fails over).
        """
        epoch = int(epoch)
        with self._lock:
            self._last_epoch = epoch
            if epoch > self._high_epoch:
                self._high_epoch = epoch
        return epoch

    # ------------------------- query paths -------------------------- #

    @staticmethod
    def _items(matrix, seed: int, sizes: Sequence[int]) -> list[dict]:
        return [{"signature": [int(v) for v in row], "seed": int(seed),
                 "size": int(size)}
                for row, size in zip(matrix, sizes)]

    def _chunked(self, items: list[dict], call) -> tuple[list, int]:
        """Split one logical batch into wire-sized requests.

        All chunks must come back at one epoch, or the batch would mix
        states row by row; a mid-batch mutation surfaces as
        :class:`NodeFailure` so the replica-failover (and the router's
        restart machinery above it) get a consistent second attempt.
        """
        out: list = []
        epoch: int | None = None
        for start in range(0, len(items), MAX_QUERIES_PER_CHUNK):
            results, chunk_epoch = call(
                items[start:start + MAX_QUERIES_PER_CHUNK])
            if epoch is not None and chunk_epoch != epoch:
                raise NodeFailure(
                    "shard %r mutated mid-batch (epoch %d -> %d)"
                    % (self.shard, epoch, chunk_epoch))
            epoch = chunk_epoch
            out.extend(results)
        return out, int(epoch if epoch is not None else 0)

    def query_batch_with_epoch(self, batch, sizes=None, threshold=None):
        sb, sizes = normalise_queries(batch, sizes)
        if len(sb) == 0:
            return [], self.mutation_epoch
        items = self._items(sb.matrix, sb.seed, sizes)

        def op(client):
            return self._chunked(
                items, lambda chunk: client.query(chunk, threshold))

        results, epoch = self._call(op)
        return results, self._note_epoch(epoch)

    def signatures_with_epoch(self, keys) -> tuple[dict, dict, int]:
        keys = list(keys)
        if not keys:
            return {}, {}, self.mutation_epoch
        pool, sizes, epoch = self._call(
            lambda client: client.signatures(keys))
        return pool, sizes, self._note_epoch(epoch)

    # -------------------------- write path -------------------------- #

    def _resolve_quorum(self, quorum: int | None, replicas: int) -> int:
        """Required ack count: an explicit quorum (clamped into
        ``[1, replicas]``), or a majority by default."""
        if quorum is None:
            return replicas // 2 + 1
        return max(1, min(int(quorum), replicas))

    def _broadcast(self, what: str, op, count: int,
                   quorum: int | None) -> tuple[list[bool], int]:
        """Fan a mutation to **every** replica; ack on quorum.

        Per-replica applied flags are OR-merged (replicas at different
        drift states legitimately disagree on whether a key was new),
        and the returned epoch is the highest any acking replica
        reported — the consistency token the caller hands back.  A
        replica that failed transiently is simply a missed ack: the
        anti-entropy sweep converges it later.  A deterministic 4xx
        (:class:`RemoteProtocolError`) is *not* survivable by quorum —
        it means the request itself is wrong and every replica would
        refuse it.
        """
        clients = self.replica_clients()
        want = self._resolve_quorum(quorum, len(clients))
        merged = [False] * count
        epochs: list[int] = []
        errors: list[str] = []
        with self._lock:
            self.counters["writes"] += 1
        for client in clients:
            try:
                flags, epoch = op(client)
            except NodeFailure as exc:
                errors.append(str(exc))
                with self._lock:
                    self.counters["write_replica_failures"] += 1
                continue
            if len(flags) == count:
                merged = [a or b for a, b in zip(merged, flags)]
            epochs.append(int(epoch))
        if len(epochs) < want:
            with self._lock:
                self.counters["write_quorum_failures"] += 1
            raise WriteQuorumError(
                "shard %r %s: %d/%d replica(s) acked, quorum is %d: %s"
                % (self.shard, what, len(epochs), len(clients), want,
                   "; ".join(errors) or "no errors recorded"))
        return merged, self._note_epoch(max(epochs))

    def insert_entries(self, entries, quorum=None):
        entries = list(entries)
        if not entries:
            return [], self.mutation_epoch
        return self._broadcast(
            "insert", lambda client: client.insert(entries),
            len(entries), quorum)

    def remove_keys(self, keys, quorum=None):
        keys = list(keys)
        if not keys:
            return [], self.mutation_epoch
        return self._broadcast(
            "remove", lambda client: client.remove(keys),
            len(keys), quorum)

    # --------------------------- plumbing --------------------------- #

    @property
    def mutation_epoch(self) -> int:
        with self._lock:
            return self._high_epoch

    def observe_epoch(self) -> int:
        """Refresh the epoch from the preferred replica's ``/healthz``
        (used at router startup, before any query has reported one)."""
        data = self._call(lambda client: client.healthz())
        return self._note_epoch(int(data["mutation_epoch"]))

    def describe(self) -> dict:
        """The ``/healthz`` payload of whichever replica answers."""
        return self._call(lambda client: client.healthz())

    def node_stats(self) -> dict:
        return self._call(lambda client: client.stats())

    def stats(self) -> dict:
        with self._lock:
            counters = dict(self.counters)
        return {"executor": self.kind, "shard": self.shard,
                "endpoints": self.endpoints,
                "last_epoch": self.mutation_epoch, **counters}

    def close(self) -> None:
        for client in self._clients:
            client.close()
