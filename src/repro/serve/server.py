"""Asyncio HTTP query server (stdlib only) for LSH Ensemble indexes.

The paper's pitch is *internet-scale* domain search; this is the layer
that turns the in-process index into something millions of clients can
actually reach.  One asyncio event loop accepts HTTP/1.1 connections
(keep-alive supported), parses tiny JSON request bodies, and pushes
every query through three stages:

1. **Result cache** — LRU keyed by ``(query digest, mutation epoch)``;
   see :mod:`repro.serve.cache`.  Mutations bump the epoch, so stale
   entries become unreachable without any scanning; read-only traffic
   hits indefinitely.
2. **Micro-batching coalescer** — concurrent cache misses that share
   ``(kind, seed, threshold/k)`` are collected for up to a small window
   (or until ``max_batch``) and answered with *one*
   ``query_batch`` / ``query_top_k_batch`` call; see
   :mod:`repro.serve.coalescer`.  Served throughput therefore inherits
   the vectorised batch-path speedups instead of paying per-request
   Python overhead.
3. **Admission control** — beyond ``max_pending`` queued queries, new
   work is shed with ``503`` + ``Retry-After`` instead of queueing
   unboundedly.

Endpoints::

    GET  /healthz      liveness + key count + generation/epoch
    GET  /stats        tier sizes, drift_stats(), cache + coalescer
    POST /query        {"queries": [...], "threshold": 0.6}
    POST /query_top_k  {"queries": [...], "k": 5, "min_threshold": 0.05}
    POST /signatures   {"keys": [...]} -> stored signatures + sizes
    GET  /snapshot     packed index snapshot (replica bootstrap)
    POST /insert       {"entries": [{"key": ..., <signature|values>}]}
    POST /remove       {"keys": [...]} -> removal flags + new epoch

``/signatures`` and ``/snapshot`` exist for the distributed tier: the
router (:mod:`repro.serve.router`) fetches candidate signatures for
its global top-k ranking through the former, and a new replica
bootstraps its whole index from a peer through the latter.

``/insert`` and ``/remove`` are the write path.  Both are idempotent —
inserting a key the index already holds (or removing an absent one)
reports ``false`` in the per-entry flags instead of failing — so
replica retries and anti-entropy repair shipping are safe.  Responses
carry the post-write ``mutation_epoch``, the consistency token clients
(and the router's quorum accounting) key on.

Each query is either a raw signature —
``{"signature": [u64...], "seed": 1, "size": 123}`` (``size`` optional,
estimated from the signature when absent) — or a value set —
``{"values": ["a", "b", ...]}`` — hashed server-side.  Responses are
deterministic and bit-identical to the in-process batch paths:
``results`` holds one ``sorted(key=str)`` key list (or ``[key, score]``
ranking) per query, plus the ``mutation_epoch`` the answers are valid
for and a per-query ``cached`` flag so operators can tell cached
responses apart from live ones.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time

import numpy as np

from repro.minhash.generator import SignatureFactory
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MinHash
from repro.serve.cache import MISS, ResultCache
from repro.serve.coalescer import MicroBatchCoalescer, OverloadedError
from repro.serve.engine import ServingEngine
from repro.serve.executor import (
    EpochConsistencyError,
    ProcPoolExecutor,
    ShardUnavailableError,
    WriteQuorumError,
)

__all__ = ["QueryServer", "ServerHandle", "start_in_thread",
           "RequestError"]

# Bound on queries inside one HTTP request body: a single request must
# not monopolise the coalescer's admission budget.
MAX_QUERIES_PER_REQUEST = 256
# Bound on keys inside one /signatures request (ladder candidate pools
# are small — k * a few rungs — so this is generous).
MAX_KEYS_PER_REQUEST = 65536
# Bounds on the HTTP request itself — admission control is pointless if
# a single connection can buffer an arbitrarily large body or header
# block instead.
MAX_BODY_BYTES = 16 * 1024 * 1024
MAX_HEADER_LINES = 100
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error",
            503: "Service Unavailable"}


class RequestError(ValueError):
    """A malformed request; maps to an HTTP 400 response."""


def _parse_body(body: bytes) -> dict:
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestError("body is not valid JSON: %s" % exc)
    if not isinstance(data, dict):
        raise RequestError("body must be a JSON object")
    return data


def _parse_threshold(data: dict) -> float | None:
    threshold = data.get("threshold")
    if threshold is None:
        return None
    if not isinstance(threshold, (int, float)) or isinstance(threshold,
                                                             bool):
        raise RequestError("threshold must be a number")
    threshold = float(threshold)
    if not 0.0 <= threshold <= 1.0:
        raise RequestError("threshold must be in [0, 1]")
    return threshold


def _parse_top_k_params(data: dict) -> tuple[int, float]:
    k = data.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise RequestError("k must be an integer >= 1")
    min_threshold = data.get("min_threshold", 0.05)
    if (not isinstance(min_threshold, (int, float))
            or isinstance(min_threshold, bool)
            or not 0.0 < float(min_threshold) <= 1.0):
        raise RequestError("min_threshold must be in (0, 1]")
    return k, float(min_threshold)


class QueryServer:
    """The serving stack around one index; see the module docstring.

    Parameters
    ----------
    index:
        A built :class:`~repro.core.ensemble.LSHEnsemble` — or any
        :class:`~repro.serve.executor.ShardExecutor` to serve through
        as-is (it stays caller-owned: the server never closes it).
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    max_batch, window_ms:
        Coalescing knobs: dispatch a batch at ``max_batch`` queries or
        after ``window_ms`` milliseconds, whichever first.
        ``max_batch=1`` disables coalescing (the benchmark baseline).
    cache_size:
        Result-cache capacity; ``0`` disables caching.
    max_pending:
        Admission-control bound on queries queued + in flight; beyond
        it requests are shed with ``503``.
    executor:
        ``"thread"`` (default) answers coalesced batches on the
        coalescer's single worker thread.  ``"process"`` dispatches
        them through a :class:`~repro.parallel.procpool.PooledIndex` —
        sliced across worker processes that ``np.memmap`` the spilled
        v2 segment — so serving scales past one core.
    workers, start_method:
        Process-pool sizing / multiprocessing start method
        (``executor="process"`` only).
    source_path:
        A v2 snapshot on disk matching the index's physical base
        (e.g. the file it was loaded from); saves the initial spill.
        Defaults to the segment the index was loaded from, when known.
    mmap:
        Whether pool workers memory-map the base segment (default) or
        read it into memory (``executor="process"`` only).
    shard_label:
        The shard this node serves, surfaced in ``/healthz`` so the
        router can verify placement and deployment agree.
    """

    def __init__(self, index, host: str = "127.0.0.1", port: int = 0, *,
                 max_batch: int = 64, window_ms: float = 2.0,
                 cache_size: int = 4096, max_pending: int = 1024,
                 executor: str = "thread", workers: int | None = None,
                 start_method: str | None = None,
                 source_path=None, mmap: bool = True,
                 shard_label: str | None = None) -> None:
        if executor not in ("thread", "process"):
            raise ValueError(
                "executor must be 'thread' or 'process', got %r"
                % (executor,))
        # The one executor this server builds — and therefore owns and
        # closes — is the worker pool around a flat index.
        self._pool_executor: ProcPoolExecutor | None = None
        if executor == "process":
            from repro.parallel.procpool import PooledIndex

            self._pool_executor = ProcPoolExecutor(PooledIndex(
                index, num_workers=workers,
                start_method=start_method, source_path=source_path,
                mmap=mmap))
        self.engine = ServingEngine(self._pool_executor or index)
        self.shard_label = shard_label
        self.cache = ResultCache(cache_size)
        self.coalescer = MicroBatchCoalescer(
            self.engine.dispatch, max_batch=max_batch,
            window_seconds=window_ms / 1000.0, max_pending=max_pending)
        self.host = host
        self.port = int(port)
        facts = self.engine.describe()
        self._factory = SignatureFactory(
            num_perm=facts["num_perm"], seed=facts["signature_seed"])
        self._server: asyncio.base_events.Server | None = None
        self.requests_total = 0
        self.responses_by_status: dict[int, int] = {}
        # Per-request service-time accounting (event-loop only writes;
        # readers snapshot immutable ints/floats).  ``inflight`` is the
        # drain counter load harnesses poll: a run has fully drained
        # once it reaches zero with the coalescer idle.
        self.inflight = 0
        self.latency_count = 0
        self.latency_seconds_total = 0.0
        self.latency_seconds_max = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.coalescer.aclose()
        if self._pool_executor is not None:
            self._pool_executor.close()

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line.strip() == b"":
                    break
                try:
                    method, target, _ = (
                        request_line.decode("latin-1").split(None, 2))
                except ValueError:
                    await self._respond(writer, 400,
                                        {"error": "malformed request line"})
                    break
                headers = {}
                header_lines = 0
                header_ok = True
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    # Count lines, not dict entries: repeated same-name
                    # headers must trip the bound too.
                    header_lines += 1
                    if header_lines > MAX_HEADER_LINES:
                        header_ok = False
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                if not header_ok:
                    await self._respond(writer, 400,
                                        {"error": "too many headers"})
                    break
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if not 0 <= length <= MAX_BODY_BYTES:
                    await self._respond(writer, 400,
                                        {"error": "bad content-length"})
                    break
                body = await reader.readexactly(length) if length else b""
                status, payload = await self._route(method.upper(),
                                                    target, body)
                keep_alive = headers.get("connection",
                                         "keep-alive").lower() != "close"
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        except asyncio.CancelledError:
            # Server shutdown with this connection parked on keep-alive;
            # end the handler quietly instead of logging a cancellation
            # traceback through the protocol callback.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # The handler is already unwinding; nothing left to do
                # for this connection either way.
                pass

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict | bytes,
                       keep_alive: bool = False) -> None:
        self.responses_by_status[status] = (
            self.responses_by_status.get(status, 0) + 1)
        if isinstance(payload, bytes):  # /snapshot streams raw bytes
            body = payload
            content_type = "application/octet-stream"
        else:
            body = json.dumps(payload,
                              separators=(",", ":")).encode("utf-8")
            content_type = "application/json"
        head = ("HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %d\r\n"
                "Connection: %s\r\n"
                % (status, _REASONS.get(status, "Unknown"), content_type,
                   len(body),
                   "keep-alive" if keep_alive else "close"))
        if status == 503:
            head += "Retry-After: %d\r\n" % self.retry_after_hint()
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()

    def retry_after_hint(self) -> int:
        """Seconds a shed client should back off before retrying.

        The queue drains one batch at a time, so the backlog clears in
        roughly ``ceil(pending / max_batch)`` dispatches of the recent
        mean batch duration, after one collection window.  Advise the
        ceiling of that (at least 1s — sub-second Retry-After rounds to
        0 and invites an immediate retry into the same full queue).
        """
        coalescer = self.coalescer
        batches_left = math.ceil(coalescer.pending
                                 / max(1, coalescer.max_batch))
        completed = coalescer.batches_total
        mean_batch = (coalescer.batch_seconds_total / completed
                      if completed else 0.0)
        drain = coalescer.window_seconds + batches_left * mean_batch
        return max(1, math.ceil(drain))

    async def _route(self, method: str, target: str,
                     body: bytes) -> tuple[int, dict]:
        self.requests_total += 1
        self.inflight += 1
        started = time.perf_counter()
        try:
            return await self._route_inner(method, target, body)
        finally:
            elapsed = time.perf_counter() - started
            self.inflight -= 1
            self.latency_count += 1
            self.latency_seconds_total += elapsed
            if elapsed > self.latency_seconds_max:
                self.latency_seconds_max = elapsed

    async def _route_inner(self, method: str, target: str,
                           body: bytes) -> tuple[int, dict]:
        path = target.split("?", 1)[0]
        try:
            if path == "/healthz":
                if method != "GET":
                    return 405, {"error": "use GET"}
                payload = self.engine.describe()
                if self.shard_label is not None:
                    payload["shard"] = self.shard_label
                return 200, payload
            if path == "/stats":
                if method != "GET":
                    return 405, {"error": "use GET"}
                return 200, self._stats_payload()
            if path == "/query":
                if method != "POST":
                    return 405, {"error": "use POST"}
                return await self._handle_query(body)
            if path == "/query_top_k":
                if method != "POST":
                    return 405, {"error": "use POST"}
                return await self._handle_top_k(body)
            if path == "/signatures":
                if method != "POST":
                    return 405, {"error": "use POST"}
                return await self._handle_signatures(body)
            if path == "/snapshot":
                if method != "GET":
                    return 405, {"error": "use GET"}
                return await self._handle_snapshot()
            if path == "/insert":
                if method != "POST":
                    return 405, {"error": "use POST"}
                return await self._handle_insert(body)
            if path == "/remove":
                if method != "POST":
                    return 405, {"error": "use POST"}
                return await self._handle_remove(body)
            return 404, {"error": "no route for %s" % path}
        except RequestError as exc:
            return 400, {"error": str(exc)}
        except OverloadedError as exc:
            return 503, {"error": "overloaded", "detail": str(exc),
                         "retry_after": self.retry_after_hint()}
        except WriteQuorumError as exc:
            return 503, {"error": "write quorum", "detail": str(exc)}
        except ShardUnavailableError as exc:
            return 503, {"error": "shard unavailable",
                         "detail": str(exc)}
        except EpochConsistencyError as exc:
            return 503, {"error": "epoch consistency",
                         "detail": str(exc)}
        except Exception as exc:  # noqa: BLE001 — serving must not die
            return 500, {"error": "%s: %s" % (type(exc).__name__, exc)}

    def _stats_payload(self) -> dict:
        payload = self.engine.stats()
        payload["cache"] = self.cache.stats()
        payload["coalescer"] = self.coalescer.stats()
        count = self.latency_count
        payload["http"] = {
            "requests_total": self.requests_total,
            "responses_by_status": dict(self.responses_by_status),
            "inflight": self.inflight,
            "latency": {
                "count": count,
                "total_seconds": self.latency_seconds_total,
                "mean_seconds": (self.latency_seconds_total / count
                                 if count else 0.0),
                "max_seconds": self.latency_seconds_max,
            },
        }
        return payload

    # ------------------------------------------------------------------ #
    # Query handling
    # ------------------------------------------------------------------ #

    def _parse_item(self, item: dict, what: str) -> tuple[LeanMinHash, int]:
        """One query / entry object as ``(signature, size)``: a raw
        ``signature`` (+ ``seed``, optional ``size``) or a ``values``
        set hashed server-side.  ``what`` names the item in errors."""
        if "signature" in item:
            signature = item["signature"]
            if (not isinstance(signature, list)
                    or len(signature) != self._factory.num_perm):
                raise RequestError(
                    "signature must be an array of %d hash values"
                    % self._factory.num_perm)
            try:
                row = np.asarray(signature, dtype=np.uint64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise RequestError("bad signature values: %s" % exc)
            seed = item.get("seed", 1)
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise RequestError("seed must be an integer")
            lean = LeanMinHash(seed=seed, hashvalues=row)
            size = item.get("size")
            if size is None:
                size = max(1, int(lean.count()))
        elif "values" in item:
            values = item["values"]
            if not isinstance(values, list) or not values:
                raise RequestError("values must be a non-empty array")
            try:
                distinct = set(values)
            except TypeError:
                raise RequestError(
                    "values must be hashable (strings or numbers)")
            # Not through the factory: its value-hash cache would keep
            # every value any client ever sent for the life of the server.
            lean = LeanMinHash(MinHash.from_values(
                distinct, num_perm=self._factory.num_perm,
                seed=self._factory.seed))
            size = len(distinct)
        else:
            raise RequestError(
                "each %s needs a \"signature\" or \"values\" field" % what)
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise RequestError("size must be an integer >= 1")
        return lean, size

    def _parse_queries(self, data: dict) -> list[tuple[np.ndarray, int,
                                                       int]]:
        """Normalise the ``queries`` array to ``(row, seed, size)``."""
        queries = data.get("queries")
        if not isinstance(queries, list) or not queries:
            raise RequestError("queries must be a non-empty array")
        if len(queries) > MAX_QUERIES_PER_REQUEST:
            raise RequestError(
                "too many queries in one request (%d > %d)"
                % (len(queries), MAX_QUERIES_PER_REQUEST))
        parsed = []
        for item in queries:
            if not isinstance(item, dict):
                raise RequestError("each query must be a JSON object")
            lean, size = self._parse_item(item, "query")
            parsed.append((lean.hashvalues, int(lean.seed), size))
        return parsed

    async def _answer(self, group_key_of, parsed) -> tuple[int, dict]:
        """Shared cache → coalescer → response path for both POST routes.

        ``group_key_of(seed)`` builds the coalescing group key (which
        pins every query parameter except the signature itself).  The
        epoch is read *before* any query dispatches: a result computed
        later can only reflect state at that epoch or newer, and any
        newer state has already bumped the epoch — so an entry cached
        under epoch E is never stale for a reader observing E.  (The
        converse imprecision is accepted: under a mutation racing the
        dispatch, a response labelled E may reflect slightly fresher
        state; reading the epoch *after* dispatch instead would cache
        genuinely stale results under the new epoch, which is the
        failure mode that actually matters.)
        """
        epoch = self.engine.mutation_epoch
        cached_flags = []
        results: list = [None] * len(parsed)
        pending: list[tuple[int, bytes, asyncio.Future]] = []
        for j, (row, seed, size) in enumerate(parsed):
            group_key = group_key_of(seed)
            digest = self.engine.digest(group_key, row, size)
            hit = self.cache.get((digest, epoch))
            if hit is not MISS:
                results[j] = hit
                cached_flags.append(True)
            else:
                cached_flags.append(False)
                pending.append((j, digest, asyncio.ensure_future(
                    self.coalescer.submit(group_key, (row, size)))))
        if pending:
            answers = await asyncio.gather(
                *(future for _, __, future in pending),
                return_exceptions=True)
            for (j, digest, _), answer in zip(pending, answers):
                if isinstance(answer, BaseException):
                    raise answer
                results[j] = answer
                self.cache.put((digest, epoch), answer)
        return 200, self._finalise_payload({
            "mutation_epoch": epoch,
            "generation": self.engine.generation,
            "cached": cached_flags,
            "results": results,
        })

    def _finalise_payload(self, payload: dict) -> dict:
        """Last touch on a query response before it is serialised;
        subclasses (the router) re-label the epoch and attach
        degradation markers here."""
        return payload

    async def _handle_query(self, body: bytes) -> tuple[int, dict]:
        data = _parse_body(body)
        threshold = _parse_threshold(data)
        parsed = self._parse_queries(data)
        return await self._answer(
            lambda seed: ("query", seed, threshold), parsed)

    async def _handle_top_k(self, body: bytes) -> tuple[int, dict]:
        data = _parse_body(body)
        k, min_threshold = _parse_top_k_params(data)
        parsed = self._parse_queries(data)
        return await self._answer(
            lambda seed: ("top_k", seed, k, min_threshold), parsed)

    # ------------------------------------------------------------------ #
    # Distributed-tier endpoints
    # ------------------------------------------------------------------ #

    def _signatures_snapshot(self, wanted: list) -> tuple[int, list]:
        # Same pre-read rule as _answer: data fetched after the epoch
        # read can only be as-new-or-newer than the label.
        epoch = self.engine.mutation_epoch
        pool, sizes = self.engine.executor.signatures_for(wanted)
        found = [[key, int(signature.seed), int(sizes[key]),
                  [int(v) for v in signature.hashvalues]]
                 for key, signature in pool.items()]
        return epoch, found

    async def _handle_signatures(self, body: bytes) -> tuple[int, dict]:
        from repro.serve.remote import restore_key

        data = _parse_body(body)
        keys = data.get("keys")
        if not isinstance(keys, list):
            raise RequestError("keys must be an array")
        if len(keys) > MAX_KEYS_PER_REQUEST:
            raise RequestError(
                "too many keys in one request (%d > %d)"
                % (len(keys), MAX_KEYS_PER_REQUEST))
        wanted = [restore_key(key) for key in keys]
        loop = asyncio.get_running_loop()
        epoch, found = await loop.run_in_executor(
            None, self._signatures_snapshot, wanted)
        return 200, {"mutation_epoch": epoch, "found": found}

    async def _handle_snapshot(self) -> tuple[int, dict | bytes]:
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(
            None, self.engine.executor.snapshot_bytes)
        if payload is None:
            return 404, {"error": "this topology has no snapshot"}
        return 200, payload

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def _parse_entries(self, data: dict) -> list[tuple]:
        """Normalise the ``entries`` array to ``(key, lean, size)``."""
        from repro.serve.remote import restore_key

        entries = data.get("entries")
        if not isinstance(entries, list) or not entries:
            raise RequestError("entries must be a non-empty array")
        if len(entries) > MAX_QUERIES_PER_REQUEST:
            raise RequestError(
                "too many entries in one request (%d > %d)"
                % (len(entries), MAX_QUERIES_PER_REQUEST))
        parsed = []
        for item in entries:
            if not isinstance(item, dict) or "key" not in item:
                raise RequestError(
                    "each entry must be an object with a \"key\" field")
            lean, size = self._parse_item(item, "entry")
            if lean.seed != self._factory.seed:
                # Stored entries share one permutation seed; an insert
                # under a different seed would never compare
                # meaningfully against the rest of the corpus.
                raise RequestError(
                    "signature seed %d does not match the index "
                    "seed %d" % (lean.seed, self._factory.seed))
            parsed.append((restore_key(item["key"]), lean, size))
        return parsed

    async def _handle_insert(self, body: bytes) -> tuple[int, dict]:
        data = _parse_body(body)
        parsed = self._parse_entries(data)
        loop = asyncio.get_running_loop()
        applied, epoch = await loop.run_in_executor(
            None, self.engine.executor.insert_entries, parsed)
        return 200, {"applied": [bool(flag) for flag in applied],
                     "mutation_epoch": int(epoch)}

    async def _handle_remove(self, body: bytes) -> tuple[int, dict]:
        from repro.serve.remote import restore_key

        data = _parse_body(body)
        keys = data.get("keys")
        if not isinstance(keys, list) or not keys:
            raise RequestError("keys must be a non-empty array")
        if len(keys) > MAX_KEYS_PER_REQUEST:
            raise RequestError(
                "too many keys in one request (%d > %d)"
                % (len(keys), MAX_KEYS_PER_REQUEST))
        wanted = [restore_key(key) for key in keys]
        loop = asyncio.get_running_loop()
        removed, epoch = await loop.run_in_executor(
            None, self.engine.executor.remove_keys, wanted)
        return 200, {"removed": [bool(flag) for flag in removed],
                     "mutation_epoch": int(epoch)}


# --------------------------------------------------------------------- #
# Background-thread harness (tests, benchmarks, demos)
# --------------------------------------------------------------------- #


class ServerHandle:
    """A running :class:`QueryServer` on a background event loop."""

    def __init__(self) -> None:
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self.server: QueryServer | None = None
        self.error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def engine(self) -> ServingEngine:
        return self.server.engine

    def close(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_in_thread(index, server_factory=QueryServer,
                    **kwargs) -> ServerHandle:
    """Start a :class:`QueryServer` on a daemon thread; returns once the
    socket is bound (so :attr:`ServerHandle.port` is usable immediately).

    ``server_factory`` swaps in a subclass (e.g.
    :class:`~repro.serve.router.RouterServer`, with ``index`` then being
    the :class:`~repro.serve.router.RouterIndex`).
    """
    handle = ServerHandle()

    async def _main() -> None:
        server = server_factory(index, **kwargs)
        try:
            await server.start()
        except BaseException as exc:
            handle.error = exc
            handle._ready.set()
            # The constructor may already own resources (a process
            # pool, the coalescer's worker thread); a failed bind must
            # not leak them.
            await server.aclose()
            raise
        handle.server = server
        handle._loop = asyncio.get_running_loop()
        handle._stop = asyncio.Event()
        handle._ready.set()
        try:
            await handle._stop.wait()
        finally:
            await server.aclose()

    def _runner() -> None:
        try:
            asyncio.run(_main())
        except BaseException as exc:  # surfaced via handle.error
            if handle.error is None:
                handle.error = exc
            handle._ready.set()

    handle._thread = threading.Thread(
        target=_runner, name="lshensemble-server", daemon=True)
    handle._thread.start()
    if not handle._ready.wait(timeout=30):
        raise RuntimeError("server failed to start within 30s")
    if handle.error is not None:
        raise RuntimeError("server failed to start") from handle.error
    return handle
