"""Open-loop load driver: replay a schedule against a living server.

Reads travel over real HTTP (persistent keep-alive connections, a
bounded worker pool) so the measured path is the one production
traffic takes — parser, cache, coalescer, executor and all.  Mutations
run in-process against the served index on a dedicated single-thread
executor, exactly like an operator mutating a live index: they race the
read path through the index's own locks and bump the mutation epoch the
cache keys on.

The driver is *open-loop*: events fire at their scheduled instants
regardless of how the server is coping, so queue growth shows up as
tail latency and shed 503s instead of silently throttling the offered
load (the closed-loop mistake).  After the last event the run drains —
all in-flight requests complete, the coalescer empties — before the
server's counters are snapshotted, so percentiles and batch statistics
describe the whole run, not a truncation of it.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from repro.loadgen.profile import TrafficProfile
from repro.loadgen.report import RequestRecord, build_report
from repro.loadgen.schedule import ScheduledOp, build_schedule
from repro.minhash.generator import SignatureFactory

__all__ = ["run_load", "run_against_index", "build_query_pool"]

_POOL_STREAM = 5  # rng stream for query-pool sampling


def _flat_indexes(index) -> list:
    return list(index.shards) if hasattr(index, "shards") else [index]


def _signature_seed(index) -> int:
    for shard in _flat_indexes(index):
        for key in shard.keys():
            return int(shard.get_signature(key).seed)
    return 1


def build_query_pool(index, profile: TrafficProfile,
                     ) -> list[tuple[str, str]]:
    """``query_pool`` pre-serialised ``(query_body, top_k_body)`` pairs.

    Sampled deterministically (keys sorted by ``str``, seeded rng) from
    the index's own signatures, so a schedule's zipf rank always maps
    to the same request body for the same index + seed.
    """
    pairs = []
    for shard in _flat_indexes(index):
        for key in shard.keys():
            pairs.append((str(key), key, shard))
    if not pairs:
        raise ValueError("cannot load-test an empty index")
    pairs.sort(key=lambda item: item[0])
    rng = np.random.default_rng([profile.seed, _POOL_STREAM])
    picks = rng.choice(len(pairs), size=profile.query_pool, replace=True)
    bodies = []
    for i in picks:
        _, key, shard = pairs[int(i)]
        signature = shard.get_signature(key)
        query = {"signature": [int(v) for v in signature.hashvalues],
                 "seed": int(signature.seed),
                 "size": int(shard.size_of(key))}
        bodies.append((
            json.dumps({"queries": [query],
                        "threshold": profile.threshold}),
            json.dumps({"queries": [query], "k": profile.k,
                        "min_threshold": profile.min_threshold}),
        ))
    return bodies


class _Mutator:
    """Applies the schedule's mutation stream to the served index."""

    def __init__(self, index, profile: TrafficProfile,
                 prefix: str) -> None:
        self._index = index
        self._factory = SignatureFactory(
            num_perm=_flat_indexes(index)[0].num_perm,
            seed=_signature_seed(index))
        self._prefix = prefix
        self._inserted: deque = deque()
        self.skipped_removes = 0

    def apply(self, op: ScheduledOp) -> bool:
        if op.kind == "insert":
            key = "%s:%d" % (self._prefix, op.arg)
            size = 10 + (op.arg * 7) % 90
            values = {"%s:%d:%d" % (self._prefix, op.arg, v)
                      for v in range(size)}
            self._index.insert(key, self._factory.lean(values), size)
            self._inserted.append(key)
            return True
        if op.kind == "remove":
            if not self._inserted:
                # Nothing this run inserted is left to remove; removing
                # corpus keys would make runs non-comparable.
                self.skipped_removes += 1
                return False
            self._index.remove(self._inserted.popleft())
            return True
        if op.kind == "rebalance":
            self._index.rebalance()
            return True
        raise ValueError("unknown mutation kind %r" % (op.kind,))


class _ConnectionPool:
    """Persistent keep-alive HTTP connections handed out per request."""

    def __init__(self, host: str, port: int, size: int) -> None:
        self._host = host
        self._port = port
        self._queue: queue.Queue = queue.Queue()
        for _ in range(size):
            self._queue.put(self._fresh())

    def _fresh(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self._host, self._port,
                                          timeout=30)

    def post(self, path: str, body: str) -> tuple[int, dict]:
        conn = self._queue.get()
        try:
            try:
                conn.request("POST", path, body,
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read())
                return response.status, payload
            except (http.client.HTTPException, OSError,
                    json.JSONDecodeError):
                # The server may legitimately close an idle keep-alive
                # connection; retry once on a fresh one before calling
                # it an error.
                conn.close()
                conn = self._fresh()
                conn.request("POST", path, body,
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read())
                return response.status, payload
        finally:
            self._queue.put(conn)

    def close(self) -> None:
        while True:
            try:
                self._queue.get_nowait().close()
            except queue.Empty:
                return


def run_load(index, profile: TrafficProfile, *, port: int,
             host: str = "127.0.0.1", server=None,
             schedule: list[ScheduledOp] | None = None,
             concurrency: int | None = None,
             mutation_prefix: str = "loadgen",
             executor_label: str = "thread",
             stats_fn: Callable[[], dict] | None = None) -> dict:
    """Replay ``profile`` against the server on ``host:port``.

    ``index`` must be the object the server serves (mutations apply to
    it directly).  ``server`` (a :class:`~repro.serve.server.QueryServer`)
    enables the post-run drain check and counter snapshot without
    perturbing the HTTP counters; ``stats_fn`` overrides where the
    snapshot comes from.  Returns the JSON-ready report dict.
    """
    if schedule is None:
        schedule = build_schedule(profile)
    if concurrency is None:
        import os
        concurrency = max(8, min(64, 4 * (os.cpu_count() or 1)))
    bodies = build_query_pool(index, profile)
    connections = _ConnectionPool(host, port, concurrency)
    mutator = _Mutator(index, profile, mutation_prefix)
    records: list[RequestRecord] = []
    records_lock = threading.Lock()
    epoch_before = int(index.mutation_epoch)

    t0 = time.perf_counter()

    def read_task(op: ScheduledOp) -> None:
        body = bodies[op.arg][1 if op.kind == "top_k" else 0]
        path = "/query_top_k" if op.kind == "top_k" else "/query"
        dispatched = time.perf_counter()
        try:
            status, payload = connections.post(path, body)
        except (http.client.HTTPException, OSError,
                json.JSONDecodeError):
            status, payload = -1, {}
        finished = time.perf_counter()
        cached = payload.get("cached", []) if status == 200 else []
        with records_lock:
            records.append(RequestRecord(
                stage=op.stage, kind=op.kind, status=status,
                ok=status == 200, shed=status == 503,
                scheduled_at=op.at,
                total_seconds=finished - (t0 + op.at),
                service_seconds=finished - dispatched,
                queries=1, cache_hits=sum(bool(c) for c in cached)))

    def mutation_task(op: ScheduledOp) -> None:
        dispatched = time.perf_counter()
        try:
            applied = mutator.apply(op)
            ok = True
        except Exception:  # noqa: BLE001 — reported as an error count
            applied, ok = False, False
        finished = time.perf_counter()
        if not applied and ok:
            return  # skipped remove: counted by the mutator, not a row
        with records_lock:
            records.append(RequestRecord(
                stage=op.stage, kind=op.kind, status=0, ok=ok,
                shed=False, scheduled_at=op.at,
                total_seconds=finished - (t0 + op.at),
                service_seconds=finished - dispatched,
                queries=0, cache_hits=0))

    readers = ThreadPoolExecutor(max_workers=concurrency,
                                 thread_name_prefix="loadgen-read")
    # One mutator thread: mutations must apply in schedule order (a
    # remove targets keys an earlier insert created).
    writers = ThreadPoolExecutor(max_workers=1,
                                 thread_name_prefix="loadgen-mutate")
    try:
        for op in schedule:
            delay = (t0 + op.at) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if op.kind in ("query", "top_k"):
                readers.submit(read_task, op)
            else:
                writers.submit(mutation_task, op)
    finally:
        readers.shutdown(wait=True)
        writers.shutdown(wait=True)
        connections.close()

    if server is not None:
        _drain(server)
    duration = time.perf_counter() - t0
    if stats_fn is not None:
        server_stats = stats_fn()
    elif server is not None:
        server_stats = server._stats_payload()
    else:
        server_stats = _http_stats(host, port)
    return build_report(
        profile, records, executor=executor_label,
        duration_seconds=duration, server_stats=server_stats,
        epoch_delta=int(index.mutation_epoch) - epoch_before,
        skipped_removes=mutator.skipped_removes)


def _drain(server, timeout: float = 10.0) -> None:
    """Wait until no request is in flight and the coalescer is empty."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.inflight == 0 and server.coalescer.pending == 0:
            return
        time.sleep(0.01)


def _http_stats(host: str, port: int) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def run_against_index(index, profile: TrafficProfile, *,
                      executor: str = "thread",
                      workers: int | None = None,
                      start_method: str | None = None,
                      max_batch: int = 64, window_ms: float = 2.0,
                      cache_size: int = 4096, max_pending: int = 1024,
                      concurrency: int | None = None,
                      mmap: bool = True) -> dict:
    """Stand a server up over ``index``, run ``profile``, tear down.

    The convenience entry behind the CLI ``loadtest`` subcommand.  A
    sharded cluster must already carry its own executor (see
    :class:`~repro.serve.server.QueryServer`); flat indexes are wrapped
    per ``executor`` here.
    """
    from repro.serve import start_in_thread

    sharded = hasattr(index, "shards")
    with start_in_thread(
            index, max_batch=max_batch, window_ms=window_ms,
            cache_size=cache_size, max_pending=max_pending,
            executor="thread" if sharded else executor,
            workers=workers, start_method=start_method,
            mmap=mmap) as handle:
        return run_load(
            index, profile, port=handle.port, server=handle.server,
            concurrency=concurrency,
            mutation_prefix="loadgen-%s-%s" % (profile.name, executor),
            executor_label=handle.server.engine.executor.kind)
