"""Micro-batching request coalescer for the asyncio serving layer.

Distributed-LSH serving work (Bahmani et al.; NearBucket-LSH) observes
that the network/serving layer dominates end-to-end latency once the
sketch math is fast; the single biggest in-process lever is turning
*concurrent independent requests* into *one vectorised batch*.  The
coalescer holds each arriving query for at most a configurable window
(or until a batch fills), then dispatches the whole group through the
index's ``query_batch`` / ``query_top_k_batch`` — so served throughput
inherits the batch-path speedups instead of paying the single-query
Python overhead per request.

Queries only batch together when they are *answerable together*:
``query_batch`` shares one threshold (and one signature seed) across a
batch, so every submission carries a ``group_key`` and only same-key
requests coalesce.  Distinct groups flush independently.

Admission control: the coalescer tracks queries waiting plus in
flight; beyond ``max_pending`` new submissions are shed with
:class:`OverloadedError` (the HTTP layer maps it to ``503``) instead of
growing an unbounded queue under overload.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

__all__ = ["MicroBatchCoalescer", "OverloadedError"]


class OverloadedError(RuntimeError):
    """The serving queue is full; the request was shed, not queued."""


class MicroBatchCoalescer:
    """Collect concurrent submissions into per-group batches.

    Parameters
    ----------
    dispatch:
        ``dispatch(group_key, payloads) -> results`` (one result per
        payload, aligned).  Runs on a single worker thread, so batches
        execute sequentially — exactly one index probe at a time.
    max_batch:
        Dispatch a group as soon as it holds this many queries.  ``1``
        disables coalescing (every query dispatches immediately): the
        sequential baseline the serving benchmark compares against.
    window_seconds:
        How long the first query of a batch may wait for company.
    max_pending:
        Bound on queries waiting + in flight; submissions beyond it
        raise :class:`OverloadedError`.
    """

    def __init__(self, dispatch, *, max_batch: int = 64,
                 window_seconds: float = 0.002,
                 max_pending: int = 1024) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if window_seconds < 0:
            raise ValueError("window_seconds must be >= 0")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self._dispatch = dispatch
        self.max_batch = int(max_batch)
        self.window_seconds = float(window_seconds)
        self.max_pending = int(max_pending)
        self._groups: dict = {}  # group_key -> list[(payload, future)]
        # Each group owns its deadline: a group whose first query lands
        # late in another group's window must still get a full
        # ``window_seconds`` of collection time.
        self._timers: dict = {}  # group_key -> asyncio.TimerHandle
        self._tasks: set[asyncio.Task] = set()
        self._pending = 0
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="lshensemble-serve")
        self._closed = False
        # Counters are touched from the event loop only; the stats
        # *reader* may be another thread, hence the snapshot lock-free
        # dict copy in stats() (ints are immutable snapshots).
        self.requests_total = 0
        self.dispatched_total = 0  # requests handed to a batch (at flush)
        self.batches_total = 0  # batches completed
        self.batches_dispatched = 0
        self.shed_total = 0
        self.coalesced_total = 0  # requests that shared their batch
        self.largest_batch = 0
        self.batch_seconds_total = 0.0  # dispatch wall time, completed
        self._batch_size_hist: dict[int, int] = {}

    @property
    def pending(self) -> int:
        """Queries admitted but not yet answered (queued + in flight)."""
        return self._pending

    async def submit(self, group_key, payload):
        """Queue one query; resolves to its result once its batch ran."""
        if self._closed:
            raise RuntimeError("coalescer is closed")
        if self._pending >= self.max_pending:
            self.shed_total += 1
            raise OverloadedError(
                "serving queue full (%d pending)" % self._pending)
        loop = asyncio.get_running_loop()
        self._pending += 1
        self.requests_total += 1
        future = loop.create_future()
        group = self._groups.setdefault(group_key, [])
        group.append((payload, future))
        if len(group) >= self.max_batch or self.window_seconds == 0:
            self._flush_group(group_key)
        elif len(group) == 1:
            self._timers[group_key] = loop.call_later(
                self.window_seconds, self._on_window, group_key)
        return await future

    def _on_window(self, group_key) -> None:
        self._timers.pop(group_key, None)
        self._flush_group(group_key)

    def _flush_group(self, group_key) -> None:
        batch = self._groups.pop(group_key, None)
        timer = self._timers.pop(group_key, None)
        if timer is not None:
            timer.cancel()
        if not batch:
            return
        self.dispatched_total += len(batch)
        self.batches_dispatched += 1
        size = len(batch)
        self._batch_size_hist[size] = self._batch_size_hist.get(size, 0) + 1
        task = asyncio.get_running_loop().create_task(
            self._run(group_key, batch))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _flush_all(self) -> None:
        for group_key in list(self._groups):
            self._flush_group(group_key)

    async def _run(self, group_key, batch) -> None:
        payloads = [payload for payload, _ in batch]
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            results = await loop.run_in_executor(
                self._executor, self._dispatch, group_key, payloads)
            if len(results) != len(batch):
                raise RuntimeError(
                    "dispatch returned %d results for %d queries"
                    % (len(results), len(batch)))
        except Exception as exc:
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
        else:
            for (_, future), result in zip(batch, results):
                if not future.done():
                    future.set_result(result)
        finally:
            self._pending -= len(batch)
            self.batches_total += 1
            self.batch_seconds_total += loop.time() - started
            if len(batch) > 1:
                self.coalesced_total += len(batch)
            if len(batch) > self.largest_batch:
                self.largest_batch = len(batch)

    async def aclose(self) -> None:
        """Flush whatever is queued, wait it out, stop the worker."""
        self._closed = True
        self._flush_all()
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
        self._executor.shutdown(wait=True)

    def stats(self) -> dict:
        # mean_batch_size divides dispatch-time counters: queued /
        # in-flight submissions (counted by requests_total already)
        # must not inflate the batch sizes actually formed.
        dispatched = self.batches_dispatched
        completed = self.batches_total
        return {
            "max_batch": self.max_batch,
            "window_seconds": self.window_seconds,
            "max_pending": self.max_pending,
            "pending": self.pending,
            "requests_total": self.requests_total,
            "dispatched_total": self.dispatched_total,
            "batches_total": completed,
            "batches_dispatched": dispatched,
            "shed_total": self.shed_total,
            "coalesced_total": self.coalesced_total,
            "largest_batch": self.largest_batch,
            "mean_batch_size": (self.dispatched_total / dispatched
                                if dispatched else 0.0),
            "mean_batch_seconds": (self.batch_seconds_total / completed
                                   if completed else 0.0),
            "batch_size_hist": dict(self._batch_size_hist),
        }
