"""Process-parallel query execution over shared mmap segments.

Every in-process hot path in this codebase — flat ``query_batch``,
the serve coalescer's worker thread — executes Python under one GIL,
so CPU-bound band hashing and bucket probing serialise no matter how
many cores the box has.  The distributed-LSH literature (Bahmani et
al.; the scalable-LSH multimedia systems) gets near-linear speedup by
letting independent workers probe shards over *shared read-only
storage*; the v2 zero-copy columnar snapshot format is exactly that
substrate in this repo.  This module supplies the worker side of the bargain:

* :class:`ProcPool` — a small crash-tolerant pool of worker
  *processes*.  Each worker opens the same v2 snapshot segments through
  :func:`repro.persistence.load_ensemble` with ``mmap=True``: the
  signature matrix is an ``np.memmap`` of the shared file, so the OS
  page cache holds **one** copy of the signature bytes regardless of
  the worker count (only the per-worker bucket arrays are private).
  Workers that die mid-task are respawned and their tasks retried on a
  healthy worker — the caller always gets complete, bit-correct
  results or an exception, never a silent partial answer.

* :class:`PooledIndex` — the parent-side adapter around one built
  :class:`~repro.core.ensemble.LSHEnsemble`.  It spills the immutable
  base tier to a segment file once (reusing an existing snapshot when
  the index was loaded from one), then answers ``query_batch`` /
  ``query_top_k_batch`` by slicing batch rows across the pool (the
  single-query forms are one-row batches).

**Mutation-while-serving stays safe** through two version checks,
captured atomically under the index lock at dispatch time:

* the *base token* names the spilled base segment; ``rebalance()``
  changes the physical base, so the next dispatch spills a fresh
  segment and bumps the token — a worker seeing an unknown token
  re-opens the segment from disk before answering;
* the *overlay* carries the dynamic tiers — ``mutation_epoch``,
  tombstones, and the delta tier as in-memory columnar arrays
  (:func:`repro.persistence.export_columnar`).  A worker whose applied
  epoch differs restores its pristine base state and re-applies the
  shipped overlay, so every answer reflects exactly the epoch the
  parent captured, never an older one.

The delta tier is shipped *by value* with every task (deltas force
payload shipping: they exist only in parent memory until a save).  The
payload is O(delta), which the two-tier design keeps small; fold a
large delta into the base with ``rebalance()`` — the next dispatch
then hands workers a fresh segment instead.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import shutil
import tempfile
import threading
import time
import traceback
from collections import OrderedDict, deque
from collections.abc import Sequence
from multiprocessing import connection as mp_connection
from pathlib import Path

import numpy as np

from repro.core.querycore import QuerySurface, normalise_queries

__all__ = ["ProcPool", "PooledIndex", "RemoteTaskError",
           "WorkerCrashError", "default_start_method"]

# Start-method override for the whole process tree; the CI matrix sets
# it to run the multiprocess suite under both fork and spawn (spawn =
# macOS/Windows semantics).
START_METHOD_ENV = "REPRO_PROCPOOL_START_METHOD"

# Worker-side bound on cached open segments: a pool shared by many
# PooledIndex sources must not accumulate unbounded per-source bucket
# arrays.
_SOURCE_CACHE_SIZE = 8

_WORKER_CRASH_EXIT = 17  # fault-injection exit code (tests)


def default_start_method() -> str | None:
    """The configured start method (env override), or None for the
    platform default (fork on Linux, spawn on macOS/Windows)."""
    return os.environ.get(START_METHOD_ENV) or None


class RemoteTaskError(RuntimeError):
    """A task raised inside a worker process.

    ``remote_traceback`` carries the worker-side traceback text — the
    worker survives (only crashes are retried; exceptions are answers).
    """

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback


class WorkerCrashError(RuntimeError):
    """A task crashed its worker more times than the retry budget."""


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


class _SourceState:
    """One opened base segment inside a worker, plus its overlay state."""

    __slots__ = ("token", "index", "pristine", "applied_epoch")

    def __init__(self, token: int, index, pristine: tuple) -> None:
        self.token = token
        self.index = index
        self.pristine = pristine
        self.applied_epoch: int | None = None


def _capture_dynamic_fields(index) -> tuple:
    """Snapshot every field the overlay application mutates.

    ``_attach_dynamic_state_locked`` adjusts the drift counters and
    attaches the tiers; ``_resolve_live_max_locked`` (triggered by
    tombstones on the first probe) rewrites the per-partition tuning
    bounds.  Capturing them once at load lets the worker revert to the
    pristine base and re-apply a *newer* overlay without re-reading the
    segment.
    """
    with index.locked():
        return (list(index._base_live_counts), list(index._moments),
                set(index._tombstones), index._live_max_dirty,
                index._delta, list(index._delta_routed_counts),
                index._generation, list(index._partition_max_size),
                index._mutation_epoch)


def _restore_dynamic_fields(index, saved: tuple) -> None:
    with index.locked():
        (index._base_live_counts, index._moments, index._tombstones,
         index._live_max_dirty, index._delta,
         index._delta_routed_counts, index._generation,
         index._partition_max_size, index._mutation_epoch) = (
            list(saved[0]), list(saved[1]), set(saved[2]), saved[3],
            saved[4], list(saved[5]), saved[6], list(saved[7]),
            saved[8])


def _apply_overlay(index, overlay: dict) -> None:
    """Attach the shipped dynamic tiers to a pristine base index."""
    from repro.persistence import import_columnar

    delta_spec = overlay.get("delta")
    delta_index = None
    if delta_spec is not None:
        delta_index = import_columnar(
            delta_spec, partitioner=index._partitioner,
            kernel=index._kernel)
    with index.locked():
        index._attach_dynamic_state_locked(
            overlay.get("tombstones") or (), delta_index,
            int(overlay.get("generation", 0)))
        index._mutation_epoch = int(overlay["epoch"])


def _source_index(sources: OrderedDict, source: dict, overlay: dict):
    """The worker's index for one task: open/refresh base, sync overlay."""
    from repro.persistence import load_ensemble

    sid = source["id"]
    state = sources.get(sid)
    if state is not None and state.token != int(source["token"]):
        # The parent re-spilled the base (rebalance): the cached index
        # answers for a dead generation — re-open the segment.
        del sources[sid]
        state = None
    if state is None:
        index = load_ensemble(source["path"],
                              mmap=bool(source.get("mmap", True)))
        state = _SourceState(int(source["token"]), index,
                             _capture_dynamic_fields(index))
        sources[sid] = state
        while len(sources) > _SOURCE_CACHE_SIZE:
            sources.popitem(last=False)
    else:
        sources.move_to_end(sid)
    epoch = int(overlay["epoch"])
    if state.applied_epoch != epoch:
        # Epoch bump detected: drop whatever overlay this worker served
        # last and apply the one captured with *this* task, so the
        # answer can never reflect pre-mutation state.
        _restore_dynamic_fields(state.index, state.pristine)
        if overlay.get("tombstones") or overlay.get("delta") is not None:
            _apply_overlay(state.index, overlay)
        else:
            with state.index.locked():
                state.index._mutation_epoch = epoch
        state.applied_epoch = epoch
    return state.index


def _execute_task(sources: OrderedDict, task: dict):
    from repro.minhash.batch import SignatureBatch

    method = task["method"]
    args = task["args"]
    if method == "_echo":
        # Test-only method: lets the fault suite park a worker inside a
        # task deterministically (no index involved).
        delay = args.get("delay", 0.0)
        if delay:
            time.sleep(delay)
        return args.get("value")
    index = _source_index(sources, task["source"], task["overlay"])
    if method not in ("query_batch", "query_top_k_batch"):
        raise ValueError("unknown task method %r" % (method,))
    batch = SignatureBatch(None,
                           np.asarray(args["matrix"], dtype=np.uint64),
                           seed=int(args["seed"]))
    if method == "query_batch":
        return index.query_batch(batch, sizes=args["sizes"],
                                 threshold=args["threshold"])
    return index.query_top_k_batch(batch, args["k"], sizes=args["sizes"],
                                   min_threshold=args["min_threshold"])


def _worker_main(conn) -> None:
    """Worker loop: recv task, execute, send result; exceptions are
    answers (sent back), only crashes kill the process."""
    sources: OrderedDict = OrderedDict()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _, task_id, attempt, task = msg
        crash_on = task.get("_crash_on_attempts")
        if crash_on is not None and attempt in crash_on:
            # Fault injection (tests): die like a SIGKILL'd worker —
            # no cleanup, no reply, connection just goes dead.
            os._exit(_WORKER_CRASH_EXIT)
        try:
            result = _execute_task(sources, task)
        except BaseException as exc:  # noqa: BLE001 — relayed to parent
            try:
                conn.send(("err", task_id,
                           "%s: %s" % (type(exc).__name__, exc),
                           traceback.format_exc()))
            except Exception:
                os._exit(1)
        else:
            try:
                conn.send(("ok", task_id, result))
            except Exception:
                os._exit(1)


# --------------------------------------------------------------------- #
# Parent side: the pool
# --------------------------------------------------------------------- #


class _Worker:
    __slots__ = ("proc", "conn", "slot")

    def __init__(self, proc, conn, slot: int) -> None:
        self.proc = proc
        self.conn = conn
        self.slot = slot


class ProcPool:
    """A crash-tolerant pool of query worker processes.

    Parameters
    ----------
    num_workers:
        Worker process count; defaults to ``os.cpu_count()``.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; defaults to the
        ``REPRO_PROCPOOL_START_METHOD`` environment variable, then the
        platform default.
    max_retries:
        How many times one task may crash a worker before
        :class:`WorkerCrashError` is raised (exceptions inside a task
        are *not* retried — they are deterministic answers).
    task_timeout:
        Optional per-task wall-clock bound in seconds; a worker that
        exceeds it is killed and the task retried (counts against
        ``max_retries``).  ``None`` (default) trusts the workload.

    ``run(tasks)`` is a synchronous scatter-gather: tasks are dealt to
    idle workers one at a time (so a crashed worker forfeits exactly
    one task), results come back in task order.  Concurrent ``run``
    calls from different threads serialise on an internal lock; within
    one call the workers execute in parallel, which is the point.
    """

    def __init__(self, num_workers: int | None = None, *,
                 start_method: str | None = None, max_retries: int = 2,
                 task_timeout: float | None = None) -> None:
        if num_workers is None:
            num_workers = max(1, os.cpu_count() or 1)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self._ctx = mp.get_context(start_method or default_start_method())
        self.start_method = self._ctx.get_start_method()
        self.num_workers = int(num_workers)
        self.max_retries = int(max_retries)
        self.task_timeout = task_timeout
        self._lock = threading.Lock()
        self._task_ids = itertools.count()
        self._closed = False
        # ``peak_inflight`` is windowed: it measures utilisation of the
        # *current* base segment and restarts from 0 whenever a client
        # re-spills its base (note_base_refresh); the ``_lifetime``
        # twin never resets.
        self._counters = {"runs": 0, "tasks": 0, "retries": 0,
                          "respawns": 0, "peak_inflight": 0,
                          "peak_inflight_lifetime": 0}
        self._workers = [self._spawn(slot)
                         for slot in range(self.num_workers)]

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=_worker_main, args=(child_conn,),
                                 name="lshe-procpool-%d" % slot,
                                 daemon=True)
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn, slot)

    def _respawn(self, worker: _Worker) -> _Worker:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=10)
        self._counters["respawns"] += 1
        replacement = self._spawn(worker.slot)
        self._workers[worker.slot] = replacement
        return replacement

    def note_base_refresh(self) -> None:
        """Open a new ``peak_inflight`` observation window.

        Called when a :class:`PooledIndex` re-spills its base after a
        rebalance: the old peak described load against the previous
        segment, and carrying it forward would overstate utilisation of
        the new one indefinitely.  A plain (GIL-atomic) assignment,
        deliberately *not* under the pool lock — ``run`` holds that
        lock for a whole batch, and this is called under the index
        lock (ordering is index → pool, never the reverse), so
        blocking here could stall mutations behind an unrelated query
        batch.  ``peak_inflight_lifetime`` is untouched.
        """
        self._counters["peak_inflight"] = 0

    def stats(self) -> dict:
        return {"num_workers": self.num_workers,
                "start_method": self.start_method,
                **self._counters}

    @property
    def worker_pids(self) -> list[int]:
        return [w.proc.pid for w in self._workers]

    def run(self, tasks: Sequence[dict]) -> list:
        """Execute every task on the pool; results aligned with tasks.

        Raises :class:`RemoteTaskError` if a task raised in its worker,
        :class:`WorkerCrashError` if a task exhausted its crash-retry
        budget.  Either way the pool stays usable: dead workers are
        respawned, stray replies from abandoned tasks are ignored.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            return self._run_locked(tasks)

    def _run_locked(self, tasks: list) -> list:
        self._counters["runs"] += 1
        n = len(tasks)
        results: list = [None] * n
        done = [False] * n
        attempts = [0] * n
        queue: deque[int] = deque(range(n))
        inflight: dict[_Worker, tuple[int, int, float | None]] = {}
        idle = list(self._workers)
        remaining = n
        failure: BaseException | None = None
        while remaining and failure is None:
            while queue and idle:
                idx = queue.popleft()
                worker = idle.pop()
                task_id = next(self._task_ids)
                try:
                    worker.conn.send(("task", task_id, attempts[idx],
                                      tasks[idx]))
                except (BrokenPipeError, EOFError, OSError):
                    # Died while idle; replace it (unless its slot was
                    # already respawned — then the replacement is
                    # elsewhere in the idle pool) and redo the dispatch.
                    if self._workers[worker.slot] is worker:
                        idle.append(self._respawn(worker))
                    queue.appendleft(idx)
                    continue
                deadline = (time.monotonic() + self.task_timeout
                            if self.task_timeout else None)
                inflight[worker] = (task_id, idx, deadline)
                self._counters["tasks"] += 1
            if len(inflight) > self._counters["peak_inflight"]:
                # Peak concurrent tasks: how much of the pool a load
                # actually keeps busy (utilisation for SLO reports).
                self._counters["peak_inflight"] = len(inflight)
            if len(inflight) > self._counters["peak_inflight_lifetime"]:
                self._counters["peak_inflight_lifetime"] = len(inflight)
            ready = mp_connection.wait(
                [w.conn for w in inflight]
                + [w.proc.sentinel for w in inflight],
                timeout=self._wait_timeout(inflight))
            by_conn = {w.conn: w for w in inflight}
            by_sentinel = {w.proc.sentinel: w for w in inflight}
            dead: list[_Worker] = []
            for obj in ready:
                worker = by_conn.get(obj)
                if worker is None:
                    worker = by_sentinel.get(obj)
                    if worker is not None and worker in inflight:
                        dead.append(worker)
                    continue
                try:
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    dead.append(worker)
                    continue
                kind, task_id = msg[0], msg[1]
                assigned = inflight.get(worker)
                if assigned is None or assigned[0] != task_id:
                    # Stray reply for a task abandoned by an earlier
                    # (failed) run; the worker still owes this run's
                    # answer, so keep it inflight.
                    continue
                inflight.pop(worker)
                idle.append(worker)
                idx = assigned[1]
                if kind == "ok":
                    results[idx] = msg[2]
                    done[idx] = True
                    remaining -= 1
                else:
                    failure = RemoteTaskError(msg[2], msg[3])
                    break
            if failure is not None:
                break
            now = time.monotonic()
            for worker, (_, __, deadline) in list(inflight.items()):
                if (worker not in dead and deadline is not None
                        and now >= deadline):
                    worker.proc.kill()
                    dead.append(worker)
            for worker in dict.fromkeys(dead):
                if self._workers[worker.slot] is not worker:
                    continue  # already replaced this round
                assigned = inflight.pop(worker, None)
                if assigned is None:
                    # Its reply and its death sentinel arrived in the
                    # same wait() round: the task completed and the
                    # worker was already released — pull the corpse
                    # back out of the idle pool before replacing it,
                    # or a later dispatch would respawn the slot a
                    # second time and orphan this replacement.
                    if worker in idle:
                        idle.remove(worker)
                replacement = self._respawn(worker)
                idle.append(replacement)
                if assigned is None:
                    continue
                idx = assigned[1]
                attempts[idx] += 1
                self._counters["retries"] += 1
                if attempts[idx] > self.max_retries:
                    failure = WorkerCrashError(
                        "task crashed its worker %d time(s); giving up"
                        % attempts[idx])
                else:
                    queue.appendleft(idx)
        if failure is not None:
            raise failure
        return results

    def _wait_timeout(self, inflight: dict) -> float | None:
        if not self.task_timeout:
            return None
        deadlines = [deadline for _, __, deadline in inflight.values()
                     if deadline is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def close(self) -> None:
        """Stop every worker (gracefully, then by force)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, EOFError, OSError):
                    pass
            for worker in self._workers:
                worker.proc.join(timeout=5)
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join(timeout=5)
                try:
                    worker.conn.close()
                except OSError:
                    pass

    def __enter__(self) -> "ProcPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------- #
# Parent side: one index served through the pool
# --------------------------------------------------------------------- #

_source_ids = itertools.count()


class PooledIndex(QuerySurface):
    """Serve one built :class:`~repro.core.ensemble.LSHEnsemble`
    through a :class:`ProcPool`, slicing batches across workers.

    Parameters
    ----------
    index:
        A built (or loaded) flat ensemble.  Its partitioner must be
        registry-resolvable — workers re-open the spilled segment
        through :func:`repro.persistence.load_ensemble`.
    pool:
        Share an existing pool (several indexes can run on one pool);
        when omitted a private pool is created (and closed by
        :meth:`close`).
    source_path:
        A v2 snapshot / base segment already on disk whose physical
        base equals ``index``'s (e.g. the file the index was just
        loaded from).  Saves the initial spill; ignored once the index
        rebalances.
    spill_dir:
        Where base segments are spilled; defaults to a private
        temporary directory removed by :meth:`close`.
    slices:
        Row-slices per batch call (defaults to the pool's worker
        count).
    mmap:
        Whether workers memory-map the segment (default) or read it.

    Results are pinned bit-identical to the wrapped index's own query
    paths (per-row independence makes row slicing exact; the property
    suite enforces it).
    """

    def __init__(self, index, pool: ProcPool | None = None, *,
                 num_workers: int | None = None,
                 start_method: str | None = None,
                 source_path: str | Path | None = None,
                 spill_dir: str | Path | None = None,
                 slices: int | None = None, mmap: bool = True) -> None:
        from repro.core.partitioner import partitioner_name

        if getattr(index, "_layout", None) is None:
            raise RuntimeError(
                "the index is empty; call index() (or load one) before "
                "attaching a process pool")
        if partitioner_name(index._partitioner) is None:
            raise ValueError(
                "process workers re-open the index from disk, which "
                "requires a registered partitioner (see "
                "repro.core.partitioner.register_partitioner)")
        self.index = index
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else ProcPool(
            num_workers=num_workers, start_method=start_method)
        self._mmap = bool(mmap)
        self._slices = int(slices) if slices is not None else None
        self._source_id = "pooled-%d-%d" % (os.getpid(),
                                            next(_source_ids))
        self._spill_root = Path(spill_dir) if spill_dir is not None else None
        self._owned_tmp: str | None = None
        self._spill_seq = 0
        self._token = 0
        self._overlay_cache: tuple[int, dict] | None = None
        if source_path is None:
            # A manifest-loaded index remembers its clean physical base
            # segment; reuse it instead of spilling an identical copy
            # (workers then mmap the very same file the parent does).
            source = getattr(index, "_base_source", None)
            if source is not None and Path(source).is_file():
                source_path = source
        if source_path is not None:
            self._base_path: Path | None = Path(source_path)
            self._base_generation: int | None = index._generation
        else:
            self._base_path = None
            self._base_generation = None
        self._closed = False

    # -------------------------- plumbing --------------------------- #

    def _spill_dir(self) -> Path:
        if self._spill_root is None:
            self._owned_tmp = tempfile.mkdtemp(prefix="lshe-procpool-")
            self._spill_root = Path(self._owned_tmp)
        else:
            self._spill_root.mkdir(parents=True, exist_ok=True)
        return self._spill_root

    def _sync_base_locked(self) -> None:
        """Spill the physical base to a fresh segment if it changed.

        The base tier is immutable between rebalances, so this is a
        no-op on the hot path; after a ``rebalance()`` the generation
        moves, a new segment is written, and the bumped token makes
        every worker re-open it (never the stale mapping).
        """
        from repro.persistence import _atomic_write, _save_v2

        index = self.index
        if (self._base_path is not None
                and self._base_generation == index._generation):
            return
        # The source id is embedded in the segment name: several
        # PooledIndex instances may share one spill_dir, and colliding
        # names would silently cross-wire their workers' segments.
        path = self._spill_dir() / ("%s-base-%06d.lshe"
                                    % (self._source_id, self._spill_seq))
        self._spill_seq += 1
        _atomic_write(path, lambda fh: _save_v2(index, fh))
        self._base_path = path
        self._base_generation = index._generation
        self._token += 1
        # New segment, new utilisation window (see note_base_refresh).
        self.pool.note_base_refresh()

    def _tasks(self, method: str, per_task_args: list[dict]) -> list[dict]:
        """One task per args dict, sharing a single atomically captured
        (base token, overlay) pair — all slices answer the same epoch.

        Both the source dict and the overlay are built while holding
        the index lock: pairing them up outside it could combine a
        post-rebalance base with a pre-rebalance overlay captured by a
        racing thread.  The overlay export (O(delta) columnar arrays)
        is cached per epoch — the epoch names the tier contents
        exactly, so read-heavy dispatch streams reuse one snapshot
        until the next mutation.
        """
        index = self.index
        with index.locked():
            self._sync_base_locked()
            epoch = index.mutation_epoch
            if self._overlay_cache is None \
                    or self._overlay_cache[0] != epoch:
                self._overlay_cache = (epoch, index.overlay_snapshot())
            overlay = self._overlay_cache[1]
            source = {"id": self._source_id, "path": str(self._base_path),
                      "token": self._token, "mmap": self._mmap}
        return [{"source": source, "overlay": overlay, "method": method,
                 "args": args} for args in per_task_args]

    def _row_slices(self, n: int) -> list[tuple[int, int]]:
        k = min(self._slices or self.pool.num_workers, n)
        bounds = np.linspace(0, n, k + 1).astype(int)
        return [(int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    # ------------------------- query API ---------------------------- #

    def _sliced(self, method: str, batch, sizes, params: dict) -> list:
        """Row-slice one batch call into ``method`` pool tasks (one
        IPC round trip per slice) and concatenate the answers."""
        sb, sizes = normalise_queries(batch, sizes)
        if len(sb) == 0:
            return []
        per_task = [{
            "matrix": np.ascontiguousarray(sb.matrix[lo:hi],
                                           dtype=np.uint64),
            "seed": int(sb.seed), "sizes": sizes[lo:hi], **params,
        } for lo, hi in self._row_slices(len(sb))]
        parts = self.pool.run(self._tasks(method, per_task))
        return [row for part in parts for row in part]

    def query_batch(self, batch, sizes: Sequence[int] | None = None,
                    threshold: float | None = None) -> list[set]:
        return self._sliced("query_batch", batch, sizes,
                            {"threshold": threshold})

    def query_top_k_batch(self, batch, k: int,
                          sizes: Sequence[int] | None = None,
                          min_threshold: float = 0.05) -> list[list]:
        # The whole ladder runs inside the worker, atomically under its
        # index lock: one round trip per slice instead of one per rung.
        return self._sliced("query_top_k_batch", batch, sizes,
                            {"k": int(k),
                             "min_threshold": float(min_threshold)})

    # ----------------------- passthroughs --------------------------- #

    @property
    def num_perm(self) -> int:
        return self.index.num_perm

    @property
    def generation(self) -> int:
        return self.index.generation

    @property
    def mutation_epoch(self) -> int:
        return self.index.mutation_epoch

    def __len__(self) -> int:
        return len(self.index)

    # ------------------------- lifecycle ---------------------------- #

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_pool:
            self.pool.close()
        if self._owned_tmp is not None:
            shutil.rmtree(self._owned_tmp, ignore_errors=True)

    def __enter__(self) -> "PooledIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
