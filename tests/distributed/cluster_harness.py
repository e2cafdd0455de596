"""Cluster harnesses for the distributed (router + shard node) battery.

Two ways to stand up a cluster:

* **in-thread nodes** (:func:`thread_cluster`) — each shard's
  :class:`~repro.serve.server.QueryServer` runs on a background event
  loop *in this process*, so tests can reach through to the shard's
  index object (to mutate it, read its epoch) while the router talks
  to it over real localhost HTTP.  Fast; used by the parity and
  consistency suites.
* **subprocess nodes** (:class:`NodeProc`) — real ``python -m
  repro.cli shardnode`` processes, so fault-injection tests can
  SIGKILL a node and lifecycle tests can bootstrap a replica exactly
  the way an operator would.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import repro
from repro.core.ensemble import LSHEnsemble
from repro.serve import start_in_thread
from repro.serve.placement import PlacementMap
from repro.serve.router import RouterIndex


def wait_until(predicate, *, timeout: float = 30.0,
               interval: float = 0.02, message: str = "condition"):
    """Condition-poll until ``predicate()`` is truthy; returns its
    value.  The battery's replacement for fixed sleeps: a slow CI
    machine gets the full timeout, a fast one pays one poll tick."""
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise TimeoutError("timed out after %.1fs waiting for %s"
                               % (timeout, message))
        time.sleep(interval)

NUM_PERM = 48
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

_PORT_LINE = re.compile(r"on http://[^:\s]+:(\d+)")


# --------------------------------------------------------------------- #
# Index builders
# --------------------------------------------------------------------- #


def make_index(entries, partitions=None):
    index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4,
                        threshold=0.5)
    index.index(entries, partitions=partitions)
    return index


def split_entries(entries, num_shards: int):
    """Deterministic round-robin split: entry ``i`` goes to shard
    ``i % num_shards`` (tests mutate "the owning shard" by the same
    rule)."""
    parts = [[] for _ in range(num_shards)]
    for i, entry in enumerate(entries):
        parts[i % num_shards].append(entry)
    return parts


def query_rows(corpus, n: int = 8):
    """``n`` spread query rows: ``(matrix, sizes, json_items)``."""
    domains, batch = corpus
    step = max(1, len(batch.keys) // n)
    rows = list(range(0, len(batch.keys), step))[:n]
    sizes = [len(domains[batch.keys[row]]) for row in rows]
    items = [{"signature": [int(v) for v in batch.matrix[row]],
              "seed": batch.seed, "size": size}
             for row, size in zip(rows, sizes)]
    return batch.matrix[rows], sizes, items


# --------------------------------------------------------------------- #
# In-thread cluster harness
# --------------------------------------------------------------------- #


@contextmanager
def thread_cluster(shard_indexes, labels=None, **server_kwargs):
    """Start one in-thread shard node per index; yields
    ``[(label, handle), ...]`` in shard order."""
    labels = labels or ["shard_%03d" % i
                        for i in range(len(shard_indexes))]
    handles = []
    try:
        for label, index in zip(labels, shard_indexes):
            handles.append((label, start_in_thread(
                index, shard_label=label, **server_kwargs)))
        yield handles
    finally:
        for _, handle in handles:
            handle.close()


def router_over(handles, *, timeout: float = 10.0, partial: bool = False,
                max_ladder_restarts: int = 2,
                write_quorum: int | None = None) -> RouterIndex:
    """A router with one node per shard, pinned 1:1 (the simplest
    placement; replica topologies build their own PlacementMap)."""
    nodes = {label: "127.0.0.1:%d" % handle.port
             for label, handle in handles}
    pinned = {label: [label] for label, _ in handles}
    placement = PlacementMap(nodes, replication=1, pinned=pinned)
    return RouterIndex.from_placement(
        sorted(pinned), placement, timeout=timeout, partial=partial,
        max_ladder_restarts=max_ladder_restarts,
        write_quorum=write_quorum)


def replica_router(handles, *, shard: str = "shard_000",
                   write_quorum: int | None = None,
                   partial: bool = False,
                   timeout: float = 10.0) -> RouterIndex:
    """A router over N replicas of ONE shard (each ``handles`` entry
    serves the same shard label); the write-path topology."""
    nodes = {"n%d" % i: "127.0.0.1:%d" % handle.port
             for i, (_, handle) in enumerate(handles)}
    placement = PlacementMap(nodes, replication=len(nodes),
                             pinned={shard: sorted(nodes)})
    return RouterIndex.from_placement(
        [shard], placement, timeout=timeout, partial=partial,
        write_quorum=write_quorum)


# --------------------------------------------------------------------- #
# Subprocess node harness
# --------------------------------------------------------------------- #


class NodeProc:
    """One ``cli shardnode`` subprocess; the bound port is parsed from
    its startup line (it binds port 0 and reports what it got)."""

    def __init__(self, index_path, shard: str, *,
                 bootstrap_from: str | None = None) -> None:
        cmd = [sys.executable, "-m", "repro.cli", "shardnode",
               str(index_path), "--shard", shard, "--port", "0"]
        if bootstrap_from is not None:
            cmd += ["--bootstrap-from", bootstrap_from]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH",
                                                           "")
        self.shard = shard
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        self.lines: list[str] = []
        self._port: int | None = None
        self._seen_port = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            if self._port is None:
                match = _PORT_LINE.search(line)
                if match:
                    self._port = int(match.group(1))
                    self._seen_port.set()
        self._seen_port.set()  # EOF: unblock waiters either way

    @property
    def port(self) -> int:
        if not self._seen_port.wait(timeout=60):
            self.kill()
            raise RuntimeError("shard node %r never reported its port"
                               % self.shard)
        if self._port is None:
            raise RuntimeError(
                "shard node %r exited before binding:\n%s"
                % (self.shard, "".join(self.lines)))
        return self._port

    @property
    def address(self) -> str:
        return "127.0.0.1:%d" % self.port

    def kill(self) -> None:
        """SIGKILL — the fault-injection primitive (no cleanup, no
        goodbye on in-flight connections)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(timeout=30)


@contextmanager
def subprocess_cluster(specs):
    """``specs`` is ``[(index_path, shard_label), ...]``; yields the
    started :class:`NodeProc` list (ports already bound)."""
    nodes = [NodeProc(path, shard) for path, shard in specs]
    try:
        for node in nodes:
            node.port  # block until bound (or fail loudly)
        yield nodes
    finally:
        for node in nodes:
            node.terminate()
