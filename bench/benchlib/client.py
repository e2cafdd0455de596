"""The load generator: keep-alive HTTP clients in a closed loop, and
one paced writer.

Every operation is timed from the moment it is sent (or, for the paced
writer, from the moment it was *due*) to the last byte of the response.
An operation that raises, times out or answers anything but 200 is a
failed operation: it is counted and contributes to no latency sample.
"""

from __future__ import annotations

import http.client
import os
import threading
import time

REQUEST_TIMEOUT_S = 30.0
# Closed-loop clients: one thread with one keep-alive connection each,
# never more than the machine has cores to run them on.
CLIENTS = min(2, os.cpu_count() or 1)
_HEADERS = {"Content-Type": "application/json"}


class Conn:
    """One keep-alive connection to one server."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def call(self, method: str, path: str,
             body: bytes | None = None) -> tuple[int, bytes]:
        try:
            self._conn.request(method, path, body,
                               _HEADERS if body else {})
            response = self._conn.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError):
            # A half-dead connection must not fail the *next* request
            # too; http.client reopens a closed connection on demand.
            self._conn.close()
            raise

    def close(self) -> None:
        self._conn.close()


class Op:
    """Outcome of one operation; ``latency`` is None when it failed."""
    __slots__ = ("index", "latency", "done", "reply")

    def __init__(self, index, latency, done, reply) -> None:
        self.index = index
        self.latency = latency
        self.done = done
        self.reply = reply


def _http_op(conn: Conn, path: str, body: bytes, index: int,
             due: float | None = None) -> Op:
    started = time.perf_counter()
    try:
        status, raw = conn.call("POST", path, body)
    except (http.client.HTTPException, OSError) as exc:
        return Op(index, None, time.perf_counter(), repr(exc).encode())
    done = time.perf_counter()
    if status != 200:
        return Op(index, None, done, raw)
    return Op(index, done - (started if due is None else due), done, raw)


def closed_loop(port: int, path: str, bodies, clients: int = CLIENTS,
                stop: threading.Event | None = None, record=None,
                keep=None, offset: int = 0) -> tuple[list[Op], float]:
    """Send ``bodies`` to ``path``, ``clients`` at a time.

    Client ``i`` owns ``bodies[i::clients]`` and sends its next request
    only when the previous one has been answered.  With ``stop`` given,
    clients also quit as soon as it is set (the mixed phase's reader
    runs for as long as the writer does); ``record`` is called with
    every finished operation (the traced run's span hook).  Operations
    are numbered from ``offset``; with ``keep`` given, only the replies
    of operations numbered in it are retained.  Returns the operations
    in ``bodies`` order and the time the phase started.
    """
    ops: list[Op | None] = [None] * len(bodies)

    def client(first: int) -> None:
        conn = Conn(port)
        try:
            for position in range(first, len(bodies), clients):
                if stop is not None and stop.is_set():
                    break
                op = ops[position] = _http_op(
                    conn, path, bodies[position], offset + position)
                if record is not None:
                    record(op)
                if (keep is not None and op.index not in keep
                        and op.latency is not None):
                    op.reply = None
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [op for op in ops if op is not None], started


def paced(port: int, requests, rate: float) -> tuple[list[Op], list[float]]:
    """Send ``requests`` (``(path, body)`` pairs) on one connection,
    request ``i`` due at ``start + i / rate``.

    Latency runs from the due time, so a stall delays — and is charged
    to — every request queued behind it.  Also returns how late each
    request was sent, the generator's own lag.
    """
    conn = Conn(port)
    ops = []
    lateness = []
    try:
        start = time.perf_counter()
        for index, (path, body) in enumerate(requests):
            due = start + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            lateness.append(max(0.0, time.perf_counter() - due))
            ops.append(_http_op(conn, path, body, index, due=due))
    finally:
        conn.close()
    return ops, lateness
