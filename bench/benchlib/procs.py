"""Server subprocesses: spawn, wait for the port, scrape, tear down.

The load generator must not share an interpreter lock with what it
measures, so every served layer runs as a ``python -m repro.cli ...``
child.  Children bind port 0 and announce the port the kernel gave them
on their first stdout line; they are killed on every exit path of the
harness (normal return, exception, signal, and — through the parent
death signal — a SIGKILL of the harness itself).
"""

from __future__ import annotations

import ctypes
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

_PORT_LINE = re.compile(rb"on http://[0-9.]+:(\d+)")
_PR_SET_PDEATHSIG = 1
START_DEADLINE_S = 60.0


def peak_rss_mb(pid) -> float:
    """A process's resident-set high-water mark (``VmHWM``); ``pid``
    may be ``"self"``."""
    status = Path("/proc/%s/status" % pid).read_text()
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0


def _die_with_parent() -> None:
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


class Child:
    def __init__(self, name: str, process: subprocess.Popen) -> None:
        self.name = name
        self.process = process
        self.port = 0


class Children:
    """Every server subprocess of one workload."""

    def __init__(self, src_dir: Path, log_dir: Path) -> None:
        # PYTHONHASHSEED=0 is inherited from run.py's own environment.
        self._env = dict(os.environ, PYTHONPATH=str(src_dir))
        self._log_dir = log_dir
        self._children: list[Child] = []

    def spawn(self, name: str, *cli_args) -> Child:
        """Start ``python -m repro.cli <cli_args>``; returns at once
        (call :meth:`wait_ready` for the port)."""
        log = open(self._log_dir / ("%s.stderr" % name), "wb")
        try:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli",
                 *[str(arg) for arg in cli_args]],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=log, env=self._env,
                preexec_fn=(_die_with_parent
                            if sys.platform == "linux" else None))
        finally:
            log.close()
        child = Child(name, process)
        self._children.append(child)
        return child

    def wait_ready(self, child: Child) -> int:
        """Block until the child announces its port; returns it."""
        deadline = time.monotonic() + START_DEADLINE_S
        fd = child.process.stdout.fileno()
        seen = b""
        while True:
            match = _PORT_LINE.search(seen)
            if match:
                child.port = int(match.group(1))
                return child.port
            left = deadline - time.monotonic()
            if left <= 0 or child.process.poll() is not None:
                raise RuntimeError(
                    "%s did not come up (exit code %s); see %s"
                    % (child.name, child.process.poll(),
                       self._log_dir / ("%s.stderr" % child.name)))
            if select.select([fd], [], [], min(left, 0.5))[0]:
                seen += os.read(fd, 4096)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(child.process.pid)
                   for child in self._children)

    def close(self) -> None:
        """Stop every child and wait until each has ended."""
        for child in self._children:
            if child.process.poll() is None:
                child.process.terminate()
        for child in self._children:
            try:
                child.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                child.process.kill()
                child.process.wait()
            child.process.stdout.close()
        self._children = []
