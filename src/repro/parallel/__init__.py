"""Process-parallel query execution over shared mmap segments."""

from repro.parallel.procpool import (
    PooledIndex,
    ProcPool,
    RemoteTaskError,
    WorkerCrashError,
)

__all__ = ["PooledIndex", "ProcPool", "RemoteTaskError",
           "WorkerCrashError"]
