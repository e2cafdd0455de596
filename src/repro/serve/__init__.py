"""Async serving layer: HTTP front end with coalescing and caching.

The paper's system answers domain-search traffic for many users at
once; this package is the layer that exposes a built index (built in
process or loaded from a snapshot) over HTTP with the three serving
optimisations that matter at that scale: micro-batching of concurrent
requests into the vectorised ``query_batch`` path, a result cache keyed
by the index's mutation epoch, and admission control that sheds load
instead of queueing it unboundedly.  Everything is stdlib asyncio — no
server dependencies.
"""

from repro.serve.cache import MISS, ResultCache
from repro.serve.coalescer import MicroBatchCoalescer, OverloadedError
from repro.serve.engine import ServingEngine, sorted_keys
from repro.serve.server import (
    QueryServer,
    RequestError,
    ServerHandle,
    start_in_thread,
)

__all__ = [
    "MISS",
    "MicroBatchCoalescer",
    "OverloadedError",
    "QueryServer",
    "RequestError",
    "ResultCache",
    "ServerHandle",
    "ServingEngine",
    "sorted_keys",
    "start_in_thread",
]
