"""Uniform serving facade over every shard executor.

The HTTP layer should not care whether it fronts a single
:class:`~repro.core.ensemble.LSHEnsemble`, a process pool or a router
over shard nodes: :class:`ServingEngine` turns coalesced batches into
one vectorised ``query_batch`` / ``query_top_k_batch`` call on its
:class:`~repro.serve.executor.ShardExecutor` and
canonicalises results into JSON-serialisable, deterministically ordered
form — the exact same ordering for the same inputs regardless of
topology, which is what the served-parity golden tests pin.
Introspection is the executor's (it knows its topology); the engine
only delegates.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.minhash.batch import SignatureBatch
from repro.serve.executor import InProcessExecutor, ShardExecutor

__all__ = ["ServingEngine", "sorted_keys"]

# The version facts ``/stats`` repeats from ``/healthz``.
_STATS_FACTS = ("index", "keys", "generation", "mutation_epoch",
                "executor", "kernel", "bbit")


def sorted_keys(found: set) -> list:
    """Canonical result ordering: the CLI's ``sorted(found, key=str)``."""
    return sorted(found, key=str)


class ServingEngine:
    """Dispatch adapter around one shard executor.

    Parameters
    ----------
    index:
        A built :class:`~repro.core.ensemble.LSHEnsemble` (served
        in-process), or any :class:`~repro.serve.executor.ShardExecutor`
        — a process pool, a router — to dispatch through instead.
    """

    def __init__(self, index) -> None:
        self.executor = (index if isinstance(index, ShardExecutor)
                         else InProcessExecutor(index))

    @property
    def mutation_epoch(self) -> int:
        return int(self.executor.mutation_epoch)

    @property
    def generation(self) -> int:
        return int(self.executor.generation)

    def describe(self) -> dict:
        """The ``/healthz`` payload: liveness plus version counters."""
        return self.executor.describe()

    def stats(self) -> dict:
        """The ``/stats`` core: version facts plus the executor's
        sections (tier sizes and drift, or the router's counters)."""
        # Sections first: a router re-polls its shards while assembling
        # them, and the facts should reflect that poll.
        sections = self.executor.stats_sections()
        facts = self.executor.describe()
        return {**{key: facts[key] for key in _STATS_FACTS}, **sections}

    # ------------------------------------------------------------------ #
    # Batched dispatch (called from the coalescer's worker thread)
    # ------------------------------------------------------------------ #

    def dispatch(self, group_key, payloads) -> list:
        """Answer one coalesced group through the vectorised batch path.

        ``group_key`` is ``("query", seed, threshold)`` or
        ``("top_k", seed, k, min_threshold)``; ``payloads`` is a list of
        ``(hashvalues_row, size)``.  Returns one JSON-ready result per
        payload: a ``sorted(..., key=str)`` key list for threshold
        queries, a ``[key, score]`` ranking for top-k.
        """
        kind, seed = group_key[0], group_key[1]
        matrix = np.vstack([row for row, _ in payloads])
        sizes = [size for _, size in payloads]
        batch = SignatureBatch(None, matrix, seed=seed)
        if kind == "query":
            threshold = group_key[2]
            found = self.executor.query_batch(batch, sizes=sizes,
                                              threshold=threshold)
            return [sorted_keys(f) for f in found]
        if kind == "top_k":
            k, min_threshold = group_key[2], group_key[3]
            ranked = self.executor.query_top_k_batch(
                batch, k, sizes=sizes, min_threshold=min_threshold)
            return [[[key, float(score)] for key, score in row]
                    for row in ranked]
        raise ValueError("unknown dispatch kind %r" % (kind,))

    @staticmethod
    def digest(group_key, row: np.ndarray, size: int) -> bytes:
        """Cache digest of one query: parameters + signature bytes.

        Combined with the mutation epoch by the caller, this forms the
        full cache key; two requests digest equal iff they would be
        answered from identical inputs.
        """
        h = hashlib.sha1()
        h.update(repr((group_key, int(size))).encode("utf-8"))
        h.update(np.ascontiguousarray(row).tobytes())
        return h.digest()
