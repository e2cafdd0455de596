"""Properties of the overload back-off hint.

``Retry-After`` drives client behaviour under shed, so its shape is a
contract: at least one second (a ``0`` invites an instant retry into
the same full queue), non-decreasing in queue depth and in observed
batch duration (a *more* overloaded server must never advise a
*shorter* back-off), and exactly the drain-time estimate documented on
:meth:`QueryServer.retry_after_hint`.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import QueryServer


def _hint(pending, max_batch, batches_total, batch_seconds_total,
          window_seconds) -> int:
    """The hint for a synthetic coalescer state (the method reads only
    ``self.coalescer``, so a bare instance suffices)."""
    server = QueryServer.__new__(QueryServer)
    server.coalescer = SimpleNamespace(
        pending=pending, max_batch=max_batch,
        batches_total=batches_total,
        batch_seconds_total=batch_seconds_total,
        window_seconds=window_seconds)
    return server.retry_after_hint()


STATE = {
    "max_batch": st.integers(1, 256),
    "batches_total": st.integers(0, 10_000),
    "batch_seconds_total": st.floats(0.0, 3600.0, allow_nan=False),
    "window_seconds": st.floats(0.0, 5.0, allow_nan=False),
}


@settings(max_examples=50, deadline=None)
@given(pending=st.integers(0, 100_000), **STATE)
def test_hint_is_at_least_one_second(pending, max_batch, batches_total,
                                     batch_seconds_total,
                                     window_seconds):
    assert _hint(pending, max_batch, batches_total,
                 batch_seconds_total, window_seconds) >= 1


@settings(max_examples=50, deadline=None)
@given(pending=st.integers(0, 50_000), extra=st.integers(0, 50_000),
       **STATE)
def test_hint_is_monotone_in_queue_depth(pending, extra, max_batch,
                                         batches_total,
                                         batch_seconds_total,
                                         window_seconds):
    shallow = _hint(pending, max_batch, batches_total,
                    batch_seconds_total, window_seconds)
    deep = _hint(pending + extra, max_batch, batches_total,
                 batch_seconds_total, window_seconds)
    assert deep >= shallow


@settings(max_examples=50, deadline=None)
@given(pending=st.integers(0, 50_000), max_batch=st.integers(1, 256),
       batches_total=st.integers(1, 10_000),
       batch_seconds_total=st.floats(0.0, 1800.0, allow_nan=False),
       slower_by=st.floats(0.0, 1800.0, allow_nan=False),
       window_seconds=st.floats(0.0, 5.0, allow_nan=False))
def test_hint_is_monotone_in_batch_duration(pending, max_batch,
                                            batches_total,
                                            batch_seconds_total,
                                            slower_by, window_seconds):
    fast = _hint(pending, max_batch, batches_total,
                 batch_seconds_total, window_seconds)
    slow = _hint(pending, max_batch, batches_total,
                 batch_seconds_total + slower_by, window_seconds)
    assert slow >= fast


@settings(max_examples=50, deadline=None)
@given(pending=st.integers(0, 100_000), **STATE)
def test_hint_matches_the_documented_drain_estimate(
        pending, max_batch, batches_total, batch_seconds_total,
        window_seconds):
    mean_batch = (batch_seconds_total / batches_total
                  if batches_total else 0.0)
    drain = window_seconds \
        + math.ceil(pending / max_batch) * mean_batch
    assert _hint(pending, max_batch, batches_total,
                 batch_seconds_total, window_seconds) \
        == max(1, math.ceil(drain))
