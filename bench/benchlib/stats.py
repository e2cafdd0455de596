"""Estimators the benchmark reports: percentiles, block-median rates,
and the two self-time rules of the trace (span tree and depth ladder).

Pure functions over plain lists so `test_bench.py` can pin them on
hand-computed cases.
"""

from __future__ import annotations

import statistics


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    order statistics — numpy's default rule, without the dependency."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def block_rates(completions, start: float, block: int,
                units_per_op: int = 1) -> list[float]:
    """Throughput of each fixed-size block of operations.

    ``completions`` are the completion times of every operation of one
    contiguous stretch of a phase (any order), ``start`` the time the
    stretch began.  The sorted timeline is cut every ``block``
    completions and each block's rate is ``block * units_per_op /
    (its duration)``.  A trailing partial block is dropped.
    """
    ordered = sorted(completions)
    rates = []
    previous = start
    for end in ordered[block - 1::block]:
        rates.append(block * units_per_op / (end - previous))
        previous = end
    return rates


def median_rate(rates) -> float:
    """The median block: one stalled block (a GC pause, a slow second
    of the machine) cannot drag the figure the way a whole-phase mean
    would."""
    if not rates:
        raise ValueError("need at least one full block of operations")
    return statistics.median(rates)


def span_self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` are dicts with ``id``, ``name``, ``start``, ``end`` and
    ``parent`` (an id or None).  A span's self time is its duration
    minus the part of its interval that its direct children cover
    (overlapping children — a parallel fan-out — are merged first, so
    covered time is never counted twice).
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    totals: dict[str, float] = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["start"]):
            lo = max(child["start"], reach)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[span["name"]] = (totals.get(span["name"], 0.0)
                                + (span["end"] - span["start"]) - covered)
    return totals


def ladder_self_times(depths) -> list[tuple[str, float]]:
    """Self time of each rung of a depth ladder.

    ``depths`` is ``[(name, median_latency), ...]`` from the innermost
    depth outwards, every depth having replayed the same operations; a
    rung's self time is its median minus the median of the rung below
    (the innermost rung keeps its whole median).
    """
    out = []
    below = 0.0
    for name, value in depths:
        out.append((name, value - below))
        below = value
    return out
