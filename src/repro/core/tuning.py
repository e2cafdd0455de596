"""Query-time LSH parameter tuning (Section 5.5, Eq. 23-26).

For a partition with size upper bound ``u``, query size ``q`` and
containment threshold ``t*``, the probability that a domain with
containment ``t`` becomes a candidate under banding ``(b, r)`` is Eq. 22:

    P(t | u, q, b, r) = 1 - (1 - ŝ_{u,q}(t)^r)^b

The tuner picks the ``(b, r)`` minimising false positives plus false
negatives (Eq. 23-26), evaluated with ``x`` replaced by the partition bound
``u``.  Following the reference implementation by the paper's first author
(datasketch's ``MinHashLSHEnsemble``), each integral is normalised by the
width of its integration interval, i.e. the objective compares the
*average* FP probability over ``[0, t*)`` with the *average* FN probability
over ``[t*, min(1, u/q)]``.  The raw Eq. 23/24 masses are lopsided — the FN
interval has width at most ``1 - t*`` while the FP interval has width
``t*`` — so un-normalised they drive the optimiser to sacrifice recall
entirely whenever ``u >> q``; the normalised form reproduces the paper's
recall-biased behaviour (Section 6.1).

The whole ``(b, r)`` grid is evaluated in one vectorised pass over a
trapezoid grid, and results are memoised per ``(u, q, t*)`` — the paper's
"pre-computed FP and FN" made lazy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np

from repro.core.containment import containment_to_jaccard

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy 1.x fallback

__all__ = ["tune_params", "tune_params_quantized", "fp_fn_mass",
           "TuningResult", "quantize_query_size", "ratio_bucket",
           "ratio_buckets"]

_GRID_POINTS = 96

# Geometric quantisation resolution for query sizes: 2^(1/8) ≈ 9% buckets.
_Q_BUCKETS_PER_OCTAVE = 8


class TuningResult(tuple):
    """``(b, r, fp_mass, fn_mass)`` with named access."""

    __slots__ = ()

    def __new__(cls, b: int, r: int, fp: float, fn: float):
        return super().__new__(cls, (b, r, fp, fn))

    @property
    def b(self) -> int:
        return self[0]

    @property
    def r(self) -> int:
        return self[1]

    @property
    def fp_mass(self) -> float:
        return self[2]

    @property
    def fn_mass(self) -> float:
        return self[3]


def fp_fn_mass(x: float, q: float, t_star: float, b: int, r: int,
               grid_points: int = _GRID_POINTS) -> tuple[float, float]:
    """Normalised Eq. 23 / Eq. 24 for a single ``(b, r)`` pair.

    Returns the *average* false-positive probability over ``[0, min(t*,
    x/q))`` and the *average* false-negative probability over ``[t*,
    min(1, x/q)]``.  ``x`` is the domain size the probability curve is
    evaluated at (the tuner passes the partition bound ``u``); containment
    cannot exceed ``x / q``, which clips both ranges.  When the FN interval
    degenerates to the single point ``t = t*`` (i.e. ``t* = 1``), the FN
    term is the point probability ``1 - P(t*)``.
    """
    if x <= 0 or q <= 0:
        raise ValueError("x and q must be positive")
    ratio = x / q

    def probability(ts: np.ndarray) -> np.ndarray:
        s = np.clip(containment_to_jaccard(ts, x, q), 0.0, 1.0)
        return 1.0 - np.power(1.0 - np.power(s, r), b)

    fp_hi = min(t_star, ratio)
    fp = 0.0
    if fp_hi > 0:
        ts = np.linspace(0.0, fp_hi, grid_points)
        fp = float(_trapezoid(probability(ts), ts)) / fp_hi
    fn = 0.0
    fn_hi = min(1.0, ratio)
    if fn_hi > t_star:
        ts = np.linspace(t_star, fn_hi, grid_points)
        fn = float(_trapezoid(1.0 - probability(ts), ts)) / (fn_hi - t_star)
    elif fn_hi == t_star:
        fn = float(1.0 - probability(np.asarray([t_star]))[0])
    return fp, fn


@lru_cache(maxsize=100_000)
def tune_params(u: int, q: int, t_star: float, num_trees: int,
                max_depth: int, num_perm: int) -> TuningResult:
    """The ``(b, r)`` minimising FP+FN mass for a partition (Eq. 26).

    Parameters
    ----------
    u:
        Partition domain-size upper bound (the proxy for ``x``).
    q:
        Query domain size (from ``approx(|Q|)``).
    t_star:
        Containment threshold.
    num_trees, max_depth:
        The forest's ``(B, K)`` — the search grid is ``b <= B, r <= K``.
    num_perm:
        Total hash functions ``m``; enforces ``b * r <= m`` (Eq. 25).

    Returns the winning pair together with its FP and FN mass, so callers
    can log the expected error profile of each partition query.
    """
    if u <= 0 or q <= 0:
        raise ValueError("u and q must be positive")
    if not 0.0 <= t_star <= 1.0:
        raise ValueError("t_star must be in [0, 1]")
    if num_trees < 1 or max_depth < 1:
        raise ValueError("num_trees and max_depth must be >= 1")

    ratio = u / q
    fp_hi = min(t_star, ratio)
    fn_hi = min(1.0, ratio)

    bs = np.arange(1, num_trees + 1, dtype=np.float64)
    rs = np.arange(1, max_depth + 1, dtype=np.float64)

    def masses(lo: float, hi: float) -> np.ndarray:
        """``∫ P(t) dt`` over [lo, hi] for the whole (b, r) grid."""
        if hi <= lo:
            return np.zeros((num_trees, max_depth))
        ts = np.linspace(lo, hi, _GRID_POINTS)
        s = np.clip(containment_to_jaccard(ts, float(u), float(q)), 0.0, 1.0)
        # s_pow_r[r_index, t_index] = s(t) ** r
        s_pow_r = np.power(s[np.newaxis, :], rs[:, np.newaxis])
        # p[b_index, r_index, t_index] = 1 - (1 - s^r)^b
        p = 1.0 - np.power(
            (1.0 - s_pow_r)[np.newaxis, :, :], bs[:, np.newaxis, np.newaxis]
        )
        return _trapezoid(p, ts, axis=2)

    if fp_hi > 0:
        fp_mass = masses(0.0, fp_hi) / fp_hi
    else:
        fp_mass = np.zeros((num_trees, max_depth))
    if fn_hi > t_star:
        width = fn_hi - t_star
        fn_mass = (width - masses(t_star, fn_hi)) / width
    elif fn_hi == t_star:
        # Degenerate FN interval (t* = 1 with u >= q): point-evaluate the
        # miss probability for an exactly-qualifying domain.
        s_point = min(1.0, max(0.0, containment_to_jaccard(
            t_star, float(u), float(q))))
        p_point = 1.0 - np.power(
            1.0 - np.power(s_point, rs)[np.newaxis, :],
            bs[:, np.newaxis],
        )
        fn_mass = 1.0 - p_point
    else:
        fn_mass = np.zeros((num_trees, max_depth))

    total = fp_mass + fn_mass
    # Disallow pairs exceeding the hash budget (Eq. 25's constraint).
    budget_mask = np.outer(bs, rs) > num_perm
    total = np.where(budget_mask, np.inf, total)
    flat = int(np.argmin(total))
    bi, ri = divmod(flat, max_depth)
    return TuningResult(
        int(bs[bi]), int(rs[ri]), float(fp_mass[bi, ri]),
        float(fn_mass[bi, ri]),
    )


def quantize_query_size(q: int) -> int:
    """Snap ``q`` to a geometric grid with ~9% resolution.

    Kept for callers that bucket query sizes themselves; the hot path now
    buckets the *ratio* ``u/q`` instead (see
    :func:`tune_params_quantized`), which is what the FP/FN integrals
    actually depend on.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if q <= 2:
        return int(q)
    exponent = round(math.log2(q) * _Q_BUCKETS_PER_OCTAVE)
    return int(round(2.0 ** (exponent / _Q_BUCKETS_PER_OCTAVE)))


# Bucket edges: _RATIO_EDGES[i] is the upper edge of bucket
# ``_RATIO_BUCKET_MIN + i``, i.e. 2^((k + 0.5) / 8).  Bucketing by exact
# comparison against this table (instead of ``round(log2(ratio) * 8)``)
# makes the scalar and the vectorised bucketing identical by
# construction — both reduce to the same float compares — so the batch
# query path can never disagree with per-query tuning over a log2 ULP.
# +/-512 buckets span size ratios of 2^+/-64, far beyond any real
# (partition bound, query size) pair; beyond that the bucket clamps.
_RATIO_BUCKET_MIN = -512
_RATIO_EDGES = np.array(
    [2.0 ** ((k + 0.5) / _Q_BUCKETS_PER_OCTAVE)
     for k in range(_RATIO_BUCKET_MIN, -_RATIO_BUCKET_MIN + 1)],
    dtype=np.float64)
_RATIO_EDGE_LIST = _RATIO_EDGES.tolist()


def ratio_bucket(u: float, q: float) -> int:
    """The geometric-grid bucket of the size ratio ``u / q``.

    This is :func:`tune_params_quantized`'s memoisation key: two
    ``(u, q)`` pairs landing in the same bucket are guaranteed the same
    tuning, which is what lets the batch query path share one tuning
    call across all queries of a bucket.
    """
    if u <= 0 or q <= 0:
        raise ValueError("u and q must be positive")
    return _RATIO_BUCKET_MIN + bisect_right(_RATIO_EDGE_LIST, u / q)


def ratio_buckets(u, qs: np.ndarray) -> np.ndarray:
    """:func:`ratio_bucket` over many ``(u, q)`` pairs.

    ``u`` is one bound or an array broadcasting against ``qs``.  One
    division and one ``searchsorted`` pass; element ``i`` equals
    ``ratio_bucket(u[i], qs[i])`` exactly (identical float compares),
    which the batch query path relies on to group queries by tuning
    without a per-query Python call.
    """
    if np.any(np.asarray(u) <= 0):
        raise ValueError("u must be positive")
    return _RATIO_BUCKET_MIN + np.searchsorted(
        _RATIO_EDGES, u / qs, side="right")


def tune_params_quantized(u: int, q: int, t_star: float, num_trees: int,
                          max_depth: int, num_perm: int) -> TuningResult:
    """:func:`tune_params` keyed on the quantised size ratio ``u/q``.

    Eq. 22's probability curve depends on ``u`` and ``q`` only through
    their ratio, so the paper's offline FP/FN precomputation is a table
    over ratios.  Our lazy equivalent snaps ``u/q`` to a geometric grid
    (~9% resolution, well inside the ``approx(|Q|)`` estimator's own
    error) and memoises one tuning per bucket — query-time tuning then
    costs one dict lookup, as in the paper.  Exact tuning remains
    available via :func:`tune_params` for analysis and tests.
    """
    return _tune_ratio_bucket(ratio_bucket(u, q), t_star, num_trees,
                              max_depth, num_perm)


@lru_cache(maxsize=100_000)
def _tune_ratio_bucket(bucket: int, t_star: float, num_trees: int,
                       max_depth: int, num_perm: int) -> TuningResult:
    quant_ratio = 2.0 ** (bucket / _Q_BUCKETS_PER_OCTAVE)
    # Re-express the quantised ratio as an integer (u', q') pair for the
    # exact tuner; scale keeps resolution for ratios near 1.
    scale = 1 << 20
    u_q = max(1, int(round(quant_ratio * scale)))
    return tune_params(u_q, scale, t_star, num_trees, max_depth, num_perm)
