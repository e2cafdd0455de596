"""Containment <-> Jaccard algebra (Section 5.1 and 5.5 of the paper).

Set containment ``t(Q, X) = |Q ∩ X| / |Q|`` and Jaccard similarity
``s(Q, X) = |Q ∩ X| / |Q ∪ X|`` are linked by inclusion-exclusion once the
two cardinalities ``q = |Q|`` and ``x = |X|`` are known (Eq. 6):

    s = t / (x/q + 1 - t)          t = (x/q + 1) * s / (1 + s)

LSH indexes filter by Jaccard similarity, so a containment threshold ``t*``
must be converted.  The conversion uses a partition's domain-size *upper
bound* ``u >= x`` (Eq. 7), which makes the resulting Jaccard threshold a
lower bound on the exact one and therefore introduces **no new false
negatives** — only false positives, which the cost model of Section 5.3
quantifies.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "containment",
    "jaccard",
    "containment_to_jaccard",
    "jaccard_to_containment",
    "conservative_jaccard_threshold",
    "effective_containment_threshold",
    "candidate_probability_containment",
]


def containment(query: set, domain: set) -> float:
    """Exact set containment ``t(Q, X) = |Q ∩ X| / |Q|`` (Definition 1)."""
    if not query:
        raise ValueError("query domain must be non-empty")
    return len(query & domain) / len(query)


def jaccard(a: set, b: set) -> float:
    """Exact Jaccard similarity ``|A ∩ B| / |A ∪ B|`` (Eq. 3)."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union


def containment_to_jaccard(t, x: float, q: float):
    """``ŝ_{x,q}(t) = t / (x/q + 1 - t)`` — Eq. 6, vectorised over ``t``.

    Valid for ``t`` in ``[0, min(1, x/q)]``; values outside produce the
    algebraic extension (used by the tuner's integration grids).
    """
    if q <= 0 or x <= 0:
        raise ValueError("domain sizes must be positive")
    t = np.asarray(t, dtype=np.float64)
    denom = x / q + 1.0 - t
    out = np.divide(t, denom, out=np.zeros_like(t, dtype=np.float64),
                    where=denom > 0)
    if out.ndim == 0:
        return float(out)
    return out


def jaccard_to_containment(s, x, q: float):
    """``t̂_{x,q}(s) = (x/q + 1) s / (1 + s)`` — Eq. 6, vectorised over
    ``s`` and ``x`` (one candidate size per estimate)."""
    if q <= 0 or np.any(np.asarray(x) <= 0):
        raise ValueError("domain sizes must be positive")
    s = np.asarray(s, dtype=np.float64)
    out = (x / q + 1.0) * s / (1.0 + s)
    if out.ndim == 0:
        return float(out)
    return out


def conservative_jaccard_threshold(t_star: float, u: float, q: float) -> float:
    """``s* = t* / (u/q + 1 - t*)`` — Eq. 7.

    Uses the partition upper bound ``u`` in place of the unknown ``x``;
    because ``ŝ_{x,q}(t)`` decreases in ``x``, this ``s*`` underestimates
    every in-partition exact threshold, guaranteeing zero new false
    negatives.
    """
    if not 0.0 <= t_star <= 1.0:
        raise ValueError("t_star must be in [0, 1], got %r" % t_star)
    if u <= 0 or q <= 0:
        raise ValueError("u and q must be positive")
    denom = u / q + 1.0 - t_star
    if denom <= 0:  # t* = 1 and u/q -> 0; cap at exact similarity 1.
        return 1.0
    return min(1.0, t_star / denom)


def effective_containment_threshold(t_star: float, x: float, u: float,
                                    q: float) -> float:
    """``t_x = (x + q) t* / (u + q)`` — Proposition 1.

    The containment level at which a domain of size ``x`` starts passing
    the conservative Jaccard filter built from ``u``.  ``t_x <= t*`` always;
    domains with true containment in ``[t_x, t*)`` are the false positives
    the partitioning optimisation minimises.
    """
    if u <= 0 or q <= 0 or x <= 0:
        raise ValueError("sizes must be positive")
    return (x + q) * t_star / (u + q)


def candidate_probability_containment(t, x: float, q: float, b: int, r: int):
    """``P(t | x, q, b, r)`` — Eq. 22, vectorised over ``t``.

    The probability that a domain of size ``x`` with containment ``t`` of a
    query of size ``q`` becomes a candidate under banding ``(b, r)``.
    """
    s = containment_to_jaccard(t, x, q)
    s = np.clip(np.asarray(s, dtype=np.float64), 0.0, 1.0)
    out = 1.0 - np.power(1.0 - np.power(s, r), b)
    if out.ndim == 0:
        return float(out)
    return out
