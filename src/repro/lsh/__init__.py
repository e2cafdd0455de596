"""Classic MinHash LSH: static-threshold banding index plus its tuner."""

from repro.lsh.lsh import MinHashLSH
from repro.lsh.params import (
    candidate_probability,
    false_negative_weight,
    false_positive_weight,
    optimal_params,
    threshold_for_params,
)

__all__ = [
    "MinHashLSH",
    "optimal_params",
    "candidate_probability",
    "false_positive_weight",
    "false_negative_weight",
    "threshold_for_params",
]
