"""Ablation — dynamic per-query (b, r) tuning vs a static configuration.

LSH Ensemble's Section 5.5 argues for tuning the banding per query (the
threshold and query size change the optimal operating point).  This
ablation freezes ``(b, r)`` at the configuration that is optimal for the
*default* threshold and a median query, then sweeps the actual query
threshold: the static index should match the dynamic one at the pinned
threshold and fall behind elsewhere — quantifying what the LSH-Forest
machinery buys.
"""

from __future__ import annotations

import pytest

from benchmarks.common import NUM_PERM, emit
from repro.core.ensemble import LSHEnsemble
from repro.core.tuning import tune_params
from repro.eval.metrics import aggregate, evaluate_query
from repro.eval.reports import format_table

NUM_PARTITIONS = 16
PINNED_THRESHOLD = 0.5
SWEEP = (0.2, 0.5, 0.8)


class StaticParamEnsemble(LSHEnsemble):
    """An LSH Ensemble whose (b, r) is frozen per partition.

    The frozen configuration is whatever the dynamic tuner would pick for
    ``pinned_threshold`` and ``pinned_query_size`` — i.e. a classic
    statically-tuned MinHash LSH per partition.
    """

    def __init__(self, pinned_threshold: float, pinned_query_size: int,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        self._pinned_threshold = float(pinned_threshold)
        self._pinned_query_size = int(pinned_query_size)

    def _tune(self, u, q, t_star):
        # Freeze the tuner's inputs; pruning and probing are inherited.
        return tune_params(u, self._pinned_query_size,
                           self._pinned_threshold, self.num_trees,
                           self.max_depth, self.num_perm)


@pytest.fixture(scope="module")
def ablation_rows(bench_experiment):
    corpus = bench_experiment.corpus
    median_q = int(sorted(
        corpus.size_of(k) for k in bench_experiment.query_keys
    )[len(bench_experiment.query_keys) // 2])

    dynamic = LSHEnsemble(num_perm=NUM_PERM,
                          num_partitions=NUM_PARTITIONS)
    dynamic.index(bench_experiment.entries())
    static = StaticParamEnsemble(
        PINNED_THRESHOLD, median_q, num_perm=NUM_PERM,
        num_partitions=NUM_PARTITIONS,
    )
    static.index(bench_experiment.entries())

    rows = []
    for t_star in SWEEP:
        for label, index in (("dynamic", dynamic), ("static", static)):
            evaluations = []
            for key in bench_experiment.query_keys:
                found = index.query(bench_experiment.signatures[key],
                                    size=corpus.size_of(key),
                                    threshold=t_star)
                truth = bench_experiment.ground_truth(key, t_star)
                evaluations.append(evaluate_query(found, truth))
            rows.append((t_star, label, aggregate(evaluations)))
    return rows


def _report(ablation_rows) -> str:
    rows = [
        ["%.1f" % t, label, acc.precision, acc.recall, acc.f1]
        for t, label, acc in ablation_rows
    ]
    return format_table(
        ["t*", "tuning", "Precision", "Recall", "F1"],
        rows,
        title="Ablation: dynamic per-query (b, r) vs static tuning "
              "(pinned at t* = %.1f)" % PINNED_THRESHOLD,
    )


def test_ablation_report(benchmark, ablation_rows):
    """Regenerate the ablation table; benchmark the tuner itself."""
    tune_params.cache_clear()
    benchmark.pedantic(
        tune_params, args=(10_000, 137, 0.45, 32, 8, 256),
        rounds=20, iterations=1,
    )
    emit("ablation_static_vs_dynamic", _report(ablation_rows))


def test_ablation_dynamic_wins_off_pin(benchmark, ablation_rows):
    """Away from the pinned threshold, dynamic tuning must not lose F1."""

    def off_pin_gap():
        table = {(t, label): acc for t, label, acc in ablation_rows}
        gaps = []
        for t in SWEEP:
            if t == PINNED_THRESHOLD:
                continue
            gaps.append(table[(t, "dynamic")].f1 - table[(t, "static")].f1)
        return min(gaps)

    assert benchmark(off_pin_gap) > -0.05
