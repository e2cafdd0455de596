"""Batch query throughput — the Section 6.3 serving regime.

The paper's deployment answers search traffic over 262M domains, where
query *throughput* is the binding constraint.  This benchmark measures
the batch query path against a loop of single queries at batch sizes
n ∈ {1, 10, 100, 1000} over a Figure 9-style corpus: power-law domain
sizes with synthetic signatures (the same sampling trick that makes the
paper's scale experiments reproducible on one machine — the LSH probe
path is identical, only upstream value hashing is skipped).

A second, independent floor covers the ingest side of the same regime:
the MinHash permutation kernel (:func:`repro.minhash.minhash.permuted_minima`)
against the ``%`` expression it replaced, evaluated in the same process
on the same seeded input — a ratio, so it does not depend on the
runner's clock speed.

Run directly (``python benchmarks/bench_batch_throughput.py``) or via
pytest (``python -m pytest benchmarks/bench_batch_throughput.py``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks.common import NUM_PERM, SCALE_MAX, emit
except ModuleNotFoundError:  # direct `python benchmarks/bench_...py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from benchmarks.common import NUM_PERM, SCALE_MAX, emit
from repro.core.ensemble import LSHEnsemble
from repro.eval.reports import format_table
from repro.minhash.batch import SignatureBatch
from repro.minhash.generator import sample_signatures
from repro.minhash.minhash import MAX_HASH, MERSENNE_PRIME, permuted_minima

BATCH_SIZES = (1, 10, 100, 1000)
THRESHOLD = 0.5
NUM_PARTITIONS = 16
CORPUS_SEED = 42
MIN_SPEEDUP_AT_1000 = 3.0
SKETCH_VALUES = 100_000
SKETCH_DOMAIN_SIZE = 100
# Elements per numpy pass of the reference: bulk()'s budget before the
# kernel existed (also keeps the reference's three temporaries small).
REFERENCE_SLAB_ELEMENTS = 8_000_000
MIN_SKETCH_SPEEDUP = 2.0


def _build_corpus(num_domains: int, num_perm: int, seed: int):
    """Synthetic-signature corpus with power-law sizes (Figure 9 style)."""
    rng = np.random.default_rng(seed)
    sizes = np.clip((10 * (1 + rng.pareto(1.5, size=num_domains))).astype(int),
                    10, 100_000)
    signatures = sample_signatures(sizes.tolist(), num_perm=num_perm,
                                   seed=1, rng=rng)
    return [("d%d" % i, sig, int(size))
            for i, (sig, size) in enumerate(zip(signatures, sizes))]


def _sample_queries(entries, n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(entries), size=n, replace=n > len(entries))
    sigs = [entries[i][1] for i in picks]
    sizes = [entries[i][2] for i in picks]
    return SignatureBatch.from_signatures(sigs), sizes


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(index: LSHEnsemble, n: int):
    """(loop seconds, batch seconds, verified-equal) for a size-n batch."""
    batch, sizes = _sample_queries(
        [(k, index.get_signature(k), index.size_of(k))
         for k in index.keys()], n)
    signatures = list(batch)
    loop_results = [index.query(s, size=q, threshold=THRESHOLD)
                    for s, q in zip(signatures, sizes)]
    batch_results = index.query_batch(batch, sizes=sizes,
                                      threshold=THRESHOLD)
    equal = batch_results == loop_results
    t_loop = _best_of(lambda: [index.query(s, size=q, threshold=THRESHOLD)
                               for s, q in zip(signatures, sizes)])
    t_batch = _best_of(lambda: index.query_batch(batch, sizes=sizes,
                                                 threshold=THRESHOLD))
    return t_loop, t_batch, equal


def run_benchmark(num_domains: int | None = None):
    """Return (report text, {n: speedup}, all_results_equal)."""
    num_domains = num_domains or min(SCALE_MAX, 20_000)
    entries = _build_corpus(num_domains, NUM_PERM, CORPUS_SEED)
    index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=NUM_PARTITIONS,
                        threshold=THRESHOLD)
    t0 = time.perf_counter()
    index.index(entries)
    build_seconds = time.perf_counter() - t0

    rows = []
    speedups = {}
    all_equal = True
    for n in BATCH_SIZES:
        t_loop, t_batch, equal = _measure(index, n)
        all_equal = all_equal and equal
        speedup = t_loop / t_batch if t_batch else float("inf")
        speedups[n] = speedup
        rows.append([
            n,
            "%.1f" % (n / t_loop),
            "%.1f" % (n / t_batch),
            "%.2fx" % speedup,
            "yes" if equal else "NO",
        ])

    table = format_table(
        ["batch size n", "loop q/s", "batch q/s", "speedup",
         "results equal"],
        rows,
        title="Batch query throughput (synthetic power-law corpus, "
              "%d domains, m = %d, %d partitions, t* = %.1f; "
              "index build %.1fs)"
              % (num_domains, NUM_PERM, NUM_PARTITIONS, THRESHOLD,
                 build_seconds),
    )
    return table, speedups, all_equal


def run_sketching_floor(num_perm: int = NUM_PERM):
    """Return (report line, kernel speedup over the reference, equal)."""
    rng = np.random.default_rng(CORPUS_SEED)
    hashes = rng.integers(0, 1 << 32, size=SKETCH_VALUES, dtype=np.uint64)
    a = rng.integers(1, int(MERSENNE_PRIME), size=num_perm, dtype=np.uint64)
    b = rng.integers(0, int(MERSENNE_PRIME), size=num_perm, dtype=np.uint64)
    starts = np.arange(0, SKETCH_VALUES, SKETCH_DOMAIN_SIZE, dtype=np.intp)

    def reference():
        rows = (REFERENCE_SLAB_ELEMENTS // num_perm
                // SKETCH_DOMAIN_SIZE * SKETCH_DOMAIN_SIZE)
        parts = []
        for lo in range(0, SKETCH_VALUES, rows):
            slab = hashes[lo:lo + rows]
            permuted = ((slab[:, np.newaxis] * a + b)
                        % MERSENNE_PRIME) & MAX_HASH
            parts.append(np.minimum.reduceat(
                permuted, starts[:slab.size // SKETCH_DOMAIN_SIZE], axis=0))
        return np.vstack(parts)

    def kernel():
        out = np.full((starts.size, num_perm), MAX_HASH, dtype=np.uint64)
        permuted_minima(hashes, starts, a, b, out)
        return out

    equal = bool(np.array_equal(kernel(), reference()))
    t_reference = _best_of(reference)
    t_kernel = _best_of(kernel)
    speedup = t_reference / t_kernel
    line = ("sketching (%d values in domains of %d, m = %d): reference %% "
            "expression %.0f values/s, kernel %.0f values/s (%.2fx), "
            "signatures equal: %s"
            % (SKETCH_VALUES, SKETCH_DOMAIN_SIZE, num_perm,
               SKETCH_VALUES / t_reference, SKETCH_VALUES / t_kernel,
               speedup, "yes" if equal else "NO"))
    return line, speedup, equal


def test_batch_throughput_report():
    report, speedups, all_equal = run_benchmark()
    emit("batch_throughput", report)
    assert all_equal, "batch results diverged from the single-query loop"
    assert speedups[1000] >= MIN_SPEEDUP_AT_1000, (
        "query_batch speedup at n=1000 was %.2fx, expected >= %.1fx"
        % (speedups[1000], MIN_SPEEDUP_AT_1000))


def test_sketching_kernel_floor():
    line, speedup, equal = run_sketching_floor()
    emit("sketching_kernel", line)
    assert equal, "kernel signatures diverged from the % expression"
    assert speedup >= MIN_SKETCH_SPEEDUP, (
        "permutation kernel was %.2fx the %% expression, expected >= %.1fx"
        % (speedup, MIN_SKETCH_SPEEDUP))


if __name__ == "__main__":
    report, speedups, all_equal = run_benchmark()
    emit("batch_throughput", report)
    print("\nspeedups:", {n: "%.2fx" % s for n, s in speedups.items()})
    print("all results equal:", all_equal)
    emit("sketching_kernel", run_sketching_floor()[0])
