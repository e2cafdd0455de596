"""Kernel roofline — the three hot loops against the memory-bandwidth wall.

Every query in this repo bottoms out in band hashing, sorted-prefix
probing, and candidate merging (:mod:`repro.kernels`).  This benchmark
builds a 1M-domain synthetic index from streamed signature blocks
(:func:`repro.datagen.stream_signature_blocks` — no value sets, bounded
staging memory), saves it once, then measures each registered kernel
backend in its own fresh subprocess: the child reloads the snapshot
under that backend and times batched query throughput against a clean
address space (the builder's heap, after a long build, would otherwise
tax the backends unevenly).

The roofline framing: a query's lower bound is the bytes it must move
(query bands read and hashed, stored-hash probe structures looked up),
so the machine's memcpy bandwidth divided by a first-order
bytes-per-query estimate gives a throughput **ceiling**.  The report
shows each backend's measured queries/s, its speedup over the
pure-Python reference, and the fraction of the ceiling it reaches —
"2x faster" means little if both backends sit at 1% of the roofline.

Floors asserted (CI runs a reduced-N smoke via the env knobs):

* every backend returns **bit-identical** result sets (the kernel
  contract, checked end-to-end on the full corpus here);
* ``numpy`` reaches at least ``REPRO_BENCH_KERNEL_MIN_SPEEDUP`` (2x)
  the python reference on ``query_batch``.

Environment knobs: ``REPRO_BENCH_KERNEL_DOMAINS`` (default 1,000,000),
``REPRO_BENCH_KERNEL_NUM_PERM`` (64), ``REPRO_BENCH_KERNEL_QUERIES``
(2048 vectorised-path queries — the paper's workload is 3,000 queries,
and batch size is the vectorised path's design point),
``REPRO_BENCH_KERNEL_PY_QUERIES`` (256 reference-path queries — the
python loop is measured on fewer rows, rates are per-query),
``REPRO_BENCH_KERNEL_MIN_SPEEDUP`` (2.0), ``REPRO_BENCH_KERNEL_JSON``
(output path, default ``benchmarks/history/BENCH_8.json``).

Run directly (``python benchmarks/bench_kernels.py``) or via pytest.
"""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

try:
    from benchmarks.common import emit
except ModuleNotFoundError:  # direct `python benchmarks/bench_kernels.py`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from benchmarks.common import emit
from repro.core.ensemble import LSHEnsemble
from repro.datagen.stream import stream_signature_blocks
from repro.kernels import list_kernels
from repro.minhash.batch import SignatureBatch
from repro.persistence import load_ensemble, save_ensemble

NUM_DOMAINS = int(os.environ.get("REPRO_BENCH_KERNEL_DOMAINS", "1000000"))
NUM_PERM = int(os.environ.get("REPRO_BENCH_KERNEL_NUM_PERM", "64"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_KERNEL_QUERIES", "2048"))
PY_QUERIES = int(os.environ.get("REPRO_BENCH_KERNEL_PY_QUERIES", "256"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_KERNEL_MIN_SPEEDUP", "2.0"))
JSON_OUT = Path(os.environ.get(
    "REPRO_BENCH_KERNEL_JSON",
    Path(__file__).resolve().parent / "history" / "BENCH_8.json"))
NUM_PARTITIONS = 8
THRESHOLD = 0.5
SEED = 42
BLOCK_ROWS = 65_536


def _build_and_save(path: Path) -> None:
    index = LSHEnsemble(threshold=THRESHOLD, num_perm=NUM_PERM,
                        num_partitions=NUM_PARTITIONS, kernel="numpy")
    blocks = stream_signature_blocks(NUM_DOMAINS, NUM_PERM,
                                     block_rows=BLOCK_ROWS, seed=SEED)
    index.index(chain.from_iterable(block.entries() for block in blocks))
    save_ensemble(index, path)


def _query_sample(n: int) -> tuple[SignatureBatch, list[int]]:
    """``n`` query signatures sampled from the indexed rows.

    Blocks regenerate independently, so the sample re-derives block 0
    alone; the planted near-duplicates guarantee non-trivial candidate
    sets.  The same leading rows are used at every ``n``, so the python
    reference (measured on fewer rows) answers a prefix of the exact
    workload the vectorised backends answer.
    """
    block = next(iter(stream_signature_blocks(
        min(NUM_DOMAINS, BLOCK_ROWS), NUM_PERM, block_rows=BLOCK_ROWS,
        seed=SEED)))
    step = max(1, len(block) // n)
    rows = np.arange(0, len(block), step)[:n]
    matrix = np.ascontiguousarray(block.matrix[rows])
    sizes = [int(block.sizes[i]) for i in rows]
    return SignatureBatch(None, matrix, seed=block.seed), sizes


def _time_query_batch(index, batch: SignatureBatch,
                      sizes: list[int]) -> tuple[float, list[set]]:
    # Warm with the identical batch: the first pass builds the lazy
    # per-depth buckets and probe structures for every depth the tuner
    # picks, and the second lets the core clock ramp,
    # so the timed passes measure steady-state probing rather than
    # one-time construction.  Best of three timed passes — single-pass
    # numbers on a shared box swing 2x with scheduler noise, and the
    # floor assertion needs the steady state.
    for _ in range(2):
        index.query_batch(batch, sizes=sizes, threshold=THRESHOLD)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        results = index.query_batch(batch, sizes=sizes, threshold=THRESHOLD)
        best = min(best, time.perf_counter() - t0)
    return best, results


def _memcpy_bandwidth() -> float:
    """Sustained large-copy bandwidth in bytes/s (the roofline)."""
    nbytes = min(256 * 2 ** 20, max(8 * 2 ** 20,
                                    NUM_DOMAINS * NUM_PERM * 8 // 4))
    src = np.ones(nbytes // 8, dtype=np.uint64)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # touch both buffers before timing
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return nbytes / best


def _bytes_per_query(index) -> float:
    """First-order bytes a query must move through the hot loops.

    Per partition forest and tree: read and hash one ``max_depth``-lane
    band of the query (``8 * depth`` bytes in, 8 out), then resolve the
    probe against the stored-hash structure — charged as one 16-byte
    row of the numpy backend's open-addressing table (hash and leftmost
    position share the row; load factor <= 0.25 keeps expected extra
    rounds under one).  Any backend must move at least that much per
    probe, so it stays a floor.  Verification and merge traffic scale
    with hits, not queries, and are excluded — a floor is exactly what
    a roofline ceiling wants.
    """
    per_tree = 8 * index.max_depth + 8 + 16
    return NUM_PARTITIONS * index.num_trees * per_tree


def _result_fingerprint(results: list[set]) -> str:
    """Order-insensitive digest for cross-kernel parity checks."""
    import hashlib

    digest = hashlib.sha256()
    for found in results:
        digest.update(repr(sorted(found, key=str)).encode())
        digest.update(b"|")
    return digest.hexdigest()


def _measure_worker(name: str, path: Path) -> dict:
    """The per-backend measurement, run inside a fresh process.

    Regenerates the (deterministic) query sample, loads the snapshot
    under ``name``, and times steady-state ``query_batch``.  The index
    graph is tens of millions of long-lived objects at 1M domains, so
    it is frozen out of the collector's scans — a gen-2 pass (seconds
    of wall clock) must not land inside a timed query window.
    """
    index = load_ensemble(path, kernel=name)
    n = PY_QUERIES if name == "python" else NUM_QUERIES
    batch, sizes = _query_sample(NUM_QUERIES)
    sub = SignatureBatch(None, batch.matrix[:n], seed=batch.seed)
    gc.collect()
    gc.freeze()
    try:
        seconds, results = _time_query_batch(index, sub, sizes[:n])
    finally:
        gc.unfreeze()
    return {
        "queries": n,
        "seconds": seconds,
        "bytes_per_query": _bytes_per_query(index),
        "fingerprint": _result_fingerprint(results[:min(PY_QUERIES, n)]),
    }


def _measure_in_subprocess(name: str, path: Path) -> dict:
    """Run :func:`_measure_worker` for ``name`` in a clean process.

    The builder's address space is hostile to measurement at 1M
    domains: a long build leaves a fragmented heap whose TLB/collector
    overheads can tax the backends unevenly, skewing the very ratio
    this benchmark asserts.  A fresh process per backend measures each
    against the same clean baseline — the snapshot on disk.
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure", name,
         str(path)],
        capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise RuntimeError("kernel %r measurement failed:\n%s"
                           % (name, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def run_benchmark() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kernel-bench.lshe"
        t0 = time.perf_counter()
        _build_and_save(path)
        build_seconds = time.perf_counter() - t0
        gc.collect()  # drop the build-side index graph before measuring
        membw = _memcpy_bandwidth()
        kernels = {}
        fingerprints = {}
        for name in list_kernels():
            measured = _measure_in_subprocess(name, path)
            n = measured["queries"]
            seconds = measured["seconds"]
            bytes_per_query = measured["bytes_per_query"]
            ceiling_qps = membw / bytes_per_query
            qps = n / seconds
            kernels[name] = {
                "queries": n,
                "seconds": seconds,
                "qps": qps,
                "bytes_per_query": bytes_per_query,
                "roofline_ceiling_qps": ceiling_qps,
                "roofline_fraction": qps / ceiling_qps,
            }
            fingerprints[name] = measured["fingerprint"]
        for name, stats in kernels.items():
            stats["speedup_vs_python"] = (
                stats["qps"] / kernels["python"]["qps"])
        return {
            "config": {
                "num_domains": NUM_DOMAINS,
                "num_perm": NUM_PERM,
                "num_partitions": NUM_PARTITIONS,
                "num_queries": NUM_QUERIES,
                "py_queries": PY_QUERIES,
                "threshold": THRESHOLD,
                "seed": SEED,
            },
            "build_seconds": build_seconds,
            "memcpy_bytes_per_s": membw,
            "kernels": kernels,
            "fingerprints": fingerprints,
            "parity": len(set(fingerprints.values())) == 1,
        }


def format_report(report: dict) -> str:
    lines = [
        "Kernel roofline: %d domains, num_perm %d, %d partitions"
        % (report["config"]["num_domains"], report["config"]["num_perm"],
           report["config"]["num_partitions"]),
        "build %.1fs; memcpy %.2f GB/s; parity %s"
        % (report["build_seconds"],
           report["memcpy_bytes_per_s"] / 1e9,
           "BIT-IDENTICAL" if report["parity"] else "MISMATCH"),
        "",
        "%-8s %10s %12s %10s %14s %10s"
        % ("kernel", "queries", "queries/s", "speedup",
           "ceiling q/s", "roofline"),
    ]
    for name, stats in sorted(report["kernels"].items()):
        lines.append(
            "%-8s %10d %12.1f %9.2fx %14.0f %9.2f%%"
            % (name, stats["queries"], stats["qps"],
               stats["speedup_vs_python"],
               stats["roofline_ceiling_qps"],
               100 * stats["roofline_fraction"]))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def kernel_report():
    report = run_benchmark()
    JSON_OUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    return report


def test_kernels_bit_identical(kernel_report):
    """Every backend answers the same queries with the same sets."""
    assert kernel_report["parity"], (
        "kernel backends disagree: %s" % kernel_report["fingerprints"])


def test_numpy_speedup_floor(kernel_report):
    speedup = kernel_report["kernels"]["numpy"]["speedup_vs_python"]
    assert speedup >= MIN_SPEEDUP, (
        "numpy kernel is only %.2fx the python reference "
        "(floor %.1fx)" % (speedup, MIN_SPEEDUP))


def test_trajectory_written(kernel_report):
    stored = json.loads(JSON_OUT.read_text(encoding="utf-8"))
    assert stored["kernels"].keys() == kernel_report["kernels"].keys()
    for stats in stored["kernels"].values():
        for key in ("qps", "speedup_vs_python", "roofline_fraction",
                    "bytes_per_query"):
            assert key in stats


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--measure":
        print(json.dumps(_measure_worker(sys.argv[2], Path(sys.argv[3]))))
        sys.exit(0)
    report = run_benchmark()
    JSON_OUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    emit("kernel_roofline", format_report(report))
    print("\n[trajectory written to %s]" % JSON_OUT)
    if not report["parity"]:
        sys.exit(1)
