"""Shared configuration and helpers for the benchmark suite.

Every module in this directory regenerates one table or figure of the
paper.  The paper's corpora (65,533 Canadian Open Data domains; 262M WDC
domains; 3,000 queries) are scaled down so the whole suite runs on a
laptop in minutes; every knob can be raised through environment variables
to approach paper scale:

=======================  =========================================  =======
variable                 meaning                                    default
=======================  =========================================  =======
REPRO_BENCH_DOMAINS      corpus size for accuracy experiments       2000
REPRO_BENCH_QUERIES      number of sampled query domains            50
REPRO_BENCH_NUM_PERM     MinHash functions m (paper: 256)           256
REPRO_BENCH_STEP         containment-threshold sweep step           0.1
REPRO_BENCH_SCALE_MAX    largest synthetic corpus for Figure 9      50000
=======================  =========================================  =======

Reports are printed and also written to ``benchmarks/results/`` so the
paper-vs-measured record in EXPERIMENTS.md can be refreshed from disk.
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"

NUM_DOMAINS = int(os.environ.get("REPRO_BENCH_DOMAINS", "2000"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "50"))
NUM_PERM = int(os.environ.get("REPRO_BENCH_NUM_PERM", "256"))
THRESHOLD_STEP = float(os.environ.get("REPRO_BENCH_STEP", "0.1"))
SCALE_MAX = int(os.environ.get("REPRO_BENCH_SCALE_MAX", "50000"))

# Table 3 of the paper: default experimental variables.
PAPER_DEFAULT_THRESHOLD = 0.5
PAPER_PARTITION_COUNTS = (8, 16, 32)
CORPUS_SEED = 42
QUERY_SEED = 13


def write_report(name: str, text: str) -> Path:
    """Persist a paper-style report under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / ("%s.txt" % name)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def emit(name: str, text: str) -> None:
    """Print a report and persist it."""
    print()
    print(text)
    path = write_report(name, text)
    print("[saved to %s]" % path)
