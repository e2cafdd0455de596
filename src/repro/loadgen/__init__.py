"""SLO load harness: replay mixed read/write traffic against a server.

The paper's evaluation is built on measured trade-offs at scale
(Figures 4-9, Table 4); the distributed-LSH serving literature
(Bahmani et al.; Teixeira et al., PAPERS.md) grounds *its* claims in
sustained throughput/latency runs.  This package is that measurement
substrate for the serving stack: deterministic traffic profiles
(:mod:`repro.loadgen.profile`), a seeded open-loop schedule generator
(:mod:`repro.loadgen.schedule`), a threaded driver that replays the
schedule over HTTP while mutating the index in-process
(:mod:`repro.loadgen.runner`), and per-phase percentile reporting /
``BENCH_*.json`` trajectory emission (:mod:`repro.loadgen.report`).
"""

from repro.loadgen.profile import (
    RampStage,
    TrafficProfile,
    mixed_mutating,
    read_heavy,
)
from repro.loadgen.report import build_report, format_report
from repro.loadgen.runner import run_against_index, run_load
from repro.loadgen.schedule import ScheduledOp, build_schedule

__all__ = [
    "RampStage",
    "TrafficProfile",
    "read_heavy",
    "mixed_mutating",
    "ScheduledOp",
    "build_schedule",
    "run_load",
    "run_against_index",
    "build_report",
    "format_report",
]
