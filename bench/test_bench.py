"""Tests of the benchmark harness itself (collected by tier-1).

The registry in BENCHMARK.json and what the harness emits must agree;
the estimators are pinned on hand-computed cases; and a smoke-scale
pass of one library and one served workload must be deterministic in
its inputs and leave nothing behind.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from benchlib import inputs, stats, workloads  # noqa: E402

REGISTRY = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args, json_out: Path | None = None) -> dict:
    """One smoke-scale run of bench/run.py; returns its result line."""
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--scale", "smoke", *args]
    if json_out is not None:
        command += ["--json-out", str(json_out)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=150)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------- registry ------------------------------ #


def test_registry_shape():
    assert set(REGISTRY) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert REGISTRY["paths"] == ["bench"]
    assert 2 <= len(REGISTRY["workloads"]) <= 8
    assert 1 <= len(REGISTRY["end_to_end"]) <= 16
    assert 1 <= len(REGISTRY["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in REGISTRY[section]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in REGISTRY["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in REGISTRY["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in REGISTRY["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in REGISTRY["end_to_end"] + REGISTRY["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in REGISTRY["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in REGISTRY["end_to_end"])}]


def test_registry_matches_harness():
    assert ([w["name"] for w in REGISTRY["workloads"]]
            == list(workloads.PLANS))
    assert REGISTRY["run_seconds"] == workloads.RUN_SECONDS


# ---------------------------- estimators ----------------------------- #


def test_percentile_interpolates():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)
    assert stats.percentile([7], 99) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_block_rates_and_median():
    # Six operations finishing at 1..6 s after a start at 0, blocks of
    # two: every block lasts 2 s, so 2 ops * 3 units / 2 s = 3 per s.
    assert stats.block_rates([6, 1, 2, 5, 3, 4], 0.0, 2, 3) == [3, 3, 3]
    # A stalled middle block drags the mean but not the median, and a
    # trailing partial block is dropped.
    rates = stats.block_rates([1, 2, 12, 13, 14, 15, 16], 0.0, 2)
    assert rates == [1.0, 2 / 11, 1.0]
    assert stats.median_rate(rates) == 1.0
    with pytest.raises(ValueError):
        stats.median_rate([])


def test_span_self_time_subtracts_merged_children():
    spans = [
        {"id": 0, "name": "router", "start": 0.0, "end": 10.0,
         "parent": None},
        # A parallel fan-out: the two shard calls overlap on [3, 5].
        {"id": 1, "name": "shard", "start": 1.0, "end": 5.0, "parent": 0},
        {"id": 2, "name": "shard", "start": 3.0, "end": 8.0, "parent": 0},
        {"id": 3, "name": "kernel", "start": 1.5, "end": 2.5, "parent": 1},
    ]
    assert stats.span_self_times(spans) == {
        "router": 3.0, "shard": 8.0, "kernel": 1.0}


def test_ladder_self_time_is_depth_minus_depth_below():
    assert stats.ladder_self_times(
        [("core", 0.5), ("engine", 0.75), ("http", 4.75)]) == [
            ("core", 0.5), ("engine", 0.25), ("http", 4.0)]


# ------------------------------ inputs ------------------------------- #


def test_inputs_follow_the_seed():
    one = inputs.make_inputs(7, inputs.SMOKE, 30)
    again = inputs.make_inputs(7, inputs.SMOKE, 30)
    other = inputs.make_inputs(8, inputs.SMOKE, 30)
    assert one.digest() == again.digest()
    assert one.digest() != other.digest()
    # The shape is the part a seed must not move.
    assert one.order == other.order
    assert ([len(one.domains[key]) for key in one.order]
            == [len(other.domains[key]) for key in other.order])


# ---------------------------- smoke passes --------------------------- #


def leftovers() -> list[str]:
    """Temp dirs and server processes a finished run should not leave."""
    found = [str(path) for path in (BENCH_DIR / "out").glob("tmp-*")]
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if (b"repro.cli" in command
                    and os.fsencode(str(BENCH_DIR / "out")) in command):
                found.append(command.decode(errors="replace"))
    return found


@pytest.mark.timeout(180)
def test_smoke_library_workload_repeats_exactly(tmp_path):
    first = run_bench("--workload", "inproc_batch", "--seed", "5",
                      json_out=tmp_path / "a.json")
    second = run_bench("--workload", "inproc_batch", "--seed", "5",
                       json_out=tmp_path / "b.json")
    assert first["correct"] and first["failed"] == 0
    assert first["attempted"] == second["attempted"]
    assert set(first["metrics"]) == {
        metric["name"] for metric in REGISTRY["end_to_end"]}
    for metric in ("recall", "precision"):
        assert (first["metrics"][metric]["value"]
                == second["metrics"][metric]["value"])
    a, b = (json.loads((tmp_path / name).read_text())
            for name in ("a.json", "b.json"))
    assert a["inputs_digest"] == b["inputs_digest"]
    assert a["comparable"] is False and a["scale"] == "smoke"
    assert leftovers() == []


@pytest.mark.timeout(180)
def test_smoke_served_workload_traced_leaves_nothing_behind():
    result = run_bench("--workload", "serve_single", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        metric["name"] for metric in REGISTRY["per_layer"]}
    ladder = [result["metrics"][name]["value"] for name in (
        "core.query_batch1_ms", "serve.http_query_ms")]
    assert 0 < ladder[0] < ladder[1]
    trace = json.loads(
        (BENCH_DIR / "out" / "trace-serve_single.json").read_text())
    assert {"id", "name", "start", "end", "parent", "op"} == set(
        trace["spans"][0])
    assert leftovers() == []
