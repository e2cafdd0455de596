#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

    python3 bench/run.py --workload serve_single --seed 42 --seconds 10 --trace 0

runs one workload and prints every metric by name with its unit, then —
as the last line of standard output — one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
reports the per-layer metrics instead of the end-to-end ones and writes
the spans to ``bench/out/trace-<workload>.json``.  Several
``--workload`` names (or none: all four) run one fresh process each.
``--repeat N`` is the calibration mode; see README.md.
"""

import os
import sys
import time

# Carried across the re-exec below and then dropped, so that the
# processes this one starts count their own set-up from their own start.
STARTED_AT = float(os.environ.pop("LSHBENCH_STARTED_AT", 0) or time.time())
if os.environ.get("PYTHONHASHSEED") != "0":
    # Pinned for the harness and (by inheritance) every child: set
    # iteration order, and with it allocation order, must not differ
    # between two runs of the same seed.
    os.execve(sys.executable, [sys.executable] + sys.argv,
              dict(os.environ, PYTHONHASHSEED="0",
                   LSHBENCH_STARTED_AT=repr(STARTED_AT)))

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# One run must end well inside the driver's 180 s limit.
WALL_CLOCK_GUARD_S = 170


def load_registry() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _terminate(signum, frame):
    # Unwind through every `finally` (which is what stops the server
    # subprocesses) instead of dying in place.
    raise SystemExit("stopped by signal %d" % signum)


def run_one(args, registry: dict) -> int:
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    try:
        from benchlib import inputs, layers, workloads
    except ImportError as exc:
        print("error: cannot import the program under test from %s: %s"
              % (SRC_DIR, exc), file=sys.stderr)
        return 2
    name = args.workload[0]
    scale = inputs.SMOKE if args.scale == "smoke" else inputs.FULL
    scale = dataclasses.replace(
        scale, work=scale.work * args.seconds / workloads.RUN_SECONDS)
    tmp = OUT_DIR / ("tmp-%s-%d" % (name, os.getpid()))
    tmp.mkdir(parents=True)
    # Scratch files of the program itself (snapshot packing, pool
    # spills) must stay inside the checkout too.
    os.environ["TMPDIR"] = str(tmp)
    run = workloads.Run(workloads.PLANS[name], args.seed, scale, tmp,
                        SRC_DIR, STARTED_AT)
    declared = registry["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            metrics = layers.traced_run(
                run, [metric["name"] for metric in declared])
            run.tracer.write(OUT_DIR / ("trace-%s.json" % name))
        else:
            run.set_up()
            run.measure()
            metrics = run.metrics
    except workloads.Failed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        run.children.close()
        shutil.rmtree(tmp, ignore_errors=True)
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(metrics) != set(units):
        print("error: measured metrics and BENCHMARK.json disagree: %s"
              % sorted(set(metrics) ^ set(units)), file=sys.stderr)
        return 1
    tally = run.tally
    print("workload %s  seed %d  scale %s%s  inputs %s"
          % (name, args.seed, scale.name,
             "" if scale.name == "full" else " (NOT COMPARABLE)",
             run.inputs.digest()[:12]))
    for metric in declared:
        print("  %-44s %14.4f %s" % (metric["name"],
                                      metrics[metric["name"]],
                                      metric["unit"]))
    print("  operations attempted %d, failed %d"
          % (tally.attempted, tally.failed))
    for reason in tally.reasons:
        print("  failed: %s" % reason)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    if args.json_out:
        args.json_out.write_text(json.dumps(dict(
            result, workload=name, seed=args.seed, scale=scale.name,
            comparable=scale.name == "full",
            inputs_digest=run.inputs.digest()), indent=2) + "\n")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def run_each(args, names) -> int:
    """Several workloads: a fresh process (and temp dir) for each."""
    status = 0
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale]
        if args.json_out:
            command += ["--json-out", str(args.json_out.with_name(
                "%s-%s%s" % (args.json_out.stem, name,
                             args.json_out.suffix)))]
        status = subprocess.run(command).returncode or status
    return status


def main() -> int:
    registry = load_registry()
    names = [workload["name"] for workload in registry["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=names, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int,
                        default=registry["run_seconds"],
                        help="scales every fixed operation count; the "
                        "counts are sized for the default")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full",
                        help="smoke is for the tests only; its output "
                        "is stamped as not comparable")
    parser.add_argument("--json-out", type=Path, default=None)
    parser.add_argument("--repeat", type=int, default=0,
                        help="calibration: run everything N times and "
                        "write bench/NOISE.json")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    if args.repeat:
        sys.path.insert(0, str(BENCH_DIR))
        from benchlib import calibrate
        return calibrate.calibrate(args, registry, Path(__file__))
    selected = args.workload or names
    if len(selected) > 1:
        return run_each(args, selected)
    args.workload = selected
    signal.signal(signal.SIGALRM, _terminate)
    signal.alarm(WALL_CLOCK_GUARD_S)
    return run_one(args, registry)


if __name__ == "__main__":
    sys.exit(main())
