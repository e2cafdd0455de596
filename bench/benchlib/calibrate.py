"""Calibration: how much does every metric move between runs of one
commit?

``python3 bench/run.py --repeat N`` runs every workload N times, each
time on another seed, and writes per workload and end-to-end metric the
median, the quartile spread ``(Q3 - Q1) / median`` (with
``statistics.quantiles(values, n=4)``, the driver's own rule) and the
full range next to the metric's bound into ``bench/NOISE.json``.  It
fails when a spread exceeds half its bound: such a metric cannot tell a
regression of the size of its bound from noise, and is to be made
steadier (more work per phase) or demoted to a per-layer metric.
``setup_s`` is recorded but not judged — one sample per run of a
process-start-to-ready time; the driver exempts its spread too.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path


def spreads(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median,
            "iqr_share": (q3 - q1) / median,
            "range_share": (max(values) - min(values)) / median}


def calibrate(args, registry: dict, script: Path) -> int:
    if args.repeat < 2:
        print("error: --repeat needs at least 2 runs", file=sys.stderr)
        return 2
    names = args.workload or [w["name"] for w in registry["workloads"]]
    seeds = [args.seed + i for i in range(args.repeat)]
    samples: dict = {name: {} for name in names}
    for seed in seeds:
        for name in names:
            done = subprocess.run(
                [sys.executable, str(script), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--scale", args.scale],
                capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                print("error: %s failed on seed %d" % (name, seed),
                      file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for metric, entry in result["metrics"].items():
                samples[name].setdefault(metric, []).append(
                    entry["value"])
            print("seed %d  %s done" % (seed, name), flush=True)
    bounds = {m["name"]: m["bound"] for m in registry["end_to_end"]}
    noise = {name: {metric: dict(spreads(values), bound=bounds[metric])
                    for metric, values in metrics.items()}
             for name, metrics in samples.items()}
    out = script.resolve().parent / "NOISE.json"
    out.write_text(json.dumps(
        {"runs": args.repeat, "seeds": seeds, "scale": args.scale,
         "seconds": args.seconds, "noise": noise}, indent=2) + "\n")
    loud = [(name, metric, entry) for name, metrics in noise.items()
            for metric, entry in metrics.items()
            if metric != "setup_s"
            and entry["iqr_share"] > entry["bound"] / 2]
    print("%-16s %-24s %12s %8s %8s %6s"
          % ("workload", "metric", "median", "iqr", "range", "bound"))
    for name, metrics in noise.items():
        for metric, entry in metrics.items():
            print("%-16s %-24s %12.4f %7.2f%% %7.2f%% %5.0f%%"
                  % (name, metric, entry["median"],
                     100 * entry["iqr_share"], 100 * entry["range_share"],
                     100 * entry["bound"]))
    for name, metric, entry in loud:
        print("too noisy: %s on %s spreads %.1f%%, over half its %.0f%% "
              "bound" % (metric, name, 100 * entry["iqr_share"],
                         100 * entry["bound"]), file=sys.stderr)
    print("[written to %s]" % out)
    return 1 if loud else 0
