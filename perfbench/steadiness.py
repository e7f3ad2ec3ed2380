"""Steadiness report: run each workload K times and show every metric's spread.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10 [--workloads fleet,hunt]

Each run is ``run.py`` for ``run_seconds`` from ``BENCHMARK.json``, the
length the bounds apply to, with its own ``--seed`` (``FIRST_SEED`` on).
For every end-to-end metric the report gives the median and quartiles of
the K run values (``statistics.quantiles(values, n=4)``) and the relative
spread (q3 - q1) / median, next to the metric's bound from
``BENCHMARK.json`` and a third of it, the level every spread should stay
under.  Rows marked ``unscaled`` show the same host times before the
host-speed scaling, for comparison; they are not judged.  The report is
also written to ``.perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 100
#: run.py's host_speed line; the unscaled values show what scaling did.
UNSCALED = re.compile(r"unscaled setup_s ([\d.]+) s, wall_s ([\d.]+) s")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in benchmark["workloads"]])
    seconds = benchmark["run_seconds"]

    report: dict = {}
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {}
        failures = 0
        for run in range(args.runs):
            seed = FIRST_SEED + run
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "metrics": {}}
            failures += proc.returncode != 0 or not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            unscaled = UNSCALED.search(proc.stdout)
            if unscaled:
                for name, value in zip(("setup_s", "wall_s"),
                                       unscaled.groups()):
                    values.setdefault(f"{name} unscaled", []).append(
                        float(value))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4f}"
                for name, metric in result["metrics"].items()), flush=True)
        rows = {}
        for spec in benchmark["end_to_end"]:
            gated = [spec["name"]] + ([f"{spec['name']} unscaled"]
                                      if spec["unit"] == "s" else [])
            for name in gated:
                series = values.get(name, [])
                if len(series) < 2:
                    steady = steady and name != spec["name"]
                    continue
                q1, median, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median
                rows[name] = {"median": median, "q1": q1, "q3": q3,
                              "spread": spread, "bound": spec["bound"],
                              "values": series}
                # The unscaled rows are shown, not judged.
                if name == spec["name"] and spread > spec["bound"] / 3:
                    steady = False
        report[workload] = {"runs": args.runs, "failed_runs": failures,
                            "metrics": rows}
        steady = steady and failures == 0
        print(f"\n{workload}: {args.runs} runs of {seconds} s, "
              f"{failures} failed")
        print(f"  {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>8} {'bound/3':>8}")
        for name, row in rows.items():
            print(f"  {name:<16} {row['median']:10.4f} {row['q1']:10.4f} "
                  f"{row['q3']:10.4f} {row['spread']:8.3f} "
                  f"{row['bound'] / 3:8.3f}")
        print(flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "steadiness.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print("steady" if steady else "NOT steady: a spread exceeds a third "
          "of its bound, or a run failed")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
