"""The repository's benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0

Workloads: ``fleet``, ``hunt``, ``paper``, ``serve`` (see README.md).
Every pass runs in a fresh interpreter (``child.py``) with ``jobs`` pinned
to 1 and its own scratch directory under ``.perfbench/``; passes repeat
until ``--seconds`` have elapsed (at least ``MIN_PASSES``).  A pass is
timed as a list of short intervals between checkpoints; ``setup_s`` and
``wall_s`` are each interval's fastest time over the run's passes, summed
(see ``quiet_time``), and scaled by the run's host speed (see
``host_speed``); ``rss_mb`` is the median.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
fastest traced pass, plus the tracing overhead (traced minus untraced
``wall_s``).

Every pass's output is compared with the sha256 recorded in
``digests.json``; a mismatch, an exception or a ``SIMULATOR_BUG`` counts
its operations as failed, and the command then exits 1 after printing the
result.  The last stdout line is the JSON result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet", "hunt", "paper", "serve")

#: A run makes at least this many passes, however long they take.
MIN_PASSES = 3
#: ... and at least this many of each kind when tracing.
MIN_TRACED_PASSES = 2
#: Start no pass after this many seconds, so a run ends well within the
#: three minutes a run may take.
LAST_START_S = 120.0
#: Kill a pass (and its process group) that takes longer than this.
PASS_TIMEOUT_S = 45.0
#: Seconds one reference unit takes at host speed 1.0 (see host_speed);
#: about its quiet time on the 2-vCPU host this was tuned on.
REFERENCE_NOMINAL_S = 0.0001
#: Reference units per sample, each timed on its own.
REFERENCE_UNITS = 50
#: Pause between two reference samples while a pass runs.
REFERENCE_GAP_S = 0.05


class _Node:
    __slots__ = ("name", "kids", "attrs")

    def __init__(self, name: str, attrs: dict):
        self.name, self.kids, self.attrs = name, [], attrs


def _reference_unit() -> int:
    """Fixed pure-Python work of the simulator's kind: small objects,
    attribute and dict access, a tree walk and string formatting."""
    nodes = [_Node(f"v{i}", {"w": i * 3, "h": i % 7}) for i in range(100)]
    for i in range(1, len(nodes)):
        nodes[(i - 1) // 3].kids.append(nodes[i])
    seen: dict[str, int] = {}
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        seen[node.name] = node.attrs["w"] + len(node.kids)
        stack.extend(node.kids)
    return len([f"{k}:{v}" for k, v in sorted(seen.items()) if v % 2 == 0])


def reference_times() -> list[float]:
    """One reference sample: the time of each of its units."""
    clock = time.perf_counter
    times = []
    last = clock()
    for _ in range(REFERENCE_UNITS):
        _reference_unit()
        now = clock()
        times.append(now - last)
        last = now
    return times


def host_speed(references: list[list[float]]) -> float:
    """The run's host speed: nominal reference unit time / its quiet time.

    ``references`` holds, per pass, the reference unit times taken while
    the pass ran (see ``run_pass``).  The reference gets the estimator the
    program gets: unit ``i``'s fastest time over the passes, here averaged
    over ``i`` where the program's intervals are summed.  Its units are
    short (about 0.1 ms) like the program's intervals, so both find the
    same quiet moments of the host: a 10 ms reference sample was seldom
    undisturbed where the program's intervals were, and scaling by it
    widened the ``fleet`` spread.  The reference runs here, in the
    benchmark's own process, which never imports the program: in the
    pass's interpreter it would share the program's heap, allocator and
    GC settings, and a program change to those would be partly divided
    out.
    """
    count = min(len(units) for units in references)
    quiet = quiet_time([units[:count] for units in references]) / count
    return REFERENCE_NOMINAL_S / quiet


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def quiet_time(lap_lists: list[list[float]]) -> float:
    """Each interval's fastest time over the passes, summed.

    ``lap_lists`` holds one list of interval times per pass.  The host
    this was tuned on (2 vCPUs, shared) slows the program by up to 2.5x
    for stretches of a fraction of a second to several seconds.  A whole
    1 s ``fleet`` pass seldom runs entirely in a quiet stretch; each of
    its 36,000 intervals (about 25 us on average) does in some pass.  A
    slower program makes every sample of an interval slower, its fastest
    too.  Over eleven 25 s windows of ``fleet`` passes the fastest whole
    pass spread 17 % across windows, the median pass 10 %, and this
    7-10 %; ``host_speed`` removes most of the rest.

    The passes of one input make the same calls, so they have the same
    interval count; passes that do not (none were seen) are left out.
    """
    length, _ = Counter(len(laps) for laps in lap_lists).most_common(1)[0]
    same = [laps for laps in lap_lists if len(laps) == length]
    return sum(min(column) for column in zip(*same))


def run_pass(workload: str, index: int, traced: bool, run_dir: str,
             trace_out: "str | None", mode: str = "check") -> dict:
    """One fresh-interpreter pass; returns its report plus ``setup_s``
    and ``wall_s``, its set-up and pass totals.

    ``mode`` is ``check`` (compare outputs with ``digests.json``) or
    ``record`` (only report the output digests, see record.py).

    A fresh interpreter per pass, because in-process repetition drifts:
    ``engine.batch._FP_MEMO`` pins up to 8,192 objects, and over 4 ``paper``
    passes in one process time went 3.64 -> 3.92 s and RSS 35 -> 60 MB.
    ``PYTHONHASHSEED`` is fixed so that set iteration, and with it the
    checkpoint sequence, is the same in every pass; outputs do not depend
    on it.
    """
    workdir = tempfile.mkdtemp(prefix="pass-", dir=run_dir)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               TMPDIR=workdir, PYTHONHASHSEED="0")
    command = [sys.executable, os.path.join(HERE, "child.py"), workload,
               str(index), "1" if traced else "0", mode, workdir]
    spawned = time.perf_counter()
    command.append(repr(spawned))
    child = subprocess.Popen(command, cwd=workdir, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    streams: list[tuple[str, str]] = []
    reader = threading.Thread(
        target=lambda: streams.append(child.communicate()))
    reader.start()
    # The reference is timed while the pass runs, on the other vCPU, so
    # it sees the same host moments as the pass (see host_speed).
    reference = reference_times()
    while reader.is_alive():
        if time.perf_counter() - spawned > PASS_TIMEOUT_S:
            # The serve pass owns a daemon and its worker: end the group.
            os.killpg(child.pid, signal.SIGKILL)
            reader.join()
            break
        reader.join(REFERENCE_GAP_S)
        reference.extend(reference_times())
    out, err = streams[0]
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = {"attempted": 1, "failed": 1, "setup_laps": [],
                  "laps": [], "rss_mb": 0.0, "latencies": {},
                  "digests": {}, "errors": [f"pass exited "
                                            f"{child.returncode}: "
                                            f"{err.strip()[-300:]}"]}
    # A pass that failed before its set-up ended has no set-up time.
    report["setup_s"] = sum(report["setup_laps"]) or None
    report["wall_s"] = sum(report["laps"])
    report["traced"] = traced
    report["reference"] = reference
    if traced and trace_out and os.path.exists(os.path.join(workdir, "trace.json")):
        shutil.move(os.path.join(workdir, "trace.json"), trace_out)
    shutil.rmtree(workdir, ignore_errors=True)
    return report


def serve_lines(passes: list[dict]) -> list[str]:
    """The serve workload's job latencies and throughput, with counts."""
    fleet = [v for p in passes for v in p["latencies"].get("fleet", [])]
    cached = [v for p in passes for v in p["latencies"].get("cached", [])]
    jobs = len(fleet) + len(cached)
    busy = sum(p["wall_s"] for p in passes)
    lines = []
    if fleet:
        lines.append(f"  fleet_job_p50_s   {statistics.median(fleet):10.4f} s"
                     f"      (n={len(fleet)})")
    if cached:
        p90 = (statistics.quantiles(cached, n=10, method="inclusive")[-1]
               if len(cached) > 1 else cached[0])
        lines.append(f"  cached_job_p50_s  "
                     f"{statistics.median(cached):10.4f} s      "
                     f"(n={len(cached)})")
        lines.append(f"  cached_job_p90_s  {p90:10.4f} s      "
                     f"(n={len(cached)}; fewer than 10 samples beyond it "
                     "unless n >= 100)")
    if busy > 0:
        lines.append(f"  jobs_per_s        {jobs / busy:10.4f} 1/s    "
                     f"(n={jobs} jobs over {busy:.2f} s of rounds)")
    return lines


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source at src/repro; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        index = args.seed % json.load(f)["inputs"]

    # Compile once up front so no pass pays bytecode compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src"), HERE],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=False)
    state_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(state_dir, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state_dir)
    trace_out = os.path.join(state_dir, f"trace-{args.workload}.json")

    passes: list[dict] = []
    start = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - start
            untraced = [p for p in passes if not p["traced"]]
            traced = [p for p in passes if p["traced"]]
            enough = (len(passes) >= MIN_PASSES if not args.trace else
                      min(len(untraced), len(traced)) >= MIN_TRACED_PASSES)
            if elapsed > LAST_START_S or (enough and
                                          elapsed >= args.seconds):
                break
            want_trace = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(args.workload, index, want_trace,
                                   run_dir, trace_out))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    print(f"perfbench {args.workload}: seed {args.seed} (input {index}), "
          f"{len(passes)} passes in {time.perf_counter() - start:.1f} s, "
          "one fresh interpreter each")

    samples = {
        "setup_s": [p["setup_s"] for p in plain if p["setup_s"] is not None],
        "wall_s": [p["wall_s"] for p in plain if p["laps"]],
        "rss_mb": [p["rss_mb"] for p in plain if p["rss_mb"] > 0],
    }
    if not all(samples.values()):
        print("perfbench: no pass completed its set-up and measured unit",
              file=sys.stderr)
        return 1
    speed = host_speed([p["reference"] for p in passes])
    raw = {"setup_s": quiet_time([p["setup_laps"] for p in plain
                                  if p["setup_laps"]]),
           "wall_s": quiet_time([p["laps"] for p in plain if p["laps"]])}
    measured = {"setup_s": raw["setup_s"] * speed,
                "wall_s": raw["wall_s"] * speed,
                "rss_mb": statistics.median(samples["rss_mb"])}
    if args.trace:
        layers = traced_metrics(passes, measured["wall_s"], speed)
        if not layers:
            print("perfbench: no traced pass completed", file=sys.stderr)
            return 1
        measured.update(layers)
        metrics_spec = benchmark["per_layer"]
    else:
        metrics_spec = benchmark["end_to_end"]

    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        values = samples[name]
        q1, q2, q3 = quartiles(values)
        how = {"setup_s": "quiet, scaled; set-up totals",
               "wall_s": "quiet, scaled; pass totals",
               "rss_mb": "median"}[name]
        print(f"  {name:<17} {measured[name]:10.4f} {spec['unit']:<6} "
              f"({how} of {len(values)}: q1 {q1:.4f}, median {q2:.4f}, "
              f"q3 {q3:.4f})")
    print(f"  host_speed        {speed:10.4f} x      (nominal "
          f"{REFERENCE_NOMINAL_S * 1e3:.2f} ms / quiet time of "
          f"{sum(len(p['reference']) for p in passes)} reference units "
          f"over {len(passes)} passes; "
          f"unscaled setup_s {raw['setup_s']:.4f} s, "
          f"wall_s {raw['wall_s']:.4f} s)")
    if args.workload == "serve":
        for line in serve_lines(plain):
            print(line)
    print(f"  failed_ratio      {failed / max(attempted, 1):10.4f} ratio  "
          f"({failed} of {attempted} operations)")
    errors: dict[str, int] = {}
    for p in passes:
        for error in p["errors"]:
            errors[error] = errors.get(error, 0) + 1
    for error, passes_with_it in errors.items():
        print(f"  FAILED ({passes_with_it} passes): {error}")
    if args.trace:
        for spec in benchmark["per_layer"]:
            print(f"  {spec['name']:<28} {measured[spec['name']]:14.6f} "
                  f"{spec['unit']}")
        print(f"  chrome trace of the last traced pass: "
              f"{os.path.relpath(trace_out, ROOT)}")

    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {spec["name"]: {"value": measured[spec["name"]],
                                   "unit": spec["unit"]}
                    for spec in metrics_spec},
    }))
    return 0 if correct else 1


def traced_metrics(passes: list[dict], untraced_wall: float,
                   speed: float) -> dict:
    """The per-layer metrics of the fastest traced pass, plus overhead.

    Taking one whole pass keeps its layer self times adding up to its
    own wall time.  ``trace.wall_s`` is ``wall_s`` over the traced passes,
    the same estimate as the untraced one it is compared with.  Host
    times (names ending ``.s``) are scaled by ``speed`` like ``wall_s``."""
    traced = [p for p in passes if p["traced"] and "layers" in p
              and p["laps"]]
    if not traced:
        return {}
    best = min(traced, key=lambda p: p["wall_s"])
    metrics = {name: value * speed if name.endswith(".s") else value
               for name, value in best["layers"].items()}
    metrics["trace.wall_s"] = quiet_time([p["laps"] for p in traced]) \
        * speed
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
