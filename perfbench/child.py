"""One measured pass of one workload, in a fresh interpreter.

Usage (``run.py`` and ``record.py`` call it)::

    python3 perfbench/child.py WORKLOAD INPUT TRACE MODE WORKDIR SPAWNED

``INPUT`` is the input index (``--seed`` modulo the recorded input
count), ``TRACE`` is 0 or 1, ``MODE`` is ``check`` (compare outputs with
``digests.json``) or ``record`` (report the output digests instead), and
``WORKDIR`` is a fresh scratch directory owned by this pass: the working
directory, ``TMPDIR``, every cache and snapshot root and the trace file
all live under it.  ``SPAWNED`` is the parent's ``perf_counter`` just
before it started this process; on Linux that clock is
``CLOCK_MONOTONIC``, shared by both processes.

The pass is timed as a list of intervals between checkpoints (see
``tracing.install_checkpoints``): ``setup_laps`` from ``SPAWNED`` (from
the daemon's launch on ``serve``) to the first measured unit, ``laps``
from there to the end of the pass.  A pass of a given input makes the
same calls every time, so interval ``i`` of one pass is interval ``i`` of
another.  Experiment (``paper``) and round (``serve``) ends are
checkpoints too.

The last stdout line is one JSON object: ``setup_laps``, ``laps``,
``rss_mb``, ``attempted``, ``failed``, ``errors``, ``digests``,
``latencies`` and, when tracing, ``layers``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time

ENTERED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Base of every seeded input; input ``k`` uses ``BASE_SEED + k``.
BASE_SEED = 0x5EED

# ---- fleet: 3 fleet-corpus apps x 3 policies x 40 devices = 360 sessions.
FLEET_DEVICES_PER_CELL = 40

# ---- hunt: the repo's 60-app corpus.  The input varies the session seed,
# not the corpus: corpus seeds 1-3 gave 824, 911 and 1028 probes (+-11 %
# work), which would swamp host-time differences between revisions.
HUNT_APPS = 60

# ---- paper: the reproduction path, in the paper's order.
PAPER_EXPERIMENTS = ("table3", "table5", "fig7", "fig8", "fig9", "fig10",
                     "fig11", "fig12", "fig13", "fig14", "sec5.6-energy",
                     "ext-oracle", "ext-probes")

# ---- serve: one warm daemon, two closed-loop clients, fixed job counts.
# Daemon.jobs keeps every job's event history and is never pruned, so a
# fixed job count (not a fixed duration) keeps rss_mb independent of
# throughput.  A pass runs SERVE_ROUNDS rounds on one daemon, each a
# measured unit, so a run has several round times for one daemon set-up.
SERVE_FLEET_DEVICES = 18
SERVE_ROUNDS = 8
SERVE_FLEET_JOBS = 1
SERVE_CACHED_EXPERIMENT = "fig14"
SERVE_CACHED_JOBS = 1
SERVE_START_TIMEOUT_S = 60.0

#: Traced passes must attribute at least this share of the pass's wall
#: time to the self time of named layer spans.  The rest is catch-all
#: self time: the benchmark's own loop and the parts of ``run_fleet``,
#: ``run_hunt`` and each experiment body that no inner wrapper covers.
COVERAGE_TOLERANCE = 0.05
#: The spans whose self time is catch-all time (see COVERAGE_TOLERANCE).
CATCH_ALL_SPANS = frozenset(
    ("bench.pass", "fleet.run", "hunt.run")
    + tuple(f"harness.{name}" for name in PAPER_EXPERIMENTS))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """What one pass reports back to run.py."""

    def __init__(self, mode: str, expected: dict):
        self.mode = mode
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.extra: dict = {}
        #: Checkpoint times; install_checkpoints appends to this list.
        self.stamps: list[float] = []
        self._setup_end: "int | None" = None
        self._pass_end: "int | None" = None

    def begin_setup(self, origin: float) -> None:
        """Set-up is timed from ``origin``; earlier stamps are dropped."""
        self.stamps[:] = [origin]

    def start(self) -> None:
        """Set-up is over: the first measured unit starts now."""
        self._setup_end = len(self.stamps)
        self.stamps.append(time.perf_counter())

    def mark(self) -> None:
        """A checkpoint the wrapped calls do not give (see serve)."""
        self.stamps.append(time.perf_counter())

    def stop(self) -> None:
        """A measured unit ended (the pass, an experiment, a round)."""
        self.mark()
        self._pass_end = len(self.stamps)

    @staticmethod
    def _intervals(stamps: list[float]) -> list[float]:
        return [end - begin for begin, end in zip(stamps, stamps[1:])]

    @property
    def setup_laps(self) -> list[float]:
        if self._setup_end is None:
            return []
        return self._intervals(self.stamps[:self._setup_end + 1])

    @property
    def laps(self) -> list[float]:
        if self._setup_end is None or self._pass_end is None:
            return []
        return self._intervals(self.stamps[self._setup_end:self._pass_end])

    @property
    def wall_s(self) -> float:
        return sum(self.laps)

    def digest(self, key: str, value: str, ops: int) -> bool:
        """Record ``value`` under ``key``; in check mode compare it with
        the recorded digest and count ``ops`` failed on a mismatch."""
        self.digests[key] = value
        if self.mode == "record":
            return True
        want = self.expected.get(key)
        if want != value:
            self.fail(ops, f"{key}: digest {value[:12]} != recorded "
                           f"{str(want)[:12]}")
            return False
        return True

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.errors.append(message)


def _configure_engine(workdir: str) -> None:
    # The engine defaults to jobs="auto", which spawns a process pool per
    # run_batch on a multi-core host; pin it, and keep any cache root
    # inside this pass's scratch directory.
    from repro.engine import batch

    batch.configure(jobs=1, cache=False,
                    cache_root=os.path.join(workdir, ".repro-cache"))


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
def fleet_pass(result: Pass, index: int, workdir: str, tracer) -> None:
    from repro.fleet.run import (
        FleetSpec,
        _load_worker_template,
        run_fleet,
        template_key,
    )

    spec = FleetSpec(devices_per_cell=FLEET_DEVICES_PER_CELL,
                     seed=BASE_SEED + index)
    root = os.path.join(workdir, "templates")
    with _span(tracer, "bench.setup"):
        # One template capture per cell, persisted to the per-pass store
        # and held in the process cache the pass then forks from.
        for cell in range(len(spec.cells())):
            _load_worker_template(root, template_key(spec, cell), spec,
                                  cell, persist=True)
    result.attempted = spec.total_devices
    result.start()
    with _span(tracer, "bench.pass"):
        report = run_fleet(spec, jobs=1, snapshot_root=root).to_json()
    result.stop()
    result.digest(f"fleet/{index}", sha256(report), spec.total_devices)


# ----------------------------------------------------------------------
# hunt
# ----------------------------------------------------------------------
def hunt_pass(result: Pass, index: int, workdir: str, tracer) -> None:
    from repro.engine.cache import ResultCache
    from repro.hunt.generator import DEFAULT_CORPUS_SEED
    from repro.hunt.search import HuntSettings, run_hunt

    # HuntSettings.cache=True would write .repro-cache/ in the cwd and a
    # later pass would hit it warm: each pass gets a fresh memory cache.
    settings = HuntSettings(
        apps=HUNT_APPS, seed=DEFAULT_CORPUS_SEED,
        session_seed=BASE_SEED + index, jobs=1,
        cache=ResultCache(root=None), replay_check=True,
    )
    result.attempted = HUNT_APPS
    result.start()
    with _span(tracer, "bench.pass"):
        report = run_hunt(settings)
        text = report.to_json()
    result.stop()
    if result.digest(f"hunt/{index}", sha256(text), HUNT_APPS) \
            and report.simulator_bugs:
        result.fail(min(HUNT_APPS, len(report.simulator_bugs)),
                    f"hunt: {len(report.simulator_bugs)} SIMULATOR_BUG, "
                    f"first: {report.simulator_bugs[0]}")
    predicted = sum(row["predicted"] for row in report.by_policy.values())
    confirmed = sum(row["confirmed"] for row in report.by_policy.values())
    result.extra = {
        "hunt.search.probes": report.search_probes,
        "hunt.shrink.probes": report.shrink_probes,
        "hunt.confirm_ratio": confirmed / predicted if predicted else 0.0,
    }


# ----------------------------------------------------------------------
# paper
# ----------------------------------------------------------------------
def paper_pass(result: Pass, index: int, workdir: str, tracer) -> None:
    import inspect

    from repro.engine.fingerprint import canonicalize
    from repro.harness.experiments import REGISTRY

    # The paper's inputs are fixed; ``index`` selects nothing here.
    runners = []
    for name in PAPER_EXPERIMENTS:
        run = REGISTRY[name]
        params = inspect.signature(run).parameters
        kwargs = {key: value for key, value in (("jobs", 1), ("cache", False))
                  if key in params}
        runners.append((name, run, kwargs))
    outputs: dict = {}
    result.attempted = len(runners)
    result.start()
    with _span(tracer, "bench.pass"):
        for name, run, kwargs in runners:
            with _span(tracer, f"harness.{name}", "harness"):
                try:
                    outputs[name] = run(**kwargs)
                except Exception as exc:  # one experiment, not the pass
                    outputs[name] = exc
            result.stop()
    for name, output in outputs.items():
        if isinstance(output, Exception):
            result.fail(1, f"{name}: raised {output!r}")
            continue
        text = json.dumps(canonicalize(output), sort_keys=True,
                          separators=(",", ":"))
        if result.digest(f"paper/{name}", sha256(text), 1) \
                and name == "ext-oracle":
            _check_oracle_shape(result, output)


def _check_oracle_shape(result: Pass, report) -> None:
    """The paper's Table 3 ordering as the oracle classifies it."""
    divergent = {policy: set() for policy in
                 ("android10", "rchdroid", "runtimedroid")}
    for finding in report.to_dict()["findings"]:
        if finding["verdict"] == "STATE_DIVERGENCE":
            for policy in finding["policies"]:
                divergent.setdefault(policy, set()).add(finding["app"])
    shape = (report.sessions, len(divergent["android10"]),
             len(divergent["rchdroid"]), len(divergent["runtimedroid"]),
             report.simulator_bugs)
    if shape != (27, 27, 2, 0, 0):
        result.fail(1, "ext-oracle: sessions/stock/rchdroid/runtimedroid/"
                       f"bugs = {shape}, want (27, 27, 2, 0, 0)")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve_pass(result: Pass, index: int, workdir: str, tracer) -> None:
    import subprocess
    import threading

    from repro.serve.client import DaemonClient

    fleet_params = {"devices": SERVE_FLEET_DEVICES,
                    "seed": BASE_SEED + index}
    cached_params = {"experiment": SERVE_CACHED_EXPERIMENT}
    ready = os.path.join(workdir, "ready.json")
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=workdir)
    launched = time.perf_counter()
    result.begin_setup(launched)
    with open(os.path.join(workdir, "daemon.log"), "w") as log:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--ready-file", ready],
            cwd=workdir, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
    try:
        while not os.path.exists(ready):
            if daemon.poll() is not None or \
                    time.perf_counter() - launched > SERVE_START_TIMEOUT_S:
                raise RuntimeError("daemon did not become ready")
            time.sleep(0.01)
        result.mark()
        with open(ready, encoding="utf-8") as handle:
            url = json.load(handle)["url"]
        # Warm-up: capture the fleet job's templates and fill the result
        # cache the cached experiment jobs then hit.
        warm = DaemonClient(url, client="warmup")
        for kind, params in (("fleet", fleet_params),
                             ("experiment", cached_params)):
            last = warm.run(kind, params)
            if last.get("event") != "done" or last.get("exit") != 0:
                raise RuntimeError(f"warm-up {kind} job ended {last!r}")
            result.mark()
        result.start()

        latencies: dict[str, list[float]] = {"fleet": [], "cached": []}
        lock = threading.Lock()

        def client_loop(name, kind, params, jobs):
            client = DaemonClient(url, client=name)
            with _span(tracer, f"serve.{name}", "bench"):
                for _ in range(jobs):
                    latency, last = _serve_job(client, kind, params, tracer)
                    with lock:
                        _check_serve_job(result, kind, index, last)
                        latencies[name].append(latency)

        result.attempted = SERVE_ROUNDS * (SERVE_FLEET_JOBS
                                           + SERVE_CACHED_JOBS)
        for _ in range(SERVE_ROUNDS):
            clients = [
                threading.Thread(target=client_loop, args=(
                    "fleet", "fleet", fleet_params, SERVE_FLEET_JOBS)),
                threading.Thread(target=client_loop, args=(
                    "cached", "experiment", cached_params,
                    SERVE_CACHED_JOBS)),
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            result.stop()
        done = sum(len(values) for values in latencies.values())
        if done != result.attempted:
            result.fail(result.attempted - done,
                        f"serve: {result.attempted - done} jobs never "
                        "finished")
        status = warm.status()
        result.extra.update({
            "latencies": latencies,
            "rss_mb": _tree_peak_rss_mb(daemon.pid),
            "serve.template_warm_hits":
                status["resident"]["template_warm_hits"],
            "serve.result_cache_entries": status["result_cache_entries"],
            "serve.pool.respawns": status["pool"]["respawns"],
        })
        warm.shutdown()
        daemon.wait(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def _serve_job(client, kind: str, params: dict, tracer):
    """Submit one job and follow its stream; returns (latency, last)."""
    start = time.perf_counter()
    job_id = client.submit(kind, params)
    submitted = time.perf_counter()
    first = None
    last: dict = {}
    for event in client.events(job_id):
        if first is None and event.get("seq", 0) >= 1:
            first = time.perf_counter()
        last = event
    end = time.perf_counter()
    first = end if first is None else first
    if tracer is not None:
        tracer.record("serve.submit", "serve", start, submitted)
        tracer.record("serve.first_event", "serve", submitted, first)
        tracer.record("serve.stream", "serve", first, end)
    return end - start, last


def _check_serve_job(result: Pass, kind: str, index: int, last: dict):
    if last.get("event") != "done" or last.get("exit") != 0:
        result.fail(1, f"serve {kind} job ended {last.get('event')!r} "
                       f"(exit {last.get('exit')!r})")
        return
    if kind == "fleet":
        result.digest(f"serve/fleet/{index}", sha256(last["report_json"]), 1)
    else:
        result.digest(f"serve/{SERVE_CACHED_EXPERIMENT}", last["digest"], 1)


def _tree_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of ``pid`` plus that of its child processes."""
    pids = [pid]
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                pids.extend(int(child) for child in handle.read().split())
    except OSError:
        pass
    total_kb = 0
    for member in pids:
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# tracing glue
# ----------------------------------------------------------------------
def _span(tracer, name: str, layer: str = "bench"):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, layer)


def layer_metrics(tracer, workload: str, result: Pass) -> dict:
    """The per-layer metrics of one traced pass (see README.md)."""
    from tracing import (
        LAYERS,
        call_totals,
        catch_all_self_time,
        has_ancestor,
        layer_self_times,
    )

    spans = tracer.spans
    totals = call_totals(spans)
    counts = tracer.counts

    def calls(name):
        return totals[name][0] if name in totals else 0

    def seconds(name):
        return totals[name][1] if name in totals else 0.0

    metrics: dict[str, float] = {
        "sim.events": counts["sim.events"],
        "sim.virtual_s": counts["sim.virtual_s"],
        "workload.ops": counts["workload.ops"],
        "snapshot.bytes": counts["snapshot.bytes"],
        "engine.cache.hits": counts["engine.cache.hits"],
        "engine.cache.misses": counts["engine.cache.misses"],
        "engine.cache.stores": counts["engine.cache.stores"],
    }
    for name in ("workload.generate", "workload.drive", "snapshot.restore",
                 "snapshot.capture", "engine.batch", "engine.execute",
                 "oracle.session"):
        metrics[f"{name}.n"] = calls(name)
        metrics[f"{name}.s"] = seconds(name)
    for name in ("fleet.template", "fleet.device", "fleet.aggregate",
                 "fleet.report", "engine.fingerprint", "hunt.generate",
                 "hunt.inspect", "serve.submit", "serve.first_event",
                 "serve.stream"):
        metrics[f"{name}.s"] = seconds(name)
    for name in PAPER_EXPERIMENTS:
        metrics[f"harness.{name}.s"] = seconds(f"harness.{name}")

    forked = sum(1 for index, span in enumerate(spans)
                 if span[0] == "snapshot.restore"
                 and has_ancestor(spans, index, "engine.batch"))
    runs = counts["engine.batch.requests"] - counts["engine.cache.hits"]
    metrics["engine.fork_ratio"] = forked / runs if runs > 0 else 0.0
    for key in ("hunt.search.probes", "hunt.shrink.probes",
                "hunt.confirm_ratio", "serve.template_warm_hits",
                "serve.result_cache_entries", "serve.pool.respawns"):
        metrics[key] = result.extra.get(key, 0)

    roots = [index for index, span in enumerate(spans)
             if span[0] == "bench.pass"]
    own = layer_self_times(spans, roots[0] if roots else None)
    for layer in LAYERS:
        metrics[f"self.{layer}.s"] = own.get(layer, 0.0)
    if workload != "serve" and roots and result.wall_s > 0:
        # Self times under bench.pass add up to its duration by
        # construction, so the check leaves out the catch-all spans: the
        # benchmark's own roots and the outer entry points whose self time
        # is whatever no inner layer wrapper covers.
        catch_all = catch_all_self_time(spans, roots[0], CATCH_ALL_SPANS)
        coverage = 1.0 - catch_all / result.wall_s
        metrics["trace.coverage"] = coverage
        if coverage < 1.0 - COVERAGE_TOLERANCE:
            result.fail(result.attempted,
                        f"trace: named layer spans cover {coverage:.3f} of "
                        f"wall_s, below {1.0 - COVERAGE_TOLERANCE:.2f}")
    else:
        # Overlapping client threads: self times do not sum to the round.
        metrics["trace.coverage"] = 0.0
    return metrics


PASSES = {"fleet": fleet_pass, "hunt": hunt_pass, "paper": paper_pass,
          "serve": serve_pass}


def main(argv: list[str]) -> int:
    workload, index, trace, mode, workdir, spawned = argv
    index, trace = int(index), trace == "1"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        expected = json.load(f)["digests"]
    result = Pass(mode, expected)
    result.stamps.extend((float(spawned), ENTERED))
    _configure_engine(workdir)
    result.mark()
    tracer = None
    if trace:
        from tracing import Tracer, install, write_chrome_trace

        tracer = Tracer(f"{workload}-{index}-{os.getpid()}")
        install(tracer)
    if workload != "serve":
        # serve's program work runs in the daemon, not in this process.
        from tracing import install_checkpoints

        install_checkpoints(result.stamps)
        result.mark()
    try:
        PASSES[workload](result, index, workdir, tracer)
    except Exception as exc:  # the pass as a whole failed
        result.fail(max(1, result.attempted - result.failed),
                    f"{workload}: raised {exc!r}")
        result.attempted = max(1, result.attempted)
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, workload, result)
        write_chrome_trace(tracer, os.path.join(workdir, "trace.json"))
    out = {
        "setup_laps": result.setup_laps,
        "laps": result.laps,
        "rss_mb": result.extra.get("rss_mb", peak_rss_mb()),
        "attempted": result.attempted,
        "failed": min(result.failed, result.attempted),
        "errors": result.errors[:5],
        "digests": result.digests,
        "latencies": result.extra.get("latencies", {}),
    }
    if layers is not None:
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
