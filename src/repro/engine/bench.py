"""``python -m repro bench-engine``: one harness for the host-side claims.

Each mode is one row of :data:`MODES`: its default report file, the
``bench-engine`` options it reads, the sections it runs and the gates
``--check`` applies, each with its bound constant.

* ``engine`` (``BENCH_engine.json``) — the Fig. 14 and Table 5 request
  lists through :func:`~repro.engine.batch.run_batch` serial, parallel,
  into a cold cache, from the warm memory tier and from a fresh cache at
  the same root (the disk tier); and the prefix-heavy probe sweep
  (:func:`probe_storm_requests`) from scratch vs forked from prefix
  snapshots, with and without fork verification.  Gated: both warm
  tiers faster than serial.
* ``fleet`` (``BENCH_fleet.json``) — cohort spawning by template fork
  vs cold per-device setup (gated faster); the same fleet serial,
  sharded and template-free; a devices × jobs scaling curve, each point
  a real ``python -m repro fleet`` run whose peak RSS comes from
  ``os.wait4`` (:data:`_PEAK_RSS`), gated flat within
  :data:`SCALING_RSS_BOUND`; a rotation storm vs a calm day
  (gated: every policy's storm/idle handling asymmetry above 1, only
  stock's crash rate climbing); and, with ``--resume-check``, a
  checkpointed run SIGKILLed and resumed.
* ``serve`` (``BENCH_serve.json``) — a cold CLI fleet run vs the same
  params as daemon requests: first, warm (gated
  :data:`SERVE_WARM_SPEEDUP_GATE`× faster than the CLI, reusing the
  stored templates), two concurrent clients, a cancelled large job
  (gated clean) and a request after it; the daemon must exit 0.
* ``hunt`` (``BENCH_hunt.json``) — corpus synthesis rate (gated
  :data:`HUNT_GENERATOR_RATE_GATE` apps/s), a cold hunt vs the cached
  re-hunt (gated :data:`HUNT_CACHED_SPEEDUP_GATE`×) and uncached hunts
  at jobs 1 and 2; zero simulator bugs.

Every timed comparison goes through :func:`run_shapes`: named execution
shapes of one workload, the first the reference, each shape's output
recorded byte-identical or not to the reference's.  :func:`check`
fails any ``identical`` map entry that is false, then applies the
mode's gates.  Wall-clock speedups without a gate (parallel, sharded)
are reported only: they are properties of the host's core count, which
the report's ``host`` header records.

``--max-rss-mb N`` arms a hard address-space ceiling
(:func:`apply_rss_ceiling`) before anything runs, and ``fleet-cli``
forwards the rest of the command line to ``python -m repro fleet``
under it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from types import SimpleNamespace
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from repro.apps.benchmark import make_benchmark_app
from repro.engine.batch import RunRequest, run_batch
from repro.engine.cache import ResultCache
from repro.engine.codec import canonical_result
from repro.harness.experiments import ENGINE_EXPERIMENTS
from repro.options import COMMANDS, parse

SEED = 0x5EED
DEFAULT_EXPERIMENTS = ("fig14", "table5")
DEFAULT_FLEET_DEVICES = 360

#: Scaling-curve device counts, run at jobs 1 and at max(2, --jobs).
SCALING_DEVICES = (360, 1440, 5760)

#: "Bounded memory": peak RSS at the largest curve point may be at most
#: this multiple of the smallest point's (same jobs value).  A fleet
#: executor that materialised devices or results would scale RSS with
#: the 16x device range and blow well past this.
SCALING_RSS_BOUND = 3.0

#: Warm cache tiers and forked spawning must beat their cold reference.
FASTER_BOUND = 1.0

#: Total devices per phase-plan fleet, and the two plans compared.
PHASES_DEVICES = 180
PHASES_STORM_PLAN = "rotation-storm"
PHASES_IDLE_PLAN = "calm"
#: Every policy's storm/idle handling cost per device must exceed this.
PHASES_ASYMMETRY_BOUND = 1.0

#: A warm daemon request must beat the cold CLI by this factor.  The CLI
#: pays interpreter boot + all template builds per invocation; the
#: daemon pays them once per template ever.
SERVE_WARM_SPEEDUP_GATE = 3.0
#: Fleet size of the serve mode: template provisioning (what the daemon
#: amortises) dominates the cold run, and the CI host finishes in seconds.
DEFAULT_SERVE_DEVICES = 18

#: Corpus synthesis floor, apps per second.  Generation is pure
#: arithmetic over a deterministic rng (~10k/s on one core); anything
#: under this is a structural regression, not noise.
HUNT_GENERATOR_RATE_GATE = 500.0
#: Generator throughput is measured over this many apps whatever the
#: hunted corpus size, so the rate is stable across ``--devices``.
HUNT_GENERATOR_SAMPLE = 1000
#: A re-hunt against a warm result cache pays lookups and report
#: folding only, and must beat the cold hunt by this factor.
HUNT_CACHED_SPEEDUP_GATE = 2.0
#: Corpus size of the hunt mode: probe execution dominates, and the CI
#: host finishes the cold pass in a couple of seconds.
DEFAULT_HUNT_BENCH_APPS = 60


# ----------------------------------------------------------------------
# the shape runner
# ----------------------------------------------------------------------
def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    output = fn()
    return time.perf_counter() - start, output


def run_shapes(
    shapes: "dict[str, Callable[[], Any]] | Iterable[tuple[str, Callable]]",
    digest: Callable[[Any], Any] = lambda output: output,
    repeats: "dict[str, int] | None" = None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Time the named execution ``shapes`` of one workload, in order.

    ``shapes`` maps names to callables, or yields ``(name, callable)``
    pairs: what a generator runs between two pairs is not timed.  The
    first shape is the reference.  Every other shape's output is
    compared with the reference's through ``digest`` (outside the timed
    region) in the section's ``identical`` map; a shape that returns
    ``None`` is timed only.  ``repeats[name]`` runs a shape that many
    times and keeps the best time.  Returns the section (``reference``,
    ``seconds``, ``speedup`` over the reference and, when anything was
    compared, ``identical``) and the outputs by name.
    """
    seconds: dict[str, float] = {}
    outputs: dict[str, Any] = {}
    for name, shape in (shapes.items() if isinstance(shapes, dict)
                        else shapes):
        times = []
        for _ in range((repeats or {}).get(name, 1)):
            elapsed, outputs[name] = _timed(shape)
            times.append(elapsed)
        seconds[name] = min(times)
    reference, *others = seconds
    section: dict[str, Any] = {
        "reference": reference,
        "seconds": {name: round(s, 4) for name, s in seconds.items()},
        "speedup": {name: round(seconds[reference] / seconds[name], 2)
                    for name in others},
    }
    if outputs[reference] is not None:
        golden = digest(outputs[reference])
        compared = [name for name in others if outputs[name] is not None]
        if compared:
            section["identical"] = {name: digest(outputs[name]) == golden
                                    for name in compared}
    return section, outputs


def _canonical(results: Sequence[Any]) -> list[str]:
    return [canonical_result(result) for result in results]


def _to_json(result: Any) -> str:
    return result.to_json()


# ----------------------------------------------------------------------
# engine sections
# ----------------------------------------------------------------------
def probe_storm_requests(seed: int = SEED) -> list[RunRequest]:
    """The snapshot sweep: 48 probes in two prefix groups of 24.

    Prefix-heavy by design: per policy, two dozen audit delays share one
    long rotation storm over a large view tree, so the group is one
    prepare + twenty-three forks.  The delays stay below the benchmark
    app's 5 s async completion so the divergent suffixes are cheap
    observation windows, not a second workload.
    """
    app = make_benchmark_app(512)
    delays = tuple(125.0 * step for step in range(1, 25))
    return [
        RunRequest.probe(policy, app, seed,
                         storm_rotations=24, audit_delay_ms=delay)
        for policy in ("runtimedroid", "rchdroid")
        for delay in delays
    ]


def bench_experiment(name: str, *, jobs: int) -> dict:
    """One experiment's request list in the five engine shapes."""
    requests = ENGINE_EXPERIMENTS[name].requests(SEED)

    def batch(jobs=1, cache=False):
        return lambda: run_batch(requests, jobs=jobs, cache=cache)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        memory, disk = ResultCache(root=root), ResultCache(root=root)
        section, _ = run_shapes({
            "serial": batch(),
            "parallel": batch(jobs=jobs),
            "cached_cold": batch(cache=memory),
            "cached_warm_memory": batch(cache=memory),
            "cached_warm_disk": batch(cache=disk),
        }, _canonical)
    return {"runs": len(requests), **section,
            "cache_stats": {"memory": vars(memory.stats),
                            "disk": vars(disk.stats)}}


def _experiments_section(settings: SimpleNamespace) -> dict:
    return {name: bench_experiment(name, jobs=settings.jobs)
            for name in DEFAULT_EXPERIMENTS}


def _snapshot_section(settings: SimpleNamespace) -> dict:
    """:func:`probe_storm_requests` cold, from scratch vs prefix-forked
    (and fork-verified: a sample re-run from scratch and compared)."""
    requests = probe_storm_requests()

    def batch(**kwargs):
        return lambda: run_batch(requests, jobs=1, cache=False, **kwargs)

    section, _ = run_shapes({
        "serial": batch(snapshots=False),
        "forked": batch(snapshots=True),
        "forked_verified": batch(snapshots=True, verify_forks=True),
    }, _canonical)
    return {"runs": len(requests), **section}


# ----------------------------------------------------------------------
# fleet sections
# ----------------------------------------------------------------------
def _fleet_spec(devices: int, **fields):
    import math

    from repro.fleet.run import FleetSpec

    cells = len(FleetSpec().cells())
    return FleetSpec(devices_per_cell=max(1, math.ceil(devices / cells)),
                     seed=SEED, **fields)


def _spawn_section(settings: SimpleNamespace) -> dict:
    """Every cohort's devices built cold, one by one, vs forked from the
    cohort template (capture once + restore per device).  Session play
    time is identical on both paths, so the spawn is timed on its own."""
    from repro.fleet.run import build_template, capture_template

    spec = _fleet_spec(settings.devices or DEFAULT_FLEET_DEVICES)
    cells = range(len(spec.cells()))

    def cold() -> None:
        for cell in cells:
            for _ in range(spec.devices_per_cell):
                build_template(spec, cell)

    def forked() -> None:
        for cell in cells:
            template = capture_template(spec, cell)
            for _ in range(spec.devices_per_cell):
                template.restore()

    section, _ = run_shapes({"cold": cold, "forked": forked})
    return {"devices": spec.total_devices, "cells": len(cells), **section}


def _end_to_end_section(settings: SimpleNamespace) -> dict:
    """The same fleet serial, sharded (at least two workers, so the real
    pool runs even on one core) and without templates."""
    from repro.fleet.run import run_fleet

    spec = _fleet_spec(settings.devices or DEFAULT_FLEET_DEVICES)
    section, _ = run_shapes({
        "serial": lambda: run_fleet(spec, jobs=1),
        "sharded": lambda: run_fleet(spec, jobs=max(2, settings.jobs)),
        "cold_setup": lambda: run_fleet(spec, jobs=1, use_templates=False),
    }, _to_json)
    return {"devices": spec.total_devices, "shard_size": spec.shard_size,
            **section}


def _repro_env() -> dict[str, str]:
    """Subprocess env that can ``import repro`` like this process."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src if not existing
                         else os.pathsep.join([src, existing]))
    return env


def _fleet_cli(devices: int, jobs: int, out: str) -> list[str]:
    return [sys.executable, "-m", "repro", "fleet", "--devices",
            str(devices), "--jobs", str(jobs), "--seed", str(SEED),
            "-o", out]


#: Runs ``argv[1:]``, then prints its peak RSS in KB.  Exec records the
#: replaced image's peak RSS in the new one's ``ru_maxrss``, so a fleet
#: run started straight from this process would read at least this
#: process's own peak; started from this small interpreter, it reads its
#: own.  The rusage of the reaped run covers its reaped pool workers.
_PEAK_RSS = (
    "import os, subprocess, sys\n"
    "run = subprocess.Popen(sys.argv[1:])\n"
    "_, status, usage = os.wait4(run.pid, 0)\n"
    "print(usage.ru_maxrss)\n"
    "sys.exit(os.waitstatus_to_exitcode(status))\n"
)


def _scaling_point(devices: int, jobs: int, root: str) -> dict[str, Any]:
    """One curve point: a ``repro fleet`` run's seconds and peak RSS."""
    import subprocess

    out = os.path.join(root, f"fleet-{devices}-{jobs}.json")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *_fleet_cli(devices, jobs, out)],
        env=_repro_env(), capture_output=True, text=True, timeout=1800,
    )
    point = {"devices": devices, "jobs": jobs,
             "seconds": round(time.perf_counter() - start, 4)}
    printed, _, peak_kb = proc.stdout.rstrip("\n").rpartition("\n")
    if proc.returncode != 0:
        return {**point, "ok": False,
                "error": (proc.stderr or printed).strip()[-500:]}
    with open(out, encoding="utf-8") as handle:
        ran = json.load(handle)["fleet"]["devices"]
    return {**point, "rss_mb": round(int(peak_kb) / 1024.0, 1),
            "ok": ran == _fleet_spec(devices).total_devices}


def _scaling_section(settings: SimpleNamespace) -> list[dict[str, Any]]:
    with tempfile.TemporaryDirectory(prefix="repro-fleet-scaling-") as root:
        return [_scaling_point(devices, jobs, root)
                for jobs in sorted({1, max(2, settings.jobs)})
                for devices in SCALING_DEVICES]


def _phases_section(settings: SimpleNamespace) -> dict:
    """Storm-vs-idle per-policy cost (the Fig. 11 regime at fleet scale):
    per policy, handling cost per device and crash/data-loss rates under
    a rotation storm and a calm day, each fleet at jobs 1 and sharded."""
    from repro.fleet.run import run_fleet
    from repro.workload.library import PHASE_PLANS

    plans: dict[str, Any] = {}
    for plan in (PHASES_STORM_PLAN, PHASES_IDLE_PLAN):
        spec = _fleet_spec(PHASES_DEVICES, phases=PHASE_PLANS[plan])
        section, outputs = run_shapes({
            "serial": lambda: run_fleet(spec, jobs=1),
            "sharded": lambda: run_fleet(spec, jobs=max(2, settings.jobs)),
        }, _to_json)
        section["policies"] = {}
        for row in outputs["serial"].report()["policies"]:
            handling = row["handling"]
            per_device = (handling["mean_ms"] * handling["count"]
                          / row["devices"]) if row["devices"] else 0.0
            section["policies"][row["policy"]] = {
                "handling_events": handling["count"],
                "handling_mean_ms": handling["mean_ms"],
                "handling_ms_per_device": round(per_device, 1),
                "crash_rate": row["crash_rate"],
                "data_loss_rate": row["data_loss_rate"],
            }
        plans[plan] = section
    storm = plans[PHASES_STORM_PLAN]["policies"]
    idle = plans[PHASES_IDLE_PLAN]["policies"]
    return {
        "devices": spec.total_devices,
        "storm_plan": PHASES_STORM_PLAN,
        "idle_plan": PHASES_IDLE_PLAN,
        "plans": plans,
        "asymmetry": {
            policy: round(storm[policy]["handling_ms_per_device"]
                          / max(idle[policy]["handling_ms_per_device"],
                                1e-9), 2)
            for policy in storm
        },
    }


def fleet_resume_check(*, devices: int = 2000,
                       jobs: int = 2) -> dict[str, Any]:
    """Kill a checkpointed fleet run mid-flight, resume it, compare.

    Runs of the real CLI: an uninterrupted reference, then a
    checkpointed run SIGKILLed as soon as its first checkpoint lands and
    resumed from that checkpoint.  The resumed JSON report must be
    byte-identical to the uninterrupted one.
    """
    import signal
    import subprocess

    env = _repro_env()
    state: dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="repro-fleet-resume-") as root:
        reference = os.path.join(root, "uninterrupted.json")
        out = os.path.join(root, "resumed.json")
        ckpt = os.path.join(root, "fleet.ckpt")
        resumable = _fleet_cli(devices, jobs, out) + [
            "--checkpoint", ckpt, "--checkpoint-every", "2"]

        def read(path: str) -> bytes:
            with open(path, "rb") as handle:
                return handle.read()

        def uninterrupted() -> bytes:
            subprocess.run(_fleet_cli(devices, jobs, reference),
                           check=True, env=env, capture_output=True,
                           timeout=1800)
            return read(reference)

        def resumed() -> bytes:
            # The victim leads its own process group, so the SIGKILL
            # takes its pool workers down with it.
            victim = subprocess.Popen(
                resumable, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, start_new_session=True,
            )
            deadline = time.monotonic() + 600
            while (not os.path.exists(ckpt) and victim.poll() is None
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            state["killed_mid_run"] = victim.poll() is None
            if state["killed_mid_run"]:
                os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=60)
            _await_group_exit(victim.pid, timeout_s=60)
            resume = subprocess.run(resumable, env=env,
                                    capture_output=True, timeout=1800)
            state["resume_exit"] = resume.returncode
            return read(out) if resume.returncode == 0 else b""

        section, _ = run_shapes({"uninterrupted": uninterrupted,
                                 "resumed": resumed})
    return {"devices": devices, "jobs": jobs, **state, **section}


def _await_group_exit(pgid: int, *, timeout_s: float) -> None:
    """Wait until no process of group ``pgid`` is left (the killed
    members are reaped by their new parent, asynchronously)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def _resume_section(settings: SimpleNamespace) -> "dict | None":
    if settings.resume_check:
        return fleet_resume_check(jobs=max(2, settings.jobs))
    return None


def apply_rss_ceiling(max_rss_mb: int) -> None:
    """Arm a hard address-space limit for this process and its children.

    Exceeding it turns allocations into ``MemoryError``/exit instead of
    swapping the host — the CI scale job runs the million-scale fleet
    under this so "bounded memory" is enforced, not asserted.
    """
    import resource

    limit = max_rss_mb * 1024 * 1024
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


# ----------------------------------------------------------------------
# serve and hunt sections
# ----------------------------------------------------------------------
def _start_daemon(root: str, jobs: int):
    """Launch ``repro serve`` and wait for its ready file."""
    import subprocess

    from repro.errors import ServeError

    ready = os.path.join(root, "ready.json")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--ready-file", ready, "--jobs", str(jobs)],
        env=_repro_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 60.0
    while not os.path.exists(ready):
        if proc.poll() is not None or time.monotonic() > deadline:
            output = proc.stdout.read() if proc.stdout else ""
            proc.kill()
            raise ServeError(
                f"daemon failed to start: {output.strip()[-500:]}"
            )
        time.sleep(0.05)
    with open(ready, encoding="utf-8") as handle:
        return proc, json.load(handle)["url"]


def _daemon_section(settings: SimpleNamespace) -> dict:
    """Request latency, daemon amortisation included by design: the cold
    CLI run pays interpreter boot and every template build; warm
    requests reuse the daemon's template store and workers' caches."""
    import subprocess

    from repro.serve.client import DaemonClient

    devices = settings.devices or DEFAULT_SERVE_DEVICES
    params = {"devices": devices, "seed": SEED}
    state: dict[str, Any] = {}

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as root:
        cli_out = os.path.join(root, "cli.json")

        def cold_cli() -> set:
            subprocess.run(_fleet_cli(devices, settings.jobs, cli_out),
                           env=_repro_env(), check=True,
                           capture_output=True, text=True, timeout=1800)
            with open(cli_out, encoding="utf-8") as handle:
                return {handle.read().rstrip("\n")}

        def shapes():
            yield "cold_cli", cold_cli
            # Started after the cold run, so its boot does not slow it.
            state["daemon"], url = _start_daemon(root, settings.jobs)
            client = DaemonClient(url, client="bench")
            second = DaemonClient(url, client="bench-2")

            def hits() -> int:
                return client.status()["resident"]["template_warm_hits"]

            def request() -> set:
                return {client.run("fleet", params).get("report_json")}

            def first() -> set:
                report = request()
                state["hits"] = hits()
                return report

            def concurrent() -> set:
                state["warm_template_hits"] = hits() - state["hits"]
                job_a = client.submit("fleet", params)
                job_b = second.submit("fleet", params)
                return {list(client.events(job_a))[-1].get("report_json"),
                        list(second.events(job_b))[-1].get("report_json")}

            def cancel() -> None:
                # A much larger fleet over the same templates: the cancel
                # lands mid-run instead of racing a finished job.
                job = client.submit("fleet", {**params,
                                              "devices": devices * 40})
                cancelled = client.cancel(job)
                events = list(client.events(job))
                state["cancelled_cleanly"] = (
                    bool(cancelled.get("cancelled"))
                    and events[-1]["event"] == "cancelled")

            yield "daemon_first", first
            # Best of three: the gate measures the warm path's cost, not
            # scheduler noise on a ~50 ms interval.
            yield "daemon_warm", request
            yield "concurrent_pair", concurrent
            yield "cancel_turnaround", cancel
            yield "after_cancel", request
            client.shutdown()
            state["daemon"].wait(timeout=60)

        try:
            section, _ = run_shapes(shapes(), repeats={"daemon_warm": 3})
        except subprocess.CalledProcessError as error:
            return {"error": "cold CLI run failed: "
                    + (error.stderr or error.stdout)[-500:]}
        finally:
            if "daemon" in state and state["daemon"].poll() is None:
                state["daemon"].kill()
    return {"devices": devices, **section,
            "warm_template_hits": state["warm_template_hits"],
            "cancelled_cleanly": state["cancelled_cleanly"],
            "daemon_exit": state["daemon"].returncode}


def _generator_section(settings: SimpleNamespace) -> dict:
    from repro.hunt.generator import generate_corpus

    seconds, _ = _timed(
        lambda: generate_corpus(SEED, HUNT_GENERATOR_SAMPLE))
    return {"apps": HUNT_GENERATOR_SAMPLE, "seconds": round(seconds, 4),
            "apps_per_s": round(HUNT_GENERATOR_SAMPLE / seconds, 1)}


def _hunt_section(settings: SimpleNamespace) -> dict:
    """A cold hunt into a result cache, the re-hunt against it, and
    uncached hunts at jobs 1 and 2: the canonical report must not depend
    on the cache or the worker count."""
    from repro.hunt.search import HuntSettings, run_hunt

    apps = settings.devices or DEFAULT_HUNT_BENCH_APPS
    with tempfile.TemporaryDirectory(prefix="repro-hunt-bench-") as root:
        cached = HuntSettings(apps=apps, jobs=1, cache=ResultCache(
            root=os.path.join(root, "results")))
        section, outputs = run_shapes({
            "cold": lambda: run_hunt(cached),
            "cached": lambda: run_hunt(cached),
            "uncached": lambda: run_hunt(
                HuntSettings(apps=apps, jobs=1, cache=False)),
            "uncached_jobs2": lambda: run_hunt(
                HuntSettings(apps=apps, jobs=settings.jobs, cache=False)),
        }, _to_json)
    cold = outputs["cold"]
    return {"apps": apps, **section,
            "suspicions": cold.suspicions,
            "search_probes": cold.search_probes,
            "shrink_probes": cold.shrink_probes,
            "findings": len(cold.findings),
            "simulator_bugs": len(cold.simulator_bugs)}


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------
def _faster(shape: str) -> Callable[[dict, float], list[str]]:
    """Gate: ``shape`` more than ``bound``× faster than the reference."""
    def gate(section: dict, bound: float) -> list[str]:
        seconds, reference = section["seconds"], section["reference"]
        if seconds[shape] * bound < seconds[reference]:
            return []
        return [f"{shape} ({seconds[shape]}s) not {bound}x faster than "
                f"{reference} ({seconds[reference]}s)"]
    return gate


def _each(gate):
    """Apply a section gate to every sub-section of a section."""
    return lambda sections, bound: [
        f"{name}: {failure}" for name, section in sections.items()
        for failure in gate(section, bound)]


def _rss_flat(points: list, bound: float) -> list[str]:
    failures, by_jobs = [], {}
    for point in points:
        if point.get("ok"):
            by_jobs.setdefault(point["jobs"], []).append(point)
        else:
            failures.append(
                f"point devices={point.get('devices')} "
                f"jobs={point.get('jobs')} failed"
                + (f" ({point['error']})" if point.get("error") else ""))
    for jobs, group in by_jobs.items():
        small = min(group, key=lambda point: point["devices"])
        large = max(group, key=lambda point: point["devices"])
        if large["rss_mb"] > bound * small["rss_mb"]:
            failures.append(
                f"jobs={jobs} peak RSS grows with fleet size "
                f"({small['rss_mb']}MB @ {small['devices']} -> "
                f"{large['rss_mb']}MB @ {large['devices']}; "
                f"bound {bound}x)")
    return failures


def _asymmetry(phases: dict, bound: float) -> list[str]:
    return [f"{policy} storm/idle handling asymmetry {ratio}x not above "
            f"{bound}" for policy, ratio in phases["asymmetry"].items()
            if ratio <= bound]


def _crash_split(phases: dict, bound: Any) -> list[str]:
    """Under the storm stock's crash rate climbs; every other policy
    stays below stock's."""
    storm = phases["plans"][phases["storm_plan"]]["policies"]
    idle = phases["plans"][phases["idle_plan"]]["policies"]
    stock = "android10"
    if stock not in storm:
        return []
    failures = []
    if storm[stock]["crash_rate"] <= idle[stock]["crash_rate"]:
        failures.append(
            f"{stock} crash rate did not climb under the storm "
            f"({idle[stock]['crash_rate']} -> {storm[stock]['crash_rate']})")
    failures += [
        f"{policy} storm crash rate ({row['crash_rate']}) not below "
        f"{stock}'s ({storm[stock]['crash_rate']})"
        for policy, row in storm.items()
        if policy != stock and row["crash_rate"] >= storm[stock]["crash_rate"]
    ]
    return failures


def _holds(test: Callable[[dict, Any], bool], message: str):
    """Gate: ``test(section, bound)`` holds; else ``message``, formatted
    with the section's fields and the bound."""
    return lambda data, bound: [] if test(data, bound) else [
        message.format(bound=bound, **data)]


class Mode(NamedTuple):
    output: str
    reads: tuple  # options beyond --output, --check and --max-rss-mb
    #: name -> section(settings); a section that returns None did not run.
    sections: dict
    #: (section, bound constant, failures(section data, bound)) rows.
    gates: tuple
    jobs: "int | None" = None  # fixed worker count: the mode has no --jobs


MODES: dict[str, Mode] = {
    "engine": Mode("BENCH_engine.json", ("jobs",), {
        "experiments": _experiments_section,
        "snapshot": _snapshot_section,
    }, (
        ("experiments", FASTER_BOUND, _each(_faster("cached_warm_memory"))),
        ("experiments", FASTER_BOUND, _each(_faster("cached_warm_disk"))),
    )),
    "fleet": Mode("BENCH_fleet.json", ("jobs", "devices", "resume_check"), {
        "spawn": _spawn_section,
        "end_to_end": _end_to_end_section,
        "scaling": _scaling_section,
        "phases": _phases_section,
        "resume": _resume_section,
    }, (
        ("spawn", FASTER_BOUND, _faster("forked")),
        ("scaling", SCALING_RSS_BOUND, _rss_flat),
        ("phases", PHASES_ASYMMETRY_BOUND, _asymmetry),
        ("phases", None, _crash_split),
    )),
    "serve": Mode("BENCH_serve.json", ("devices",), {
        "daemon": _daemon_section,
    }, (
        ("daemon", SERVE_WARM_SPEEDUP_GATE, _faster("daemon_warm")),
        ("daemon", 0, _holds(
            lambda data, bound: data["warm_template_hits"] > bound,
            "warm requests did not reuse the daemon's stored templates "
            "({warm_template_hits} template hits)")),
        ("daemon", None, _holds(
            lambda data, bound: data["cancelled_cleanly"],
            "cancellation did not end in a cancelled event")),
        ("daemon", 0, _holds(
            lambda data, bound: data["daemon_exit"] == bound,
            "daemon exited {daemon_exit} after shutdown")),
    ), jobs=1),
    "hunt": Mode("BENCH_hunt.json", ("devices",), {
        "generator": _generator_section,
        "hunt": _hunt_section,
    }, (
        ("generator", HUNT_GENERATOR_RATE_GATE, _holds(
            lambda data, bound: data["apps_per_s"] >= bound,
            "generator produced {apps_per_s} apps/s (floor {bound})")),
        ("hunt", HUNT_CACHED_SPEEDUP_GATE, _faster("cached")),
        ("hunt", 0, _holds(
            lambda data, bound: data["simulator_bugs"] <= bound,
            "hunt flagged {simulator_bugs} simulator bugs")),
    ), jobs=2),
}

#: Keys every report starts with; the rest are its mode's sections.
HEADER = ("bench", "host", "jobs", "ok")


def _identity_failures(value: Any, path: str) -> list[str]:
    """Every false entry of every ``identical`` map under ``value``."""
    failures = []
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "identical":
                failures += [f"{path}: {shape} differs from "
                             f"{value['reference']}"
                             for shape, same in item.items() if not same]
            else:
                failures += _identity_failures(item, f"{path}/{key}")
    elif isinstance(value, list):
        for item in value:
            failures += _identity_failures(item, path)
    return failures


def check(report: dict[str, Any]) -> list[str]:
    """Acceptance failures of a report (empty = pass): per section, every
    identity, then the mode's gates.  A section that reports an
    ``error`` fails with it, and its gates are not applied; a gated
    section that is missing fails."""
    mode = MODES[report["bench"]]
    gated = {section for section, _, _ in mode.gates}
    failures = []
    for name in mode.sections:
        data = report.get(name)
        if data is None:
            if name in gated:
                failures.append(f"{name} section missing")
        elif isinstance(data, dict) and "error" in data:
            failures.append(f"{name}: {data['error']}")
        else:
            failures += _identity_failures(data, name)
            failures += [f"{name}: {failure}"
                         for section, bound, gate in mode.gates
                         if section == name
                         for failure in gate(data, bound)]
    return failures


def run(mode: str, *, jobs: "int | None" = None,
        devices: "int | None" = None,
        resume_check: bool = False) -> dict[str, Any]:
    """Run ``mode``'s sections; the report, its ``ok`` set by
    :func:`check`."""
    entry = MODES[mode]
    settings = SimpleNamespace(jobs=entry.jobs or jobs or os.cpu_count() or 1,
                               devices=devices, resume_check=resume_check)
    report: dict[str, Any] = {
        "bench": mode,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "jobs": settings.jobs,
    }
    for name, section in entry.sections.items():
        data = section(settings)
        if data is not None:
            report[name] = data
    report["ok"] = check(report) == []
    return report


def write_report(report: dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _render(label: str, value: Any, pad: str, lines: list[str]) -> None:
    if isinstance(value, list):
        lines.append(f"{pad}{label}".rstrip())
        for item in value:
            _render("- ", item, pad + "  ", lines)
    elif isinstance(value, dict):
        value = dict(value)
        reference = value.pop("reference", None)
        identical = value.pop("identical", None)
        nested = {key: item for key, item in value.items()
                  if isinstance(item, (dict, list))}
        flat = ", ".join(f"{key}={item}" for key, item in value.items()
                         if key not in nested)
        lines.append(f"{pad}{label}{flat}".rstrip())
        for key, item in nested.items():
            _render(f"{key}: ", item, pad + "  ", lines)
        if identical is not None:
            differ = [shape for shape, same in identical.items() if not same]
            lines.append(f"{pad}  byte-identical to {reference}: "
                         + (f"NO ({', '.join(differ)})" if differ else "yes"))
    else:
        lines.append(f"{pad}{label}{value}")


def render(report: dict[str, Any]) -> str:
    """Any mode's report as indented text."""
    host = report["host"]
    lines = [f"{report['bench']} benchmark — jobs={report['jobs']}, host "
             f"cpus={host['cpu_count']}, python {host['python']}: "
             + ("ok" if report["ok"] else "FAILED")]
    for key, value in report.items():
        if key not in HEADER:
            _render(f"{key}: ", value, "  ", lines)
    return "\n".join(lines)


#: The options only some modes read; ``fleet-cli`` reads none of them.
_MODE_OPTIONS = {name for mode in MODES.values() for name in mode.reads}


def main(argv: Sequence[str] | None = None) -> int:
    opts = parse("bench-engine", list(sys.argv[1:] if argv is None
                                      else argv))
    if isinstance(opts, int):
        return opts
    mode = "fleet-cli" if opts.rest is not None else opts["mode"]
    reads = MODES[mode].reads if mode in MODES else ()
    for option in COMMANDS["bench-engine"].options:
        if option.name in opts.given & _MODE_OPTIONS - set(reads):
            print(f"bench-engine: {mode} does not read {option.flag}",
                  file=sys.stderr)
            return 2
    if opts["max_rss_mb"] is not None:
        apply_rss_ceiling(opts["max_rss_mb"])
    if opts.rest is not None:
        from repro.__main__ import fleet_command

        return fleet_command(opts.rest)
    report = run(mode, jobs=opts["jobs"], devices=opts["devices"],
                 resume_check=opts["resume_check"])
    output = opts["output"] or MODES[mode].output
    write_report(report, output)
    print(render(report))
    print(f"wrote {output}")
    failures = check(report)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if (opts["check"] and failures) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
