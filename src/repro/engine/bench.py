"""Wall-clock benchmark of the engine: serial vs parallel vs cached.

Runs the request lists of engine-backed experiments
(:data:`~repro.harness.experiments.ENGINE_EXPERIMENTS`; Fig. 14 and
Table 5 by default — one handling matrix, one issue matrix) through
:func:`~repro.engine.batch.run_batch` in five modes:

* ``serial``            — jobs=1, no cache (the pre-engine behaviour);
* ``parallel``          — jobs=N, no cache;
* ``cached_cold``       — jobs=1 into an empty cache (simulate + store);
* ``cached_warm_memory``— same cache object again (tier-1 hits only);
* ``cached_warm_disk``  — a fresh cache at the same root (tier-2 hits,
  the "new process next day" case).

A sixth, ``snapshot``, mode runs its own *prefix-heavy* sweep
(:func:`probe_storm_requests`: a rotation-storm probe matrix whose cells
differ only in audit delay, reported as ``probes``) twice cold:
from-scratch vs prefix-shared, where each group prepares once, forks the
rest from a device checkpoint, and (in the verified variant) re-runs a
sample from scratch to assert byte-identity.

Every mode's results are checked byte-identical (via the cache codec's
canonical JSON) against the serial run; the report refuses to exist if
they are not.  ``python -m repro bench-engine`` writes the report as
``BENCH_engine.json``; ``--check`` additionally exits non-zero unless
cached re-runs beat the cold serial run and forked results are
byte-identical to from-scratch ones.

Parallel speedup scales with cores: on a 1-core container the pool
costs more than it saves, and the report says so honestly — the
``host.cpu_count`` field is there so numbers are read in context.

``python -m repro bench-engine fleet`` benchmarks the fleet simulator
instead (``BENCH_fleet.json``): cohort spawning by template fork vs
per-device cold setup (the gated speedup — session play time is
identical by construction, so the spawn path is timed on its own),
end-to-end fleet runs in serial, sharded, and cold-setup form, all
gated byte-identical, and a **devices × jobs scaling curve**: each
point runs in its own subprocess so its peak RSS (``ru_maxrss``, self
and pool children) is an honest high-water mark, and ``--check`` gates
the bounded-memory claim — RSS at the largest point must stay within a
small constant of the smallest, because the executor streams
accumulators instead of materialising devices.

``--resume-check`` additionally starts a checkpointed fleet run in a
subprocess, SIGKILLs it once the first checkpoint lands, resumes it,
and gates the resumed report byte-identical to an uninterrupted run.
``--max-rss-mb N`` arms a hard address-space ceiling
(``resource.setrlimit``) before anything runs — the CI scale job uses
it to turn "bounded memory" from a claim into an enforced limit — and
the ``fleet-cli`` mode forwards its arguments to ``python -m repro
fleet`` under that ceiling.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from typing import Any, Callable, Sequence

from repro.apps.benchmark import make_benchmark_app
from repro.engine.batch import RunRequest, run_batch
from repro.engine.cache import ResultCache
from repro.engine.codec import canonical_result
from repro.harness.experiments import ENGINE_EXPERIMENTS
from repro.options import parse

DEFAULT_OUTPUT = "BENCH_engine.json"
DEFAULT_FLEET_OUTPUT = "BENCH_fleet.json"
DEFAULT_FLEET_DEVICES = 360
DEFAULT_EXPERIMENTS = ("fig14", "table5")
#: The snapshot mode's report key.
SNAPSHOT_EXPERIMENT = "probes"

#: Scaling-curve geometry: device counts per jobs value.  Each point is
#: a subprocess, so the curve's RSS numbers are per-run high-water
#: marks, not a shared monotone maximum.
SCALING_DEVICES = (360, 1440, 5760)

#: "Bounded memory" gate: peak RSS at the largest curve point may be at
#: most this multiple of the smallest point's (same jobs value).  A
#: fleet executor that materialised devices or results would scale RSS
#: linearly with the 16x device range and blow well past this.
SCALING_RSS_BOUND = 3.0


def _canonical(results: Sequence[Any]) -> list[str]:
    return [canonical_result(result) for result in results]


def _timed(fn: Callable[[], list]) -> tuple[float, list]:
    start = time.perf_counter()
    results = fn()
    return time.perf_counter() - start, results


def probe_storm_requests(seed: int = 0x5EED) -> list[RunRequest]:
    """The snapshot mode's sweep: 48 probes in two prefix groups of 24.

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


def bench_experiment(
    name: str, *, jobs: int, seed: int = 0x5EED
) -> dict[str, Any]:
    """Benchmark one experiment's request list across all five modes."""
    requests = ENGINE_EXPERIMENTS[name].requests(seed)

    serial_s, serial = _timed(lambda: run_batch(requests, jobs=1, cache=False))
    golden = _canonical(serial)

    parallel_s, parallel = _timed(
        lambda: run_batch(requests, jobs=jobs, cache=False))

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        cold_cache = ResultCache(root=root)
        cold_s, cold = _timed(
            lambda: run_batch(requests, jobs=1, cache=cold_cache))
        tier_stats = {"cold": vars(cold_cache.stats).copy()}
        warm_memory_s, warm_memory = _timed(
            lambda: run_batch(requests, jobs=1, cache=cold_cache))
        # The warm run reuses the cold cache object, so report the delta.
        tier_stats["warm_memory"] = {
            field: count - tier_stats["cold"][field]
            for field, count in vars(cold_cache.stats).items()
        }
        disk_cache = ResultCache(root=root)
        warm_disk_s, warm_disk = _timed(
            lambda: run_batch(requests, jobs=1, cache=disk_cache))
        tier_stats["warm_disk"] = vars(disk_cache.stats).copy()

    identical = {
        "parallel": _canonical(parallel) == golden,
        "cached_cold": _canonical(cold) == golden,
        "cached_warm_memory": _canonical(warm_memory) == golden,
        "cached_warm_disk": _canonical(warm_disk) == golden,
    }
    return {
        "runs": len(requests),
        "seconds": {
            "serial": round(serial_s, 4),
            "parallel": round(parallel_s, 4),
            "cached_cold": round(cold_s, 4),
            "cached_warm_memory": round(warm_memory_s, 4),
            "cached_warm_disk": round(warm_disk_s, 4),
        },
        "speedup_vs_serial": {
            "parallel": round(serial_s / parallel_s, 2),
            "cached_warm_memory": round(serial_s / warm_memory_s, 2),
            "cached_warm_disk": round(serial_s / warm_disk_s, 2),
        },
        "cache_stats": tier_stats,
        "identical_to_serial": identical,
    }


def bench_snapshot(*, seed: int = 0x5EED) -> dict[str, Any]:
    """Benchmark prefix-snapshot sharing on :func:`probe_storm_requests`.

    All three runs are cold (no result cache): ``serial`` executes every
    cell from scratch, ``forked`` shares each group's prefix through a
    snapshot, ``forked_verified`` additionally re-runs a sample of the
    forked cells from scratch and compares.
    """
    requests = probe_storm_requests(seed)
    serial_s, serial = _timed(
        lambda: run_batch(requests, jobs=1, cache=False, snapshots=False))
    golden = _canonical(serial)
    forked_s, forked = _timed(
        lambda: run_batch(requests, jobs=1, cache=False, snapshots=True))
    verified_s, verified = _timed(
        lambda: run_batch(requests, jobs=1, cache=False, snapshots=True,
                          verify_forks=True))
    return {
        "runs": len(requests),
        "seconds": {
            "serial": round(serial_s, 4),
            "forked": round(forked_s, 4),
            "forked_verified": round(verified_s, 4),
        },
        "speedup_vs_serial": {
            "forked": round(serial_s / forked_s, 2),
            "forked_verified": round(serial_s / verified_s, 2),
        },
        "identical_to_serial": {
            "forked": _canonical(forked) == golden,
            "forked_verified": _canonical(verified) == golden,
        },
    }


def bench_fleet(
    *, devices: int = DEFAULT_FLEET_DEVICES, jobs: int | None = None,
    seed: int = 0x5EED,
) -> dict[str, Any]:
    """Benchmark the fleet simulator (``repro.fleet``).

    Two questions, answered separately because session play time is
    identical on every path:

    * **spawn** — materialising one cohort's devices by forking the
      cohort template (capture once + restore per device) vs building
      each device cold (the gated speedup);
    * **end-to-end** — the same fleet run serially, sharded across a
      pool, and with cold per-device setup, gated byte-identical.
    """
    import math

    from repro.fleet.run import (
        FleetSpec,
        build_template,
        capture_template,
        run_fleet,
    )

    if jobs is None:
        jobs = os.cpu_count() or 1
    cells = len(FleetSpec().cells())
    spec = FleetSpec(
        devices_per_cell=max(1, math.ceil(devices / cells)), seed=seed
    )

    def spawn_cold() -> None:
        for cell_index in range(cells):
            for _ in range(spec.devices_per_cell):
                build_template(spec, cell_index)

    def spawn_forked() -> None:
        for cell_index in range(cells):
            template = capture_template(spec, cell_index)
            for _ in range(spec.devices_per_cell):
                template.restore()

    spawn_cold_s, _ = _timed(lambda: [spawn_cold()])
    spawn_forked_s, _ = _timed(lambda: [spawn_forked()])

    serial_s, serial = _timed(lambda: [run_fleet(spec, jobs=1)])
    golden = serial[0].to_json()
    # At least two workers, so the identity gates exercise the real
    # pool (disk-provisioned templates, work stealing) even on a
    # single-core host.
    pool_jobs = max(2, jobs)
    sharded_s, sharded = _timed(lambda: [run_fleet(spec, jobs=pool_jobs)])
    cold_s, cold = _timed(
        lambda: [run_fleet(spec, jobs=1, use_templates=False)])

    return {
        "devices": spec.total_devices,
        "cells": cells,
        "shard_size": spec.shard_size,
        "spawn": {
            "cold_s": round(spawn_cold_s, 4),
            "forked_s": round(spawn_forked_s, 4),
            "speedup": round(spawn_cold_s / spawn_forked_s, 2),
        },
        "seconds": {
            "serial": round(serial_s, 4),
            "sharded": round(sharded_s, 4),
            "cold_setup": round(cold_s, 4),
        },
        "speedup_vs_serial": {
            "sharded": round(serial_s / sharded_s, 2),
        },
        "identical_to_serial": {
            "sharded": sharded[0].to_json() == golden,
            "cold_setup": cold[0].to_json() == golden,
        },
    }


# ----------------------------------------------------------------------
# scaling curve, resume check, RSS ceiling
# ----------------------------------------------------------------------
def _repro_env() -> dict[str, str]:
    """Subprocess env that can ``import repro`` like this process."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src if not existing
                         else os.pathsep.join([src, existing]))
    return env


def _scaling_point(devices: int, jobs: int, seed: int) -> dict[str, Any]:
    """Run one curve point in a subprocess; report seconds and peak RSS."""
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-m", "repro.engine.bench",
         "--scaling-point", str(devices), str(jobs), str(seed)],
        capture_output=True, text=True, env=_repro_env(), timeout=1800,
    )
    if proc.returncode != 0:
        return {"devices": devices, "jobs": jobs, "ok": False,
                "error": (proc.stderr or proc.stdout).strip()[-500:]}
    return json.loads(proc.stdout.splitlines()[-1])


def _scaling_point_main(devices: int, jobs: int, seed: int) -> int:
    """The subprocess body behind one scaling-curve point."""
    import math
    import resource

    from repro.fleet.run import FleetSpec, run_fleet

    cells = len(FleetSpec().cells())
    spec = FleetSpec(
        devices_per_cell=max(1, math.ceil(devices / cells)), seed=seed
    )
    start = time.perf_counter()
    result = run_fleet(spec, jobs=jobs)
    elapsed = time.perf_counter() - start
    # Linux reports ru_maxrss in KB; children covers the worker pool.
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "devices": result.devices,
        "jobs": jobs,
        "seconds": round(elapsed, 4),
        "rss_mb": round(max(rss_self, rss_children) / 1024.0, 1),
        "ok": result.devices == spec.total_devices,
    }))
    return 0


def bench_fleet_scaling(
    *, jobs: int | None = None, seed: int = 0x5EED,
    devices_points: Sequence[int] = SCALING_DEVICES,
) -> list[dict[str, Any]]:
    """The devices × jobs scaling curve (one subprocess per point)."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs_values = sorted({1, max(2, jobs)})
    return [
        _scaling_point(devices, jobs_value, seed)
        for jobs_value in jobs_values
        for devices in devices_points
    ]


def fleet_resume_check(
    *, devices: int = 2000, jobs: int = 2, seed: int = 0x5EED,
    oracle_rate: float = 0.0,
) -> dict[str, Any]:
    """Kill a checkpointed fleet run mid-flight, resume it, compare.

    Three subprocess runs of the real CLI: an uninterrupted reference,
    a checkpointed run SIGKILLed as soon as its first checkpoint lands,
    and a resume from that checkpoint.  The gate is byte-identity of
    the resumed JSON report against the uninterrupted one.
    """
    import signal
    import subprocess

    env = _repro_env()

    def base_cmd(out: str) -> list[str]:
        cmd = [sys.executable, "-m", "repro", "fleet",
               "--devices", str(devices), "--jobs", str(jobs),
               "--seed", str(seed), "-o", out]
        if oracle_rate:
            cmd += ["--oracle", str(oracle_rate)]
        return cmd

    with tempfile.TemporaryDirectory(prefix="repro-fleet-resume-") as root:
        uninterrupted = os.path.join(root, "uninterrupted.json")
        interrupted = os.path.join(root, "interrupted.json")
        ckpt = os.path.join(root, "fleet.ckpt")
        ckpt_args = ["--checkpoint", ckpt, "--checkpoint-every", "2"]

        subprocess.run(base_cmd(uninterrupted), check=True, env=env,
                       capture_output=True, timeout=1800)

        # The victim leads its own process group, so the SIGKILL takes
        # its pool workers down with it instead of orphaning them.
        victim = subprocess.Popen(
            base_cmd(interrupted) + ckpt_args, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = time.monotonic() + 600
        while (not os.path.exists(ckpt) and victim.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.05)
        killed = victim.poll() is None
        if killed:
            os.killpg(victim.pid, signal.SIGKILL)
        victim.wait(timeout=60)
        _await_group_exit(victim.pid, timeout_s=60)

        resume = subprocess.run(
            base_cmd(interrupted) + ckpt_args, env=env,
            capture_output=True, timeout=1800,
        )
        identical = False
        if resume.returncode == 0:
            with open(uninterrupted, "rb") as left, \
                    open(interrupted, "rb") as right:
                identical = left.read() == right.read()
        return {
            "devices": devices,
            "jobs": jobs,
            "killed_mid_run": killed,
            "resume_exit": resume.returncode,
            "identical": identical,
        }


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


#: Total devices per phase-plan fleet in the phases benchmark.
PHASES_DEVICES = 180
#: The storm plan and its quiet comparator (``repro.workload.library``).
PHASES_STORM_PLAN = "rotation-storm"
PHASES_IDLE_PLAN = "calm"


def bench_fleet_phases(
    *, seed: int = 0x5EED, devices: int = PHASES_DEVICES,
    jobs: int = 1,
) -> dict[str, Any]:
    """Storm-vs-idle per-policy cost asymmetry (the Fig. 11 regime).

    Runs the same fleet under two time-varying phase plans — a rotation
    storm and a calm, mostly-idle day — and reports, per policy, the
    total handling cost per device and the crash/data-loss rates under
    each.  The gates (see :func:`check_fleet_report`) pin the paper's
    population-scale story: a storm multiplies every policy's handling
    cost (``asymmetry`` > 1), and it punishes restart-based handling
    with *crashes* (stock's crash rate climbs; the transparent policies
    stay at zero), not just latency.  Reports stay byte-identical
    across job counts, phased or not.
    """
    import math

    from repro.fleet.run import FleetSpec, run_fleet
    from repro.workload.library import PHASE_PLANS

    cells = len(FleetSpec().cells())
    per_cell = max(1, math.ceil(devices / cells))
    section: dict[str, Any] = {
        "devices": per_cell * cells,
        "storm_plan": PHASES_STORM_PLAN,
        "idle_plan": PHASES_IDLE_PLAN,
        "plans": {},
        "identical_across_jobs": {},
    }
    for plan_name in (PHASES_STORM_PLAN, PHASES_IDLE_PLAN):
        spec = FleetSpec(
            devices_per_cell=per_cell, seed=seed,
            phases=PHASE_PLANS[plan_name],
        )
        serial = run_fleet(spec, jobs=1)
        sharded = run_fleet(spec, jobs=max(2, jobs))
        section["identical_across_jobs"][plan_name] = (
            sharded.to_json() == serial.to_json()
        )
        plan_rows: dict[str, Any] = {}
        for row in serial.report()["policies"]:
            handling = row["handling"]
            per_device = (handling["mean_ms"] * handling["count"]
                          / row["devices"]) if row["devices"] else 0.0
            plan_rows[row["policy"]] = {
                "handling_events": handling["count"],
                "handling_mean_ms": handling["mean_ms"],
                "handling_ms_per_device": round(per_device, 1),
                "crash_rate": row["crash_rate"],
                "data_loss_rate": row["data_loss_rate"],
            }
        section["plans"][plan_name] = plan_rows
    storm = section["plans"][PHASES_STORM_PLAN]
    idle = section["plans"][PHASES_IDLE_PLAN]
    section["asymmetry"] = {
        policy: round(
            storm[policy]["handling_ms_per_device"]
            / max(idle[policy]["handling_ms_per_device"], 1e-9), 2,
        )
        for policy in storm
    }
    return section


def run_fleet_bench(
    *, jobs: int | None = None, devices: int = DEFAULT_FLEET_DEVICES,
    seed: int = 0x5EED, scaling: bool = True, resume_check: bool = False,
    phases: bool = True,
) -> dict[str, Any]:
    """Produce the full BENCH_fleet.json report structure."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    report: dict[str, Any] = {
        "bench": "repro.fleet",
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "jobs": jobs,
        "fleet": bench_fleet(devices=devices, jobs=jobs, seed=seed),
    }
    if scaling:
        report["scaling"] = bench_fleet_scaling(jobs=jobs, seed=seed)
    if phases:
        report["phases"] = bench_fleet_phases(seed=seed, jobs=jobs)
    if resume_check:
        report["resume"] = fleet_resume_check(jobs=max(2, jobs), seed=seed)
    report["ok"] = check_fleet_report(report) == []
    return report


def check_fleet_report(report: dict[str, Any]) -> list[str]:
    """Acceptance failures for a fleet benchmark (empty = pass).

    Gated: sharded and cold-setup runs byte-identical to serial; forked
    cohort spawning faster than per-device cold setup; every
    scaling-curve point completed
    with peak RSS at the largest device count within
    ``SCALING_RSS_BOUND`` of the smallest (same jobs value); phased
    (time-varying) fleets byte-identical across job counts with every
    policy's storm-vs-idle cost asymmetry above 1 and the crash-rate
    split intact (stock crashes more under the storm; the transparent
    policies do not crash at all); and, when present, the
    killed-then-resumed report byte-identical to the uninterrupted
    one.  Wall-clock speedups are reported, not gated — they are
    properties of the host's core count.
    """
    failures: list[str] = []
    data = report["fleet"]
    for mode, same in data["identical_to_serial"].items():
        if not same:
            failures.append(f"fleet: {mode} report differs from serial")
    spawn = data["spawn"]
    if spawn["forked_s"] >= spawn["cold_s"]:
        failures.append(
            f"fleet: forked spawn ({spawn['forked_s']}s) not faster than "
            f"cold setup ({spawn['cold_s']}s)"
        )
    curve = report.get("scaling")
    if curve is None:
        failures.append("fleet: scaling curve missing")
    else:
        by_jobs: dict[int, list[dict]] = {}
        for point in curve:
            if not point.get("ok"):
                failures.append(
                    f"scaling: point devices={point.get('devices')} "
                    f"jobs={point.get('jobs')} failed"
                    + (f" ({point['error']})" if point.get("error") else "")
                )
            else:
                by_jobs.setdefault(point["jobs"], []).append(point)
        for jobs_value, points in by_jobs.items():
            if len(points) < 2:
                continue
            smallest = min(points, key=lambda p: p["devices"])
            largest = max(points, key=lambda p: p["devices"])
            if largest["rss_mb"] > SCALING_RSS_BOUND * smallest["rss_mb"]:
                failures.append(
                    f"scaling: jobs={jobs_value} peak RSS grows with "
                    f"fleet size ({smallest['rss_mb']}MB @ "
                    f"{smallest['devices']} -> {largest['rss_mb']}MB @ "
                    f"{largest['devices']}; bound {SCALING_RSS_BOUND}x)"
                )
    phases = report.get("phases")
    if phases is None:
        failures.append("fleet: phases section missing")
    else:
        for plan, same in phases["identical_across_jobs"].items():
            if not same:
                failures.append(
                    f"phases: {plan} report differs across job counts"
                )
        for policy, ratio in phases["asymmetry"].items():
            if ratio <= 1.0:
                failures.append(
                    f"phases: {policy} storm/idle handling asymmetry "
                    f"{ratio}x not above 1"
                )
        storm = phases["plans"][phases["storm_plan"]]
        idle = phases["plans"][phases["idle_plan"]]
        stock = "android10"
        if stock in storm:
            if storm[stock]["crash_rate"] <= idle[stock]["crash_rate"]:
                failures.append(
                    f"phases: {stock} crash rate did not climb under the "
                    f"storm ({idle[stock]['crash_rate']} -> "
                    f"{storm[stock]['crash_rate']})"
                )
            for policy, row in storm.items():
                if policy == stock:
                    continue
                if row["crash_rate"] >= storm[stock]["crash_rate"]:
                    failures.append(
                        f"phases: {policy} storm crash rate "
                        f"({row['crash_rate']}) not below {stock}'s "
                        f"({storm[stock]['crash_rate']})"
                    )
    resume = report.get("resume")
    if resume is not None and not resume["identical"]:
        failures.append(
            "resume: killed-then-resumed report differs from the "
            "uninterrupted run"
        )
    return failures


def format_fleet_report(report: dict[str, Any]) -> str:
    data = report["fleet"]
    spawn = data["spawn"]
    seconds = data["seconds"]
    identical = all(data["identical_to_serial"].values())
    lines = [
        f"fleet benchmark — jobs={report['jobs']}, "
        f"host cpus={report['host']['cpu_count']}",
        f"  {data['devices']} devices in {data['cells']} cohorts "
        f"(shard size {data['shard_size']})",
        f"  spawn: cold {spawn['cold_s']}s | forked {spawn['forked_s']}s "
        f"({spawn['speedup']}x)",
        f"  end-to-end: serial {seconds['serial']}s | sharded "
        f"{seconds['sharded']}s "
        f"({data['speedup_vs_serial']['sharded']}x) | cold setup "
        f"{seconds['cold_setup']}s",
        f"  byte-identical to serial: {'yes' if identical else 'NO'}",
    ]
    for point in report.get("scaling", []):
        if point.get("ok"):
            lines.append(
                f"  scaling: {point['devices']} devices x jobs="
                f"{point['jobs']}: {point['seconds']}s, peak RSS "
                f"{point['rss_mb']}MB"
            )
        else:
            lines.append(
                f"  scaling: devices={point.get('devices')} "
                f"jobs={point.get('jobs')}: FAILED"
            )
    phases = report.get("phases")
    if phases is not None:
        identical = all(phases["identical_across_jobs"].values())
        lines.append(
            f"  phases: {phases['devices']} devices, "
            f"{phases['storm_plan']} vs {phases['idle_plan']}, "
            f"byte-identical across jobs: {'yes' if identical else 'NO'}"
        )
        storm = phases["plans"][phases["storm_plan"]]
        for policy in sorted(phases["asymmetry"]):
            lines.append(
                f"  phases: {policy}: storm/idle handling asymmetry "
                f"{phases['asymmetry'][policy]}x, storm crash rate "
                f"{storm[policy]['crash_rate']}"
            )
    resume = report.get("resume")
    if resume is not None:
        lines.append(
            f"  resume: killed mid-run={resume['killed_mid_run']}, "
            f"byte-identical={'yes' if resume['identical'] else 'NO'}"
        )
    return "\n".join(lines)


def run_bench(
    *,
    jobs: int | None = None,
    experiments: Sequence[str] = DEFAULT_EXPERIMENTS,
    seed: int = 0x5EED,
) -> dict[str, Any]:
    """Produce the full BENCH_engine.json report structure."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    report: dict[str, Any] = {
        "bench": "repro.engine",
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "jobs": jobs,
        "experiments": {
            name: bench_experiment(name, jobs=jobs, seed=seed)
            for name in experiments
        },
        "snapshot": {
            SNAPSHOT_EXPERIMENT: bench_snapshot(seed=seed),
        },
    }
    report["ok"] = check_report(report) == []
    return report


def check_report(report: dict[str, Any]) -> list[str]:
    """Return the list of acceptance failures (empty = pass).

    Checked: every mode byte-identical to serial, and cached re-runs
    (both tiers) faster than the cold serial run.  Parallel speedup is
    reported, not gated — it is a property of the host's core count.
    """
    failures: list[str] = []
    for name, data in report["experiments"].items():
        for mode, same in data["identical_to_serial"].items():
            if not same:
                failures.append(f"{name}: {mode} results differ from serial")
        seconds = data["seconds"]
        for mode in ("cached_warm_memory", "cached_warm_disk"):
            if seconds[mode] >= seconds["serial"]:
                failures.append(
                    f"{name}: {mode} ({seconds[mode]}s) not faster than "
                    f"serial ({seconds['serial']}s)"
                )
    for name, data in report.get("snapshot", {}).items():
        for mode, same in data["identical_to_serial"].items():
            if not same:
                failures.append(
                    f"snapshot/{name}: {mode} results differ from serial"
                )
    return failures


def write_report(report: dict[str, Any], path: str = DEFAULT_OUTPUT) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_report(report: dict[str, Any]) -> str:
    lines = [
        f"engine benchmark — jobs={report['jobs']}, "
        f"host cpus={report['host']['cpu_count']}",
    ]
    for name, data in report["experiments"].items():
        seconds = data["seconds"]
        speedup = data["speedup_vs_serial"]
        lines.append(
            f"  {name}: {data['runs']} runs | serial {seconds['serial']}s | "
            f"parallel {seconds['parallel']}s ({speedup['parallel']}x) | "
            f"warm cache {seconds['cached_warm_memory']}s "
            f"({speedup['cached_warm_memory']}x mem, "
            f"{speedup['cached_warm_disk']}x disk)"
        )
        identical = all(data["identical_to_serial"].values())
        lines.append(
            f"    byte-identical to serial: {'yes' if identical else 'NO'}"
        )
    for name, data in report.get("snapshot", {}).items():
        seconds = data["seconds"]
        speedup = data["speedup_vs_serial"]
        identical = all(data["identical_to_serial"].values())
        lines.append(
            f"  snapshot/{name}: {data['runs']} runs | "
            f"serial {seconds['serial']}s | forked {seconds['forked']}s "
            f"({speedup['forked']}x) | verified {seconds['forked_verified']}s "
            f"({speedup['forked_verified']}x)"
        )
        lines.append(
            f"    byte-identical to serial: {'yes' if identical else 'NO'}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--scaling-point"]:
        # Internal: the subprocess body behind one curve point.
        return _scaling_point_main(*(int(value) for value in argv[1:4]))
    opts = parse("bench-engine", argv)
    if isinstance(opts, int):
        return opts
    if opts["max_rss_mb"] is not None:
        apply_rss_ceiling(opts["max_rss_mb"])
    if opts.rest is not None:
        # ``fleet-cli``: forward the rest to `python -m repro fleet`,
        # under the RSS ceiling armed above.
        from repro.__main__ import fleet_command

        return fleet_command(opts.rest)
    mode, devices, jobs = opts["mode"], opts["devices"], opts["jobs"]
    if mode == "serve":
        # Daemon benchmark lives with the daemon; same report/check/
        # write conventions, its own default output file.
        from repro.serve.bench import (
            DEFAULT_SERVE_OUTPUT as default_output,
            check_serve_report as check,
            format_serve_report as render,
            run_serve_bench,
        )

        report = run_serve_bench(devices=devices)  # None = bench default
    elif mode == "hunt":
        # Bug-hunter benchmark lives with the hunter; ``--devices``
        # doubles as its corpus size to keep the flag surface small.
        from repro.hunt.bench import (
            DEFAULT_HUNT_OUTPUT as default_output,
            check_hunt_bench as check,
            format_hunt_bench as render,
            run_hunt_bench,
        )

        report = run_hunt_bench(apps=devices)  # None = bench default
    elif mode == "fleet":
        report = run_fleet_bench(jobs=jobs,
                                 devices=(devices if devices is not None
                                          else DEFAULT_FLEET_DEVICES),
                                 scaling=not opts["no_scaling"],
                                 phases=not opts["no_phases"],
                                 resume_check=opts["resume_check"])
        default_output = DEFAULT_FLEET_OUTPUT
        render, check = format_fleet_report, check_fleet_report
    else:
        report = run_bench(jobs=jobs)
        default_output, render, check = DEFAULT_OUTPUT, format_report, check_report
    output = opts["output"] or default_output
    write_report(report, output)
    print(render(report))
    failures = check(report)
    print(f"wrote {output}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if (opts["check"] and failures) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
