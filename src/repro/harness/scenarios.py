"""Scripted scenarios behind the trace and sweep figures.

* :func:`fig9_trace` — the CPU/memory-over-time experiment of Fig. 9:
  benchmark app, first change, button touch (starts the AsyncTask),
  second change while the task is in flight, then the task returns.
* :func:`run_scalability` — one Fig. 10a/10b cell: handling time and
  async migration time at one view count.
* :func:`gc_stress` — Fig. 11: ten minutes of bursty rotations under a
  given ``THRESH_T``, reporting mean handling latency, CPU overhead and
  mean memory.

Like :mod:`repro.harness.runner`, the sweep scenarios are split into a
``prepare_*`` prefix (shared across a sweep: everything up to the first
divergent parameter) and a ``finish_*`` suffix, so the engine can run
the prefix once, snapshot, and fork each operating point.  The classic
entry points compose the same two phases on a fresh system.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from statistics import mean
from typing import TYPE_CHECKING, Callable

from repro.apps.benchmark import make_benchmark_app
from repro.apps.workload import RotationTraceSpec, rotation_trace
from repro.core.gc import GcThresholds
from repro.core.policy import RCHDroidPolicy
from repro.metrics.profiler import TracePoint
from repro.sim.rng import DeterministicRng
from repro.system import AndroidSystem

if TYPE_CHECKING:  # pragma: no cover
    from repro.policy import RuntimeChangePolicy
    from repro.trace.tracer import Tracer

PolicyFactory = Callable[[], "RuntimeChangePolicy"]


# ----------------------------------------------------------------------
# Fig. 9: CPU/memory usage over time
# ----------------------------------------------------------------------
@dataclass
class Fig9Trace:
    """Result of one Fig. 9 run."""

    policy: str
    points: list[TracePoint]
    crashed: bool
    crash_time_ms: float | None
    handling: list[tuple[float, str]]
    tracer: "Tracer | None" = None
    """Causal span tracer of the run, when tracing was requested."""

    def heap_at(self, when_ms: float) -> float:
        best = 0.0
        for point in self.points:
            if point.when_ms <= when_ms:
                best = point.heap_mb
        return best

    def peak_cpu_between(self, start_ms: float, end_ms: float) -> float:
        return max(
            (p.cpu_percent for p in self.points if start_ms <= p.when_ms < end_ms),
            default=0.0,
        )


def fig9_trace(
    policy_factory: PolicyFactory,
    *,
    num_images: int = 4,
    first_change_ms: float = 17_000.0,
    touch_ms: float = 67_000.0,
    second_change_ms: float = 79_000.0,
    async_duration_ms: float = 50_000.0,
    horizon_ms: float = 140_000.0,
    window_ms: float = 1_000.0,
    trace: bool | None = None,
) -> Fig9Trace:
    """Run the Fig. 9 timeline.

    The paper's axis labels the events at 17/67/79/117 "ms"; we read them
    as seconds of session time (the artifact drives them manually over
    ``adb``) and keep the same numeric positions.  The AsyncTask started
    by the touch at 67 returns at 117, after the second change at 79 —
    the stale-view window that crashes stock Android.
    """
    system = AndroidSystem(policy=policy_factory(), trace=trace)
    app = make_benchmark_app(
        num_images,
        async_duration_ms=async_duration_ms,
        async_cpu_fraction=0.03,
    )
    system.launch(app)

    system.run_for(first_change_ms - system.now_ms)
    system.rotate()
    system.run_for(touch_ms - system.now_ms)
    system.start_async(app)
    system.run_for(second_change_ms - system.now_ms)
    system.rotate()
    system.run_for(horizon_ms - system.now_ms)

    crash_time = None
    if system.ctx.recorder.crashes:
        crash_time = system.ctx.recorder.crashes[0].when_ms
    return Fig9Trace(
        policy=system.policy.name,
        points=system.profiler.trace(app.package, 0.0, horizon_ms, window_ms),
        crashed=system.crashed(app.package),
        crash_time_ms=crash_time,
        handling=system.handling_times(),
        tracer=system.tracer if system.tracer.enabled else None,
    )


# ----------------------------------------------------------------------
# Fig. 10: scalability sweeps
# ----------------------------------------------------------------------
@dataclass
class ScalabilityPoint:
    num_views: int
    android10_ms: float
    rchdroid_ms: float
    rchdroid_init_ms: float
    migration_ms: float


@dataclass
class ScalabilityMeasurement:
    """One (app, policy, variant) cell of the Fig. 10 sweep."""

    package: str
    policy: str
    variant: str
    handling_ms: float = 0.0
    """``stock``: the single restart; ``paths``: the flip (2nd change)."""
    init_ms: float = 0.0
    """``paths`` only: the first change (shadow-init path)."""
    migration_ms: float = 0.0
    """``migration`` only: the lazy view-tree migration batch."""


def prepare_scalability(system: AndroidSystem, app) -> None:
    """Scalability prefix: launch the sized benchmark app."""
    system.launch(app)


def finish_scalability(
    system: AndroidSystem, app, *, variant: str = "stock"
) -> ScalabilityMeasurement:
    """Scalability suffix: one of the three Fig. 10 probe sequences."""
    if variant == "stock":
        system.rotate()
        return ScalabilityMeasurement(
            app.package, system.policy.name, variant,
            handling_ms=system.last_handling_ms() or 0.0,
        )
    if variant == "paths":
        system.rotate()
        init_ms = system.last_handling_ms() or 0.0
        system.rotate()
        flip_ms = system.last_handling_ms() or 0.0
        return ScalabilityMeasurement(
            app.package, system.policy.name, variant,
            handling_ms=flip_ms, init_ms=init_ms,
        )
    if variant == "migration":
        # Async migration time: start the task on the sunny activity,
        # rotate, let it return onto the (now shadow) tree and measure
        # the lazy-migration batch.
        system.start_async(app)
        system.rotate()
        system.run_until_idle()
        engine = system.policy.engine_for(app.package)
        return ScalabilityMeasurement(
            app.package, system.policy.name, variant,
            migration_ms=engine.last_batch_cost_ms(),
        )
    raise ValueError(f"unknown scalability variant {variant!r}")


def run_scalability(
    policy_factory: PolicyFactory,
    app,
    *,
    seed: int = 0x5EED,
    costs=None,
    variant: str = "stock",
) -> ScalabilityMeasurement:
    """One scalability cell on a fresh system (the engine's fresh path)."""
    system = AndroidSystem(policy=policy_factory(), costs=costs, seed=seed)
    prepare_scalability(system, app)
    return finish_scalability(system, app, variant=variant)


# ----------------------------------------------------------------------
# Fig. 11: GC trade-off
# ----------------------------------------------------------------------
@dataclass
class GcTradeoffPoint:
    thresh_t_s: float
    mean_handling_ms: float
    cpu_overhead_ms: float
    mean_memory_mb: float
    init_count: int
    flip_count: int
    collections: int


def prepare_gc(system: AndroidSystem, app) -> None:
    """GC prefix: launch the heavy benchmark app.

    The GC thresholds are *not* consulted before the first configuration
    change (the collector only arms once a shadow activity exists), so
    the launch is identical across every ``THRESH_T`` operating point —
    the suffix installs the point's thresholds before its first rotate.
    """
    system.launch(app)


def _apply_gc_thresholds(
    system: AndroidSystem, *, thresh_t_s: float, thresh_f: int
) -> None:
    """Install one operating point's thresholds on a prepared system."""
    thresholds = GcThresholds(
        thresh_t_ms=thresh_t_s * 1_000.0,
        thresh_f=thresh_f,
        # A 20 s observation window keeps the four-per-minute rate gate
        # reactive at burst boundaries (see GcThresholds: the count is
        # normalised to per-minute before comparison).
        frequency_window_ms=20_000.0,
    )
    policy = system.policy
    if not isinstance(policy, RCHDroidPolicy):
        raise TypeError(f"gc scenario needs an RCHDroid policy, got {policy.name}")
    policy.config = dataclasses.replace(policy.config, thresholds=thresholds)
    assert policy.gc is not None  # created when the policy attached
    policy.gc.thresholds = thresholds


def finish_gc(
    system: AndroidSystem,
    app,
    *,
    thresh_t_s: float,
    duration_ms: float = 600_000.0,
    thresh_f: int = 4,
    seed: int = 0x5EED,
    trace_spec: RotationTraceSpec | None = None,
) -> GcTradeoffPoint:
    """GC suffix: install thresholds, replay the bursty rotation trace,
    audit latency / CPU / memory over the window."""
    _apply_gc_thresholds(system, thresh_t_s=thresh_t_s, thresh_f=thresh_f)
    policy = system.policy

    spec = trace_spec if trace_spec is not None else RotationTraceSpec(
        duration_ms=duration_ms
    )
    trace = rotation_trace(DeterministicRng(seed).fork("fig11"), spec)
    for when_ms in trace:
        if when_ms > system.now_ms:
            system.run_for(when_ms - system.now_ms)
        system.rotate()
    system.run_for(duration_ms - system.now_ms)

    episodes = system.handling_times()
    handled = [ms for ms, path in episodes if path in ("init", "flip")]
    heap = system.profiler.heap_series(app.package, 0.0, duration_ms, 5_000.0)
    assert policy.gc is not None
    return GcTradeoffPoint(
        thresh_t_s=thresh_t_s,
        mean_handling_ms=mean(handled) if handled else 0.0,
        cpu_overhead_ms=system.profiler.total_busy_ms(app.package),
        mean_memory_mb=mean(mb for _, mb in heap),
        init_count=sum(1 for _, path in episodes if path == "init"),
        flip_count=sum(1 for _, path in episodes if path == "flip"),
        collections=policy.gc.collected_count,
    )


def run_gc(
    policy_factory: PolicyFactory,
    app,
    *,
    seed: int = 0x5EED,
    costs=None,
    **kwargs,
) -> GcTradeoffPoint:
    """One GC operating point on a fresh system (the engine's fresh path)."""
    system = AndroidSystem(policy=policy_factory(), costs=costs, seed=seed)
    prepare_gc(system, app)
    return finish_gc(system, app, seed=seed, **kwargs)


def gc_stress(
    thresh_t_s: float,
    *,
    num_images: int = 32,
    duration_ms: float = 600_000.0,
    thresh_f: int = 4,
    seed: int = 0x5EED,
    trace_spec: RotationTraceSpec | None = None,
) -> GcTradeoffPoint:
    """One Fig. 11 operating point: ten minutes of bursty rotations.

    ``THRESH_F`` stays at the paper's four-per-minute; the sweep varies
    ``THRESH_T``.  The trace (≈ six changes/minute, bursty) is identical
    across operating points, so differences come from the GC policy only.
    """
    return run_gc(
        RCHDroidPolicy,
        make_benchmark_app(num_images),
        seed=seed,
        thresh_t_s=thresh_t_s,
        duration_ms=duration_ms,
        thresh_f=thresh_f,
        trace_spec=trace_spec,
    )
