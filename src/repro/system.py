"""The ``AndroidSystem`` facade: one simulated device.

This is the public entry point most users need::

    from repro import AndroidSystem, RCHDroidPolicy
    from repro.apps import make_benchmark_app

    system = AndroidSystem(policy=RCHDroidPolicy())
    app = make_benchmark_app(num_images=4)
    system.launch(app)
    system.rotate()                      # a runtime configuration change
    print(system.handling_times())      # -> [(89.2ish, "flip"), ...]

It owns a fresh :class:`~repro.sim.context.SimContext` (so systems never
share state), boots an ATMS with the chosen runtime-change policy, and
exposes the device-level verbs the paper's experiments are written in:
launch, rotate/resize (the artifact's ``wm size`` trigger), touch,
asynchronous task injection, time passage, and metric queries.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

from repro.android.res import DEFAULT_LANDSCAPE, Configuration
from repro.android.runtime import AsyncTask
from repro.android.server.atms import ActivityTaskManagerService
from repro.baselines.android10 import Android10Policy
from repro.metrics.energy import EnergyModel
from repro.metrics.profiler import Profiler
from repro.sim.context import SimContext
from repro.trace.hooks import install_tracing
from repro.trace.tracer import resolve_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.app.activity import Activity
    from repro.apps.dsl import AppSpec, AsyncScript
    from repro.policy import RuntimeChangePolicy
    from repro.sim.costs import CostModel
    from repro.sim.snapshot import SystemSnapshot
    from repro.trace.tracer import NullTracer, Tracer


class AndroidSystem:
    """A booted simulated device."""

    def __init__(
        self,
        policy: "RuntimeChangePolicy | None" = None,
        costs: "CostModel | None" = None,
        seed: int = 0x5EED,
        initial_config: Configuration | None = None,
        trace: "Tracer | NullTracer | bool | None" = None,
    ):
        self.ctx = SimContext(costs=costs, seed=seed)
        self.policy = policy if policy is not None else Android10Policy()
        self.tracer = resolve_tracer(
            trace, self.ctx.clock, label=self.policy.name
        )
        """Causal span tracer of this device.  ``trace=True`` records
        spans; ``None`` (default) records only inside an active
        :class:`~repro.trace.tracer.TraceSession`; ``False`` forces the
        no-op null tracer.  See docs/TRACING.md."""
        if self.tracer.enabled:
            install_tracing(self.ctx, self.tracer)
        config = initial_config if initial_config is not None else DEFAULT_LANDSCAPE
        self.atms = ActivityTaskManagerService(self.ctx, self.policy, config)
        self.profiler = Profiler(self.ctx.recorder)
        self.energy = EnergyModel(self.ctx.costs, self.ctx.recorder)
        self._launched_apps: list["AppSpec"] = []
        """Specs launched on this device, in launch order.  Snapshots
        externalise these (they are immutable inputs shared by every
        fork) instead of deep-copying them."""

    # ------------------------------------------------------------------
    # device verbs
    # ------------------------------------------------------------------
    def launch(self, app: "AppSpec"):
        """Install + cold-start an app; returns its activity record."""
        if not any(existing is app for existing in self._launched_apps):
            self._launched_apps.append(app)
        return self.atms.launch(app)

    def rotate(self) -> str | None:
        """Rotate the device (the canonical runtime change)."""
        return self.atms.update_configuration(self.atms.config.rotated())

    def resize(self, width_px: int, height_px: int) -> str | None:
        """``adb shell wm size WxH`` — the artifact's trigger."""
        return self.atms.update_configuration(
            self.atms.config.resized(width_px, height_px)
        )

    def set_locale(self, locale: str) -> str | None:
        return self.atms.update_configuration(self.atms.config.with_locale(locale))

    def attach_keyboard(self, attached: bool = True) -> str | None:
        return self.atms.update_configuration(
            self.atms.config.with_keyboard(attached)
        )

    def set_night_mode(self, night: bool = True) -> str | None:
        return self.atms.update_configuration(
            self.atms.config.with_night_mode(night)
        )

    @property
    def adb(self):
        """An adb-shell facade over this device (artifact workflow)."""
        from repro.adb import AdbShell

        return AdbShell(self)

    def start_activity(self, app: "AppSpec", activity_name: str):
        """Navigate to another activity of a running app (in-task)."""
        return self.atms.start_activity(app.package, activity_name)

    def back(self):
        """Press BACK: finish the foreground activity."""
        return self.atms.back()

    def run_for(self, duration_ms: float) -> None:
        """Let simulated time pass, draining due events."""
        self.ctx.run_until(self.ctx.now_ms + duration_ms)

    def run_until_idle(self) -> None:
        self.ctx.run_until_idle()

    # ------------------------------------------------------------------
    # app interaction
    # ------------------------------------------------------------------
    def foreground_activity(self, package: str | None = None) -> "Activity | None":
        """The activity instance currently in the foreground."""
        if package is None:
            record = self.atms.foreground_record()
        else:
            task = self.atms.stack.find_task(package)
            record = task.top() if task is not None else None
        return record.instance if record is not None else None

    def write_slot(self, app: "AppSpec", slot_name: str, value: Any) -> None:
        """User interaction: store ``value`` into one of the app's slots."""
        activity = self._require_foreground(app)
        app.slot(slot_name).write(activity, value)

    def read_slot(self, app: "AppSpec", slot_name: str) -> Any:
        activity = self._require_foreground(app)
        return app.slot(slot_name).read(activity)

    def start_async(
        self, app: "AppSpec", script: "AsyncScript | None" = None
    ) -> AsyncTask:
        """Start an app's asynchronous task on the *current* foreground
        instance — the task holds that instance's view references for its
        whole lifetime, exactly like the captured ``this`` of a Java
        AsyncTask (Fig. 1(a))."""
        chosen = script if script is not None else app.async_script
        if chosen is None:
            raise ValueError(f"{app.package} declares no async script")
        activity = self._require_foreground(app)
        looper = self.atms.thread_of(app.package).looper
        task = AsyncTask(
            self.ctx, looper, chosen.duration_ms,
            partial(_post_execute, chosen, activity),
            label=chosen.name, cpu_fraction=chosen.cpu_fraction,
        )
        activity.async_tasks.append(task)
        return task.execute()

    def _require_foreground(self, app: "AppSpec") -> "Activity":
        activity = self.foreground_activity(app.package)
        if activity is None:
            raise LookupError(f"{app.package} has no foreground activity")
        return activity

    # ------------------------------------------------------------------
    # snapshot / fork
    # ------------------------------------------------------------------
    def shared_inputs(self) -> list[Any]:
        """Immutable inputs shared by this system and every fork of it.

        Snapshots reference these by identity instead of copying them:
        the cost model, each launched app spec, and the spec's resource
        table and async script.  Nothing here is ever mutated
        by a run (specs are declarative; the cost model is frozen), so
        sharing them across forks is safe and keeps capture/restore cost
        proportional to *mutable* device state only.
        """
        inputs: list[Any] = [self.ctx.costs]
        for app in self._launched_apps:
            inputs.append(app)
            inputs.append(app.resources)
            if app.async_script is not None:
                inputs.append(app.async_script)
        return inputs

    def snapshot(self, *, trim_history: bool = False) -> "SystemSnapshot":
        """Checkpoint the full device state at the current instant.

        The returned :class:`~repro.sim.snapshot.SystemSnapshot` is
        immutable; this system continues running unaffected.  Any number
        of independent copies can later be materialised with
        :meth:`fork` — each continues from exactly this point and, given
        the same subsequent verbs, produces byte-identical results to a
        fresh run (the prefix-sharing engine's correctness contract).

        ``trim_history=True`` drops the recorder's accumulated
        busy/heap/event/latency history from the checkpoint (crashes and
        counters are kept); forks behave identically for everything they
        observe *after* the capture point, from a smaller payload.
        """
        from repro.sim.snapshot import SystemSnapshot

        return SystemSnapshot.capture(self, trim_history=trim_history)

    @classmethod
    def fork(cls, snap: "SystemSnapshot") -> "AndroidSystem":
        """Materialise an independent system from a snapshot.

        Equivalent to ``snap.restore()``; provided on the facade so the
        checkpoint API reads as a pair: ``system.snapshot()`` /
        ``AndroidSystem.fork(snap)``.
        """
        return snap.restore()

    # ------------------------------------------------------------------
    # metric queries
    # ------------------------------------------------------------------
    def handling_times(self) -> list[tuple[float, str]]:
        """All runtime-change handling episodes: (duration_ms, path)."""
        return [
            (record.duration_ms, record.detail.split("|", 1)[1])
            for record in self.ctx.recorder.latencies_named("handling")
        ]

    def last_handling_ms(self) -> float | None:
        episodes = self.handling_times()
        return episodes[-1][0] if episodes else None

    def memory_of(self, package: str) -> float:
        return self.ctx.memory.total_mb(package)

    def crashed(self, package: str) -> bool:
        return self.ctx.recorder.crashed(package)

    @property
    def now_ms(self) -> float:
        return self.ctx.now_ms


def _post_execute(script: "AsyncScript", activity: "Activity") -> None:
    """An async script's UI-thread completion on the activity that
    started it."""
    for view_id, attr, value in script.updates:
        activity.require_view(view_id).set_attr(attr, value)
    if script.shows_dialog:
        activity.show_dialog(script.name)
