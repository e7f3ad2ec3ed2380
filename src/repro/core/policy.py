"""The RCHDroid policy: the paper's patch, as one strategy object.

``handle_configuration_change`` reproduces the Fig. 3 flow end to end:

1. the ATMS skips the relaunch test (patched
   ``ensureActivityConfiguration``) and messages the activity thread;
2. the activity thread moves the current instance into the **shadow
   state** and snapshots it (Step ①);
3. the thread requests a sunny start; the ATMS either **coin-flips** a
   surviving shadow record to the top (Step ②, Fig. 6(2)) or creates a
   second record of the same activity (Fig. 6(1));
4. on the init path the thread launches the sunny instance from the
   shadow snapshot and builds the **essence-based mapping** (Step ③);
   on the flip path it revives the found instance in place;
5. the **lazy-migration engine** is installed as the shadow instance's
   invalidate hook so later asynchronous returns are forwarded to the
   sunny tree (Step ④);
6. a periodic GC tick runs **Algorithm 1** while a shadow instance
   exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.android.app.intent import Intent, IntentFlag
from repro.android.ipc import ipc_hop
from repro.core import states
from repro.core.coinflip import flip_instances
from repro.core.gc import GcDecision, GcThresholds, ShadowGarbageCollector
from repro.core.mapping import EssenceMapping, build_essence_mapping
from repro.core.migration import MigrationEngine
from repro.policy import RuntimeChangePolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.app.activity import Activity
    from repro.android.app.activity_thread import ActivityThread
    from repro.android.os import Bundle
    from repro.android.res import Configuration
    from repro.android.server.atms import ActivityTaskManagerService
    from repro.android.server.records import ActivityRecord


@dataclass(frozen=True)
class RCHDroidConfig:
    """Tunables of the mechanism.

    The two ``*_enabled`` switches exist for the ablation benchmarks:
    disabling the coin flip forces every change onto the init path
    (reproducing the RCHDroid-init curve of Fig. 10a); disabling lazy
    migration leaves asynchronous updates stranded on the shadow tree.
    """

    thresholds: GcThresholds = field(default_factory=GcThresholds)
    gc_period_ms: float = 5_000.0
    coin_flip_enabled: bool = True
    lazy_migration_enabled: bool = True


class RCHDroidPolicy(RuntimeChangePolicy):
    """Transparent runtime change handling (the paper's contribution)."""

    name = "rchdroid"

    def __init__(self, config: RCHDroidConfig | None = None):
        super().__init__()
        self.config = config if config is not None else RCHDroidConfig()
        self.gc: ShadowGarbageCollector | None = None
        self.mappings: list[EssenceMapping] = []
        self._engines: dict[str, MigrationEngine] = {}
        self._snapshots: dict[int, "Bundle"] = {}
        self._gc_scheduled: set[str] = set()

    def attach(self, atms: "ActivityTaskManagerService") -> None:
        super().attach(atms)
        self.gc = ShadowGarbageCollector(atms.ctx, self.config.thresholds)

    def engine_for(self, package: str) -> MigrationEngine:
        """The per-process lazy-migration engine (lazily created)."""
        assert self.atms is not None
        if package not in self._engines:
            self._engines[package] = MigrationEngine(self.atms.ctx)
        return self._engines[package]

    # ------------------------------------------------------------------
    # the runtime-change path (Fig. 3)
    # ------------------------------------------------------------------
    def handle_configuration_change(
        self,
        atms: "ActivityTaskManagerService",
        record: "ActivityRecord",
        new_config: "Configuration",
    ) -> str:
        app = record.app
        if app.handles_config_changes:
            return self.deliver_self_handled(atms, record, new_config)

        ctx = atms.ctx
        thread = record.thread
        outgoing = record.instance
        assert outgoing is not None

        # ATMS -> activity thread: configuration change message.
        ipc_hop(ctx, app.package, "ipc:config-change")

        # Step 1: shadow the outgoing instance and snapshot it.
        snapshot = states.shadow_activity(ctx, thread, outgoing)
        self._snapshots[outgoing.instance_id] = snapshot
        record.set_shadow_state(True)

        # Ablation support: with the coin flip disabled, the previous
        # shadow (if any) must be released before a new one accumulates —
        # the system-wide single-shadow invariant is unconditional.
        if not self.config.coin_flip_enabled:
            self._release_stale_shadow(atms, thread, exclude=outgoing)

        # Step 2: activity thread -> ATMS: sunny start request.
        ipc_hop(ctx, app.package, "ipc:start-sunny")
        intent = Intent(app, record.activity_name, IntentFlag.SUNNY)
        assert record.task is not None
        result = atms.starter.start_activity_unchecked(
            intent, record.task, new_config, current=record
        )

        engine = self.engine_for(app.package)
        if result.flipped:
            path = self._finish_flip(
                ctx, thread, engine, result.record, outgoing, snapshot, new_config
            )
        else:
            path = self._finish_init(
                ctx, thread, engine, result.record, outgoing, snapshot
            )
        self._schedule_gc(atms, thread)
        return path

    # ------------------------------------------------------------------
    def _finish_flip(
        self,
        ctx,
        thread: "ActivityThread",
        engine: MigrationEngine,
        revived_record: "ActivityRecord",
        outgoing: "Activity",
        snapshot: "Bundle",
        new_config: "Configuration",
    ) -> str:
        """Coin-flip hit: revive the surviving shadow instance in place."""
        revived = revived_record.instance
        assert revived is not None
        engine.uninstall(revived)
        flip_instances(ctx, revived, outgoing, snapshot, new_config)
        if self.config.lazy_migration_enabled:
            engine.install(outgoing)
        thread.sunny_activity = revived
        states.sunny_activity(ctx, revived)
        return "flip"

    def _finish_init(
        self,
        ctx,
        thread: "ActivityThread",
        engine: MigrationEngine,
        new_record: "ActivityRecord",
        outgoing: "Activity",
        snapshot: "Bundle",
    ) -> str:
        """First change (or shadow was GC'd): create the sunny instance.

        The shadow snapshot rides the launch path as the saved state, so
        the app's own onCreate sees it exactly as it would a stock bundle
        — "going through the app logic to build the view tree based on
        the new configuration and recover states" (Section 3.3).
        """
        ctx.consume(
            ctx.costs.state_transfer_base_ms,
            thread.process.name,
            label="state-transfer",
        )
        sunny = thread.perform_launch_activity(new_record, snapshot)
        mapping = build_essence_mapping(ctx, shadow=outgoing, sunny=sunny)
        self.mappings.append(mapping)
        if self.config.lazy_migration_enabled:
            engine.install(outgoing)
        thread.sunny_activity = sunny
        states.sunny_activity(ctx, sunny)
        return "init"

    # ------------------------------------------------------------------
    # shadow release paths
    # ------------------------------------------------------------------
    def on_foreground_switch(
        self,
        atms: "ActivityTaskManagerService",
        previous_top: "ActivityRecord",
    ) -> None:
        """Foreground switched: release the coupled shadow immediately
        (Section 3.5)."""
        thread = previous_top.thread
        shadow = thread.shadow_activity
        if shadow is None:
            return
        self._drop_shadow_record(atms, shadow)
        thread.release_shadow(reason="foreground-switch")

    def _release_stale_shadow(
        self,
        atms: "ActivityTaskManagerService",
        thread: "ActivityThread",
        exclude: "Activity",
    ) -> None:
        stale = None
        for activity in thread.activities:
            if activity is exclude:
                continue
            if activity.shadow_flag and activity.alive:
                stale = activity
                break
        if stale is None:
            return
        self._drop_shadow_record(atms, stale)
        previous_pointer = thread.shadow_activity
        thread.shadow_activity = stale
        thread.release_shadow(reason="coin-flip-disabled")
        if previous_pointer is not stale:
            thread.shadow_activity = previous_pointer

    def _drop_shadow_record(
        self, atms: "ActivityTaskManagerService", shadow: "Activity"
    ) -> None:
        """Remove the ATMS record coupled with a released shadow instance."""
        for task in atms.stack.tasks:
            for task_record in list(task.records):
                if task_record.instance is shadow:
                    task.remove(task_record)
                    return

    # ------------------------------------------------------------------
    # periodic GC tick
    # ------------------------------------------------------------------
    def _schedule_gc(
        self, atms: "ActivityTaskManagerService", thread: "ActivityThread"
    ) -> None:
        package = thread.process.name
        if package in self._gc_scheduled:
            return
        self._gc_scheduled.add(package)
        thread.handler.post_delayed(
            partial(self._gc_tick, atms, thread),
            self.config.gc_period_ms,
            label="gc-tick",
        )

    def _gc_tick(
        self, atms: "ActivityTaskManagerService", thread: "ActivityThread"
    ) -> None:
        self._gc_scheduled.discard(thread.process.name)
        if not thread.process.alive:
            return
        shadow = thread.shadow_activity
        assert self.gc is not None
        decision = self.gc.check(thread)
        if decision is GcDecision.COLLECTED and shadow is not None:
            self._drop_shadow_record(atms, shadow)
        if thread.shadow_activity is not None:
            self._schedule_gc(atms, thread)
