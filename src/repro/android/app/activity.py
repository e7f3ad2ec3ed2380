"""The Activity class.

An activity instance owns a view tree built for one configuration, carries
the app's runtime state in three places the bug taxonomy distinguishes —
view attributes, bare instance fields, and custom saved state — and walks
the lifecycle state machine of Fig. 4.

The RCHDroid patch surface on this class (Table 2: 81 LoC) is modelled by
``shadow_flag``/``sunny_flag``, ``get_all_sunny_views`` (builds the
essence hash table), ``set_sunny_views`` (plants the peer pointers), and
the ``invalidate_hook`` slot that the lazy-migration engine installs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.android.app.lifecycle import (
    ALIVE_STATES,
    LifecycleState,
    check_transition,
)
from repro.android.os import Bundle
from repro.android.views.inflate import inflate
from repro.android.views.view import DecorView, View
from repro.errors import WindowLeakedException

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.res import Configuration
    from repro.android.os import Process
    from repro.apps.dsl import AppSpec
    from repro.sim.context import SimContext

class Activity:
    """One activity instance (paper Fig. 2(a))."""

    def __init__(
        self,
        ctx: "SimContext",
        process: "Process",
        app: "AppSpec",
        config: "Configuration",
        token: int,
        activity_name: str = "main",
    ):
        self.ctx = ctx
        self.process = process
        self.app = app
        self.config = config
        self.token = token
        self.activity_name = activity_name
        self.instance_id = ctx.next_id("activity-instance")
        self.lifecycle = LifecycleState.INITIALIZED
        self.decor: DecorView | None = None
        # App state, by storage class (drives the bug taxonomy):
        self.fields: dict[str, Any] = {}
        self.custom_state: dict[str, Any] = {}
        # RCHDroid patch surface:
        self.shadow_flag = False
        self.sunny_flag = False
        self.invalidate_hook: Callable[[View], None] | None = None
        self.shadow_entered_at_ms: float | None = None
        # App-owned async tasks (for bookkeeping and workload scripting):
        self.async_tasks: list = []
        self.dialogs: list[str] = []
        from repro.android.app.fragment import FragmentManager

        self.fragments = FragmentManager(self)

    # ------------------------------------------------------------------
    # lifecycle transitions
    # ------------------------------------------------------------------
    def _move_to(self, target: LifecycleState) -> None:
        check_transition(self.lifecycle, target)
        self.lifecycle = target

    @property
    def application_state(self) -> dict:
        """The process-lifetime Application state (survives restarts)."""
        return self.process.application_state

    def get_shared_preferences(self):
        """The package's persistent preferences (survive process death)."""
        from repro.android.storage import SharedPreferences

        return SharedPreferences(self.ctx, self.app.package)

    @property
    def destroyed(self) -> bool:
        return self.lifecycle is LifecycleState.DESTROYED

    @property
    def alive(self) -> bool:
        return self.lifecycle in ALIVE_STATES

    def perform_create(self, saved_state: Bundle | None) -> None:
        """onCreate: instantiate, load resources, inflate, run app logic.

        ``saved_state`` replays the stock restore path: view attributes
        previously saved by the per-view save functions, plus the app's
        custom entries when it implements ``onSaveInstanceState``.
        """
        costs = self.ctx.costs
        self.ctx.consume(
            costs.activity_instantiate_ms * self.app.ui_complexity,
            self.process.name,
            label=f"instantiate:{self.app.package}",
        )
        self.ctx.memory.allocate(
            self.process.name,
            ("activity", self.instance_id),
            costs.activity_base_mb,
        )
        self.app.resources.load(self.ctx, self.process.name, self.config)
        layout = self.app.resources.resolve_layout(
            self.app.layout_for(self.activity_name), self.config
        )
        self.decor = inflate(self.ctx, self, layout)
        self._move_to(LifecycleState.CREATED)
        self.app.on_create(self, saved_state)
        if saved_state is not None:
            # Fragment structure is framework-saved state: re-attach the
            # same fragments (inflated for the *new* configuration)
            # before view state is replayed, so their views restore too.
            self.fragments.restore_state(saved_state)
            self.decor.restore_state(saved_state)
            self.ctx.consume(
                costs.restore_state_per_view_ms * self.decor.count_views(),
                self.process.name,
                label="restore-view-state",
            )
            if self.app.implements_on_save:
                self.app.on_restore(self, saved_state)

    def perform_start(self) -> None:
        self._move_to(LifecycleState.STARTED)

    def perform_resume(self) -> None:
        self.ctx.consume(
            self.ctx.costs.activity_resume_ms,
            self.process.name,
            label=f"resume:{self.app.package}",
        )
        self._move_to(LifecycleState.RESUMED)

    def perform_pause(self) -> None:
        self._move_to(LifecycleState.PAUSED)

    def perform_stop(self) -> None:
        self._move_to(LifecycleState.STOPPED)

    def perform_destroy(self) -> None:
        """onDestroy: tombstone the view tree and release the footprint.

        A dialog still attached at destroy time is the classic
        WindowLeaked situation; like the real framework, the window is
        force-closed and the leak is logged (recorded as a
        ``window-leak`` event) rather than crashing — the *crash* arises
        only when a dialog is attached *after* the destroy.
        """
        if self.dialogs:
            for tag in self.dialogs:
                self.ctx.mark(
                    "window-leak",
                    detail=f"{self.app.package}:{tag}",
                    process=self.process.name,
                )
            self.ctx.recorder.bump("window-leaks", len(self.dialogs))
            self.dialogs.clear()
        view_count = self.decor.count_views() if self.decor is not None else 0
        costs = self.ctx.costs
        self.ctx.consume(
            costs.activity_destroy_base_ms
            + costs.activity_destroy_per_view_ms * view_count,
            self.process.name,
            label=f"destroy:{self.app.package}",
        )
        if self.decor is not None:
            self.decor.destroy()
        self.ctx.memory.free(self.process.name, ("activity", self.instance_id))
        self.ctx.memory.free(self.process.name, ("bundle", self.instance_id))
        self._move_to(LifecycleState.DESTROYED)

    # ------------------------------------------------------------------
    # state save / restore
    # ------------------------------------------------------------------
    def save_instance_state(self, *, full: bool) -> Bundle:
        """onSaveInstanceState dispatch.

        ``full=False`` is the stock path (auto-saved view attributes only);
        ``full=True`` is RCHDroid's explicit shadow snapshot (Section 3.3:
        "recursively call the save functions of each view and save all
        view states into a bundle").  Either way, the app's own
        ``onSaveInstanceState`` contributes only if implemented.
        """
        bundle = Bundle()
        view_count = 0
        if self.decor is not None:
            self.decor.save_state(bundle, full=full)
            view_count = self.decor.count_views()
        self.fragments.save_state(bundle)
        if self.app.implements_on_save:
            self.app.on_save(self, bundle)
        costs = self.ctx.costs
        self.ctx.consume(
            costs.save_state_base_ms + costs.save_state_per_view_ms * view_count,
            self.process.name,
            label="save-instance-state",
        )
        self.ctx.memory.allocate(
            self.process.name,
            ("bundle", self.instance_id),
            costs.bundle_per_view_mb * max(bundle.size(), 1),
        )
        return bundle

    # ------------------------------------------------------------------
    # view access and window ops
    # ------------------------------------------------------------------
    def find_view(self, view_id: int) -> View | None:
        """Look up a view by id.

        Deliberately returns tombstoned views on a destroyed activity —
        exactly like a stale Java reference held by an async task — so the
        crash happens where it does on real Android: at the mutation.
        """
        if self.decor is None:
            return None
        return self.decor.find_by_id(view_id)

    def require_view(self, view_id: int) -> View:
        view = self.find_view(view_id)
        if view is None:
            from repro.errors import NullPointerException

            raise NullPointerException(
                f"findViewById({view_id}) returned null in "
                f"{self.app.package}#{self.instance_id}",
                when_ms=self.ctx.now_ms,
            )
        return view

    def show_dialog(self, tag: str) -> None:
        """Attach a dialog to this activity's window.

        Raises :class:`WindowLeakedException` when the window is gone —
        the paper's second crash mode.
        """
        if self.destroyed:
            raise WindowLeakedException(
                f"dialog {tag!r} attached to destroyed activity "
                f"{self.app.package}#{self.instance_id}",
                when_ms=self.ctx.now_ms,
            )
        self.dialogs.append(tag)

    def dismiss_dialog(self, tag: str) -> None:
        """Detach a dialog; dismissing an unknown tag is a no-op, as in
        the SDK's ``dismissAllowingStateLoss`` spirit."""
        if tag in self.dialogs:
            self.dialogs.remove(tag)

    # ------------------------------------------------------------------
    # RCHDroid patch surface (Activity class, Table 2)
    # ------------------------------------------------------------------
    def get_all_sunny_views(self) -> dict[int, View]:
        """Hash table of view id → view over this (sunny) instance's tree."""
        if self.decor is None:
            return {}
        return {
            view.view_id: view
            for view in self.decor.preorder()
            if view.view_id is not None
        }

    def set_sunny_views(self, sunny_by_id: dict[int, View]) -> int:
        """Plant sunny-peer pointers on this (shadow) instance's views.

        Returns the number of views mapped; unmapped views (no id, or no
        counterpart) keep a ``None`` pointer and are skipped by migration.
        """
        mapped = 0
        if self.decor is None:
            return mapped
        for view in self.decor.preorder():
            if view.view_id is not None and view.view_id in sunny_by_id:
                view.sunny_peer = sunny_by_id[view.view_id]
                sunny_by_id[view.view_id].sunny_peer = view
                mapped += 1
            else:
                view.sunny_peer = None
        return mapped

    def enter_shadow(self) -> None:
        """Flip this instance into the Shadow state (Fig. 4)."""
        self._move_to(LifecycleState.SHADOW)
        self.shadow_flag = True
        self.sunny_flag = False
        self.shadow_entered_at_ms = self.ctx.now_ms
        if self.decor is not None:
            self.decor.dispatch_shadow_state_changed(True)
            self.decor.dispatch_sunny_state_changed(False)

    def enter_sunny(self) -> None:
        """Flip this instance into the Sunny state (Fig. 4)."""
        self._move_to(LifecycleState.SUNNY)
        self.sunny_flag = True
        self.shadow_flag = False
        self.shadow_entered_at_ms = None
        if self.decor is not None:
            self.decor.dispatch_sunny_state_changed(True)
            self.decor.dispatch_shadow_state_changed(False)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Activity({self.app.package}#{self.instance_id}, "
            f"{self.lifecycle.value})"
        )
