"""The Activity Task Manager Service (ATMS).

Entry point for app launches and configuration updates.  A runtime
configuration change "arrives at the ATMS" here (the paper's measurement
start, Section 5.1), flows through ``ensure_activity_configuration``, and
is then handed to the installed runtime-change policy — stock restart,
RCHDroid, or the RuntimeDroid baseline.  The latency of the synchronous
handling path, up to the moment the foreground activity is resumed again,
is recorded as one ``"handling"`` latency with detail
``"<package>|<path>"``.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.android.app.activity_thread import ActivityThread
from repro.android.os import Process
from repro.android.server.records import ActivityRecord, TaskRecord
from repro.android.server.stack import ActivityStack
from repro.android.server.starter import ActivityStarter
from repro.trace import span as trace_categories

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.res import Configuration
    from repro.apps.dsl import AppSpec
    from repro.policy import RuntimeChangePolicy
    from repro.sim.context import SimContext


class ActivityTaskManagerService:
    """Global activity management (Fig. 2(b))."""

    def __init__(
        self,
        ctx: "SimContext",
        policy: "RuntimeChangePolicy",
        initial_config: "Configuration",
    ):
        self.ctx = ctx
        self.policy = policy
        self.config = initial_config
        self.stack = ActivityStack(ctx)
        self.starter = ActivityStarter(ctx, self.stack)
        self.threads: dict[str, ActivityThread] = {}
        policy.attach(self)

    # ------------------------------------------------------------------
    # app launch
    # ------------------------------------------------------------------
    def launch(self, app: "AppSpec") -> ActivityRecord:
        """Cold-start an app: process, thread, task, record, resume."""
        with self.ctx.tracer.span(
            "launch",
            trace_categories.ATMS,
            process=app.package,
            thread="server",
        ):
            previous_top = self.stack.top_record()
            process = Process(
                self.ctx,
                app.package,
                self.ctx.costs.process_base_mb + app.extra_heap_mb,
            )
            thread = ActivityThread(self.ctx, process, app)
            self.threads[app.package] = thread
            task = TaskRecord(app, task_id=self.ctx.next_id("task"))
            record = ActivityRecord(app, app.main_activity, self.config, thread)
            task.push(record)
            self.stack.push_task(task)
            process.on_death(partial(self._on_process_death, task))

            if previous_top is not None:
                self.policy.on_foreground_switch(self, previous_top)

            activity = thread.perform_launch_activity(record, saved_state=None)
            thread.handle_resume_activity(activity)
            self.ctx.mark("app-launched", detail=app.package, process=app.package)
        return record

    def switch_to(self, package: str) -> ActivityRecord | None:
        """Bring an already-running app's task to the foreground."""
        task = self.stack.find_task(package)
        if task is None:
            return None
        previous_top = self.stack.top_record()
        if previous_top is not None and previous_top.task is not task:
            self.policy.on_foreground_switch(self, previous_top)
        self.stack.move_task_to_top(task)
        return task.top()

    def _on_process_death(self, task: TaskRecord, _process: Process) -> None:
        if task in self.stack.tasks:
            self.stack.remove_task(task)

    # ------------------------------------------------------------------
    # in-task navigation
    # ------------------------------------------------------------------
    def start_activity(self, package: str, activity_name: str) -> ActivityRecord:
        """Start another activity of an already-running app (in-task).

        The current top is paused + stopped and the new activity is
        pushed on the task stack.  The policy's foreground-switch hook
        fires first: a coupled shadow instance belongs to the *previous*
        foreground activity and is released immediately (Section 3.5).
        """
        task = self.stack.find_task(package)
        if task is None:
            raise LookupError(f"{package} has no running task")
        current = task.top()
        assert current is not None and current.instance is not None
        self.policy.on_foreground_switch(self, current)

        from repro.android.app.intent import Intent

        thread = current.thread
        intent = Intent(current.app, activity_name)
        result = self.starter.start_activity_unchecked(intent, task, self.config)
        if not result.created:
            return result.record  # stock dedup: same activity on top
        current.instance.perform_pause()
        current.instance.perform_stop()
        activity = thread.perform_launch_activity(result.record, None)
        thread.handle_resume_activity(activity)
        return result.record

    def back(self) -> ActivityRecord | None:
        """Finish the foreground activity (the BACK key).

        Pops the top record; if the task still has records, the one
        below resumes; otherwise the task is removed and the process
        exits.  A coupled shadow is released first so the "logical"
        activity the user sees disappears entirely.
        """
        task = self.stack.top_task()
        if task is None:
            return None
        top = task.top()
        assert top is not None
        self.policy.on_foreground_switch(self, top)

        task.remove(top)
        if top.instance is not None and top.instance.alive:
            instance = top.instance
            if instance.lifecycle.value in ("resumed", "sunny"):
                instance.perform_pause()
                instance.perform_stop()
            instance.perform_destroy()
            if instance in top.thread.activities:
                top.thread.activities.remove(instance)

        below = task.top()
        if below is None:
            self.stack.remove_task(task)
            top.thread.process.kill()
            return None
        assert below.instance is not None
        below.instance.perform_start()
        below.instance.perform_resume()
        return below

    # ------------------------------------------------------------------
    # configuration updates (the runtime change entry point)
    # ------------------------------------------------------------------
    def update_configuration(self, new_config: "Configuration") -> str | None:
        """A runtime configuration change arrives at the ATMS.

        Returns the handling path label (``"relaunch"``, ``"flip"``,
        ``"init"``, ``"self-handled"``, ``"in-place"``, ``"none"``), or
        ``None`` when there is no live foreground activity to handle it.
        """
        old_config = self.config
        self.config = new_config
        record = self.stack.top_record()
        self.ctx.mark(
            "config-change",
            detail=f"{old_config.orientation.value}->{new_config.orientation.value}",
        )
        with self.ctx.tracer.span(
            "update-configuration",
            trace_categories.ATMS,
            thread="server",
            change=",".join(
                sorted(dim.value for dim in old_config.diff(new_config))
            ),
        ):
            if record is None or not record.thread.process.alive:
                return None
            if not record.instance_alive:
                return None
            self.ctx.consume(
                self.ctx.costs.config_apply_ms,
                record.app.package,
                thread="server",
                label="apply-configuration",
            )
            if not self.ensure_configuration_change_needed(record, new_config):
                record.config = new_config
                if record.instance is not None:
                    record.instance.config = new_config
                return "none"

            start_ms = self.ctx.now_ms
            path = self.policy.handle_configuration_change(
                self, record, new_config
            )
            self.ctx.recorder.record_latency(
                "handling",
                start_ms,
                self.ctx.now_ms,
                detail=f"{record.app.package}|{path}",
            )
            return path

    def ensure_configuration_change_needed(
        self, record: ActivityRecord, new_config: "Configuration"
    ) -> bool:
        """ensureActivityConfiguration: does this change require handling?"""
        return bool(record.config.diff(new_config))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def foreground_record(self) -> ActivityRecord | None:
        return self.stack.top_record()

    def thread_of(self, package: str) -> ActivityThread:
        return self.threads[package]
