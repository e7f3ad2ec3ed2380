"""Message runtime: MessageQueue, Looper, Handler, AsyncTask.

Mirrors the threading model of Fig. 2(a): each app process has one
activity (UI) thread driven by a looper, plus async worker threads.  Only
the UI thread may touch views; async tasks therefore post their completion
back to the UI looper, and that completion callback is exactly where the
restarting-based design crashes (the old view tree is gone) and where
RCHDroid's lazy migration hooks in (the mutation lands on the live
shadow-state view tree and is forwarded to the sunny one).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.errors import AppCrash
from repro.sim.scheduler import Event
from repro.trace import span as trace_categories

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.os import Process
    from repro.sim.context import SimContext


class Message:
    """One queued unit of UI-thread work."""

    def __init__(self, callback: Callable[[], None], label: str = ""):
        self.callback = callback
        self.label = label
        self.event: Event | None = None

    def cancel(self) -> None:
        if self.event is not None:
            self.event.cancel()


class Looper:
    """The UI-thread message loop of one app process.

    Dispatch is mediated by the shared discrete-event scheduler; the
    looper's job is crash containment (an :class:`AppCrash` escaping a
    message kills the process, like an uncaught Java exception) and
    dead-process suppression (messages to a dead process are dropped,
    like a queue torn down with the process).
    """

    def __init__(self, ctx: "SimContext", process: "Process"):
        self.ctx = ctx
        self.process = process
        self.messages_dispatched = 0
        self.messages_dropped = 0

    def post(
        self, callback: Callable[[], None], delay_ms: float = 0.0, label: str = ""
    ) -> Message:
        message = Message(callback, label)
        message.event = self.ctx.scheduler.schedule(
            delay_ms, partial(self._dispatch, message), label=f"looper:{label}"
        )
        return message

    def _dispatch(self, message: Message) -> None:
        if not self.process.alive:
            self.messages_dropped += 1
            return
        self.messages_dispatched += 1
        tracer = self.ctx.tracer
        if tracer.enabled:
            with tracer.span(
                f"message:{message.label or 'anon'}",
                trace_categories.LOOPER,
                process=self.process.name,
                thread="ui",
            ):
                self._run_message(message)
        else:
            self._run_message(message)

    def _run_message(self, message: Message) -> None:
        try:
            message.callback()
        except AppCrash as crash:
            crash.when_ms = self.ctx.now_ms
            self.process.crash(crash)


class Handler:
    """Thin posting facade over a looper, as in the Android SDK."""

    def __init__(self, looper: Looper):
        self.looper = looper

    def post(self, callback: Callable[[], None], label: str = "") -> Message:
        return self.looper.post(callback, 0.0, label)

    def post_delayed(
        self, callback: Callable[[], None], delay_ms: float, label: str = ""
    ) -> Message:
        return self.looper.post(callback, delay_ms, label)


class AsyncTask:
    """A background computation that reports back on the UI thread.

    ``duration_ms`` of wall time passes on a worker core (it does not
    consume UI-thread time), then the completion is posted to the UI
    looper where ``on_post_execute`` runs — and may blow up if it touches
    a destroyed view tree.
    """

    def __init__(
        self,
        ctx: "SimContext",
        looper: Looper,
        duration_ms: float,
        on_post_execute: Callable[[], None],
        label: str = "async-task",
        cpu_fraction: float = 0.0,
    ):
        self.ctx = ctx
        self.looper = looper
        self.duration_ms = duration_ms
        self.on_post_execute = on_post_execute
        self.label = label
        self.cpu_fraction = cpu_fraction
        """Fraction of the task's wall time spent computing on a worker
        core (e.g. image decoding).  Recorded as worker-thread busy
        intervals for the profiler; most of an I/O-bound task's time is
        waiting, so the default is zero."""
        self.started_at_ms: float | None = None
        self.completed_at_ms: float | None = None
        self.cancelled = False
        self._completion_event: Event | None = None

    def execute(self) -> "AsyncTask":
        """Start the background work (AsyncTask.execute())."""
        self.started_at_ms = self.ctx.now_ms
        self.ctx.mark(
            "async-start", detail=self.label, process=self.looper.process.name
        )
        self._completion_event = self.ctx.scheduler.schedule(
            self.duration_ms, self._complete, label=f"async:{self.label}"
        )
        return self

    def cancel(self) -> None:
        """Cancel before completion; the callback will never run."""
        self.cancelled = True
        if self._completion_event is not None:
            self._completion_event.cancel()

    @property
    def finished(self) -> bool:
        return self.completed_at_ms is not None

    def _complete(self) -> None:
        if self.cancelled or not self.looper.process.alive:
            return
        self._record_worker_cpu()
        self.ctx.mark(
            "async-return", detail=self.label, process=self.looper.process.name
        )
        self.ctx.consume(
            self.ctx.costs.async_post_ms,
            self.looper.process.name,
            thread="worker",
            label=f"async-post:{self.label}",
        )
        self.looper.post(self._on_ui, label=f"post-execute:{self.label}")

    def _on_ui(self) -> None:
        self.completed_at_ms = self.ctx.now_ms
        self.on_post_execute()

    def _record_worker_cpu(self) -> None:
        """Spread the worker compute over the task's lifetime in 1 s
        chunks so windowed CPU profiles (Fig. 9) show it correctly."""
        if self.cpu_fraction <= 0.0 or self.started_at_ms is None:
            return
        chunk_span = 1_000.0
        cursor = self.started_at_ms
        end = self.started_at_ms + self.duration_ms
        process = self.looper.process.name
        while cursor < end:
            span = min(chunk_span, end - cursor)
            self.ctx.recorder.record_busy(
                process, "worker", cursor, span * self.cpu_fraction,
                label=f"async-compute:{self.label}",
            )
            cursor += chunk_span
