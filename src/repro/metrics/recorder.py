"""Raw measurement capture for a simulation run.

One :class:`TraceRecorder` exists per :class:`~repro.sim.context.SimContext`.
Framework code reports *what happened when*; the analysis classes in
``repro.metrics.profiler`` / ``repro.metrics.energy`` interpret it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable


class _Record:
    """Base of the immutable-by-convention trace records.

    Plain ``__slots__`` classes rather than frozen dataclasses: the
    recorder's ``heap`` and ``busy`` reads build tens of thousands of
    records, and a frozen dataclass's ``object.__setattr__`` per field
    costs about four times as much to construct.  Records compare, hash
    and print by their fields, and pickle as ``(class, fields)``.
    """

    __slots__ = ()
    _fields: "Callable[[_Record], tuple]"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # One C-level read of all fields as a tuple (every record has
        # several); snapshot capture pickles each record through it.
        cls._fields = staticmethod(attrgetter(*cls.__slots__))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == self._fields(other)  # type: ignore[arg-type]

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._fields(self))
        )
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)


class BusyInterval(_Record):
    """A span of simulated CPU work attributed to a process thread."""

    __slots__ = ("process", "thread", "start_ms", "duration_ms", "label")

    def __init__(
        self,
        process: str,
        thread: str,
        start_ms: float,
        duration_ms: float,
        label: str = "",
    ):
        self.process = process
        self.thread = thread
        self.start_ms = start_ms
        self.duration_ms = duration_ms
        self.label = label

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms


class HeapSample(_Record):
    """Total simulated PSS of a process at an instant."""

    __slots__ = ("when_ms", "process", "mb")

    def __init__(self, when_ms: float, process: str, mb: float):
        self.when_ms = when_ms
        self.process = process
        self.mb = mb


class PointEvent(_Record):
    """A labelled instant (rotation arrived, task returned, GC ran, ...)."""

    __slots__ = ("when_ms", "kind", "detail", "process")

    def __init__(
        self, when_ms: float, kind: str, detail: str = "", process: str = ""
    ):
        self.when_ms = when_ms
        self.kind = kind
        self.detail = detail
        self.process = process


class LatencyRecord(_Record):
    """A named interval, e.g. one runtime-change handling episode."""

    __slots__ = ("name", "start_ms", "end_ms", "detail")

    def __init__(
        self, name: str, start_ms: float, end_ms: float, detail: str = ""
    ):
        self.name = name
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.detail = detail

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


class CrashRecord(_Record):
    """An app-process crash (uncaught exception on the UI thread)."""

    __slots__ = ("when_ms", "process", "exception", "message")

    def __init__(
        self, when_ms: float, process: str, exception: str, message: str
    ):
        self.when_ms = when_ms
        self.process = process
        self.exception = exception
        self.message = message


@dataclass
class _OpenLatency:
    name: str
    start_ms: float
    detail: str = ""


class TraceRecorder:
    """Append-only store of everything measured during a run.

    Heap samples and busy intervals are stored column-wise.  A run
    records one heap sample per memory-ledger change and one busy
    interval per unit of simulated work, some 140,000 of them in a pass
    over the paper's experiments; a record object each is that many
    objects for the cycle collector to track and scan, while the floats
    and strs of a column are never tracked.  Entry *i* of every column
    of a stream is record *i*:

    * heap samples: ``heap_when_ms``, ``heap_process``, ``heap_mb``;
    * busy intervals: ``busy_process``, ``busy_thread``,
      ``busy_start_ms``, ``busy_duration_ms``, ``busy_label``.

    The :attr:`heap` and :attr:`busy` properties build the equivalent
    :class:`HeapSample` / :class:`BusyInterval` records on each read;
    the profiler and the exporter read the columns directly.  Events,
    latencies and crashes are few and stay record lists.
    """

    HISTORY = (
        "busy_process", "busy_thread", "busy_start_ms", "busy_duration_ms",
        "busy_label", "heap_when_ms", "heap_process", "heap_mb",
        "events", "latencies",
    )
    """The query-only history lists (see :meth:`swap_history`)."""

    def __init__(self) -> None:
        self.busy_process: list[str] = []
        self.busy_thread: list[str] = []
        self.busy_start_ms: list[float] = []
        self.busy_duration_ms: list[float] = []
        self.busy_label: list[str] = []
        self.heap_when_ms: list[float] = []
        self.heap_process: list[str] = []
        self.heap_mb: list[float] = []
        self.events: list[PointEvent] = []
        self.latencies: list[LatencyRecord] = []
        self.crashes: list[CrashRecord] = []
        self._open: dict[str, _OpenLatency] = {}
        self.counters: dict[str, int] = defaultdict(int)

    @property
    def busy(self) -> list[BusyInterval]:
        """Every busy interval, as records built on this read."""
        return list(map(
            BusyInterval, self.busy_process, self.busy_thread,
            self.busy_start_ms, self.busy_duration_ms, self.busy_label,
        ))

    @property
    def heap(self) -> list[HeapSample]:
        """Every heap sample, as records built on this read."""
        return list(map(
            HeapSample, self.heap_when_ms, self.heap_process, self.heap_mb
        ))

    def swap_history(
        self, history: "tuple[list, ...] | None" = None
    ) -> tuple[list, ...]:
        """Put ``history`` (fresh empty lists by default) in place of the
        :attr:`HISTORY` lists and return the lists it replaced.

        Snapshot capture with ``trim_history`` swaps the lists out around
        the pickling and back afterwards, so neither direction copies an
        entry.
        """
        previous = tuple(getattr(self, name) for name in self.HISTORY)
        if history is None:
            history = tuple([] for _ in self.HISTORY)
        for name, value in zip(self.HISTORY, history):
            setattr(self, name, value)
        return previous

    # ------------------------------------------------------------------
    # raw capture
    # ------------------------------------------------------------------
    def record_busy(
        self,
        process: str,
        thread: str,
        start_ms: float,
        duration_ms: float,
        label: str = "",
    ) -> None:
        if duration_ms > 0:
            self.busy_process.append(process)
            self.busy_thread.append(thread)
            self.busy_start_ms.append(start_ms)
            self.busy_duration_ms.append(duration_ms)
            self.busy_label.append(label)

    def record_heap(self, when_ms: float, process: str, mb: float) -> None:
        self.heap_when_ms.append(when_ms)
        self.heap_process.append(process)
        self.heap_mb.append(mb)

    def record_event(
        self, when_ms: float, kind: str, detail: str = "", process: str = ""
    ) -> None:
        self.events.append(PointEvent(when_ms, kind, detail, process))

    def record_crash(
        self, when_ms: float, process: str, exception: str, message: str
    ) -> None:
        self.crashes.append(CrashRecord(when_ms, process, exception, message))

    def bump(self, counter: str, by: int = 1) -> None:
        self.counters[counter] += by

    # ------------------------------------------------------------------
    # latency probes
    # ------------------------------------------------------------------
    def latency_begin(self, name: str, when_ms: float, detail: str = "") -> None:
        """Open a named latency interval (e.g. a handling episode).

        Re-opening an already open probe restarts it; this matches the
        paper's measurement (a second configuration change arriving during
        handling starts a new episode).
        """
        self._open[name] = _OpenLatency(name, when_ms, detail)

    def latency_end(self, name: str, when_ms: float) -> LatencyRecord | None:
        """Close a named interval; returns the record, or None if not open."""
        probe = self._open.pop(name, None)
        if probe is None:
            return None
        record = LatencyRecord(name, probe.start_ms, when_ms, probe.detail)
        self.latencies.append(record)
        return record

    def record_latency(
        self, name: str, start_ms: float, end_ms: float, detail: str = ""
    ) -> LatencyRecord:
        record = LatencyRecord(name, start_ms, end_ms, detail)
        self.latencies.append(record)
        return record

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def latencies_named(self, name: str) -> list[LatencyRecord]:
        return [record for record in self.latencies if record.name == name]

    def durations_ms(self, name: str) -> list[float]:
        return [record.duration_ms for record in self.latencies_named(name)]

    def events_of_kind(self, kind: str) -> list[PointEvent]:
        return [event for event in self.events if event.kind == kind]

    def crashed(self, process: str) -> bool:
        return any(crash.process == process for crash in self.crashes)

    def heap_of(self, process: str) -> list[HeapSample]:
        return [
            HeapSample(when_ms, owner, mb)
            for when_ms, owner, mb in zip(
                self.heap_when_ms, self.heap_process, self.heap_mb
            )
            if owner == process
        ]
