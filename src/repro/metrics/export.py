"""Trace export: turn recorded runs into JSON / CSV for plotting.

The paper's figures are line/bar charts over exactly the data the
recorder captures.  ``export_run`` produces a JSON document with every
series (latencies, heap samples, busy intervals, point events, crashes);
``profiler_csv`` renders a Fig. 9-style CPU/heap time series as CSV for
a spreadsheet or matplotlib.
"""

from __future__ import annotations

import io
import json
from typing import TYPE_CHECKING

from repro.metrics.profiler import Profiler

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.recorder import TraceRecorder


def run_to_dict(recorder: "TraceRecorder") -> dict:
    """Everything the recorder captured, as plain JSON-ready data."""
    return {
        "latencies": [
            {
                "name": record.name,
                "start_ms": record.start_ms,
                "end_ms": record.end_ms,
                "duration_ms": record.duration_ms,
                "detail": record.detail,
            }
            for record in recorder.latencies
        ],
        "heap": [
            {"when_ms": when_ms, "process": process, "mb": mb}
            for when_ms, process, mb in zip(
                recorder.heap_when_ms, recorder.heap_process, recorder.heap_mb
            )
        ],
        "busy": [
            {
                "process": process,
                "thread": thread,
                "start_ms": start_ms,
                "duration_ms": duration_ms,
                "label": label,
            }
            for process, thread, start_ms, duration_ms, label in zip(
                recorder.busy_process, recorder.busy_thread,
                recorder.busy_start_ms, recorder.busy_duration_ms,
                recorder.busy_label,
            )
        ],
        "events": [
            {"when_ms": event.when_ms, "kind": event.kind,
             "detail": event.detail, "process": event.process}
            for event in recorder.events
        ],
        "crashes": [
            {
                "when_ms": crash.when_ms,
                "process": crash.process,
                "exception": crash.exception,
                "message": crash.message,
            }
            for crash in recorder.crashes
        ],
        "counters": dict(recorder.counters),
    }


def export_run(recorder: "TraceRecorder", path: str) -> None:
    """Write the full run capture as a JSON file."""
    with open(path, "w") as handle:
        json.dump(run_to_dict(recorder), handle, indent=2, sort_keys=True)


def profiler_csv(
    recorder: "TraceRecorder",
    process: str,
    start_ms: float,
    end_ms: float,
    window_ms: float = 1_000.0,
) -> str:
    """Fig. 9-style trace (time, cpu%, heap MB) as CSV text."""
    profiler = Profiler(recorder)
    out = io.StringIO()
    out.write("time_ms,cpu_percent,heap_mb\n")
    for point in profiler.trace(process, start_ms, end_ms, window_ms):
        out.write(
            f"{point.when_ms:.0f},{point.cpu_percent:.3f},"
            f"{point.heap_mb:.3f}\n"
        )
    return out.getvalue()


def latencies_csv(recorder: "TraceRecorder", name: str = "handling") -> str:
    """All named latency episodes as CSV (one row per episode)."""
    out = io.StringIO()
    out.write("start_ms,end_ms,duration_ms,detail\n")
    for record in recorder.latencies_named(name):
        out.write(
            f"{record.start_ms:.3f},{record.end_ms:.3f},"
            f"{record.duration_ms:.3f},{record.detail}\n"
        )
    return out.getvalue()
