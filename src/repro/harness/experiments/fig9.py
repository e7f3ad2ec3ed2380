"""Fig. 9: CPU and memory usage over time (benchmark app, 4 ImageViews).

Timeline (session seconds, numeric positions as in the paper's axis):
first runtime change at 17, button touch at 67 (starts the AsyncTask),
second runtime change at 79, task returns at 117.  Under stock
Android-10 the return dereferences the restarted activity's released
views — NullPointer crash, app memory drops to 0.  Under RCHDroid the
update lands on the live shadow tree and is lazily migrated; the second
change's CPU spike is lower than the first thanks to the coin flip.

The GC thresholds are raised for this scenario (THRESH_T = 70 s > the
62 s between the two changes) so the shadow instance survives to the
second change, matching the coin-flip hit visible in the paper's trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.android10 import Android10Policy
from repro.core.gc import GcThresholds
from repro.core.policy import RCHDroidConfig, RCHDroidPolicy
from repro.harness.report import render_table, series_block
from repro.harness.scenarios import Fig9Trace, fig9_trace

FIRST_CHANGE_MS = 17_000.0
TOUCH_MS = 67_000.0
SECOND_CHANGE_MS = 79_000.0
ASYNC_RETURN_MS = 117_000.0


@dataclass
class Fig9Result:
    android10: Fig9Trace
    rchdroid: Fig9Trace

    @property
    def android10_crashed_at_return(self) -> bool:
        return (
            self.android10.crashed
            and self.android10.crash_time_ms is not None
            and abs(self.android10.crash_time_ms - ASYNC_RETURN_MS) < 2_000.0
        )

    @property
    def android10_heap_after_crash(self) -> float:
        return self.android10.heap_at(ASYNC_RETURN_MS + 5_000.0)

    @property
    def rchdroid_heap_after_return(self) -> float:
        return self.rchdroid.heap_at(ASYNC_RETURN_MS + 5_000.0)

    def peaks(self, trace: Fig9Trace) -> tuple[float, float]:
        """CPU peaks around the first and second runtime changes (%)."""
        first = trace.peak_cpu_between(FIRST_CHANGE_MS, FIRST_CHANGE_MS + 3_000)
        second = trace.peak_cpu_between(SECOND_CHANGE_MS, SECOND_CHANGE_MS + 3_000)
        return first, second


def _rchdroid_policy() -> RCHDroidPolicy:
    return RCHDroidPolicy(
        RCHDroidConfig(thresholds=GcThresholds(thresh_t_ms=70_000.0))
    )


def run(trace: bool = False) -> Fig9Result:
    """Run both policies; ``trace=True`` also records causal spans so the
    report can attribute each handling bar to span categories."""
    kwargs = {"trace": True} if trace else {}
    return Fig9Result(
        android10=fig9_trace(Android10Policy, **kwargs),
        rchdroid=fig9_trace(_rchdroid_policy, **kwargs),
    )


def handling_breakdowns(
    trace: Fig9Trace,
) -> list[tuple[float, dict[str, float]]]:
    """Per runtime change: (change time ms, self-time ms by category).

    Each ``update-configuration`` span is one handling episode; its
    window is attributed to span categories by self time (see
    ``repro.trace.export.category_times_ms``), so the values of one
    breakdown sum to that episode's handling duration.
    """
    if trace.tracer is None:
        return []
    from repro.trace import export

    spans = list(trace.tracer.spans)
    breakdowns: list[tuple[float, dict[str, float]]] = []
    for span in spans:
        if span.name != "update-configuration":
            continue
        by_category = export.category_times_ms(
            spans, span.start_ms, span.end_ms
        )
        breakdowns.append(
            (span.start_ms,
             {cat: ms for cat, ms in sorted(by_category.items()) if ms > 0})
        )
    return breakdowns


def _breakdown_table(result: Fig9Result) -> str:
    rows: list[list[str]] = []
    for trace in (result.android10, result.rchdroid):
        for when_ms, by_category in handling_breakdowns(trace):
            for category, ms in by_category.items():
                rows.append(
                    [trace.policy, f"{when_ms / 1000:.0f}", category,
                     f"{ms:.2f}"]
                )
    if not rows:
        return ""
    return render_table(
        ["policy", "change @ s", "span category", "self ms"],
        rows,
        title="handling time attributed to span categories (traced run)",
    )


def format_report(result: Fig9Result) -> str:
    a10_first, a10_second = result.peaks(result.android10)
    rch_first, rch_second = result.peaks(result.rchdroid)
    summary = render_table(
        ["signal", "Android-10", "RCHDroid", "paper shape"],
        [
            ["CPU peak @ 1st change", f"{a10_first:.1f}%", f"{rch_first:.1f}%",
             "RCHDroid slightly higher (builds mappings)"],
            ["CPU peak @ 2nd change", f"{a10_second:.1f}%", f"{rch_second:.1f}%",
             "RCHDroid drops vs its 1st change (coin flip)"],
            ["crash at async return", str(result.android10.crashed),
             str(result.rchdroid.crashed), "Android-10 only"],
            ["heap after return (MB)",
             f"{result.android10_heap_after_crash:.1f}",
             f"{result.rchdroid_heap_after_return:.1f}",
             "Android-10 drops to 0"],
        ],
        title="Fig. 9: CPU and memory usage over time",
    )
    a10_points = result.android10.points[::10]
    rch_points = result.rchdroid.points[::10]
    series = "\n".join(
        [
            series_block("android10.heap",
                         [p.when_ms / 1000 for p in a10_points],
                         [p.heap_mb for p in a10_points], "s, MB"),
            series_block("rchdroid.heap",
                         [p.when_ms / 1000 for p in rch_points],
                         [p.heap_mb for p in rch_points], "s, MB"),
        ]
    )
    breakdown = _breakdown_table(result)
    parts = [summary]
    if breakdown:
        parts.append(breakdown)
    parts.append(series)
    return "\n\n".join(parts)
