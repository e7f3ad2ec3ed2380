"""Windowed CPU and heap profiler, modelled on the Android Studio profiler.

The paper collects "real-time CPU usage and memory usage data ... from the
Android Studio profiler tool" (Section 5.1) and plots them over time in
Figure 9.  This module bins the raw busy intervals and heap samples from a
:class:`~repro.metrics.recorder.TraceRecorder` into fixed windows and
produces exactly those two series.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.metrics.recorder import TraceRecorder


@dataclass(frozen=True)
class TracePoint:
    """One profiler sample: window start time, CPU %, heap MB."""

    when_ms: float
    cpu_percent: float
    heap_mb: float


class Profiler:
    """Turns a recorder's raw capture into profiler-style time series."""

    def __init__(self, recorder: TraceRecorder, cpu_cores: int = 6):
        self._recorder = recorder
        self._cpu_cores = cpu_cores

    # ------------------------------------------------------------------
    def cpu_series(
        self,
        process: str,
        start_ms: float,
        end_ms: float,
        window_ms: float,
    ) -> list[tuple[float, float]]:
        """Per-window CPU utilisation (%) of one process.

        Utilisation is busy-time within the window divided by window
        length, over a single core — matching how the Android profiler
        reports app CPU usage on a big.LITTLE board where the app's UI
        thread saturates at one core.
        """
        windows = self._window_starts(start_ms, end_ms, window_ms)
        window_ends = [window_start + window_ms for window_start in windows]
        busy_per_window = [0.0] * len(windows)
        recorder = self._recorder
        for owner, busy_start, duration in zip(
            recorder.busy_process, recorder.busy_start_ms,
            recorder.busy_duration_ms,
        ):
            if owner != process:
                continue
            busy_end = busy_start + duration
            # Only windows ending after the interval starts and starting
            # before it ends can overlap it; both bounds are monotone.
            for index in range(bisect_right(window_ends, busy_start),
                               bisect_left(windows, busy_end)):
                overlap = min(busy_end, window_ends[index]) - max(
                    busy_start, windows[index]
                )
                if overlap > 0:
                    busy_per_window[index] += overlap
        return [
            (window_start, 100.0 * min(busy, window_ms) / window_ms)
            for window_start, busy in zip(windows, busy_per_window)
        ]

    def heap_series(
        self,
        process: str,
        start_ms: float,
        end_ms: float,
        window_ms: float,
    ) -> list[tuple[float, float]]:
        """Heap size (MB) sampled at each window start (step function)."""
        recorder = self._recorder
        whens: list[float] = []
        sizes: list[float] = []
        for when_ms, owner, mb in zip(
            recorder.heap_when_ms, recorder.heap_process, recorder.heap_mb
        ):
            if owner == process:
                whens.append(when_ms)
                sizes.append(mb)
        # Sample indices in time order; the sort is stable, so samples
        # of one instant keep their recording order.
        order = sorted(range(len(whens)), key=whens.__getitem__)
        series: list[tuple[float, float]] = []
        current = 0.0
        cursor = 0
        for window_start in self._window_starts(start_ms, end_ms, window_ms):
            while cursor < len(order) and whens[order[cursor]] <= window_start:
                current = sizes[order[cursor]]
                cursor += 1
            series.append((window_start, current))
        return series

    def trace(
        self,
        process: str,
        start_ms: float,
        end_ms: float,
        window_ms: float,
    ) -> list[TracePoint]:
        """Combined CPU + heap series (the Figure 9 plot data)."""
        cpu = self.cpu_series(process, start_ms, end_ms, window_ms)
        heap = self.heap_series(process, start_ms, end_ms, window_ms)
        return [
            TracePoint(when, cpu_pct, heap_mb)
            for (when, cpu_pct), (_, heap_mb) in zip(cpu, heap)
        ]

    def peak_cpu_percent(
        self, process: str, start_ms: float, end_ms: float, window_ms: float
    ) -> float:
        """Highest windowed CPU% in the interval (Fig. 9 peak readings)."""
        series = self.cpu_series(process, start_ms, end_ms, window_ms)
        return max((pct for _, pct in series), default=0.0)

    def total_busy_ms(
        self, process: str, start_ms: float = 0.0, end_ms: float = float("inf")
    ) -> float:
        """Total busy time of one process in the interval (CPU overhead)."""
        recorder = self._recorder
        return sum(
            min(busy_start + duration, end_ms) - max(busy_start, start_ms)
            for owner, busy_start, duration in zip(
                recorder.busy_process, recorder.busy_start_ms,
                recorder.busy_duration_ms,
            )
            if owner == process
            and busy_start + duration > start_ms
            and busy_start < end_ms
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _window_starts(
        start_ms: float, end_ms: float, window_ms: float
    ) -> list[float]:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        starts: list[float] = []
        cursor = start_ms
        while cursor < end_ms:
            starts.append(cursor)
            cursor += window_ms
        return starts
