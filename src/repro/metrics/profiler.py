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
        for interval in self._recorder.busy:
            if interval.process != process:
                continue
            busy_start, busy_end = interval.start_ms, interval.end_ms
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
        samples = sorted(
            self._recorder.heap_of(process), key=lambda sample: sample.when_ms
        )
        series: list[tuple[float, float]] = []
        current = 0.0
        cursor = 0
        for window_start in self._window_starts(start_ms, end_ms, window_ms):
            while cursor < len(samples) and samples[cursor].when_ms <= window_start:
                current = samples[cursor].mb
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
        return sum(
            min(interval.end_ms, end_ms) - max(interval.start_ms, start_ms)
            for interval in self._recorder.busy
            if interval.process == process
            and interval.end_ms > start_ms
            and interval.start_ms < end_ms
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
