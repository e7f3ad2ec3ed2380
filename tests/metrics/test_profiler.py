"""Unit tests for the windowed profiler."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.profiler import Profiler
from repro.metrics.recorder import TraceRecorder


@pytest.fixture
def recorder():
    return TraceRecorder()


def test_cpu_series_bins_busy_time(recorder):
    recorder.record_busy("app", "ui", 100.0, 50.0)
    profiler = Profiler(recorder)
    series = profiler.cpu_series("app", 0.0, 1000.0, 100.0)
    by_window = dict(series)
    assert by_window[0.0] == 0.0
    assert by_window[100.0] == pytest.approx(50.0)
    assert by_window[200.0] == 0.0


def test_cpu_interval_spanning_windows_is_split(recorder):
    recorder.record_busy("app", "ui", 150.0, 100.0)
    profiler = Profiler(recorder)
    by_window = dict(profiler.cpu_series("app", 0.0, 400.0, 100.0))
    assert by_window[100.0] == pytest.approx(50.0)
    assert by_window[200.0] == pytest.approx(50.0)


def test_cpu_capped_at_100_percent(recorder):
    recorder.record_busy("app", "ui", 0.0, 60.0)
    recorder.record_busy("app", "worker", 0.0, 60.0)
    profiler = Profiler(recorder)
    by_window = dict(profiler.cpu_series("app", 0.0, 100.0, 100.0))
    assert by_window[0.0] == 100.0


def test_cpu_series_filters_other_processes(recorder):
    recorder.record_busy("other", "ui", 0.0, 100.0)
    profiler = Profiler(recorder)
    assert all(pct == 0.0 for _, pct in
               profiler.cpu_series("app", 0.0, 200.0, 100.0))


def test_heap_series_is_step_function(recorder):
    recorder.record_heap(50.0, "app", 10.0)
    recorder.record_heap(250.0, "app", 40.0)
    profiler = Profiler(recorder)
    by_window = dict(profiler.heap_series("app", 0.0, 400.0, 100.0))
    assert by_window[0.0] == 0.0
    assert by_window[100.0] == 10.0
    assert by_window[200.0] == 10.0
    assert by_window[300.0] == 40.0


def test_trace_combines_cpu_and_heap(recorder):
    recorder.record_busy("app", "ui", 0.0, 10.0)
    recorder.record_heap(0.0, "app", 33.0)
    profiler = Profiler(recorder)
    points = profiler.trace("app", 0.0, 100.0, 100.0)
    assert len(points) == 1
    assert points[0].cpu_percent == pytest.approx(10.0)
    assert points[0].heap_mb == 33.0


def test_peak_cpu(recorder):
    recorder.record_busy("app", "ui", 0.0, 10.0)
    recorder.record_busy("app", "ui", 100.0, 90.0)
    profiler = Profiler(recorder)
    assert profiler.peak_cpu_percent("app", 0.0, 300.0, 100.0) == pytest.approx(90.0)


def test_total_busy_with_bounds(recorder):
    recorder.record_busy("app", "ui", 0.0, 10.0)
    recorder.record_busy("app", "ui", 100.0, 10.0)
    profiler = Profiler(recorder)
    assert profiler.total_busy_ms("app") == pytest.approx(20.0)
    assert profiler.total_busy_ms("app", 95.0, 200.0) == pytest.approx(10.0)


def test_window_ms_must_be_positive(recorder):
    profiler = Profiler(recorder)
    with pytest.raises(ValueError):
        profiler.cpu_series("app", 0.0, 100.0, 0.0)


def _cpu_series_reference(recorder, process, start_ms, end_ms, window_ms):
    """Every interval against every window: what the bisected loop in
    ``cpu_series`` must reproduce bit for bit."""
    windows = Profiler._window_starts(start_ms, end_ms, window_ms)
    busy_per_window = [0.0] * len(windows)
    for interval in recorder.busy:
        if interval.process != process:
            continue
        for index, window_start in enumerate(windows):
            window_end = window_start + window_ms
            overlap = min(interval.end_ms, window_end) - max(
                interval.start_ms, window_start
            )
            if overlap > 0:
                busy_per_window[index] += overlap
    return [
        (window_start, 100.0 * min(busy, window_ms) / window_ms)
        for window_start, busy in zip(windows, busy_per_window)
    ]


@given(
    intervals=st.lists(
        st.tuples(st.sampled_from(["app", "other"]),
                  st.floats(min_value=-50.0, max_value=1_200.0),
                  st.floats(min_value=1e-9, max_value=400.0)),
        max_size=40,
    ),
    start_ms=st.floats(min_value=-10.0, max_value=300.0),
    window_ms=st.floats(min_value=0.1, max_value=250.0),
)
def test_cpu_series_matches_every_window_reference(
    intervals, start_ms, window_ms
):
    recorder = TraceRecorder()
    for process, busy_start, duration in intervals:
        recorder.record_busy(process, "ui", busy_start, duration)
    profiler = Profiler(recorder)
    assert profiler.cpu_series("app", start_ms, 1_000.0, window_ms) == \
        _cpu_series_reference(recorder, "app", start_ms, 1_000.0, window_ms)
