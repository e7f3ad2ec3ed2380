"""Fig. 11: the GC trade-off sweep over THRESH_T.

Benchmark app with 32 ImageViews, ten minutes, ≈ six (bursty) runtime
changes per minute, THRESH_F at the paper's four-per-minute.  As
THRESH_T grows, the shadow survives longer: handling latency and CPU
overhead fall (more coin flips, fewer inits) while memory rises (the
shadow is resident longer).  All three flatten at THRESH_T ≈ 50 s, the
operating point the paper selects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.benchmark import make_benchmark_app
from repro.engine import RunRequest
from repro.harness.experiments import run_requests
from repro.harness.report import render_table, series_block
from repro.harness.scenarios import GcTradeoffPoint

SWEEP_S: tuple[float, ...] = (10, 20, 30, 40, 50, 60, 70)
PAPER_PLATEAU_S = 50.0


@dataclass
class Fig11Result:
    points: list[GcTradeoffPoint]

    def point_at(self, thresh_t_s: float) -> GcTradeoffPoint:
        for point in self.points:
            if point.thresh_t_s == thresh_t_s:
                return point
        raise KeyError(thresh_t_s)

    @property
    def latency_monotone_nonincreasing(self) -> bool:
        lats = [p.mean_handling_ms for p in self.points]
        return all(b <= a + 1e-6 for a, b in zip(lats, lats[1:]))

    @property
    def plateau_after_50s(self) -> bool:
        p50 = self.point_at(50.0)
        p70 = self.point_at(70.0)
        return (
            abs(p50.mean_handling_ms - p70.mean_handling_ms)
            <= 0.05 * p50.mean_handling_ms + 1e-9
        )


def requests(seed: int = 0x5EED) -> list[RunRequest]:
    # Every operating point launches the same 32-image app and differs
    # only in THRESH_T (a finish-side kwarg), so the whole sweep is one
    # prefix group: the engine prepares once and forks seven times.
    app = make_benchmark_app(32)
    return [RunRequest.gc(app, seed, thresh_t_s=t) for t in SWEEP_S]


def fold(requests: list[RunRequest], results: list) -> Fig11Result:
    return Fig11Result(points=results)


def run(seed: int = 0x5EED, *, jobs: int | str | None = None,
        cache=None) -> Fig11Result:
    return run_requests(requests, fold, seed, jobs=jobs, cache=cache)


def format_report(result: Fig11Result) -> str:
    table = render_table(
        ["THRESH_T (s)", "handling (ms)", "CPU overhead (ms busy)",
         "memory (MB)", "inits", "flips", "collections"],
        [
            [f"{p.thresh_t_s:.0f}", f"{p.mean_handling_ms:.1f}",
             f"{p.cpu_overhead_ms:.0f}", f"{p.mean_memory_mb:.2f}",
             p.init_count, p.flip_count, p.collections]
            for p in result.points
        ],
        title="Fig. 11: GC trade-off (THRESH_F = 4/min, 10 min, bursty "
              "~6 changes/min)",
    )
    xs = [p.thresh_t_s for p in result.points]
    series = "\n".join(
        [
            series_block("handling", xs,
                         [p.mean_handling_ms for p in result.points], "ms"),
            series_block("memory", xs,
                         [p.mean_memory_mb for p in result.points], "MB"),
        ]
    )
    footer = (
        f"\nlatency non-increasing: {result.latency_monotone_nonincreasing}"
        f"\nflat beyond THRESH_T=50 s (paper's operating point): "
        f"{result.plateau_after_50s}"
    )
    return table + "\n\n" + series + footer
