"""Fig. 10: scalability in the number of views.

(a) Runtime handling time: RCHDroid (flip path) stays ≈ 89.2 ms and
below Android-10's ≈ 141.8 ms; RCHDroid-init grows from 154.6 ms to
180.2 ms over 1 → 32 views (O(n) mapping build).
(b) Asynchronous view-tree migration time grows linearly from 8.6 ms to
20.2 ms over 1 → 16 views, far below a restart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.benchmark import make_benchmark_app
from repro.engine import RunRequest
from repro.harness.experiments import run_requests
from repro.harness.report import Comparison, render_comparisons, render_table
from repro.harness.scenarios import ScalabilityPoint

VIEW_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
PAPER = {
    "android10_ms": 141.8,
    "rchdroid_ms": 89.2,
    "init_ms_at_1": 154.6,
    "init_ms_at_32": 180.2,
    "migration_ms_at_1": 8.6,
    "migration_ms_at_16": 20.2,
}


@dataclass
class Fig10Result:
    points: list[ScalabilityPoint]

    def point_at(self, num_views: int) -> ScalabilityPoint:
        for point in self.points:
            if point.num_views == num_views:
                return point
        raise KeyError(num_views)


def requests(seed: int = 0x5EED) -> list[RunRequest]:
    # Three cells per view count; the two RCHDroid cells of a count share
    # the same launched system, so the engine forks them from one prefix
    # snapshot instead of re-preparing.
    cells = []
    for count in VIEW_COUNTS:
        app = make_benchmark_app(count)
        cells += [
            RunRequest.scalability("android10", app, seed, variant="stock"),
            RunRequest.scalability("rchdroid", app, seed, variant="paths"),
            RunRequest.scalability("rchdroid", app, seed,
                                   variant="migration"),
        ]
    return cells


def fold(requests: list[RunRequest], results: list) -> Fig10Result:
    return Fig10Result(points=[
        ScalabilityPoint(count, stock.handling_ms, paths.handling_ms,
                         paths.init_ms, migration.migration_ms)
        for count, stock, paths, migration in zip(
            VIEW_COUNTS, results[::3], results[1::3], results[2::3])
    ])


def run(seed: int = 0x5EED, *, jobs: int | str | None = None,
        cache=None) -> Fig10Result:
    return run_requests(requests, fold, seed, jobs=jobs, cache=cache)


def format_report(result: Fig10Result) -> str:
    table = render_table(
        ["#views", "Android-10 (ms)", "RCHDroid (ms)", "RCHDroid-init (ms)",
         "async migration (ms)"],
        [
            [p.num_views, f"{p.android10_ms:.1f}", f"{p.rchdroid_ms:.1f}",
             f"{p.rchdroid_init_ms:.1f}", f"{p.migration_ms:.2f}"]
            for p in result.points
        ],
        title="Fig. 10: scalability with the number of views",
    )
    comparisons = render_comparisons(
        [
            Comparison("Android-10 @4 views", PAPER["android10_ms"],
                       result.point_at(4).android10_ms, "ms"),
            Comparison("RCHDroid flip @4 views", PAPER["rchdroid_ms"],
                       result.point_at(4).rchdroid_ms, "ms"),
            Comparison("RCHDroid-init @1 view", PAPER["init_ms_at_1"],
                       result.point_at(1).rchdroid_init_ms, "ms"),
            Comparison("RCHDroid-init @32 views", PAPER["init_ms_at_32"],
                       result.point_at(32).rchdroid_init_ms, "ms"),
            Comparison("migration @1 view", PAPER["migration_ms_at_1"],
                       result.point_at(1).migration_ms, "ms"),
            Comparison("migration @16 views", PAPER["migration_ms_at_16"],
                       result.point_at(16).migration_ms, "ms"),
        ],
        "paper vs measured",
    )
    return table + "\n\n" + comparisons
