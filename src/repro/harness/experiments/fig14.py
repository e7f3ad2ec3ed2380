"""Fig. 14: top-100 performance (the 59 RCHDroid-fixable apps).

(a) Mean handling time: 250.39 ms (RCHDroid) vs 420.58 ms (Android-10);
RCHDroid saves 38.60 % on average vs Android-10 and 44.96 % vs
RCHDroid-init (the coin flip at work).
(b) Mean memory: 173.85 MB vs 162.28 MB — a 7.13 % overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.apps.dsl import IssueKind
from repro.apps.top100 import build_top100
from repro.engine import RunRequest, policy_matrix
from repro.harness.experiments import run_requests
from repro.harness.report import Comparison, render_comparisons, render_table

PAPER = {
    "android10_ms": 420.58,
    "rchdroid_ms": 250.39,
    "saving_vs_android10_percent": 38.60,
    "saving_vs_init_percent": 44.96,
    "android10_mb": 162.28,
    "rchdroid_mb": 173.85,
    "memory_overhead_percent": 7.13,
}


@dataclass
class Fig14Row:
    label: str
    android10_ms: float
    rchdroid_ms: float
    rchdroid_init_ms: float
    android10_mb: float
    rchdroid_mb: float


@dataclass
class Fig14Result:
    rows: list[Fig14Row]

    @property
    def mean_android10_ms(self) -> float:
        return mean(row.android10_ms for row in self.rows)

    @property
    def mean_rchdroid_ms(self) -> float:
        return mean(row.rchdroid_ms for row in self.rows)

    @property
    def mean_saving_vs_android10_percent(self) -> float:
        return 100.0 * mean(
            1.0 - row.rchdroid_ms / row.android10_ms for row in self.rows
        )

    @property
    def mean_saving_vs_init_percent(self) -> float:
        return 100.0 * mean(
            1.0 - row.rchdroid_ms / row.rchdroid_init_ms for row in self.rows
        )

    @property
    def mean_android10_mb(self) -> float:
        return mean(row.android10_mb for row in self.rows)

    @property
    def mean_rchdroid_mb(self) -> float:
        return mean(row.rchdroid_mb for row in self.rows)

    @property
    def memory_overhead_percent(self) -> float:
        return 100.0 * (self.mean_rchdroid_mb / self.mean_android10_mb - 1.0)


def requests(seed: int = 0x5EED) -> list[RunRequest]:
    fixable = [
        app for app in build_top100(seed)
        if app.issue is IssueKind.VIEW_STATE_LOSS
    ]
    return policy_matrix(fixable, ["android10", "rchdroid"], seed=seed)


def fold(requests: list[RunRequest], results: list) -> Fig14Result:
    return Fig14Result(rows=[
        Fig14Row(
            label=request.app.label,
            android10_ms=stock.steady_state_ms,
            rchdroid_ms=rchdroid.steady_state_ms,
            rchdroid_init_ms=rchdroid.first_episode_ms,
            android10_mb=stock.memory_after_mb,
            rchdroid_mb=rchdroid.memory_after_mb,
        )
        for request, stock, rchdroid in zip(
            requests[::2], results[::2], results[1::2])
    ])


def run(seed: int = 0x5EED, *, jobs: int | None = None,
        cache=None) -> Fig14Result:
    return run_requests(requests, fold, seed, jobs=jobs, cache=cache)


def format_report(result: Fig14Result) -> str:
    table = render_table(
        ["App", "Android-10 (ms)", "RCHDroid (ms)", "init (ms)",
         "Android-10 (MB)", "RCHDroid (MB)"],
        [
            [row.label, f"{row.android10_ms:.1f}", f"{row.rchdroid_ms:.1f}",
             f"{row.rchdroid_init_ms:.1f}", f"{row.android10_mb:.1f}",
             f"{row.rchdroid_mb:.1f}"]
            for row in result.rows
        ],
        title="Fig. 14: top-100 performance (59 fixable apps)",
    )
    comparisons = render_comparisons(
        [
            Comparison("mean handling, Android-10", PAPER["android10_ms"],
                       result.mean_android10_ms, "ms"),
            Comparison("mean handling, RCHDroid", PAPER["rchdroid_ms"],
                       result.mean_rchdroid_ms, "ms"),
            Comparison("saving vs Android-10",
                       PAPER["saving_vs_android10_percent"],
                       result.mean_saving_vs_android10_percent, "%"),
            Comparison("saving vs RCHDroid-init",
                       PAPER["saving_vs_init_percent"],
                       result.mean_saving_vs_init_percent, "%"),
            Comparison("mean memory, Android-10", PAPER["android10_mb"],
                       result.mean_android10_mb, "MB"),
            Comparison("mean memory, RCHDroid", PAPER["rchdroid_mb"],
                       result.mean_rchdroid_mb, "MB"),
            Comparison("memory overhead", PAPER["memory_overhead_percent"],
                       result.memory_overhead_percent, "%"),
        ],
        "paper vs measured",
    )
    return table + "\n\n" + comparisons
