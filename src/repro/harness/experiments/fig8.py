"""Fig. 8: memory usage of the 27 apps, RCHDroid vs Android-10.

Paper: average app memory is 47.56 MB on Android-10 and 53.53 MB on
RCHDroid (1.12x) — the overhead is the retained shadow-state activity,
bounded by the threshold GC.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.apps.appset27 import build_appset27
from repro.engine import RunRequest, policy_matrix
from repro.harness.experiments import run_requests
from repro.harness.report import Comparison, render_comparisons, render_table

PAPER_ANDROID10_MB = 47.56
PAPER_RCHDROID_MB = 53.53
PAPER_RATIO = 1.12


@dataclass
class Fig8Row:
    label: str
    android10_mb: float
    rchdroid_mb: float


@dataclass
class Fig8Result:
    rows: list[Fig8Row]

    @property
    def mean_android10_mb(self) -> float:
        return mean(row.android10_mb for row in self.rows)

    @property
    def mean_rchdroid_mb(self) -> float:
        return mean(row.rchdroid_mb for row in self.rows)

    @property
    def ratio(self) -> float:
        return self.mean_rchdroid_mb / self.mean_android10_mb


def requests(seed: int = 0x5EED) -> list[RunRequest]:
    return policy_matrix(build_appset27(seed), ["android10", "rchdroid"],
                         seed=seed)


def fold(requests: list[RunRequest], results: list) -> Fig8Result:
    return Fig8Result(rows=[
        Fig8Row(
            label=request.app.label,
            android10_mb=stock.memory_after_mb,
            rchdroid_mb=rchdroid.memory_after_mb,
        )
        for request, stock, rchdroid in zip(
            requests[::2], results[::2], results[1::2])
    ])


def run(seed: int = 0x5EED, *, jobs: int | None = None,
        cache=None) -> Fig8Result:
    return run_requests(requests, fold, seed, jobs=jobs, cache=cache)


def format_report(result: Fig8Result) -> str:
    table = render_table(
        ["App", "Android-10 (MB)", "RCHDroid (MB)"],
        [[row.label, f"{row.android10_mb:.2f}", f"{row.rchdroid_mb:.2f}"]
         for row in result.rows],
        title="Fig. 8: memory usage (27 apps)",
    )
    comparisons = render_comparisons(
        [
            Comparison("mean memory, Android-10", PAPER_ANDROID10_MB,
                       result.mean_android10_mb, "MB"),
            Comparison("mean memory, RCHDroid", PAPER_RCHDROID_MB,
                       result.mean_rchdroid_mb, "MB"),
            Comparison("RCHDroid/Android-10 ratio", PAPER_RATIO, result.ratio),
        ],
        "paper vs measured",
    )
    return table + "\n\n" + comparisons
