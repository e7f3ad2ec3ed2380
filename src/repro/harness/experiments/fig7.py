"""Fig. 7: runtime change handling time, 27 apps, RCHDroid vs Android-10.

The paper's headline: RCHDroid saves 25.46 % of the runtime change
handling time on average (abstract / Section 5.3).  The measurement is
steady-state handling (the shadow exists, so RCHDroid takes the
coin-flip path), matching the paper's separation of "RCHDroid" from
"RCHDroid-init".
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.apps.appset27 import build_appset27
from repro.engine import RunRequest, policy_matrix
from repro.harness.experiments import run_requests
from repro.harness.report import Comparison, render_comparisons, render_table

PAPER_MEAN_SAVING_PERCENT = 25.46


@dataclass
class Fig7Row:
    label: str
    android10_ms: float
    rchdroid_ms: float
    rchdroid_init_ms: float

    @property
    def saving(self) -> float:
        return 1.0 - self.rchdroid_ms / self.android10_ms


@dataclass
class Fig7Result:
    rows: list[Fig7Row]

    @property
    def mean_saving_percent(self) -> float:
        return 100.0 * mean(row.saving for row in self.rows)

    @property
    def mean_android10_ms(self) -> float:
        return mean(row.android10_ms for row in self.rows)

    @property
    def mean_rchdroid_ms(self) -> float:
        return mean(row.rchdroid_ms for row in self.rows)


def requests(seed: int = 0x5EED) -> list[RunRequest]:
    return policy_matrix(build_appset27(seed), ["android10", "rchdroid"],
                         seed=seed)


def fold(requests: list[RunRequest], results: list) -> Fig7Result:
    return Fig7Result(rows=[
        Fig7Row(
            label=request.app.label,
            android10_ms=stock.steady_state_ms,
            rchdroid_ms=rchdroid.steady_state_ms,
            rchdroid_init_ms=rchdroid.first_episode_ms,
        )
        for request, stock, rchdroid in zip(
            requests[::2], results[::2], results[1::2])
    ])


def run(seed: int = 0x5EED, *, jobs: int | None = None,
        cache=None) -> Fig7Result:
    return run_requests(requests, fold, seed, jobs=jobs, cache=cache)


def format_report(result: Fig7Result) -> str:
    table = render_table(
        ["App", "Android-10 (ms)", "RCHDroid (ms)", "RCHDroid-init (ms)",
         "saving"],
        [
            [row.label, f"{row.android10_ms:.1f}", f"{row.rchdroid_ms:.1f}",
             f"{row.rchdroid_init_ms:.1f}", f"{100 * row.saving:.1f}%"]
            for row in result.rows
        ],
        title="Fig. 7: runtime change handling time (27 apps)",
    )
    comparisons = render_comparisons(
        [Comparison("mean handling-time saving", PAPER_MEAN_SAVING_PERCENT,
                    result.mean_saving_percent, "%")],
        "paper vs measured",
    )
    return table + "\n\n" + comparisons
