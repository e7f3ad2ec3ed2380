"""Extension experiment: a day-in-the-life incident study.

Combines the paper's motivation data (a rotation every ~5 minutes of
use) with the top-100 corpus: for a sample of apps, simulate an hour of
active use under stock Android-10 and under RCHDroid and count
*incidents* — rotations that visibly lost the user's state.

Expected shape: on stock Android, every rotation of a buggy app is an
incident (~12/hour at the 5-minute cadence); self-handling and
EditText-only apps are clean.  Under RCHDroid, incidents drop to zero
for everything except the bare-field apps.  The handling-time saving per
hour of use falls out as a bonus metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.apps.dsl import IssueKind
from repro.apps.top100 import build_top100
from repro.baselines.android10 import Android10Policy
from repro.core.policy import RCHDroidPolicy
from repro.harness.report import render_table
from repro.harness.sessions import SessionResult, UsageSpec, run_session


@dataclass
class ExtSessionsRow:
    label: str
    issue: IssueKind
    stock: SessionResult
    rchdroid: SessionResult


@dataclass
class ExtSessionsResult:
    rows: list[ExtSessionsRow]

    def _rows_with_issue(self) -> list[ExtSessionsRow]:
        return [
            row for row in self.rows
            if row.issue is IssueKind.VIEW_STATE_LOSS
        ]

    @property
    def stock_incidents_per_hour(self) -> float:
        return mean(r.stock.incidents for r in self._rows_with_issue())

    @property
    def rchdroid_incidents_per_hour(self) -> float:
        return mean(r.rchdroid.incidents for r in self._rows_with_issue())

    @property
    def handling_saved_ms_per_hour(self) -> float:
        return mean(
            r.stock.handling_total_ms - r.rchdroid.handling_total_ms
            for r in self._rows_with_issue()
        )


def run(
    sample_size: int = 12, duration_min: float = 60.0, seed: int = 0x5EED
) -> ExtSessionsResult:
    corpus = build_top100(seed)
    buggy = [a for a in corpus if a.issue is IssueKind.VIEW_STATE_LOSS]
    clean = [a for a in corpus if a.issue in (IssueKind.SELF_HANDLED,
                                              IssueKind.NONE)]
    sample = buggy[: sample_size - 2] + clean[:2]
    spec = UsageSpec(duration_min=duration_min)
    rows = [
        ExtSessionsRow(
            label=app.label,
            issue=app.issue,
            stock=run_session(Android10Policy, app, spec, seed),
            rchdroid=run_session(RCHDroidPolicy, app, spec, seed),
        )
        for app in sample
    ]
    return ExtSessionsResult(rows=rows)


def format_report(result: ExtSessionsResult) -> str:
    table = render_table(
        ["App", "issue class", "rotations",
         "incidents (stock)", "incidents (RCHDroid)"],
        [
            [row.label, row.issue.value, row.stock.rotations,
             row.stock.incidents, row.rchdroid.incidents]
            for row in result.rows
        ],
        title="Extension: one hour of use at a rotation every ~5 minutes",
    )
    footer = (
        f"\nbuggy-app incidents/hour: stock "
        f"{result.stock_incidents_per_hour:.1f} vs RCHDroid "
        f"{result.rchdroid_incidents_per_hour:.1f}"
        f"\nhandling time delta: "
        f"{result.handling_saved_ms_per_hour:.0f} ms saved per hour of use"
        "\n\nNote an honest emergent finding: at a steady 5-minute cadence"
        "\nthe default THRESH_T = 50 s collects the shadow before the next"
        "\nrotation, so RCHDroid pays the init path (slightly costlier"
        "\nthan a restart) and the latency saving vanishes or goes"
        "\nnegative.  The latency benefit of Figs. 7/14 comes from bursty"
        "\nrotation patterns (Fig. 11's regime), where the coin flip"
        "\nhits; the *transparency* benefit — zero incidents — holds at"
        "\nevery cadence, and is what the paper's Tables 3/5 measure."
    )
    return table + footer
