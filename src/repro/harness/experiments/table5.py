"""Table 5 + Section 6 effectiveness: the Google Play top-100 survey.

For every top-100 app, check under stock Android-10 whether a runtime
change loses state (the paper finds 63 of 100 do; 26 handle changes
themselves; 11 restart harmlessly), then check how many of the 63
RCHDroid solves (paper: 59; the four bare-field apps remain).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.dsl import IssueKind
from repro.apps.top100 import (
    TOP100_TABLE,
    UNFIXABLE_TOP100,
    build_top100,
    expected_counts,
)
from repro.engine import KIND_ISSUE, RunRequest, policy_matrix
from repro.harness.experiments import run_requests
from repro.harness.report import render_table
from repro.harness.runner import IssueVerdict


@dataclass
class Table5Row:
    rank: int
    label: str
    downloads: str
    declared_issue: bool
    problem: str
    issue_kind: IssueKind
    stock: IssueVerdict
    rchdroid: IssueVerdict

    @property
    def observed_issue_on_stock(self) -> bool:
        return self.stock.issue_observed

    @property
    def solved_by_rchdroid(self) -> bool:
        return self.rchdroid.issue_solved


@dataclass
class Table5Result:
    rows: list[Table5Row]

    @property
    def with_issue(self) -> int:
        return sum(1 for row in self.rows if row.observed_issue_on_stock)

    @property
    def self_handled(self) -> int:
        return sum(
            1 for row in self.rows if row.issue_kind is IssueKind.SELF_HANDLED
        )

    @property
    def restart_no_issue(self) -> int:
        return sum(1 for row in self.rows if row.issue_kind is IssueKind.NONE)

    @property
    def solved(self) -> int:
        return sum(
            1 for row in self.rows
            if row.observed_issue_on_stock and row.solved_by_rchdroid
        )

    @property
    def unsolved_labels(self) -> list[str]:
        return [
            row.label for row in self.rows
            if row.observed_issue_on_stock and not row.solved_by_rchdroid
        ]


def requests(seed: int = 0x5EED) -> list[RunRequest]:
    return policy_matrix(build_top100(seed), ["android10", "rchdroid"],
                         kind=KIND_ISSUE, seed=seed)


def fold(requests: list[RunRequest], results: list) -> Table5Result:
    return Table5Result(rows=[
        Table5Row(
            rank=table_row.rank,
            label=table_row.name,
            downloads=table_row.downloads,
            declared_issue=table_row.has_issue,
            problem=table_row.problem,
            issue_kind=request.app.issue,
            stock=stock,
            rchdroid=rchdroid,
        )
        for table_row, request, stock, rchdroid in zip(
            TOP100_TABLE, requests[::2], results[::2], results[1::2])
    ])


def run(seed: int = 0x5EED, *, jobs: int | None = None,
        cache=None) -> Table5Result:
    return run_requests(requests, fold, seed, jobs=jobs, cache=cache)


def format_report(result: Table5Result) -> str:
    expected = expected_counts()
    table = render_table(
        ["No.", "App", "Downloads", "Issue (paper)", "Issue (measured)",
         "RCHDroid"],
        [
            [row.rank, row.label, row.downloads,
             "Yes" if row.declared_issue else "No",
             "Yes" if row.observed_issue_on_stock else "No",
             ("solved" if row.solved_by_rchdroid else "NOT solved")
             if row.observed_issue_on_stock else "-"]
            for row in result.rows
        ],
        title="Table 5: runtime change issues in Google Play top-100 apps",
    )
    footer = (
        f"\nwith issue: {result.with_issue}/100 "
        f"(paper: {expected['with_issue']})"
        f"\nself-handled: {result.self_handled} "
        f"(paper: {expected['self_handled']})"
        f"\nrestart-based without issue: {result.restart_no_issue} "
        f"(paper: {expected['restart_no_issue']})"
        f"\nsolved by RCHDroid: {result.solved}/{result.with_issue} "
        f"(paper: {expected['rchdroid_fixed']}/63 = 93.65%)"
        f"\nunsolved: {', '.join(result.unsolved_labels)} "
        f"(paper: {', '.join(sorted(UNFIXABLE_TOP100))})"
    )
    return table + footer
