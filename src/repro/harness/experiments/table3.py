"""Table 3: effectiveness on the 27-app set.

For each TP-37 app, run the issue scenario under stock Android-10 (the
issue must manifest: state loss or crash) and under RCHDroid (the paper
reports 25 of 27 solved; #9 DiskDiggerPro and #10 Dock4Droid remain
unsolved because their state lives in bare fields without
``onSaveInstanceState``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.appset27 import UNFIXABLE_APPS, build_appset27
from repro.engine import KIND_ISSUE, RunRequest, policy_matrix
from repro.harness.experiments import run_requests
from repro.harness.report import render_table
from repro.harness.runner import IssueVerdict


@dataclass
class Table3Row:
    index: int
    label: str
    downloads: str
    issue_description: str
    stock: IssueVerdict
    rchdroid: IssueVerdict

    @property
    def issue_on_stock(self) -> bool:
        return self.stock.issue_observed

    @property
    def solved_by_rchdroid(self) -> bool:
        return self.rchdroid.issue_solved


@dataclass
class Table3Result:
    rows: list[Table3Row]

    @property
    def issues_on_stock(self) -> int:
        return sum(1 for row in self.rows if row.issue_on_stock)

    @property
    def solved(self) -> int:
        return sum(1 for row in self.rows if row.solved_by_rchdroid)

    @property
    def unsolved_labels(self) -> list[str]:
        return [row.label for row in self.rows if not row.solved_by_rchdroid]


def requests(seed: int = 0x5EED) -> list[RunRequest]:
    return policy_matrix(build_appset27(seed), ["android10", "rchdroid"],
                         kind=KIND_ISSUE, seed=seed)


def fold(requests: list[RunRequest], results: list) -> Table3Result:
    return Table3Result(rows=[
        Table3Row(
            index=index,
            label=request.app.label,
            downloads=request.app.downloads,
            issue_description=request.app.issue_description,
            stock=stock,
            rchdroid=rchdroid,
        )
        for index, (request, stock, rchdroid) in enumerate(
            zip(requests[::2], results[::2], results[1::2]), start=1)
    ])


def run(seed: int = 0x5EED, *, jobs: int | None = None,
        cache=None) -> Table3Result:
    return run_requests(requests, fold, seed, jobs=jobs, cache=cache)


def format_report(result: Table3Result) -> str:
    table = render_table(
        ["No.", "App", "Downloads", "Issue of current Android design",
         "Android-10", "RCHDroid"],
        [
            [row.index, row.label, row.downloads, row.issue_description,
             "issue" if row.issue_on_stock else "ok",
             "solved" if row.solved_by_rchdroid else "NOT solved"]
            for row in result.rows
        ],
        title="Table 3: results of 27 apps running on RCHDroid",
    )
    footer = (
        f"\nissues under Android-10: {result.issues_on_stock}/27 (paper: 27/27)"
        f"\nsolved by RCHDroid: {result.solved}/27 (paper: 25/27)"
        f"\nunsolved: {', '.join(result.unsolved_labels)} "
        f"(paper: {', '.join(sorted(UNFIXABLE_APPS))})"
    )
    return table + footer
