"""Fig. 12 + Table 4: comparison with RuntimeDroid.

The eight apps of Table 4 run under all three policies; Fig. 12 plots
handling time normalised to Android-10.  Expected shape: RuntimeDroid
fastest (app-level masked relaunch, no new instance, no ATMS round
trip), RCHDroid in between, Android-10 = 1.0.  Table 4's counterpart:
RuntimeDroid requires hundreds to thousands of modified LoC per app,
RCHDroid zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.views.inflate import ViewSpec
from repro.apps.dsl import AppSpec, IssueKind, StateSlot, StorageKind, \
    filler_views, two_orientation_resources
from repro.baselines.runtimedroid import RUNTIMEDROID_TABLE4
from repro.engine import RunRequest, policy_matrix
from repro.harness.experiments import run_requests
from repro.harness.report import render_table
from repro.sim.rng import DeterministicRng


def build_table4_apps(seed: int = 0x5EED) -> list[AppSpec]:
    """The eight Table 4 apps, sized by their published LoC."""
    base = DeterministicRng(seed)
    apps: list[AppSpec] = []
    for entry in RUNTIMEDROID_TABLE4:
        rng = base.fork(entry.app)
        scale = entry.android10_loc / 10_000.0
        filler = max(10, int(12 + 1.6 * scale * 10))
        widgets = [ViewSpec("TextView", view_id=20)]
        widgets.extend(
            ViewSpec("ImageView", view_id=500 + i,
                     attrs={"drawable": f"asset-{i}"})
            for i in range(rng.randint(3, 7))
        )
        widgets.extend(filler_views(filler))
        apps.append(
            AppSpec(
                package=f"table4.{entry.app.lower()}",
                label=entry.app,
                resources=two_orientation_resources(
                    "main", widgets,
                    resource_factor=1.0 + 0.4 * scale,
                ),
                logic_cost_ms=6.0 + 4.0 * scale,
                extra_heap_mb=rng.uniform(8.0, 16.0),
                ui_complexity=1.6 + 0.5 * scale,
                slots=(StateSlot("user_state", StorageKind.VIEW_ATTR,
                                 view_id=20, attr="text"),),
                issue=IssueKind.VIEW_STATE_LOSS,
                issue_description="state loss after restart",
                app_loc=entry.android10_loc,
            )
        )
    return apps


@dataclass
class Fig12Row:
    label: str
    android10_ms: float
    rchdroid_ms: float
    runtimedroid_ms: float
    runtimedroid_mod_loc: int

    @property
    def rchdroid_normalized(self) -> float:
        return self.rchdroid_ms / self.android10_ms

    @property
    def runtimedroid_normalized(self) -> float:
        return self.runtimedroid_ms / self.android10_ms


@dataclass
class Fig12Result:
    rows: list[Fig12Row]

    @property
    def ordering_holds(self) -> bool:
        """RuntimeDroid < RCHDroid < Android-10, per app."""
        return all(
            row.runtimedroid_ms < row.rchdroid_ms < row.android10_ms
            for row in self.rows
        )

    @property
    def rchdroid_modifications_loc(self) -> int:
        return 0  # the Android-System way: no app modifications


def requests(seed: int = 0x5EED) -> list[RunRequest]:
    return policy_matrix(build_table4_apps(seed),
                         ["android10", "rchdroid", "runtimedroid"], seed=seed)


def fold(requests: list[RunRequest], results: list) -> Fig12Result:
    table4_by_app = {entry.app: entry for entry in RUNTIMEDROID_TABLE4}
    return Fig12Result(rows=[
        Fig12Row(
            label=request.app.label,
            android10_ms=stock.steady_state_ms,
            rchdroid_ms=rchdroid.steady_state_ms,
            runtimedroid_ms=runtimedroid.steady_state_ms,
            runtimedroid_mod_loc=table4_by_app[
                request.app.label].modification_loc,
        )
        for request, stock, rchdroid, runtimedroid in zip(
            requests[::3], results[::3], results[1::3], results[2::3])
    ])


def run(seed: int = 0x5EED, *, jobs: int | None = None,
        cache=None) -> Fig12Result:
    return run_requests(requests, fold, seed, jobs=jobs, cache=cache)


def format_report(result: Fig12Result) -> str:
    fig = render_table(
        ["App", "RuntimeDroid (norm.)", "RCHDroid (norm.)",
         "Android-10 (norm.)"],
        [
            [row.label, f"{row.runtimedroid_normalized:.2f}",
             f"{row.rchdroid_normalized:.2f}", "1.00"]
            for row in result.rows
        ],
        title="Fig. 12: handling time normalised to Android-10",
    )
    table4 = render_table(
        ["App", "RuntimeDroid modifications (LoC)", "RCHDroid modifications"],
        [[row.label, row.runtimedroid_mod_loc, 0] for row in result.rows],
        title="Table 4: per-app modifications",
    )
    footer = (
        f"\nordering RuntimeDroid < RCHDroid < Android-10 holds: "
        f"{result.ordering_holds} (paper: RuntimeDroid is more efficient; "
        "RCHDroid needs no app modifications)"
    )
    return fig + "\n\n" + table4 + footer
