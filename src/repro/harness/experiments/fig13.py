"""Fig. 13: the four concrete runtime-change issue examples.

The paper screenshots four top-100 apps before/after a runtime change:

(a) **Twitter** — the login name box content is lost after the restart;
(b) **Disney+** — the privacy-policy scroll location is reset;
(c) **KJVBible** — the quiz timer is reset;
(d) **Orbot** — the selected network bridge (a radio selection) resets
    to the default.

Each example is rebuilt with its actual widget class and driven through
the same change; the "screenshot" here is the before/after value of the
affected widget under stock Android-10 and under RCHDroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.android.views.inflate import ViewSpec
from repro.apps.dsl import AppSpec, two_orientation_resources
from repro.baselines.android10 import Android10Policy
from repro.core.policy import RCHDroidPolicy
from repro.harness.report import render_table
from repro.system import AndroidSystem

VIEW_ID = 10


@dataclass(frozen=True)
class CaseStudy:
    figure: str
    app: str
    widget: str
    attr: str
    user_value: Any
    default_value: Any
    description: str


CASES: tuple[CaseStudy, ...] = (
    CaseStudy("13(a)", "Twitter", "TextView", "text",
              "alice@example.com", "",
              "The name box content is lost after the restart"),
    CaseStudy("13(b)", "Disney+", "ScrollView", "selector_position",
              1840, 0,
              "The scroll location is reset after the restart"),
    CaseStudy("13(c)", "KJVBible", "ProgressBar", "progress",
              37, 0,
              "The timer is reset after the restart"),
    CaseStudy("13(d)", "Orbot", "RadioButton", "checked",
              True, False,
              "The selected network bridge is reset after the restart"),
)


@dataclass
class Fig13Row:
    case: CaseStudy
    stock_after: Any
    rchdroid_after: Any

    @property
    def stock_lost(self) -> bool:
        return self.stock_after != self.case.user_value

    @property
    def rchdroid_kept(self) -> bool:
        return self.rchdroid_after == self.case.user_value


@dataclass
class Fig13Result:
    rows: list[Fig13Row]

    @property
    def all_reproduced(self) -> bool:
        return all(row.stock_lost and row.rchdroid_kept for row in self.rows)


def _drive(policy_factory, case: CaseStudy) -> Any:
    app = AppSpec(
        package=f"fig13.{case.app.lower().replace('+', 'plus')}",
        label=case.app,
        resources=two_orientation_resources(
            "main",
            [ViewSpec(case.widget, view_id=VIEW_ID,
                      attrs={case.attr: case.default_value})],
        ),
    )
    system = AndroidSystem(policy=policy_factory())
    system.launch(app)
    system.foreground_activity(app.package).require_view(VIEW_ID).set_attr(
        case.attr, case.user_value
    )
    system.resize(1080, 1920)  # the Section 6 trigger: wm size
    fresh = system.foreground_activity(app.package)
    return fresh.require_view(VIEW_ID).get_attr(case.attr)


def run() -> Fig13Result:
    rows = [
        Fig13Row(
            case=case,
            stock_after=_drive(Android10Policy, case),
            rchdroid_after=_drive(RCHDroidPolicy, case),
        )
        for case in CASES
    ]
    return Fig13Result(rows=rows)


def format_report(result: Fig13Result) -> str:
    table = render_table(
        ["Fig.", "App", "widget", "user value", "after change (stock)",
         "after change (RCHDroid)"],
        [
            [row.case.figure, row.case.app, row.case.widget,
             repr(row.case.user_value), repr(row.stock_after),
             repr(row.rchdroid_after)]
            for row in result.rows
        ],
        title="Fig. 13: the four runtime-change issue examples",
    )
    footer = (
        f"\nall four issues reproduced on stock and fixed by RCHDroid: "
        f"{result.all_reproduced}"
    )
    return table + footer
