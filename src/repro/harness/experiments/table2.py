"""Table 2: the RCHDroid patch inventory.

The paper's contribution is a 348-LoC patch across eight framework
classes.  The reproduction keeps the same patch surface as explicit hook
points; this experiment prints the published inventory next to the
simulator module that models each class, and verifies the mapping is
complete (every patched class has a living counterpart).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from repro.harness.report import render_table


@dataclass(frozen=True)
class PatchRow:
    group: int
    klass: str
    what: str
    loc: int
    module: str
    symbol: str


TABLE2_ROWS: tuple[PatchRow, ...] = (
    PatchRow(1, "Activity",
             "Add the Shadow/Sunny state and related functions.", 81,
             "repro.android.app.activity", "Activity.get_all_sunny_views"),
    PatchRow(1, "View",
             "Add the Shadow/Sunny state and the view pointer; "
             "Modify the invalidate function.", 79,
             "repro.android.views.view", "View.invalidate"),
    PatchRow(1, "ViewGroup",
             "Add the dispatch function for the Shadow/Sunny state.", 12,
             "repro.android.views.view", "View.dispatch_shadow_state_changed"),
    PatchRow(2, "Intent", "Add the sunny flag.", 4,
             "repro.android.app.intent", "IntentFlag.SUNNY"),
    PatchRow(2, "ActivityThread",
             "Add shadow-state and sunny-state views, GC routine; Modify "
             "the runtime change, launch and resume functions.", 91,
             "repro.android.app.activity_thread",
             "ActivityThread.release_shadow"),
    PatchRow(3, "ActivityRecord",
             "Add the Shadow state and related interfaces; Modify the "
             "configuration change handling function.", 11,
             "repro.android.server.records", "ActivityRecord.set_shadow_state"),
    PatchRow(3, "ActivityStack",
             "Add the shadow-state activity look up function.", 29,
             "repro.android.server.stack",
             "ActivityStack.find_shadow_activity_locked"),
    PatchRow(3, "ActivityStarter", "Modify activity start related functions.",
             41, "repro.android.server.starter",
             "ActivityStarter.start_activity_unchecked"),
)

TOTAL_PATCH_LOC = 348


@dataclass
class Table2Result:
    rows: tuple[PatchRow, ...]
    total_loc: int
    all_symbols_exist: bool


def _symbol_exists(row: PatchRow) -> bool:
    module = importlib.import_module(row.module)
    obj = module
    for part in row.symbol.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def run() -> Table2Result:
    all_exist = all(_symbol_exists(row) for row in TABLE2_ROWS)
    return Table2Result(
        rows=TABLE2_ROWS,
        total_loc=sum(row.loc for row in TABLE2_ROWS),
        all_symbols_exist=all_exist,
    )


def format_report(result: Table2Result) -> str:
    table = render_table(
        ["No.", "Class", "LoC", "Simulator counterpart"],
        [[row.group, row.klass, row.loc, f"{row.module}:{row.symbol}"]
         for row in result.rows],
        title="Table 2: RCHDroid implementations and modifications",
    )
    footer = (
        f"\ntotal patch: {result.total_loc} LoC (paper: {TOTAL_PATCH_LOC})"
        f"\nall counterparts present: {result.all_symbols_exist}"
    )
    return table + footer
