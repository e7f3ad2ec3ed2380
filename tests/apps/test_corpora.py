"""Unit tests for the 27-app and top-100 corpora."""

from collections import Counter

import pytest

from repro.apps.appset27 import UNFIXABLE_APPS, build_appset27, table3_rows
from repro.apps.dsl import IssueKind, StorageKind
from repro.apps.top100 import (
    RESTART_BASED_NO_ISSUE,
    TOP100_TABLE,
    UNFIXABLE_TOP100,
    build_top100,
    expected_counts,
)


class TestAppset27:
    def test_has_27_apps(self):
        assert len(build_appset27()) == 27

    def test_deterministic_for_seed(self):
        a = build_appset27(seed=1)
        b = build_appset27(seed=1)
        assert [x.logic_cost_ms for x in a] == [x.logic_cost_ms for x in b]
        assert [x.extra_heap_mb for x in a] == [x.extra_heap_mb for x in b]

    def test_seed_changes_draws_not_structure(self):
        a = build_appset27(seed=1)
        b = build_appset27(seed=2)
        assert [x.label for x in a] == [x.label for x in b]
        assert [x.logic_cost_ms for x in a] != [x.logic_cost_ms for x in b]

    def test_issue_split_matches_table3(self):
        counts = Counter(app.issue for app in build_appset27())
        assert counts[IssueKind.VIEW_STATE_LOSS] == 25
        assert counts[IssueKind.BARE_FIELD_LOSS] == 2

    def test_unfixable_apps_are_bare_field(self):
        for app in build_appset27():
            if app.label in UNFIXABLE_APPS:
                assert app.issue is IssueKind.BARE_FIELD_LOSS
                assert app.slots[0].storage is StorageKind.BARE_FIELD

    def test_no_app_implements_on_save(self):
        """Table 3 apps are buggy precisely because they don't."""
        assert not any(app.implements_on_save for app in build_appset27())

    def test_packages_are_unique(self):
        packages = [app.package for app in build_appset27()]
        assert len(set(packages)) == 27

    def test_row_metadata_preserved(self):
        rows = table3_rows()
        assert rows[0].name == "AlarmClockPlus"
        assert rows[8].name == "DiskDiggerPro"
        apps = build_appset27()
        assert apps[8].issue_description.startswith("The percentage")


class TestTop100:
    def test_has_100_rows_and_apps(self):
        assert len(TOP100_TABLE) == 100
        assert len(build_top100()) == 100

    def test_published_aggregates(self):
        expected = expected_counts()
        yes = sum(1 for row in TOP100_TABLE if row.has_issue)
        assert yes == expected["with_issue"] == 63

    def test_issue_kind_split(self):
        counts = Counter(app.issue for app in build_top100())
        assert counts[IssueKind.VIEW_STATE_LOSS] == 59
        assert counts[IssueKind.BARE_FIELD_LOSS] == 4
        assert counts[IssueKind.SELF_HANDLED] == 26
        assert counts[IssueKind.NONE] == 11

    def test_unfixable_membership(self):
        for app in build_top100():
            if app.label in UNFIXABLE_TOP100:
                assert app.issue is IssueKind.BARE_FIELD_LOSS

    def test_self_handled_flag_is_consistent(self):
        for app in build_top100():
            assert app.handles_config_changes == (
                app.issue is IssueKind.SELF_HANDLED
            )

    def test_no_issue_apps_use_auto_saved_widget(self):
        for app in build_top100():
            if app.issue is IssueKind.NONE:
                assert app.label in RESTART_BASED_NO_ISSUE
                assert app.slots[0].attr == "text"

    def test_packages_are_unique_and_safe(self):
        packages = [app.package for app in build_top100()]
        assert len(set(packages)) == 100
        for package in packages:
            assert "&" not in package and "'" not in package

    def test_known_rows(self):
        by_name = {row.name: row for row in TOP100_TABLE}
        assert by_name["Twitter"].has_issue
        assert by_name["Twitter"].problem == "State loss (text box)"
        assert not by_name["Instagram"].has_issue
        assert by_name["Orbot"].problem == "State loss (selection list)"

    def test_built_once_per_seed_as_fresh_lists(self):
        first = build_top100(0x5EED)
        second = build_top100(0x5EED)
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()  # one caller's list is not another's
        assert len(build_top100(0x5EED)) == 100
        other = build_top100(0x5EED + 1)
        assert [a.label for a in other] == [a.label for a in second]
        assert [a.app_loc for a in other] != [a.app_loc for a in second]

    def test_top100_apps_are_bigger_than_tp37(self):
        from statistics import mean

        tp37 = build_appset27()
        top = build_top100()
        assert mean(a.extra_heap_mb for a in top) > mean(
            a.extra_heap_mb for a in tp37
        )
        assert mean(a.logic_cost_ms for a in top) > mean(
            a.logic_cost_ms for a in tp37
        )
