"""Tests for the experiment registry and the cheap experiments.

The heavyweight experiments (Figs. 7/8/11/14, Tables 3/5) are exercised
by the benchmark harness under ``benchmarks/``; here we check the
registry is complete and the fast experiments produce the paper's shape.
"""

import pytest

from repro.harness.experiments import REGISTRY
from repro.harness.experiments import (
    fig9,
    fig10,
    fig12,
    sec57_deployment,
    table2,
)


def test_registry_covers_every_table_and_figure():
    assert set(REGISTRY) == {
        "table2", "table3", "table5", "fig7", "fig8", "fig9", "fig10",
        "fig11", "fig12", "fig13", "fig14", "sec5.6-energy", "sec5.7-deployment",
        "ext-fleet", "ext-fragments", "ext-oracle", "ext-probes",
        "ext-robustness", "ext-sessions",
    }


class TestTable2:
    def test_patch_total_is_348_loc(self):
        result = table2.run()
        assert result.total_loc == 348

    def test_every_patched_class_has_a_counterpart(self):
        result = table2.run()
        assert result.all_symbols_exist

    def test_report_renders(self):
        assert "348" in table2.format_report(table2.run())


class TestFig9:
    def test_shapes(self):
        result = fig9.run()
        assert result.android10.crashed
        assert result.android10_crashed_at_return
        assert result.android10_heap_after_crash == 0.0
        assert not result.rchdroid.crashed
        assert result.rchdroid_heap_after_return > 0.0

    def test_rchdroid_cpu_drops_on_second_change(self):
        result = fig9.run()
        first, second = result.peaks(result.rchdroid)
        assert second < first

    def test_rchdroid_paths(self):
        result = fig9.run()
        assert [p for _, p in result.rchdroid.handling] == ["init", "flip"]


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run()

    def test_rchdroid_always_beats_android10(self, result):
        for point in result.points:
            assert point.rchdroid_ms < point.android10_ms

    def test_rchdroid_flip_is_flat(self, result):
        flips = [p.rchdroid_ms for p in result.points]
        assert max(flips) / min(flips) < 1.08

    def test_init_grows_linearly(self, result):
        inits = [p.rchdroid_init_ms for p in result.points]
        assert inits == sorted(inits)
        assert result.point_at(1).rchdroid_init_ms == pytest.approx(154.6, rel=0.03)
        assert result.point_at(32).rchdroid_init_ms == pytest.approx(180.2, rel=0.03)

    def test_migration_grows_linearly_below_restart(self, result):
        migrations = [p.migration_ms for p in result.points]
        assert migrations == sorted(migrations)
        assert result.point_at(1).migration_ms == pytest.approx(8.6, rel=0.05)
        assert result.point_at(16).migration_ms == pytest.approx(20.2, rel=0.05)
        for point in result.points:
            assert point.migration_ms < point.android10_ms


class TestFig12:
    def test_ordering_holds(self):
        result = fig12.run()
        assert result.ordering_holds
        assert result.rchdroid_modifications_loc == 0

    def test_runtimedroid_needs_hundreds_of_loc(self):
        result = fig12.run()
        assert all(row.runtimedroid_mod_loc >= 760 for row in result.rows)


class TestDeployment:
    def test_rchdroid_flash_is_fixed_cost(self):
        result = sec57_deployment.run()
        assert result.rchdroid_total_ms == pytest.approx(92_870.0)

    def test_patch_range_overlaps_paper(self):
        result = sec57_deployment.run()
        assert result.runtimedroid_min_ms == pytest.approx(12_867, rel=0.05)
        assert result.runtimedroid_max_ms > 100_000

    def test_crossover_is_small(self):
        result = sec57_deployment.run()
        assert result.rchdroid_cheaper_beyond_apps <= 3


def test_cli_reports_an_engine_error_without_a_traceback(monkeypatch, capsys):
    from repro.errors import EngineError
    from repro.harness import experiments
    from repro.harness.experiments.__main__ import main

    def dead_worker(*args, **kwargs):
        raise EngineError("a batch worker died with pool call 1 of 9 "
                          "unfinished")

    monkeypatch.setattr(experiments, "run_batch", dead_worker)
    assert main(["fig10", "--no-cache", "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        "error: a batch worker died with pool call 1 of 9 unfinished\n"
    )
    assert "Traceback" not in captured.err
