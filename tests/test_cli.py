"""Tests for the command-line entry points."""

import pytest

from repro.__main__ import main as repro_main
from repro.harness.experiments.__main__ import main as experiments_main


class TestExperimentsCli:
    def test_no_args_lists_experiments(self, capsys):
        assert experiments_main([]) == 0
        out = capsys.readouterr().out
        for key in ("table3", "fig10", "ext-robustness"):
            assert key in out

    def test_unknown_experiment_is_an_error(self, capsys):
        assert experiments_main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_runs_a_fast_experiment(self, capsys):
        assert experiments_main(["table2"]) == 0
        assert "348" in capsys.readouterr().out

    def test_runs_fig13(self, capsys):
        assert experiments_main(["fig13"]) == 0
        out = capsys.readouterr().out
        assert "Twitter" in out and "Orbot" in out


class TestEngineFlags:
    def test_jobs_and_cache_root(self, capsys, tmp_path):
        args = ["fig12", "--jobs", "2", "--cache-root", str(tmp_path)]
        assert experiments_main(args) == 0
        assert "Fig. 12" in capsys.readouterr().out
        cached = list(tmp_path.rglob("*.json"))
        assert len(cached) == 24  # 8 Table-4 apps x 3 policies

    def test_no_cache_leaves_no_cache_dir(self, capsys, tmp_path):
        args = ["fig12", "--no-cache", "--cache-root", str(tmp_path / "c")]
        assert experiments_main(args) == 0
        assert not (tmp_path / "c").exists()

    def test_cached_rerun_reports_identically(self, capsys, tmp_path):
        args = ["fig12", "--cache-root", str(tmp_path)]
        assert experiments_main(args) == 0
        first = capsys.readouterr().out
        assert experiments_main(args) == 0
        assert capsys.readouterr().out == first

    def test_jobs_needs_a_positive_integer(self, capsys):
        assert experiments_main(["fig12", "--jobs"]) == 2
        assert experiments_main(["fig12", "--jobs", "zero"]) == 2
        assert experiments_main(["fig12", "--jobs", "0"]) == 2

    def test_cache_root_needs_a_path(self, capsys):
        assert experiments_main(["fig12", "--cache-root"]) == 2

    def test_engine_config_is_restored_after_a_run(self, tmp_path, capsys):
        from repro import engine
        from repro.engine.batch import _CONFIG

        before = (_CONFIG.jobs, _CONFIG.cache, _CONFIG.cache_root)
        args = ["fig12", "--jobs", "2", "--cache-root", str(tmp_path)]
        assert experiments_main(args) == 0
        capsys.readouterr()
        after = engine.configure()  # no-op probe of the live config
        assert (after.jobs, after.cache, after.cache_root) == before


class TestReproCli:
    def test_help(self, capsys):
        assert repro_main(["--help"]) == 0
        assert "demo" in capsys.readouterr().out

    def test_demo_runs_both_policies(self, capsys):
        assert repro_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "android10: crashed=True" in out
        assert "rchdroid: crashed=False" in out

    def test_experiment_passthrough(self, capsys):
        assert repro_main(["table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_experiments_listing(self, capsys):
        assert repro_main(["experiments"]) == 0
        assert "fig10" in capsys.readouterr().out

    def test_unknown_command_exits_2_with_hint(self, capsys):
        assert repro_main(["tabel3"]) == 2  # typo'd table3
        out = capsys.readouterr().out
        assert "unknown command 'tabel3'" in out
        assert "did you mean 'table3'?" in out

    def test_unknown_command_without_a_close_match(self, capsys):
        assert repro_main(["frobnicate"]) == 2
        out = capsys.readouterr().out
        assert "known commands:" in out and "trace" in out
        assert "bench-engine" in out

    def test_bench_engine_rejects_unknown_arguments(self, capsys):
        assert repro_main(["bench-engine", "--bogus"]) == 2
        assert "unknown argument" in capsys.readouterr().err


class TestFleetCli:
    def test_fleet_runs_and_writes_canonical_report(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "fleet.json"
        args = ["fleet", "--devices", "18", "--jobs", "1",
                "-o", str(out_path)]
        assert repro_main(args) == 0
        printed = capsys.readouterr().out
        assert "Per-policy rollup" in printed
        report = json.loads(out_path.read_text())
        assert report["fleet"]["devices"] == 18
        assert {row["policy"] for row in report["policies"]} == {
            "android10", "rchdroid", "runtimedroid"}

    def test_fleet_policy_filter(self, capsys):
        args = ["fleet", "--devices", "6", "--jobs", "1",
                "--policy", "rchdroid"]
        assert repro_main(args) == 0
        printed = capsys.readouterr().out
        assert "rchdroid" in printed
        assert "android10" not in printed

    def test_fleet_typo_gets_a_hint(self, capsys):
        assert repro_main(["fleeet"]) == 2
        out = capsys.readouterr().out
        assert "did you mean 'fleet'?" in out

    def test_fleet_rejects_unknown_arguments(self, capsys):
        assert repro_main(["fleet", "--bogus"]) == 2
        assert "unexpected argument" in capsys.readouterr().out

    def test_fleet_rejects_bad_values(self, capsys):
        assert repro_main(["fleet", "--devices", "many"]) == 2
        assert repro_main(["fleet", "--devices"]) == 2
        capsys.readouterr()

    def test_fleet_rejects_unknown_policy(self, capsys):
        args = ["fleet", "--devices", "6", "--policy", "nope"]
        assert repro_main(args) == 2
        assert "fleet error" in capsys.readouterr().out

    def test_fleet_oracle_sampling_joins_the_report(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "fleet.json"
        args = ["fleet", "--devices", "18", "--jobs", "1",
                "--oracle", "0.5", "-o", str(out_path)]
        assert repro_main(args) == 0
        assert "Differential oracle" in capsys.readouterr().out
        report = json.loads(out_path.read_text())
        assert report["oracle"]["rate"] == 0.5
        assert report["oracle"]["sessions"] > 0

    def test_fleet_without_oracle_keeps_the_old_report_shape(
            self, capsys, tmp_path):
        import json

        out_path = tmp_path / "fleet.json"
        args = ["fleet", "--devices", "18", "--jobs", "1",
                "-o", str(out_path)]
        assert repro_main(args) == 0
        capsys.readouterr()
        assert "oracle" not in json.loads(out_path.read_text())

    def test_fleet_rejects_out_of_range_sizes_and_fractions(self, capsys):
        # Each of these once ran silently: a 9-device fleet for any
        # --devices below 1, every device or none faulted for --faults
        # outside [0, 1].
        for bad in (["--devices", "0"], ["--devices", "-5"],
                    ["--shard-size", "0"], ["--faults", "2"],
                    ["--faults", "-0.5"]):
            assert repro_main(["fleet", *bad]) == 2, bad
            assert "bad option value" in capsys.readouterr().out

    def test_fleet_rejects_bad_oracle_rate(self, capsys):
        assert repro_main(["fleet", "--devices", "6",
                           "--oracle", "1.5"]) == 2
        assert "oracle rate must be within [0, 1]" in capsys.readouterr().out


class TestFleetCliZeroCopyTier:
    """--jobs auto, --stats, --checkpoint — plus the did-you-mean hint
    on malformed --jobs."""

    def _report_json(self, capsys, tmp_path, extra, name="fleet.json"):
        import json

        out_path = tmp_path / name
        args = ["fleet", "--devices", "18", "--seed", "7",
                "-o", str(out_path), *extra]
        assert repro_main(args) == 0
        printed = capsys.readouterr().out
        return json.loads(out_path.read_text()), printed, out_path

    def test_jobs_auto_runs(self, capsys, tmp_path):
        report, _, _ = self._report_json(
            capsys, tmp_path, ["--jobs", "auto"])
        assert report["fleet"]["devices"] == 18

    def test_jobs_typo_gets_a_did_you_mean_hint(self, capsys):
        assert repro_main(["fleet", "--jobs", "atuo"]) == 2
        out = capsys.readouterr().out
        assert "did you mean 'auto'?" in out

    def test_jobs_garbage_exits_2_without_a_bogus_hint(self, capsys):
        assert repro_main(["fleet", "--jobs", "many"]) == 2
        out = capsys.readouterr().out
        assert "worker count or 'auto'" in out
        assert "did you mean" not in out

    def test_checkpoint_every_must_be_positive(self, capsys):
        assert repro_main(["fleet", "--checkpoint-every", "0"]) == 2
        assert "--checkpoint-every must be >= 1" in capsys.readouterr().out

    def test_stats_surfaces_provisioning_counters(self, capsys, tmp_path):
        report, printed, _ = self._report_json(
            capsys, tmp_path, ["--jobs", "1", "--stats"])
        assert "Template provisioning" in printed
        assert report["cache"]["captures"] > 0
        for counter in ("disk_reads", "rebuilds", "templates_cached"):
            assert counter in report["cache"]

    def test_checkpointed_run_resumes_identically(self, capsys, tmp_path):
        base, _, base_path = self._report_json(
            capsys, tmp_path, ["--jobs", "1"], name="base.json")
        ckpt = tmp_path / "fleet.ckpt"
        _, _, first_path = self._report_json(
            capsys, tmp_path,
            ["--jobs", "1", "--checkpoint", str(ckpt),
             "--checkpoint-every", "1"], name="first.json")
        assert ckpt.exists()
        _, _, resumed_path = self._report_json(
            capsys, tmp_path,
            ["--jobs", "1", "--checkpoint", str(ckpt)], name="resumed.json")
        assert first_path.read_bytes() == base_path.read_bytes()
        assert resumed_path.read_bytes() == base_path.read_bytes()


class TestOracleCli:
    def test_session_reports_clean_and_writes_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "oracle.json"
        args = ["oracle", "fleet.notepad", "--seed", "7",
                "-o", str(out_path)]
        assert repro_main(args) == 0
        printed = capsys.readouterr().out
        assert "differential oracle report" in printed
        assert "CLEAN (no simulator bugs)" in printed
        report = json.loads(out_path.read_text())
        assert report["sessions"] == 1
        assert report["totals"]["SIMULATOR_BUG"] == 0

    def test_resolves_apps_by_display_name_too(self, capsys):
        assert repro_main(["oracle", "FleetNotepad", "--seed", "7"]) == 0
        capsys.readouterr()

    def test_policy_subset_is_honoured(self, capsys):
        args = ["oracle", "fleet.notepad", "--seed", "7",
                "--policy", "rchdroid", "--policy", "runtimedroid"]
        assert repro_main(args) == 0
        printed = capsys.readouterr().out
        assert "rchdroid" in printed
        assert "android10" not in printed

    def test_unknown_app_is_an_error_with_known_list(self, capsys):
        assert repro_main(["oracle", "nope.app"]) == 2
        assert "fleet.notepad" in capsys.readouterr().out

    def test_duplicate_policy_is_an_oracle_error(self, capsys):
        args = ["oracle", "fleet.notepad",
                "--policy", "rchdroid", "--policy", "rchdroid"]
        assert repro_main(args) == 2
        assert "oracle error" in capsys.readouterr().out

    def test_missing_app_prints_usage(self, capsys):
        assert repro_main(["oracle"]) == 2
        assert "usage" in capsys.readouterr().out


class TestFleetWorkloadFlags:
    def test_named_workload_runs(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "fleet.json"
        args = ["fleet", "--devices", "18", "--jobs", "1",
                "--workload", "storm", "-o", str(out_path)]
        assert repro_main(args) == 0
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["fleet"]["devices"] == 18

    def test_workload_file_replays_on_every_member(
            self, capsys, tmp_path):
        from repro.workload.codec import save_workload
        from repro.workload.ir import Rotate, Wait, Workload, Write

        path = tmp_path / "fixed.json"
        save_workload(path, Workload((
            Write(0), Wait(200.0), Rotate(), Wait(600.0),
        )))
        out_path = tmp_path / "fleet.json"
        args = ["fleet", "--devices", "9", "--jobs", "1",
                "--workload", str(path), "-o", str(out_path)]
        assert repro_main(args) == 0
        capsys.readouterr()

    def test_phases_plan_runs(self, capsys, tmp_path):
        out_path = tmp_path / "fleet.json"
        args = ["fleet", "--devices", "18", "--jobs", "1",
                "--phases", "rotation-storm", "-o", str(out_path)]
        assert repro_main(args) == 0
        assert out_path.exists()
        capsys.readouterr()

    def test_unknown_workload_name_gets_a_hint(self, capsys):
        assert repro_main(["fleet", "--workload", "strom"]) == 2
        out = capsys.readouterr().out
        assert "fleet error" in out
        assert "did you mean 'storm'" in out

    def test_unknown_phases_name_is_exit_2(self, capsys):
        assert repro_main(["fleet", "--phases", "nope"]) == 2
        assert "fleet error" in capsys.readouterr().out

    def test_workload_and_phases_are_mutually_exclusive(self, capsys):
        args = ["fleet", "--workload", "storm",
                "--phases", "rotation-storm"]
        assert repro_main(args) == 2
        assert "mutually exclusive" in capsys.readouterr().out

    def test_missing_workload_file_is_exit_2(self, capsys, tmp_path):
        args = ["fleet", "--workload", str(tmp_path / "nope.json")]
        assert repro_main(args) == 2
        assert "fleet error" in capsys.readouterr().out


class TestWorkloadCli:
    def test_list_names_both_registries(self, capsys):
        assert repro_main(["workload", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("default", "storm", "idle", "config-churn",
                     "calm", "rotation-storm", "diurnal"):
            assert name in out

    def test_show_dumps_canonical_ir(self, capsys):
        assert repro_main(["workload", "show", "storm"]) == 0
        out = capsys.readouterr().out
        assert "workload storm" in out
        assert "config changes" in out

    def test_show_phase_plan_describes_the_plan(self, capsys):
        assert repro_main(["workload", "show", "rotation-storm"]) == 0
        out = capsys.readouterr().out
        assert "plan rotation-storm" in out
        assert "phase 0" in out

    def test_show_writes_a_loadable_ir_file(self, capsys, tmp_path):
        from repro.workload.codec import load_workload
        from repro.workload.generate import device_workload
        from repro.workload.library import WORKLOADS

        path = tmp_path / "ir.json"
        args = ["workload", "show", "idle", "--seed", "9",
                "--member", "3", "-o", str(path)]
        assert repro_main(args) == 0
        capsys.readouterr()
        assert load_workload(path) == device_workload(
            WORKLOADS["idle"], 9, 3)

    def test_show_unknown_name_lists_candidates(self, capsys):
        assert repro_main(["workload", "show", "strom"]) == 2
        assert "storm" in capsys.readouterr().out

    def test_record_compiles_a_traced_session(self, capsys, tmp_path):
        from repro.workload.codec import load_workload

        path = tmp_path / "recorded.json"
        args = ["workload", "record", "--seed", "7", "-o", str(path)]
        assert repro_main(args) == 0
        out = capsys.readouterr().out
        assert "ops compiled from" in out
        recorded = load_workload(path)
        assert recorded.config_changes() > 0

    def test_record_rejects_unknown_policy(self, capsys):
        args = ["workload", "record", "--policy", "nope"]
        assert repro_main(args) == 2
        capsys.readouterr()

    def test_no_subcommand_prints_usage(self, capsys):
        assert repro_main(["workload"]) == 2
        assert "usage" in capsys.readouterr().out

    def test_unknown_subcommand_is_exit_2(self, capsys):
        assert repro_main(["workload", "nope"]) == 2
        capsys.readouterr()


class TestTraceCli:
    def test_trace_demo_writes_verified_chrome_trace(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "demo.json"
        assert repro_main(["trace", "demo", "-o", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "replay check OK" in printed
        document = json.loads(out_path.read_text())
        assert document["otherData"]["span_count"] > 0
        categories = set(document["otherData"]["categories"])
        assert {"scheduler", "looper", "lifecycle", "atms", "ipc",
                "migration"} <= categories

    def test_trace_engine_experiment_with_a_worker_pool(self, capsys,
                                                        tmp_path):
        # With two workers run_batch would send fig7's calls to a pool,
        # whose systems the trace session never sees; a traced batch
        # runs in-process instead.
        import json

        from repro import engine

        out_path = tmp_path / "fig7.json"
        previous = engine.configure(jobs=2)
        try:
            assert repro_main(["trace", "fig7", "-o", str(out_path)]) == 0
        finally:
            engine.restore(previous)
        printed = capsys.readouterr().out
        assert "across 54 run(s)" in printed
        assert "replay check OK" in printed
        assert json.loads(out_path.read_text())["otherData"]["span_count"] > 0

    def test_trace_no_verify_skips_the_replay(self, capsys, tmp_path):
        out_path = tmp_path / "demo.json"
        args = ["trace", "demo", "-o", str(out_path), "--no-verify"]
        assert repro_main(args) == 0
        printed = capsys.readouterr().out
        assert "replay check" not in printed
        assert out_path.exists()

    def test_trace_without_target_is_usage_error(self, capsys):
        assert repro_main(["trace"]) == 2
        assert "traceable targets" in capsys.readouterr().out

    def test_trace_unknown_target(self, capsys):
        assert repro_main(["trace", "nope"]) == 2
        assert "unknown command 'nope'" in capsys.readouterr().out

    def test_trace_output_flag_needs_a_path(self, capsys):
        assert repro_main(["trace", "demo", "-o"]) == 2
        assert "needs a path" in capsys.readouterr().out


class TestHuntCli:
    def test_hunt_runs_and_writes_canonical_report(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "hunt.json"
        args = ["hunt", "--apps", "6", "--jobs", "1", "--no-cache",
                "-o", str(out_path)]
        assert repro_main(args) == 0
        printed = capsys.readouterr().out
        assert "generated apps" in printed
        assert "simulator bugs: none" in printed
        report = json.loads(out_path.read_text())
        assert report["hunt"]["apps"] == 6
        assert report["simulator_bugs"] == []
        assert set(report["by_policy"]) == {
            "android10", "rchdroid", "runtimedroid"}

    def test_hunt_rules_lists_the_catalog(self, capsys):
        assert repro_main(["hunt", "rules"]) == 0
        printed = capsys.readouterr().out
        for rule in ("bare-field-state", "missing-on-save",
                     "stale-async-ref", "mid-migration-write"):
            assert rule in printed

    def test_unknown_subcommand_gets_a_hint(self, capsys):
        assert repro_main(["hunt", "rulez"]) == 2
        out = capsys.readouterr().out
        assert "unknown command 'rulez'" in out
        assert "did you mean 'rules'" in out

    def test_unknown_flag_exits_2_with_usage(self, capsys):
        assert repro_main(["hunt", "--frobnicate"]) == 2
        out = capsys.readouterr().out
        assert "unexpected argument '--frobnicate'" in out
        assert "usage" in out

    def test_unknown_policy_gets_a_hint(self, capsys):
        assert repro_main(["hunt", "--policy", "androld10"]) == 2
        out = capsys.readouterr().out
        assert "unknown command 'androld10'" in out
        assert "did you mean 'android10'" in out

    def test_option_missing_its_value_exits_2(self, capsys):
        assert repro_main(["hunt", "--apps"]) == 2
        assert "missing value" in capsys.readouterr().out

    def test_bad_apps_value_exits_2(self, capsys):
        assert repro_main(["hunt", "--apps", "several"]) == 2
        assert "bad option value" in capsys.readouterr().out

    def test_daemon_rejects_local_only_flags(self, capsys):
        args = ["hunt", "--daemon", "http://127.0.0.1:1",
                "--jobs", "2", "--no-cache"]
        assert repro_main(args) == 2
        out = capsys.readouterr().out
        assert "--jobs" in out
        assert "--no-cache" in out

    def test_unreachable_daemon_falls_back_in_process(
            self, capsys, tmp_path):
        out_path = tmp_path / "hunt.json"
        args = ["hunt", "--apps", "4", "--daemon", "http://127.0.0.1:1",
                "-o", str(out_path)]
        assert repro_main(args) == 0
        assert "generated apps" in capsys.readouterr().out
        assert out_path.exists()


class TestOneOptionSchema:
    """Every command parses through ``repro.options``: one ``--jobs``
    rule, one set of messages, usage lines generated from the schema."""

    JOBS_COMMANDS = (["fleet"], ["hunt"], ["fig12"], ["serve"])

    @pytest.mark.parametrize("command", JOBS_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("value", ["0", "-2", "many"])
    def test_jobs_needs_a_worker_count_or_auto(self, capsys, command, value):
        assert repro_main([*command, "--jobs", value]) == 2
        out = capsys.readouterr().out
        assert ("bad option value: --jobs must be a worker count or 'auto', "
                f"got {value!r}") in out
        assert "did you mean" not in out

    @pytest.mark.parametrize("command", JOBS_COMMANDS, ids=" ".join)
    def test_jobs_typo_gets_the_hint_everywhere(self, capsys, command):
        assert repro_main([*command, "--jobs", "atuo"]) == 2
        assert "did you mean 'auto'?" in capsys.readouterr().out

    @pytest.mark.parametrize("command", JOBS_COMMANDS, ids=" ".join)
    def test_jobs_missing_its_value(self, capsys, command):
        assert repro_main([*command, "--jobs"]) == 2
        assert "missing value for the last option" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["--jobs", "auto"], ["--jobs", "0"], ["--devices", "many"],
        ["fleet", "--devices", "0"],
    ], ids=" ".join)
    def test_bench_engine_counts_exit_2_without_a_traceback(
            self, capsys, args):
        assert repro_main(["bench-engine", *args]) == 2
        assert "bad option value" in capsys.readouterr().err

    def test_help_lists_every_commands_usage(self, capsys):
        from repro.options import COMMANDS, usage

        assert repro_main(["--help"]) == 0
        out = capsys.readouterr().out
        for name, command in COMMANDS.items():
            if command.prog is not None:
                assert usage(name) in out, name

    def test_usage_is_generated_from_the_schema(self, capsys):
        assert repro_main(["oracle", "--bogus"]) == 2
        out = capsys.readouterr().out
        assert "unexpected argument '--bogus'" in out
        assert "usage: python -m repro oracle <app> [--policy NAME]..." in out

    def test_fleet_daemon_rejects_local_only_flags(self, capsys):
        args = ["fleet", "--daemon", "http://127.0.0.1:1", "--stats",
                "--checkpoint", "x.ckpt", "--checkpoint-every", "2"]
        assert repro_main(args) == 2
        out = capsys.readouterr().out
        assert ("do not combine with --daemon: --checkpoint, "
                "--checkpoint-every, --stats") in out


def test_readme_quickstart_snippet_executes():
    """The README's quickstart code block must actually run."""
    import re
    from pathlib import Path

    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert blocks, "README lost its quickstart block"
    exec(compile(blocks[0], "README-quickstart", "exec"), {})
