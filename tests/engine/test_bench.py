"""bench-engine: the shape runner, every mode's gates, report output, CLI."""

import json
import os
import subprocess

import pytest

from repro.engine import bench
from repro.engine.batch import run_batch
from repro.harness.experiments import fig7, fig8, fig14, table5

HOST = {"cpu_count": 4, "python": "3.11", "platform": "test"}


def _shapes(reference, seconds, identical=None):
    """A section as :func:`bench.run_shapes` writes it."""
    section = {
        "reference": reference,
        "seconds": seconds,
        "speedup": {name: round(seconds[reference] / value, 2)
                    for name, value in seconds.items()
                    if name != reference},
    }
    if identical is not None:
        section["identical"] = identical
    return section


def _snapshot_section(*, identical=True):
    return {"runs": 48, **_shapes(
        "serial", {"serial": 1.0, "forked": 0.4, "forked_verified": 0.6},
        {"forked": identical, "forked_verified": identical})}


def _report(*, identical=True, warm_memory=0.01, warm_disk=0.02, serial=1.0):
    return {
        "bench": "engine",
        "host": HOST,
        "jobs": 4,
        "ok": True,
        "experiments": {
            "fig14": {
                "runs": 118,
                **_shapes("serial", {
                    "serial": serial,
                    "parallel": 0.6,
                    "cached_cold": 1.1,
                    "cached_warm_memory": warm_memory,
                    "cached_warm_disk": warm_disk,
                }, {
                    "parallel": identical,
                    "cached_cold": identical,
                    "cached_warm_memory": identical,
                    "cached_warm_disk": identical,
                }),
                "cache_stats": {},
            }
        },
        "snapshot": _snapshot_section(),
    }


class TestCheckReport:
    def test_good_report_passes(self):
        assert bench.check(_report()) == []

    def test_divergent_results_fail(self):
        failures = bench.check(_report(identical=False))
        assert ("experiments/fig14: parallel differs from serial"
                in failures)

    def test_slow_warm_cache_fails(self):
        failures = bench.check(_report(warm_memory=2.0))
        assert any("cached_warm_memory" in failure
                   and "not 1.0x faster than serial" in failure
                   for failure in failures)

    def test_slow_disk_tier_fails(self):
        failures = bench.check(_report(warm_disk=2.0))
        assert any("cached_warm_disk" in failure for failure in failures)

    def test_divergent_forked_results_fail(self):
        report = _report()
        report["snapshot"] = _snapshot_section(identical=False)
        failures = bench.check(report)
        assert "snapshot: forked differs from serial" in failures

    def test_identical_forked_results_pass(self):
        report = _report()
        report["snapshot"] = _snapshot_section()
        assert bench.check(report) == []


class TestReportOutput:
    def test_write_report_is_valid_json(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        bench.write_report(_report(), str(path))
        loaded = json.loads(path.read_text())
        assert loaded["experiments"]["fig14"]["runs"] == 118

    def test_format_report_mentions_host_and_identity(self):
        text = bench.render(_report())
        assert "cpus=4" in text
        assert "byte-identical to serial: yes" in text
        assert "fig14" in text

    def test_format_report_flags_divergence(self):
        text = bench.render(_report(identical=False))
        assert "byte-identical to serial: NO" in text

    def test_format_report_covers_the_snapshot_mode(self):
        text = bench.render(_report())
        assert "snapshot: runs=48" in text
        assert "forked=2.5" in text


class TestRequestBuilders:
    def test_fig14_builder_covers_both_policies(self):
        requests = fig14.requests()
        assert len(requests) == 118
        assert {request.policy for request in requests} \
            == {"android10", "rchdroid"}

    def test_table5_builder_covers_the_full_corpus(self):
        requests = table5.requests()
        assert len(requests) == 200
        assert {request.kind for request in requests} == {"issue"}

    def test_fig8_runs_fig7s_request_list(self):
        assert fig8.requests is fig7.requests

    def test_probes_builder_is_two_prefix_groups(self):
        requests = bench.probe_storm_requests()
        assert {request.kind for request in requests} == {"probe"}
        prefixes = {request.prefix_key() for request in requests}
        assert len(prefixes) == 2
        assert len({request.cache_key() for request in requests}) \
            == len(requests)


class TestShapeRunner:
    def test_every_shape_is_timed_and_a_differing_shape_is_flagged(self):
        requests = fig14.requests()[:4]
        shapes = {
            "serial": lambda: run_batch(requests, jobs=1, cache=False),
            "again": lambda: run_batch(requests, jobs=1, cache=False),
            "reversed": lambda: run_batch(requests[::-1], jobs=1,
                                          cache=False),
            "timed_only": lambda: None,
        }
        section, outputs = bench.run_shapes(shapes, bench._canonical,
                                            repeats={"again": 2})
        assert section["reference"] == "serial"
        assert list(section["seconds"]) == list(shapes)
        assert all(section["seconds"][name] > 0
                   for name in ("serial", "again", "reversed"))
        assert set(section["speedup"]) == {"again", "reversed",
                                           "timed_only"}
        assert section["identical"] == {"again": True, "reversed": False}
        assert len(outputs["serial"]) == 4


def _phases_section(*, identical=True, stock_asym=7.5, fixed_asym=8.4,
                    stock_storm_crash=0.52, stock_calm_crash=0.12,
                    fixed_storm_crash=0.0):
    def plan(per_device_scale, stock_crash):
        policies = {
            "android10": {
                "handling_events": 800, "handling_mean_ms": 150.0,
                "handling_ms_per_device": round(
                    280.0 * (stock_asym if per_device_scale else 1.0), 1),
                "crash_rate": stock_crash, "data_loss_rate": 0.98,
            },
            "rchdroid": {
                "handling_events": 950, "handling_mean_ms": 92.0,
                "handling_ms_per_device": round(
                    175.0 * (fixed_asym if per_device_scale else 1.0), 1),
                "crash_rate": (fixed_storm_crash if per_device_scale
                               else 0.0),
                "data_loss_rate": 0.33,
            },
        }
        return {**_shapes("serial", {"serial": 1.0, "sharded": 0.6},
                          {"sharded": identical}),
                "policies": policies}

    storm = plan(True, stock_storm_crash)
    idle = plan(False, stock_calm_crash)
    return {
        "devices": 180,
        "storm_plan": "rotation-storm",
        "idle_plan": "calm",
        "plans": {"rotation-storm": storm, "calm": idle},
        "asymmetry": {
            policy: round(
                storm["policies"][policy]["handling_ms_per_device"]
                / idle["policies"][policy]["handling_ms_per_device"], 2)
            for policy in storm["policies"]
        },
    }


def _fleet_report(*, identical=True, spawn_cold=0.4, spawn_forked=0.1,
                  rss_small=25.0, rss_large=27.0,
                  resume_identical=True, phases=None):
    return {
        "bench": "fleet",
        "host": HOST,
        "jobs": 4,
        "ok": True,
        "spawn": {"devices": 360, "cells": 9, **_shapes(
            "cold", {"cold": spawn_cold, "forked": spawn_forked})},
        "end_to_end": {"devices": 360, "shard_size": 32, **_shapes(
            "serial", {"serial": 1.0, "sharded": 0.5, "cold_setup": 1.2},
            {"sharded": identical, "cold_setup": identical})},
        "scaling": [
            {"devices": 360, "jobs": 1, "seconds": 0.8,
             "rss_mb": rss_small, "ok": True},
            {"devices": 5760, "jobs": 1, "seconds": 12.0,
             "rss_mb": rss_large, "ok": True},
        ],
        "phases": phases if phases is not None else _phases_section(),
        "resume": {"devices": 2000, "jobs": 2, "killed_mid_run": True,
                   "resume_exit": 0, **_shapes(
                       "uninterrupted",
                       {"uninterrupted": 3.0, "resumed": 4.0},
                       {"resumed": resume_identical})},
    }


class TestCheckFleetReport:
    def test_good_report_passes(self):
        assert bench.check(_fleet_report()) == []

    def test_divergent_results_fail(self):
        failures = bench.check(_fleet_report(identical=False))
        assert "end_to_end: sharded differs from serial" in failures

    def test_slow_forked_spawn_fails(self):
        failures = bench.check(
            _fleet_report(spawn_cold=0.1, spawn_forked=0.4))
        assert any(failure.startswith("spawn: forked")
                   and "not 1.0x faster than cold" in failure
                   for failure in failures)

    def test_missing_scaling_curve_fails(self):
        report = _fleet_report()
        del report["scaling"]
        failures = bench.check(report)
        assert "scaling section missing" in failures

    def test_unbounded_rss_growth_fails(self):
        assert bench.check(_fleet_report(rss_small=25.0,
                                         rss_large=75.0)) == []
        failures = bench.check(
            _fleet_report(rss_small=25.0, rss_large=75.1))
        assert any("RSS grows" in failure and "bound 3.0x" in failure
                   for failure in failures)

    def test_failed_scaling_point_fails(self):
        report = _fleet_report()
        report["scaling"][0] = {"devices": 360, "jobs": 1, "ok": False,
                                "error": "boom"}
        failures = bench.check(report)
        assert "scaling: point devices=360 jobs=1 failed (boom)" in failures

    def test_divergent_resume_fails(self):
        failures = bench.check(_fleet_report(resume_identical=False))
        assert "resume: resumed differs from uninterrupted" in failures

    def test_missing_phases_section_fails(self):
        report = _fleet_report()
        del report["phases"]
        failures = bench.check(report)
        assert "phases section missing" in failures

    def test_phased_jobs_divergence_fails(self):
        failures = bench.check(
            _fleet_report(phases=_phases_section(identical=False)))
        assert ("phases/plans/rotation-storm: sharded differs from serial"
                in failures)

    def test_flat_storm_asymmetry_fails(self):
        failures = bench.check(_fleet_report(
            phases=_phases_section(stock_asym=0.9)))
        assert any("asymmetry" in failure for failure in failures)

    def test_stock_crash_rate_must_climb_under_the_storm(self):
        failures = bench.check(_fleet_report(
            phases=_phases_section(stock_storm_crash=0.1,
                                   stock_calm_crash=0.12)))
        assert any("did not climb" in failure for failure in failures)

    def test_transparent_policy_crashing_like_stock_fails(self):
        failures = bench.check(_fleet_report(
            phases=_phases_section(fixed_storm_crash=0.6)))
        assert any("not below" in failure for failure in failures)

    def test_format_mentions_spawn_and_identity(self):
        text = bench.render(_fleet_report())
        assert "spawn" in text
        assert "byte-identical to serial: yes" in text
        assert "scaling" in text
        assert "phases" in text
        assert "asymmetry" in text
        assert "byte-identical to uninterrupted: yes" in text

    def test_format_flags_divergence(self):
        text = bench.render(_fleet_report(identical=False))
        assert "byte-identical to serial: NO (sharded, cold_setup)" in text

    def test_a_report_without_resume_passes(self):
        report = _fleet_report()
        del report["resume"]
        assert bench.check(report) == []


SERVE_IDENTITIES = ("daemon_first", "daemon_warm", "concurrent_pair",
                    "after_cancel")


def _serve_report(*, warm=0.05, hits=27, cancelled=True, exit_code=0,
                  differs=()):
    return {
        "bench": "serve",
        "host": HOST,
        "jobs": 1,
        "ok": True,
        "daemon": {
            "devices": 18,
            **_shapes("cold_cli", {
                "cold_cli": 0.3, "daemon_first": 0.14, "daemon_warm": warm,
                "concurrent_pair": 0.12, "cancel_turnaround": 0.01,
                "after_cancel": 0.05,
            }, {name: name not in differs for name in SERVE_IDENTITIES}),
            "warm_template_hits": hits,
            "cancelled_cleanly": cancelled,
            "daemon_exit": exit_code,
        },
    }


class TestCheckServeReport:
    def test_good_report_passes(self):
        assert bench.check(_serve_report()) == []

    @pytest.mark.parametrize("warm,passes", [(0.099, True), (0.101, False)])
    def test_warm_request_three_times_faster_than_the_cli(self, warm,
                                                          passes):
        failures = bench.check(_serve_report(warm=warm))
        assert (failures == []) is passes
        if not passes:
            assert failures == [
                "daemon: daemon_warm (0.101s) not 3.0x faster than "
                "cold_cli (0.3s)"]

    def test_warm_requests_must_reuse_stored_templates(self):
        failures = bench.check(_serve_report(hits=0))
        assert any("did not reuse" in failure for failure in failures)

    @pytest.mark.parametrize("shape", SERVE_IDENTITIES)
    def test_every_daemon_report_matches_the_cli(self, shape):
        failures = bench.check(_serve_report(differs=(shape,)))
        assert failures == [f"daemon: {shape} differs from cold_cli"]

    def test_cancellation_must_end_cleanly(self):
        failures = bench.check(_serve_report(cancelled=False))
        assert failures == [
            "daemon: cancellation did not end in a cancelled event"]

    def test_daemon_must_exit_zero(self):
        failures = bench.check(_serve_report(exit_code=1))
        assert failures == ["daemon: daemon exited 1 after shutdown"]

    def test_an_error_short_circuits_the_gates(self):
        report = _serve_report()
        report["daemon"] = {"error": "cold CLI run failed: boom"}
        assert bench.check(report) == ["daemon: cold CLI run failed: boom"]
        assert "error=cold CLI run failed: boom" in bench.render(report)


HUNT_IDENTITIES = ("cached", "uncached", "uncached_jobs2")


def _hunt_report(*, rate=9000.0, cached=0.5, bugs=0, differs=()):
    return {
        "bench": "hunt",
        "host": HOST,
        "jobs": 2,
        "ok": True,
        "generator": {"apps": 1000, "seconds": 0.1, "apps_per_s": rate},
        "hunt": {
            "apps": 60,
            **_shapes("cold", {"cold": 2.0, "cached": cached,
                               "uncached": 2.0, "uncached_jobs2": 1.5},
                      {name: name not in differs
                       for name in HUNT_IDENTITIES}),
            "suspicions": 40, "search_probes": 300, "shrink_probes": 100,
            "findings": 20, "simulator_bugs": bugs,
        },
    }


class TestCheckHuntReport:
    def test_good_report_passes(self):
        assert bench.check(_hunt_report()) == []

    @pytest.mark.parametrize("rate,passes", [(500.0, True), (499.9, False)])
    def test_generator_rate_floor(self, rate, passes):
        failures = bench.check(_hunt_report(rate=rate))
        assert (failures == []) is passes
        if not passes:
            assert failures == [
                "generator: generator produced 499.9 apps/s (floor 500.0)"]

    @pytest.mark.parametrize("cached,passes", [(0.99, True), (1.01, False)])
    def test_cached_hunt_twice_as_fast(self, cached, passes):
        failures = bench.check(_hunt_report(cached=cached))
        assert (failures == []) is passes
        if not passes:
            assert failures == [
                "hunt: cached (1.01s) not 2.0x faster than cold (2.0s)"]

    @pytest.mark.parametrize("shape", HUNT_IDENTITIES)
    def test_every_hunt_report_matches_the_cold_one(self, shape):
        failures = bench.check(_hunt_report(differs=(shape,)))
        assert failures == [f"hunt: {shape} differs from cold"]

    def test_simulator_bugs_fail(self):
        failures = bench.check(_hunt_report(bugs=1))
        assert failures == ["hunt: hunt flagged 1 simulator bugs"]

    def test_an_error_short_circuits_the_gates(self):
        report = _hunt_report(bugs=3)
        report["hunt"] = {"error": "hunt failed"}
        assert bench.check(report) == ["hunt: hunt failed"]


class TestScalingPoint:
    def test_a_point_is_a_real_fleet_run_with_its_own_peak_rss(
            self, tmp_path):
        point = bench._scaling_point(9, 1, str(tmp_path))
        assert point["ok"]
        # A fleet run's own peak, far below this test process's.
        assert 5.0 < point["rss_mb"] < 200.0

    def test_a_failed_run_reports_its_error(self, tmp_path):
        point = bench._scaling_point(0, 1, str(tmp_path))
        assert not point["ok"]
        assert point["error"] == (
            "bad option value: --devices must be >= 1, got 0")


class TestResumeCheck:
    def test_the_killed_run_leaves_no_process_behind(self, monkeypatch):
        """The SIGKILLed coordinator's pool workers die with it: its
        whole process group is gone once the check returns."""
        started = []

        class RecordingPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append((self, kwargs))

        monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
        result = bench.fleet_resume_check(devices=600, jobs=2)
        victims = [proc for proc, kwargs in started
                   if kwargs.get("start_new_session")]
        assert len(victims) == 1
        assert result["killed_mid_run"]
        assert result["identical"] == {"resumed": True}
        with pytest.raises(ProcessLookupError):
            os.killpg(victims[0].pid, 0)


class TestCliParsing:
    def test_unknown_argument_exits_2(self, capsys):
        assert bench.main(["--frobnicate"]) == 2
        assert "unknown argument" in capsys.readouterr().err

    def test_fleet_mode_rejects_unknown_arguments(self, capsys):
        assert bench.main(["fleet", "--frobnicate"]) == 2
        assert "unknown argument" in capsys.readouterr().err

    @pytest.mark.parametrize("args,mode,flag", [
        (["hunt", "--jobs", "4"], "hunt", "--jobs"),
        (["serve", "--jobs", "2"], "serve", "--jobs"),
        (["--devices", "50"], "engine", "--devices"),
        (["engine", "--resume-check"], "engine", "--resume-check"),
        (["hunt", "--resume-check"], "hunt", "--resume-check"),
        (["--devices", "5", "fleet-cli", "--devices", "9"], "fleet-cli",
         "--devices"),
    ], ids=" ".join)
    def test_an_option_the_mode_does_not_read_exits_2(
            self, capsys, monkeypatch, tmp_path, args, mode, flag):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(bench, "run", None, raising=False)
        assert bench.main(args) == 2
        err = capsys.readouterr().err
        assert f"bench-engine: {mode} does not read {flag}" in err
        assert os.listdir(tmp_path) == []
