"""bench-engine: report structure, acceptance checks, CLI parsing."""

import json
import os
import subprocess

import pytest

from repro.engine import bench
from repro.harness.requests import _REQUEST_BUILDERS


def _snapshot_section(*, identical=True):
    return {
        "probes": {
            "runs": 48,
            "seconds": {"serial": 1.0, "forked": 0.4,
                        "forked_verified": 0.6},
            "speedup_vs_serial": {"forked": 2.5, "forked_verified": 1.67},
            "identical_to_serial": {"forked": identical,
                                    "forked_verified": identical},
        }
    }


def _report(*, identical=True, warm_memory=0.01, warm_disk=0.02, serial=1.0):
    return {
        "bench": "repro.engine",
        "host": {"cpu_count": 4, "python": "3.11", "platform": "test"},
        "jobs": 4,
        "experiments": {
            "fig14": {
                "runs": 118,
                "seconds": {
                    "serial": serial,
                    "parallel": 0.6,
                    "cached_cold": 1.1,
                    "cached_warm_memory": warm_memory,
                    "cached_warm_disk": warm_disk,
                },
                "speedup_vs_serial": {
                    "parallel": 1.67,
                    "cached_warm_memory": 100.0,
                    "cached_warm_disk": 50.0,
                },
                "cache_stats": {},
                "identical_to_serial": {
                    "parallel": identical,
                    "cached_cold": identical,
                    "cached_warm_memory": identical,
                    "cached_warm_disk": identical,
                },
            }
        },
    }


class TestCheckReport:
    def test_good_report_passes(self):
        assert bench.check_report(_report()) == []

    def test_divergent_results_fail(self):
        failures = bench.check_report(_report(identical=False))
        assert any("differ from serial" in failure for failure in failures)

    def test_slow_warm_cache_fails(self):
        failures = bench.check_report(_report(warm_memory=2.0))
        assert any("not faster than" in failure for failure in failures)

    def test_slow_disk_tier_fails(self):
        failures = bench.check_report(_report(warm_disk=2.0))
        assert failures

    def test_divergent_forked_results_fail(self):
        report = _report()
        report["snapshot"] = _snapshot_section(identical=False)
        failures = bench.check_report(report)
        assert any("snapshot/probes" in failure for failure in failures)

    def test_identical_forked_results_pass(self):
        report = _report()
        report["snapshot"] = _snapshot_section()
        assert bench.check_report(report) == []


class TestReportOutput:
    def test_write_report_is_valid_json(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        bench.write_report(_report(), str(path))
        loaded = json.loads(path.read_text())
        assert loaded["experiments"]["fig14"]["runs"] == 118

    def test_format_report_mentions_host_and_identity(self):
        text = bench.format_report(_report())
        assert "cpus=4" in text
        assert "byte-identical to serial: yes" in text
        assert "fig14" in text

    def test_format_report_flags_divergence(self):
        text = bench.format_report(_report(identical=False))
        assert "byte-identical to serial: NO" in text

    def test_format_report_covers_the_snapshot_mode(self):
        report = _report()
        report["snapshot"] = _snapshot_section()
        text = bench.format_report(report)
        assert "snapshot/probes" in text
        assert "2.5x" in text


class TestRequestBuilders:
    def test_fig14_builder_covers_both_policies(self):
        requests = _REQUEST_BUILDERS["fig14"]()
        assert len(requests) == 118
        assert {request.policy for request in requests} \
            == {"android10", "rchdroid"}

    def test_table5_builder_covers_the_full_corpus(self):
        requests = _REQUEST_BUILDERS["table5"]()
        assert len(requests) == 200
        assert {request.kind for request in requests} == {"issue"}

    def test_probes_builder_is_two_prefix_groups(self):
        requests = _REQUEST_BUILDERS["probes"]()
        assert {request.kind for request in requests} == {"probe"}
        prefixes = {request.prefix_key() for request in requests}
        assert len(prefixes) == 2
        assert len({request.cache_key() for request in requests}) \
            == len(requests)


def _phases_section(*, identical=True, stock_asym=7.5, fixed_asym=8.4,
                    stock_storm_crash=0.52, stock_calm_crash=0.12,
                    fixed_storm_crash=0.0):
    def rows(per_device_scale, stock_crash):
        return {
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

    storm = rows(True, stock_storm_crash)
    idle = rows(False, stock_calm_crash)
    return {
        "devices": 180,
        "storm_plan": "rotation-storm",
        "idle_plan": "calm",
        "plans": {"rotation-storm": storm, "calm": idle},
        "identical_across_jobs": {"rotation-storm": identical,
                                  "calm": identical},
        "asymmetry": {
            policy: round(
                storm[policy]["handling_ms_per_device"]
                / idle[policy]["handling_ms_per_device"], 2)
            for policy in storm
        },
    }


def _fleet_report(*, identical=True, spawn_cold=0.4, spawn_forked=0.1,
                  rss_small=25.0, rss_large=27.0,
                  resume_identical=True, phases=None):
    return {
        "bench": "repro.fleet",
        "host": {"cpu_count": 4, "python": "3.11", "platform": "test"},
        "jobs": 4,
        "fleet": {
            "devices": 360,
            "cells": 9,
            "shard_size": 32,
            "spawn": {
                "cold_s": spawn_cold,
                "forked_s": spawn_forked,
                "speedup": round(spawn_cold / spawn_forked, 2),
            },
            "seconds": {"serial": 1.0, "sharded": 0.5, "cold_setup": 1.2},
            "speedup_vs_serial": {"sharded": 2.0},
            "identical_to_serial": {"sharded": identical,
                                    "cold_setup": identical},
        },
        "scaling": [
            {"devices": 360, "jobs": 1, "seconds": 0.8,
             "rss_mb": rss_small, "ok": True},
            {"devices": 5760, "jobs": 1, "seconds": 12.0,
             "rss_mb": rss_large, "ok": True},
        ],
        "phases": phases if phases is not None else _phases_section(),
        "resume": {"devices": 2000, "jobs": 2, "killed_mid_run": True,
                   "resume_exit": 0, "identical": resume_identical},
    }


class TestCheckFleetReport:
    def test_good_report_passes(self):
        assert bench.check_fleet_report(_fleet_report()) == []

    def test_divergent_results_fail(self):
        failures = bench.check_fleet_report(_fleet_report(identical=False))
        assert any("differs from serial" in failure for failure in failures)

    def test_slow_forked_spawn_fails(self):
        failures = bench.check_fleet_report(
            _fleet_report(spawn_cold=0.1, spawn_forked=0.4))
        assert any("not faster than" in failure for failure in failures)

    def test_missing_scaling_curve_fails(self):
        report = _fleet_report()
        del report["scaling"]
        failures = bench.check_fleet_report(report)
        assert any("scaling curve missing" in failure
                   for failure in failures)

    def test_unbounded_rss_growth_fails(self):
        failures = bench.check_fleet_report(
            _fleet_report(rss_small=25.0, rss_large=250.0))
        assert any("RSS grows" in failure for failure in failures)

    def test_failed_scaling_point_fails(self):
        report = _fleet_report()
        report["scaling"][0] = {"devices": 360, "jobs": 1, "ok": False,
                                "error": "boom"}
        failures = bench.check_fleet_report(report)
        assert any("point devices=360" in failure for failure in failures)

    def test_divergent_resume_fails(self):
        failures = bench.check_fleet_report(
            _fleet_report(resume_identical=False))
        assert any("resumed report differs" in failure
                   for failure in failures)

    def test_missing_phases_section_fails(self):
        report = _fleet_report()
        del report["phases"]
        failures = bench.check_fleet_report(report)
        assert any("phases section missing" in failure
                   for failure in failures)

    def test_phased_jobs_divergence_fails(self):
        failures = bench.check_fleet_report(
            _fleet_report(phases=_phases_section(identical=False)))
        assert any("differs across job counts" in failure
                   for failure in failures)

    def test_flat_storm_asymmetry_fails(self):
        failures = bench.check_fleet_report(_fleet_report(
            phases=_phases_section(stock_asym=0.9)))
        assert any("asymmetry" in failure for failure in failures)

    def test_stock_crash_rate_must_climb_under_the_storm(self):
        failures = bench.check_fleet_report(_fleet_report(
            phases=_phases_section(stock_storm_crash=0.1,
                                   stock_calm_crash=0.12)))
        assert any("did not climb" in failure for failure in failures)

    def test_transparent_policy_crashing_like_stock_fails(self):
        failures = bench.check_fleet_report(_fleet_report(
            phases=_phases_section(fixed_storm_crash=0.6)))
        assert any("not below" in failure for failure in failures)

    def test_format_mentions_spawn_and_identity(self):
        text = bench.format_fleet_report(_fleet_report())
        assert "spawn" in text
        assert "byte-identical to serial: yes" in text
        assert "scaling" in text
        assert "phases" in text
        assert "asymmetry" in text
        assert "resume" in text

    def test_format_flags_divergence(self):
        text = bench.format_fleet_report(_fleet_report(identical=False))
        assert "byte-identical to serial: NO" in text


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
        assert result["identical"]
        with pytest.raises(ProcessLookupError):
            os.killpg(victims[0].pid, 0)


class TestCliParsing:
    def test_unknown_argument_exits_2(self, capsys):
        assert bench.main(["--frobnicate"]) == 2
        assert "unknown argument" in capsys.readouterr().err

    def test_fleet_mode_rejects_unknown_arguments(self, capsys):
        assert bench.main(["fleet", "--frobnicate"]) == 2
        assert "unknown argument" in capsys.readouterr().err
