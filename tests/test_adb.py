"""Unit tests for the adb-style facade (the artifact's A.5 workflow)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Android10Policy, AndroidSystem, RCHDroidPolicy
from repro.adb import AdbShell, LOG_TAG
from repro.apps import make_benchmark_app


@pytest.fixture
def shell():
    system = AndroidSystem(policy=RCHDroidPolicy())
    app = make_benchmark_app(4)
    system.launch(app)
    return AdbShell(system), system, app


class TestWmSize:
    def test_wm_size_triggers_a_change(self, shell):
        adb, system, app = shell
        out = adb.wm_size("1080x1920")
        assert "1080x1920" in out
        assert len(system.handling_times()) == 1

    def test_wm_size_reset_restores_default(self, shell):
        adb, system, _ = shell
        adb.wm_size("1080x1920")
        adb.wm_size_reset()
        assert system.atms.config.width_px == 1920
        assert len(system.handling_times()) == 2

    def test_artifact_cycle_matches_fig10_workflow(self, shell):
        """A.5: wm size 1080x1920 then wm size reset -> init then flip."""
        adb, system, _ = shell
        adb.wm_size("1080x1920")
        adb.wm_size_reset()
        assert [path for _, path in system.handling_times()] == [
            "init", "flip"
        ]


class TestDumpsysMeminfo:
    def test_shows_total_pss_block(self, shell):
        adb, system, app = shell
        out = adb.dumpsys_meminfo(app.package)
        assert out.startswith("Total PSS by process:")
        assert app.package in out

    def test_reported_kb_matches_ledger(self, shell):
        adb, system, app = shell
        out = adb.dumpsys_meminfo(app.package)
        kb_text = out.splitlines()[1].split("K:")[0].strip().replace(",", "")
        assert int(kb_text) == int(system.memory_of(app.package) * 1024)

    def test_lists_all_processes_without_filter(self):
        system = AndroidSystem(policy=Android10Policy())
        system.launch(make_benchmark_app(1, package="adb.one"))
        system.launch(make_benchmark_app(1, package="adb.two"))
        out = AdbShell(system).dumpsys_meminfo()
        assert "adb.one" in out and "adb.two" in out

    def test_output_is_independent_of_hash_seed(self):
        """Pids come from a stable digest, not the salted ``hash()``."""
        script = (
            "from repro import Android10Policy, AndroidSystem\n"
            "from repro.adb import AdbShell\n"
            "from repro.apps import make_benchmark_app\n"
            "system = AndroidSystem(policy=Android10Policy())\n"
            "for package in ('adb.one', 'adb.two', 'adb.three'):\n"
            "    system.launch(make_benchmark_app(1, package=package))\n"
            "print(AdbShell(system).dumpsys_meminfo())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True,
            ).stdout)
        assert b"(pid " in outputs[0]
        assert outputs[0] == outputs[1]


class TestLogcat:
    def test_zizhan_lines_carry_handling_times(self, shell):
        adb, system, _ = shell
        adb.wm_size("1080x1920")
        adb.wm_size_reset()
        times = adb.handling_times_from_logcat()
        assert times == pytest.approx(
            [ms for ms, _ in system.handling_times()], abs=0.05
        )

    def test_grep_filters(self, shell):
        adb, system, _ = shell
        adb.wm_size("1080x1920")
        assert all(LOG_TAG in line for line in adb.logcat(grep=LOG_TAG))

    def test_crash_appears_as_fatal_exception(self):
        system = AndroidSystem(policy=Android10Policy())
        app = make_benchmark_app(2)
        system.launch(app)
        system.start_async(app)
        system.rotate()
        system.run_until_idle()
        fatal = AdbShell(system).logcat(grep="FATAL EXCEPTION")
        assert len(fatal) == 1
        assert "NullPointerException" in fatal[0]

    def test_lines_are_time_sorted(self, shell):
        adb, system, _ = shell
        adb.wm_size("1080x1920")
        adb.wm_size_reset()
        lines = adb.logcat()
        assert lines == sorted(lines)
