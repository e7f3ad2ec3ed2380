"""The pooled fleet coordinator: a dead worker, and ``--stats`` counters.

``run_fleet`` runs shards as ``_run_shard_task`` calls on a
``PersistentPool`` it owns for the call.  A worker killed mid-run must
end the run with a typed ``FleetError`` and leave every folded shard in
the checkpoint, so a resume gives the serial bytes.  Each pool task
reports its own counter change; the coordinator adds the other
processes' changes to its own, on processes and on the pool's thread
fallback alike.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import signal
import sys
import threading

import pytest

import repro.fleet.run as fleet_run
from repro.engine.fingerprint import fingerprint
from repro.engine.snapshots import SnapshotStore
from repro.errors import FleetError
from repro.fleet.checkpoint import load_checkpoint
from repro.fleet.faults import FaultPlan
from repro.fleet.run import (
    FleetPlan,
    FleetSpec,
    _load_worker_template,
    _reset_template_cache,
    plan_shards,
    run_fleet,
    template_cache_stats,
)

KILL_SPEC = FleetSpec(devices_per_cell=4, shard_size=2)
STATS_SPEC = FleetSpec(devices_per_cell=6, shard_size=2,
                       faults=FaultPlan.uniform(0.25), oracle_rate=0.5)

needs_fork = pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the patched shard body reaches workers by fork",
)


def _report_without_cache(result) -> str:
    report = result.report()
    report.pop("cache")
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


@needs_fork
class TestDeadWorker:
    def test_typed_error_and_checkpoint_keeps_every_fold(
            self, tmp_path, monkeypatch):
        serial = run_fleet(KILL_SPEC, jobs=1).to_json()
        path = str(tmp_path / "fleet.ckpt")
        coordinator = os.getpid()
        real_run_shard = fleet_run._run_shard
        real_fold = FleetPlan.fold
        folded: list[int] = []

        def killing_run_shard(spec, shard, *args):
            if shard.shard_id == 5 and os.getpid() != coordinator:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run_shard(spec, shard, *args)

        def recording_fold(plan, shard_id, outcome):
            real_fold(plan, shard_id, outcome)
            folded.append(shard_id)

        monkeypatch.setattr(fleet_run, "_run_shard", killing_run_shard)
        monkeypatch.setattr(FleetPlan, "fold", recording_fold)
        with pytest.raises(FleetError, match=r"shards \[[^]]*\b5\b"):
            run_fleet(KILL_SPEC, jobs=2, checkpoint_path=path)
        monkeypatch.undo()

        checkpoint = load_checkpoint(path, fingerprint(KILL_SPEC),
                                     len(plan_shards(KILL_SPEC)))
        assert checkpoint is not None
        assert sorted(checkpoint.completed) == sorted(folded)
        assert 5 not in checkpoint.completed
        resumed = run_fleet(KILL_SPEC, jobs=2, checkpoint_path=path)
        assert resumed.to_json() == serial

    def test_cli_reports_the_error_and_exits_2(
            self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main as repro_main

        coordinator = os.getpid()
        real_run_shard = fleet_run._run_shard

        def killing_run_shard(spec, shard, *args):
            if os.getpid() != coordinator:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run_shard(spec, shard, *args)

        monkeypatch.setattr(fleet_run, "_run_shard", killing_run_shard)
        assert repro_main(["fleet", "--devices", "4", "--shard-size", "2",
                           "--jobs", "2"]) == 2
        assert "fleet error: a fleet worker died" in capsys.readouterr().out


class TestPooledStats:
    """The ``cache`` counters of a pooled run.  Which worker takes
    which shard varies, so the per-worker counts are bounded, not
    pinned."""

    def _pooled(self):
        _reset_template_cache()
        try:
            return run_fleet(STATS_SPEC, jobs=2, collect_stats=True)
        finally:
            _reset_template_cache()

    def test_process_pool(self):
        serial = run_fleet(STATS_SPEC, jobs=1).to_json()
        result = self._pooled()
        cells = len(STATS_SPEC.cells())
        stats = result.cache_stats
        assert _report_without_cache(result) == serial
        assert stats["captures"] == cells
        assert stats["rebuilds"] == 0
        assert 1 <= stats["workers"] <= 2
        assert stats["disk_reads"] == stats["templates_cached"]
        assert cells <= stats["disk_reads"] <= stats["workers"] * cells

    def test_thread_fallback(self, monkeypatch):
        serial = run_fleet(STATS_SPEC, jobs=1).to_json()

        def no_processes(*args, **kwargs):
            raise OSError("no multiprocessing on this host")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_processes)
        result = self._pooled()
        cells = len(STATS_SPEC.cells())
        stats = result.cache_stats
        assert _report_without_cache(result) == serial
        assert stats["captures"] == cells
        assert stats["rebuilds"] == 0
        assert stats["templates_cached"] == cells
        # Two threads can both miss one key and both read it from disk.
        assert stats["disk_reads"] >= stats["templates_cached"]


class TestTemplateCacheUnderThreads:
    def test_shared_cache_and_counters_survive_contention(
            self, monkeypatch):
        """Thread-fallback shard tasks share the per-process template
        cache: with eviction running, no task raises and no disk read
        goes uncounted."""
        reads: list[str] = []

        def read_disk(store, key):
            reads.append(key)
            return object()

        monkeypatch.setattr(SnapshotStore, "_read_disk", read_disk)
        monkeypatch.setattr(fleet_run, "_TEMPLATE_CACHE_CAP", 2)
        errors: list[str] = []

        def load_many():
            try:
                for i in range(5000):
                    _load_worker_template("root", f"key-{i % 3}", None, 0)
            except Exception as error:  # collected for the assertion
                errors.append(repr(error))

        _reset_template_cache()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load_many)
                       for _ in range(2 * (os.cpu_count() or 1) + 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            stats = template_cache_stats()
            assert stats["disk_reads"] == len(reads)
            assert stats["templates_cached"] == 2
        finally:
            sys.setswitchinterval(interval)
            _reset_template_cache()
