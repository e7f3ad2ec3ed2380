"""Daemon dispatch: experiment and fleet jobs, the pipelined pool, the
job bound.

The daemon keeps ``UNITS_PER_WORKER`` units per worker in the pool (one
running, one queued), so these tests pin what that must not change:
experiment digests equal the in-process batch, faulted and
oracle-sampled fleet reports equal ``run_fleet``, the window never grows
past its bound, a cancel with a queued unit folds nothing and leaves
the daemon usable, and a pool future that comes back cancelled neither
hangs its job nor stalls the pump.  The last class pins the bound on
remembered terminal jobs.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import Future

import pytest

from repro.engine.batch import plan_calls, run_batch
from repro.engine.codec import experiment_digest
from repro.fleet.run import run_fleet
from repro.harness.experiments import ENGINE_EXPERIMENTS, EXPERIMENTS, fig14
from repro.serve import server
from repro.serve.protocol import fleet_spec_from_params
from repro.serve.server import Daemon, _Server

SEED = 0x5EED
FLEET = {"devices": 6, "seed": SEED}
# Same seed, so the same templates, but enough shards that a cancel
# lands while units are still queued.
BIG_FLEET = {"devices": 360, "seed": SEED}


async def _wait(job, timeout: float = 120.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not job.terminal:
        assert asyncio.get_running_loop().time() < deadline, \
            f"{job.job_id} never finished"
        await asyncio.sleep(0.005)


async def _drain(daemon, timeout: float = 120.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while daemon.status()["inflight_units"]:
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.005)


def _watch_window(daemon) -> list[int]:
    """Record the pool's in-flight count as each unit is submitted."""
    seen: list[int] = []
    submit = daemon.pool.submit

    def counting_submit(fn, *args):
        # The unit being submitted is the +1.
        seen.append(daemon.status()["inflight_units"] + 1)
        return submit(fn, *args)

    daemon.pool.submit = counting_submit
    return seen


def _cold_then_warm(tmp_path, name):
    """Run experiment ``name`` twice on a fresh ``Daemon(jobs=1)``;
    returns both ``done`` events and the pool window seen per submit."""
    daemon = Daemon(jobs=1, root=str(tmp_path / "root"))
    seen = _watch_window(daemon)
    params = {"experiment": name, "seed": SEED}

    async def run():
        cold = daemon.submit("experiment", params, "tests")
        await _wait(cold)
        warm = daemon.submit("experiment", params, "tests")
        await _wait(warm)
        return cold.events[-1], warm.events[-1]

    try:
        cold, warm = asyncio.run(run())
    finally:
        daemon.shutdown()
    return cold, warm, seen


class TestExperimentJobs:
    @pytest.mark.parametrize("name", list(ENGINE_EXPERIMENTS))
    def test_every_engine_experiment_matches_the_batch_digest(
            self, tmp_path, name):
        requests = ENGINE_EXPERIMENTS[name].requests(SEED)
        expected = experiment_digest(run_batch(requests, jobs=1,
                                               cache=False))
        cold, warm, _ = _cold_then_warm(tmp_path, name)
        assert cold["event"] == "done" and cold["exit"] == 0
        assert cold["runs"] == len(requests) and cold["cache_hits"] == 0
        assert cold["digest"] == expected
        assert warm["cache_hits"] == warm["runs"] == len(requests)
        assert warm["digest"] == expected

    def test_cold_then_cached_ext_probes_match_the_batch_digest(
            self, tmp_path):
        requests = ENGINE_EXPERIMENTS["ext-probes"].requests(SEED)
        expected = experiment_digest(run_batch(requests, jobs=1,
                                               cache=False))
        calls = plan_calls(requests, range(len(requests)), 1, share=True)
        cold, warm, seen = _cold_then_warm(tmp_path, "ext-probes")
        assert cold["event"] == "done" and cold["exit"] == 0
        assert cold["cache_hits"] == 0
        assert cold["digest"] == expected
        assert warm["cache_hits"] == warm["runs"] == cold["runs"]
        assert warm["digest"] == expected
        # A call's prefix snapshots stay in its memory-only store: no
        # later job could read a disk copy.
        assert not (tmp_path / "root" / "snapshots").exists()
        # The cached repeat never touched the pool; the cold job ran as
        # one planned call per prefix group (one per policy) and kept
        # the pool exactly one unit ahead of its worker.
        assert len(seen) == len(calls) == 3
        assert max(seen) == server.UNITS_PER_WORKER == 2

    @pytest.mark.parametrize("name", [
        "nope", "probes",
        *(name for name in EXPERIMENTS if name not in ENGINE_EXPERIMENTS),
    ])
    def test_experiments_the_daemon_cannot_run_are_a_400(
            self, tmp_path, name):
        class Writer:
            data = b""

            def write(self, chunk):
                self.data += chunk

        daemon = Daemon(jobs=1, root=str(tmp_path / "root"))
        try:
            writer = Writer()
            body = json.dumps({"kind": "experiment",
                               "params": {"experiment": name}})
            asyncio.run(_Server(daemon)._route(
                "POST", "/jobs", body.encode(), writer))
            assert daemon.jobs == {}
        finally:
            daemon.shutdown()
        head, _, reply = writer.data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        error = json.loads(reply)["error"]
        assert error.endswith(
            "; the daemon runs: " + ", ".join(ENGINE_EXPERIMENTS))
        outside = f"experiment {name!r} runs outside the engine"
        assert error.startswith(outside if name in EXPERIMENTS
                                else f"unknown experiment {name!r}")

    def test_cold_fig14_runs_as_planned_calls(self, tmp_path):
        requests = fig14.requests(SEED)
        expected = experiment_digest(run_batch(requests, jobs=1,
                                               cache=False))
        calls = plan_calls(requests, range(len(requests)), 1, share=True)
        daemon = Daemon(jobs=1, root=str(tmp_path / "root"))
        seen = _watch_window(daemon)

        async def run():
            job = daemon.submit("experiment", {"experiment": "fig14"},
                                "tests")
            await _wait(job)
            return job.events[-1]

        try:
            done = asyncio.run(run())
        finally:
            daemon.shutdown()
        assert done["event"] == "done" and done["exit"] == 0
        assert done["runs"] == len(requests) and done["cache_hits"] == 0
        assert done["digest"] == expected
        # 118 lone requests in calls of MAX_CALL_REQUESTS: 8, not 118.
        assert len(seen) == len(calls) == 8
        assert daemon.counters["units_run"] == len(calls)

    def test_cancel_with_two_calls_in_flight(self, tmp_path):
        daemon = Daemon(jobs=1, root=str(tmp_path / "root"))

        async def run():
            job = daemon.submit("experiment", {"experiment": "fig14"},
                                "tests")
            assert len(job.futures) == 2
            assert daemon.status()["inflight_units"] == 2
            assert daemon.cancel(job)
            await _drain(daemon)
            return job

        try:
            job = asyncio.run(run())
            assert job.state == "cancelled"
            assert job.events[-1]["event"] == "cancelled"
            assert not job.futures and job.in_flight == 0
            assert daemon.status()["inflight_units"] == 0
            assert len(daemon.cache) == 0
        finally:
            daemon.shutdown()


FAULTED_FLEET = {"devices": 36, "faults": 0.25, "oracle": 0.5,
                 "shard_size": 2, "seed": SEED}
# At this rate the oracle samples none of the 4 members per cell.
UNSAMPLED_FLEET = {**FAULTED_FLEET, "oracle": 0.01}


class TestFleetJobsMatchTheCli:
    """The daemon folds a fleet's shards as ``run_fleet`` does: the
    final report of a cold and of a warm job equals the serial bytes,
    with faults on, with oracle sessions, and with an oracle rate that
    samples no member."""

    @pytest.mark.parametrize("params", [FAULTED_FLEET, UNSAMPLED_FLEET],
                             ids=["sampled", "unsampled"])
    def test_report_json_equals_run_fleet(self, tmp_path, params):
        expected = run_fleet(fleet_spec_from_params(params),
                             jobs=1).to_json()
        daemon = Daemon(jobs=1, root=str(tmp_path / "root"))

        async def run():
            jobs = []
            for _ in range(2):  # cold templates, then warm
                job = daemon.submit("fleet", params, "tests")
                await _wait(job)
                jobs.append(job)
            return jobs

        try:
            jobs = asyncio.run(run())
        finally:
            daemon.shutdown()
        for job in jobs:
            done = job.events[-1]
            assert done["event"] == "done" and done["exit"] == 0
            assert done["report_json"] == expected
            partials = [event["covered_shards"] for event in job.events
                        if event["event"] == "partial"]
            assert partials == sorted(set(partials))
            assert partials and partials[-1] < done["covered_shards"] == 18
        sessions = json.loads(expected)["oracle"]["sessions"]
        assert (sessions > 0) == (params["oracle"] == 0.5)


class _StubPool:
    """A pool that answers every oracle unit at once with a canned
    report — except the calls listed in ``cancelled``, which come back
    as cancelled futures, and those in ``held``, which never finish."""

    workers = 1
    alive = True
    using_threads = False
    respawns = 0

    def __init__(self, cancelled=(), held=()):
        self.calls = 0
        self.cancelled = set(cancelled)
        self.held = set(held)

    def submit(self, fn, *args):
        self.calls += 1
        future = Future()
        if self.calls in self.cancelled:
            future.cancel()
        elif self.calls not in self.held:
            future.set_result(("{}", "stub", 0))
        return future

    def shutdown(self):
        pass


def _stub_daemon(tmp_path, pool) -> Daemon:
    daemon = Daemon(jobs=1, root=str(tmp_path / "root"))
    daemon.pool = pool
    return daemon


ORACLE = {"app": "fleet.notepad", "seed": SEED}


class TestPipelinedCancellation:
    def test_cancel_with_a_queued_unit_folds_nothing(self, tmp_path):
        reference = run_fleet(fleet_spec_from_params(FLEET),
                              jobs=1).to_json()
        daemon = Daemon(jobs=1, root=str(tmp_path / "root"))

        async def run():
            await _wait(daemon.submit("fleet", FLEET, "tests"))
            big = daemon.submit("fleet", BIG_FLEET, "tests")
            started = next(e for e in big.events if e["event"] == "started")
            assert started["cold_templates"] == 0
            assert daemon.status()["inflight_units"] == 2
            assert len(big.futures) == 2
            assert daemon.cancel(big)
            await _drain(daemon)
            after = daemon.submit("fleet", FLEET, "tests")
            await _wait(after)
            return big, after

        try:
            big, after = asyncio.run(run())
            assert big.state == "cancelled"
            assert big.events[-1]["event"] == "cancelled"
            assert big.fleet.completed == set() and big.fleet.devices == 0
            assert not big.futures and big.in_flight == 0
            assert daemon.status()["inflight_units"] == 0
            assert after.events[-1]["report_json"] == reference
        finally:
            daemon.shutdown()

    def test_cancel_recalls_the_calls_no_worker_took(self, tmp_path):
        daemon = _stub_daemon(tmp_path, _StubPool(held={1, 2}))

        async def run():
            job = daemon.submit("experiment", {"experiment": "fig14"},
                                "tests")
            queued = set(job.futures)
            assert len(queued) == 2
            assert daemon.cancel(job)
            assert all(future.cancelled() for future in queued)
            await _drain(daemon, timeout=10.0)
            return job

        try:
            job = asyncio.run(run())
        finally:
            daemon.shutdown()
        assert job.state == "cancelled" and job.in_flight == 0
        assert job.exp_results == [None] * len(job.exp_results)
        assert daemon.counters["units_run"] == 2


class TestCancelledPoolFuture:
    def test_job_fails_instead_of_hanging_and_the_pump_runs_on(
            self, tmp_path, monkeypatch):
        # One unit in the pool at a time: the second job's unit is only
        # submitted by the pump that runs after the cancelled one.
        monkeypatch.setattr(server, "UNITS_PER_WORKER", 1)
        pool = _StubPool(cancelled={1})
        daemon = _stub_daemon(tmp_path, pool)

        async def run():
            first = daemon.submit("oracle", ORACLE, "alice")
            second = daemon.submit("oracle", ORACLE, "bob")
            assert pool.calls == 1
            await _wait(first, timeout=10.0)
            await _wait(second, timeout=10.0)
            return first, second

        try:
            first, second = asyncio.run(run())
        finally:
            daemon.shutdown()
        assert first.state == "error"
        assert "cancelled in the pool" in first.events[-1]["message"]
        assert second.state == "done"
        assert pool.calls == 2
        assert daemon.status()["inflight_units"] == 0
        assert daemon.counters["units_run"] == 2


class _Writer:
    def __init__(self):
        self.data = b""

    def write(self, chunk: bytes) -> None:
        self.data += chunk


async def _get(daemon, target: str) -> tuple[bytes, bytes]:
    """Route one GET; returns the status line and the body."""
    writer = _Writer()
    await _Server(daemon)._route("GET", target, b"", writer)
    head, _, body = writer.data.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0], body


class TestFinishedJobBound:
    def test_only_the_newest_terminal_jobs_are_remembered(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(server, "MAX_FINISHED_JOBS", 2)
        # Call 1 never finishes, so that job stays running throughout.
        daemon = _stub_daemon(tmp_path, _StubPool(held={1}))

        async def run():
            running = daemon.submit("oracle", ORACLE, "slow")
            finished = []
            for _ in range(4):
                job = daemon.submit("oracle", ORACLE, "tests")
                await _wait(job, timeout=10.0)
                finished.append(job)
            cancelled = daemon.submit("oracle", ORACLE, "tests")
            daemon.cancel(cancelled)

            kept = [finished[-1].job_id, cancelled.job_id]
            assert set(daemon.jobs) == {running.job_id, *kept}
            assert daemon.status()["jobs"] == {
                running.job_id: "running",
                finished[-1].job_id: "done",
                cancelled.job_id: "cancelled",
            }
            status, body = await _get(daemon, "/jobs/job-absent")
            assert status == b"HTTP/1.1 404 Not Found"
            for job in finished[:-1]:
                assert await _get(daemon, f"/jobs/{job.job_id}") == (
                    status, body.replace(b"job-absent", job.job_id.encode()))
            status, _ = await _get(daemon, f"/jobs/{kept[0]}")
            assert status == b"HTTP/1.1 200 OK"

        try:
            asyncio.run(run())
        finally:
            daemon.shutdown()
