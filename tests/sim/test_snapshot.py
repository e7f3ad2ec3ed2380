"""SystemSnapshot: fork-equals-fresh, round trips, refusal cases."""

import copyreg
import gc
import io
import json
import sys
import threading
import types
from functools import partial

import pytest

from repro.android.res import ResourceTable
from repro.apps.benchmark import make_benchmark_app
from repro.apps.dsl import AppSpec, AsyncScript
from repro.baselines.android10 import Android10Policy
from repro.baselines.runtimedroid import RuntimeDroidPolicy
from repro.core.policy import RCHDroidPolicy
from repro.engine import encode_result
from repro.engine.snapshots import SnapshotStore
from repro.errors import SnapshotError
from repro.fleet.run import (
    FleetSpec,
    _load_worker_template,
    _reset_template_cache,
    capture_template,
    template_cache_stats,
    template_key,
)
from repro.harness.runner import (
    finish_issue,
    finish_probe,
    prepare_issue,
    prepare_probe,
    run_issue_scenario,
    run_probe,
)
from repro.metrics import recorder as recorder_module
from repro.metrics.export import run_to_dict
from repro.metrics.memory import MemoryAccountant
from repro.sim import snapshot as snapshot_module
from repro.sim.costs import CostModel
from repro.sim.rng import DeterministicRng
from repro.sim.snapshot import SNAPSHOT_FORMAT_VERSION, SystemSnapshot
from repro.system import AndroidSystem
from repro.trace.tracer import NULL_TRACER, NullTracer, TraceSession
from repro.workload.driver import kill_app_process

POLICY_FACTORIES = {
    "android10": Android10Policy,
    "runtimedroid": RuntimeDroidPolicy,
    "rchdroid": RCHDroidPolicy,
}


def _encoded(result):
    return json.dumps(encode_result(result), sort_keys=True)


class TestForkEqualsFresh:
    @pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
    def test_issue_scenario_matches_classic_entry_point(self, policy):
        factory = POLICY_FACTORIES[policy]
        app = make_benchmark_app(2)
        fresh = run_issue_scenario(factory, app)

        live = AndroidSystem(policy=factory(), seed=0x5EED)
        prepare_issue(live, app)
        snap = live.snapshot()
        forked = AndroidSystem.fork(snap)
        assert _encoded(finish_issue(forked, app)) == _encoded(fresh)

    @pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
    def test_issue_scenario_with_standalone_tracer(self, policy):
        factory = POLICY_FACTORIES[policy]
        app = make_benchmark_app(2)
        fresh_sys = AndroidSystem(policy=factory(), seed=0x5EED, trace=True)
        prepare_issue(fresh_sys, app)
        fresh = finish_issue(fresh_sys, app)

        live = AndroidSystem(policy=factory(), seed=0x5EED, trace=True)
        prepare_issue(live, app)
        forked = AndroidSystem.fork(live.snapshot())
        assert _encoded(finish_issue(forked, app)) == _encoded(fresh)

    @pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
    def test_fork_mid_async_task(self, policy):
        """The probe prefix snapshots with an async task in flight."""
        factory = POLICY_FACTORIES[policy]
        app = make_benchmark_app(2)
        fresh = run_probe(factory, app, audit_delay_ms=6_000.0)

        live = AndroidSystem(policy=factory(), seed=0x5EED)
        prepare_probe(live, app)
        forked = AndroidSystem.fork(live.snapshot())
        verdict = finish_probe(forked, app, audit_delay_ms=6_000.0)
        assert _encoded(verdict) == _encoded(fresh)

    def test_two_forks_from_one_snapshot_are_identical(self):
        app = make_benchmark_app(2)
        live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
        prepare_issue(live, app)
        snap = live.snapshot()
        first = finish_issue(AndroidSystem.fork(snap), app)
        second = finish_issue(AndroidSystem.fork(snap), app)
        assert _encoded(first) == _encoded(second)

    def test_fork_preserves_external_identity(self):
        """Every shared input and the null tracer come back as the same
        objects, and no copy of one exists anywhere in the fork."""
        app = make_benchmark_app(2)
        live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
        prepare_probe(live, app)  # an async task (and its script) in flight
        snap = live.snapshot()
        assert [type(obj) for obj in snap.externals] == [
            CostModel, AppSpec, ResourceTable, AsyncScript,
        ]
        forked = AndroidSystem.fork(snap)
        inputs = forked.shared_inputs()
        assert len(inputs) == len(snap.externals)
        assert all(mine is theirs
                   for mine, theirs in zip(inputs, live.shared_inputs()))
        assert forked.tracer is NULL_TRACER

        external_types = (CostModel, AppSpec, ResourceTable, AsyncScript,
                          NullTracer)
        allowed = {id(obj) for obj in snap.externals} | {id(NULL_TRACER)}
        found = [obj for obj in _object_graph(forked)
                 if isinstance(obj, external_types)]
        assert found
        assert all(id(obj) in allowed for obj in found)


def _pending_labels(system: AndroidSystem) -> list[str]:
    return sorted(event.label for _, _, event in system.ctx.scheduler._queue
                  if not event.cancelled)


def _observed(system: AndroidSystem, app) -> str:
    """What a run left behind: recorder export, clock, tasks, slot."""
    foreground = system.foreground_activity(app.package) is not None
    return json.dumps({
        "run": run_to_dict(system.ctx.recorder),
        "now_ms": system.now_ms,
        "events": system.ctx.scheduler.events_executed,
        "tasks": [task.app.package for task in system.atms.stack.tasks],
        "slot": (system.read_slot(app, "first_drawable")
                 if foreground else None),
    }, sort_keys=True)


def _assert_fork_matches_fresh(policy, prepare, finish):
    """Run ``prepare`` + ``finish`` once straight through and once with a
    fork taken between them; both must leave the same state."""
    app = make_benchmark_app(2)
    fresh = AndroidSystem(policy=POLICY_FACTORIES[policy](), seed=0x5EED)
    prepare(fresh, app)
    finish(fresh, app)

    live = AndroidSystem(policy=POLICY_FACTORIES[policy](), seed=0x5EED)
    prepare(live, app)
    forked = AndroidSystem.fork(live.snapshot())
    finish(forked, app)
    assert _observed(forked, app) == _observed(fresh, app)
    return forked, app


def _run_to_idle(system, app):
    system.run_until_idle()


class TestForkWithPendingCallback:
    """Each kind of callback that can be pending at a capture runs in
    the fork as it does in a fresh run."""

    @pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
    def test_queued_looper_message(self, policy):
        def prepare(system, app):
            system.launch(app)
            system.run_for(100.0)
            handler = system.atms.thread_of(app.package).handler
            handler.post_delayed(
                partial(system.write_slot, app, "first_drawable", "queued"),
                300.0, label="queued-write",
            )
            assert "looper:queued-write" in _pending_labels(system)

        forked, app = _assert_fork_matches_fresh(policy, prepare, _run_to_idle)
        assert forked.read_slot(app, "first_drawable") == "queued"

    @pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
    def test_async_post_execute(self, policy):
        """Captured after the task finished its background work but
        before its completion ran on the UI thread."""
        def prepare(system, app):
            system.launch(app)
            task = system.start_async(app)
            system.rotate()
            system.ctx.run_until(task.started_at_ms + task.duration_ms)
            assert task.completed_at_ms is None
            assert ("looper:post-execute:update-images"
                    in _pending_labels(system))

        forked, app = _assert_fork_matches_fresh(policy, prepare, _run_to_idle)
        assert forked.crashed(app.package) == (policy == "android10")

    @pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
    def test_process_death_hook(self, policy):
        def prepare(system, app):
            system.launch(app)
            system.run_for(100.0)

        def finish(system, app):
            kill_app_process(system, app.package)
            system.run_until_idle()

        forked, app = _assert_fork_matches_fresh(policy, prepare, finish)
        assert forked.atms.stack.find_task(app.package) is None

    @pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
    def test_rchdroid_gc_tick(self, policy):
        def prepare(system, app):
            system.launch(app)
            system.rotate()
            system.run_for(100.0)
            assert (("looper:gc-tick" in _pending_labels(system))
                    == (policy == "rchdroid"))

        def finish(system, app):
            system.run_for(20_000.0)
            system.run_until_idle()

        _assert_fork_matches_fresh(policy, prepare, finish)


def _object_graph(root):
    """Every object reachable from ``root``, not descending into
    modules, classes or module globals (which reach the interpreter)."""
    stop = {id(module.__dict__) for module in list(sys.modules.values())
            if module is not None}
    seen = {id(root)}
    todo = [root]
    reached = []
    while todo:
        obj = todo.pop()
        reached.append(obj)
        for child in gc.get_referents(obj):
            if (id(child) in seen or id(child) in stop
                    or isinstance(child, (type, types.ModuleType))):
                continue
            seen.add(id(child))
            todo.append(child)
    return reached


class TestConcurrentRestore:
    def test_threads_restoring_different_externals_get_their_own(self):
        """Externals are bound per restoring thread, never process-wide."""
        snaps = []
        for package in ("concurrent.one", "concurrent.two"):
            live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
            live.launch(make_benchmark_app(2, package=package))
            snaps.append(live.snapshot())
        assert snaps[0].externals[1] is not snaps[1].externals[1]

        barrier = threading.Barrier(len(snaps))
        mismatches: list[str] = []

        def restore_many(snap):
            barrier.wait()
            for _ in range(20):
                try:
                    inputs = snap.restore().shared_inputs()
                except SnapshotError as exc:
                    mismatches.append(str(exc))
                    continue
                if len(inputs) != len(snap.externals) or any(
                    mine is not theirs
                    for mine, theirs in zip(inputs, snap.externals)
                ):
                    mismatches.append(snap.externals[1].package)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two restores
        try:
            threads = [threading.Thread(target=restore_many, args=(snap,))
                       for snap in snaps]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []


class _FormatOnePickler(snapshot_module._SnapshotPickler):
    """The format-1 writer: externals and the null tracer as persistent
    ids (consulted before ``reducer_override`` sees them)."""

    def persistent_id(self, obj):
        if obj is NULL_TRACER:
            return ("null-tracer",)
        entry = self._externals.get(id(obj))
        if entry is not None and entry[1] is obj:
            return ("external", entry[0])
        return None


class _FormatTwoPickler(snapshot_module._SnapshotPickler):
    """The format-2 writer's object layout: trace records as dataclass
    instance dicts, the RNG wrapping a stock ``random.Random``, and a
    memory accountant without running totals."""

    def reducer_override(self, obj):
        if isinstance(obj, recorder_module._Record):
            state = dict(zip(obj.__slots__, obj._fields(obj)))
            return copyreg.__newobj__, (type(obj),), state
        if isinstance(obj, DeterministicRng):
            state = {"seed": obj.seed, "_random": obj._random}
            return copyreg.__newobj__, (DeterministicRng,), state
        if isinstance(obj, MemoryAccountant):
            state = {key: value for key, value in vars(obj).items()
                     if key != "_totals"}
            return copyreg.__newobj__, (MemoryAccountant,), state
        return super().reducer_override(obj)


class _FormatThreePickler(snapshot_module._SnapshotPickler):
    """The format-3 writer's recorder layout: heap samples and busy
    intervals as lists of records, no columns."""

    def reducer_override(self, obj):
        if isinstance(obj, recorder_module.TraceRecorder):
            state = {key: value for key, value in vars(obj).items()
                     if not key.startswith(("heap_", "busy_"))}
            state.update(busy=obj.busy, heap=obj.heap)
            return copyreg.__newobj__, (recorder_module.TraceRecorder,), state
        return super().reducer_override(obj)


def _old_format_dumps(pickler, obj, externals=()) -> bytes:
    buffer = io.BytesIO()
    pickler(buffer, externals).dump(obj)
    return buffer.getvalue()


def _old_format_bytes(system: AndroidSystem, version: int, pickler) -> bytes:
    """What ``SystemSnapshot.to_bytes`` wrote at format ``version``."""
    externals = tuple(system.shared_inputs())
    payload = _old_format_dumps(pickler, system, externals)
    return _old_format_dumps(
        pickler, (version, system.policy.name, system.now_ms, externals,
                  payload)
    )


def _format_one_dumps(obj, externals=()) -> bytes:
    return _old_format_dumps(_FormatOnePickler, obj, externals)


def _format_one_bytes(system: AndroidSystem) -> bytes:
    return _old_format_bytes(system, 1, _FormatOnePickler)


class TestFormatOneEntries:
    """Entries written by the format-1 stores are misses, not errors."""

    @pytest.fixture(autouse=True)
    def _clean_template_cache(self):
        _reset_template_cache()
        yield
        _reset_template_cache()

    def test_format_is_five(self):
        assert SNAPSHOT_FORMAT_VERSION == 5

    def test_format_one_payload_cannot_restore_silently(self):
        live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
        live.launch(make_benchmark_app(1))
        externals = tuple(live.shared_inputs())
        payload = _format_one_dumps(live, externals)
        with pytest.raises(SnapshotError):
            SystemSnapshot(payload, externals).restore()

    def test_engine_store_misses_on_format_one_entry(self, tmp_path):
        live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
        prepare_issue(live, make_benchmark_app(2))
        key = "ab" * 32
        store = SnapshotStore(root=tmp_path)
        path = store._path(key)
        old_path = (tmp_path / f"v1-py{sys.version_info[0]}"
                    f"{sys.version_info[1]}" / key[:2] / path.name)
        for entry in (path, old_path):
            entry.parent.mkdir(parents=True, exist_ok=True)
            entry.write_bytes(_format_one_bytes(live))
        assert store.get(key) is None
        assert store.stats.misses == 1 and store.stats.disk_hits == 0

    def test_fleet_template_store_rebuilds_over_format_one_entry(
        self, tmp_path
    ):
        spec = FleetSpec(devices_per_cell=2, shard_size=2)
        key = template_key(spec, 0)
        fresh = capture_template(spec, 0)
        path = SnapshotStore(root=tmp_path)._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(_format_one_bytes(fresh.restore()))
        _reset_template_cache()

        snap = _load_worker_template(str(tmp_path), key, spec, 0)
        stats = template_cache_stats()
        assert stats["disk_reads"] == 0 and stats["rebuilds"] == 1
        assert bytes(snap.payload) == bytes(fresh.payload)


class TestFormatTwoEntries:
    """Entries written by the format-2 stores are misses, not errors."""

    @pytest.fixture(autouse=True)
    def _clean_template_cache(self):
        _reset_template_cache()
        yield
        _reset_template_cache()

    def test_format_two_payload_cannot_restore_silently(self):
        live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
        live.launch(make_benchmark_app(1))
        externals = tuple(live.shared_inputs())
        payload = _old_format_dumps(_FormatTwoPickler, live, externals)
        with pytest.raises(SnapshotError):
            SystemSnapshot(payload, externals).restore()

    def test_engine_store_misses_on_format_two_entry(self, tmp_path):
        live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
        prepare_issue(live, make_benchmark_app(2))
        key = "cd" * 32
        store = SnapshotStore(root=tmp_path)
        path = store._path(key)
        old_path = (tmp_path / f"v2-py{sys.version_info[0]}"
                    f"{sys.version_info[1]}" / key[:2] / path.name)
        for entry in (path, old_path):
            entry.parent.mkdir(parents=True, exist_ok=True)
            entry.write_bytes(_old_format_bytes(live, 2, _FormatTwoPickler))
        assert store.get(key) is None
        assert store.stats.misses == 1 and store.stats.disk_hits == 0

    def test_fleet_template_store_rebuilds_over_format_two_entry(
        self, tmp_path
    ):
        spec = FleetSpec(devices_per_cell=2, shard_size=2)
        key = template_key(spec, 0)
        fresh = capture_template(spec, 0)
        path = SnapshotStore(root=tmp_path)._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            _old_format_bytes(fresh.restore(), 2, _FormatTwoPickler)
        )
        _reset_template_cache()

        snap = _load_worker_template(str(tmp_path), key, spec, 0)
        stats = template_cache_stats()
        assert stats["disk_reads"] == 0 and stats["rebuilds"] == 1
        assert bytes(snap.payload) == bytes(fresh.payload)


class TestFormatThreeEntries:
    """Format-3 entries are misses: their recorder has no columns."""

    def test_format_three_payload_restores_a_broken_recorder(self):
        live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
        live.launch(make_benchmark_app(1))
        externals = tuple(live.shared_inputs())
        payload = _old_format_dumps(_FormatThreePickler, live, externals)
        restored = SystemSnapshot(payload, externals).restore()
        with pytest.raises(AttributeError):
            restored.ctx.recorder.heap

    def test_engine_store_misses_on_format_three_entry(self, tmp_path):
        live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
        prepare_issue(live, make_benchmark_app(2))
        key = "ef" * 32
        store = SnapshotStore(root=tmp_path)
        path = store._path(key)
        old_path = (tmp_path / f"v3-py{sys.version_info[0]}"
                    f"{sys.version_info[1]}" / key[:2] / path.name)
        for entry in (path, old_path):
            entry.parent.mkdir(parents=True, exist_ok=True)
            entry.write_bytes(_old_format_bytes(live, 3, _FormatThreePickler))
        assert store.get(key) is None
        assert store.stats.misses == 1 and store.stats.disk_hits == 0


class TestDiskRoundTrip:
    def test_bytes_round_trip_forks_identically(self):
        app = make_benchmark_app(2)
        fresh = run_issue_scenario(RCHDroidPolicy, app)

        live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
        prepare_issue(live, app)
        snap = live.snapshot()
        assert snap.size_bytes > 0
        reloaded = SystemSnapshot.from_bytes(snap.to_bytes())
        verdict = finish_issue(AndroidSystem.fork(reloaded), app)
        assert _encoded(verdict) == _encoded(fresh)

    def test_unknown_format_version_is_rejected(self):
        app = make_benchmark_app(1)
        live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
        live.launch(app)
        data = live.snapshot().to_bytes()
        with pytest.raises(SnapshotError):
            SystemSnapshot.from_bytes(data[:40])


def _nested_callback():
    def callback() -> None:
        pass

    return callback


class TestRefusals:
    @pytest.mark.parametrize("make_callback, name", [
        (lambda: (lambda: None), "<lambda>"),
        (_nested_callback, "_nested_callback.<locals>.callback"),
    ], ids=["lambda", "nested-function"])
    def test_unimportable_callback_is_refused(self, make_callback, name):
        """Stock pickle cannot import a lambda or a nested function, so
        capture refuses a queue holding one, naming it."""
        app = make_benchmark_app(1)
        live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
        live.launch(app)
        handler = live.atms.thread_of(app.package).handler
        handler.post_delayed(make_callback(), 100.0)
        with pytest.raises(SnapshotError, match=name):
            live.snapshot()

    def test_session_registered_tracer_cannot_snapshot(self):
        """Session tracers are observed externally; forking one would
        double-report spans, so capture refuses."""
        app = make_benchmark_app(1)
        with TraceSession():
            live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
            live.launch(app)
            with pytest.raises(SnapshotError):
                live.snapshot()

    def test_standalone_tracer_snapshots_inside_session(self):
        app = make_benchmark_app(1)
        with TraceSession():
            live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED,
                                 trace=True)
            live.launch(app)
            assert live.snapshot().size_bytes > 0


class TestTrimHistory:
    """Satellite of the fleet PR: history-trimmed template captures."""

    def _busy_system(self):
        app = make_benchmark_app(2)
        live = AndroidSystem(policy=RCHDroidPolicy(), seed=0x5EED)
        prepare_issue(live, app)
        # Accumulate some history worth trimming.
        live.rotate()
        live.run_for(500.0)
        return live, app

    def test_trimmed_capture_is_smaller(self):
        live, _ = self._busy_system()
        full = SystemSnapshot.capture(live)
        trimmed = SystemSnapshot.capture(live, trim_history=True)
        assert trimmed.size_bytes < full.size_bytes

    def test_capture_leaves_live_history_intact(self):
        live, _ = self._busy_system()
        recorder = live.ctx.recorder
        before = (list(recorder.busy), list(recorder.heap),
                  list(recorder.events), list(recorder.latencies))
        SystemSnapshot.capture(live, trim_history=True)
        assert (recorder.busy, recorder.heap,
                recorder.events, recorder.latencies) == before

    def test_trimmed_fork_starts_with_empty_history(self):
        live, _ = self._busy_system()
        assert live.ctx.recorder.latencies  # the trim has something to drop
        forked = SystemSnapshot.capture(live, trim_history=True).restore()
        recorder = forked.ctx.recorder
        assert recorder.busy == []
        assert recorder.heap == []
        assert recorder.events == []
        assert recorder.latencies == []

    def test_trim_preserves_crashes_and_counters(self):
        app = make_benchmark_app(2)
        live = AndroidSystem(policy=Android10Policy(), seed=0x5EED)
        live.launch(app)
        live.start_async(app)
        live.rotate()
        live.run_until_idle()  # async lands on the destroyed tree: crash
        assert live.crashed(app.package)
        forked = SystemSnapshot.capture(live, trim_history=True).restore()
        assert forked.crashed(app.package)
        assert forked.ctx.recorder.counters == live.ctx.recorder.counters

    def test_trimmed_fork_behaves_identically_post_capture(self):
        """The fork-equals-fresh contract only covers what a fork
        observes about its own future; both fork flavours must agree."""
        live, app = self._busy_system()
        trimmed = SystemSnapshot.capture(live, trim_history=True).restore()
        full = SystemSnapshot.capture(live).restore()
        for system in (trimmed, full):
            system.start_async(app)
            system.rotate()
            system.run_until_idle()
        assert not trimmed.crashed(app.package)
        trimmed_tail = trimmed.handling_times()
        full_tail = full.handling_times()[-len(trimmed_tail):] \
            if trimmed_tail else []
        assert trimmed_tail == full_tail
        assert (trimmed.memory_of(app.package)
                == full.memory_of(app.package))
        for slot in app.slots:
            assert (trimmed.read_slot(app, slot.name)
                    == full.read_slot(app, slot.name))
