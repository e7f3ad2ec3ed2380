"""run_batch / policy_matrix: ordering, parallelism, cache wiring."""

import json
import multiprocessing
import os
import signal

import pytest

from repro.apps.appset27 import build_appset27
from repro.engine import (
    KIND_ISSUE,
    EngineConfig,
    ResultCache,
    RunRequest,
    configure,
    encode_result,
    execute_request,
    policy_matrix,
    restore,
    run_batch,
)
from repro.engine import batch as batch_module
from repro.engine.batch import MAX_CALL_REQUESTS, plan_calls
from repro.engine.codec import canonical_result
from repro.errors import EngineError
from repro.harness.runner import measure_handling, run_issue_scenario
from repro.core.policy import RCHDroidPolicy


def _encoded(results):
    return [json.dumps(encode_result(r), sort_keys=True) for r in results]


def _requests(count=4):
    apps = build_appset27()[:count]
    return [RunRequest.handling("rchdroid", app) for app in apps]


class TestRunRequest:
    def test_unknown_policy_rejected(self):
        with pytest.raises(EngineError):
            RunRequest.handling("cyanogenmod", build_appset27()[0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(EngineError):
            RunRequest("teleport", "rchdroid", build_appset27()[0])

    def test_kwargs_affect_the_key(self):
        app = build_appset27()[0]
        assert (RunRequest.handling("rchdroid", app, rotations=2).cache_key()
                != RunRequest.handling("rchdroid", app).cache_key())

    def test_seed_affects_the_key(self):
        app = build_appset27()[0]
        assert (RunRequest.handling("rchdroid", app, seed=1).cache_key()
                != RunRequest.handling("rchdroid", app, seed=2).cache_key())

    def test_key_is_memoised(self):
        request = _requests(1)[0]
        assert request.cache_key() is request.cache_key()


class TestSerialEquivalence:
    def test_matches_direct_runner_calls(self):
        app = build_appset27()[0]
        direct = measure_handling(RCHDroidPolicy, app)
        batched = run_batch([RunRequest.handling("rchdroid", app)])[0]
        assert batched == direct

    def test_issue_kind_matches_direct(self):
        app = build_appset27()[0]
        direct = run_issue_scenario(RCHDroidPolicy, app)
        batched = run_batch([RunRequest.issue("rchdroid", app)])[0]
        assert batched == direct

    def test_results_align_with_submission_order(self):
        requests = _requests(5)
        results = run_batch(requests)
        for request, result in zip(requests, results):
            assert result.package == request.app.package


class TestParallel:
    def test_two_jobs_byte_identical_to_serial(self):
        requests = _requests(6)
        assert (_encoded(run_batch(requests, jobs=2))
                == _encoded(run_batch(requests, jobs=1)))

    def test_more_jobs_than_requests(self):
        requests = _requests(2)
        assert (_encoded(run_batch(requests, jobs=8))
                == _encoded(run_batch(requests, jobs=1)))

    def test_empty_batch(self):
        assert run_batch([], jobs=4) == []


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the patched unit body reaches workers by fork",
)
class TestDeadWorker:
    def test_raises_engine_error_naming_the_call(self, monkeypatch):
        coordinator = os.getpid()
        real_unit = batch_module._execute_unit

        def killing_unit(unit_requests, store, verify):
            if os.getpid() != coordinator:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_unit(unit_requests, store, verify)

        monkeypatch.setattr(batch_module, "_execute_unit", killing_unit)
        with pytest.raises(EngineError,
                           match=r"batch worker died with pool call 1 of"):
            run_batch(_requests(4), jobs=2, cache=False)


class TestCacheWiring:
    def test_second_batch_is_all_hits(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        requests = _requests(3)
        first = run_batch(requests, cache=cache)
        assert cache.stats.misses == 3 and cache.stats.stores == 3
        second = run_batch(requests, cache=cache)
        assert cache.stats.memory_hits == 3
        assert _encoded(first) == _encoded(second)

    def test_disk_round_trip_is_byte_identical(self, tmp_path):
        requests = _requests(3)
        golden = _encoded(run_batch(requests))
        run_batch(requests, cache=ResultCache(root=tmp_path))
        fresh = ResultCache(root=tmp_path)
        assert _encoded(run_batch(requests, cache=fresh)) == golden
        assert fresh.stats.disk_hits == 3

    def test_partial_hits_fill_only_the_gaps(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        requests = _requests(4)
        run_batch(requests[:2], cache=cache)
        results = run_batch(requests, cache=cache)
        assert cache.stats.memory_hits == 2
        assert cache.stats.stores == 4
        assert [r.package for r in results] \
            == [request.app.package for request in requests]


class TestConfigure:
    def test_configure_sets_defaults_and_restores(self, tmp_path):
        previous = configure(jobs=1, cache=ResultCache(root=tmp_path))
        try:
            requests = _requests(2)
            run_batch(requests)  # picks the configured cache up
            hit, _ = _resolve_default_cache().get(requests[0].cache_key())
            assert hit
        finally:
            restore(previous)

    def test_restore_returns_prior_config(self):
        before = configure()
        try:
            configure(jobs=7)
            middle = configure()
            assert middle.jobs == 7
        finally:
            restore(before)
        assert configure().jobs == before.jobs
        restore(before)

    def test_config_dataclass_defaults(self):
        config = EngineConfig()
        assert config.jobs == "auto"
        assert config.cache is False
        assert config.snapshots is True
        assert config.verify_forks is False


def _resolve_default_cache():
    from repro.engine.batch import _resolve_cache

    return _resolve_cache(None)


class TestPolicyMatrix:
    def test_one_request_per_app_and_policy_in_order(self):
        apps = build_appset27()[:3]
        requests = policy_matrix(apps, ["android10", "rchdroid"])
        assert [(request.app, request.policy) for request in requests] \
            == [(app, policy) for app in apps
                for policy in ("android10", "rchdroid")]
        results = run_batch(requests)
        assert len(results) == 3 * 2
        for app, stock, rchdroid in zip(apps, results[::2], results[1::2]):
            assert stock.package == app.package
            assert stock.policy == "android10"
            assert rchdroid.policy == "rchdroid"

    def test_issue_matrix(self):
        apps = build_appset27()[:2]
        results = run_batch(policy_matrix(apps, ["android10"],
                                          kind=KIND_ISSUE))
        assert all(result.package == app.package
                   for app, result in zip(apps, results))

    def test_matrix_with_cache_is_identical(self, tmp_path):
        requests = policy_matrix(build_appset27()[:2],
                                 ["android10", "rchdroid"])
        plain = run_batch(requests)
        cached = run_batch(requests, cache=ResultCache(root=tmp_path))
        assert _encoded(plain) == _encoded(cached)


class TestExecuteRequest:
    def test_runs_in_this_process(self):
        request = RunRequest.handling("android10", build_appset27()[0])
        result = execute_request(request)
        assert result.policy == "android10"


def _builders():
    """Two experiments' request lists and bench-engine's probe sweep."""
    from repro.engine.bench import probe_storm_requests
    from repro.harness.experiments import fig14, table5

    return {"fig14": fig14.requests, "probes": probe_storm_requests,
            "table5": table5.requests}


def _mixed_requests():
    """Two prefix-heavy probe groups interleaved with lone fig14
    requests, so groups are scattered across submission order."""
    builders = _builders()
    lone = builders["fig14"](0x5EED)[:40]
    probes = builders["probes"](0x5EED)
    mixed = []
    for index, probe in enumerate(probes[::-1]):
        mixed.append(probe)
        if index < len(lone):
            mixed.append(lone[index])
    return mixed


class TestPlanCalls:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_every_position_once_in_whole_ordered_groups(self, workers):
        requests = _mixed_requests()
        # Every third request was a cache hit: plan only the rest.
        positions = [p for p in range(len(requests)) if p % 3 != 1]
        calls = plan_calls(requests, positions, workers, share=True)
        flat = [p for call in calls for group in call for p in group]
        assert sorted(flat) == positions
        assert len(flat) == len(set(flat))
        groups = [group for call in calls for group in call]
        # Positions keep submission order within a group, groups their
        # order of first appearance.
        assert all(list(group) == sorted(group) for group in groups)
        assert [group[0] for group in groups] \
            == sorted(group[0] for group in groups)
        # A group is exactly one prefix, and no prefix is split.
        prefixes = [{requests[p].prefix_key() for p in group}
                    for group in groups]
        assert all(len(prefix) == 1 for prefix in prefixes)
        assert len({prefix.pop() for prefix in prefixes}) == len(groups)
        per_call = max(1, len(groups) // (workers * 4))
        for call in calls:
            size = sum(len(group) for group in call)
            assert len(call) <= per_call
            assert size <= MAX_CALL_REQUESTS or len(call) == 1

    def test_an_oversized_group_is_a_call_of_its_own(self):
        requests = _builders()["probes"](0x5EED)
        calls = plan_calls(requests, range(len(requests)), 1, share=True)
        assert [[len(group) for group in call] for call in calls] \
            == [[24], [24]]
        assert 24 > MAX_CALL_REQUESTS

    def test_lone_requests_fill_calls_up_to_the_cap(self):
        requests = _builders()["fig14"](0x5EED)
        calls = plan_calls(requests, range(len(requests)), 1, share=True)
        assert [sum(map(len, call)) for call in calls] \
            == [MAX_CALL_REQUESTS] * 7 + [118 - 7 * MAX_CALL_REQUESTS]

    def test_no_sharing_gives_singleton_groups(self):
        requests = _mixed_requests()
        positions = list(range(len(requests)))
        calls = plan_calls(requests, positions, 2, share=False)
        groups = [group for call in calls for group in call]
        assert groups == [(p,) for p in positions]

    def test_plan_is_deterministic_across_runs_and_hash_seeds(self):
        import subprocess
        import sys

        script = (
            "from repro.engine.batch import plan_calls\n"
            "from repro.engine.bench import probe_storm_requests\n"
            "from repro.harness.experiments import fig14, table5\n"
            "for name, build in (('fig14', fig14.requests),\n"
            "                    ('probes', probe_storm_requests),\n"
            "                    ('table5', table5.requests)):\n"
            "    requests = build(0x5EED)\n"
            "    for workers in (1, 2):\n"
            "        print(name, workers, plan_calls(\n"
            "            requests, range(len(requests)), workers, True))\n"
        )
        package = os.path.dirname(os.path.dirname(batch_module.__file__))
        plans = []
        for seed in ("1", "2", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.dirname(package))
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            plans.append(proc.stdout)
        assert plans[0] == plans[1] == plans[2]
        assert plans[0].count("\n") == 6

    @pytest.mark.parametrize("name", ["fig14", "table5", "probes"])
    def test_pooled_batch_is_byte_identical_to_in_process(self, name):
        requests = _builders()[name](0x5EED)
        serial = run_batch(requests, jobs=1, cache=False)
        pooled = run_batch(requests, jobs=2, cache=False)
        assert list(map(canonical_result, pooled)) \
            == list(map(canonical_result, serial))


class TestFingerprintMemo:
    def test_rebuilt_fig14_requests_do_not_grow_the_memo(self):
        from repro.engine import batch
        from repro.harness.experiments import fig14

        def keys():
            return [request.cache_key()
                    for request in fig14.requests(0x5EED)]

        expected = keys()
        entries = len(batch._FP_MEMO)
        for _ in range(50):
            assert keys() == expected
        assert len(batch._FP_MEMO) == entries

    def test_memo_evicts_one_entry_at_a_time_and_pins_nothing(
            self, monkeypatch):
        import gc
        import weakref

        from repro.apps.benchmark import make_benchmark_app
        from repro.engine import batch
        from repro.sim.costs import DEFAULT_COSTS

        monkeypatch.setattr(batch, "_FP_MEMO", type(batch._FP_MEMO)())
        monkeypatch.setattr(batch, "_FP_MEMO_CAP", 6)
        apps, sizes = [], []
        for views in range(8, 8 + 12 * 4, 4):
            app = make_benchmark_app(views)
            RunRequest.handling("rchdroid", app).cache_key()
            apps.append(app)
            sizes.append(len(batch._FP_MEMO))
        # Past the cap (the cost model plus twelve live apps) the memo
        # holds exactly the cap and never drops back: no clear-all.
        assert max(sizes) == 6 and sizes == sorted(sizes)
        assert sizes[-1] == 6
        # The least recently used apps went; the cost model, used by
        # every key, and the five newest apps stay.
        kept = {id(entry[0]()) for entry in batch._FP_MEMO.values()}
        assert kept == {id(DEFAULT_COSTS), *map(id, apps[-5:])}
        # A rebuilt corpus is freed: the memo holds no strong reference.
        refs = [weakref.ref(app) for app in apps]
        del apps, app
        gc.collect()
        assert all(ref() is None for ref in refs)
