"""run_batch / run_policy_matrix: ordering, parallelism, cache wiring."""

import json

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
    restore,
    run_batch,
    run_policy_matrix,
)
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
    def test_one_dict_per_app_in_order(self):
        apps = build_appset27()[:3]
        matrix = run_policy_matrix(apps, ["android10", "rchdroid"])
        assert len(matrix) == 3
        for app, cell in zip(apps, matrix):
            assert set(cell) == {"android10", "rchdroid"}
            assert cell["android10"].package == app.package
            assert cell["android10"].policy == "android10"
            assert cell["rchdroid"].policy == "rchdroid"

    def test_issue_matrix(self):
        apps = build_appset27()[:2]
        matrix = run_policy_matrix(apps, ["android10"], kind=KIND_ISSUE)
        assert all(cell["android10"].package == app.package
                   for app, cell in zip(apps, matrix))

    def test_matrix_with_cache_is_identical(self, tmp_path):
        apps = build_appset27()[:2]
        plain = run_policy_matrix(apps, ["android10", "rchdroid"])
        cached = run_policy_matrix(apps, ["android10", "rchdroid"],
                                   cache=ResultCache(root=tmp_path))
        for a, b in zip(plain, cached):
            assert _encoded(a.values()) == _encoded(b.values())


class TestExecuteRequest:
    def test_runs_in_this_process(self):
        request = RunRequest.handling("android10", build_appset27()[0])
        result = execute_request(request)
        assert result.policy == "android10"


class TestFingerprintMemo:
    def test_rebuilt_fig14_requests_do_not_grow_the_memo(self):
        from repro.engine import batch
        from repro.engine.bench import _REQUEST_BUILDERS

        def keys():
            return [request.cache_key()
                    for request in _REQUEST_BUILDERS["fig14"](0x5EED)]

        expected = keys()
        entries = len(batch._FP_MEMO)
        for _ in range(50):
            assert keys() == expected
        assert len(batch._FP_MEMO) == entries
