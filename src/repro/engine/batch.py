"""The batch execution layer: fan independent runs out, merge in order.

Every figure and table of the evaluation reduces to a list of
*independent* simulation runs — ``measure_handling`` or
``run_issue_scenario`` over (app, policy, seed) triples.  A
:class:`RunRequest` names one such run by value (the policy by registry
name, the app by spec), which makes requests picklable, cacheable and
executable in any process.

:func:`run_batch` is the single entry point the experiments go through:

* results come back **in submission order**, whatever executed where, so
  parallel output is byte-identical to serial output;
* with a :class:`~repro.engine.cache.ResultCache`, completed runs are
  skipped entirely (two-tier, content-addressed — see
  ``docs/PERFORMANCE.md`` for the key scheme);
* cache misses are **grouped by prefix fingerprint**: requests that
  differ only in their scenario's *divergent* kwargs share everything up
  to the divergence point, so the engine runs the shared prefix once,
  snapshots the device (:mod:`repro.sim.snapshot`), and forks each cell
  — correct because forks are byte-identical to fresh runs, and
  checkable with ``verify_forks`` (re-run a sample from scratch and
  compare canonical encodings);
* :func:`plan_calls` packs whole groups into pool calls, which ``jobs``
  fans across a :class:`~repro.engine.pool.PersistentPool` owned by the
  call (the daemon submits the same calls to its own pool); ``"auto"``
  resolves to ``min(cpu_count, cache misses)``, and one worker or one
  call runs in-process, so single-core hosts never pay the pool's
  serialisation overhead.

:func:`policy_matrix` builds the request list ("every app under every
policy") that fig7/fig8/fig12/fig14/table3/table5 submit.
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.baselines.android10 import Android10Policy
from repro.baselines.runtimedroid import RuntimeDroidPolicy
from repro.core.policy import RCHDroidPolicy
from repro.engine.cache import DEFAULT_CACHE_ROOT, ResultCache
from repro.engine.codec import canonical_result
from repro.engine.fingerprint import CACHE_SCHEMA_VERSION, fingerprint
from repro.engine.pool import PersistentPool
from repro.engine.scenarios import (
    KIND_GC,
    KIND_HANDLING,
    KIND_HUNT,
    KIND_ISSUE,
    KIND_PROBE,
    KIND_SCALABILITY,
    SCENARIOS,
)
from repro.engine.snapshots import SnapshotStore
from repro.errors import EngineError, SnapshotError
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.snapshot import SNAPSHOT_FORMAT_VERSION, SystemSnapshot
from repro.system import AndroidSystem
from repro.trace.tracer import active_session

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.dsl import AppSpec

#: Policies addressable by name in a :class:`RunRequest`.  Names are the
#: policies' own ``.name`` attributes, which also appear in results.
POLICIES: dict[str, Callable[[], Any]] = {
    "android10": Android10Policy,
    "rchdroid": RCHDroidPolicy,
    "runtimedroid": RuntimeDroidPolicy,
}


@dataclass(frozen=True)
class RunRequest:
    """One independent simulation run, described entirely by value."""

    kind: str
    policy: str
    app: "AppSpec"
    seed: int = 0x5EED
    kwargs: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SCENARIOS:
            raise EngineError(
                f"unknown run kind {self.kind!r}; known: {sorted(SCENARIOS)}"
            )
        if self.policy not in POLICIES:
            raise EngineError(
                f"unknown policy {self.policy!r}; known: {sorted(POLICIES)}"
            )

    @staticmethod
    def handling(
        policy: str, app: "AppSpec", seed: int = 0x5EED, **kwargs: Any
    ) -> "RunRequest":
        return RunRequest(KIND_HANDLING, policy, app, seed,
                          tuple(sorted(kwargs.items())))

    @staticmethod
    def issue(
        policy: str, app: "AppSpec", seed: int = 0x5EED, **kwargs: Any
    ) -> "RunRequest":
        return RunRequest(KIND_ISSUE, policy, app, seed,
                          tuple(sorted(kwargs.items())))

    @staticmethod
    def gc(
        app: "AppSpec", seed: int = 0x5EED, **kwargs: Any
    ) -> "RunRequest":
        return RunRequest(KIND_GC, "rchdroid", app, seed,
                          tuple(sorted(kwargs.items())))

    @staticmethod
    def scalability(
        policy: str, app: "AppSpec", seed: int = 0x5EED, **kwargs: Any
    ) -> "RunRequest":
        return RunRequest(KIND_SCALABILITY, policy, app, seed,
                          tuple(sorted(kwargs.items())))

    @staticmethod
    def probe(
        policy: str, app: "AppSpec", seed: int = 0x5EED, **kwargs: Any
    ) -> "RunRequest":
        return RunRequest(KIND_PROBE, policy, app, seed,
                          tuple(sorted(kwargs.items())))

    @staticmethod
    def hunt(
        policy: str, app: "AppSpec", seed: int = 0x5EED, **kwargs: Any
    ) -> "RunRequest":
        return RunRequest(KIND_HUNT, policy, app, seed,
                          tuple(sorted(kwargs.items())))

    def cache_key(self, schema_version: int = CACHE_SCHEMA_VERSION) -> str:
        """Content hash naming this run's result.

        Covers everything the simulation depends on: kind, policy, seed,
        scenario kwargs, the *resolved* cost model (so editing a default
        constant invalidates results computed under the old one), the
        full app spec, and the cache schema version.

        Keys are memoised per request, and the expensive components (app
        spec, cost model) per object: a top-100 app spec costs ~0.7 ms
        to fingerprint — over half the ~1.2 ms simulation it keys — so
        an unmemoised lookup would erase much of the cache's win.
        """
        keys = self.__dict__.get("_keys")
        if keys is None:
            keys = {}
            object.__setattr__(self, "_keys", keys)
        key = keys.get(schema_version)
        if key is None:
            kwargs = dict(self.kwargs)
            costs = kwargs.pop("costs", None) or DEFAULT_COSTS
            key = fingerprint([
                "repro.engine.run", schema_version, self.kind, self.policy,
                self.seed, _memo_fingerprint(costs), sorted(kwargs.items()),
                _memo_fingerprint(self.app),
            ])
            keys[schema_version] = key
        return key

    def prefix_key(self, schema_version: int = CACHE_SCHEMA_VERSION) -> str:
        """Content hash of this run's *shared prefix*.

        Covers everything up to the scenario's divergence point — kind,
        policy, seed, cost model, app spec, and the non-divergent kwargs
        — plus the snapshot format version.  Two requests with equal
        prefix keys can legally continue from one prefix snapshot; the
        batch layer groups on exactly this.
        """
        keys = self.__dict__.get("_keys")
        if keys is None:
            keys = {}
            object.__setattr__(self, "_keys", keys)
        memo_key = ("prefix", schema_version)
        key = keys.get(memo_key)
        if key is None:
            kwargs = dict(self.kwargs)
            costs = kwargs.pop("costs", None) or DEFAULT_COSTS
            prefix_kwargs, _ = SCENARIOS[self.kind].split_kwargs(
                kwargs, self.seed
            )
            key = fingerprint([
                "repro.engine.prefix", schema_version,
                SNAPSHOT_FORMAT_VERSION, self.kind, self.policy, self.seed,
                _memo_fingerprint(costs), sorted(prefix_kwargs.items()),
                _memo_fingerprint(self.app),
            ])
            keys[memo_key] = key
        return key


#: id -> (weak ref, fingerprint), least recently used first.  The weak
#: ref checks identity without keeping the object alive, so rebuilt
#: corpora are freed; past the cap the oldest entry goes, one at a time.
_FP_MEMO: "OrderedDict[int, tuple[weakref.ref, str]]" = OrderedDict()
_FP_MEMO_CAP = 8192


def _memo_fingerprint(obj: Any) -> str:
    entry = _FP_MEMO.get(id(obj))
    if entry is not None and entry[0]() is obj:
        _FP_MEMO.move_to_end(id(obj))
        return entry[1]
    digest = fingerprint(obj)
    try:
        ref = weakref.ref(obj)
    except TypeError:  # not weakly referenceable: fingerprint each time
        return digest
    _FP_MEMO[id(obj)] = (ref, digest)
    _FP_MEMO.move_to_end(id(obj))
    if len(_FP_MEMO) > _FP_MEMO_CAP:
        _FP_MEMO.popitem(last=False)
    return digest


def execute_request(request: RunRequest):
    """Run one request to completion in this process (the worker body)."""
    scenario = SCENARIOS[request.kind].run
    return scenario(
        POLICIES[request.policy], request.app,
        seed=request.seed, **dict(request.kwargs),
    )


# ----------------------------------------------------------------------
# engine-wide defaults (set by the CLI's --jobs / --no-cache / ...)
# ----------------------------------------------------------------------
@dataclass
class EngineConfig:
    jobs: "int | str" = "auto"
    """Worker processes; ``"auto"`` = ``min(cpu_count, work units)``,
    degrading to in-process serial execution when that is 1."""
    cache: "bool | ResultCache" = False
    cache_root: str = DEFAULT_CACHE_ROOT
    snapshots: bool = True
    """Group cache misses by prefix fingerprint and fork from snapshots.
    Automatically disabled while a TraceSession is active (forked systems
    would escape the session's tracer registry)."""
    verify_forks: bool = False
    """Re-run a sample of forked cells from scratch and fail loudly if
    any canonical encoding differs (the ``--verify-forks`` CLI flag)."""


_CONFIG = EngineConfig()


def configure(
    jobs: "int | str | None" = None,
    cache: "bool | ResultCache | None" = None,
    cache_root: str | None = None,
    snapshots: bool | None = None,
    verify_forks: bool | None = None,
) -> EngineConfig:
    """Set process-wide engine defaults; returns the previous config."""
    global _CONFIG, _DEFAULT_CACHE
    previous = EngineConfig(
        _CONFIG.jobs, _CONFIG.cache, _CONFIG.cache_root,
        _CONFIG.snapshots, _CONFIG.verify_forks,
    )
    if jobs is not None:
        _CONFIG.jobs = jobs
    if cache is not None:
        _CONFIG.cache = cache
    if cache_root is not None and cache_root != _CONFIG.cache_root:
        _CONFIG.cache_root = cache_root
        _DEFAULT_CACHE = None
    if snapshots is not None:
        _CONFIG.snapshots = snapshots
    if verify_forks is not None:
        _CONFIG.verify_forks = verify_forks
    return previous


def restore(config: EngineConfig) -> None:
    """Undo a :func:`configure` (CLI entry points restore on exit)."""
    global _CONFIG, _DEFAULT_CACHE
    if config.cache_root != _CONFIG.cache_root:
        _DEFAULT_CACHE = None
    _CONFIG = config


_DEFAULT_CACHE: ResultCache | None = None


def default_cache() -> ResultCache:
    """The process-wide cache instance (shared memory tier)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None or \
            str(_DEFAULT_CACHE.root) != str(_CONFIG.cache_root):
        _DEFAULT_CACHE = ResultCache(root=_CONFIG.cache_root)
    return _DEFAULT_CACHE


def _resolve_cache(cache: "bool | ResultCache | None") -> ResultCache | None:
    if cache is None:
        cache = _CONFIG.cache
    if cache is False:
        return None
    if cache is True:
        return default_cache()
    return cache


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def run_batch(
    requests: Iterable[RunRequest],
    *,
    jobs: "int | str | None" = None,
    cache: "bool | ResultCache | None" = None,
    snapshots: bool | None = None,
    verify_forks: bool | None = None,
) -> list:
    """Execute ``requests``; results align with submission order.

    All four knobs default to the process-wide :func:`configure`
    settings (``jobs="auto"``, uncached, prefix-sharing on out of the
    box).  ``cache=True`` uses the shared default cache; a
    :class:`ResultCache` instance is used as-is.
    """
    requests = list(requests)
    jobs = _CONFIG.jobs if jobs is None else jobs
    store = _resolve_cache(cache)
    share = _CONFIG.snapshots if snapshots is None else snapshots
    verify = _CONFIG.verify_forks if verify_forks is None else verify_forks
    traced = active_session() is not None
    if traced:
        # Session tracers are registered per system, in this process: a
        # forked system or one built in a pool worker would silently drop
        # out of the session's report.  Traced batches run in-process on
        # the classic one-system-per-run path.
        share = False

    results: list = [None] * len(requests)
    keys: dict[int, str] = {}
    if store is None:
        pending = list(range(len(requests)))
    else:
        pending = []
        for index, request in enumerate(requests):
            key = request.cache_key(store.schema_version)
            hit, value = store.get(key)
            if hit:
                results[index] = value
            else:
                pending.append(index)
                keys[index] = key

    if pending:
        snap_root = None
        if store is not None and store.root is not None:
            snap_root = str(store.root / "snapshots")
        workers = 1 if traced else _resolve_jobs(jobs, len(pending))
        calls = plan_calls(requests, pending, workers, share)
        payloads = [(call_requests(requests, call), snap_root, verify)
                    for call in calls]
        workers = min(workers, len(calls))
        if workers <= 1:
            outputs = [execute_call(payload) for payload in payloads]
        else:
            pool = PersistentPool(workers)
            try:
                futures = [pool.submit(execute_call, payload)
                           for payload in payloads]
                outputs = []
                for index, future in enumerate(futures):
                    try:
                        outputs.append(future.result())
                    except BrokenExecutor as error:
                        first = requests[calls[index][0][0]]
                        raise EngineError(
                            f"a batch worker died with pool call "
                            f"{index + 1} of {len(calls)} unfinished "
                            f"({sum(map(len, calls[index]))} requests, "
                            f"first {first.kind} {first.policy} "
                            f"{first.app.package}): {error}"
                        ) from error
            finally:
                pool.shutdown()
        for call, output in zip(calls, outputs):
            for group, group_results in zip(call, output):
                for index, result in zip(group, group_results):
                    results[index] = result
        if store is not None:
            for index in pending:
                store.put(keys[index], results[index])
    return results


def _resolve_jobs(jobs: "int | str", unit_count: int) -> int:
    """``"auto"`` → one worker per unit up to the core count."""
    if jobs == "auto":
        return max(1, min(os.cpu_count() or 1, unit_count))
    return max(1, int(jobs))


#: Most requests in one pool call, unless one prefix group is larger.
#: Calls amortise the pool round trip (~1.8 ms on a 2-vCPU host); the
#: cap keeps short the calls a new daemon job may wait behind
#: (``UNITS_PER_WORKER`` per worker).  8, 16 and 32 tied on perfbench
#: ``serve`` ``setup_s`` (A/B in docs/PERFORMANCE.md, "Daemon dispatch").
MAX_CALL_REQUESTS = 16


def plan_calls(
    requests: Sequence[RunRequest],
    positions: Sequence[int],
    workers: int,
    share: bool,
) -> list[tuple[tuple[int, ...], ...]]:
    """Pack ``positions`` (indices into ``requests``) into pool calls.

    A call is a tuple of groups of positions: one group per
    ``prefix_key()`` (first-appearance order, submission order within),
    or per position with ``share=False``.  A call takes
    ``max(1, groups // (workers * 4))`` whole groups — about four calls
    per worker balance the tail — closing early rather than exceed
    ``MAX_CALL_REQUESTS``.
    """
    if share:
        by_prefix: dict[str, list[int]] = {}
        for position in positions:
            by_prefix.setdefault(requests[position].prefix_key(),
                                 []).append(position)
        groups = [tuple(group) for group in by_prefix.values()]
    else:
        groups = [(position,) for position in positions]
    per_call = max(1, len(groups) // (workers * 4))
    calls: list[list[tuple[int, ...]]] = []
    for group in groups:
        if not calls or len(calls[-1]) == per_call or \
                sum(map(len, calls[-1])) + len(group) > MAX_CALL_REQUESTS:
            calls.append([])
        calls[-1].append(group)
    return [tuple(call) for call in calls]


def call_requests(
    requests: Sequence[RunRequest], call: tuple[tuple[int, ...], ...]
) -> tuple[tuple[RunRequest, ...], ...]:
    """The requests of one planned call, grouped as the call is."""
    return tuple(tuple(requests[position] for position in group)
                 for group in call)


def execute_call(payload) -> list:
    """Worker body for one planned call: ``payload`` is ``(groups,
    snap_root, verify)`` with ``groups`` from :func:`call_requests`;
    returns one result list per group.  The snapshot store lives for the
    call, so a long-lived worker keeps none (groups of one batch never
    share a prefix, so a longer-lived store would not hit in memory).
    """
    groups, snap_root, verify = payload
    store = SnapshotStore(root=snap_root)
    return [_execute_unit(list(group), store, verify) for group in groups]


def _execute_unit(
    unit_requests: list[RunRequest],
    store: SnapshotStore,
    verify: bool,
) -> list:
    """Run one prefix group: shared prepare, snapshot, fork each cell.

    A lone request runs the classic fresh path — grouping must never add
    overhead to sweeps that happen not to share anything (table5's 200
    cells are all distinct apps).
    """
    first = unit_requests[0]
    if len(unit_requests) == 1:
        return [execute_request(first)]

    spec = SCENARIOS[first.kind]
    kwargs = dict(first.kwargs)
    costs = kwargs.get("costs")
    prefix_kwargs, _ = spec.split_kwargs(kwargs, first.seed)

    key = first.prefix_key()
    snap = store.get(key)
    live = None
    if snap is None:
        live = AndroidSystem(
            policy=POLICIES[first.policy](), costs=costs, seed=first.seed
        )
        spec.prepare(live, first.app, **prefix_kwargs)
        snap = SystemSnapshot.capture(live)
        store.put(key, snap)

    results = []
    for index, request in enumerate(unit_requests):
        _, suffix_kwargs = spec.split_kwargs(dict(request.kwargs),
                                             request.seed)
        # The first cell continues on the live system when we just built
        # it — that IS the fresh path; every other cell forks.
        system = live if (live is not None and index == 0) else snap.restore()
        results.append(spec.finish(system, request.app, **suffix_kwargs))

    if verify:
        forked = [i for i in range(len(unit_requests))
                  if not (live is not None and i == 0)]
        for index in _verify_sample(forked):
            fresh = execute_request(unit_requests[index])
            if canonical_result(fresh) != canonical_result(results[index]):
                raise SnapshotError(
                    "forked result diverged from fresh run for "
                    f"{unit_requests[index].kind} cell "
                    f"{dict(unit_requests[index].kwargs)!r} "
                    f"(policy={unit_requests[index].policy}, "
                    f"app={unit_requests[index].app.package})"
                )
    return results


def _verify_sample(forked: list[int]) -> list[int]:
    """Deterministic sample of forked cells: first, middle, last."""
    if not forked:
        return []
    picks = {forked[0], forked[len(forked) // 2], forked[-1]}
    return sorted(picks)


def policy_matrix(
    apps: Sequence["AppSpec"],
    policies: Sequence[str],
    *,
    kind: str = KIND_HANDLING,
    seed: int = 0x5EED,
) -> list[RunRequest]:
    """Per app (in order), one request per policy (in order).

    The request list of the experiments that run every app under every
    policy: fig7/fig8/fig12/fig14/table3/table5.
    """
    return [RunRequest(kind, policy, app, seed)
            for app in apps
            for policy in policies]
