"""repro.engine: parallel, cached batch execution of simulation runs.

The experiments of the evaluation are embarrassingly parallel — every
figure/table is a list of independent ``measure_handling`` /
``run_issue_scenario`` calls.  This package turns that list into a
first-class object (:class:`RunRequest`), executes it serially or across
a process pool with submission-order merging (:func:`run_batch`), and
memoises results in a two-tier content-addressed cache
(:class:`ResultCache`).  A third tier (:class:`SnapshotStore`) caches
*prefix snapshots*: cache misses that share a fingerprint prefix run
their common setup once and fork from a device checkpoint.  The
determinism contract: for a given request, serial, parallel, cached and
forked execution produce byte-identical results.
See ``docs/PERFORMANCE.md``.
"""

from repro.engine.batch import (
    KIND_GC,
    KIND_HANDLING,
    KIND_ISSUE,
    KIND_PROBE,
    KIND_SCALABILITY,
    POLICIES,
    EngineConfig,
    RunRequest,
    configure,
    default_cache,
    execute_request,
    restore,
    run_batch,
    run_policy_matrix,
)
from repro.engine.cache import DEFAULT_CACHE_ROOT, CacheStats, ResultCache
from repro.engine.codec import (
    canonical_result,
    decode_result,
    encode_result,
    experiment_digest,
)
from repro.engine.fingerprint import (
    CACHE_SCHEMA_VERSION,
    canonicalize,
    fingerprint,
)
from repro.engine.scenarios import SCENARIOS, ScenarioSpec
from repro.engine.snapshots import SnapshotStats, SnapshotStore

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_ROOT",
    "KIND_GC",
    "KIND_HANDLING",
    "KIND_ISSUE",
    "KIND_PROBE",
    "KIND_SCALABILITY",
    "POLICIES",
    "SCENARIOS",
    "CacheStats",
    "EngineConfig",
    "ResultCache",
    "RunRequest",
    "ScenarioSpec",
    "SnapshotStats",
    "SnapshotStore",
    "canonical_result",
    "canonicalize",
    "configure",
    "decode_result",
    "default_cache",
    "encode_result",
    "execute_request",
    "experiment_digest",
    "fingerprint",
    "restore",
    "run_batch",
    "run_policy_matrix",
]
