"""Named experiment request sets: the engine benchmark
(``repro bench-engine``) and the daemon's ``experiment`` jobs run these,
the request lists the experiments submit through ``run_policy_matrix``.
"""

from __future__ import annotations

from repro.apps.benchmark import make_benchmark_app
from repro.apps.dsl import IssueKind
from repro.apps.top100 import build_top100
from repro.engine.batch import KIND_HANDLING, KIND_ISSUE, RunRequest


def _fig14_requests(seed: int = 0x5EED) -> list[RunRequest]:
    fixable = [
        app for app in build_top100(seed)
        if app.issue is IssueKind.VIEW_STATE_LOSS
    ]
    return [
        RunRequest(KIND_HANDLING, policy, app, seed)
        for app in fixable
        for policy in ("android10", "rchdroid")
    ]


def _table5_requests(seed: int = 0x5EED) -> list[RunRequest]:
    return [
        RunRequest(KIND_ISSUE, policy, app, seed)
        for app in build_top100(seed)
        for policy in ("android10", "rchdroid")
    ]


def _probe_requests(seed: int = 0x5EED) -> list[RunRequest]:
    # Prefix-heavy by design: per policy, two dozen audit delays share
    # one long rotation storm over a large view tree, so the group is
    # one prepare + twenty-three forks.  The delays stay below the
    # benchmark app's 5 s async completion so the divergent suffixes are
    # cheap observation windows, not a second workload.
    app = make_benchmark_app(512)
    delays = tuple(125.0 * step for step in range(1, 25))
    return [
        RunRequest.probe(policy, app, seed,
                         storm_rotations=24, audit_delay_ms=delay)
        for policy in ("runtimedroid", "rchdroid")
        for delay in delays
    ]


#: experiment id -> request-list builder, called with the seed.
_REQUEST_BUILDERS = {
    "fig14": _fig14_requests,
    "table5": _table5_requests,
    "probes": _probe_requests,
}
