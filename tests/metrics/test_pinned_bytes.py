"""Pinned bytes of the recorder export and of Fig. 9, on every interpreter.

The heap series is a float fold over each process's memory ledger.  If
it were computed with ``sum()``, CPython 3.12's compensated float
summation would move its last bits away from 3.11's (and these hashes
with them); the accountant's exact left fold gives the same bytes on
both.  CI runs this file on 3.11 and 3.12, and the pins were recorded on
3.11 before the fold replaced ``sum()``.  The export also pins the heap
series itself, which no fleet report contains.
"""

import hashlib
import json

import pytest

from repro.apps.benchmark import make_benchmark_app
from repro.baselines.android10 import Android10Policy
from repro.baselines.runtimedroid import RuntimeDroidPolicy
from repro.core.policy import RCHDroidPolicy
from repro.engine.fingerprint import canonicalize
from repro.harness.experiments import fig9
from repro.metrics.export import run_to_dict
from repro.system import AndroidSystem

#: sha256 of the compact, key-sorted JSON of ``run_to_dict`` after
#: :func:`_session` under each policy.
EXPORT_SHA256 = {
    "android10":
        "bb945866635155b066df7a546c7b7481a5d7e01e1e00eb82283e4ae4a88a98d7",
    "rchdroid":
        "9ec322bb647c8abe7b44c1fde0053765c097b91231096e8f3637110d529c7cd0",
    "runtimedroid":
        "f57cf1961323821c825519e047c531720ad3a40a75c5e6350fd8f4d487cb75cd",
}

#: sha256 of the compact, key-sorted JSON of ``canonicalize(fig9.run())``.
FIG9_SHA256 = (
    "0d7efbe43ade145b14030510efc63bebef459662fe48afbd16dd3ca796ae40fa"
)

POLICIES = {
    "android10": Android10Policy,
    "rchdroid": RCHDroidPolicy,
    "runtimedroid": RuntimeDroidPolicy,
}


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _session(policy: str) -> AndroidSystem:
    """Benchmark app, an async task, two rotations, run to idle."""
    system = AndroidSystem(policy=POLICIES[policy](), seed=0x5EED)
    app = make_benchmark_app(4)
    system.launch(app)
    system.run_for(1_000.0)
    system.start_async(app)
    system.rotate()
    system.run_for(500.0)
    system.rotate()
    system.run_until_idle()
    return system


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_recorder_export_is_pinned(policy):
    exported = run_to_dict(_session(policy).ctx.recorder)
    assert exported["heap"]
    assert _sha256(exported) == EXPORT_SHA256[policy]


def test_fig9_result_is_pinned():
    assert _sha256(canonicalize(fig9.run())) == FIG9_SHA256
