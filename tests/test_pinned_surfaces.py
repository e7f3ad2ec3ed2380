"""Pinned bytes of the surfaces that fork devices from snapshots.

Experiment prefixes, oracle sessions and hunt probes all run forks of a
captured :class:`~repro.sim.snapshot.SystemSnapshot`, so each of these
reports rests on the fork-equals-fresh contract.  The hashes were
recorded before snapshots moved to stock pickle (format 5) and must
hold on 3.11 and 3.12 alike: a change to how a device is captured or
restored may not move a byte of what the forks report.
"""

import hashlib

import pytest

from repro.engine.batch import run_batch
from repro.engine.codec import experiment_digest
from repro.harness.requests import _REQUEST_BUILDERS
from repro.hunt.generator import DEFAULT_CORPUS_SEED
from repro.hunt.search import HuntSettings
from repro.oracle.session import DEFAULT_POLICIES
from repro.serve.protocol import resolve_app
from repro.serve.tasks import run_hunt_unit, run_oracle_unit

#: sha256 of ``experiment_digest(run_batch(builder(0x5EED), jobs=1,
#: cache=False))`` per experiment.
EXPERIMENT_SHA256 = {
    "fig14":
        "11e1574f7876d79ef408ff18ddb42491acaf196f5738fa7a96ba5d70734e9624",
    "probes":
        "0dc7314174de0f3cd62e7419baea1e4995df1cff1c4213ca9362bb2c41f9f593",
    "table5":
        "700e7eb0d928cf4b2d2a95cc3b1a7807733d26c36b73fb6bd3ed1107efbc0b75",
}

#: sha256 of the canonical ``fleet.notepad`` oracle report.
ORACLE_SHA256 = (
    "ea6299ccedc47fab845eb614fe7bce305808c25c3c412ccae2ad1fc4da6620a4"
)

#: sha256 of the canonical 12-app hunt report, per corpus seed.
HUNT_SHA256 = {
    DEFAULT_CORPUS_SEED:
        "44d40824e2965f83d8be1436380071beec2f928e475a81c6da6ab30ed651621a",
    7:
        "8cd7dce2b98e15a0a011a3c6162fec842b41fcdc9c84265f7b2449cd1c568213",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPERIMENT_SHA256))
def test_experiment_digest_is_pinned(name):
    results = run_batch(_REQUEST_BUILDERS[name](0x5EED), jobs=1, cache=False)
    assert _sha256(experiment_digest(results)) == EXPERIMENT_SHA256[name]


def test_oracle_report_is_pinned():
    app, _ = resolve_app("fleet.notepad")
    report_json, _, exit_code = run_oracle_unit(
        (app, DEFAULT_POLICIES, 0x5EED, 0)
    )
    assert exit_code == 0
    assert _sha256(report_json) == ORACLE_SHA256


@pytest.mark.parametrize("seed", sorted(HUNT_SHA256))
def test_hunt_report_is_pinned(seed):
    settings = HuntSettings(apps=12, seed=seed, jobs=1, cache=False)
    report_json, _, _ = run_hunt_unit(settings)
    assert _sha256(report_json) == HUNT_SHA256[seed]


def test_hunt_pins_differ_across_corpus_seeds():
    assert HUNT_SHA256[DEFAULT_CORPUS_SEED] != HUNT_SHA256[7]
