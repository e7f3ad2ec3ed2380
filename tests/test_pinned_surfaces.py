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
from repro.engine.bench import probe_storm_requests
from repro.harness.experiments import ENGINE_EXPERIMENTS
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
    # The other engine-backed experiments, recorded when their request
    # lists moved into their modules.
    "table3":
        "7be566965b2d4d513c43c9940bee536273a68016e8af394f6912c800829ca772",
    "fig7":
        "0e6913692a58a7f80d82e1465b3a63e8c4c2961cf61e6d9a14a6eb2d4a605dc6",
    "fig8":
        "0e6913692a58a7f80d82e1465b3a63e8c4c2961cf61e6d9a14a6eb2d4a605dc6",
    "fig10":
        "885499638fb0078068df16c1901fd99b9a145a179731195fee6a54bedeb60fb6",
    "fig11":
        "3afda508468c1a75651d8921b34caac15f3e9c1ac8708308a34abd707e79dfff",
    "fig12":
        "e39e8ba80168398ceaaa389fda555a0c891be5fe275b89bd080267c1241490db",
    "ext-probes":
        "aca1bb3400f3b37198428caa57402ecc479679cf5da881f82d8ef29a99f5a854",
}

#: Request-list builder per pinned name: the engine-backed experiments,
#: and ``bench-engine``'s snapshot sweep as ``probes``.
BUILDERS = {"probes": probe_storm_requests,
            **{name: module.requests
               for name, module in ENGINE_EXPERIMENTS.items()}}

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
    results = run_batch(BUILDERS[name](0x5EED), jobs=1, cache=False)
    assert _sha256(experiment_digest(results)) == EXPERIMENT_SHA256[name]


def test_every_engine_experiment_is_pinned():
    assert set(EXPERIMENT_SHA256) == set(BUILDERS)


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
