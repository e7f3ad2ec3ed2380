"""Pin the cache-key surface: every key the engine, fleet and daemon write.

The on-disk result cache, the prefix-snapshot store, the fleet template
store and fleet checkpoints are all addressed by
:func:`repro.engine.fingerprint.fingerprint`.  A change to how the
canonical form is produced must leave every one of those keys
byte-identical, or the stores silently stop hitting (and a schema bump
would be owed).  This test hashes one ordered list of keys covering
each layer and compares it with a sha256 recorded before the one-pass
canonical writer replaced the build-then-dump pipeline.

Prefix and template keys fold in the snapshot format version, so a
format bump moves them on purpose.  The surface is pinned at the
current version and, with the version patched back to each earlier one,
at the hash recorded under it: those prove a bump left the canonical
form itself where it was.
"""

import hashlib

import pytest

from repro.apps.appset27 import build_appset27
from repro.apps.top100 import build_top100
from repro.engine.fingerprint import fingerprint
from repro.fleet.population import fleet_corpus
from repro.fleet.run import FleetSpec, template_key
from repro.harness.requests import _REQUEST_BUILDERS
from repro.hunt.generator import generate_app
from repro.serve.protocol import fleet_params_fingerprint
from repro.sim.costs import DEFAULT_COSTS

PINNED_KEY_SURFACE_SHA256 = (
    "dfb68abdb8901cbc19b863fbd007251304d32435274b92eb65f9089983c21a11"
)
#: The surface with ``SNAPSHOT_FORMAT_VERSION`` patched to an earlier
#: version, as recorded while that version was current.
OLD_FORMAT_KEY_SURFACE_SHA256 = {
    3: "9b82ea1f8bb4fce07f1eef9b941de705d463b2b6794915ccbf422456449e019b",
    4: "22165953be486d58623081ada8af6244428211965f624fb15defdb065b135a5c",
}

#: Three daemon fleet requests: all defaults, the CI smoke params, and
#: one that sets every optional knob the fingerprint normalises.
FLEET_PARAMS = (
    {},
    {"devices": 60, "seed": 24301},
    {"devices": 18, "policies": ["rchdroid", "android10"], "faults": 0.25,
     "oracle": 0.01, "shard_size": 8, "phases": "rotation-storm"},
)


def key_surface() -> list[str]:
    """Every cache key of the pinned surface, in a fixed order."""
    keys = []
    for name in sorted(_REQUEST_BUILDERS):
        for request in _REQUEST_BUILDERS[name](0x5EED):
            keys.append(request.cache_key())
            keys.append(request.prefix_key())
    apps = [*build_top100(), *build_appset27(), *fleet_corpus(),
            *(generate_app(0x5EED, index) for index in range(200))]
    keys.extend(fingerprint(app) for app in apps)
    keys.append(fingerprint(DEFAULT_COSTS))
    spec = FleetSpec()
    keys.extend(template_key(spec, cell) for cell in range(len(spec.cells())))
    keys.append(fingerprint(spec))
    keys.extend(fleet_params_fingerprint(params) for params in FLEET_PARAMS)
    return keys


def _surface_sha256() -> str:
    keys = key_surface()
    assert len(keys) == 1076
    return hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()


def test_key_surface_is_pinned():
    assert _surface_sha256() == PINNED_KEY_SURFACE_SHA256


@pytest.mark.parametrize("version", sorted(OLD_FORMAT_KEY_SURFACE_SHA256))
def test_key_surface_at_old_format_is_unchanged(monkeypatch, version):
    """Only the version moved the keys: at an earlier format they are
    the keys that format wrote."""
    monkeypatch.setattr("repro.engine.batch.SNAPSHOT_FORMAT_VERSION", version)
    monkeypatch.setattr("repro.fleet.run.SNAPSHOT_FORMAT_VERSION", version)
    assert _surface_sha256() == OLD_FORMAT_KEY_SURFACE_SHA256[version]
