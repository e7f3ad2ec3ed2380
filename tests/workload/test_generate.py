"""Generator core: spec validation and IR/tuple byte-compat."""

import hashlib
import json

import pytest

from repro.errors import FleetError
from repro.workload.generate import (
    DEFAULT_POPULATION,
    PopulationSpec,
    device_workload,
)

#: sha256 of ``json.dumps`` over the tuple scripts of members 0–19 under
#: ``DEFAULT_POPULATION`` and seed ``0x5EED``.
LEGACY_SCRIPT_SHA256 = (
    "dcc1644b164674afa23daa67e62d05a91295f8d7488b4497f874144c155e5a85"
)


class TestPopulationSpecValidation:
    """Malformed distributions raise at construction, naming the field."""

    def test_default_is_valid(self):
        PopulationSpec()

    @pytest.mark.parametrize("kwargs, field", [
        ({"min_ops": -1}, "min_ops"),
        ({"min_ops": 5, "max_ops": 2}, "max_ops"),
        ({"min_gap_ms": -0.5}, "min_gap_ms"),
        ({"min_gap_ms": float("nan")}, "min_gap_ms"),
        ({"min_gap_ms": 100.0, "max_gap_ms": 10.0}, "max_gap_ms"),
        ({"weights": ()}, "weights"),
        ({"weights": (("rotate",),)}, "weights"),
        ({"weights": (("teleport", 1.0),)}, "teleport"),
        ({"weights": (("rotate", float("inf")),)}, "rotate"),
        ({"weights": (("rotate", -1.0),)}, "rotate"),
        ({"weights": (("rotate", "heavy"),)}, "rotate"),
        ({"weights": (("rotate", 0.0), ("kill", 0.0))}, "total weight"),
    ])
    def test_invalid_spec_names_the_field(self, kwargs, field):
        with pytest.raises(FleetError, match=field):
            PopulationSpec(**kwargs)


class TestDeviceWorkload:
    def test_pure_in_seed_and_member(self):
        first = device_workload(DEFAULT_POPULATION, 0x5EED, 7)
        second = device_workload(DEFAULT_POPULATION, 0x5EED, 7)
        assert first == second

    def test_matches_legacy_script_bytes(self):
        # The stationary path must keep the pre-IR generator's exact
        # tuple output — the committed fleet baselines depend on it.
        # The digest was recorded from the tuple-script generator.
        tuples = [device_workload(DEFAULT_POPULATION, 0x5EED, member)
                  .to_tuples() for member in range(20)]
        digest = hashlib.sha256(json.dumps(tuples).encode()).hexdigest()
        assert digest == LEGACY_SCRIPT_SHA256

    def test_every_session_has_a_config_change(self):
        for member in range(50):
            workload = device_workload(DEFAULT_POPULATION, 0x5EED, member)
            assert workload.config_changes() >= 1
