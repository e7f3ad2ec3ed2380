"""Wire-protocol unit tests: params validation, spec identity, events.

The load-bearing promise is that the daemon and the CLI build their
:class:`FleetSpec` through the *same* function, so a params dict can
never mean two different fleets depending on which side ran it.  These
tests pin that function's behaviour directly; the subprocess tests in
``test_daemon.py`` pin the resulting byte identity end to end.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ServeError, WorkloadError
from repro.fleet import fleet_corpus
from repro.fleet.run import FleetSpec
from repro.serve.protocol import (
    JOB_KINDS,
    PROTOCOL_VERSION,
    TERMINAL_EVENTS,
    check_job_params,
    decode_event,
    encode_event,
    fleet_params_fingerprint,
    fleet_spec_from_params,
    resolve_app,
)


class TestCheckJobParams:
    def test_known_kinds(self):
        assert set(JOB_KINDS) == {"fleet", "oracle", "experiment", "hunt"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServeError, match="unknown job kind"):
            check_job_params("warp", {})

    def test_params_must_be_an_object(self):
        with pytest.raises(ServeError, match="JSON object"):
            check_job_params("fleet", [1, 2, 3])

    def test_none_params_default_to_empty(self):
        assert check_job_params("fleet", None) == {}

    def test_unknown_fleet_param_rejected_with_known_list(self):
        with pytest.raises(ServeError, match="shard_sizes"):
            check_job_params("fleet", {"shard_sizes": 8})

    def test_oracle_needs_app(self):
        with pytest.raises(ServeError, match="'app'"):
            check_job_params("oracle", {})

    def test_experiment_needs_name(self):
        with pytest.raises(ServeError, match="'experiment'"):
            check_job_params("experiment", {})

    @pytest.mark.parametrize("params", [
        {"devices": 0}, {"devices": -5}, {"shard_size": 0},
        {"faults": 2}, {"faults": -0.5}, {"oracle": 1.5},
    ], ids=repr)
    def test_out_of_range_fleet_params_rejected(self, params):
        with pytest.raises(ServeError, match=f"param '{next(iter(params))}'"):
            check_job_params("fleet", params)

    @pytest.mark.parametrize("kind, params", [
        ("oracle", {"app": "fleet.notepad", "seed": "x"}),
        ("oracle", {"app": "fleet.notepad", "policies": "android10"}),
        ("oracle", {"app": "fleet.notepad", "member": 1.5}),
        ("experiment", {"experiment": "fig14", "seed": "x"}),
        ("hunt", {"apps": 0}),
        ("hunt", {"seed": "x"}),
        ("hunt", {"policies": ["rchdroid", 3]}),
    ], ids=repr)
    def test_every_kind_types_its_params(self, kind, params):
        with pytest.raises(ServeError, match="param '"):
            check_job_params(kind, params)

    def test_bad_params_are_a_400_at_submit(self, tmp_path):
        import asyncio

        from repro.serve.server import Daemon, _Server

        class Writer:
            data = b""

            def write(self, chunk):
                self.data += chunk

        daemon = Daemon(jobs=1, root=str(tmp_path / "root"))
        try:
            for kind, params in [("fleet", {"devices": -5}),
                                 ("fleet", {"faults": 2}),
                                 ("oracle", {"app": "fleet.notepad",
                                             "seed": "x"}),
                                 ("experiment", {"experiment": "fig14",
                                                 "seed": "x"})]:
                writer = Writer()
                body = json.dumps({"kind": kind, "params": params})
                asyncio.run(_Server(daemon)._route(
                    "POST", "/jobs", body.encode(), writer))
                head, _, reply = writer.data.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400"), (kind, params)
                assert json.loads(reply)["error"].startswith("param '")
            assert daemon.jobs == {}
        finally:
            daemon.shutdown()


class TestFleetSpecFromParams:
    def test_empty_params_give_cli_defaults(self):
        spec = fleet_spec_from_params({})
        default = FleetSpec()
        assert spec.policies == default.policies
        assert spec.seed == default.seed
        assert spec.shard_size == default.shard_size
        assert spec.oracle_rate == 0.0

    def test_devices_is_the_fleet_total_split_across_cells(self):
        cells = len(fleet_corpus()) * 3
        spec = fleet_spec_from_params({"devices": 100})
        assert spec.devices_per_cell == math.ceil(100 / cells)
        assert fleet_spec_from_params({"devices": 1}).devices_per_cell == 1

    def test_policies_subset_shrinks_the_cell_grid(self):
        spec = fleet_spec_from_params(
            {"devices": 30, "policies": ["rchdroid"]}
        )
        assert spec.policies == ("rchdroid",)
        cells = len(fleet_corpus())
        assert spec.devices_per_cell == math.ceil(30 / cells)

    def test_type_errors_are_serve_errors(self):
        for bad in ({"devices": "12"}, {"seed": 1.5}, {"faults": "lots"},
                    {"policies": "rchdroid"}, {"devices": True},
                    {"workload": 7}, {"workload_ir": "inline"},
                    {"phases": ["diurnal"]}):
            with pytest.raises(ServeError):
                fleet_spec_from_params(bad)

    def test_workload_sources_are_mutually_exclusive(self):
        with pytest.raises(ServeError, match="mutually exclusive"):
            fleet_spec_from_params(
                {"workload": "idle", "phases": "diurnal"}
            )

    def test_named_workload_resolves_like_the_cli(self):
        from repro.workload.library import workload_named

        spec = fleet_spec_from_params({"workload": "idle"})
        assert spec.population == workload_named("idle")

    def test_unknown_workload_raises_the_cli_error(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            fleet_spec_from_params({"workload": "no-such-workload"})

    def test_inline_workload_ir_round_trips(self):
        from repro.workload.codec import workload_to_dict
        from repro.workload.generate import device_workload
        from repro.workload.library import workload_named

        workload = device_workload(workload_named("default"),
                                   seed=7, member=0)
        spec = fleet_spec_from_params(
            {"workload_ir": workload_to_dict(workload)}
        )
        assert spec.workload == workload

    def test_phase_plan_resolves(self):
        from repro.workload.library import phase_plan_named

        spec = fleet_spec_from_params({"phases": "diurnal"})
        assert spec.phases == phase_plan_named("diurnal")


class TestFaultPlan:
    @pytest.mark.parametrize("fraction", [-0.5, 1.5, float("nan")])
    def test_fractions_outside_the_unit_interval_are_refused(self, fraction):
        from repro.errors import FleetError
        from repro.fleet import FaultPlan

        with pytest.raises(FleetError, match=r"within \[0, 1\]"):
            FaultPlan.uniform(fraction)
        with pytest.raises(FleetError):
            FaultPlan(slow_storage_fraction=fraction)


class TestFingerprint:
    def test_key_order_does_not_matter(self):
        assert fleet_params_fingerprint({"devices": 12, "seed": 3}) == \
            fleet_params_fingerprint({"seed": 3, "devices": 12})

    def test_defaults_are_applied_before_hashing(self):
        assert fleet_params_fingerprint({}) == \
            fleet_params_fingerprint({"devices": 120, "faults": 0.0})

    def test_different_fleets_differ(self):
        assert fleet_params_fingerprint({"devices": 12}) != \
            fleet_params_fingerprint({"devices": 13})


class TestResolveApp:
    def test_package_and_label_both_resolve(self):
        app = fleet_corpus()[0]
        assert resolve_app(app.package)[0] is not None
        assert resolve_app(app.label.upper())[0] is not None

    def test_unknown_app_returns_sorted_known_names(self):
        app, known = resolve_app("com.example.absent")
        assert app is None
        assert known == sorted(known)
        assert fleet_corpus()[0].package.lower() in known


class TestEventLines:
    def test_round_trip_is_canonical(self):
        line = encode_event({"event": "partial", "seq": 2, "job": "job-1"})
        assert line.endswith(b"\n")
        assert line == b'{"event":"partial","job":"job-1","seq":2}\n'
        assert decode_event(line) == {
            "event": "partial", "job": "job-1", "seq": 2,
        }

    def test_terminal_events_are_the_protocol_constant(self):
        assert TERMINAL_EVENTS == ("done", "cancelled", "error")
        assert PROTOCOL_VERSION == 1

    def test_junk_lines_raise_serve_error(self):
        with pytest.raises(ServeError, match="not UTF-8"):
            decode_event(b"\xff\xfe")
        with pytest.raises(ServeError, match="not JSON"):
            decode_event("{nope")
        with pytest.raises(ServeError, match="no 'event'"):
            decode_event('{"job":"job-1"}')
        with pytest.raises(ServeError, match="no 'event'"):
            decode_event("[1,2]")
