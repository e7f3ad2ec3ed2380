"""Wire protocol of the simulation daemon: job params and event lines.

One rule keeps the daemon honest: **the server and the CLI build specs
through the same functions**.  ``python -m repro fleet`` and a daemon
job both construct their :class:`~repro.fleet.run.FleetSpec` via
:func:`fleet_spec_from_params`, so a spec can never mean two different
fleets depending on which path ran it — the precondition for the
byte-identity gate in ``BENCH_serve.json``.

Job params are plain JSON objects (everything a request needs travels
by value; recorded workloads ship inline as their canonical envelope).
Events are JSON objects streamed one per line (JSON lines); the stream
for a job always ends with a terminal event (``done``, ``cancelled``,
or ``error``), and ``partial`` events carry the canonical report of the
shards folded so far — a monotone refinement whose last step equals the
final report byte-for-byte.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.errors import ServeError
from repro.options import check_params

PROTOCOL_VERSION = 1

#: Job kinds the daemon executes.  ``fleet``, ``oracle``, and ``hunt``
#: mirror the CLI subcommands; ``experiment`` runs the request list of
#: one engine-backed experiment
#: (:data:`~repro.harness.experiments.ENGINE_EXPERIMENTS`) through the
#: daemon's shared result cache.
JOB_KINDS = ("fleet", "oracle", "experiment", "hunt")


def job_params(kind: str, params: Any) -> dict:
    """A job's params checked against its kind's option schema
    (:mod:`repro.options`), every default filled in; raises
    :class:`ServeError`.

    The schema checks names, types and ranges.  Semantic validation
    (unknown policy, unknown workload) happens when the spec is built,
    in the same exception types the CLI sees.
    """
    if kind not in JOB_KINDS:
        raise ServeError(f"unknown job kind {kind!r}; known: {list(JOB_KINDS)}")
    try:
        return check_params(kind, params)
    except ValueError as error:
        raise ServeError(str(error)) from None


def check_job_params(kind: str, params: Any) -> dict:
    """Validate a job request (:func:`job_params`); returns its params."""
    job_params(kind, params)
    return {} if params is None else params


# ----------------------------------------------------------------------
# fleet params -> FleetSpec (shared by the CLI and the daemon)
# ----------------------------------------------------------------------
def fleet_spec_from_params(params: dict):
    """Build the :class:`~repro.fleet.run.FleetSpec` a params dict names.

    The one spec-construction path: ``repro fleet`` packs its parsed
    flags into this params shape and so does the daemon client, so both
    sides derive cell sizing (``devices`` is the fleet total, split
    across cells exactly as the CLI always has) and workload resolution
    identically.  Raises :class:`ServeError` for malformed params and
    the underlying ``FleetError``/``WorkloadError``/``OracleError`` for
    semantically bad ones — the same errors, whichever side builds it.
    """
    from repro.fleet import FaultPlan, FleetSpec, NO_FAULTS, fleet_corpus

    checked = job_params("fleet", params)
    given = [key for key in ("workload", "workload_ir", "phases")
             if checked[key] is not None]
    if len(given) > 1:
        raise ServeError(f"params {given} are mutually exclusive")

    population = None
    fixed_workload = None
    plan = None
    if checked["workload"] is not None:
        from repro.workload.library import workload_named

        population = workload_named(checked["workload"])
    elif checked["workload_ir"] is not None:
        from repro.workload.codec import workload_from_dict

        fixed_workload = workload_from_dict(checked["workload_ir"])
    elif checked["phases"] is not None:
        from repro.workload.library import phase_plan_named

        plan = phase_plan_named(checked["phases"])

    policies = checked["policies"] or FleetSpec.policies
    cell_count = len(fleet_corpus()) * len(policies)
    faults = checked["faults"]
    return FleetSpec(
        policies=policies,
        devices_per_cell=math.ceil(checked["devices"] / cell_count),
        faults=FaultPlan.uniform(faults) if faults else NO_FAULTS,
        seed=checked["seed"],
        shard_size=checked["shard_size"],
        oracle_rate=checked["oracle"],
        population=(population if population is not None
                    else FleetSpec.population),
        workload=fixed_workload,
        phases=plan,
    )


# ----------------------------------------------------------------------
# hunt params -> HuntSettings (shared by the CLI and the daemon)
# ----------------------------------------------------------------------
def hunt_settings_from_params(params: dict):
    """Build the :class:`~repro.hunt.search.HuntSettings` a params dict
    names — the one construction path both the daemon and the CLI's
    in-process fallback use, so a daemon hunt can never mean a different
    corpus or policy set than a local one.  Local-only execution knobs
    (``jobs``, ``cache``) are not params; callers layer them on with
    :func:`dataclasses.replace`.
    """
    from repro.hunt.search import HuntSettings

    checked = job_params("hunt", params)
    policies = checked["policies"]
    return HuntSettings(
        apps=checked["apps"],
        seed=checked["seed"],
        **({"policies": policies} if policies else {}),
    )


def fleet_params_fingerprint(params: dict) -> str:
    """Stable identity of a fleet request (defaults applied), for the
    daemon's warm-path bookkeeping and bench reporting."""
    from repro.engine.fingerprint import fingerprint

    return fingerprint(["repro.serve.fleet", PROTOCOL_VERSION,
                        job_params("fleet", params)])


def resolve_app(name: str):
    """Resolve an app by package or label across both corpora.

    Returns ``(app, known_names)`` exactly like the CLI's resolver —
    ``app`` is ``None`` when unknown, ``known_names`` feeds the
    did-you-mean hint on both sides of the wire.
    """
    from repro.apps.appset27 import build_appset27
    from repro.fleet import fleet_corpus

    by_key: dict[str, Any] = {}
    for app in [*fleet_corpus(), *build_appset27()]:
        by_key[app.package.lower()] = app
        by_key[app.label.lower()] = app
    return by_key.get(name.lower()), sorted(by_key)


# ----------------------------------------------------------------------
# event lines
# ----------------------------------------------------------------------
TERMINAL_EVENTS = ("done", "cancelled", "error")


def encode_event(event: dict) -> bytes:
    """One canonical JSON line (sorted keys, no whitespace)."""
    return (json.dumps(event, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_event(line: "bytes | str") -> dict:
    """Parse one event line; raises :class:`ServeError` on junk."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServeError(f"event line is not UTF-8: {exc}") from exc
    try:
        event = json.loads(line)
    except ValueError as exc:
        raise ServeError(
            f"event line is not JSON: {line[:80]!r}"
        ) from exc
    if not isinstance(event, dict) or "event" not in event:
        raise ServeError(f"malformed event (no 'event' field): {line[:80]!r}")
    return event
