"""Lossless JSON codec for scenario results.

The disk tier of the result cache stores JSON, not pickles: the files are
inspectable, diffable, and safe to load.  The codec must round-trip
*exactly* — the engine's headline guarantee is that a cached result is
byte-identical to a freshly simulated one — so tuples are restored as
tuples, enums by value, and floats rely on JSON's exact repr round-trip.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.apps.dsl import IssueKind
from repro.engine.fingerprint import fingerprint
from repro.errors import EngineError
from repro.harness.runner import HandlingMeasurement, IssueVerdict, ProbeVerdict
from repro.harness.scenarios import GcTradeoffPoint, ScalabilityMeasurement

HANDLING = "handling"
ISSUE = "issue"
GC = "gc"
SCALABILITY = "scalability"
PROBE = "probe"
HUNT = "hunt"


def encode_result(result: Any) -> dict[str, Any]:
    """Result dataclass → JSON-able payload (the disk-cache unit)."""
    # Function-level import: ``repro.hunt`` reaches back into the engine
    # (its search stage drives run_batch), so a module-scope import here
    # would close an import cycle through the hunt package init.
    from repro.hunt.session import HuntProbe

    if isinstance(result, HandlingMeasurement):
        return {
            "type": HANDLING,
            "package": result.package,
            "label": result.label,
            "policy": result.policy,
            "episodes": [[ms, path] for ms, path in result.episodes],
            "memory_after_mb": result.memory_after_mb,
        }
    if isinstance(result, IssueVerdict):
        return {
            "type": ISSUE,
            "package": result.package,
            "label": result.label,
            "policy": result.policy,
            "issue": result.issue.value,
            "crashed": result.crashed,
            "crash_exception": result.crash_exception,
            "slots_preserved": dict(result.slots_preserved),
            "async_update_visible": result.async_update_visible,
            "handling": [[ms, path] for ms, path in result.handling],
        }
    if isinstance(result, GcTradeoffPoint):
        return {
            "type": GC,
            "thresh_t_s": result.thresh_t_s,
            "mean_handling_ms": result.mean_handling_ms,
            "cpu_overhead_ms": result.cpu_overhead_ms,
            "mean_memory_mb": result.mean_memory_mb,
            "init_count": result.init_count,
            "flip_count": result.flip_count,
            "collections": result.collections,
        }
    if isinstance(result, ScalabilityMeasurement):
        return {
            "type": SCALABILITY,
            "package": result.package,
            "policy": result.policy,
            "variant": result.variant,
            "handling_ms": result.handling_ms,
            "init_ms": result.init_ms,
            "migration_ms": result.migration_ms,
        }
    if isinstance(result, ProbeVerdict):
        return {
            "type": PROBE,
            "package": result.package,
            "label": result.label,
            "policy": result.policy,
            "audit_delay_ms": result.audit_delay_ms,
            "audited_at_ms": result.audited_at_ms,
            "crashed": result.crashed,
            "crash_exception": result.crash_exception,
            "slots_matching": dict(result.slots_matching),
            "async_update_visible": result.async_update_visible,
            "memory_mb": result.memory_mb,
            "handling_count": result.handling_count,
        }
    if isinstance(result, HuntProbe):
        return {
            "type": HUNT,
            "package": result.package,
            "policy": result.policy,
            "script": [list(op) for op in result.script],
            "crashed": result.crashed,
            "crash_kinds": list(result.crash_kinds),
            "lost_slots": list(result.lost_slots),
            "relaunches": result.relaunches,
            "process_deaths": result.process_deaths,
            "ops_played": result.ops_played,
            "digest_json": result.digest_json,
        }
    raise EngineError(f"cannot encode result of type {type(result).__name__}")


def canonical_result(result: Any) -> str:
    """The one canonical text of a result: its payload as sorted,
    compact JSON.  Fork-equals-fresh checks compare these strings."""
    return json.dumps(encode_result(result), sort_keys=True,
                      separators=(",", ":"))


def experiment_digest(results: Iterable[Any]) -> str:
    """Digest of an experiment's ordered results — what a daemon
    ``experiment`` job reports and the in-process batch must match."""
    return fingerprint([canonical_result(result) for result in results])


def decode_result(payload: dict[str, Any]) -> Any:
    """Inverse of :func:`encode_result`."""
    from repro.hunt.session import HuntProbe

    kind = payload.get("type")
    if kind == HANDLING:
        return HandlingMeasurement(
            package=payload["package"],
            label=payload["label"],
            policy=payload["policy"],
            episodes=[(ms, path) for ms, path in payload["episodes"]],
            memory_after_mb=payload["memory_after_mb"],
        )
    if kind == ISSUE:
        return IssueVerdict(
            package=payload["package"],
            label=payload["label"],
            policy=payload["policy"],
            issue=IssueKind(payload["issue"]),
            crashed=payload["crashed"],
            crash_exception=payload["crash_exception"],
            slots_preserved=dict(payload["slots_preserved"]),
            async_update_visible=payload["async_update_visible"],
            handling=[(ms, path) for ms, path in payload["handling"]],
        )
    if kind == GC:
        return GcTradeoffPoint(
            thresh_t_s=payload["thresh_t_s"],
            mean_handling_ms=payload["mean_handling_ms"],
            cpu_overhead_ms=payload["cpu_overhead_ms"],
            mean_memory_mb=payload["mean_memory_mb"],
            init_count=payload["init_count"],
            flip_count=payload["flip_count"],
            collections=payload["collections"],
        )
    if kind == SCALABILITY:
        return ScalabilityMeasurement(
            package=payload["package"],
            policy=payload["policy"],
            variant=payload["variant"],
            handling_ms=payload["handling_ms"],
            init_ms=payload["init_ms"],
            migration_ms=payload["migration_ms"],
        )
    if kind == PROBE:
        return ProbeVerdict(
            package=payload["package"],
            label=payload["label"],
            policy=payload["policy"],
            audit_delay_ms=payload["audit_delay_ms"],
            audited_at_ms=payload["audited_at_ms"],
            crashed=payload["crashed"],
            crash_exception=payload["crash_exception"],
            slots_matching=dict(payload["slots_matching"]),
            async_update_visible=payload["async_update_visible"],
            memory_mb=payload["memory_mb"],
            handling_count=payload["handling_count"],
        )
    if kind == HUNT:
        return HuntProbe(
            package=payload["package"],
            policy=payload["policy"],
            script=tuple(tuple(op) for op in payload["script"]),
            crashed=payload["crashed"],
            crash_kinds=tuple(payload["crash_kinds"]),
            lost_slots=tuple(payload["lost_slots"]),
            relaunches=payload["relaunches"],
            process_deaths=payload["process_deaths"],
            ops_played=payload["ops_played"],
            digest_json=payload["digest_json"],
        )
    raise EngineError(f"cannot decode cached payload of type {kind!r}")
