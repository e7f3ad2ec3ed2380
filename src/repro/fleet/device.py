"""One fleet device: play a session workload, audit state, fold to an outcome.

The device is the fleet's unit of work.  It receives a freshly forked
:class:`~repro.system.AndroidSystem` (or, on the benchmark's cold path,
a freshly prepared one — byte-identical by the snapshot contract),
plays the member's workload through the shared session driver
(:func:`repro.workload.driver.drive`), and reduces everything observed
into a small :class:`DeviceOutcome` so the executor can recycle the
system immediately — peak memory stays proportional to one device, not
the fleet.

Audit semantics follow ``harness/sessions.py``: after every
configuration change settles (and after every relaunch), each declared
state slot is compared against what the simulated user last entered.  A
mismatch counts one loss event and the user re-enters the value, so a
single restart defect is counted once, not once per subsequent audit.
A crash ends the session — the user gave up — which is what makes
fleet crash rates and loss rates policy-differentiating rather than
additive noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.fleet.faults import DeviceFaults, FaultPlan, apply_slow_storage
from repro.fleet.population import template_value
from repro.workload.driver import (
    RELAUNCH_SETTLE_MS,
    DriverProfile,
    drive,
    kill_app_process,
)
from repro.workload.ir import Kill, Wait, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.dsl import AppSpec
    from repro.system import AndroidSystem

__all__ = ["DeviceOutcome", "run_device", "RELAUNCH_SETTLE_MS"]


@dataclass(frozen=True)
class DeviceOutcome:
    """Everything the aggregator keeps about one finished device."""

    member: int
    crashed: bool
    loss_events: int
    audits: int
    process_deaths: int
    handling_ms: tuple[float, ...]
    memory_mb: float | None
    ops: int
    faulted: bool


def run_device(
    system: "AndroidSystem",
    app: "AppSpec",
    script: "Workload | Sequence[tuple]",
    faults: DeviceFaults,
    plan: FaultPlan,
    member: int,
) -> DeviceOutcome:
    """Play one member's session on ``system`` and fold it to an outcome.

    ``script`` is a :class:`Workload` IR program (or the legacy op-tuple
    form, accepted for compatibility and converted losslessly).
    """
    package = app.package
    if faults.slow_storage:
        apply_slow_storage(system, plan.slow_storage_multiplier)
    workload = (script if isinstance(script, Workload)
                else Workload.from_tuples(script))
    ops = list(workload.ops)
    if faults.low_memory_kill:
        # Halfway through the session, aligned to an op boundary (the
        # script alternates op, wait, op, wait, ...).
        middle = len(ops) // 2
        middle -= middle % 2
        ops[middle:middle] = [Kill(), Wait(250.0)]
    workload = Workload(tuple(ops))

    death_armed = False

    def arm_mid_migration_death() -> None:
        nonlocal death_armed
        if not death_armed:
            death_armed = True
            system.ctx.scheduler.schedule(
                plan.mid_migration_delay_ms,
                lambda: kill_app_process(system, package),
                label="fleet:mid-migration-death",
            )

    profile = DriverProfile(
        write_value=lambda step: f"m{member}.s{step}",
        initial_expected={
            slot.name: template_value(slot.name) for slot in app.slots
        },
        epilogue="audit",
        on_config_change=(
            arm_mid_migration_death if faults.mid_migration_death else None
        ),
    )
    result = drive(system, app, workload, profile)

    alive = (not result.crashed
             and system.foreground_activity(package) is not None)
    memory_mb = system.memory_of(package) if alive else None
    return DeviceOutcome(
        member=member,
        crashed=result.crashed,
        loss_events=result.loss_events,
        audits=result.audits,
        process_deaths=result.process_deaths,
        handling_ms=result.handling_ms,
        memory_mb=memory_mb,
        ops=result.ops_played,
        faulted=faults.any,
    )
