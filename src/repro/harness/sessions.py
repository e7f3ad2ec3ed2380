"""Day-in-the-life session driver.

The paper motivates runtime changes with usage data: "on average, users
change device orientations every 5 mins accumulatively over sessions of
the same app" (Section 1, citing RuntimeDroid's study).  This driver
replays that cadence against a corpus app: the user interacts (writes
state), the device rotates roughly every five minutes, and every
rotation that loses the user's state counts as one *incident* — the
user-visible annoyance the paper's whole mechanism exists to remove.

Since the ``repro.workload`` refactor the session is expressed in the
shared IR: :func:`compile_usage` turns a :class:`UsageSpec` into a
:class:`~repro.workload.ir.Workload` (waits, writes, rotations, and an
explicit post-rotation :class:`~repro.workload.ir.Audit` of the app's
first slot), and :func:`run_session` replays it through the one device
driver the fleet and the oracle also use
(:func:`repro.workload.driver.drive`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import DeterministicRng
from repro.system import AndroidSystem
from repro.workload.driver import DriverProfile, drive
from repro.workload.ir import Audit, Op, Rotate, Wait, Workload, Write


@dataclass(frozen=True)
class UsageSpec:
    """One simulated usage session."""

    duration_min: float = 60.0
    rotation_period_min: float = 5.0
    rotation_jitter: float = 0.3
    writes_per_period: int = 2


@dataclass
class SessionResult:
    """Outcome of one session."""

    package: str
    policy: str
    rotations: int = 0
    incidents: int = 0          # rotations that lost the user's state
    crashes: int = 0
    handling_total_ms: float = 0.0


def compile_usage(app, spec: UsageSpec, seed: int) -> Workload:
    """Compile one usage session to the shared IR (pure in its inputs).

    Each period: ``writes_per_period`` writes spread over the period's
    jittered gap, then the rotation, then — when the app declares state
    — an immediate audit of the first slot (no settle wait in between:
    the user looks at the screen the moment it comes back, which is
    exactly when restart-based policies show the blank field).
    """
    rng = DeterministicRng(seed)
    has_slot = bool(app.slots)
    period_ms = spec.rotation_period_min * 60_000.0
    ops: list[Op] = []
    elapsed = 0.0
    counter = 0
    while elapsed < spec.duration_min * 60_000.0:
        gap = rng.jitter(period_ms, spec.rotation_jitter)
        sub_gap = gap / (spec.writes_per_period + 1)
        for _ in range(spec.writes_per_period):
            ops.append(Wait(sub_gap))
            if has_slot:
                counter += 1
                ops.append(Write(counter, slot=0))
        ops.append(Wait(sub_gap))
        ops.append(Rotate())
        if has_slot:
            ops.append(Audit(0))
        elapsed += gap
    return Workload(tuple(ops))


def run_session(
    policy_factory,
    app,
    spec: UsageSpec | None = None,
    seed: int = 0xDA1,
) -> SessionResult:
    """Drive one usage session; count state-loss incidents.

    After every rotation the driver audits the app's first slot against
    the last value the user entered; a mismatch is one incident, and the
    user re-enters the value (as real users do, grudgingly).
    """
    spec = spec if spec is not None else UsageSpec()
    system = AndroidSystem(policy=policy_factory(), seed=seed)
    system.launch(app)
    workload = compile_usage(app, spec, seed)

    profile = DriverProfile(
        write_value=lambda step: f"entry-{step}",
        initial_expected=(
            {app.slots[0].name: "entry-0"} if app.slots else {}
        ),
        settle_audits=False,    # audits are explicit Audit ops here
        relaunch_audit=False,
        epilogue="none",        # the session ends when the hour does
    )
    result = drive(system, app, workload, profile)

    session = SessionResult(package=app.package, policy=system.policy.name)
    session.rotations = result.counts.get("rotate", 0)
    session.incidents = result.loss_events
    session.crashes = 1 if result.crashed else 0
    session.handling_total_ms = sum(
        ms for ms, _ in system.handling_times()
    )
    return session
