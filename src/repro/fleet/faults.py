"""Fault injection: degrade a seeded fraction of fleet devices.

Real fleets are not happy paths: low-RAM devices get their background
apps killed, cheap flash makes state save/restore slow, and processes
die mid-migration.  A :class:`FaultPlan` assigns each fault to a
configurable fraction of devices; assignment is drawn per **member
index** from a dedicated RNG sub-stream, so:

* the same seed always faults the same devices, regardless of sharding;
* device *i* carries identical faults under every (app, policy) cell,
  keeping cross-policy comparisons apples-to-apples;
* every plan consumes the *same number* of draws per device, so raising
  one fraction never reshuffles which devices receive the other faults.

The three fault kinds:

``low_memory_kill``
    The OS kills the app mid-session (an extra ``("kill",)`` op injected
    halfway through the script); the user relaunches at the next
    interaction, exercising the restart-recovery path.
``slow_storage``
    Bundle save/restore and resource loading cost a multiple of the
    calibrated board constants — applied by swapping the *forked*
    device's cost model (``ctx.costs``), which every subsequent
    ``consume`` reads; the cohort template is captured once with stock
    costs and stays shared.
``mid_migration_death``
    The process is killed a few tens of milliseconds after the device's
    first configuration change — while RCHDroid's lazy migration (or a
    stock relaunch) is still in flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import FleetError
from repro.sim.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import AndroidSystem

#: Cost-model constants scaled by the slow-storage fault.
SLOW_STORAGE_FIELDS = (
    "save_state_base_ms",
    "save_state_per_view_ms",
    "restore_state_per_view_ms",
    "resource_load_base_ms",
)


@dataclass(frozen=True)
class DeviceFaults:
    """The faults one fleet member drew from its plan."""

    low_memory_kill: bool = False
    slow_storage: bool = False
    mid_migration_death: bool = False

    @property
    def any(self) -> bool:
        return (self.low_memory_kill or self.slow_storage
                or self.mid_migration_death)


@dataclass(frozen=True)
class FaultPlan:
    """Fractions of the fleet receiving each fault, plus fault knobs."""

    low_memory_kill_fraction: float = 0.0
    slow_storage_fraction: float = 0.0
    mid_migration_death_fraction: float = 0.0
    slow_storage_multiplier: float = 4.0
    mid_migration_delay_ms: float = 30.0

    def __post_init__(self) -> None:
        for fraction in (self.low_memory_kill_fraction,
                         self.slow_storage_fraction,
                         self.mid_migration_death_fraction):
            if not 0.0 <= fraction <= 1.0:
                raise FleetError(
                    f"fault fraction must be within [0, 1], got {fraction}"
                )

    def draw(self, seed: int, member: int) -> DeviceFaults:
        """Deterministically assign this plan's faults to one member."""
        rng = DeterministicRng(seed).fork(f"fleet-faults-{member}")
        # One draw per fault kind, always, in a fixed order (see module
        # docstring for why unconditional draws matter).
        kill = rng.uniform(0.0, 1.0) < self.low_memory_kill_fraction
        slow = rng.uniform(0.0, 1.0) < self.slow_storage_fraction
        death = rng.uniform(0.0, 1.0) < self.mid_migration_death_fraction

        return DeviceFaults(
            low_memory_kill=kill,
            slow_storage=slow,
            mid_migration_death=death,
        )

    @staticmethod
    def uniform(fraction: float) -> "FaultPlan":
        """All three fault kinds at the same fraction (the CLI knob)."""
        return FaultPlan(
            low_memory_kill_fraction=fraction,
            slow_storage_fraction=fraction,
            mid_migration_death_fraction=fraction,
        )


NO_FAULTS = FaultPlan()


def apply_slow_storage(system: "AndroidSystem", multiplier: float) -> None:
    """Degrade one forked device's storage-bound cost constants.

    Every cost consumption reads ``ctx.costs`` at call time, so swapping
    the reference on the fork changes all subsequent save/restore and
    resource-load costs without touching the shared template snapshot.
    """
    costs = system.ctx.costs
    system.ctx.costs = costs.with_overrides(
        **{name: getattr(costs, name) * multiplier
           for name in SLOW_STORAGE_FIELDS}
    )
