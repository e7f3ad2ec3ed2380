"""Extension experiment: a faulted device fleet, all three policies.

The paper evaluates single devices on fixed scenarios; a platform team
deciding whether to ship RCHDroid would instead ask what happens to a
*population*: thousands of devices, heterogeneous apps, users rotating
and folding and switching locales at their own pace, some devices
low-RAM, some on slow flash, some dying mid-migration.  This experiment
runs the ``repro.fleet`` simulator over the fleet corpus with every
fault kind injected into a quarter of the devices and reports, per
policy, the population-level crash rate, data-loss rate, and handling
latency distribution (mean / p95 from the mergeable sketch).

Expected shape: stock Android 10 crashes a substantial fraction of the
fleet (async tasks straddling restarts) and loses state almost
everywhere; RCHDroid never crashes and confines loss to bare-field apps
and abrupt kills; RuntimeDroid's in-place handling has the lowest
latencies but its whole-activity retention costs the most memory.
"""

from __future__ import annotations

from repro.fleet import FaultPlan, FleetSpec, format_fleet_report, run_fleet
from repro.fleet.run import FleetResult

#: Fraction of the fleet receiving each fault kind.
FAULT_FRACTION = 0.25


def run(
    devices_per_cell: int = 24,
    fault_fraction: float = FAULT_FRACTION,
    seed: int = 0x5EED,
    jobs: "int | str | None" = None,
) -> FleetResult:
    spec = FleetSpec(
        devices_per_cell=devices_per_cell,
        faults=FaultPlan.uniform(fault_fraction),
        seed=seed,
    )
    return run_fleet(spec, jobs=jobs)


def format_report(result: FleetResult) -> str:
    report = result.report()
    by_policy = {row["policy"]: row for row in report["policies"]}
    stock = by_policy["android10"]
    rchdroid = by_policy["rchdroid"]
    footer = (
        f"\nstock crash rate {100 * stock['crash_rate']:.0f}%, "
        f"data-loss rate {100 * stock['data_loss_rate']:.0f}% | "
        f"RCHDroid {100 * rchdroid['crash_rate']:.0f}% / "
        f"{100 * rchdroid['data_loss_rate']:.0f}%"
    )
    return format_fleet_report(result) + footer
