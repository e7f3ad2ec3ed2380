"""repro.fleet: sharded fleet simulation with streaming aggregation.

A fleet run drives thousands of simulated devices — forked from
per-(app, policy) cohort templates — through seeded synthetic user
sessions, optionally degrades a seeded fraction of them with injected
faults, and streams everything into small mergeable accumulators whose
report is byte-identical across worker counts and resumed runs.

See docs/FLEET.md for the architecture and the determinism argument.
"""

from repro.fleet.aggregate import (
    CohortAccumulator,
    LatencySketch,
    OracleAccumulator,
)
from repro.fleet.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    FleetCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.fleet.device import DeviceOutcome, run_device
from repro.fleet.faults import NO_FAULTS, DeviceFaults, FaultPlan
from repro.fleet.population import (
    DEFAULT_POPULATION,
    PopulationSpec,
    device_workload,
    fleet_corpus,
)
from repro.fleet.run import (
    FleetResult,
    FleetSpec,
    Shard,
    format_fleet_report,
    member_workload,
    merge_fleet_results,
    oracle_members,
    plan_shards,
    run_fleet,
    steal_order,
    template_cache_stats,
)

__all__ = [
    "CohortAccumulator",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_POPULATION",
    "DeviceFaults",
    "DeviceOutcome",
    "FaultPlan",
    "FleetCheckpoint",
    "FleetResult",
    "FleetSpec",
    "LatencySketch",
    "NO_FAULTS",
    "OracleAccumulator",
    "PopulationSpec",
    "Shard",
    "device_workload",
    "fleet_corpus",
    "format_fleet_report",
    "load_checkpoint",
    "member_workload",
    "merge_fleet_results",
    "oracle_members",
    "plan_shards",
    "run_device",
    "run_fleet",
    "save_checkpoint",
    "steal_order",
    "template_cache_stats",
]
