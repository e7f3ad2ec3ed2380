"""Cohort spawner and sharded fleet executor.

The fleet is a matrix of (app, policy) **cells**; each cell's cohort of
devices forks from one template :class:`~repro.sim.snapshot.SystemSnapshot`
(the app launched, settled, and its slots seeded) — PR 3's prefix
sharing as the hot path.  Templates are captured with
``trim_history=True``: the recorder's busy/heap/event/latency history is
dead weight for a fork that only measures its *own* future, and
trimming it shrinks every per-device restore.

Determinism across execution shapes is structural, not incidental:

* the **shard plan** is a pure function of the spec (cells × cohort
  size × ``shard_size``), never of the worker count — ``--jobs 1`` and
  ``--jobs 8`` execute the identical shard list;
* shards never span cells, and each shard folds its devices in
  ascending member order into one integer-only
  :class:`~repro.fleet.aggregate.CohortAccumulator` (exact under any
  merge topology — see ``fleet/aggregate.py``);
* the coordinator folds shard accumulators **as they complete**, in
  whatever order the pool returns them — integer-exact merges make the
  fold order irrelevant, which is also what makes work-stealing and
  checkpoint/resume byte-identical to a serial run.

The executor is a **work-stealing pool**: shards are submitted
individually (largest first, so a tail shard cannot strand a worker at
the end of the run) through a bounded in-flight window, and each idle
worker pulls the next shard off the shared queue.  With
``checkpoint_path`` set, the coordinator periodically publishes the
accumulators plus the completed shard-id set (atomic replace, see
``fleet/checkpoint.py``); a killed run resumes from the last
checkpoint and produces the byte-identical report.

Memory stays bounded by recycling: a shard worker materialises one
device at a time, folds it into the shard accumulator, and drops it —
peak RSS scales with one device plus one accumulator, independent of
the fleet size.  Templates reach a worker through one chain: its
per-process cache, then the coordinator's disk store, then a cold
rebuild as the byte-identical last resort (:func:`template_cache_stats`
counts every path).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.engine.batch import POLICIES, _resolve_jobs
from repro.engine.fingerprint import fingerprint
from repro.engine.snapshots import SnapshotStore
from repro.errors import FleetError
from repro.fleet.aggregate import CohortAccumulator, OracleAccumulator
from repro.fleet.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    FleetCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.fleet.device import run_device
from repro.fleet.faults import NO_FAULTS, FaultPlan
from repro.fleet.population import (
    DEFAULT_POPULATION,
    PopulationSpec,
    device_workload,
    fleet_corpus,
    template_value,
)
from repro.options import DEFAULT_SHARD_SIZE
from repro.workload.ir import Workload
from repro.workload.phases import PhasePlan, phased_workload
from repro.harness.report import render_table
from repro.sim.snapshot import SNAPSHOT_FORMAT_VERSION, SystemSnapshot
from repro.system import AndroidSystem

DEFAULT_POLICIES = ("android10", "runtimedroid", "rchdroid")


@dataclass(frozen=True)
class FleetSpec:
    """One fleet run, described entirely by value (picklable)."""

    apps: tuple = ()
    policies: tuple[str, ...] = DEFAULT_POLICIES
    devices_per_cell: int = 8
    population: PopulationSpec = DEFAULT_POPULATION
    faults: FaultPlan = NO_FAULTS
    seed: int = 0x5EED
    shard_size: int = DEFAULT_SHARD_SIZE
    settle_ms: float = 400.0
    oracle_rate: float = 0.0
    """Fraction of members that also get a cross-policy differential
    oracle session (digest-only).  0 disables the oracle entirely and
    leaves the report byte-identical to pre-oracle fleets."""
    workload: "Workload | None" = None
    """A fixed IR program every member replays (e.g. one compiled from
    a recorded trace via ``repro.workload.from_trace``).  ``None`` (the
    default) draws per-member sessions from ``population``/``phases``."""
    phases: "PhasePlan | None" = None
    """A time-varying phase plan (``repro.workload.phases``); when set,
    per-member sessions come from :func:`phased_workload` instead of
    the stationary ``population`` distribution."""

    def __post_init__(self) -> None:
        if not self.apps:
            object.__setattr__(self, "apps", fleet_corpus())
        for policy in self.policies:
            if policy not in POLICIES:
                raise FleetError(
                    f"unknown policy {policy!r}; known: {sorted(POLICIES)}"
                )
        if self.devices_per_cell < 1:
            raise FleetError("devices_per_cell must be >= 1")
        if self.shard_size < 1:
            raise FleetError("shard_size must be >= 1")
        if self.workload is not None:
            if not isinstance(self.workload, Workload):
                raise FleetError(
                    "FleetSpec.workload must be a repro.workload Workload, "
                    f"got {type(self.workload).__name__}"
                )
            if self.phases is not None:
                raise FleetError(
                    "FleetSpec.workload and FleetSpec.phases are mutually "
                    "exclusive (a fixed replay cannot also be phased)"
                )
        if self.phases is not None and not isinstance(self.phases, PhasePlan):
            raise FleetError(
                "FleetSpec.phases must be a repro.workload PhasePlan, "
                f"got {type(self.phases).__name__}"
            )
        if self.oracle_rate:
            from repro.oracle.sampler import _check_rate

            _check_rate(self.oracle_rate)  # raises OracleError if bad

    # ------------------------------------------------------------------
    def cells(self) -> list[tuple]:
        """(app, policy) cells in fixed app-major order."""
        return [(app, policy)
                for app in self.apps for policy in self.policies]

    @property
    def total_devices(self) -> int:
        return len(self.cells()) * self.devices_per_cell


@dataclass(frozen=True)
class Shard:
    """A contiguous member range of one cell's cohort."""

    shard_id: int
    cell_index: int
    start: int
    stop: int

    @property
    def devices(self) -> int:
        return self.stop - self.start


def plan_shards(spec: FleetSpec) -> list[Shard]:
    """The shard list — a pure function of the spec, never of jobs."""
    shards: list[Shard] = []
    for cell_index in range(len(spec.cells())):
        for start in range(0, spec.devices_per_cell, spec.shard_size):
            stop = min(start + spec.shard_size, spec.devices_per_cell)
            shards.append(Shard(len(shards), cell_index, start, stop))
    return shards


# ----------------------------------------------------------------------
# cohort templates
# ----------------------------------------------------------------------
def template_key(spec: FleetSpec, cell_index: int) -> str:
    app, policy = spec.cells()[cell_index]
    return fingerprint([
        "repro.fleet.template", SNAPSHOT_FORMAT_VERSION, policy,
        spec.seed, spec.settle_ms, fingerprint(app),
    ])


#: First-run burn-in: rotations played before the template's state is
#: seeded.  An even count, so the template ends in its initial
#: orientation; played with no async in flight, so no policy can crash.
TEMPLATE_BURN_IN_ROTATIONS = 4


def build_template(spec: FleetSpec, cell_index: int) -> AndroidSystem:
    """A settled device with the cell's app launched and state seeded.

    The template represents a device past its first-run workload: the
    app's startup async task has completed and the device has seen a few
    rotations (setup-wizard churn).  That work happens *before* the
    slots are seeded, so no policy's handling of it can disturb the
    seeded state — and it is exactly the work every forked device gets
    to skip, which is why cohort spawning via fork beats per-device cold
    setup (the gated ``bench-engine fleet`` speedup).
    """
    app, policy = spec.cells()[cell_index]
    system = AndroidSystem(policy=POLICIES[policy](), seed=spec.seed)
    system.launch(app)
    system.run_for(spec.settle_ms)
    if app.async_script is not None:
        system.start_async(app)
        system.run_for(app.async_script.duration_ms + 50.0)
    for _ in range(TEMPLATE_BURN_IN_ROTATIONS):
        system.rotate()
        system.run_for(300.0)
    for slot in app.slots:
        system.write_slot(app, slot.name, template_value(slot.name))
    system.run_for(50.0)
    return system


def capture_template(spec: FleetSpec, cell_index: int) -> SystemSnapshot:
    global _TEMPLATE_CAPTURES
    _TEMPLATE_CAPTURES += 1
    return SystemSnapshot.capture(
        build_template(spec, cell_index), trim_history=True
    )


# ----------------------------------------------------------------------
# per-worker template cache (one disk read per worker process, not per
# fork — see tests/fleet/test_fleet_run.py)
# ----------------------------------------------------------------------
#: Most templates kept hot per process.  Batch runs never get near it;
#: the bound exists for daemon-lifetime workers (repro.serve), whose
#: processes outlive any one spec and would otherwise accrete every
#: template they ever touched.  Eviction is LRU (dict order, re-inserted
#: on hit); an evicted template is simply re-read from disk.
_TEMPLATE_CACHE_CAP = 64
_TEMPLATE_CACHE: dict[tuple[str, str], SystemSnapshot] = {}
_TEMPLATE_DISK_READS = 0
_TEMPLATE_REBUILDS = 0
_TEMPLATE_CAPTURES = 0


def template_cache_stats() -> dict[str, int]:
    """This process's template-provisioning counters.

    ``templates_cached``/``disk_reads``/``rebuilds`` are the PR 5 cache
    counters; ``captures`` counts template builds (coordinator-side and
    cold rebuilds alike).
    """
    return {
        "templates_cached": len(_TEMPLATE_CACHE),
        "disk_reads": _TEMPLATE_DISK_READS,
        "rebuilds": _TEMPLATE_REBUILDS,
        "captures": _TEMPLATE_CAPTURES,
    }


def _reset_template_cache() -> None:
    global _TEMPLATE_DISK_READS, _TEMPLATE_REBUILDS, _TEMPLATE_CAPTURES
    _TEMPLATE_CACHE.clear()
    _TEMPLATE_DISK_READS = 0
    _TEMPLATE_REBUILDS = 0
    _TEMPLATE_CAPTURES = 0


def _load_worker_template(
    root: str,
    key: str,
    spec: FleetSpec,
    cell_index: int,
    *,
    persist: bool = False,
) -> SystemSnapshot:
    """The cell's template: cache, disk, or a cold rebuild.

    Every tier degrades to the next as a **miss, not an error**: a
    missing template file, a template truncated on disk by a crashed
    coordinator — templates are a pure optimisation under the
    fork-equals-fresh contract, so the worst case is rebuilding the
    snapshot cold, byte-identical and merely slower.

    ``persist`` additionally publishes a cold rebuild to the disk store
    at ``root`` — the coordinator-side serial path uses it so a later
    run (or a daemon's next request) finds the template warm.  Workers
    never persist; the coordinator owns the store's contents.
    """
    global _TEMPLATE_DISK_READS, _TEMPLATE_REBUILDS
    cache_key = (str(root), key)
    snap = _TEMPLATE_CACHE.get(cache_key)
    if snap is not None:
        # Re-insert on hit so dict order stays LRU for the cap below.
        _TEMPLATE_CACHE[cache_key] = _TEMPLATE_CACHE.pop(cache_key)
        return snap
    store = SnapshotStore(root=root)
    snap = store._read_disk(key)
    if snap is None:
        snap = capture_template(spec, cell_index)
        _TEMPLATE_REBUILDS += 1
        if persist:
            store.put(key, snap)
    else:
        _TEMPLATE_DISK_READS += 1
    _TEMPLATE_CACHE[cache_key] = snap
    while len(_TEMPLATE_CACHE) > _TEMPLATE_CACHE_CAP:
        _TEMPLATE_CACHE.pop(next(iter(_TEMPLATE_CACHE)))
    return snap


# ----------------------------------------------------------------------
# in-fleet oracle sampling
# ----------------------------------------------------------------------
def oracle_members(spec: FleetSpec, shard: Shard) -> list[int]:
    """The shard's members that get a differential oracle session.

    Oracle sessions span *all* policies of an app, so each sampled
    (app, member) pair runs exactly once fleet-wide: in the shard of
    the app's **first**-policy cell that owns the member.  Sampling
    itself is a pure function of (seed, member) — never of shard
    layout or worker count — which is what keeps ``--oracle`` reports
    byte-identical across ``--jobs`` and resumes.
    """
    if spec.oracle_rate <= 0.0:
        return []
    _, policy = spec.cells()[shard.cell_index]
    if policy != spec.policies[0]:
        return []
    from repro.oracle.sampler import sampled

    return [member for member in range(shard.start, shard.stop)
            if sampled(spec.seed, member, spec.oracle_rate)]


def oracle_cell_indices(spec: FleetSpec, shard: Shard) -> dict[str, int]:
    """policy → cell index of the shard's app (cells are app-major)."""
    app_index = shard.cell_index // len(spec.policies)
    return {policy: app_index * len(spec.policies) + offset
            for offset, policy in enumerate(spec.policies)}


# ----------------------------------------------------------------------
# shard execution
# ----------------------------------------------------------------------
@dataclass
class ShardOutcome:
    """What one shard hands back to the coordinator."""

    cohort: CohortAccumulator
    oracle: OracleAccumulator | None = None
    stats: dict | None = None
    """Worker-cumulative :func:`template_cache_stats` (plus ``pid``),
    attached only when the run collects stats."""


def member_workload(spec: FleetSpec, member: int) -> Workload:
    """Member ``member``'s session IR under ``spec`` (pure in spec+member).

    Three sources, in precedence order: a fixed ``spec.workload``
    replayed by every member, a time-varying ``spec.phases`` plan, or
    the stationary ``spec.population`` distribution (the default —
    byte-identical to the pre-IR tuple generator).
    """
    if spec.workload is not None:
        return spec.workload
    if spec.phases is not None:
        return phased_workload(spec.phases, spec.seed, member)
    return device_workload(spec.population, spec.seed, member)


def _run_shard(
    spec: FleetSpec,
    shard: Shard,
    template: SystemSnapshot | None,
    oracle_templates: "dict[str, SystemSnapshot | None] | None" = None,
) -> ShardOutcome:
    """Fold one shard's devices, in member order, into an accumulator.

    ``template=None`` is the benchmark's cold path: every device is
    prepared from scratch instead of forked (byte-identical results by
    the fork-equals-fresh contract, at per-device setup cost).

    ``oracle_templates`` (policy → per-policy template of this shard's
    app, or ``None`` entries on the cold path) enables the sampled
    differential oracle: each sampled member's session is re-run under
    every policy from the shared templates and the verdicts folded into
    the shard's :class:`~repro.fleet.aggregate.OracleAccumulator`.
    """
    app, policy = spec.cells()[shard.cell_index]
    accumulator = CohortAccumulator(app.package, policy)
    for member in range(shard.start, shard.stop):
        if template is None:
            system = build_template(spec, shard.cell_index)
        else:
            system = template.restore()
        outcome = run_device(
            system, app,
            member_workload(spec, member),
            spec.faults.draw(spec.seed, member),
            spec.faults, member,
        )
        accumulator.add(outcome)
        del system  # recycle before the next device

    oracle_acc: OracleAccumulator | None = None
    members = oracle_members(spec, shard)
    if members:
        from repro.oracle.session import run_oracle_session

        cell_of = oracle_cell_indices(spec, shard)
        prefixes = dict(oracle_templates or {})
        for pol, cell_index in cell_of.items():
            if prefixes.get(pol) is None:
                prefixes[pol] = capture_template(spec, cell_index)
        initial = {slot.name: template_value(slot.name)
                   for slot in app.slots}
        oracle_acc = OracleAccumulator()
        for member in members:
            session = run_oracle_session(
                app, spec.policies, spec.seed,
                script=member_workload(spec, member),
                member=member, trace=False, prefixes=prefixes,
                initial_values=initial,
            )
            oracle_acc.add_session(session)
    return ShardOutcome(cohort=accumulator, oracle=oracle_acc)


def _run_shard_task(payload) -> ShardOutcome:
    """Self-contained shard body: templates via the per-process cache.

    ``payload`` is ``(spec, shard, root, key, oracle_keys)`` — kept as
    the spec-carrying entry point for tests and for the serve daemon's
    persistent workers.
    """
    spec, shard, root, key, oracle_keys = payload
    template = _load_worker_template(root, key, spec, shard.cell_index)
    oracle_templates = None
    if oracle_keys:
        oracle_templates = {
            policy: _load_worker_template(root, pol_key, spec, cell_index)
            for policy, (cell_index, pol_key) in oracle_keys.items()
        }
    return _run_shard(spec, shard, template, oracle_templates)


# ----------------------------------------------------------------------
# the work-stealing pool: initializer-carried run state, per-shard tasks
# ----------------------------------------------------------------------
# One FleetSpec pickle per worker (via the pool initializer), not one
# per task — at ~31k shards for a million-device fleet, spec-carrying
# payloads would serialise the spec thousands of times over.
_WORKER_SPEC: FleetSpec | None = None
_WORKER_ROOT: str | None = None
_WORKER_COLLECT_STATS = False


def _fleet_worker_init(
    spec: FleetSpec, root: str, collect_stats: bool
) -> None:
    global _WORKER_SPEC, _WORKER_ROOT, _WORKER_COLLECT_STATS
    # Forked workers inherit the coordinator's counters; zero them so a
    # worker's stats report covers exactly its own work.
    _reset_template_cache()
    _WORKER_SPEC = spec
    _WORKER_ROOT = root
    _WORKER_COLLECT_STATS = collect_stats


def _run_shard_entry(task) -> ShardOutcome:
    """Pool task body: ``(shard, key, oracle_keys)`` against init state."""
    shard, key, oracle_keys = task
    spec = _WORKER_SPEC
    assert spec is not None and _WORKER_ROOT is not None
    outcome = _run_shard_task(
        (spec, shard, _WORKER_ROOT, key, oracle_keys)
    )
    if _WORKER_COLLECT_STATS:
        outcome.stats = {"pid": os.getpid(), **template_cache_stats()}
    return outcome


def steal_order(shards: Sequence[Shard]) -> list[Shard]:
    """Submission order for the self-scheduling pool: largest shards
    first (LPT), shard id as the deterministic tie-break — so a big
    tail shard cannot strand one worker while the rest sit idle.
    Execution order never affects report bytes (integer-exact folds);
    this only shapes the wall-clock tail.
    """
    return sorted(shards, key=lambda s: (-s.devices, s.shard_id))


# ----------------------------------------------------------------------
# the fleet result
# ----------------------------------------------------------------------
@dataclass
class FleetResult:
    """Aggregate outcome of a (possibly partial) fleet run."""

    seed: int
    shard_size: int
    total_shards: int
    shard_ids: tuple[int, ...]
    devices: int
    cohorts: list[CohortAccumulator] = field(default_factory=list)
    oracle_rate: float = 0.0
    oracle: OracleAccumulator | None = None
    cache_stats: dict | None = None
    """Aggregated template-provisioning counters (coordinator plus all
    workers), populated only when the run collects stats — absent by
    default so stats never perturb the pinned report bytes."""

    # ------------------------------------------------------------------
    def report(self) -> dict:
        policy_rollup: dict[str, CohortAccumulator] = {}
        for accumulator in self.cohorts:
            rollup = policy_rollup.setdefault(
                accumulator.policy,
                CohortAccumulator("*", accumulator.policy),
            )
            rollup.merge(accumulator, check_cohort=False)
        report = {
            "fleet": {
                "seed": self.seed,
                "shard_size": self.shard_size,
                "shards": self.total_shards,
                "covered_shards": len(self.shard_ids),
                "devices": self.devices,
                "cells": len(self.cohorts),
            },
            "cohorts": [acc.row() for acc in self.cohorts],
            "policies": [
                policy_rollup[policy].row(include_package=False)
                for policy in sorted(policy_rollup)
            ],
        }
        if self.oracle_rate > 0.0:
            # Present only when sampling is on, so oracle-off reports
            # keep their pre-oracle bytes.
            oracle = self.oracle or OracleAccumulator()
            report["oracle"] = {"rate": self.oracle_rate, **oracle.row()}
        if self.cache_stats is not None:
            # Present only under --stats: provisioning counters are
            # observability, not results, and must not perturb the
            # byte-identity the determinism tests pin.
            report["cache"] = {key: self.cache_stats[key]
                              for key in sorted(self.cache_stats)}
        return report

    def to_json(self) -> str:
        """Canonical byte form — the identity the determinism tests pin."""
        return json.dumps(self.report(), sort_keys=True,
                          separators=(",", ":"))


def merge_fleet_results(first: FleetResult, second: FleetResult) -> FleetResult:
    """Combine two partial runs of the *same* fleet (resume support).

    ``first`` must cover the lower shard ids; accumulators are
    integer-exact, so the merged result is byte-identical to a single
    run over the union.
    """
    if (first.seed, first.shard_size, first.total_shards,
            first.oracle_rate) != (
            second.seed, second.shard_size, second.total_shards,
            second.oracle_rate):
        raise FleetError("cannot merge results of different fleet specs")
    overlap = set(first.shard_ids) & set(second.shard_ids)
    if overlap:
        raise FleetError(f"partial runs overlap on shards {sorted(overlap)}")
    if first.shard_ids and second.shard_ids and \
            max(first.shard_ids) > min(second.shard_ids):
        first, second = second, first
    cohorts: list[CohortAccumulator] = []
    for left, right in zip(first.cohorts, second.cohorts):
        merged = left.copy_empty()
        merged.merge(left)
        merged.merge(right)
        cohorts.append(merged)
    oracle: OracleAccumulator | None = None
    if first.oracle is not None or second.oracle is not None:
        oracle = OracleAccumulator()
        for part in (first.oracle, second.oracle):
            if part is not None:
                oracle.merge(part)
    return FleetResult(
        seed=first.seed,
        shard_size=first.shard_size,
        total_shards=first.total_shards,
        shard_ids=tuple(sorted((*first.shard_ids, *second.shard_ids))),
        devices=first.devices + second.devices,
        cohorts=cohorts,
        oracle_rate=first.oracle_rate,
        oracle=oracle,
    )


# ----------------------------------------------------------------------
# the entry point
# ----------------------------------------------------------------------
def run_fleet(
    spec: FleetSpec,
    *,
    jobs: "int | str | None" = None,
    shard_ids: Sequence[int] | None = None,
    snapshot_root: str | None = None,
    use_templates: bool = True,
    checkpoint_path: str | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    collect_stats: bool = False,
) -> FleetResult:
    """Run a fleet (or a subset of its shards) and aggregate it.

    ``jobs`` follows the engine convention (``"auto"`` = one worker per
    core, bounded by the shard count; default from the engine config).
    ``shard_ids`` restricts execution to a subset of the plan — partial
    runs merge back together with :func:`merge_fleet_results`.
    ``use_templates=False`` is the benchmark's cold path (per-device
    setup instead of cohort forking).

    ``checkpoint_path`` makes the run resumable: completed shards are
    periodically published there (every ``checkpoint_every`` folds,
    atomic replace), a killed run picks up from the file, and the
    resumed report is byte-identical to an uninterrupted one.  Missing
    or corrupt checkpoints restart from scratch; a checkpoint from a
    *different* spec raises.  Incompatible with an explicit
    ``shard_ids`` subset (partial coverage would be recorded as fleet
    progress).

    ``collect_stats`` attaches aggregated
    template-provisioning counters as ``result.cache_stats`` (and a
    ``"cache"`` report section).
    """
    from repro.engine.batch import _CONFIG

    all_shards = plan_shards(spec)
    if shard_ids is None:
        shards = all_shards
    else:
        if checkpoint_path is not None:
            raise FleetError(
                "checkpoint_path requires a full run; it cannot track an "
                "explicit shard_ids subset"
            )
        wanted = set(shard_ids)
        unknown = wanted - {shard.shard_id for shard in all_shards}
        if unknown:
            raise FleetError(f"unknown shard ids {sorted(unknown)}")
        shards = [s for s in all_shards if s.shard_id in wanted]

    # --- seed accumulators, possibly from a checkpoint -----------------
    cohorts = [
        CohortAccumulator(app.package, policy)
        for app, policy in spec.cells()
    ]
    oracle: OracleAccumulator | None = None
    completed: set[int] = set()
    devices_done = 0
    spec_fp = fingerprint(spec) if checkpoint_path is not None else ""
    if checkpoint_path is not None:
        resumed = load_checkpoint(checkpoint_path, spec_fp, len(all_shards))
        if resumed is not None:
            cohorts = resumed.cohorts
            oracle = resumed.oracle
            completed = set(resumed.completed)
            devices_done = resumed.devices

    folds_since_write = 0

    def write_checkpoint() -> None:
        save_checkpoint(checkpoint_path, FleetCheckpoint(
            spec_fingerprint=spec_fp,
            total_shards=len(all_shards),
            completed=tuple(completed),
            devices=devices_done,
            cohorts=cohorts,
            oracle=oracle,
        ))

    def fold(shard: Shard, outcome: ShardOutcome) -> None:
        nonlocal oracle, devices_done, folds_since_write
        cohorts[shard.cell_index].merge(outcome.cohort)
        if outcome.oracle is not None:
            if oracle is None:
                oracle = OracleAccumulator()
            oracle.merge(outcome.oracle)
        completed.add(shard.shard_id)
        devices_done += shard.devices
        folds_since_write += 1
        if checkpoint_path is not None \
                and folds_since_write >= checkpoint_every:
            write_checkpoint()
            folds_since_write = 0

    todo = [s for s in shards if s.shard_id not in completed]
    worker_stats: dict[int, dict] = {}

    if todo:
        workers = _resolve_jobs(
            _CONFIG.jobs if jobs is None else jobs, len(todo)
        )
        needed_cells = sorted({shard.cell_index for shard in todo})
        # Shards that run oracle sessions fork *every* policy's template
        # of their app, so those cells must be provisioned too.
        oracle_cells: dict[int, dict[str, int]] = {}
        for shard in todo:
            if oracle_members(spec, shard):
                oracle_cells[shard.shard_id] = \
                    oracle_cell_indices(spec, shard)
        all_cells = sorted(
            set(needed_cells).union(
                cell for mapping in oracle_cells.values()
                for cell in mapping.values()
            )
        )

        if workers <= 1 or len(todo) <= 1 or not use_templates:
            # Serial bypass: a resolved jobs of 1 (explicit --jobs 1, or
            # --jobs auto on a one-core host) skips the process pool
            # entirely — no pool spawn, no per-task pickling.  BENCH_fleet.json's forced-pool `sharded` row
            # shows why: on one core the pool costs more than it buys.
            # With a snapshot_root the bypass still provisions templates
            # through the store (memory -> disk -> rebuild-and-persist),
            # so long-lived callers like the serve daemon stay warm
            # across serial runs too.
            templates: dict[int, SystemSnapshot | None] = {}
            for cell_index in all_cells:
                if not use_templates:
                    templates[cell_index] = None
                elif snapshot_root is not None:
                    templates[cell_index] = _load_worker_template(
                        snapshot_root, template_key(spec, cell_index),
                        spec, cell_index, persist=True,
                    )
                else:
                    templates[cell_index] = capture_template(
                        spec, cell_index
                    )
            for shard in todo:
                outcome = _run_shard(
                    spec, shard, templates[shard.cell_index],
                    {policy: templates[cell_index]
                     for policy, cell_index
                     in oracle_cells.get(shard.shard_id, {}).items()}
                    or None,
                )
                fold(shard, outcome)
        else:
            _run_sharded(
                spec, todo, all_cells, oracle_cells, workers,
                snapshot_root, collect_stats, fold, worker_stats,
            )

    if checkpoint_path is not None and (
            folds_since_write or not os.path.exists(checkpoint_path)):
        write_checkpoint()

    if spec.oracle_rate > 0.0 and oracle is None:
        oracle = OracleAccumulator()

    cache_stats: dict | None = None
    if collect_stats:
        cache_stats = dict(template_cache_stats())
        cache_stats["workers"] = len(worker_stats)
        for pid, stats in worker_stats.items():
            if pid == os.getpid():
                # The pool-less fallback runs shards in-process; its
                # counters are already in template_cache_stats().
                continue
            for key, value in stats.items():
                if key != "pid":
                    cache_stats[key] = cache_stats.get(key, 0) + value

    return FleetResult(
        seed=spec.seed,
        shard_size=spec.shard_size,
        total_shards=len(all_shards),
        shard_ids=tuple(sorted(completed)),
        devices=devices_done,
        cohorts=cohorts,
        oracle_rate=spec.oracle_rate,
        oracle=oracle,
        cache_stats=cache_stats,
    )


def _run_sharded(
    spec: FleetSpec,
    shards: list[Shard],
    needed_cells: list[int],
    oracle_cells: dict[int, dict[str, int]],
    workers: int,
    snapshot_root: str | None,
    collect_stats: bool,
    fold: Callable[[Shard, ShardOutcome], None],
    worker_stats: dict[int, dict],
) -> None:
    """Work-steal shards across a process pool, folding on completion.

    Templates are published to the disk store, which each worker reads
    once per template into its process cache; each shard is its own pool
    task, submitted largest-first through a bounded in-flight
    window, so idle workers always pull the next undone shard and
    ``fold`` (hence checkpointing) sees outcomes as they land.
    """
    root = snapshot_root or tempfile.mkdtemp(prefix="repro-fleet-templates-")
    cleanup = snapshot_root is None
    try:
        store = SnapshotStore(root=root)
        keys: dict[int, str] = {}
        for cell_index in needed_cells:
            key = template_key(spec, cell_index)
            keys[cell_index] = key
            if store._read_disk(key) is None:
                store.put(key, capture_template(spec, cell_index))

        def oracle_keys(shard: Shard):
            mapping = oracle_cells.get(shard.shard_id)
            if not mapping:
                return None
            return {policy: (cell_index, keys[cell_index])
                    for policy, cell_index in mapping.items()}

        tasks = deque(
            (shard, keys[shard.cell_index], oracle_keys(shard))
            for shard in steal_order(shards)
        )

        def record(outcome: ShardOutcome) -> None:
            if collect_stats and outcome.stats:
                # Worker stats are cumulative: keep the last report per
                # pid, sum across pids at the end.
                worker_stats[outcome.stats["pid"]] = outcome.stats

        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        try:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_fleet_worker_init,
                initargs=(spec, root, collect_stats),
            )
        except (OSError, ValueError):  # no usable multiprocessing here
            _fleet_worker_init(spec, root, collect_stats)
            for task in tasks:
                outcome = _run_shard_entry(task)
                record(outcome)
                fold(task[0], outcome)
            return
        with pool:
            # The in-flight window bounds coordinator memory (pending
            # futures, pickled results) without ever starving a worker:
            # 4 tasks per worker in flight is refill headroom, and
            # fold-on-completion keeps checkpoints fresh.
            window = workers * 4
            pending: dict = {}
            while tasks or pending:
                while tasks and len(pending) < window:
                    task = tasks.popleft()
                    pending[pool.submit(_run_shard_entry, task)] = task[0]
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    shard = pending.pop(future)
                    outcome = future.result()
                    record(outcome)
                    fold(shard, outcome)
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# report formatting
# ----------------------------------------------------------------------
def format_fleet_report(result: "FleetResult | dict") -> str:
    """Human tables for a fleet result — or for its report dict.

    Accepting the parsed report (``json.loads(result.to_json())``) lets
    the daemon's thin client render the identical tables from the wire
    bytes alone, without reconstructing accumulator objects.
    """
    report = result if isinstance(result, dict) else result.report()
    meta = report["fleet"]

    def cells(row: dict, with_app: bool) -> list:
        handling = row["handling"]
        return [
            *([row["app"]] if with_app else []),
            row["policy"], row["devices"],
            f"{100 * row['crash_rate']:.1f}%",
            f"{100 * row['data_loss_rate']:.1f}%",
            row["process_deaths"],
            f"{handling['mean_ms']:.1f}" if handling["count"] else "-",
            f"{handling['p95_ms']:.1f}" if handling["count"] else "-",
            f"{row['memory_mean_mb']:.1f}",
        ]

    table = render_table(
        ["app", "policy", "devices", "crash", "data loss", "deaths",
         "handling mean", "p95 (ms)", "mem (MB)"],
        [cells(row, True) for row in report["cohorts"]],
        title=(
            f"Fleet: {meta['devices']} devices, {meta['cells']} cohorts, "
            f"{meta['covered_shards']}/{meta['shards']} shards, "
            f"seed {meta['seed']:#x}"
        ),
    )
    rollup = render_table(
        ["policy", "devices", "crash", "data loss", "deaths",
         "handling mean", "p95 (ms)", "mem (MB)"],
        [cells(row, False) for row in report["policies"]],
        title="Per-policy rollup",
    )
    sections = [table, rollup]
    if "oracle" in report:
        oracle = report["oracle"]
        verdict_rows = [
            [policy,
             counts.get("EXPECTED_POLICY_DELTA", 0),
             counts.get("STATE_DIVERGENCE", 0),
             counts.get("SIMULATOR_BUG", 0)]
            for policy, counts in oracle["by_policy"].items()
        ]
        sections.append(render_table(
            ["policy", "expected", "state-div", "SIM-BUG"],
            verdict_rows,
            title=(
                f"Differential oracle: {oracle['sessions']} sampled "
                f"sessions at rate {oracle['rate']:g} — "
                + ("CLEAN"
                   if not oracle['verdicts'].get('SIMULATOR_BUG')
                   else f"{oracle['verdicts']['SIMULATOR_BUG']} "
                        "SIMULATOR_BUG")
            ),
        ))
        for detail in oracle["simulator_bug_details"][:10]:
            sections.append(f"  SIM-BUG: {detail}")
    if "cache" in report:
        cache = report["cache"]
        sections.append(render_table(
            ["counter", "count"],
            [[key, cache[key]] for key in sorted(cache)],
            title="Template provisioning (--stats)",
        ))
    return "\n\n".join(sections)
