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

One coordinator, :class:`FleetPlan`, holds a run's shards, template
keys and running fold; :func:`run_fleet` and the serve daemon both plan,
dispatch and fold through it, and both ship a shard to a worker as the
same task, :func:`_run_shard_task`.  ``run_fleet`` runs those tasks on
a :class:`~repro.engine.pool.PersistentPool` it owns for the call (the
pool ``run_batch`` and the daemon use) as a **work-stealing pool**:
shards are submitted individually (largest first, so a tail shard
cannot strand a worker at the end of the run) through a bounded
in-flight window, and each idle worker pulls the next shard off the
shared queue.  A host without usable multiprocessing gets the pool's
thread fallback; a worker that dies mid-shard ends the run with a
:class:`~repro.errors.FleetError` naming the shards in flight.  With
``checkpoint_path`` set, the coordinator periodically publishes the
accumulators plus the completed shard-id set (atomic replace, see
``fleet/checkpoint.py``), and once more before that error; a killed
run resumes from the last checkpoint and produces the byte-identical
report.

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
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.batch import POLICIES, _resolve_jobs
from repro.engine.fingerprint import fingerprint
from repro.engine.pool import PersistentPool
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
    with _TEMPLATE_LOCK:
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
#: Guards the cache and the counters: on a pool's thread fallback, shard
#: tasks share them.  Disk reads and captures run outside it.
_TEMPLATE_LOCK = threading.Lock()


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


def _counters_since(before: dict[str, int]) -> dict[str, int]:
    """This process's :func:`template_cache_stats` change since ``before``."""
    return {key: value - before[key]
            for key, value in template_cache_stats().items()}


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
    with _TEMPLATE_LOCK:
        snap = _TEMPLATE_CACHE.pop(cache_key, None)
        if snap is not None:
            # Re-insert on hit so dict order stays LRU for the cap below.
            _TEMPLATE_CACHE[cache_key] = snap
            return snap
    store = SnapshotStore(root=root)
    snap = store._read_disk(key)
    rebuilt = snap is None
    if rebuilt:
        snap = capture_template(spec, cell_index)
        if persist:
            store.put(key, snap)
    with _TEMPLATE_LOCK:
        if rebuilt:
            _TEMPLATE_REBUILDS += 1
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
    """The running process's :func:`template_cache_stats` change over
    the task, plus its ``pid``; set by :func:`_run_shard_task`, so only
    on shards that ran as pool tasks."""


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
    """The pool task body of :func:`run_fleet` and the serve daemon.

    ``payload`` is :meth:`FleetPlan.payload`'s ``(spec, shard, root,
    key, oracle_keys)``; templates come through the per-process cache.
    The outcome carries this process's counter change over the task and
    its pid, for ``--stats``.
    """
    spec, shard, root, key, oracle_keys = payload
    before = template_cache_stats()
    template = _load_worker_template(root, key, spec, shard.cell_index)
    oracle_templates = None
    if oracle_keys:
        oracle_templates = {
            policy: _load_worker_template(root, pol_key, spec, cell_index)
            for policy, (cell_index, pol_key) in oracle_keys.items()
        }
    outcome = _run_shard(spec, shard, template, oracle_templates)
    outcome.stats = {"pid": os.getpid(), **_counters_since(before)}
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

    @property
    def exit_code(self) -> int:
        """1 if the sampled oracle found a SIMULATOR_BUG, else 0."""
        return int(self.oracle is not None and self.oracle.simulator_bugs > 0)


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
# the coordinator: one plan-and-fold for run_fleet and the serve daemon
# ----------------------------------------------------------------------
class FleetPlan:
    """One fleet run's plan and running fold.

    Holds the shards still to fold (``pending``), the oracle-cell map of
    the shards that run oracle sessions (they fork *every* policy's
    template of their app), the template key of each cell those shards
    need, and the integer-exact accumulators with the ``completed`` and
    ``devices`` counts.  :func:`run_fleet` and the serve daemon both
    build a run's pool tasks with :meth:`payload`, fold outcomes with
    :meth:`fold` and report with :meth:`result`.

    ``checkpoint_path`` seeds the fold from a checkpoint of the same
    spec (see :func:`run_fleet`) and republishes it every
    ``checkpoint_every`` folds and on :meth:`flush`.
    """

    def __init__(
        self,
        spec: FleetSpec,
        shard_ids: Sequence[int] | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ):
        shards = plan_shards(spec)
        self.spec = spec
        self.total_shards = len(shards)
        if shard_ids is not None:
            if checkpoint_path is not None:
                raise FleetError(
                    "checkpoint_path requires a full run; it cannot track "
                    "an explicit shard_ids subset"
                )
            wanted = set(shard_ids)
            unknown = wanted - {shard.shard_id for shard in shards}
            if unknown:
                raise FleetError(f"unknown shard ids {sorted(unknown)}")
            shards = [s for s in shards if s.shard_id in wanted]
        self.cohorts = [CohortAccumulator(app.package, policy)
                        for app, policy in spec.cells()]
        self.oracle: OracleAccumulator | None = None
        self.completed: set[int] = set()
        self.devices = 0
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self._spec_fp = ""
        self._unsaved = 0
        if checkpoint_path is not None:
            self._spec_fp = fingerprint(spec)
            resumed = load_checkpoint(checkpoint_path, self._spec_fp,
                                      self.total_shards)
            if resumed is not None:
                self.cohorts = resumed.cohorts
                self.oracle = resumed.oracle
                self.completed = set(resumed.completed)
                self.devices = resumed.devices
        self.pending = {shard.shard_id: shard for shard in shards
                        if shard.shard_id not in self.completed}
        self.oracle_cells = {
            shard_id: oracle_cell_indices(spec, shard)
            for shard_id, shard in self.pending.items()
            if oracle_members(spec, shard)
        }
        cells = {shard.cell_index for shard in self.pending.values()}
        for mapping in self.oracle_cells.values():
            cells.update(mapping.values())
        self.keys = {cell: template_key(spec, cell) for cell in sorted(cells)}
        #: pid -> summed counter changes of the pool tasks it ran.
        self.worker_stats: dict[int, dict[str, int]] = {}

    def payload(self, shard: Shard, root: str) -> tuple:
        """:func:`_run_shard_task`'s argument for ``shard``, with its
        templates read from the store at ``root``."""
        oracle_keys = {
            policy: (cell, self.keys[cell])
            for policy, cell in self.oracle_cells.get(shard.shard_id,
                                                      {}).items()
        }
        return (self.spec, shard, root, self.keys[shard.cell_index],
                oracle_keys or None)

    def fold(self, shard_id: int, outcome: ShardOutcome) -> None:
        """Merge one pending shard's outcome, in any completion order."""
        shard = self.pending.pop(shard_id)
        self.cohorts[shard.cell_index].merge(outcome.cohort)
        if outcome.oracle is not None:
            if self.oracle is None:
                self.oracle = OracleAccumulator()
            self.oracle.merge(outcome.oracle)
        self.completed.add(shard_id)
        self.devices += shard.devices
        if outcome.stats is not None:
            stats = dict(outcome.stats)
            totals = self.worker_stats.setdefault(stats.pop("pid"), {})
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        self._unsaved += 1
        if self._unsaved >= self.checkpoint_every:
            self.flush()

    def flush(self) -> None:
        """Publish the checkpoint if folds are unsaved or none exists."""
        path = self.checkpoint_path
        if path is None or (not self._unsaved and os.path.exists(path)):
            return
        save_checkpoint(path, FleetCheckpoint(
            spec_fingerprint=self._spec_fp,
            total_shards=self.total_shards,
            completed=tuple(self.completed),
            devices=self.devices,
            cohorts=self.cohorts,
            oracle=self.oracle,
        ))
        self._unsaved = 0

    def result(self, stats_before: dict[str, int] | None = None) -> FleetResult:
        """The fold so far as a :class:`FleetResult`.

        ``stats_before`` (this process's :func:`template_cache_stats` at
        the start of the run) adds ``cache_stats``: this process's
        counter change plus every other process's task deltas.
        """
        cache_stats = None
        if stats_before is not None:
            cache_stats = _counters_since(stats_before)
            cache_stats["workers"] = len(self.worker_stats)
            for pid, stats in self.worker_stats.items():
                if pid == os.getpid():
                    # Tasks on the pool's thread fallback ran here;
                    # their counts are already in this process's change.
                    continue
                for key, value in stats.items():
                    cache_stats[key] += value
        oracle = self.oracle
        if oracle is None and self.spec.oracle_rate > 0.0:
            oracle = OracleAccumulator()
        return FleetResult(
            seed=self.spec.seed,
            shard_size=self.spec.shard_size,
            total_shards=self.total_shards,
            shard_ids=tuple(sorted(self.completed)),
            devices=self.devices,
            cohorts=self.cohorts,
            oracle_rate=self.spec.oracle_rate,
            oracle=oracle,
            cache_stats=cache_stats,
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

    ``collect_stats`` attaches the run's template-provisioning counters
    (this process and every pool worker) as ``result.cache_stats`` (and
    a ``"cache"`` report section).
    """
    from repro.engine.batch import _CONFIG

    stats_before = template_cache_stats() if collect_stats else None
    plan = FleetPlan(spec, shard_ids, checkpoint_path, checkpoint_every)
    todo = list(plan.pending.values())
    workers = _resolve_jobs(_CONFIG.jobs if jobs is None else jobs,
                            len(todo))
    if workers > 1 and len(todo) > 1 and use_templates:
        _run_sharded(plan, workers, snapshot_root)
    else:
        # Serial bypass: a resolved jobs of 1 (explicit --jobs 1, or
        # --jobs auto on a one-core host) skips the pool entirely — no
        # pool spawn, no per-task pickling.  BENCH_fleet.json's
        # forced-pool `sharded` row shows why: on one core the pool
        # costs more than it buys.  With a snapshot_root the bypass
        # still provisions templates through the store (memory -> disk
        # -> rebuild-and-persist), so long-lived callers stay warm
        # across serial runs too.
        templates: dict[int, SystemSnapshot | None] = {}
        for cell_index, key in plan.keys.items():
            if not use_templates:
                templates[cell_index] = None
            elif snapshot_root is not None:
                templates[cell_index] = _load_worker_template(
                    snapshot_root, key, spec, cell_index, persist=True,
                )
            else:
                templates[cell_index] = capture_template(spec, cell_index)
        for shard in todo:
            oracle_templates = {
                policy: templates[cell_index]
                for policy, cell_index
                in plan.oracle_cells.get(shard.shard_id, {}).items()
            }
            plan.fold(shard.shard_id, _run_shard(
                spec, shard, templates[shard.cell_index],
                oracle_templates or None,
            ))
    plan.flush()
    return plan.result(stats_before)


def _run_sharded(plan: FleetPlan, workers: int,
                 snapshot_root: str | None) -> None:
    """Work-steal the plan's shards across a pool, folding on completion.

    Templates are published to the disk store, which each worker reads
    once per template into its process cache; each shard is its own pool
    task, submitted largest-first through a bounded in-flight
    window, so idle workers always pull the next undone shard and
    ``plan.fold`` (hence checkpointing) sees outcomes as they land.
    """
    root = snapshot_root or tempfile.mkdtemp(prefix="repro-fleet-templates-")
    pool = PersistentPool(workers)
    try:
        store = SnapshotStore(root=root)
        for cell_index, key in plan.keys.items():
            if store._read_disk(key) is None:
                store.put(key, capture_template(plan.spec, cell_index))
        # The in-flight window bounds coordinator memory (pending
        # futures, pickled results) without ever starving a worker:
        # 4 tasks per worker in flight is refill headroom, and
        # fold-on-completion keeps checkpoints fresh.
        window = workers * 4
        todo = deque(steal_order(list(plan.pending.values())))
        in_flight: dict = {}
        while todo or in_flight:
            while todo and len(in_flight) < window:
                shard = todo.popleft()
                in_flight[pool.submit(_run_shard_task,
                                      plan.payload(shard, root))] = shard
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                shard = in_flight.pop(future)
                try:
                    outcome = future.result()
                except BrokenExecutor as error:
                    plan.flush()
                    lost = sorted(s.shard_id
                                  for s in (shard, *in_flight.values()))
                    raise FleetError(
                        f"a fleet worker died with shards {lost} in "
                        f"flight: {error}"
                    ) from error
                plan.fold(shard.shard_id, outcome)
    finally:
        pool.shutdown()
        if snapshot_root is None:
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
