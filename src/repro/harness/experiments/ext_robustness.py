"""Extension experiment: robustness under random event storms.

The paper evaluates fixed scenarios; the related testing work it cites
(AppDoctor, Adamsen et al.) injects randomized event sequences.  This
experiment combines both: the monkey drives N random storms (rotations,
resizes, locale switches, writes, async tasks, waits) into the benchmark
app under each policy and reports crash rates and state-loss rates.

Expected shape: stock Android crashes in a substantial fraction of
storms (whenever a task straddles a change) and loses state in almost
all of them; RCHDroid never crashes and never loses view state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.views.inflate import ViewSpec
from repro.apps.dsl import (
    AppSpec,
    AsyncScript,
    StateSlot,
    StorageKind,
    two_orientation_resources,
)
from repro.apps.monkey import monkey_run
from repro.baselines.android10 import Android10Policy
from repro.core.policy import RCHDroidPolicy
from repro.harness.report import render_table

TEXT_ID = 10
TARGET_ID = 11


def storm_app() -> AppSpec:
    return AppSpec(
        package="storm.app", label="StormApp",
        resources=two_orientation_resources(
            "main",
            [ViewSpec("TextView", view_id=TEXT_ID),
             ViewSpec("TextView", view_id=TARGET_ID)],
        ),
        slots=(StateSlot("note", StorageKind.VIEW_ATTR,
                         view_id=TEXT_ID, attr="text"),),
        async_script=AsyncScript("bg", 5_000.0,
                                 ((TARGET_ID, "text", "bg-done"),)),
    )


@dataclass
class PolicyStormStats:
    policy: str
    storms: int
    crashes: int
    state_losses: int
    invariant_violations: int

    @property
    def crash_rate(self) -> float:
        return self.crashes / self.storms if self.storms else 0.0

    @property
    def state_loss_rate(self) -> float:
        return self.state_losses / self.storms if self.storms else 0.0


@dataclass
class ExtRobustnessResult:
    stock: PolicyStormStats
    rchdroid: PolicyStormStats


def _sweep(policy_factory, storms: int, steps: int, seed: int) -> PolicyStormStats:
    crashes = 0
    losses = 0
    violations = 0
    for index in range(storms):
        report = monkey_run(
            policy_factory, storm_app(), steps=steps, seed=seed + index
        )
        if report.crashed:
            crashes += 1
        elif not report.state_followed_user:
            losses += 1
        violations += len(report.invariant_violations)
    name = policy_factory().name
    return PolicyStormStats(name, storms, crashes, losses, violations)


def run(storms: int = 25, steps: int = 30, seed: int = 0x5EED) -> ExtRobustnessResult:
    return ExtRobustnessResult(
        stock=_sweep(Android10Policy, storms, steps, seed),
        rchdroid=_sweep(RCHDroidPolicy, storms, steps, seed),
    )


def format_report(result: ExtRobustnessResult) -> str:
    table = render_table(
        ["policy", "storms", "crashes", "state losses",
         "invariant violations"],
        [
            [stats.policy, stats.storms, stats.crashes, stats.state_losses,
             stats.invariant_violations]
            for stats in (result.stock, result.rchdroid)
        ],
        title="Extension: robustness under random event storms",
    )
    footer = (
        f"\nstock crash rate {100 * result.stock.crash_rate:.0f}%, "
        f"state-loss rate {100 * result.stock.state_loss_rate:.0f}% | "
        f"RCHDroid {100 * result.rchdroid.crash_rate:.0f}% / "
        f"{100 * result.rchdroid.state_loss_rate:.0f}%"
    )
    return table + footer
