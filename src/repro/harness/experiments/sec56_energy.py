"""Section 5.6: energy consumption.

The paper measures whole-board power after runtime changes for all 27
apps and reads a flat 4.03 W under both systems: a shadow-state activity
is invisible and inactive, so it draws no cycles, only memory.  Here we
compute the board's mean power over the post-change steady state under
both policies for every app.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.apps.appset27 import build_appset27
from repro.baselines.android10 import Android10Policy
from repro.core.policy import RCHDroidPolicy
from repro.harness.report import Comparison, render_comparisons
from repro.system import AndroidSystem

PAPER_POWER_W = 4.03


@dataclass
class EnergyRow:
    label: str
    android10_w: float
    rchdroid_w: float


@dataclass
class EnergyResult:
    rows: list[EnergyRow]

    @property
    def mean_android10_w(self) -> float:
        return mean(row.android10_w for row in self.rows)

    @property
    def mean_rchdroid_w(self) -> float:
        return mean(row.rchdroid_w for row in self.rows)

    @property
    def max_divergence_w(self) -> float:
        return max(abs(row.rchdroid_w - row.android10_w) for row in self.rows)


def _steady_state_power(policy_factory, app, seed: int) -> float:
    """Rotate twice, then measure mean board power over a quiet minute."""
    system = AndroidSystem(policy=policy_factory(), seed=seed)
    system.launch(app)
    system.run_for(1_000)
    system.rotate()
    system.run_for(1_000)
    system.rotate()
    start = system.now_ms
    system.run_for(60_000)
    return system.energy.average_power_w(app.package, start, system.now_ms)


def run(seed: int = 0x5EED) -> EnergyResult:
    rows: list[EnergyRow] = []
    for app in build_appset27(seed):
        rows.append(
            EnergyRow(
                label=app.label,
                android10_w=_steady_state_power(Android10Policy, app, seed),
                rchdroid_w=_steady_state_power(RCHDroidPolicy, app, seed),
            )
        )
    return EnergyResult(rows=rows)


def format_report(result: EnergyResult) -> str:
    comparisons = render_comparisons(
        [
            Comparison("mean board power, Android-10", PAPER_POWER_W,
                       result.mean_android10_w, "W"),
            Comparison("mean board power, RCHDroid", PAPER_POWER_W,
                       result.mean_rchdroid_w, "W"),
        ],
        "Section 5.6: energy consumption (27 apps)",
    )
    footer = (
        f"\nmax per-app divergence RCHDroid vs Android-10: "
        f"{result.max_divergence_w * 1000:.2f} mW "
        "(paper: unchanged — the shadow instance is inactive)"
    )
    return comparisons + footer
