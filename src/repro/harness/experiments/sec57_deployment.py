"""Section 5.7, deployment overhead.

RCHDroid deploys once per device (flashing the patched system image:
92,870 ms); RuntimeDroid patches every app individually (the paper
measures 12,867–161,598 ms per app).  The crossover is immediate: with
more than a handful of apps, one system flash is cheaper than per-app
patching — and requires zero app modifications.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.runtimedroid import (
    RUNTIMEDROID_TABLE4,
    deployment_cost_ms,
)
from repro.harness.report import Comparison, render_comparisons, render_table
from repro.sim.costs import DEFAULT_COSTS

PAPER = {
    "rchdroid_total_ms": 92_870.0,
    "runtimedroid_min_ms": 12_867.0,
    "runtimedroid_max_ms": 161_598.0,
}


@dataclass
class DeploymentResult:
    rchdroid_total_ms: float
    runtimedroid_per_app_ms: list[tuple[str, float]]

    @property
    def runtimedroid_min_ms(self) -> float:
        return min(ms for _, ms in self.runtimedroid_per_app_ms)

    @property
    def runtimedroid_max_ms(self) -> float:
        return max(ms for _, ms in self.runtimedroid_per_app_ms)

    @property
    def runtimedroid_total_ms(self) -> float:
        return sum(ms for _, ms in self.runtimedroid_per_app_ms)

    @property
    def rchdroid_cheaper_beyond_apps(self) -> int:
        """Smallest app count at which one flash beats per-app patching."""
        mean_patch = self.runtimedroid_total_ms / len(
            self.runtimedroid_per_app_ms
        )
        count = 1
        while count * mean_patch < self.rchdroid_total_ms:
            count += 1
        return count


def run() -> DeploymentResult:
    rchdroid_ms, per_app = deployment_cost_ms(
        DEFAULT_COSTS, [entry.android10_loc for entry in RUNTIMEDROID_TABLE4]
    )
    return DeploymentResult(
        rchdroid_total_ms=rchdroid_ms,
        runtimedroid_per_app_ms=[
            (entry.app, ms)
            for entry, ms in zip(RUNTIMEDROID_TABLE4, per_app)
        ],
    )


def format_report(result: DeploymentResult) -> str:
    table = render_table(
        ["App", "RuntimeDroid patch time (ms)"],
        [[label, f"{ms:.0f}"] for label, ms in result.runtimedroid_per_app_ms],
        title="Section 5.7: deployment overhead",
    )
    comparisons = render_comparisons(
        [
            Comparison("RCHDroid deployment (one flash)",
                       PAPER["rchdroid_total_ms"],
                       result.rchdroid_total_ms, "ms"),
            Comparison("RuntimeDroid min patch",
                       PAPER["runtimedroid_min_ms"],
                       result.runtimedroid_min_ms, "ms"),
            Comparison("RuntimeDroid max patch",
                       PAPER["runtimedroid_max_ms"],
                       result.runtimedroid_max_ms, "ms"),
        ],
        "paper vs measured",
    )
    footer = (
        f"\none system flash beats per-app patching beyond "
        f"{result.rchdroid_cheaper_beyond_apps} apps"
    )
    return table + "\n\n" + comparisons + footer
