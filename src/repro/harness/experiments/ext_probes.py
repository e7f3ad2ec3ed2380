"""Extension: time-resolved recovery probes after a rotation storm.

Not a figure from the paper.  A sweep over ``audit_delay_ms`` samples
the *trajectory* of device state after a burst of configuration changes:
when user-written view state is back, when the in-flight asynchronous
update lands (or crashes the restarted activity), and how the policies
differ on the way to steady state.

Every probe of a policy replays the identical storm prefix (settle,
sentinels, six rotations, async start, final rotation) and diverges only
in how long it waits before auditing — the engine's best case for prefix
snapshots: one prepare + N forks per policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.benchmark import make_benchmark_app
from repro.engine import RunRequest
from repro.harness.experiments import run_requests
from repro.harness.report import render_table
from repro.harness.runner import ProbeVerdict

DELAYS_MS: tuple[float, ...] = (
    100.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 6_000.0, 8_000.0,
)
POLICY_NAMES: tuple[str, ...] = ("android10", "runtimedroid", "rchdroid")
NUM_IMAGES = 8


@dataclass
class ExtProbesResult:
    delays_ms: tuple[float, ...]
    verdicts: dict[str, list[ProbeVerdict]]
    """Per policy, one verdict per audit delay (same order as
    ``delays_ms``)."""

    def series(self, policy: str) -> list[ProbeVerdict]:
        return self.verdicts[policy]

    @property
    def rchdroid_state_always_intact(self) -> bool:
        """RCHDroid keeps every sentinel at every sampled instant.

        Once the async update lands it legitimately overwrites the first
        drawable (the benchmark's sentinel slot), so from that instant
        the async value counting as visible is the intact state.
        """
        return all(
            not v.crashed
            and (v.async_update_visible or all(v.slots_matching.values()))
            for v in self.verdicts["rchdroid"]
        )

    @property
    def async_eventually_visible(self) -> dict[str, bool]:
        """Per policy: did the async update land by the last probe?"""
        return {
            policy: bool(series) and series[-1].async_update_visible is True
            for policy, series in self.verdicts.items()
        }


def requests(seed: int = 0x5EED) -> list[RunRequest]:
    app = make_benchmark_app(NUM_IMAGES)
    return [
        RunRequest.probe(policy, app, seed, audit_delay_ms=delay)
        for policy in POLICY_NAMES
        for delay in DELAYS_MS
    ]


def fold(requests: list[RunRequest], results: list) -> ExtProbesResult:
    per_policy = len(DELAYS_MS)
    return ExtProbesResult(delays_ms=DELAYS_MS, verdicts={
        policy: results[i * per_policy:(i + 1) * per_policy]
        for i, policy in enumerate(POLICY_NAMES)
    })


def run(seed: int = 0x5EED, *, jobs: int | str | None = None,
        cache=None) -> ExtProbesResult:
    return run_requests(requests, fold, seed, jobs=jobs, cache=cache)


def _slot_cell(verdict: ProbeVerdict) -> str:
    intact = sum(verdict.slots_matching.values())
    return f"{intact}/{len(verdict.slots_matching)}"


def _async_cell(verdict: ProbeVerdict) -> str:
    if verdict.async_update_visible is None:
        return "-"
    return "yes" if verdict.async_update_visible else "no"


def format_report(result: ExtProbesResult) -> str:
    tables = []
    for policy, series in result.verdicts.items():
        tables.append(render_table(
            ["audit delay (ms)", "crashed", "slots intact",
             "async visible", "handled", "memory (MB)"],
            [
                [f"{v.audit_delay_ms:.0f}", "yes" if v.crashed else "no",
                 _slot_cell(v), _async_cell(v), v.handling_count,
                 f"{v.memory_mb:.2f}"]
                for v in series
            ],
            title=f"ext-probes: post-storm state over time — {policy}",
        ))
    eventually = result.async_eventually_visible
    footer = (
        f"\nRCHDroid state intact at every instant: "
        f"{result.rchdroid_state_always_intact}"
        "\nasync update visible by the last probe: "
        + ", ".join(f"{policy}={eventually[policy]}" for policy in eventually)
    )
    return "\n\n".join(tables) + footer
