"""Seeded workload generation: distribution specs -> IR programs.

This is the generator core behind ``repro.fleet.population`` (which
re-exports everything here for back-compat) and the phase machinery in
``repro.workload.phases``.  The RNG discipline is load-bearing: for a
given ``(population, seed, member)`` the draw order is *frozen* —
``randint`` for the op count, then per step one ``uniform`` for the
weighted kind, an optional ``choice`` for locales, and one ``uniform``
for the think-time gap.  Changing it silently re-seeds every committed
fleet baseline, so the stationary path here must stay byte-identical
to the pre-IR tuple generator (pinned by a digest in
``tests/workload/test_generate.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import FleetError
from repro.sim.rng import DeterministicRng
from repro.workload.ir import (
    Kill,
    Locale,
    Night,
    Op,
    Resize,
    Rotate,
    StartAsync,
    Wait,
    Workload,
    Write,
)

__all__ = [
    "PopulationSpec",
    "DEFAULT_POPULATION",
    "FOLDED_SIZE",
    "UNFOLDED_SIZE",
    "LOCALES",
    "SCRIPT_OP_KINDS",
    "SessionState",
    "draw_session_ops",
    "device_workload",
]

#: Fold/unfold geometry: cover display vs inner display of a foldable.
FOLDED_SIZE = (1080, 2092)
UNFOLDED_SIZE = (1812, 2176)

LOCALES = ("en-US", "fr-FR", "de-DE", "ja-JP", "pt-BR")

#: The op kinds a :class:`PopulationSpec` weight table may name.
#: ``fold`` is a generator-level kind (it alternates between the two
#: fold geometries and emits ``resize`` ops).
SCRIPT_OP_KINDS = frozenset(
    {"rotate", "fold", "locale", "night", "write", "async", "kill"}
)


@dataclass(frozen=True)
class PopulationSpec:
    """Distribution parameters for per-device session scripts.

    Validated at construction: malformed distributions (negative or
    non-finite weights, an all-zero weight table, inverted ranges)
    used to skew the RNG stream silently; now they raise
    :class:`FleetError` naming the offending field.
    """

    min_ops: int = 6
    max_ops: int = 14
    min_gap_ms: float = 150.0
    max_gap_ms: float = 2_500.0
    weights: tuple[tuple[str, float], ...] = (
        ("rotate", 5.0),
        ("write", 4.0),
        ("fold", 2.0),
        ("async", 2.0),
        ("locale", 1.0),
        ("night", 1.0),
        ("kill", 1.0),
    )

    def __post_init__(self) -> None:
        if self.min_ops < 0:
            raise FleetError(
                f"PopulationSpec.min_ops must be >= 0, got {self.min_ops}"
            )
        if self.max_ops < self.min_ops:
            raise FleetError(
                f"PopulationSpec.max_ops ({self.max_ops}) must be >= "
                f"min_ops ({self.min_ops})"
            )
        if not self.min_gap_ms >= 0:
            raise FleetError(
                f"PopulationSpec.min_gap_ms must be >= 0, got {self.min_gap_ms}"
            )
        if not self.max_gap_ms >= self.min_gap_ms:
            raise FleetError(
                f"PopulationSpec.max_gap_ms ({self.max_gap_ms}) must be >= "
                f"min_gap_ms ({self.min_gap_ms})"
            )
        if not self.weights:
            raise FleetError(
                "PopulationSpec.weights must name at least one op kind"
            )
        total = 0.0
        for entry in self.weights:
            try:
                kind, weight = entry
            except (TypeError, ValueError):
                raise FleetError(
                    f"PopulationSpec.weights entries must be (kind, weight) "
                    f"pairs, got {entry!r}"
                ) from None
            if kind not in SCRIPT_OP_KINDS:
                known = ", ".join(sorted(SCRIPT_OP_KINDS))
                raise FleetError(
                    f"PopulationSpec.weights[{kind!r}]: unknown op kind "
                    f"(known: {known})"
                )
            if not isinstance(weight, (int, float)) or not math.isfinite(weight):
                raise FleetError(
                    f"PopulationSpec.weights[{kind!r}] must be a finite "
                    f"number, got {weight!r}"
                )
            if weight < 0:
                raise FleetError(
                    f"PopulationSpec.weights[{kind!r}] must be >= 0, "
                    f"got {weight!r}"
                )
            total += weight
        if total <= 0:
            raise FleetError(
                "PopulationSpec.weights: total weight must be > 0 "
                "(a zero-op distribution can draw nothing)"
            )


DEFAULT_POPULATION = PopulationSpec()


def _weighted_choice(rng: DeterministicRng,
                     weights: tuple[tuple[str, float], ...]) -> str:
    total = sum(weight for _, weight in weights)
    draw = rng.uniform(0.0, total)
    cumulative = 0.0
    for kind, weight in weights:
        cumulative += weight
        if draw <= cumulative:
            return kind
    return weights[-1][0]


class SessionState:
    """Mutable device state threaded through draws (and across phases)."""

    __slots__ = ("folded", "night", "step", "saw_config_change")

    def __init__(self) -> None:
        self.folded = False
        self.night = False
        self.step = 0
        self.saw_config_change = False


def draw_session_ops(
    rng: DeterministicRng,
    population: PopulationSpec,
    state: SessionState,
    ops: list[Op],
    count: int,
) -> None:
    """Append ``count`` drawn ops (each followed by a think-time wait)."""
    for _ in range(count):
        kind = _weighted_choice(rng, population.weights)
        if kind == "rotate":
            op: Op = Rotate()
        elif kind == "fold":
            state.folded = not state.folded
            width, height = FOLDED_SIZE if state.folded else UNFOLDED_SIZE
            op = Resize(width, height)
        elif kind == "locale":
            op = Locale(rng.choice(LOCALES))
        elif kind == "night":
            state.night = not state.night
            op = Night(state.night)
        elif kind == "write":
            op = Write(state.step)
        elif kind == "async":
            op = StartAsync()
        else:
            op = Kill()
        state.saw_config_change = state.saw_config_change or op.is_config_change
        ops.append(op)
        ops.append(
            Wait(round(rng.uniform(population.min_gap_ms,
                                   population.max_gap_ms), 1))
        )
        state.step += 1


def device_workload(
    population: PopulationSpec, seed: int, member: int
) -> Workload:
    """The session of fleet member ``member`` as an IR program.

    Byte-compatible with the pre-IR tuple generator:
    ``device_workload(...).to_tuples()`` reproduces its exact output.
    """
    rng = DeterministicRng(seed).fork(f"fleet-device-{member}")
    op_count = rng.randint(population.min_ops, population.max_ops)
    ops: list[Op] = []
    state = SessionState()
    draw_session_ops(rng, population, state, ops, op_count)
    if not state.saw_config_change:
        # Every session exercises the paper's subject at least once.
        ops.append(Rotate())
        ops.append(Wait(500.0))
    return Workload(tuple(ops))
