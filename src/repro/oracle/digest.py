"""The structured end-state digest one oracle run reduces to.

A :class:`StateDigest` is everything the differ compares about a
finished session, grouped into two tiers the classifier treats
differently:

* **state fields** — what the user would notice surviving: slot values,
  persistent storage contents, crashes, and the per-slot *self-audit*
  (final value vs. the last value this session's user entered — a
  digest knows on its own whether its policy lost state, which is what
  lets the classifier attribute a cross-policy divergence to the losing
  side instead of guessing);
* **lifecycle fields** — how the policy got there: view-tree shape,
  dialogs, relaunch/death counts, handling episodes.  These legitimately
  differ across policies (stock relaunches, RuntimeDroid hot-updates),
  so the default rules file them as expected deltas.

Digests are plain-value dataclasses with a canonical JSON form, so two
digests are equal exactly when their bytes are — the identity the
fleet-sampled oracle's replay check pins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.dsl import AppSpec
    from repro.system import AndroidSystem

#: Digest fields whose cross-policy divergence concerns *user state*.
STATE_FIELDS = frozenset({
    "slots", "storage", "lost_slots", "crashed", "crash_kinds",
})

#: Digest fields that describe the policy's lifecycle path instead.
LIFECYCLE_FIELDS = frozenset({
    "foreground", "view_shape", "dialogs", "relaunches",
    "process_deaths", "handling_count", "ops_played",
})


@dataclass(frozen=True)
class StateDigest:
    """End-state of one (app, policy) session, ready to diff."""

    policy: str
    package: str
    # --- state tier -------------------------------------------------
    slots: tuple[tuple[str, str], ...] = ()
    """(slot name, repr of final value), in declaration order."""
    storage: tuple[tuple[str, str], ...] = ()
    """(key, repr of value) of the package's SharedPreferences."""
    lost_slots: tuple[str, ...] = ()
    """Slots whose final value differs from what this session's own
    user last entered — the digest's self-audit."""
    crashed: bool = False
    crash_kinds: tuple[str, ...] = ()
    # --- lifecycle tier ---------------------------------------------
    foreground: bool = False
    view_shape: tuple[tuple[str, str], ...] = ()
    """(view class, view id or '-') of the foreground tree, in order."""
    dialogs: tuple[str, ...] = ()
    relaunches: int = 0
    process_deaths: int = 0
    handling_count: int = 0
    ops_played: int = 0

    # ------------------------------------------------------------------
    def self_consistent(self) -> bool:
        """Did this policy keep its own user's state (and stay alive)?"""
        return not self.crashed and not self.lost_slots

    def to_dict(self) -> dict:
        # Every field is an immutable scalar or a tuple of them, so a
        # shallow read equals ``dataclasses.asdict`` without its deep
        # copy (which is most of the oracle's encoding cost).
        return {name: getattr(self, name) for name in _DIGEST_FIELDS}

    def to_json(self) -> str:
        """Canonical byte form — digests are equal iff these are."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "StateDigest":
        def pairs(rows) -> tuple:
            return tuple(tuple(row) for row in rows)

        return cls(
            policy=data["policy"],
            package=data["package"],
            slots=pairs(data["slots"]),
            storage=pairs(data["storage"]),
            lost_slots=tuple(data["lost_slots"]),
            crashed=data["crashed"],
            crash_kinds=tuple(data["crash_kinds"]),
            foreground=data["foreground"],
            view_shape=pairs(data["view_shape"]),
            dialogs=tuple(data["dialogs"]),
            relaunches=data["relaunches"],
            process_deaths=data["process_deaths"],
            handling_count=data["handling_count"],
            ops_played=data["ops_played"],
        )


_DIGEST_FIELDS = tuple(f.name for f in fields(StateDigest))


@dataclass
class SessionLog:
    """What the session player observed while driving one policy.

    The digest needs more than the system's end state: the last value
    the user wrote per slot (for the self-audit) and the lifecycle
    counters the player maintained.
    """

    expected: dict[str, str] = field(default_factory=dict)
    relaunches: int = 0
    process_deaths: int = 0
    ops_played: int = 0
    handling_baseline: int = 0


def capture_digest(
    system: "AndroidSystem", app: "AppSpec", log: SessionLog
) -> StateDigest:
    """Reduce a finished session to its comparable end state."""
    package = app.package
    crashed = system.crashed(package)
    crash_kinds = tuple(
        crash.exception for crash in system.ctx.recorder.crashes
        if crash.process == package
    )
    activity = (
        None if crashed else system.foreground_activity(package)
    )

    slots: list[tuple[str, str]] = []
    lost: list[str] = []
    for slot in app.slots:
        if activity is not None:
            value = repr(slot.read(activity))
        else:
            value = repr(None)
        slots.append((slot.name, value))
        if slot.name in log.expected and value != log.expected[slot.name]:
            lost.append(slot.name)
    if crashed:
        # A crash forfeits the session: everything the user entered and
        # has not persisted is gone with the process.
        lost = [name for name, _ in slots if name in log.expected]

    from repro.android.storage import SharedPreferences

    prefs = SharedPreferences(system.ctx, package)
    storage = tuple(
        (key, repr(value)) for key, value in sorted(prefs._data.items())
    )

    view_shape: tuple[tuple[str, str], ...] = ()
    dialogs: tuple[str, ...] = ()
    if activity is not None and activity.decor is not None:
        view_shape = tuple(
            (type(view).__name__,
             "-" if view.view_id is None else str(view.view_id))
            for view in activity.decor.preorder()
        )
        dialogs = tuple(activity.dialogs)

    return StateDigest(
        policy=system.policy.name,
        package=package,
        slots=tuple(slots),
        storage=storage,
        lost_slots=tuple(lost),
        crashed=crashed,
        crash_kinds=crash_kinds,
        foreground=activity is not None,
        view_shape=view_shape,
        dialogs=dialogs,
        relaunches=log.relaunches,
        process_deaths=log.process_deaths,
        handling_count=len(system.handling_times()) - log.handling_baseline,
        ops_played=log.ops_played,
    )
