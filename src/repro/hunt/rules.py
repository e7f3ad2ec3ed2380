"""Static hunting rules: predict where each policy should fail.

A :class:`Rule` inspects one ``AppSpec``'s *structure* — storage kinds,
widget auto-save coverage, async scripts, lifecycle-hook flags — and
emits :class:`Suspicion` records: which policies are predicted to fail,
how (``"loss"`` or ``"crash"``), and the op sequence expected to provoke
it.  Rules deliberately never read the spec's ``issue`` metadata; the
search stage then *proves* (or refutes) each suspicion by simulation,
which is what makes the report's per-policy recall meaningful.

The four built-in rules cover the taxonomy the generator draws from:

* :class:`BareFieldRule` — state in a bare activity field dies with the
  instance; neither stock restart nor RCHDroid's view migration can
  restore what was never saved and is not a view.
* :class:`MissingOnSaveRule` — custom instance state without an
  ``onSaveInstanceState`` implementation, same blast radius.
* :class:`StaleAsyncRule` — a background callback holding a
  pre-restart view (or showing a dialog) crashes the stock policy once
  the activity it captured is gone.
* :class:`MidMigrationWriteRule` — a write landing immediately before
  an unguarded configuration change rides a view attribute the stock
  save function does not cover.

Custom rules plug in by subclassing :class:`Rule` and passing an
extended tuple to :func:`inspect_corpus` (worked example in
``docs/HUNT.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.android.views.widgets import WIDGET_TYPES
from repro.apps.dsl import StateSlot, StorageKind
from repro.errors import HuntError

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.dsl import AppSpec

__all__ = [
    "DEFAULT_RULES",
    "BareFieldRule",
    "MidMigrationWriteRule",
    "MissingOnSaveRule",
    "Rule",
    "StaleAsyncRule",
    "Suspicion",
    "inspect_corpus",
    "rank_suspicions",
    "rule_catalog",
]

_EXPECTS = ("loss", "crash")


@dataclass(frozen=True)
class Suspicion:
    """One predicted failure: app × failure mode × provoking ops."""

    rule: str
    package: str
    severity: int
    expects: str
    """``"crash"`` or ``"loss"``."""
    policies: tuple[str, ...]
    """Policies predicted to exhibit the failure."""
    ops: tuple[tuple, ...]
    """The op sequence (workload IR tuples) expected to provoke it."""
    slot: str | None = None
    """Slot predicted lost (``expects == "loss"`` only)."""
    reason: str = ""

    def __post_init__(self) -> None:
        if self.expects not in _EXPECTS:
            raise HuntError(
                f"suspicion expects {self.expects!r} "
                f"(known: {', '.join(_EXPECTS)})"
            )
        if self.expects == "loss" and self.slot is None:
            raise HuntError(
                f"loss suspicion from rule {self.rule!r} names no slot"
            )

    def sort_key(self) -> tuple:
        """Ranked order: most severe first, then stable by app and rule."""
        return (-self.severity, self.package, self.rule)


class Rule:
    """Base class for static hunting rules.

    Subclasses set ``name`` and ``severity`` and implement
    :meth:`inspect`, returning any number of suspicions for one app.
    """

    name: str = "rule"
    severity: int = 1
    description: str = ""

    def inspect(self, app: "AppSpec") -> list[Suspicion]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def auto_saved(app: "AppSpec", slot: StateSlot) -> bool:
        """Does stock save/restore cover this view-attribute slot?"""
        if slot.storage is not StorageKind.VIEW_ATTR:
            return False
        for variants in app.resources.layouts.values():
            for layout in variants.values():
                stack = list(layout.roots)
                while stack:
                    spec = stack.pop()
                    if spec.view_id == slot.view_id:
                        widget = WIDGET_TYPES[spec.view_type]
                        return slot.attr in widget.AUTO_SAVED_ATTRS
                    stack.extend(spec.children)
        return False


def _loss_ops(slot_index: int, guarded: bool) -> tuple[tuple, ...]:
    """Write the slot, optionally settle, then rotate and settle."""
    ops: list[tuple] = [("write", 0, slot_index)]
    if guarded:
        ops.append(("wait", 150.0))
    ops.append(("rotate",))
    ops.append(("wait", 400.0))
    return tuple(ops)


class BareFieldRule(Rule):
    """State in a bare activity field: lost on every restart."""

    name = "bare-field-state"
    severity = 3
    description = (
        "state kept in a bare activity field is lost whenever the "
        "activity restarts (stock and RCHDroid both restart)"
    )

    def inspect(self, app: "AppSpec") -> list[Suspicion]:
        if app.handles_config_changes:
            return []
        for index, slot in enumerate(app.slots):
            if slot.storage is StorageKind.BARE_FIELD:
                return [Suspicion(
                    rule=self.name,
                    package=app.package,
                    severity=self.severity,
                    expects="loss",
                    policies=("android10", "rchdroid"),
                    ops=_loss_ops(index, guarded=True),
                    slot=slot.name,
                    reason=(
                        f"slot {slot.name!r} is a bare activity field; "
                        "no save path exists under restart-based handling"
                    ),
                )]
        return []


class MissingOnSaveRule(Rule):
    """Custom instance state without ``onSaveInstanceState``."""

    name = "missing-on-save"
    severity = 2
    description = (
        "custom instance state whose onSaveInstanceState hook was never "
        "implemented dies with the activity instance"
    )

    def inspect(self, app: "AppSpec") -> list[Suspicion]:
        if app.handles_config_changes or app.implements_on_save:
            return []
        for index, slot in enumerate(app.slots):
            if slot.storage is StorageKind.CUSTOM_SAVED:
                return [Suspicion(
                    rule=self.name,
                    package=app.package,
                    severity=self.severity,
                    expects="loss",
                    policies=("android10", "rchdroid"),
                    ops=_loss_ops(index, guarded=True),
                    slot=slot.name,
                    reason=(
                        f"slot {slot.name!r} is custom instance state but "
                        "the app never implements onSaveInstanceState"
                    ),
                )]
        return []


class StaleAsyncRule(Rule):
    """Async callback holding a view of the pre-restart activity."""

    name = "stale-async-ref"
    severity = 4
    description = (
        "a background callback captures views (or shows a dialog) of an "
        "activity a restart has already destroyed"
    )

    def inspect(self, app: "AppSpec") -> list[Suspicion]:
        script = app.async_script
        if app.handles_config_changes or script is None:
            return []
        if not script.updates and not script.shows_dialog:
            return []
        mode = "dialog" if script.shows_dialog else "view update"
        return [Suspicion(
            rule=self.name,
            package=app.package,
            severity=self.severity,
            expects="crash",
            policies=("android10",),
            ops=(
                ("async",),
                ("rotate",),
                ("wait", script.duration_ms + 150.0),
            ),
            reason=(
                f"async {mode} lands after the restart destroyed the "
                "activity it captured"
            ),
        )]


class MidMigrationWriteRule(Rule):
    """Unguarded write immediately before a configuration change."""

    name = "mid-migration-write"
    severity = 1
    description = (
        "a write landing right before an unguarded configuration change "
        "rides a view attribute stock save/restore does not cover"
    )

    def inspect(self, app: "AppSpec") -> list[Suspicion]:
        if app.handles_config_changes:
            return []
        for index, slot in enumerate(app.slots):
            if (
                slot.storage is StorageKind.VIEW_ATTR
                and not self.auto_saved(app, slot)
            ):
                return [Suspicion(
                    rule=self.name,
                    package=app.package,
                    severity=self.severity,
                    expects="loss",
                    policies=("android10",),
                    ops=_loss_ops(index, guarded=False),
                    slot=slot.name,
                    reason=(
                        f"slot {slot.name!r} rides a view attribute the "
                        "stock save function skips; the write lands "
                        "unguarded, straight into the restart"
                    ),
                )]
        return []


DEFAULT_RULES: tuple[Rule, ...] = (
    BareFieldRule(),
    MissingOnSaveRule(),
    StaleAsyncRule(),
    MidMigrationWriteRule(),
)


def rule_catalog(rules: Sequence[Rule] = DEFAULT_RULES) -> list[dict]:
    """Name, severity, and description of each rule (CLI listing)."""
    return [
        {
            "name": rule.name,
            "severity": rule.severity,
            "description": rule.description,
        }
        for rule in rules
    ]


def rank_suspicions(suspicions: Iterable[Suspicion]) -> list[Suspicion]:
    """Most severe first, then stable by package and rule name."""
    return sorted(suspicions, key=Suspicion.sort_key)


def inspect_corpus(
    apps: Sequence["AppSpec"], rules: Sequence[Rule] = DEFAULT_RULES
) -> list[Suspicion]:
    """Run every rule over every app; return the ranked suspicion list."""
    suspicions: list[Suspicion] = []
    for app in apps:
        for rule in rules:
            suspicions.extend(rule.inspect(app))
    return rank_suspicions(suspicions)
