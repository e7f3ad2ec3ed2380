"""Seeded synthetic user populations: the fleet's workload stream.

Two responsibilities:

* :func:`fleet_corpus` — the small app corpus a fleet runs.  The three
  archetypes cover the state-durability ladder (view attr, bare field,
  custom-saved, Application object, SharedPreferences) and both async
  crash modes (stale view update, leaked dialog), so population-level
  crash and data-loss rates are *emergent* from policy semantics, not
  scripted per app.
* :func:`device_workload` — one device's session as a
  :class:`~repro.workload.ir.Workload` IR program, drawn from a seeded
  distribution: rotations, fold/unfold resizes, locale and dark-mode
  switches, state writes, async tasks in flight, background kills, and
  think-time gaps.  Sessions are keyed by **member index only** (not by
  cohort), so device *i* performs the identical session under every
  (app, policy) cell — fleet comparisons across policies are therefore
  apples-to-apples.  Everything flows through
  :class:`~repro.sim.rng.DeterministicRng` sub-streams: the same seed
  always produces the same fleet, device by device, op by op.

The generator core (and :class:`PopulationSpec` itself, validated at
construction) lives in :mod:`repro.workload.generate`; this module
re-exports it so fleet callers keep one import site.  The program's
tuple view (``device_workload(...).to_tuples()``) reads::

    ("rotate",) ("resize", w, h) ("locale", "fr-FR") ("night", True)
    ("write", step) ("async",) ("kill",) ("wait", gap_ms)

The generator appends a ``wait`` after every op, so audits (which the
device driver performs after each settle) observe post-migration state,
and it guarantees at least one configuration change per session so every
device contributes handling data.
"""

from __future__ import annotations

from repro.android.views.inflate import ViewSpec
from repro.apps.dsl import (
    AppSpec,
    AsyncScript,
    StateSlot,
    StorageKind,
    filler_views,
    two_orientation_resources,
)
from repro.workload.generate import (  # noqa: F401  (re-exported API)
    DEFAULT_POPULATION,
    FOLDED_SIZE,
    LOCALES,
    PopulationSpec,
    SCRIPT_OP_KINDS,
    UNFOLDED_SIZE,
    device_workload,
)
from repro.workload.ir import CONFIG_CHANGE_KINDS

#: Stable view ids shared by all fleet archetypes.
SLOT_VIEW_ID = 10
ASYNC_TARGET_ID = 11


def is_config_change(op: tuple) -> bool:
    return op[0] in CONFIG_CHANGE_KINDS


def template_value(slot_name: str) -> str:
    """The state every template seeds into a slot before capture."""
    return f"seed:{slot_name}"


# ----------------------------------------------------------------------
# the fleet app corpus
# ----------------------------------------------------------------------
def _notepad() -> AppSpec:
    """View-attr note + persisted draft + async sync (stale-view crash)."""
    return AppSpec(
        package="fleet.notepad", label="FleetNotepad",
        resources=two_orientation_resources(
            "main",
            [ViewSpec("TextView", view_id=SLOT_VIEW_ID),
             ViewSpec("TextView", view_id=ASYNC_TARGET_ID),
             *filler_views(12)],
        ),
        slots=(
            StateSlot("note", StorageKind.VIEW_ATTR,
                      view_id=SLOT_VIEW_ID, attr="text"),
            StateSlot("draft", StorageKind.PERSISTED),
        ),
        async_script=AsyncScript(
            "sync", 4_000.0, ((ASYNC_TARGET_ID, "text", "synced"),)
        ),
        extra_heap_mb=8.0,
    )


def _tracker() -> AppSpec:
    """Bare field + custom-saved journal behind a real onSaveInstanceState."""
    return AppSpec(
        package="fleet.tracker", label="FleetTracker",
        resources=two_orientation_resources(
            "main",
            [ViewSpec("TextView", view_id=SLOT_VIEW_ID),
             *filler_views(24)],
        ),
        implements_on_save=True,
        slots=(
            StateSlot("count", StorageKind.BARE_FIELD),
            StateSlot("journal", StorageKind.CUSTOM_SAVED),
        ),
        extra_heap_mb=6.0,
    )


def _gallery() -> AppSpec:
    """Image-heavy app with Application state and a dialog-leaking loader."""
    return AppSpec(
        package="fleet.gallery", label="FleetGallery",
        resources=two_orientation_resources(
            "main",
            [ViewSpec("TextView", view_id=SLOT_VIEW_ID),
             ViewSpec("TextView", view_id=ASYNC_TARGET_ID),
             *[ViewSpec("ImageView", view_id=500 + index)
               for index in range(6)],
             *filler_views(32)],
        ),
        slots=(
            StateSlot("caption", StorageKind.VIEW_ATTR,
                      view_id=SLOT_VIEW_ID, attr="text"),
            StateSlot("pin", StorageKind.APPLICATION),
        ),
        async_script=AsyncScript(
            "load", 6_000.0, ((ASYNC_TARGET_ID, "text", "loaded"),),
            shows_dialog=True,
        ),
        extra_heap_mb=14.0,
    )


def fleet_corpus() -> tuple[AppSpec, ...]:
    """The default fleet app set (validated by the fleet test suite)."""
    return (_notepad(), _tracker(), _gallery())
