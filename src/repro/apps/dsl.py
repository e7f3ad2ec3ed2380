"""Declarative app descriptions.

An :class:`AppSpec` captures everything the evaluation needs to know
about an app *without* scripting its outcome:

* its layout resources (per-orientation variants with stable view ids —
  the property the essence mapping exploits — and optionally *dynamic*,
  id-less views, the property that defeats it);
* where it keeps runtime state (:class:`StateSlot`): in a view attribute,
  in a bare activity field, or in custom state covered by an implemented
  ``onSaveInstanceState``;
* its asynchronous behaviour (:class:`AsyncScript`): tasks that update
  views, or show dialogs, some time after being started;
* cost parameters (onCreate logic time, UI complexity, resource-set
  size, heap footprint).

Whether a given app loses state or crashes under a given policy is then
*emergent* from the framework simulation, and the Table 3 / Table 5
verdicts are checked against the paper rather than asserted into being.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.android.res import Orientation, ResourceTable
from repro.android.views.inflate import LayoutSpec, ViewSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.app.activity import Activity
    from repro.android.os import Bundle
    from repro.android.res import Configuration


class StorageKind(enum.Enum):
    """Where an app keeps a piece of runtime state."""

    VIEW_ATTR = "view-attr"
    BARE_FIELD = "bare-field"
    CUSTOM_SAVED = "custom-saved"
    APPLICATION = "application"
    """Process-lifetime state on the Application object: survives any
    activity restart (but not a process death/crash) — the pattern
    well-written apps use to sidestep the restart problem entirely."""
    PERSISTED = "persisted"
    """SharedPreferences-backed state: survives restarts and crashes."""


class IssueKind(enum.Enum):
    """Runtime-change issue taxonomy (Sections 2.3, 5.2, 6)."""

    VIEW_STATE_LOSS = "view-state-loss"
    BARE_FIELD_LOSS = "bare-field-loss"
    ASYNC_CRASH = "async-crash"
    ASYNC_DIALOG_LEAK = "async-dialog-leak"
    NONE = "none"
    SELF_HANDLED = "self-handled"


@dataclass(frozen=True)
class StateSlot:
    """One named piece of app state the harness can set and probe."""

    name: str
    storage: StorageKind
    view_id: int | None = None
    attr: str | None = None

    def write(self, activity: "Activity", value: Any) -> None:
        if self.storage is StorageKind.VIEW_ATTR:
            assert self.view_id is not None and self.attr is not None
            activity.require_view(self.view_id).set_attr(self.attr, value)
        elif self.storage is StorageKind.BARE_FIELD:
            activity.fields[self.name] = value
        elif self.storage is StorageKind.APPLICATION:
            activity.application_state[self.name] = value
        elif self.storage is StorageKind.PERSISTED:
            activity.get_shared_preferences().put(self.name, value)
        else:
            activity.custom_state[self.name] = value

    def read(self, activity: "Activity") -> Any:
        if self.storage is StorageKind.VIEW_ATTR:
            assert self.view_id is not None and self.attr is not None
            view = activity.find_view(self.view_id)
            return view.get_attr(self.attr) if view is not None else None
        if self.storage is StorageKind.BARE_FIELD:
            return activity.fields.get(self.name)
        if self.storage is StorageKind.APPLICATION:
            return activity.application_state.get(self.name)
        if self.storage is StorageKind.PERSISTED:
            return activity.get_shared_preferences().get(self.name)
        return activity.custom_state.get(self.name)


@dataclass(frozen=True)
class AsyncScript:
    """An asynchronous task the app starts while in the foreground.

    ``updates`` are ``(view_id, attr, value)`` mutations the completion
    callback applies to the view tree *of the activity instance that
    started the task* — the stale-reference pattern of Fig. 1(a).
    ``shows_dialog`` additionally attaches a dialog to that instance
    (the WindowLeaked crash mode).
    """

    name: str
    duration_ms: float
    updates: tuple[tuple[int, str, Any], ...] = ()
    shows_dialog: bool = False
    cpu_fraction: float = 0.0
    """Worker-core compute fraction of the task's wall time (profiled)."""


@dataclass
class AppSpec:
    """One app of the evaluation corpus."""

    package: str
    label: str
    resources: ResourceTable
    main_activity: str = "main"
    main_layout: str = "main"
    activity_layouts: dict[str, str] = field(default_factory=dict)
    """Layout per secondary activity name; ``main_layout`` otherwise."""
    # Cost parameters:
    logic_cost_ms: float = 5.0
    extra_heap_mb: float = 10.0
    ui_complexity: float = 1.0
    # Capability flags:
    handles_config_changes: bool = False
    implements_on_save: bool = False
    runtimedroid_compatible: bool = True
    # Behaviour / evaluation metadata:
    slots: tuple[StateSlot, ...] = ()
    async_script: AsyncScript | None = None
    issue: IssueKind = IssueKind.NONE
    issue_description: str = ""
    downloads: str = ""
    app_loc: int = 10_000

    # ------------------------------------------------------------------
    # framework callbacks
    # ------------------------------------------------------------------
    def on_create(self, activity: "Activity", saved_state: "Bundle | None") -> None:
        """The app's onCreate logic (pure cost in the model; the view
        tree itself is inflated by the framework from the layout)."""
        activity.ctx.consume(
            self.logic_cost_ms, activity.process.name,
            label=f"app-logic:{self.package}",
        )

    def on_save(self, activity: "Activity", bundle: "Bundle") -> None:
        """Custom onSaveInstanceState: persists CUSTOM_SAVED slots."""
        for slot in self.slots:
            if slot.storage is StorageKind.CUSTOM_SAVED:
                if slot.name in activity.custom_state:
                    bundle.put(f"custom:{slot.name}",
                               activity.custom_state[slot.name])

    def on_restore(self, activity: "Activity", bundle: "Bundle") -> None:
        for slot in self.slots:
            if slot.storage is StorageKind.CUSTOM_SAVED:
                key = f"custom:{slot.name}"
                if bundle.contains(key):
                    activity.custom_state[slot.name] = bundle.get(key)

    def on_config_changed(
        self, activity: "Activity", new_config: "Configuration"
    ) -> None:
        """onConfigurationChanged for self-handling apps: the app updates
        its own views; in the model this is a pure relayout cost."""
        activity.ctx.consume(
            self.logic_cost_ms * 0.3,
            activity.process.name,
            label=f"self-handle:{self.package}",
        )

    # ------------------------------------------------------------------
    def layout_for(self, activity_name: str) -> str:
        """The layout resource an activity of this app inflates."""
        return self.activity_layouts.get(activity_name, self.main_layout)

    def slot(self, name: str) -> StateSlot:
        for slot in self.slots:
            if slot.name == name:
                return slot
        raise KeyError(f"{self.package} has no slot {name!r}")

    def view_count(self) -> int:
        layout = self.resources.resolve_layout(
            self.main_layout, _any_config(self.resources, self.main_layout)
        )
        return layout.count_views()

    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Consistency-check this app spec; returns problem descriptions.

        Catches corpus-authoring mistakes before they surface as weird
        emergent behaviour: slots or async updates referencing view ids
        absent from the main layout, duplicate view ids (which would
        make the essence mapping ambiguous), missing layouts, and
        self-handled apps that also declare an issue class.
        """
        problems: list[str] = []
        try:
            from repro.android.res import DEFAULT_LANDSCAPE, DEFAULT_PORTRAIT

            land = self.resources.resolve_layout(self.main_layout,
                                                 DEFAULT_LANDSCAPE)
            port = self.resources.resolve_layout(self.main_layout,
                                                 DEFAULT_PORTRAIT)
        except KeyError:
            return [f"{self.package}: main layout {self.main_layout!r} missing"]

        def collect_ids(spec: ViewSpec, out: list[int]) -> None:
            if spec.view_id is not None:
                out.append(spec.view_id)
            for child in spec.children:
                collect_ids(child, out)

        for name, layout in (("landscape", land), ("portrait", port)):
            ids: list[int] = []
            for root in layout.roots:
                collect_ids(root, ids)
            duplicates = {i for i in ids if ids.count(i) > 1}
            if duplicates:
                problems.append(
                    f"{self.package}: duplicate view ids {sorted(duplicates)} "
                    f"in {name} layout (mapping would be ambiguous)"
                )
            id_set = set(ids)
            for slot in self.slots:
                if slot.storage is StorageKind.VIEW_ATTR and \
                        slot.view_id not in id_set:
                    problems.append(
                        f"{self.package}: slot {slot.name!r} references "
                        f"view {slot.view_id} absent from {name} layout"
                    )
            if self.async_script is not None:
                for view_id, _, _ in self.async_script.updates:
                    if view_id not in id_set:
                        problems.append(
                            f"{self.package}: async update references view "
                            f"{view_id} absent from {name} layout"
                        )
        if self.handles_config_changes and self.issue not in (
            IssueKind.SELF_HANDLED, IssueKind.NONE
        ):
            problems.append(
                f"{self.package}: self-handling app declares issue "
                f"{self.issue.value}"
            )
        return problems


def _any_config(resources: ResourceTable, layout_name: str):
    from repro.android.res import DEFAULT_LANDSCAPE

    return DEFAULT_LANDSCAPE


# ----------------------------------------------------------------------
# layout helpers
# ----------------------------------------------------------------------
def simple_layout(
    name: str,
    widgets: list[ViewSpec],
    *,
    container: str = "ViewGroup",
) -> LayoutSpec:
    """A layout with one container holding ``widgets``."""
    root = ViewSpec(container, view_id=1, children=list(widgets))
    return LayoutSpec(name=name, roots=[root])


def two_orientation_resources(
    layout_name: str,
    widgets: list[ViewSpec],
    *,
    resource_factor: float = 1.0,
) -> ResourceTable:
    """A resource table with portrait and landscape variants of one layout.

    Both variants contain the *same views with the same ids* (the
    essence-mapping premise): only their arrangement differs, which the
    model does not need to represent.
    """
    table = ResourceTable(resource_factor=resource_factor)
    table.add_layout(layout_name, simple_layout(layout_name, widgets),
                     Orientation.PORTRAIT)
    table.add_layout(layout_name, simple_layout(layout_name, widgets),
                     Orientation.LANDSCAPE)
    return table


#: Filler specs by ``(start_id, index)``, shared by every layout that
#: asks for them: a spec is never mutated after construction (layouts
#: already share one widget list between orientations), and the corpora
#: would otherwise construct thousands of identical specs.
_FILLER: dict[tuple[int, int], ViewSpec] = {}


def filler_views(count: int, start_id: int = 100) -> list[ViewSpec]:
    """``count`` plain TextViews with consecutive ids (generic UI bulk)."""
    views = []
    for index in range(count):
        spec = _FILLER.get((start_id, index))
        if spec is None:
            spec = _FILLER[start_id, index] = ViewSpec(
                "TextView", view_id=start_id + index,
                attrs={"text": f"filler-{index}"})
        views.append(spec)
    return views
