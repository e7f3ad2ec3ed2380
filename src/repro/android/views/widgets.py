"""Widget types and their migration policies (paper Table 1).

Each widget declares:

* ``AUTO_SAVED_ATTRS`` — what the stock per-view save function preserves
  across an activity restart.  This is deliberately narrow, matching the
  stock SDK behaviour the paper's bug corpus exposes: an ``EditText``
  keeps its text, but a plain ``TextView``'s text, a list's selection, a
  progress bar's progress, a scroll position, a checkbox toggled by a
  custom handler — all are lost.
* ``MIGRATED_ATTRS`` — the attribute → setter map of RCHDroid's
  type-directed migration policy (Table 1).  User-defined widgets inherit
  the policy of the basic type they extend, exactly as the paper states.
"""

from __future__ import annotations

from repro.android.views.view import View, ViewGroup


class TextView(View):
    """Displays text to the user.  Migration policy: ``setText``."""

    __slots__ = ()
    view_type = "TextView"
    AUTO_SAVED_ATTRS = frozenset()
    MIGRATED_ATTRS = {"text": "setText"}

    def set_text(self, text: str) -> None:
        self.set_attr("text", text)

    @property
    def text(self) -> str:
        return self.get_attr("text", "")


class EditText(TextView):
    """Editable text box; the stock save function does keep its text."""

    __slots__ = ()
    view_type = "EditText"
    AUTO_SAVED_ATTRS = frozenset({"text"})


class Button(TextView):
    """A clickable TextView; migrated by its TextView policy."""

    __slots__ = ("on_click",)
    view_type = "Button"

    def __init__(self, ctx, view_id=None, memory_key=None):
        super().__init__(ctx, view_id, memory_key)
        self.on_click = None

    def click(self) -> None:
        """Dispatch a touch event to this button on the UI thread."""
        self.require_alive()
        if self.owner is not None:
            self.ctx.consume(
                self.ctx.costs.touch_dispatch_ms,
                self.owner.process.name,
                label="touch:button",
            )
        if self.on_click is not None:
            self.on_click()


class ImageView(View):
    """Displays image resources.  Migration policy: ``setDrawable``.

    Carries the decoded-bitmap footprint, which is what makes the
    Figure 9 benchmark app's memory scale with the image count.
    """

    __slots__ = ()
    view_type = "ImageView"
    MIGRATED_ATTRS = {"drawable": "setDrawable"}
    MEMORY_EXTRA_MB = 0.55

    def set_drawable(self, drawable: str) -> None:
        self.set_attr("drawable", drawable)

    @property
    def drawable(self) -> str:
        return self.get_attr("drawable", "")


class AbsListView(ViewGroup):
    """Scrollable collection of views.

    Migration policy (Table 1): ``positionSelector`` for the selector
    position and ``setItemChecked`` for the selected item.
    """

    __slots__ = ()
    view_type = "AbsListView"
    MIGRATED_ATTRS = {
        "selector_position": "positionSelector",
        "checked_item": "setItemChecked",
    }

    def position_selector(self, position: int) -> None:
        self.set_attr("selector_position", position)

    def set_item_checked(self, item: int) -> None:
        self.set_attr("checked_item", item)


class ListView(AbsListView):
    __slots__ = ()
    view_type = "ListView"


class GridView(AbsListView):
    __slots__ = ()
    view_type = "GridView"


class ScrollView(AbsListView):
    """Paper groups ScrollView under the AbsListView migration policy;
    its scroll offset rides the selector-position channel."""

    __slots__ = ()
    view_type = "ScrollView"

    def scroll_to(self, offset: int) -> None:
        self.position_selector(offset)

    @property
    def scroll_offset(self) -> int:
        return self.get_attr("selector_position", 0)


class VideoView(View):
    """Displays a video file.  Migration policy: ``setVideoURI``."""

    __slots__ = ()
    view_type = "VideoView"
    MIGRATED_ATTRS = {"video_uri": "setVideoURI", "position_ms": "seekTo"}
    MEMORY_EXTRA_MB = 1.6


class ProgressBar(View):
    """Indicates operation progress.  Migration policy: ``setProgress``."""

    __slots__ = ()
    view_type = "ProgressBar"
    MIGRATED_ATTRS = {"progress": "setProgress"}

    def set_progress(self, progress: int) -> None:
        self.set_attr("progress", progress)

    @property
    def progress(self) -> int:
        return self.get_attr("progress", 0)


class SeekBar(ProgressBar):
    __slots__ = ()
    view_type = "SeekBar"


class CheckBox(Button):
    """Two-state toggle.

    Inherits the Button/TextView policy and extends it with ``setChecked``
    — the paper's rule that user-defined/extended widgets migrate
    "according to the types they belong to", with the checked flag as the
    subtype's own contribution.
    """

    __slots__ = ()
    view_type = "CheckBox"
    MIGRATED_ATTRS = {**TextView.MIGRATED_ATTRS, "checked": "setChecked"}

    def set_checked(self, checked: bool) -> None:
        self.set_attr("checked", checked)

    @property
    def checked(self) -> bool:
        return self.get_attr("checked", False)


class Switch(CheckBox):
    """Two-state slider toggle; inherits the CheckBox policy."""

    __slots__ = ()
    view_type = "Switch"


class ToggleButton(CheckBox):
    __slots__ = ()
    view_type = "ToggleButton"


class RadioButton(CheckBox):
    """One option of a radio group; checked state migrates like any
    CompoundButton (the Orbot bridge-selection bug of Fig. 13(d))."""

    __slots__ = ()
    view_type = "RadioButton"


class Spinner(AbsListView):
    """Drop-down selection; inherits the AbsListView policy
    (``positionSelector`` carries the chosen entry)."""

    __slots__ = ()
    view_type = "Spinner"

    def select(self, position: int) -> None:
        self.position_selector(position)

    @property
    def selection(self) -> int:
        return self.get_attr("selector_position", 0)


class RatingBar(ProgressBar):
    """Star rating; its progress channel carries the rating."""

    __slots__ = ()
    view_type = "RatingBar"


WIDGET_TYPES: dict[str, type[View]] = {
    cls.view_type: cls
    for cls in (
        View,
        ViewGroup,
        TextView,
        EditText,
        Button,
        ImageView,
        AbsListView,
        ListView,
        GridView,
        ScrollView,
        VideoView,
        ProgressBar,
        SeekBar,
        CheckBox,
        Switch,
        ToggleButton,
        RadioButton,
        Spinner,
        RatingBar,
    )
}
