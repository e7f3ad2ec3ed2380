"""View base classes and the invalidate pipeline.

Three properties of this model carry the paper's mechanism:

* **Tombstoning** — ``destroy()`` marks a view dead; any later mutation
  raises :class:`~repro.errors.NullPointerException`.  This is how the
  restarting-based design's crash (Fig. 1(a)) *emerges* rather than being
  scripted.
* **The invalidate hook** — every attribute mutation funnels through
  ``set_attr`` → ``invalidate()``.  RCHDroid's patch to ``View.invalidate``
  (Table 2: "Modify the invalidate function", 79 LoC) is modelled as an
  activity-level hook called from here; the lazy-migration engine
  registers itself on shadow-state activities.
* **Peer pointers and state flags** — ``sunny_peer`` is the "sunny view
  pointer" the paper adds to the View class; ``shadow_state`` /
  ``sunny_state`` are the dispatched flags.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.errors import NullPointerException, WrongThreadError
from repro.android.os import Bundle

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.app.activity import Activity
    from repro.sim.context import SimContext

_NO_ATTRS: frozenset[str] = frozenset()
"""The ``user_set_attrs`` of a view no ``set_attr`` has reached."""


class View:
    """A node of the view tree."""

    __slots__ = (
        "ctx", "view_id", "parent", "owner", "alive", "attrs",
        "user_set_attrs", "dirty", "shadow_state", "sunny_state",
        "sunny_peer", "memory_key",
    )
    """Slots keep per-view storage to a fixed layout: views dominate the
    simulated object population, every snapshot copies all of them, and
    the attr-storage path (``attrs``/``user_set_attrs``) is the hottest
    per-mutation state."""

    view_type: str = "View"
    AUTO_SAVED_ATTRS: frozenset[str] = frozenset()
    """Attributes the *stock* per-view save function covers.  Android's
    default ``onSaveInstanceState`` only preserves what each widget's
    ``BaseSavedState`` implements (e.g. an EditText's text but not a plain
    TextView's); everything else is lost across a restart — which is
    precisely the Table 3 / Table 5 bug class."""

    MIGRATED_ATTRS: dict[str, str] = {}
    """Attribute → setter-name map of RCHDroid's type-directed migration
    policy (Table 1).  The lazy-migration engine transfers exactly these."""

    MEMORY_EXTRA_MB: float = 0.0
    """Footprint beyond the base view cost (decoded bitmaps etc.)."""

    children: "Sequence[View]" = ()
    """A leaf has no children; :class:`ViewGroup` shadows this with a
    per-instance list, so tree walks need no type test per view."""

    def __init__(
        self,
        ctx: "SimContext",
        view_id: int | None = None,
        memory_key: int | None = None,
    ):
        self.ctx = ctx
        self.view_id = view_id
        self.memory_key = (
            ctx.next_id("view-mem") if memory_key is None else memory_key
        )
        """Stable per-context identity for the memory ledger.  A CPython
        ``id()`` would change across snapshot/restore, so a forked system
        would free a different ledger entry than it allocated.  The
        inflater reserves a tree's keys as one block and passes each in."""
        self.parent: "ViewGroup | None" = None
        self.owner: "Activity | None" = None
        self.alive = True
        self.attrs: dict[str, Any] = {}
        self.user_set_attrs: set[str] | frozenset[str] = _NO_ATTRS
        """Attributes mutated at runtime (through ``set_attr``), as
        opposed to inflate-time defaults from the layout resource.  Only
        these are saved, restored, and migrated — a layout default must
        be re-resolved against the *new* configuration's resources (e.g.
        a locale switch re-reads the string), never carried over.

        Most views are never mutated, so a view starts with the shared
        empty ``frozenset`` and gets a ``set`` of its own on its first
        ``set_attr``: an empty ``set`` per view was tens of thousands of
        objects per run for the cycle collector to track."""
        self.dirty = False
        # RCHDroid additions (paper Section 4, View class patch):
        self.shadow_state = False
        self.sunny_state = False
        self.sunny_peer: "View | None" = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, owner: "Activity") -> None:
        """Bind this view and its descendants to an owning activity,
        registering each one's memory footprint in preorder."""
        bind_views(self.preorder(), owner)

    def destroy(self) -> None:
        """Tombstone this view and its descendants, children before
        their parent, and release each footprint.

        A dead view is skipped, but its descendants are still visited.
        The walk is iterative: the reverse of a preorder that pushes
        children left to right (and so visits them right to left) is the
        postorder.  All releases go to the accountant in one
        ``free_many``.
        """
        order: list[View] = []
        stack: list[View] = [self]
        pop = stack.pop
        push = stack.extend
        while stack:
            view = pop()
            order.append(view)
            push(view.children)
        self.ctx.memory.free_many(_tombstone(reversed(order)))

    def require_alive(self) -> None:
        if not self.alive:
            raise NullPointerException(
                f"{self.view_type}(id={self.view_id}) was destroyed by an "
                "activity restart; asynchronous update dereferenced a "
                "released view",
                when_ms=self.ctx.now_ms,
            )

    # ------------------------------------------------------------------
    # attribute pipeline
    # ------------------------------------------------------------------
    def get_attr(self, name: str, default: Any = None) -> Any:
        return self.attrs.get(name, default)

    def set_attr(self, name: str, value: Any, *, silent: bool = False) -> None:
        """Mutate an attribute on the UI thread.

        ``silent`` skips the cost and the invalidate (used by the
        framework's own restore path, which batches its cost separately).
        """
        self.require_alive()
        if self.owner is not None and not self.owner.process.alive:
            raise WrongThreadError(
                f"view mutation on dead process {self.owner.process.name}"
            )
        self.attrs[name] = value
        if type(self.user_set_attrs) is frozenset:
            # Tested by type, not identity: a view restored from a
            # snapshot holds an unpickled copy of the empty frozenset.
            self.user_set_attrs = {name}
        else:
            self.user_set_attrs.add(name)
        if silent:
            return
        if self.owner is not None:
            self.ctx.consume(
                self.ctx.costs.view_update_ms,
                self.owner.process.name,
                label=f"set:{self.view_type}.{name}",
            )
        self.invalidate()

    def invalidate(self) -> None:
        """Mark dirty and run the activity's invalidate hook, if any.

        This is the "generic invalidate function" observation of
        Section 3.3: whatever the app logic does, the result of an update
        always funnels through here, so the migration step is inserted
        here.
        """
        self.require_alive()
        self.dirty = True
        if self.owner is not None and self.owner.invalidate_hook is not None:
            self.owner.invalidate_hook(self)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def iter_tree(self) -> Iterator["View"]:
        """Preorder traversal of this view and its descendants.

        Walks an explicit stack rather than recursing: one generator
        resumption per view instead of one per view per tree level, and
        no depth limit.  A view's children are read when the walk
        reaches that view.
        """
        stack: list[View] = [self]
        pop = stack.pop
        push = stack.extend
        while stack:
            view = pop()
            yield view
            if view.children:
                push(reversed(view.children))

    def preorder(self) -> "list[View]":
        """This view and its descendants in preorder, as a list.  A
        :class:`DecorView` caches it; callers must not mutate it."""
        return list(self.iter_tree())

    def count_views(self) -> int:
        count = 0
        stack: list[View] = [self]
        pop = stack.pop
        push = stack.extend
        while stack:
            count += 1
            push(pop().children)
        return count

    def find_by_id(self, view_id: int) -> "View | None":
        """The first view in preorder carrying ``view_id``."""
        for view in self.iter_tree():
            if view.view_id == view_id:
                return view
        return None

    # ------------------------------------------------------------------
    # state save / restore
    # ------------------------------------------------------------------
    def save_state(self, out: Bundle, *, full: bool) -> None:
        """Save this view's state into ``out`` keyed by view id.

        ``full=False`` is the stock save function: only ``AUTO_SAVED_ATTRS``
        of views *with ids* are preserved.  ``full=True`` is RCHDroid's
        explicit snapshot (Section 3.3), which saves every attribute of
        every id-bearing view so the sunny instance can be fully recovered.
        """
        if self.view_id is None or not self.user_set_attrs:
            return
        runtime_attrs = [a for a in self.attrs if a in self.user_set_attrs]
        attr_names = (
            runtime_attrs if full
            else [a for a in runtime_attrs if a in self.AUTO_SAVED_ATTRS]
        )
        if not attr_names:
            return
        state = Bundle()
        for attr in attr_names:
            state.put(attr, self.attrs[attr])
        out.put_bundle(f"view:{self.view_id}", state)

    def restore_state(self, saved: Bundle) -> None:
        """Restore any attributes previously saved for this view's id."""
        if self.view_id is None:
            return
        state = saved.get_bundle(f"view:{self.view_id}")
        if state is None:
            return
        for attr in state.keys():
            self.set_attr(attr, state.get(attr), silent=True)

    # ------------------------------------------------------------------
    # RCHDroid state dispatch (ViewGroup patch, Table 2)
    # ------------------------------------------------------------------
    def dispatch_shadow_state_changed(self, shadow: bool) -> None:
        for view in self.preorder():
            view.shadow_state = shadow

    def dispatch_sunny_state_changed(self, sunny: bool) -> None:
        for view in self.preorder():
            view.sunny_state = sunny

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        status = "" if self.alive else " DEAD"
        return f"{self.view_type}(id={self.view_id}{status})"


class ViewGroup(View):
    """A view that contains other views."""

    __slots__ = ("children",)

    view_type = "ViewGroup"

    def __init__(
        self,
        ctx: "SimContext",
        view_id: int | None = None,
        memory_key: int | None = None,
    ):
        super().__init__(ctx, view_id, memory_key)
        self.children: list[View] = []

    def add_child(self, child: View) -> None:
        child.parent = self
        self.children.append(child)
        self._drop_tree_cache()
        if self.owner is not None:
            child.attach(self.owner)

    def remove_child(self, child: View) -> None:
        self.children.remove(child)
        child.parent = None
        self._drop_tree_cache()

    def _drop_tree_cache(self) -> None:
        """Forget the cached preorder of the decor this group hangs
        under (if any): the tree's shape just changed."""
        root: View = self
        while root.parent is not None:
            root = root.parent
        if isinstance(root, DecorView):
            root.tree = None

    def save_state(self, out: Bundle, *, full: bool) -> None:
        """The per-view save of every view of this subtree, in preorder."""
        save = View.save_state
        for view in self.preorder():
            if view.user_set_attrs and view.view_id is not None:
                save(view, out, full=full)

    def restore_state(self, saved: Bundle) -> None:
        """Replay each ``view:<id>`` entry of ``saved`` onto the views of
        this subtree carrying that id, in preorder: the ``set_attr`` calls
        of the per-view restore in the same order, after one scan of the
        bundle instead of one key lookup per view."""
        by_id: dict[int, Bundle] = {}
        for key, value in saved.items():
            if key.startswith("view:") and isinstance(value, Bundle):
                suffix = key[5:]
                try:
                    view_id = int(suffix)
                except ValueError:
                    continue
                if str(view_id) == suffix:
                    by_id[view_id] = value
        if not by_id:
            return
        for view in self.preorder():
            state = by_id.get(view.view_id)
            if state is not None:
                for attr in state.keys():
                    view.set_attr(attr, state.get(attr), silent=True)


class DecorView(ViewGroup):
    """Root of an activity's view tree (Fig. 2(a)).

    Every whole-tree operation (counting, flag dispatch, state save and
    restore, the essence mapping, the oracle's digest) runs over
    :meth:`preorder`, a list the decor keeps until the tree's shape
    changes.  ``inflate`` hands over the list it built the tree in;
    ``add_child`` and ``remove_child`` anywhere below drop it, and the
    next :meth:`preorder` rebuilds it.  ``destroy`` keeps its own walk.
    """

    __slots__ = ("tree",)

    view_type = "DecorView"

    def __init__(
        self,
        ctx: "SimContext",
        view_id: int | None = None,
        memory_key: int | None = None,
    ):
        super().__init__(ctx, view_id, memory_key)
        self.tree: list[View] | None = None
        """The cached preorder, or ``None`` until the next walk."""

    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        """The slots without the cache: a snapshot holds the tree once,
        and its bytes do not depend on whether the cache was filled."""
        state, slots = super().__getstate__()
        slots.pop("tree", None)
        return state, slots

    def __setstate__(self, state: tuple[None, dict[str, Any]]) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self.tree = None

    def preorder(self) -> list[View]:
        tree = self.tree
        if tree is None:
            tree = self.tree = list(self.iter_tree())
        return tree

    def count_views(self) -> int:
        return len(self.preorder())


def _tombstone(views: "Iterator[View]") -> "Iterator[tuple[str, tuple]]":
    """Mark each live view of ``views`` dead and yield its ledger entry
    as it goes, so each view dies just before its release."""
    for view in views:
        if view.alive:
            view.alive = False
            if view.owner is not None:
                yield view.owner.process.name, ("view", view.memory_key)


def bind_views(views: Sequence[View], owner: "Activity") -> None:
    """Bind each of ``views`` to ``owner`` and register their memory
    footprints, in list order, with one ``allocate_many``."""
    base_mb = owner.ctx.costs.view_base_mb
    for view in views:
        view.owner = owner
    owner.ctx.memory.allocate_many(owner.process.name, [
        (("view", view.memory_key), base_mb + view.MEMORY_EXTRA_MB)
        for view in views
    ])
