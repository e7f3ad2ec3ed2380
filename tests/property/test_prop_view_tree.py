"""Property tests: iterative view-tree walks, the one-pass inflater and
the batched teardown.

``iter_tree``, ``count_views`` and ``find_by_id`` walk an explicit stack;
``inflate`` builds, resolves and registers a tree over one flat preorder
list with one ``allocate_many``; ``destroy`` tombstones a subtree in an
iterative postorder and releases it with one ``free_many``.  All are
checked against the recursive reference implementations kept below, over
random trees: same visiting order, same memory-ledger keys and owner
order, and the same heap samples.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AndroidSystem
from repro.android.os import Bundle
from repro.android.res import StringRes
from repro.android.views.inflate import LayoutSpec, ViewSpec, inflate
from repro.android.views.view import DecorView, ViewGroup
from repro.android.views.widgets import WIDGET_TYPES
from repro.apps import make_benchmark_app
from repro.sim.context import SimContext

GROUPS = ["ViewGroup", "ListView", "ScrollView", "Spinner"]
LEAVES = ["View", "TextView", "Button", "ImageView", "EditText", "SeekBar"]

view_ids = st.one_of(st.none(), st.integers(min_value=1, max_value=12))
leaf_attrs = st.dictionaries(
    st.sampled_from(["text", "hint", "progress"]),
    st.one_of(st.integers(0, 9), st.sampled_from(
        [StringRes("app_name"), StringRes("missing_key"), "literal"])),
    max_size=2,
)

leaf_specs = st.builds(
    ViewSpec, st.sampled_from(LEAVES), view_ids, leaf_attrs
)
view_specs = st.recursive(
    leaf_specs,
    lambda children: st.builds(
        ViewSpec, st.sampled_from(GROUPS), view_ids, leaf_attrs,
        st.lists(children, max_size=4),
    ),
    max_leaves=40,
)
layouts = st.builds(
    LayoutSpec, st.just("random"), st.lists(view_specs, max_size=3)
)


# ----------------------------------------------------------------------
# recursive references
# ----------------------------------------------------------------------
def ref_iter_tree(view):
    yield view
    for child in getattr(view, "children", ()):
        yield from ref_iter_tree(child)


def ref_find_by_id(view, view_id):
    for candidate in ref_iter_tree(view):
        if candidate.view_id == view_id:
            return candidate
    return None


def ref_build(ctx, spec):
    view = WIDGET_TYPES[spec.view_type](ctx, spec.view_id)
    for attr, value in spec.attrs.items():
        view.attrs[attr] = value
    for child_spec in spec.children:
        child = ref_build(ctx, child_spec)
        child.parent = view
        view.children.append(child)
    return view


def ref_attach(view, owner):
    view.owner = owner
    view.ctx.memory.allocate(
        owner.process.name,
        ("view", view.memory_key),
        view.ctx.costs.view_base_mb + view.MEMORY_EXTRA_MB,
    )
    for child in getattr(view, "children", ()):
        ref_attach(child, owner)


def ref_destroy(view):
    for child in getattr(view, "children", ()):
        ref_destroy(child)
    if not view.alive:
        return
    view.alive = False
    if view.owner is not None:
        view.ctx.memory.free(view.owner.process.name,
                             ("view", view.memory_key))


def ref_decor(ctx, layout):
    """``layout`` built under a decor view, unattached."""
    decor = DecorView(ctx)
    for root_spec in layout.roots:
        decor.children.append(ref_build(ctx, root_spec))
        decor.children[-1].parent = decor
    return decor


def ref_inflate(ctx, activity, layout):
    decor = ref_decor(ctx, layout)
    for view in ref_iter_tree(decor):
        for attr, value in list(view.attrs.items()):
            if isinstance(value, StringRes):
                view.attrs[attr] = activity.app.resources.resolve_string(
                    value.key, activity.config
                )
    ref_attach(decor, activity)
    ctx.consume(
        ctx.costs.inflate_per_view_ms * sum(1 for _ in ref_iter_tree(decor)),
        activity.process.name,
        label=f"inflate:{layout.name}",
    )
    return decor


# ----------------------------------------------------------------------
# traversal
# ----------------------------------------------------------------------
@given(layouts)
@settings(max_examples=60, deadline=None)
def test_walks_match_the_recursive_reference(layout):
    decor = ref_decor(SimContext(), layout)
    for root in [decor, *decor.children]:
        expected = list(ref_iter_tree(root))
        assert list(root.iter_tree()) == expected
        assert root.count_views() == len(expected)
    for view_id in range(0, 14):
        assert decor.find_by_id(view_id) is ref_find_by_id(decor, view_id)


def test_deep_chain_walks_without_recursion_error():
    depth = 3_000
    assert depth > sys.getrecursionlimit()
    root = ViewGroup(SimContext(), view_id=0)
    chain = [root]
    for view_id in range(1, depth + 1):
        child = ViewGroup(root.ctx, view_id=view_id)
        chain[-1].add_child(child)
        chain.append(child)
    assert root.count_views() == depth + 1
    assert list(root.iter_tree()) == chain
    assert root.find_by_id(depth) is chain[-1]


# ----------------------------------------------------------------------
# inflate
# ----------------------------------------------------------------------
def _launched():
    system = AndroidSystem()
    record = system.launch(make_benchmark_app(1))
    return system, record.instance


@given(layouts)
@settings(max_examples=40, deadline=None)
def test_flat_inflate_matches_recursive_build_and_attach(layout):
    flat_system, flat_activity = _launched()
    ref_system, ref_activity = _launched()
    flat_heap = len(flat_system.ctx.recorder.heap)
    ref_heap = len(ref_system.ctx.recorder.heap)
    assert flat_heap == ref_heap

    flat = inflate(flat_system.ctx, flat_activity, layout)
    ref = ref_inflate(ref_system.ctx, ref_activity, layout)

    flat_views = list(ref_iter_tree(flat))
    ref_views = list(ref_iter_tree(ref))
    assert [v.memory_key for v in flat_views] == \
        [v.memory_key for v in ref_views]
    assert [(type(v), v.view_id, v.attrs) for v in flat_views] == \
        [(type(v), v.view_id, v.attrs) for v in ref_views]
    assert all(v.owner is flat_activity for v in flat_views)

    process = flat_activity.process.name
    assert flat_system.ctx.memory.owners(process) == \
        ref_system.ctx.memory.owners(process)
    assert flat_system.ctx.recorder.heap[flat_heap:] == \
        ref_system.ctx.recorder.heap[ref_heap:]
    assert flat_system.ctx.recorder.busy == ref_system.ctx.recorder.busy
    assert flat_system.now_ms == ref_system.now_ms


def test_invalid_layout_fails_before_any_allocation():
    system, activity = _launched()
    process = activity.process.name
    owners = system.ctx.memory.owners(process)
    heap = list(system.ctx.recorder.heap)
    bad_child = LayoutSpec("bad", roots=[
        ViewSpec("ViewGroup", 1, children=[ViewSpec("TextView", 2)]),
        ViewSpec("TextView", 3, children=[ViewSpec("TextView", 4)]),
    ])
    bad_type = LayoutSpec("bad", roots=[
        ViewSpec("ViewGroup", 1, children=[ViewSpec("Nonsense", 2)]),
    ])
    # The views built before the error still took their memory keys:
    # the decor, 1, 2, 3 and the misplaced child 4; the decor and 1.
    cases = (
        (bad_child, TypeError, "TextView cannot contain children (layout 3)",
         5),
        (bad_type, KeyError,
         f"unknown view type 'Nonsense'; known: {sorted(WIDGET_TYPES)}", 2),
    )
    for layout, error, message, built in cases:
        counters = dict(system.ctx._id_counters)
        with pytest.raises(error) as raised:
            inflate(system.ctx, activity, layout)
        assert raised.value.args == (message,)
        assert system.ctx.memory.owners(process) == owners
        assert system.ctx.recorder.heap == heap
        counters["view-mem"] += built
        assert system.ctx._id_counters == counters


# ----------------------------------------------------------------------
# destroy
# ----------------------------------------------------------------------
@given(layouts, layouts, st.integers(min_value=0), st.booleans())
@settings(max_examples=40, deadline=None)
def test_batched_destroy_matches_recursive_reference(
    layout, guest_layout, dead_index, graft
):
    """One subtree dies first, then the whole tree (re-destroying the
    dead subtree), then the whole tree again; with ``graft`` the tree
    also holds a second app's views, owned by its own process."""
    outcomes = []
    for destroy in (lambda view: view.destroy(), ref_destroy):
        system = AndroidSystem()
        host = system.launch(make_benchmark_app(1)).instance
        guest = system.launch(make_benchmark_app(2)).instance
        decor = inflate(system.ctx, host, layout)
        if graft:
            for root in inflate(system.ctx, guest, guest_layout).children:
                root.parent = decor
                decor.children.append(root)
        views = list(ref_iter_tree(decor))
        destroy(views[dead_index % len(views)])
        destroy(decor)
        destroy(decor)
        memory = system.ctx.memory
        outcomes.append((
            system.ctx.recorder.heap,
            [(memory.owners(activity.process.name),
              memory.total_mb(activity.process.name))
             for activity in (host, guest)],
            [view.alive for view in views],
        ))
    assert outcomes[0] == outcomes[1]
    assert not any(outcomes[0][2])


# ----------------------------------------------------------------------
# user_set_attrs
# ----------------------------------------------------------------------
def test_restored_view_records_its_first_runtime_attr():
    system, _ = _launched()
    fork = AndroidSystem.fork(system.snapshot())
    view = next(
        view for view in fork.foreground_activity().decor.iter_tree()
        if view.view_id is not None and "text" not in view.attrs
    )
    assert not view.user_set_attrs
    view.set_attr("text", "typed")
    assert view.user_set_attrs == {"text"}
    saved = Bundle()
    view.save_state(saved, full=True)
    assert saved.get_bundle(f"view:{view.view_id}").get("text") == "typed"


# ----------------------------------------------------------------------
# the decor's cached preorder
# ----------------------------------------------------------------------
from repro.android.views.view import View  # noqa: E402
from repro.errors import NullPointerException  # noqa: E402

FRAGMENT_CONTAINER = 50
FRAGMENT_ID_BASE = 100


def _fragment_app():
    """A launched app whose main layout holds a fragment container, with
    three one-group fragment layouts to attach into it."""
    from repro.android.res import Orientation, ResourceTable
    from repro.apps.dsl import AppSpec, simple_layout

    table = ResourceTable()
    main = simple_layout("main", [
        ViewSpec("ViewGroup", view_id=FRAGMENT_CONTAINER),
        ViewSpec("TextView", view_id=3),
    ])
    for orientation in (Orientation.PORTRAIT, Orientation.LANDSCAPE):
        table.add_layout("main", main, orientation)
        for frag in range(3):
            table.add_layout(f"frag{frag}", LayoutSpec(f"frag{frag}", roots=[
                ViewSpec("ViewGroup", view_id=FRAGMENT_ID_BASE + frag * 10,
                         children=[ViewSpec(
                             "TextView",
                             view_id=FRAGMENT_ID_BASE + frag * 10 + 1,
                         )]),
            ]), orientation)
    app = AppSpec(package="prop.fragments", label="Fragments",
                  resources=table)
    system = AndroidSystem()
    system.launch(app)
    return system


def ref_save_state(view, out, full):
    View.save_state(view, out, full=full)
    for child in getattr(view, "children", ()):
        ref_save_state(child, out, full)


def ref_restore_state(view, saved):
    View.restore_state(view, saved)
    for child in getattr(view, "children", ()):
        ref_restore_state(child, saved)


def _bundle_items(bundle):
    return [
        (key, _bundle_items(value) if isinstance(value, Bundle) else value)
        for key, value in bundle.items()
    ]


def _graft(activity, layout, target):
    """Inflate ``layout`` and move its roots under ``target``, the way a
    fragment attach does."""
    carrier = inflate(activity.ctx, activity, layout)
    for root in list(carrier.children):
        carrier.remove_child(root)
        target.add_child(root)
    carrier.destroy()


def _apply(system, op):
    activity = system.foreground_activity()
    tree = list(ref_iter_tree(activity.decor))
    kind = op[0]
    if kind == "add":
        groups = [view for view in tree if isinstance(view, ViewGroup)]
        _graft(activity, op[1], groups[op[2] % len(groups)])
    elif kind == "remove" and len(tree) > 1:
        view = tree[1 + op[1] % (len(tree) - 1)]
        view.parent.remove_child(view)
        view.destroy()
    elif kind == "attach":
        try:
            activity.fragments.attach(f"f{op[1]}", f"frag{op[1]}",
                                      FRAGMENT_CONTAINER)
        except (NullPointerException, ValueError, TypeError):
            pass  # container gone, taken by a leaf, or already attached
    elif kind == "detach":
        container = activity.find_view(FRAGMENT_CONTAINER)
        if isinstance(container, ViewGroup):
            try:
                activity.fragments.detach(f"f{op[1]}")
            except NullPointerException:
                pass  # not attached
    elif kind == "set":
        with_ids = [view for view in tree if view.view_id is not None]
        if with_ids:
            with_ids[op[1] % len(with_ids)].set_attr("text", f"typed-{op[1]}")
    elif kind == "fork":
        return AndroidSystem.fork(system.snapshot())
    return system


def _check_cache(decor):
    walk = list(decor.iter_tree())
    assert walk == list(ref_iter_tree(decor))
    assert decor.preorder() == walk
    assert decor.count_views() == len(walk)
    assert decor.preorder() is decor.preorder()


tree_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), layouts, st.integers(0, 60)),
    st.tuples(st.just("remove"), st.integers(0, 200)),
    st.tuples(st.just("attach"), st.integers(0, 2)),
    st.tuples(st.just("detach"), st.integers(0, 2)),
    st.tuples(st.just("set"), st.integers(0, 200)),
    st.tuples(st.just("fork")),
), max_size=8)


@given(layouts, tree_ops)
@settings(max_examples=40, deadline=None)
def test_cached_preorder_tracks_every_tree_change(layout, ops):
    """The decor's cached preorder, its count, and its one-pass save and
    restore agree with the recursive walks after any sequence of child
    adds and removes, fragment attaches and detaches, and forks."""
    system = _fragment_app()
    activity = system.foreground_activity()
    _graft(activity, layout, activity.decor)
    _check_cache(activity.decor)
    for op in ops:
        system = _apply(system, op)
        _check_cache(system.foreground_activity().decor)

    decor = system.foreground_activity().decor
    saved = {}
    for full in (False, True):
        flat, ref = Bundle(), Bundle()
        decor.save_state(flat, full=full)
        ref_save_state(decor, ref, full)
        assert _bundle_items(flat) == _bundle_items(ref)
        saved[full] = ref

    # Replay a bundle whose view entries all carry new values, plus keys
    # that only look like view entries, onto two identical forks.
    replay = Bundle()
    for key in [*(f"view:{v.view_id}" for v in decor.preorder()
                  if v.view_id is not None), "view:07", "view:x", "other"]:
        state = Bundle()
        state.put("text", f"restored-{key}")
        replay.put_bundle(key, state)
    replay.put("view:9", "not a bundle")
    snap = system.snapshot()
    outcomes = []
    for restore in (DecorView.restore_state, ref_restore_state):
        fork = AndroidSystem.fork(snap).foreground_activity().decor
        restore(fork, replay)
        restore(fork, saved[True])
        outcomes.append([
            (view.view_id, view.attrs, sorted(view.user_set_attrs))
            for view in ref_iter_tree(fork)
        ])
        _check_cache(fork)
    assert outcomes[0] == outcomes[1]
