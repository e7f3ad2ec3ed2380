"""Deterministic deep checkpoints of a running simulation.

A :class:`SystemSnapshot` captures one :class:`~repro.system.AndroidSystem`
— scheduler heap and live-event counter, virtual clock, RNG state,
process/memory model, view trees, ATMS records and stacks, recorder,
profiler, and policy state — as a byte string, and restores it into a
fully independent copy.  The contract the engine's prefix-sharing builds
on: **a fork is byte-identical to a fresh run**.  Running the same verbs
against a restored system produces exactly the results a from-scratch
simulation of prefix + suffix would (``tests/sim/test_snapshot.py`` pins
this for all three policies, with and without tracing, including a fork
taken mid-async-task).

Why custom pickling instead of ``copy.deepcopy``: the event queue holds
*closures* (a looper message's dispatch lambda, an AsyncTask's completion,
the GC tick).  ``deepcopy`` treats function objects as atomic, so a copied
event would still close over the *original* system's objects and a fork
would mutate its parent.  This module extends pickle with a reducer for
non-importable functions (marshalled code + rebuilt closure cells, the
cloudpickle technique) so closures are captured as part of the object
graph, with cell contents routed through function *state* — pickled after
the function is memoised — which makes the ``message → event → lambda →
message`` reference cycles in the queue safe.

Two kinds of objects are deliberately **not** copied:

* the shared immutable inputs (cost model, app specs and their resource
  tables / async scripts) — externalised by identity, so every fork
  references the same spec objects and fork cost does not scale with
  corpus size;
* the :data:`~repro.trace.tracer.NULL_TRACER` singleton — saved as a
  global reference so an untraced fork stays on the pre-bound untraced
  dispatch path.

Both go through the pickler's ``reducer_override``, not the
persistent-id protocol.  The C pickler calls ``persistent_id`` for
*every* object it saves — ints, floats and strs included, about 1,900
Python calls per hunt capture — whereas ``reducer_override`` only runs
for objects that are neither atomic, memoised, nor plain containers,
which is where every external lives (they are all class instances).
An external is saved as ``_external_ref(index)``; :func:`loads` binds
the restoring snapshot's externals in a :class:`contextvars.ContextVar`
around a plain :func:`pickle.loads`, so there is no Python-level
unpickler either, and concurrent restores in different threads each
resolve against their own externals.

Snapshots also serialise to disk (:meth:`SystemSnapshot.to_bytes` /
:meth:`SystemSnapshot.from_bytes`); there the externals ride along by
value.  The format embeds the interpreter's ``marshal`` version context
implicitly — loaders must treat unreadable bytes as a cache miss, never
an error (the engine's snapshot store does).
"""

from __future__ import annotations

import contextvars
import importlib
import io
import marshal
import pickle
import sys
import types
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import SnapshotError
from repro.trace.tracer import NULL_TRACER, active_session

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import AndroidSystem

#: Bump when the capture format changes incompatibly (folded into the
#: engine snapshot store's directory layout next to the cache schema).
#: Version 2: externals and the null tracer travel through
#: ``reducer_override`` instead of persistent ids.  Version 3: trace
#: records are slotted classes, the RNG pickles its state as bytes, and
#: the memory accountant carries running per-process totals.
SNAPSHOT_FORMAT_VERSION = 3

#: The externals of the :func:`loads` call in progress (per thread and
#: per asyncio task, as context variables are).
_LOAD_EXTERNALS: contextvars.ContextVar[Sequence[Any]] = (
    contextvars.ContextVar("snapshot_externals", default=())
)


def _external_ref(index: int) -> Any:
    """An externalised shared input, resolved against the loading call."""
    return _LOAD_EXTERNALS.get()[index]


# ----------------------------------------------------------------------
# function / cell reducers
# ----------------------------------------------------------------------
def _is_importable(func: types.FunctionType) -> bool:
    """Can normal pickle find this function by module + qualname?"""
    if "<locals>" in func.__qualname__ or func.__name__ == "<lambda>":
        return False
    module = sys.modules.get(func.__module__)
    if module is None:
        return False
    target: Any = module
    try:
        for part in func.__qualname__.split("."):
            target = getattr(target, part)
    except AttributeError:
        return False
    return target is func


def _restore_function(code_bytes: bytes, module_name: str, closure: tuple):
    code = marshal.loads(code_bytes)
    module = importlib.import_module(module_name)
    return types.FunctionType(
        code, module.__dict__, code.co_name, None, closure or None
    )


def _apply_function_state(func: types.FunctionType, state: tuple) -> None:
    cell_contents, defaults, kwdefaults, func_dict = state
    for cell, (filled, value) in zip(func.__closure__ or (), cell_contents):
        if filled:
            cell.cell_contents = value
    func.__defaults__ = defaults
    func.__kwdefaults__ = kwdefaults
    if func_dict:
        func.__dict__.update(func_dict)


def _reduce_function(func: types.FunctionType):
    """Marshal the code object; rebuild globals from the module registry.

    Closure *cells* travel in the constructor args (so cells shared
    between two closures stay shared through the memo), but their
    *contents* travel in the state tuple — applied after the function is
    memoised, which is what breaks the queue's reference cycles.
    """
    closure = func.__closure__ or ()
    contents = []
    for cell in closure:
        try:
            contents.append((True, cell.cell_contents))
        except ValueError:  # empty cell
            contents.append((False, None))
    state = (
        tuple(contents),
        func.__defaults__,
        func.__kwdefaults__,
        dict(func.__dict__),
    )
    return (
        _restore_function,
        (marshal.dumps(func.__code__), func.__module__, closure),
        state,
        None,
        None,
        _apply_function_state,
    )


def _make_cell() -> types.CellType:
    return types.CellType()


def _reduce_cell(cell: types.CellType):
    """Cells are created empty; contents arrive via function state.

    (``types.CellType`` itself has no importable qualname — ``builtins``
    does not export ``cell`` — hence the module-level factory.)
    """
    return (_make_cell, ())


class _SnapshotPickler(pickle.Pickler):
    """Pickler that captures closures and externalises shared inputs."""

    def __init__(self, file, externals: Sequence[Any] = ()):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._externals = {
            id(obj): (index, obj) for index, obj in enumerate(externals)
        }

    def reducer_override(self, obj: Any):
        entry = self._externals.get(id(obj))
        if entry is not None and entry[1] is obj:
            return _external_ref, (entry[0],)
        if obj is NULL_TRACER:
            return "NULL_TRACER"  # a module global of repro.trace.tracer
        if isinstance(obj, types.CellType):
            return _reduce_cell(obj)
        if isinstance(obj, types.FunctionType) and not _is_importable(obj):
            return _reduce_function(obj)
        return NotImplemented


def dumps(obj: Any, externals: Sequence[Any] = ()) -> bytes:
    buffer = io.BytesIO()
    _SnapshotPickler(buffer, externals).dump(obj)
    return buffer.getvalue()


def loads(payload: bytes, externals: Sequence[Any] = ()) -> Any:
    token = _LOAD_EXTERNALS.set(externals)
    try:
        return pickle.loads(payload)
    finally:
        _LOAD_EXTERNALS.reset(token)


# ----------------------------------------------------------------------
# the snapshot object
# ----------------------------------------------------------------------
class SystemSnapshot:
    """A frozen byte-level checkpoint of one simulated device.

    Restoring never mutates the snapshot: every :meth:`restore` call
    deserialises a fresh, fully disjoint object graph, so one snapshot
    can seed any number of forks.
    """

    __slots__ = ("payload", "externals", "policy_name", "now_ms")

    def __init__(
        self,
        payload: bytes,
        externals: tuple,
        policy_name: str = "",
        now_ms: float = 0.0,
    ):
        self.payload = payload
        self.externals = externals
        self.policy_name = policy_name
        self.now_ms = now_ms

    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls, system: "AndroidSystem", *, trim_history: bool = False
    ) -> "SystemSnapshot":
        """Checkpoint ``system``; the live system is left untouched.

        ``trim_history=True`` captures with the recorder's query-only
        history (busy intervals, heap samples, events, latencies)
        emptied — crash records, open intervals, and counters are kept
        because they carry live semantics (``crashed()`` reads them).
        Forks that only inspect their *own* future behave identically
        but restore from a smaller payload; the fleet's cohort templates
        use this.  The live system's history is restored afterwards.
        """
        session = active_session()
        if session is not None and system.tracer in session.tracers:
            # A session-registered tracer cannot be meaningfully forked:
            # the session tracks tracer identity and label uniqueness,
            # and a fork's spans would silently vanish from the report.
            raise SnapshotError(
                "cannot snapshot a system whose tracer is registered "
                "with an active TraceSession"
            )
        externals = tuple(system.shared_inputs())
        recorder = system.ctx.recorder
        saved_history = (
            (recorder.busy, recorder.heap, recorder.events,
             recorder.latencies)
            if trim_history
            else None
        )
        try:
            if saved_history is not None:
                recorder.busy = []
                recorder.heap = []
                recorder.events = []
                recorder.latencies = []
            payload = dumps(system, externals)
        except (pickle.PicklingError, TypeError, ValueError) as exc:
            raise SnapshotError(f"cannot capture system: {exc}") from exc
        finally:
            if saved_history is not None:
                (recorder.busy, recorder.heap, recorder.events,
                 recorder.latencies) = saved_history
        return cls(
            payload,
            externals,
            policy_name=system.policy.name,
            now_ms=system.now_ms,
        )

    def restore(self) -> "AndroidSystem":
        """Materialise an independent system continuing from this point."""
        try:
            return loads(self.payload, self.externals)
        except Exception as exc:
            raise SnapshotError(f"cannot restore snapshot: {exc}") from exc

    # ------------------------------------------------------------------
    # disk form (externals ride along by value)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        record = (
            SNAPSHOT_FORMAT_VERSION,
            self.policy_name,
            self.now_ms,
            self.externals,
            self.payload,
        )
        return dumps(record)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SystemSnapshot":
        try:
            record = loads(data)
            version, policy_name, now_ms, externals, payload = record
        except Exception as exc:
            raise SnapshotError(f"unreadable snapshot bytes: {exc}") from exc
        if version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot format {version} != {SNAPSHOT_FORMAT_VERSION}"
            )
        return cls(payload, externals, policy_name=policy_name, now_ms=now_ms)

    @property
    def size_bytes(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SystemSnapshot({self.policy_name or 'unknown'} @ "
            f"{self.now_ms:.1f} ms, {self.size_bytes} bytes)"
        )
