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

For population-scale fan-out a third form exists: **delta snapshots**
(:meth:`SystemSnapshot.delta_from` / :class:`DeltaSnapshot`).  A device
forked from a cohort template diverges from it by a handful of counters
and state slots; the delta stores only that divergence as an
rsync-style binary patch (:func:`bdiff` / :func:`bpatch`), so
per-device residue is ~KB where the full payload is ~MB.  Composing
``template + delta`` reconstructs the full payload byte-exactly — a
delta restore is *provably* the same system as a full-snapshot restore,
which the fleet's ``--verify-deltas`` flag spot-checks in production
runs.
"""

from __future__ import annotations

import contextvars
import hashlib
import importlib
import io
import marshal
import pickle
import struct
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
# binary deltas (rsync-style block matching)
# ----------------------------------------------------------------------
#: Block size of the delta matcher.  Small enough that a handful of
#: changed counters in an otherwise identical pickle stream costs a few
#: literal runs, large enough that the block index stays cheap.
DELTA_BLOCK = 32

#: Bump when the patch wire format changes incompatibly.
DELTA_FORMAT_VERSION = 1

_OP_COPY = 0x01
_OP_LITERAL = 0x02
_OP_HEADER = struct.Struct("<BQQ")  # op, arg1, arg2


def bdiff(base: bytes, target: bytes, block: int = DELTA_BLOCK) -> bytes:
    """A compact patch turning ``base`` into ``target``.

    Classic rsync block matching: every ``block``-aligned window of
    ``base`` is indexed by content, the target is scanned for matching
    windows, and matches are extended byte-wise in both directions.  The
    output is a deterministic op stream of *copy* (offset, length into
    ``base``) and *literal* (length, raw bytes) records — pure data, no
    pickling — decoded by :func:`bpatch`.  ``bpatch(base, bdiff(base,
    target)) == target`` holds for arbitrary inputs; similarity only
    affects the patch size.
    """
    base = bytes(base)
    target = bytes(target)
    out = [_OP_HEADER.pack(0, DELTA_FORMAT_VERSION, len(target))]
    if not target:
        return b"".join(out)

    index: dict[bytes, int] = {}
    if block <= len(base):
        for offset in range(0, len(base) - block + 1, block):
            index.setdefault(base[offset:offset + block], offset)

    def emit_literal(chunk: bytes) -> None:
        if chunk:
            out.append(_OP_HEADER.pack(_OP_LITERAL, len(chunk), 0))
            out.append(chunk)

    literal_start = 0
    position = 0
    end = len(target)
    while position + block <= end:
        offset = index.get(target[position:position + block])
        if offset is None:
            position += 1
            continue
        length = block
        while (position + length < end and offset + length < len(base)
               and target[position + length] == base[offset + length]):
            length += 1
        while (position > literal_start and offset > 0
               and target[position - 1] == base[offset - 1]):
            position -= 1
            offset -= 1
            length += 1
        emit_literal(target[literal_start:position])
        out.append(_OP_HEADER.pack(_OP_COPY, offset, length))
        position += length
        literal_start = position
    emit_literal(target[literal_start:])
    return b"".join(out)


def bpatch(base: bytes, patch: bytes) -> bytes:
    """Apply a :func:`bdiff` patch to ``base``; exact reconstruction."""
    base = bytes(base)
    view = memoryview(patch)
    if len(view) < _OP_HEADER.size:
        raise SnapshotError("truncated delta patch: missing header")
    op, version, expected_length = _OP_HEADER.unpack_from(view, 0)
    if op != 0 or version != DELTA_FORMAT_VERSION:
        raise SnapshotError(
            f"delta patch format {version} != {DELTA_FORMAT_VERSION}"
        )
    cursor = _OP_HEADER.size
    pieces: list[bytes] = []
    total = 0
    while cursor < len(view):
        if cursor + _OP_HEADER.size > len(view):
            raise SnapshotError("truncated delta patch: partial op header")
        op, arg1, arg2 = _OP_HEADER.unpack_from(view, cursor)
        cursor += _OP_HEADER.size
        if op == _OP_COPY:
            if arg1 + arg2 > len(base):
                raise SnapshotError("delta patch copies past the base")
            pieces.append(base[arg1:arg1 + arg2])
            total += arg2
        elif op == _OP_LITERAL:
            if cursor + arg1 > len(view):
                raise SnapshotError("truncated delta patch: short literal")
            pieces.append(bytes(view[cursor:cursor + arg1]))
            cursor += arg1
            total += arg1
        else:
            raise SnapshotError(f"unknown delta patch op {op:#x}")
    if total != expected_length:
        raise SnapshotError(
            f"delta patch reconstructed {total} bytes, "
            f"expected {expected_length}"
        )
    return b"".join(pieces)


def payload_digest(payload: bytes) -> str:
    """Content address of a snapshot payload (delta base check)."""
    return hashlib.sha256(bytes(payload)).hexdigest()


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
    def delta_from(self, template: "SystemSnapshot") -> "DeltaSnapshot":
        """This snapshot as a delta against its cohort ``template``.

        Valid only for a snapshot of a system that was forked from (or
        shares the externalised inputs of) ``template``: the delta keeps
        no externals of its own and recomposes against the template's.
        The patch covers whatever actually diverged — for a device a few
        operations past its fork point that is ~KB of counters and state
        slots, not the ~MB full payload.
        """
        if len(self.externals) != len(template.externals) or any(
            mine is not theirs
            for mine, theirs in zip(self.externals, template.externals)
        ):
            raise SnapshotError(
                "delta requires a snapshot forked from the given template "
                "(shared externalised inputs)"
            )
        return DeltaSnapshot(
            patch=bdiff(template.payload, self.payload),
            base_digest=payload_digest(template.payload),
            policy_name=self.policy_name,
            now_ms=self.now_ms,
        )

    # ------------------------------------------------------------------
    # disk form (externals ride along by value)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        record = (
            SNAPSHOT_FORMAT_VERSION,
            self.policy_name,
            self.now_ms,
            self.externals,
            # Arena-backed snapshots hold a memoryview into shared
            # memory; the disk form always owns its bytes.
            bytes(self.payload),
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


# ----------------------------------------------------------------------
# delta snapshots
# ----------------------------------------------------------------------
class DeltaSnapshot:
    """A device checkpoint stored as its divergence from a template.

    Composing ``template + delta`` is byte-exact: :meth:`apply` returns
    precisely the payload the full :class:`SystemSnapshot` would hold,
    so a delta-restored system is indistinguishable from a
    full-snapshot restore (the fleet's ``--verify-deltas`` spot-checks
    this equality end to end).  The delta refuses to compose against
    anything but its own template — the base payload's content digest
    travels with the patch.
    """

    __slots__ = ("patch", "base_digest", "policy_name", "now_ms")

    def __init__(
        self,
        patch: bytes,
        base_digest: str,
        policy_name: str = "",
        now_ms: float = 0.0,
    ):
        self.patch = patch
        self.base_digest = base_digest
        self.policy_name = policy_name
        self.now_ms = now_ms

    # ------------------------------------------------------------------
    def apply(self, template: SystemSnapshot) -> bytes:
        """The full snapshot payload this delta encodes."""
        if payload_digest(template.payload) != self.base_digest:
            raise SnapshotError(
                "delta does not belong to this template "
                "(base payload digest mismatch)"
            )
        return bpatch(template.payload, self.patch)

    def to_snapshot(self, template: SystemSnapshot) -> SystemSnapshot:
        """Recompose the full :class:`SystemSnapshot` (template + delta)."""
        return SystemSnapshot(
            self.apply(template),
            template.externals,
            policy_name=self.policy_name,
            now_ms=self.now_ms,
        )

    def restore(self, template: SystemSnapshot) -> "AndroidSystem":
        """Materialise the delta-checkpointed system from its template."""
        return self.to_snapshot(template).restore()

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        record = (
            SNAPSHOT_FORMAT_VERSION,
            DELTA_FORMAT_VERSION,
            self.policy_name,
            self.now_ms,
            self.base_digest,
            self.patch,
        )
        return dumps(record)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DeltaSnapshot":
        try:
            record = loads(data)
            (version, delta_version, policy_name, now_ms,
             base_digest, patch) = record
        except Exception as exc:
            raise SnapshotError(f"unreadable delta bytes: {exc}") from exc
        if (version, delta_version) != (SNAPSHOT_FORMAT_VERSION,
                                        DELTA_FORMAT_VERSION):
            raise SnapshotError(
                f"delta format {(version, delta_version)} != "
                f"{(SNAPSHOT_FORMAT_VERSION, DELTA_FORMAT_VERSION)}"
            )
        return cls(patch, base_digest, policy_name=policy_name,
                   now_ms=now_ms)

    @property
    def size_bytes(self) -> int:
        return len(self.patch)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DeltaSnapshot({self.policy_name or 'unknown'} @ "
            f"{self.now_ms:.1f} ms, {self.size_bytes}-byte patch)"
        )
