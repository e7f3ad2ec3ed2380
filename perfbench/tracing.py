"""Host-time span tracing for the benchmark's traced run.

Nothing here edits the program.  :func:`install` replaces a fixed set of
layer entry points with timing wrappers, at the names their callers look
them up under: every loaded ``repro.*`` module attribute that *is* the
original function is rebound (``repro.fleet.run.run_device`` as well as
``repro.fleet.device.run_device``), and methods are replaced on their
class.  A module imported later picks the wrapper up from the defining
module.

Spans live in memory until the pass ends.  Each is a list
``[name, layer, start_s, end_s, parent_index, thread]``; the run id is the
tracer's.  :func:`self_times` subtracts child coverage from each span, so
the per-layer self times of one root span add up to that root's duration
exactly; :func:`write_chrome_trace` exports the spans as Chrome
trace-event JSON (``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

#: AndroidSystem methods timed as ``sim`` spans.
SYSTEM_METHODS = ("__init__", "launch", "rotate", "resize", "set_locale",
                  "attach_keyboard", "set_night_mode", "start_activity",
                  "back", "run_for", "run_until_idle", "write_slot",
                  "read_slot", "start_async")

#: The ``src/repro`` layers a span can be attributed to, plus ``bench``
#: for the benchmark's own root spans (time no layer span covers).
LAYERS = ("sim", "snapshot", "workload", "fleet", "engine", "hunt",
          "oracle", "harness", "serve", "bench")


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._records: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> list:
        stack = self._stack()
        # The parent is held by reference while spans are recorded, so
        # client threads can append concurrently; spans() turns it into
        # an index.
        record = [name, layer, 0.0, 0.0, stack[-1] if stack else None,
                  threading.get_ident()]
        stack.append(record)
        self._records.append(record)
        record[2] = time.perf_counter()
        return record

    def end(self, record: list) -> None:
        record[3] = time.perf_counter()
        self._stack().pop()

    def record(self, name: str, layer: str, start: float,
               end: float) -> None:
        """A finished span timed by the caller, under the open one."""
        stack = self._stack()
        self._records.append([name, layer, start, end,
                              stack[-1] if stack else None,
                              threading.get_ident()])

    @property
    def spans(self) -> list[list]:
        """The spans in start order, parents as indices (-1 for roots)."""
        records = sorted(self._records, key=lambda record: record[2])
        index_of = {id(record): index for index, record in
                    enumerate(records)}
        return [[name, layer, start, end,
                 -1 if parent is None else index_of[id(parent)], thread]
                for name, layer, start, end, parent, thread in records]

    def span(self, name: str, layer: str) -> "_Span":
        return _Span(self, name, layer)

    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        """``fn`` timed as span ``name``; ``before(args)`` returns a state
        that ``after(state, args, result)`` folds into the counters."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            record = begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(record)
            if after is not None:
                after(state, args, result)
            return result

        return functools.update_wrapper(traced, fn)


class _Span:
    __slots__ = ("tracer", "name", "layer", "record")

    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self) -> list:
        self.record = self.tracer.begin(self.name, self.layer)
        return self.record

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.record)


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------
#: Modules that import a wrapped function by name.
CALLER_MODULES = ("repro.fleet.run", "repro.fleet.device",
                  "repro.hunt.search", "repro.hunt.session",
                  "repro.harness.sessions", "repro.oracle.session",
                  "repro.harness.experiments", "repro.serve.server",
                  "repro.engine.bench")


def _rebind_everywhere(original, replacement) -> None:
    """Point every ``repro.*`` module attribute that is ``original`` at
    ``replacement``."""
    import sys

    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method(cls, attr: str, make) -> None:
    """Replace method ``attr`` of ``cls`` by ``make(original)``, keeping
    a classmethod a classmethod."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points the per-layer metrics are read from."""
    import dataclasses
    import importlib

    # Load every module that imports a wrapped function by name, so the
    # rebinding below reaches its copy of the name too.
    for module in CALLER_MODULES:
        importlib.import_module(module)
    from repro import system
    from repro.engine import batch, cache, scenarios
    from repro.fleet import aggregate, run as fleet_run
    from repro.hunt import generator, rules, search
    from repro.oracle import session as oracle_session
    from repro.sim import scheduler, snapshot
    from repro.workload import driver

    counts = tracer.counts

    def function(module, attr, name, layer, before=None, after=None):
        original = getattr(module, attr)
        _rebind_everywhere(original, tracer.wrap(original, name, layer,
                                                 before, after))

    def method(cls, attr, name, layer, before=None, after=None):
        _wrap_method(cls, attr, lambda original: tracer.wrap(
            original, name, layer, before, after))

    # sim: the simulated device's public surface (configuration changes
    # and the framework work they trigger run synchronously inside these)
    # and the scheduler loops every simulated event runs inside.
    for attr in SYSTEM_METHODS:
        method(system.AndroidSystem, attr, f"sim.{attr}", "sim")
    method(scheduler.Scheduler, "run_until", "sim.run", "sim")
    method(scheduler.Scheduler, "run_until_idle", "sim.run", "sim")

    # snapshot
    def captured(_state, _args, snap):
        counts["snapshot.bytes"] += len(snap.payload)

    method(snapshot.SystemSnapshot, "capture", "snapshot.capture",
           "snapshot", after=captured)
    method(snapshot.SystemSnapshot, "restore", "snapshot.restore",
           "snapshot")

    # workload: session generation and the shared device driver.
    def drive_before(args):
        ctx = args[0].ctx
        return ctx.scheduler.events_executed, ctx.clock.now_ms

    def drive_after(state, args, result):
        ctx = args[0].ctx
        counts["sim.events"] += ctx.scheduler.events_executed - state[0]
        counts["sim.virtual_s"] += (ctx.clock.now_ms - state[1]) / 1000.0
        counts["workload.ops"] += result.ops_played

    function(fleet_run, "member_workload", "workload.generate", "workload")
    function(driver, "drive", "workload.drive", "workload",
             drive_before, drive_after)

    # fleet
    function(fleet_run, "run_fleet", "fleet.run", "fleet")
    function(fleet_run, "capture_template", "fleet.template", "fleet")
    function(fleet_run, "run_device", "fleet.device", "fleet")
    method(aggregate.CohortAccumulator, "add", "fleet.aggregate", "fleet")
    method(aggregate.CohortAccumulator, "merge", "fleet.aggregate", "fleet")
    method(fleet_run.FleetResult, "to_json", "fleet.report", "fleet")

    # engine
    def cache_get(_state, _args, result):
        counts["engine.cache.hits" if result[0]
               else "engine.cache.misses"] += 1

    def cache_put(_state, _args, _result):
        counts["engine.cache.stores"] += 1

    def batch_after(_state, _args, results):
        counts["engine.batch.requests"] += len(results)

    function(batch, "run_batch", "engine.batch", "engine",
             after=batch_after)
    function(batch, "execute_request", "engine.execute", "engine")
    function(batch, "fingerprint", "engine.fingerprint", "engine")
    method(cache.ResultCache, "get", "engine.cache.get", "engine",
           after=cache_get)
    method(cache.ResultCache, "put", "engine.cache.put", "engine",
           after=cache_put)

    # harness: the scenario bodies the engine executes, wrapped in the
    # registry the engine looks them up in.
    for kind, spec in list(scenarios.SCENARIOS.items()):
        scenarios.SCENARIOS[kind] = dataclasses.replace(spec, **{
            part: tracer.wrap(getattr(spec, part), f"harness.scenario.{part}",
                              "harness")
            for part in ("run", "prepare", "finish")
        })

    # hunt (search/shrink probe counts come from the report)
    function(search, "run_hunt", "hunt.run", "hunt")
    function(generator, "generate_corpus", "hunt.generate", "hunt")
    function(rules, "inspect_corpus", "hunt.inspect", "hunt")

    # oracle
    function(oracle_session, "run_oracle_session", "oracle.session",
             "oracle")


def install_checkpoints(stamps: list) -> None:
    """Append ``perf_counter()`` to ``stamps`` on entry to and exit from
    each checkpoint function, cutting a pass into a few thousand short
    intervals (see run.py's ``quiet_time``).

    The checkpoints are the calls every workload repeats: a device
    session, a workload drive, an engine run and fingerprint, an oracle
    session, a snapshot capture and restore, the simulated device's public methods
    and the scheduler loops.  Untraced and traced passes both carry
    them; they cost about half a microsecond per call.
    """
    import importlib

    for module in CALLER_MODULES:
        importlib.import_module(module)
    from repro import system
    from repro.engine import batch
    from repro.fleet import run as fleet_run
    from repro.oracle import session as oracle_session
    from repro.sim import scheduler, snapshot
    from repro.workload import driver

    clock, note = time.perf_counter, stamps.append

    def checkpointed(fn):
        def wrapper(*args, **kwargs):
            note(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                note(clock())

        return functools.update_wrapper(wrapper, fn)

    for module, attr in ((fleet_run, "run_device"), (driver, "drive"),
                         (batch, "execute_request"),
                         (batch, "fingerprint"),
                         (oracle_session, "run_oracle_session")):
        original = getattr(module, attr)
        _rebind_everywhere(original, checkpointed(original))
    for cls, attrs in ((snapshot.SystemSnapshot, ("capture", "restore")),
                       (system.AndroidSystem, SYSTEM_METHODS),
                       (scheduler.Scheduler, ("run_until",
                                              "run_until_idle"))):
        for attr in attrs:
            _wrap_method(cls, attr, checkpointed)


# ----------------------------------------------------------------------
# reading the spans
# ----------------------------------------------------------------------
def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    own = [span[3] - span[2] for span in spans]
    for span in spans:
        parent = span[4]
        if parent >= 0:
            own[parent] -= span[3] - span[2]
    return own


def descendants(spans: list[list], root: int) -> list[int]:
    """Indices of ``root`` and every span below it (spans are appended
    in start order, so a child always follows its parent)."""
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index][4] in inside:
            inside.add(index)
    return sorted(inside)


def layer_self_times(spans: list[list],
                     root: "int | None") -> dict[str, float]:
    """Self time per layer over the tree under ``root`` (all spans when
    ``root`` is None)."""
    own = self_times(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    members = range(len(spans)) if root is None \
        else descendants(spans, root)
    for index in members:
        totals[spans[index][1]] += own[index]
    return totals


def catch_all_self_time(spans: list[list], root: int,
                        names: "frozenset[str]") -> float:
    """Self time of the spans named in ``names`` under ``root``."""
    own = self_times(spans)
    return sum(own[index] for index in descendants(spans, root)
               if spans[index][0] in names)


def call_totals(spans: list[list]) -> dict[str, list]:
    """Per span name: ``[calls, inclusive seconds]``."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        entry = totals[span[0]]
        entry[0] += 1
        entry[1] += span[3] - span[2]
    return totals


def has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    """Chrome trace-event JSON: one complete (``X``) event per span."""
    spans = tracer.spans
    origin = min((span[2] for span in spans), default=0.0)
    threads: dict[int, int] = {}
    events = []
    for index, (name, layer, start, end, parent, thread) in \
            enumerate(spans):
        tid = threads.setdefault(thread, len(threads) + 1)
        events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"id": index, "parent": parent,
                     "run": tracer.run_id},
        })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"run": tracer.run_id}}, handle)
