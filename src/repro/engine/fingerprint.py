"""Canonical content fingerprints for cache keys.

A simulation run is fully determined by its inputs: the app spec, the
policy, the cost model, the seed and the scenario kwargs.  The engine
addresses cached results by a SHA-256 over a *canonical* encoding of
those inputs, so two experiments that share a run — or the same
experiment re-run tomorrow — produce the same key, while any semantic
change to an input (one cost constant, one extra view in a layout)
produces a different one.

The canonical form has one definition: :func:`canonical_json`, a
single-pass writer that appends compact JSON text (ASCII, no spaces)
straight into a list of fragments.  It encodes

* ``None``, bools, strs and ints (subclasses included, so ``IntEnum``
  and str-mixin enums) as their JSON atoms;
* floats as ``["f", repr]`` (``repr`` round-trips exactly; integral
  floats stay floats);
* enums as ``["enum", <qualified name>, <value>]``;
* dataclass instances as ``["dc", <qualified name>, {field: ...}]``
  with the fields in sorted order (recursing into field values —
  ``repr`` is never trusted);
* dicts as ``["dict", [[key, value], ...]]``, pairs sorted by each
  key's own canonical text (so non-string keys like ``Orientation``
  work);
* tuples and lists both as ``["seq", [...]]``; sets as
  ``["set", [...]]``, each element's canonical text as one JSON string,
  sorted;
* classes, module-level functions and module builtins as
  ``["ref", <dotted name>]`` (a policy factory is identity, not state).

It dispatches on ``type(obj)`` through a plan memoised per class; the
plan resolves the checks above in that order, and carries a dataclass's
or enum's pre-encoded head and a dataclass's sorted field names.
:func:`fingerprint` is the SHA-256 of that text and
:func:`canonicalize` is its ``json.loads``.

Anything else — live objects, and callables whose dotted name does not
identify them (lambdas, nested functions, bound methods, partials,
callable instances) — is an :class:`~repro.errors.EngineError`:
refusing to fingerprint beats silently colliding.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sys
import types
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter
from typing import Any, Callable

from repro.errors import EngineError

#: Bump when the canonical encoding, the result codec, or simulator
#: semantics change in a way that invalidates previously cached results.
CACHE_SCHEMA_VERSION = 1

#: A plan writes one value of its class: ``plan(obj, append)``.
_Plan = Callable[[Any, Callable[[str], None]], None]


class _PlanCache(dict):
    """class -> plan, built on first sight of the class.

    A plan is a pure function of its class, so one memo serves every
    caller in the process.
    """

    def __missing__(self, cls: type) -> _Plan:
        plan = self[cls] = _plan_for(cls)
        return plan


_PLANS: dict[type, _Plan] = _PlanCache()

_first_item = itemgetter(0)


def canonical_json(obj: Any) -> str:
    """The canonical encoding of ``obj`` as compact, ASCII-only JSON."""
    out: list[str] = []
    _write(obj, out.append)
    return "".join(out)


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-able structure."""
    return json.loads(canonical_json(obj))


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def _write(obj: Any, append: Callable[[str], None]) -> None:
    _PLANS[type(obj)](obj, append)


# ----------------------------------------------------------------------
# per-class plans, resolved in the canonical form's check order.
# Strings are most of a view tree's values, so the container writers
# encode them inline instead of through their plan.
# ----------------------------------------------------------------------
def _plan_for(cls: type) -> _Plan:
    if cls is bool:
        return _write_bool
    if cls is type(None):
        return _write_none
    if issubclass(cls, str):
        return _write_str
    if issubclass(cls, int):
        return _write_int
    if issubclass(cls, float):
        return _write_float
    if issubclass(cls, enum.Enum):
        return _enum_plan(cls)
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_plan(cls)
    if issubclass(cls, dict):
        return _write_dict
    if issubclass(cls, (list, tuple)):
        return _write_seq
    if issubclass(cls, (set, frozenset)):
        return _write_set
    return _write_other


def _write_bool(obj: bool, append) -> None:
    append("true" if obj else "false")


def _write_none(obj: None, append) -> None:
    append("null")


def _write_str(obj: str, append) -> None:
    append(_encode_str(obj))


def _write_int(obj: int, append) -> None:
    append(int.__repr__(obj))


def _write_float(obj: float, append) -> None:
    append('["f",' + _encode_str(repr(obj)) + "]")


def _enum_plan(cls: type) -> _Plan:
    head = '["enum",' + _encode_str(_qualname(cls)) + ","

    def write_enum(obj: enum.Enum, append) -> None:
        append(head)
        _write(obj.value, append)
        append("]")

    return write_enum


def _dataclass_plan(cls: type) -> _Plan:
    head = '["dc",' + _encode_str(_qualname(cls)) + ",{"
    names = sorted(field.name for field in dataclasses.fields(cls))
    fields = tuple(
        (("," if index else "") + _encode_str(name) + ":", name)
        for index, name in enumerate(names)
    )

    def write_dataclass(obj: Any, append) -> None:
        append(head)
        for prefix, name in fields:
            append(prefix)
            value = getattr(obj, name)
            cls = type(value)
            if cls is str:
                append(_encode_str(value))
            else:
                _PLANS[cls](value, append)
        append("}]")

    return write_dataclass


def _write_dict(obj: dict, append) -> None:
    pairs = [(_encode_str(key) if type(key) is str else canonical_json(key),
              value) for key, value in obj.items()]
    if len(pairs) > 1:
        items = sorted(pairs, key=_first_item)
        if len(set(map(_first_item, items))) < len(items):
            items = _sort_ties(pairs)
    else:
        items = pairs
    append('["dict",[')
    separator = "["
    for key, value in items:
        append(separator + key + ",")
        cls = type(value)
        if cls is str:
            append(_encode_str(value))
        else:
            _PLANS[cls](value, append)
        append("]")
        separator = ",["
    append("]]")


def _sort_ties(pairs: list) -> list:
    # Distinct keys with equal canonical text (two NaNs, two eq=False
    # dataclass instances) order by their canonical key, then value.
    return sorted(pairs, key=lambda item: (
        item[0], json.loads(item[0]), canonicalize(item[1])
    ))


def _write_seq(obj: "list | tuple", append) -> None:
    if not obj:
        append('["seq",[]]')
        return
    append('["seq",[')
    separator = ""
    for item in obj:
        append(separator)
        cls = type(item)
        if cls is str:
            append(_encode_str(item))
        else:
            _PLANS[cls](item, append)
        separator = ","
    append("]]")


def _write_set(obj: "set | frozenset", append) -> None:
    texts = sorted(
        _encode_str(item) if type(item) is str else canonical_json(item)
        for item in obj
    )
    append('["set",[' + ",".join(map(_encode_str, texts)) + "]]")


def _write_other(obj: Any, append) -> None:
    if isinstance(obj, type) or callable(obj):
        append('["ref",' + _encode_str(_ref_name(obj)) + "]")
        return
    raise EngineError(
        f"cannot fingerprint {type(obj).__name__!r} value {obj!r}; "
        "cache keys must be built from data, not live objects"
    )


def _ref_name(obj: Any) -> str:
    """Dotted name of a class, module-level function or module builtin.

    A callable is only referenced by name when that name identifies it:
    resolving the function's module and name must give the function
    back.  Lambdas, nested functions, bound methods, partials and
    callable instances would key on a name shared with other objects,
    or on a ``repr`` holding a memory address, so they are refused.
    """
    if isinstance(obj, type):
        return _qualname(obj)
    if isinstance(obj, types.FunctionType):
        module = sys.modules.get(obj.__module__)
        if getattr(module, obj.__qualname__, None) is obj:
            return _qualname(obj)
    elif isinstance(obj, types.BuiltinFunctionType) and isinstance(
        obj.__self__, types.ModuleType
    ):
        return _qualname(obj)
    raise EngineError(
        f"cannot fingerprint callable {obj!r}: its dotted name does not "
        "identify it; cache keys may name only classes, module-level "
        "functions and module builtins"
    )


def _qualname(obj: Any) -> str:
    return f"{obj.__module__}.{obj.__qualname__}"
