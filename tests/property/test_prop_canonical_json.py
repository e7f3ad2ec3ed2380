"""Property tests: the one-pass canonical writer against the tree builder.

``repro.engine.fingerprint.canonical_json`` writes the canonical JSON
text in one pass.  The recursive ``canonicalize`` + ``json.dumps``
pipeline it replaced is kept below as the reference: over random nested
values the writer's text must be byte-identical to the reference's,
``canonicalize`` must equal the reference structure (up to what a JSON
round trip cannot keep: a surrogate pair spelt as two code points), and
anything the reference refuses the writer refuses with the same error.
"""

import dataclasses
import enum
import hashlib
import json
import math
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.fingerprint import canonical_json, canonicalize, fingerprint
from repro.errors import EngineError


# ----------------------------------------------------------------------
# the reference: the recursive builder and its sort key, as they were
# ----------------------------------------------------------------------
def reference_canonicalize(obj: Any) -> Any:
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        return ["f", repr(obj)]
    if isinstance(obj, enum.Enum):
        return ["enum", _reference_qualname(type(obj)),
                reference_canonicalize(obj.value)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            field.name: reference_canonicalize(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        return ["dc", _reference_qualname(type(obj)), fields]
    if isinstance(obj, dict):
        pairs = sorted(
            (_reference_sort_key(key), reference_canonicalize(key),
             reference_canonicalize(value))
            for key, value in obj.items()
        )
        return ["dict", [[key, value] for _, key, value in pairs]]
    if isinstance(obj, (list, tuple)):
        return ["seq", [reference_canonicalize(item) for item in obj]]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted(_reference_sort_key(item) for item in obj)]
    if isinstance(obj, type) or callable(obj):
        return ["ref", _reference_qualname(obj)]
    raise EngineError(
        f"cannot fingerprint {type(obj).__name__!r} value {obj!r}; "
        "cache keys must be built from data, not live objects"
    )


def reference_json(obj: Any) -> str:
    return json.dumps(reference_canonicalize(obj), sort_keys=True,
                      separators=(",", ":"))


def _reference_qualname(obj: Any) -> str:
    module = getattr(obj, "__module__", "")
    name = getattr(obj, "__qualname__", getattr(obj, "__name__", repr(obj)))
    return f"{module}.{name}"


def _reference_sort_key(obj: Any) -> str:
    return reference_json(obj)


# ----------------------------------------------------------------------
# module-level value types
# ----------------------------------------------------------------------
class Colour(enum.Enum):
    RED = 1
    BLUE = "blue"
    GREEN = (2, 3)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10


class Tone(str, enum.Enum):
    WARM = "warm"
    COLD = "cöld"


@dataclasses.dataclass(frozen=True)
class Point:
    x: Any
    y: Any


@dataclasses.dataclass(frozen=True)
class Point3(Point):
    z: Any = 0


@dataclasses.dataclass
class Box:
    label: Any
    items: Any = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Tag:
    name: Any


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


@dataclasses.dataclass(eq=False)
class Handle:
    """Hashed by identity: distinct keys can share one canonical text."""

    ref: Any


class AttrDict(dict):
    pass


class Path(list):
    pass


def module_function(value):
    return value


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324]

texts = st.one_of(
    st.text(max_size=8),
    st.text(st.characters(min_codepoint=0x80, max_codepoint=0x2FFFF),
            max_size=6),
    st.lists(st.integers(0xD800, 0xDFFF).map(chr), min_size=1,
             max_size=3).map("".join),
)
ints = st.one_of(st.integers(-1000, 1000),
                 st.integers(-(2 ** 200), 2 ** 200))
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from(SPECIAL_FLOATS))
members = st.sampled_from([*Colour, *Level, *Tone])
refs = st.sampled_from([Point, Colour, Level, AttrDict, int, dict,
                        module_function, len, math.sqrt])
atoms = st.one_of(st.none(), st.booleans(), ints, floats, texts, members)

hashables = st.recursive(
    st.one_of(st.none(), st.booleans(), ints, floats, texts, members,
              st.just(Empty())),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=3),
        st.builds(Point, inner, inner),
    ),
    max_leaves=6,
)
keys = st.one_of(texts, ints, members,
                 st.tuples(st.one_of(texts, ints, members),
                           st.one_of(texts, ints)))


def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(Path),
        st.dictionaries(keys, inner, max_size=4),
        st.dictionaries(keys, inner, max_size=4).map(AttrDict),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
        st.builds(Point, inner, inner),
        st.builds(Point3, inner, inner, inner),
        st.builds(Box, inner, st.lists(inner, max_size=3)),
        st.builds(Tag, inner),
        st.just(Empty()),
    )


values = st.recursive(st.one_of(atoms, refs), _containers, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(values)
def test_writer_matches_reference(value):
    expected = reference_json(value)
    text = canonical_json(value)
    assert text == expected
    assert fingerprint(value) == hashlib.sha256(
        expected.encode("utf-8")).hexdigest()
    reference = reference_canonicalize(value)
    structure = canonicalize(value)
    assert structure == json.loads(expected)
    if json.loads(expected) == reference:
        assert structure == reference
    else:
        # Only a high+low surrogate pair of separate code points does
        # not survive JSON: it decodes as the one astral character.
        assert "\\ud" in expected
        assert _dumps(structure) == _dumps(reference)


def _dumps(structure: Any) -> str:
    return json.dumps(structure, sort_keys=True, separators=(",", ":"))


def test_surrogate_pair_round_trips_to_the_same_text():
    value = ["\ud800\udc00", "\udc00\ud800"]
    assert canonical_json(value) == reference_json(value)
    assert canonicalize(value) == ["seq", ["\U00010000", "\udc00\ud800"]]
    assert _dumps(canonicalize(value)) == reference_json(value)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(keys, atoms, min_size=2, max_size=6))
def test_dict_pairs_sort_like_reference(value):
    assert canonical_json(value) == reference_json(value)


@pytest.mark.parametrize("value", [
    {(math.nan,): "b", (float("nan"),): "a"},
    {Handle(1): [2], Handle(1): [1], Handle(0): [3]},
])
def test_keys_with_equal_text_order_like_reference(value):
    assert len({canonical_json(key) for key in value}) < len(value)
    assert canonical_json(value) == reference_json(value)


def test_keys_with_equal_text_and_incomparable_values_raise_like_reference():
    value = {(math.nan,): 1, (float("nan"),): "a"}
    with pytest.raises(TypeError):
        reference_json(value)
    with pytest.raises(TypeError):
        canonical_json(value)


@pytest.mark.parametrize("wrap", [
    lambda obj: obj,
    lambda obj: [1, obj],
    lambda obj: {"k": obj},
    lambda obj: Box("b", [obj]),
])
def test_live_object_raises_like_reference(wrap):
    obj = object()
    with pytest.raises(EngineError) as expected:
        reference_json(wrap(obj))
    with pytest.raises(EngineError) as got:
        canonical_json(wrap(obj))
    assert str(got.value) == str(expected.value)
