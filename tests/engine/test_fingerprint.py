"""Canonical fingerprints: stable, distinct, and total over our inputs."""

import dataclasses
import enum
import functools
import math

import pytest

from repro.apps.appset27 import build_appset27
from repro.apps.top100 import build_top100
from repro.engine.fingerprint import canonicalize, fingerprint
from repro.errors import EngineError
from repro.sim.costs import DEFAULT_COSTS, CostModel


class Colour(enum.Enum):
    RED = 1
    BLUE = 2


@dataclasses.dataclass(frozen=True)
class Point:
    x: float
    y: float


def module_level(value):
    return value


class Adder:
    def __init__(self, amount):
        self.amount = amount

    def add(self, value):
        return value + self.amount

    def __call__(self, value):
        return self.add(value)


class TestStability:
    def test_same_value_same_fingerprint(self):
        assert fingerprint([1, "a", None]) == fingerprint([1, "a", None])

    def test_rebuilt_corpus_fingerprints_identically(self):
        first = build_top100()
        second = build_top100()
        assert first is not second
        assert fingerprint(first[0]) == fingerprint(second[0])

    def test_dict_key_order_is_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_set_order_is_irrelevant(self):
        assert fingerprint({3, 1, 2}) == fingerprint({2, 3, 1})

    def test_cost_model_fingerprints_stably(self):
        assert fingerprint(DEFAULT_COSTS) == fingerprint(CostModel())


class TestDistinctness:
    def test_different_apps_differ(self):
        apps = build_appset27()
        prints = {fingerprint(app) for app in apps}
        assert len(prints) == len(apps)

    def test_tuple_and_flat_differ(self):
        assert fingerprint([1, 2]) != fingerprint([[1, 2]])

    def test_int_vs_float_differ(self):
        assert fingerprint(1) != fingerprint(1.0)

    def test_bool_vs_int_differ(self):
        assert fingerprint(True) != fingerprint(1)

    def test_string_vs_number_differ(self):
        assert fingerprint("1") != fingerprint(1)

    def test_changed_dataclass_field_differs(self):
        assert fingerprint(Point(1.0, 2.0)) != fingerprint(Point(1.0, 2.5))

    def test_changed_cost_constant_differs(self):
        tweaked = dataclasses.replace(
            DEFAULT_COSTS,
            inflate_per_view_ms=DEFAULT_COSTS.inflate_per_view_ms + 0.1,
        )
        assert fingerprint(tweaked) != fingerprint(DEFAULT_COSTS)


class TestEncodingForms:
    def test_enum_encodes_by_identity_and_value(self):
        encoded = canonicalize(Colour.RED)
        assert encoded[0] == "enum"
        assert "Colour" in encoded[1]

    def test_enums_of_equal_value_but_different_type_differ(self):
        class Other(enum.Enum):
            RED = 1

        assert fingerprint(Colour.RED) != fingerprint(Other.RED)

    def test_float_round_trips_exactly(self):
        value = 0.1 + 0.2  # not representable as 0.3
        assert canonicalize(value) == ["f", repr(value)]

    def test_class_reference_by_dotted_name(self):
        tag, name = canonicalize(Point)
        assert tag == "ref"
        assert name.endswith("Point")

    def test_non_string_dict_keys_work(self):
        assert fingerprint({Colour.RED: 1}) != fingerprint({Colour.BLUE: 1})

    def test_unfingerprintable_object_raises(self):
        with pytest.raises(EngineError):
            fingerprint(object())


class TestCallableRefs:
    """Callables are keyed by dotted name only where the name is theirs."""

    @pytest.mark.parametrize("obj", [Point, Colour, int, module_level, len,
                                     math.sqrt])
    def test_named_callables_encode_as_refs(self, obj):
        tag, name = canonicalize(obj)
        assert tag == "ref"
        assert name == f"{obj.__module__}.{obj.__qualname__}"

    def _refuses(self, obj):
        with pytest.raises(EngineError, match="does not identify it"):
            fingerprint(obj)
        with pytest.raises(EngineError, match="does not identify it"):
            fingerprint({"factory": [obj]})

    def test_lambda_is_refused(self):
        self._refuses(lambda value: value)

    def test_nested_function_is_refused(self):
        def nested(value):
            return value

        self._refuses(nested)

    def test_bound_method_is_refused(self):
        # Two instances' bound methods share one name but not one state.
        self._refuses(Adder(1).add)

    def test_builtin_bound_method_is_refused(self):
        self._refuses([].append)

    def test_partial_is_refused(self):
        self._refuses(functools.partial(module_level, 1))

    def test_callable_instance_is_refused(self):
        self._refuses(Adder(2))

    def test_unbound_method_is_refused(self):
        self._refuses(Adder.add)

    def test_shadowed_function_is_refused(self):
        # Only the object the module attribute names owns that name.
        original = module_level

        @functools.wraps(original)
        def wrapper(value):
            return original(value)

        self._refuses(wrapper)
