"""Unit tests for the memory accountant."""

from functools import reduce
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.memory import MemoryAccountant, _fold
from repro.metrics.recorder import TraceRecorder
from repro.sim.clock import VirtualClock


@pytest.fixture
def setup():
    clock = VirtualClock()
    recorder = TraceRecorder()
    return clock, recorder, MemoryAccountant(clock, recorder)


def test_allocate_and_total(setup):
    _, _, memory = setup
    memory.allocate("app", "a", 10.0)
    memory.allocate("app", "b", 5.5)
    assert memory.total_mb("app") == pytest.approx(15.5)


def test_processes_are_independent(setup):
    _, _, memory = setup
    memory.allocate("app1", "a", 10.0)
    memory.allocate("app2", "a", 20.0)
    assert memory.total_mb("app1") == 10.0
    assert memory.total_mb("app2") == 20.0


def test_reallocate_replaces_footprint(setup):
    _, _, memory = setup
    memory.allocate("app", "bitmap", 1.0)
    memory.allocate("app", "bitmap", 4.0)
    assert memory.total_mb("app") == 4.0


def test_free_is_idempotent(setup):
    _, _, memory = setup
    memory.allocate("app", "a", 10.0)
    memory.free("app", "a")
    memory.free("app", "a")
    assert memory.total_mb("app") == 0.0


def test_drop_process_zeroes_ledger(setup):
    _, _, memory = setup
    memory.allocate("app", "a", 10.0)
    memory.allocate("app", "b", 10.0)
    memory.drop_process("app")
    assert memory.total_mb("app") == 0.0
    assert memory.owners("app") == []


def test_every_change_emits_heap_sample(setup):
    clock, recorder, memory = setup
    memory.allocate("app", "a", 10.0)
    clock.advance(5.0)
    memory.free("app", "a")
    samples = recorder.heap_of("app")
    assert [(s.when_ms, s.mb) for s in samples] == [(0.0, 10.0), (5.0, 0.0)]


def test_footprint_query(setup):
    _, _, memory = setup
    memory.allocate("app", "a", 7.0)
    assert memory.footprint_mb("app", "a") == 7.0
    assert memory.footprint_mb("app", "missing") == 0.0


mbs = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=-10, max_value=10),
)


@given(st.lists(mbs, max_size=60))
def test_fold_is_the_exact_left_fold(values):
    ledger = dict(enumerate(values))
    expected = reduce(add, values, 0)
    folded = _fold(ledger)
    assert type(folded) is type(expected)
    assert repr(folded) == repr(expected)


@given(
    st.lists(st.tuples(st.integers(0, 12), mbs), max_size=12),
    st.lists(st.tuples(st.integers(0, 12), mbs), max_size=30),
)
def test_allocate_many_matches_the_per_entry_reference(before, entries):
    """Whether or not an owner repeats or is already in the ledger, one
    ``allocate_many`` leaves the ledger, total and heap samples of the
    per-entry rule: a new owner adds its footprint to the running total,
    a replaced one refolds the whole ledger."""
    recorder = TraceRecorder()
    memory = MemoryAccountant(VirtualClock(), recorder)
    for owner, mb in before:
        memory.allocate("app", owner, mb)
    samples = len(recorder.heap_mb)
    memory.allocate_many("app", entries)

    ledger = {}
    total = 0
    for owner, mb in before:
        replacing = owner in ledger
        ledger[owner] = mb
        total = reduce(add, ledger.values(), 0) if replacing else total + mb
    totals = []
    for owner, mb in entries:
        replacing = owner in ledger
        ledger[owner] = mb
        total = reduce(add, ledger.values(), 0) if replacing else total + mb
        totals.append(total)

    assert memory.owners("app") == list(ledger)
    assert [repr(memory.footprint_mb("app", owner)) for owner in ledger] \
        == [repr(mb) for mb in ledger.values()]
    assert repr(memory.total_mb("app")) == repr(total)
    assert [repr(mb) for mb in recorder.heap_mb[samples:]] == \
        [repr(mb) for mb in totals]
