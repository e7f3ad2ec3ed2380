"""Unit tests for the deterministic RNG."""

import pickle
import random

import pytest

from repro.sim.rng import DeterministicRng


def test_same_seed_same_stream():
    a = DeterministicRng(7)
    b = DeterministicRng(7)
    assert [a.uniform(0, 1) for _ in range(5)] == [
        b.uniform(0, 1) for _ in range(5)
    ]


def test_different_seeds_differ():
    a = DeterministicRng(1)
    b = DeterministicRng(2)
    assert [a.uniform(0, 1) for _ in range(5)] != [
        b.uniform(0, 1) for _ in range(5)
    ]


def test_fork_is_deterministic():
    a = DeterministicRng(7).fork("workload")
    b = DeterministicRng(7).fork("workload")
    assert a.uniform(0, 1) == b.uniform(0, 1)


def test_fork_labels_are_independent():
    base = DeterministicRng(7)
    assert base.fork("x").uniform(0, 1) != base.fork("y").uniform(0, 1)


def test_fork_does_not_disturb_parent():
    a = DeterministicRng(7)
    b = DeterministicRng(7)
    a.fork("child")
    assert a.uniform(0, 1) == b.uniform(0, 1)


def test_jitter_bounds():
    rng = DeterministicRng(3)
    for _ in range(100):
        value = rng.jitter(100.0, 0.1)
        assert 90.0 <= value <= 110.0


def test_randint_bounds():
    rng = DeterministicRng(3)
    values = {rng.randint(1, 3) for _ in range(100)}
    assert values == {1, 2, 3}


def test_shuffle_returns_new_list():
    rng = DeterministicRng(3)
    items = [1, 2, 3, 4, 5]
    shuffled = rng.shuffle(items)
    assert items == [1, 2, 3, 4, 5]
    assert sorted(shuffled) == items


def _draws(rng: DeterministicRng) -> list:
    return [
        rng.uniform(0.0, 10.0),
        rng.randint(1, 1_000_000),
        rng.choice("abcdefgh"),
        rng.sample(range(100), 5),
        rng.shuffle(list(range(10))),
        rng.gauss(0.0, 1.0),
        rng.gauss(5.0, 2.0),
        rng.jitter(100.0, 0.2),
    ]


@pytest.mark.parametrize("pending_gauss", [False, True])
def test_pickle_continues_the_identical_stream(pending_gauss):
    rng = DeterministicRng(11)
    _draws(rng)
    if pending_gauss:
        rng.gauss(0.0, 1.0)  # gauss draws in pairs: one value is pending
    assert (rng._random.getstate()[2] is not None) == pending_gauss
    copy = pickle.loads(pickle.dumps(rng))
    assert copy.seed == rng.seed
    assert copy._random.getstate() == rng._random.getstate()
    for _ in range(20):
        assert _draws(copy) == _draws(rng)
    assert copy.fork("child").uniform(0, 1) == rng.fork("child").uniform(0, 1)


def test_pickle_is_smaller_than_a_stock_random():
    rng = DeterministicRng(11)
    _draws(rng)
    stock = random.Random()
    stock.setstate(rng._random.getstate())
    protocol = pickle.HIGHEST_PROTOCOL
    assert len(pickle.dumps(rng, protocol)) < len(pickle.dumps(stock, protocol))
