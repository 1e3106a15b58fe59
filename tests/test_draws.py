"""``permgroup.seeded_indices`` against the per-trial generator it replaces.

Row t of a stack must be exactly ``seeded_rng(seed, t).integers(0, order,
size=k)``.  numpy may change a ``Generator`` stream between releases (NEP 19),
so these tests are what notices if the one-pass draws stop matching it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concentrators import permgroup
from concentrators.montecarlo import MonteCarloError, run_cayley_trials
from concentrators.permgroup import GroupError, seeded_indices, seeded_rng

# Seeds of one to four or more SeedSequence words; above 2^96 the entropy
# (seed words plus the trial word) is longer than the 4-word pool.
SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**96 - 1),
    st.integers(2**96 + 1, 2**200),
)
# 2^31 + 1 makes Lemire's method reject about half the draws.
ORDERS = st.one_of(st.sampled_from([1, 2, 3, 24, 95040, 2**31 + 1]), st.integers(1, 2**32 - 1))


def _reference(seed, t0, t1, order, k):
    rows = [seeded_rng(seed, t).integers(0, order, size=k) for t in range(t0, t1)]
    return np.array(rows, dtype=np.int64).reshape(t1 - t0, k)


def _count_generators(monkeypatch):
    """Record the trial of every ``seeded_rng`` call ``seeded_indices`` makes."""
    calls = []

    def counting(*words):
        calls.append(words[-1])
        return seeded_rng(*words)

    monkeypatch.setattr(permgroup, "seeded_rng", counting)
    return calls


@settings(max_examples=300, deadline=None)
@given(SEEDS, ORDERS, st.integers(1, 64), st.integers(0, 10**6), st.integers(0, 9))
def test_rows_equal_the_per_trial_draws(seed, order, k, t0, b):
    got = seeded_indices(seed, t0, t0 + b, order, k)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _reference(seed, t0, t0 + b, order, k))


@settings(max_examples=60, deadline=None)
@given(SEEDS, ORDERS, st.integers(1, 33), st.integers(0, 1000), st.integers(1, 40), st.data())
def test_any_split_of_a_range_gives_the_same_rows(seed, order, k, t0, b, data):
    cuts = sorted(data.draw(st.lists(st.integers(t0, t0 + b), max_size=4)))
    bounds = [t0, *cuts, t0 + b]
    parts = [seeded_indices(seed, lo, hi, order, k) for lo, hi in zip(bounds, bounds[1:])]
    np.testing.assert_array_equal(np.concatenate(parts), seeded_indices(seed, t0, t0 + b, order, k))


@pytest.mark.parametrize("order", [2**32, 2**32 + 1, 2**40])
def test_orders_past_32_bits_use_the_generator(monkeypatch, order):
    calls = _count_generators(monkeypatch)
    got = seeded_indices(7, 3, 6, order, 5)
    assert calls == [3, 4, 5]
    np.testing.assert_array_equal(got, _reference(7, 3, 6, order, 5))


def test_trials_past_32_bits_use_the_generator(monkeypatch):
    # Trial 2^32 is a two-word entropy entry, so the whole stack falls back.
    calls = _count_generators(monkeypatch)
    t0, t1 = 2**32 - 2, 2**32 + 2
    got = seeded_indices(2**70, t0, t1, 24, 7)
    assert calls == list(range(t0, t1))
    np.testing.assert_array_equal(got, _reference(2**70, t0, t1, 24, 7))


def test_last_32_bit_trial_is_drawn_in_one_pass(monkeypatch):
    calls = _count_generators(monkeypatch)
    got = seeded_indices(5, 2**32 - 3, 2**32, 95040, 9)
    assert calls == []
    np.testing.assert_array_equal(got, _reference(5, 2**32 - 3, 2**32, 95040, 9))


def test_only_rejected_rows_are_redrawn(monkeypatch):
    calls = _count_generators(monkeypatch)
    order, k = 2**31 + 1, 3
    got = seeded_indices(11, 0, 40, order, k)
    np.testing.assert_array_equal(got, _reference(11, 0, 40, order, k))
    # About 7 in 8 rows hold a rejected draw; the others come from one pass.
    assert 0 < len(calls) < 40


def test_small_orders_are_drawn_without_the_generator(monkeypatch):
    calls = _count_generators(monkeypatch)
    for order in (1, 2, 3, 24, 95040):
        seeded_indices(2024, 0, 200, order, 13)
    assert calls == []


def test_empty_stacks_keep_their_shape():
    assert seeded_indices(1, 5, 5, 24, 3).shape == (0, 3)
    assert seeded_indices(1, 0, 4, 24, 0).shape == (4, 0)


def test_negative_seed_or_range_is_refused(s3):
    with pytest.raises(GroupError):
        seeded_indices(-1, 0, 2, 6, 3)
    with pytest.raises(GroupError):
        seeded_indices(1, 3, 2, 6, 3)
    with pytest.raises(MonteCarloError, match="seed"):
        run_cayley_trials(s3, k=3, eps=0.5, trials=2, seed=-1)
