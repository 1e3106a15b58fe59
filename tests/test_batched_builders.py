"""The batched operator builders of the Monte Carlo runners against the
per-trial references in ``oracles.py``, and their memory use."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concentrators import montecarlo
from concentrators.montecarlo import (
    _cayley_operators,
    _coset_operators,
    _gram_operators,
    _product_indices,
    run_cayley_trials,
    run_coset_trials,
)
from concentrators.permgroup import Permutation, closure

import oracles


@st.composite
def group_and_subgroups(draw, max_degree=5):
    degree = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=3))
    G = closure(degree, [Permutation(tuple(g)) for g in gens])

    def subgroup():
        picks = draw(st.lists(st.integers(0, len(G) - 1), max_size=2))
        return closure(degree, [G.elements[i] for i in picks])

    return G, subgroup(), subgroup()


@st.composite
def index_arrays(draw, order):
    """(b, k) element indices; row 0 starts with the identity (index 0), one
    row repeats an element, and the last row repeats row 0."""
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, order - 1), min_size=k, max_size=k),
                         min_size=1, max_size=3))
    rows[0][0] = 0
    rows[-1][-1] = rows[-1][0]
    return np.array(rows + [rows[0]])


def images(G):
    return [p.images for p in G.elements]


def multiset(G, row):
    return [G.elements[int(i)].images for i in row]


@settings(max_examples=40, deadline=None)
@given(group_and_subgroups(), st.data())
def test_batched_stacks_match_per_trial_references(groups, data):
    G, H, N = groups
    idx = data.draw(index_arrays(len(G)))
    els, h_els, n_els = images(G), images(H), images(N)
    k = idx.shape[1]

    cayley = _cayley_operators(G).build(idx)
    coset = _coset_operators(G, H).build(idx)
    gram = _gram_operators(G, H, N).build(idx)

    for t, row in enumerate(idx):
        S = multiset(G, row)
        assert np.array_equal(cayley[t], np.array(oracles.cayley_operator(els, S)))

        # every coset graph is regular, which the builder's normalization assumes
        adj = np.array(oracles.coset_adjacency(els, h_els, S), dtype=float)
        sums = set(adj.sum(axis=1).tolist())
        assert len(sums) == 1
        degree = sums.pop()
        assert np.array_equal(coset[t], adj / degree)

        A = np.array(oracles.bicoset_incidence(els, h_els, n_els, S), dtype=float)
        assert np.array_equal(gram[t], A @ A.T / (2.0 * k * k))
    # the repeated draw gives the same operator, bit for bit
    for stack in (cayley, coset, gram):
        assert stack[-1].tobytes() == stack[0].tobytes()


@settings(max_examples=30, deadline=None)
@given(group_and_subgroups(max_degree=4), st.integers(1, 3), st.data())
def test_enumeration_follows_itertools_product(groups, k, data):
    G = groups[0]
    total = len(G) ** k
    assume(total <= 3000)
    rows = _product_indices(len(G), k, 0, total)
    expected = list(itertools.product(G.elements, repeat=k))
    assert [tuple(G.elements[int(i)] for i in row) for row in rows] == expected
    t0 = data.draw(st.integers(0, total - 1))
    t1 = data.draw(st.integers(t0 + 1, total))
    assert np.array_equal(_product_indices(len(G), k, t0, t1), rows[t0:t1])


@settings(max_examples=15, deadline=None)
@given(group_and_subgroups(max_degree=4), st.integers(1, 4), st.integers(0, 2**16),
       st.integers(8, 4 * 8 * 24**2))
def test_split_stacks_match_unsplit(groups, k, seed, chunk_bytes):
    G, H, _ = groups
    assume(len(G) >= 2)  # the bound of a batch needs a nontrivial group
    with_cosets = len(montecarlo.CosetGraphs(G, H)) >= 2

    def results():
        out = [run_cayley_trials(G, k, 0.5, 9, seed),
               montecarlo.enumerate_cayley_tail(G, min(k, 2), 0.5, cap=10**5)]
        if with_cosets:
            out.append(run_coset_trials(G, H, k, 0.5, 9, seed))
        return repr(out)  # repr tells floats apart bit for bit, and NaN equals NaN

    whole = results()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "SOLVE_CHUNK_BYTES", chunk_bytes)
        assert results() == whole


def _peak_mib(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_k(s4):
    # Sizing stacks by operator bytes alone gathers 113 trials' 20000 x 24
    # image rows at once: a 233 MiB peak.  The single-trial build of earlier
    # versions peaked at 15.7 MiB.
    peak = _peak_mib(lambda: run_cayley_trials(s4, k=20000, eps=0.5, trials=20, seed=1))
    assert peak < 32


def test_peak_memory_does_not_grow_with_trials(s4):
    # Earlier versions, building one trial at a time, peaked at 2.9 MiB;
    # drawing the whole batch's index array at once took it to 5.0 MiB.
    peak = _peak_mib(lambda: run_cayley_trials(s4, k=40, eps=0.5, trials=5000, seed=1))
    assert peak < 2.9 + 1
