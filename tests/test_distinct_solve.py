"""Each Monte Carlo stack solves its distinct operators once.

``montecarlo._spectra`` runs over stacks drawn from a small pool of symmetric
matrices, with repeats within and across stacks, against the per-operator
stack solve of ``oracles.solve_stack``.  The pool holds the Z4, k = 2 Cayley
operators, whose mu* is exactly 1/2 and so lies in the tie band of eps 1/2,
random matrices, and matrices with exact eigenvalue ties.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import concentrators as C
from concentrators import montecarlo
from concentrators.montecarlo import cayley_operator

import oracles

N = 4


def _pool():
    z4 = C.cyclic_group(N)
    mats = [cayley_operator(z4, S) for S in itertools.product(z4.elements, repeat=2)]
    rng = np.random.default_rng(25)
    for _ in range(3):
        M = rng.standard_normal((N, N))
        mats.append(M + M.T)
    mats += [np.eye(N), np.zeros((N, N)), np.diag([1.0, -1.0, 0.5, -0.5])]
    return np.array(mats)


POOL = _pool()
# 0.5 puts the Z4 operators in the tie band and 1.0 the identity; each pool
# matrix's own mu* puts that matrix there.
THRESHOLDS = sorted({0.5, 1.0} | {float(np.sort(np.abs(np.linalg.eigvalsh(M)))[-2])
                                  for M in POOL})


def _distinct(mats):
    """The bytes of each distinct matrix, in first-occurrence order."""
    return list(dict.fromkeys(M.tobytes() for M in mats))


def _reference(picks, size, threshold):
    mu, top, arbitrated = [], [], {}
    for t0 in range(0, len(picks), size):
        oracles.solve_stack(POOL[picks[t0 : t0 + size]], threshold, mu, top, arbitrated)
    return mu, top


def _spectra(picks, size, threshold, monkeypatch):
    """``montecarlo._spectra`` over the pool matrices ``picks``, ``size`` to
    a stack; returns (mu, top, the stacks LAPACK saw, the Jacobi inputs)."""
    solved, arbitrated = [], []

    def solve(stack, *args, **kwargs):
        solved.append(np.array(stack))
        return oracles.sym_eigensystems(stack, *args, **kwargs)

    def jacobi(M, *args, **kwargs):
        arbitrated.append(np.array(M))
        return oracles.jacobi_eigensystem(M, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "sym_eigensystems", solve)
    monkeypatch.setattr(montecarlo, "jacobi_eigensystem", jacobi)
    # one draw of one element per trial, so only the operator bytes size a stack
    monkeypatch.setattr(montecarlo, "SOLVE_CHUNK_BYTES", size * 8 * N * N)
    operators = montecarlo._Operators(N, 8, lambda idx: POOL[idx[:, 0]])
    mu, top = montecarlo._spectra(operators, 1, len(picks),
                                  lambda t0, t1: picks[t0:t1, None], threshold)
    return mu, top, solved, arbitrated


_picks = st.one_of(
    st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=60),
    st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=len(POOL), unique=True),
)


def _in_band(M, threshold):
    w, _, _ = oracles.sym_eigensystems(M[None])
    mu = np.sort(np.abs(w[0]))[-2]
    return abs(mu - threshold) <= montecarlo.TIE_BAND * max(np.linalg.norm(M), 1.0)


@settings(max_examples=150, deadline=None)
@given(_picks, st.integers(1, 12), st.sampled_from(THRESHOLDS))
# The 16 ordered pairs of Z4 twice over, in stacks of 8, at their tie eps 1/2:
# every stack repeats operators, and the last two repeat the first two.
@example(list(range(16)) * 2, 8, 0.5)
def test_distinct_solves_match_the_per_operator_reference(picks, size, threshold):
    picks = np.array(picks)
    with pytest.MonkeyPatch.context() as mp:
        mu, top, solved, arbitrated = _spectra(picks, size, threshold, mp)
    want_mu, want_top = _reference(picks, size, threshold)
    # repr tells floats apart bit for bit, signed zeros included
    assert repr(mu) == repr(want_mu)
    assert repr(top) == repr(want_top)
    # LAPACK sees each distinct operator of a stack once, in first-occurrence order
    stacks = [POOL[picks[t0 : t0 + size]] for t0 in range(0, len(picks), size)]
    assert len(solved) == len(stacks)
    for got, stack in zip(solved, stacks):
        assert [M.tobytes() for M in got] == _distinct(stack)
    # Jacobi sees each distinct in-band operator of the batch once, in
    # first-occurrence order
    assert [M.tobytes() for M in arbitrated] == [
        key for key in _distinct(POOL[picks])
        if _in_band(np.frombuffer(key).reshape(N, N), threshold)]
