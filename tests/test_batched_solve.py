"""The certified batched LAPACK solve and the Jacobi tie arbiter of the Monte Carlo runners."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import concentrators as C
from concentrators import montecarlo
from concentrators.montecarlo import (
    _normalized_coset_matrix,
    _sample_indices,
    cayley_operator,
    enumerate_cayley_tail,
    enumerate_coset_tail,
    run_bicoset_trials,
    run_cayley_trials,
    run_coset_trials,
)
from concentrators.permgroup import closure, from_cycles
from concentrators.spectral import SpectralError, jacobi_eigensystem, sym_eigensystems


def _symmetric_stack(rng, b, n):
    M = rng.standard_normal((b, n, n))
    return M + np.swapaxes(M, 1, 2)


def test_sym_eigensystems_certificate_and_order():
    rng = np.random.default_rng(41)
    stack = _symmetric_stack(rng, 7, 9)
    w, V, residual = sym_eigensystems(stack)
    assert w.shape == (7, 9) and V.shape == (7, 9, 9) and residual.shape == (7,)
    assert np.all(np.diff(w, axis=1) <= 0)
    for M, wi, Vi, ri in zip(stack, w, V, residual):
        assert np.linalg.norm(Vi @ np.diag(wi) @ Vi.T - M) <= 1e-12 * np.linalg.norm(M)
        assert ri == pytest.approx(np.linalg.norm(M @ Vi - Vi * wi), rel=1e-6, abs=1e-15)
        wj, _, _ = jacobi_eigensystem(M)
        assert np.max(np.abs(wi - wj)) <= 1e-12 * np.linalg.norm(M)


def test_sym_eigensystems_stack_position_does_not_change_results():
    rng = np.random.default_rng(42)
    stack = _symmetric_stack(rng, 5, 6)
    w_all, _, _ = sym_eigensystems(stack)
    for i in range(len(stack)):
        w_one, _, _ = sym_eigensystems(stack[i : i + 1])
        assert np.array_equal(w_one[0], w_all[i])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_rejected(bad):
    stack = np.stack([np.eye(3), np.eye(3)])
    stack[1, 0, 2] = stack[1, 2, 0] = bad
    with pytest.raises(SpectralError, match="non-finite"):
        sym_eigensystems(stack)
    with pytest.raises(SpectralError, match="non-finite"):
        C.sym_eigenvalues(stack[1])


def test_non_symmetric_matrix_in_stack_rejected():
    stack = np.stack([np.eye(3), np.eye(3), np.eye(3)])
    stack[2, 0, 1] = 0.5
    with pytest.raises(SpectralError, match="not symmetric"):
        sym_eigensystems(stack)


def test_failed_certificate_raises():
    rng = np.random.default_rng(43)
    with pytest.raises(SpectralError, match="certificate"):
        sym_eigensystems(_symmetric_stack(rng, 2, 5), tol=1e-30)


def test_sym_eigensystems_shape_contract():
    with pytest.raises(SpectralError):
        sym_eigensystems(np.eye(3))
    with pytest.raises(SpectralError):
        sym_eigensystems(np.zeros((2, 3, 4)))


def _jacobi_mu_top(M):
    w, _, _ = jacobi_eigensystem(M)
    by_abs = np.sort(np.abs(w))
    return float(by_abs[-2]), float(by_abs[-1])


def _check_against_jacobi(batch, G, build):
    assert len(batch.mu_values) == batch.trials
    expected_violating = []
    for t, mu in enumerate(batch.mu_values):
        S = tuple(G.elements[i] for i in _sample_indices(len(G), batch.k, batch.seed, t))
        mu_j, top_j = _jacobi_mu_top(build(S))
        assert abs(mu - mu_j) <= 1e-12, t
        if batch.top_values:
            assert abs(batch.top_values[t] - top_j) <= 1e-12, t
        if mu_j > batch.threshold:
            expected_violating.append(t)
    assert batch.violating_trials == tuple(expected_violating)


def test_thm14_batch_matches_per_trial_jacobi(s4):
    batch = run_cayley_trials(s4, k=40, eps=0.5, trials=16, seed=2024)
    _check_against_jacobi(batch, s4, lambda S: cayley_operator(s4, S))


def test_thm15_batch_matches_per_trial_jacobi(s4):
    swap4 = closure(4, [from_cycles([(0, 1)], 4)], name="swap4")
    # seed 35 draws a coset graph with mu* = 0.5 = eps exactly, which an
    # unarbitrated LAPACK solve puts on the other side of the threshold
    batch = run_coset_trials(s4, swap4, k=12, eps=0.5, trials=80, seed=35)
    _check_against_jacobi(batch, s4, lambda S: _normalized_coset_matrix(s4, swap4, S)[0])


def test_thm18_batch_matches_per_trial_jacobi(s3, swap01, a3):
    batch = run_bicoset_trials(s3, swap01, a3, k=6, eps=0.4, trials=200, seed=11)

    def gram(S):
        A = C.bicoset_graph(s3, swap01, a3, S).inc.astype(float)
        return A @ A.T / (2.0 * 6 * 6)

    _check_against_jacobi(batch, s3, gram)


def test_small_chunks_give_a_bitwise_prefix(s3, swap01, a3, monkeypatch):
    whole = run_bicoset_trials(s3, swap01, a3, k=6, eps=0.4, trials=50, seed=5)
    # 3x3 operators, so four trials per stack: 50 trials cross 12 boundaries
    monkeypatch.setattr(montecarlo, "SOLVE_CHUNK_BYTES", 4 * 3 * 3 * 8)
    short = run_bicoset_trials(s3, swap01, a3, k=6, eps=0.4, trials=7, seed=5)
    chunked = run_bicoset_trials(s3, swap01, a3, k=6, eps=0.4, trials=50, seed=5)
    assert short.mu_values == chunked.mu_values[:7]
    assert short.top_values == chunked.top_values[:7]
    assert chunked.mu_values == whole.mu_values
    assert chunked.top_values == whole.top_values
    assert chunked.violating_trials == whole.violating_trials


def test_chunk_boundary_prefix_cayley(s4, monkeypatch):
    monkeypatch.setattr(montecarlo, "SOLVE_CHUNK_BYTES", 3 * 24 * 24 * 8)
    short = run_cayley_trials(s4, k=40, eps=0.5, trials=3, seed=9)
    longer = run_cayley_trials(s4, k=40, eps=0.5, trials=8, seed=9)
    assert short.mu_values == longer.mu_values[:3]


def _counting_arbiter(monkeypatch):
    calls = []

    def counting(M, *args, **kwargs):
        calls.append(np.array(M))
        return jacobi_eigensystem(M, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "jacobi_eigensystem", counting)
    return calls


def _in_band(M, mu, threshold):
    return abs(mu - threshold) <= montecarlo.TIE_BAND * max(np.linalg.norm(M), 1.0)


def _distinct(mats):
    """The matrices without repeats, each at its first occurrence."""
    out = []
    for M in mats:
        if not any(np.array_equal(M, D) for D in out):
            out.append(M)
    return out


def test_arbiter_solves_only_near_threshold_trials(s4, monkeypatch):
    calls = _counting_arbiter(monkeypatch)
    batch = run_cayley_trials(s4, k=40, eps=0.5, trials=20, seed=3)
    near = []
    for t, mu in enumerate(batch.mu_values):
        S = tuple(s4.elements[i] for i in _sample_indices(len(s4), 40, 3, t))
        M = cayley_operator(s4, S)
        if _in_band(M, mu, batch.threshold):
            near.append(M)
    # one Jacobi solve per distinct in-band operator, in first-occurrence order
    near = _distinct(near)
    assert len(calls) == len(near)
    assert all(np.array_equal(a, b) for a, b in zip(calls, near))


def test_exact_ties_take_the_jacobi_verdict(monkeypatch):
    # Z4, k=2: some draws have mu* = 0.5 = eps exactly.  Jacobi's rounding
    # counts them above eps, and only the arbitrated trials may decide that;
    # draws that give the same operator share one Jacobi solve.
    z4 = C.cyclic_group(4)
    calls = _counting_arbiter(monkeypatch)
    tail, total = enumerate_cayley_tail(z4, 2, 0.5)
    assert (tail, total) == (1.0, 16)
    ties = [M for M in (cayley_operator(z4, S) for S in itertools.product(z4.elements, repeat=2))
            if _in_band(M, _jacobi_mu_top(M)[0], 0.5)]
    ties = _distinct(ties)
    assert 0 < len(calls) == len(ties) < total
    assert all(np.array_equal(a, b) for a, b in zip(calls, ties))


EXACT_TAILS = {
    "Z2": ("1", "1/2", "1/4"),
    "Z3": ("1/3", "1/9", "1/27"),
    "Z4": ("1", "1", "7/16"),
    "Z5": ("1", "17/25", "53/125"),
    "S3": ("1", "1", "8/9"),
}


@pytest.mark.parametrize("name", sorted(EXACT_TAILS))
def test_exact_tails_pinned(name):
    G = C.cyclic_group(int(name[1:])) if name[0] == "Z" else C.symmetric_group(int(name[1:]))
    for k, expected in zip((1, 2, 3), EXACT_TAILS[name]):
        tail, total = enumerate_cayley_tail(G, k, 0.5)
        assert total == len(G) ** k
        assert Fraction(tail).limit_denominator(total) == Fraction(expected), (name, k)


def test_exact_coset_tail_pinned(s3, a3):
    assert enumerate_coset_tail(s3, a3, 2, 0.6) == (0.5, 36)
