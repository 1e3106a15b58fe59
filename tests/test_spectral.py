import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concentrators as C
import oracles
from concentrators import montecarlo, spectral
from concentrators.graphs import CosetGraphs, cayley_counts
from concentrators.permgroup import closure, from_cycles
from concentrators.spectral import (
    SpectralError,
    jacobi_eigensystem,
    laplacian_gap,
    magnifier_gap_bound,
    magnifier_gap_check,
    mu_star,
    ramanujan_check,
    sym_eigenvalues,
    tanner_bound,
)


def cycle_adjacency(n):
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        a[i, (i + 1) % n] = 1
        a[(i + 1) % n, i] = 1
    return a


def complete_adjacency(n):
    return np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)


def test_diagonal_matrix():
    rep = sym_eigenvalues(np.diag([3.0, -1.0, 7.0]))
    assert rep.eigenvalues == (7.0, 3.0, -1.0)


def test_cycle4_spectrum():
    rep = sym_eigenvalues(cycle_adjacency(4).astype(float))
    assert np.allclose(rep.eigenvalues, [2.0, 0.0, 0.0, -2.0], atol=1e-9)
    # characteristic-polynomial oracle, independent of the Jacobi path
    A = cycle_adjacency(4).astype(float)
    for lam in rep.eigenvalues:
        assert abs(np.linalg.det(lam * np.eye(4) - A)) < 1e-8


def test_reconstruction_contract():
    rng = np.random.default_rng(8)
    M = rng.normal(size=(8, 8))
    M = M + M.T
    w, V, residual = jacobi_eigensystem(M)
    assert np.linalg.norm(V @ np.diag(w) @ V.T - M) <= 1e-9
    assert residual <= 1e-10 * np.linalg.norm(M)


def _same_as_reference(M):
    """The library's Jacobi solve equals the numpy-row reference to the bit."""
    w, V, residual = jacobi_eigensystem(M)
    w_ref, V_ref, residual_ref = oracles.jacobi_eigensystem(M)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(V, V_ref)
    assert residual == residual_ref
    assert w.tobytes() == w_ref.tobytes()
    assert np.ascontiguousarray(V).tobytes() == np.ascontiguousarray(V_ref).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2**32 - 1), st.booleans())
def test_jacobi_matches_reference_on_random_matrices(n, seed, integer):
    M = np.random.default_rng(seed).normal(size=(n, n))
    M = M + M.T
    _same_as_reference(np.round(M) if integer else M)


def test_jacobi_matches_reference_on_zero_matrices():
    for n in (1, 2, 5):
        _same_as_reference(np.zeros((n, n)))


_GROUPS = {
    "S3": C.symmetric_group(3),
    "S4": C.symmetric_group(4),
    "Z4": C.cyclic_group(4),
    "Z6": C.cyclic_group(6),
}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_GROUPS)), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_jacobi_matches_reference_on_cayley_operators(name, k, seed):
    # Symmetrized Cayley counts: integer entries and repeated eigenvalues.
    G = _GROUPS[name]
    idx = np.random.default_rng(seed).integers(0, len(G), size=(1, k))
    R = cayley_counts(G, idx)[0]
    _same_as_reference(R + R.T)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_jacobi_matches_reference_on_coset_operators(k, seed):
    S4 = _GROUPS["S4"]
    swap = closure(4, [from_cycles([(0, 1)], 4)])
    idx = np.random.default_rng(seed).integers(0, len(S4), size=(1, k))
    _same_as_reference(CosetGraphs(S4, swap).adjacency(idx)[0])


def _arbitrated(monkeypatch, run):
    """The operators ``run()`` sends to the Jacobi arbiter."""
    seen = []

    def spy(M):
        seen.append(np.array(M))
        return jacobi_eigensystem(M)

    monkeypatch.setattr(montecarlo, "jacobi_eigensystem", spy)
    run()
    return seen


def test_jacobi_matches_reference_on_tie_operators(monkeypatch):
    # The in-band operators of the montecarlo-thm15-ties and
    # montecarlo-thm14-z4-ties golden cases.
    S4, Z4 = _GROUPS["S4"], _GROUPS["Z4"]
    swap = closure(4, [from_cycles([(0, 1)], 4)])
    thm15 = _arbitrated(monkeypatch, lambda: montecarlo.run_coset_trials(
        S4, swap, k=12, eps=0.5, trials=10, seed=3))
    z4 = _arbitrated(monkeypatch, lambda: montecarlo.run_cayley_trials(
        Z4, k=2, eps=0.5, trials=8, seed=1))
    assert [M.shape for M in thm15] == [(12, 12)]
    assert len(z4) == 2
    for M in thm15 + z4:
        _same_as_reference(M)


def test_jacobi_sweep_cap_error(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 1)
    M = np.random.default_rng(4).normal(size=(8, 8))
    with pytest.raises(SpectralError, match=r"^Jacobi iteration did not converge within 1 "
                                            r"sweeps \(off-norm .* > .*\)$"):
        jacobi_eigensystem(M + M.T)


def test_eigensolver_identities_seeded_sizes():
    rng = np.random.default_rng(17)
    for n in (2, 3, 5, 12, 31, 60):
        M = rng.normal(size=(n, n))
        M = M + M.T
        rep = sym_eigenvalues(M)
        norm = np.linalg.norm(M)
        assert abs(sum(rep.eigenvalues) - np.trace(M)) <= 1e-8 * norm
        assert abs(sum(x * x for x in rep.eigenvalues) - norm**2) <= 1e-8 * norm**2


def test_non_symmetric_rejected():
    with pytest.raises(SpectralError):
        sym_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_mu_star_k4():
    assert mu_star(complete_adjacency(4) / 3.0) == pytest.approx(1 / 3, abs=1e-10)


def test_mu_star_c5_uses_absolute_value():
    # second-largest |eigenvalue| is |2 cos(4 pi / 5)| / 2, not the second-largest value
    assert mu_star(cycle_adjacency(5) / 2.0) == pytest.approx(
        abs(2 * math.cos(4 * math.pi / 5)) / 2, abs=1e-9
    )


def test_mu_star_identity():
    assert mu_star(np.eye(3)) == pytest.approx(1.0)


def test_mu_star_dimension_guard():
    with pytest.raises(SpectralError):
        mu_star(np.array([[2.0]]))


def test_mu_star_permutation_invariant():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(7, 7))
    M = M + M.T
    perm = rng.permutation(7)
    assert mu_star(M) == pytest.approx(mu_star(M[np.ix_(perm, perm)]), abs=1e-9)


def test_laplacian_gap_k3():
    assert laplacian_gap(C.Graph(complete_adjacency(3))) == pytest.approx(3.0, abs=1e-9)


def test_laplacian_gap_single_edge():
    assert laplacian_gap(C.Graph(np.array([[0, 1], [1, 0]]))) == pytest.approx(2.0)


def test_laplacian_gap_disconnected():
    adj = np.zeros((4, 4), dtype=np.int64)
    adj[0, 1] = adj[1, 0] = 1
    adj[2, 3] = adj[3, 2] = 1
    assert laplacian_gap(C.Graph(adj)) == pytest.approx(0.0, abs=1e-9)


def test_laplacian_rejects_loops():
    adj = np.array([[1, 1], [1, 0]])
    with pytest.raises(SpectralError):
        laplacian_gap(C.Graph(adj))


def test_tanner_bound_d9_blocks():
    # 12 blocks of size 3 against 9 points of replication 4; lambda2 = 3
    assert tanner_bound(12, 9, 3, 4, 3.0, 0.75) == pytest.approx(9 / 9.75, abs=1e-12)


def test_tanner_bound_gq22():
    assert tanner_bound(15, 15, 3, 3, 4.0, 1 / 3) == pytest.approx(27 / 17, abs=1e-12)


def test_tanner_bound_lambda2_zero():
    assert tanner_bound(10, 5, 2, 4, 0.0, 0.5) == pytest.approx(2 / (0.5 * 4))


def test_tanner_bound_validation():
    with pytest.raises(SpectralError):
        tanner_bound(12, 9, 3, 4, 3.0, 0.8)  # alpha > m/n
    with pytest.raises(SpectralError):
        tanner_bound(12, 9, 3, 4, 12.0, 0.5)  # lambda2 >= k r
    with pytest.raises(SpectralError):
        tanner_bound(12, 9, 3, 5, 3.0, 0.5)  # inconsistent degrees


def test_tanner_bound_monotone():
    alphas = np.linspace(0.05, 0.75, 8)
    vals = [tanner_bound(12, 9, 3, 4, 3.0, a) for a in alphas]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    lambdas = np.linspace(0.0, 11.0, 8)
    vals = [tanner_bound(12, 9, 3, 4, l2, 0.5) for l2 in lambdas]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_ramanujan_examples():
    assert ramanujan_check(4, 3, math.sqrt(3))
    assert ramanujan_check(253, 8, math.sqrt(176))
    assert ramanujan_check(1, 1, 0.0)  # boundary
    assert not ramanujan_check(3, 3, 3.0)


def test_magnifier_gap_bound_examples():
    assert magnifier_gap_bound(0.0) == 0.0
    assert magnifier_gap_check(0.0, 0.0)
    assert magnifier_gap_check(2.0, 3.0)  # triangle: eps=2, gap=3 >= 1/3
    gap_c6 = 2 - 2 * math.cos(math.pi / 3)
    assert magnifier_gap_check(2 / 3, gap_c6)
    assert magnifier_gap_bound(2 / 3) == pytest.approx((4 / 9) / (4 + 8 / 9))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10**6))
def test_gram_spectra_share_nonzeros(n, seed):
    # nonzero eigenvalues of A A^T and A^T A agree as multisets
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, size=(n, n + 3)).astype(float)
    left = [x for x in sym_eigenvalues(A @ A.T).eigenvalues if abs(x) > 1e-8]
    right = [x for x in sym_eigenvalues(A.T @ A).eigenvalues if abs(x) > 1e-8]
    assert np.allclose(left, right, atol=1e-7)
