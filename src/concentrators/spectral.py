"""Dense symmetric eigensolvers and the spectral bounds built on them.

``sym_eigensystems`` is the solver every spectrum goes through: one LAPACK
``np.linalg.eigh`` call over a whole ``(b, n, n)`` stack, certified per matrix
by its backward error ``||M V - V diag(w)||_F`` and the orthogonality defect
``||V^T V - I||_F``.  A failed certificate, a non-finite entry or an
asymmetric input raises ``SpectralError`` instead of returning NaN.
``sym_eigenvalues``, ``mu_star`` and ``laplacian_gap`` are its one-matrix case.

``jacobi_eigensystem`` is an independent cyclic Jacobi iteration whose
residual is the off-diagonal Frobenius norm at termination.  It is the tie
arbiter of the Monte Carlo experiments (see ``montecarlo``): a trial whose
LAPACK mu* lies within a few solver tolerances of its event threshold is
re-solved here, so a threshold verdict never rests on which solver ran.
Target matrices are small (a few thousand rows at most), so a full dense
spectrum with multiplicities is always available for the second-eigenvalue
quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10
MAX_SWEEPS = 100


class SpectralError(ValueError):
    """An eigensolver precondition or convergence guarantee failed."""


@dataclass(frozen=True)
class SpectralReport:
    """Full spectrum (descending), second-largest |eigenvalue|, and residual."""

    eigenvalues: tuple[float, ...]
    mu_star: float
    residual: float


def _offdiag_norm(A: np.ndarray) -> float:
    off = A - np.diag(np.diag(A))
    return float(np.linalg.norm(off))


def _frobenius(A: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """max(||A||_F, floor) of a matrix or of each matrix of a stack."""
    return np.maximum(np.sqrt(np.einsum("...ij,...ij->...", A, A)), floor)


def _check_symmetric(M: np.ndarray, tol: float) -> np.ndarray:
    """Symmetrized float copy of a square matrix or of a stack of them.

    Rejects non-finite entries and any matrix whose largest asymmetry exceeds
    ``tol * max(||M||_F, 1)``.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise SpectralError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise SpectralError("matrix has non-finite entries")
    At = np.swapaxes(A, -1, -2)
    asym = A - At
    np.abs(asym, out=asym)
    if np.any(np.max(asym, axis=(-2, -1), initial=0.0) > tol * _frobenius(A, 1.0)):
        raise SpectralError("matrix is not symmetric within tolerance")
    del asym
    S = A + At
    S *= 0.5
    return S


def jacobi_eigensystem(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Diagonalize a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(w, V, residual)`` with eigenvalues ``w`` sorted descending,
    orthogonal ``V`` whose columns match ``w`` (so ``V @ diag(w) @ V.T == M``
    up to the residual), and the off-diagonal Frobenius norm at termination.
    Raises if the target relative off-norm is not reached in ``MAX_SWEEPS``.
    """
    A = _check_symmetric(M, DEFAULT_TOL)
    if A.ndim != 2:
        raise SpectralError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    V = np.eye(n)
    norm = float(np.linalg.norm(A))
    if n < 2 or norm == 0.0:
        w = np.diag(A).copy()
        order = np.argsort(-w, kind="stable")
        return w[order], V[:, order], 0.0
    target = DEFAULT_TOL * norm
    # Rotations below this size cannot push the off-norm above target.
    skip = target / (n * n)
    for _ in range(MAX_SWEEPS):
        if _offdiag_norm(A) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                theta = 0.5 * math.atan2(2.0 * apq, A[q, q] - A[p, p])
                c = math.cos(theta)
                s = math.sin(theta)
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    residual = _offdiag_norm(A)
    if residual > target:
        raise SpectralError(
            f"Jacobi iteration did not converge within {MAX_SWEEPS} sweeps "
            f"(off-norm {residual:.3e} > {target:.3e})"
        )
    w = np.diag(A).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], V[:, order], residual


def sym_eigensystems(
    M: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified eigensystems of a ``(b, n, n)`` stack of symmetric matrices.

    The stack is symmetrized and solved by one ``np.linalg.eigh`` call.
    Returns ``(w, V, residual)``: eigenvalues ``w`` of shape ``(b, n)``, each
    row sorted descending, eigenvectors ``V`` of shape ``(b, n, n)`` whose
    columns match ``w``, and the backward errors ``||M V - V diag(w)||_F`` of
    shape ``(b,)``.  Raises if any backward error exceeds
    ``tol * max(||M||_F, 1)`` or any ``||V^T V - I||_F`` exceeds ``tol``.
    """
    A = _check_symmetric(M, tol)
    if A.ndim != 3:
        raise SpectralError(f"expected a (b, n, n) stack, got shape {A.shape}")
    w, V = np.linalg.eigh(A)
    w, V = w[:, ::-1], V[:, :, ::-1]
    # Two stack-sized buffers beyond A and V hold the certificate's products.
    R = A @ V
    T = V * w[:, None, :]
    R -= T
    residual = _frobenius(R)
    np.matmul(np.swapaxes(V, 1, 2), V, out=T)
    T -= np.eye(A.shape[1])
    orthogonality = _frobenius(T)
    failed = ~((residual <= tol * _frobenius(A, 1.0)) & (orthogonality <= tol))
    if np.any(failed):
        i = int(np.argmax(failed))
        raise SpectralError(
            f"eigensolve certificate failed for matrix {i}: backward error "
            f"{residual[i]:.3e}, orthogonality defect {orthogonality[i]:.3e}"
        )
    return w, V, residual


def _solve_one(M: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise SpectralError(f"expected a square matrix, got shape {A.shape}")
    w, _, residual = sym_eigensystems(A[None], tol)
    return w[0], float(residual[0])


def _second_largest_abs(eigenvalues: np.ndarray) -> float:
    by_abs = np.sort(np.abs(eigenvalues))[::-1]
    return float(by_abs[1])


def sym_eigenvalues(M: np.ndarray, tol: float = DEFAULT_TOL) -> SpectralReport:
    """All eigenvalues of a symmetric matrix, sorted descending.

    ``residual`` is the certified backward error of the solve.
    """
    w, residual = _solve_one(M, tol)
    mu = _second_largest_abs(w) if w.size >= 2 else math.nan
    return SpectralReport(
        eigenvalues=tuple(float(x) for x in w), mu_star=mu, residual=residual
    )


def mu_star(M: np.ndarray) -> float:
    """Second largest eigenvalue in absolute value (with multiplicity)."""
    A = np.asarray(M, dtype=float)
    if A.shape[0] < 2:
        raise SpectralError("mu_star needs a matrix of dimension >= 2")
    w, _ = _solve_one(A, DEFAULT_TOL)
    return _second_largest_abs(w)


def laplacian_gap(graph) -> float:
    """Second-smallest eigenvalue of Q = diag(degree) - A; 0 iff disconnected."""
    adj = np.asarray(graph.adj, dtype=float)
    if adj.shape[0] < 2:
        raise SpectralError("laplacian gap needs at least 2 vertices")
    if np.any(np.diag(adj) != 0):
        raise SpectralError("laplacian_gap rejects graphs with loops")
    Q = np.diag(adj.sum(axis=1)) - adj
    w, _ = _solve_one(Q, DEFAULT_TOL)
    return float(w[-2])


def tanner_bound(
    n: int, m: int, k: float, r: float, lambda2: float, alpha: float
) -> float:
    """Concentration constant k^2 / (alpha*(k*r - lambda2) + lambda2).

    ``n``/``m`` are input/output counts, ``k``/``r`` the input/output degrees
    of a biregular bipartite graph, ``lambda2`` the second-largest eigenvalue
    of the input-side Gram matrix A A^T.  Valid for 0 < alpha <= m/n; every
    input set X with |X| <= alpha*n then has at least ``bound * |X|``
    neighbors.
    """
    if not 0 < alpha <= m / n + 1e-12:
        raise SpectralError(f"alpha={alpha} outside (0, m/n={m / n}]")
    if abs(r - n * k / m) > 1e-9 * max(1.0, abs(r)):
        raise SpectralError(f"degree mismatch: r={r} but n*k/m={n * k / m}")
    if lambda2 >= k * r:
        raise SpectralError(f"lambda2={lambda2} must be < k*r={k * r}")
    return k * k / (alpha * (k * r - lambda2) + lambda2)


def ramanujan_check(c: float, d: float, mu1: float) -> bool:
    """Is mu1 <= sqrt(c-1) + sqrt(d-1) for a (c,d)-biregular graph (with a
    1e-9 slack)?"""
    if c < 1 or d < 1:
        raise SpectralError("degrees must be >= 1")
    return mu1 <= math.sqrt(c - 1) + math.sqrt(d - 1) + 1e-9


def magnifier_gap_bound(eps: float) -> float:
    """Laplacian-gap lower bound eps^2 / (4 + 2*eps^2) implied by magnification eps."""
    if eps < 0:
        raise SpectralError("magnification constant must be >= 0")
    return eps * eps / (4.0 + 2.0 * eps * eps)


def magnifier_gap_check(eps: float, lam: float) -> bool:
    """Does the observed Laplacian gap meet the magnifier-implied bound (with
    a 1e-9 slack)?"""
    return lam >= magnifier_gap_bound(eps) - 1e-9
