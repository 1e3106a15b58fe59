"""Random generating-multiset experiments against the entropy tail bounds.

Each batch samples connection multisets S, builds the corresponding normalized
operator (Cayley, coset, or bi-coset Gram), records the second-largest
absolute eigenvalue per trial, and compares the empirical tail frequency with
the evaluated bound.  Trial t of a batch draws from ``seeded_rng(seed, t)``,
so results are independent of execution order and bit-reproducible.

Every batch and every exact enumeration goes through one path.  Its draws
come a stack at a time as a (b, k) array of element indices (trial t's row
equal to ``seeded_rng(seed, t)``'s draw, made for the whole stack at once by
``permgroup.seeded_indices``; an enumeration's rows in ``itertools.product``
order), one gather over the group's image rows builds the (b, n, n) operator
stack, and one certified LAPACK call solves it
(``spectral.sym_eigensystems``).  Coset partitions are computed once per
batch.  A stack holds as many draws as fit ``SOLVE_CHUNK_BYTES``, counting both
the operators and the image rows the draws gather with their lookup keys, so
memory grows with neither the trial count nor k.  The per-multiset functions
(``cayley_operator``, ``_normalized_coset_matrix`` and the graph builders they
call) are the one-draw case of the same builders.

A trial whose LAPACK mu* lies within ``TIE_BAND * max(||M||_F, 1)`` of the
event threshold is re-solved by ``jacobi_eigensystem``, and its mu* and top
eigenvalue come from that solve.  The two solvers' eigenvalues differ by less
than their certified errors (``DEFAULT_TOL * ||M||_F`` each), which the band
covers, so every verdict is the one the Jacobi solver alone gives; that
includes operators whose mu* equals the threshold exactly, which Jacobi
decides by its rounding.  Jacobi is a pure function of the matrix, so each
distinct in-band operator of a batch or enumeration is solved once and its
repeats reuse the result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .characters import (
    BoundInputs,
    bound_eval,
    character_table,
    dim_sum_D,
    dim_sums_both,
)
from .graphs import BicosetGraphs, CosetGraphs, bicayley_graph, cayley_counts, coset_graph
from .permgroup import FiniteGroup, Permutation, compose, inverse, seeded_indices
from .spectral import DEFAULT_TOL, jacobi_eigensystem, sym_eigensystems, sym_eigenvalues

ENUMERATION_CAP = 10**4
# Bytes per stack (512 KiB): a stack holds as many operators as fit, or as
# many trials' gathered image rows, whichever is less.  The solve holds about
# four more buffers of this size, so a batch's peak memory grows with neither
# its trials nor k.
SOLVE_CHUNK_BYTES = 1 << 19
# Half-width of the tie band around a threshold, relative to max(||M||_F, 1).
TIE_BAND = 4 * DEFAULT_TOL


class MonteCarloError(ValueError):
    """A trial-batch precondition failed."""


@dataclass(frozen=True)
class TrialBatch:
    """One experiment: per-trial second eigenvalues vs an evaluated tail bound.

    ``bounds`` carries every dimension-sum variant evaluated for the batch and
    ``bound`` is their maximum (the weakest claim; an empirical tail above it
    falsifies all variants at once).  ``violating_trials`` lists the trial
    indices whose value exceeded the threshold, so any falsification comes
    with its reproducing seeds ``(seed, trial)``.
    """

    variant: str
    group: str
    subgroups: tuple[str, ...]
    k: int
    eps: float
    trials: int
    seed: int
    threshold: float
    mu_values: tuple[float, ...]
    empirical_tail: float
    bounds: tuple[tuple[str, float], ...]
    bound: float
    vacuous: bool
    violating_trials: tuple[int, ...]
    top_values: tuple[float, ...] = ()

    def falsified(self) -> bool:
        return (not self.vacuous) and self.empirical_tail > self.bound


def product_multisets(
    S: tuple[Permutation, ...]
) -> tuple[tuple[Permutation, ...], tuple[Permutation, ...]]:
    """(B, B*) with B = {s_i s_j^-1 over ordered pairs} and B* = B minus the
    k diagonal identity copies.  Off-diagonal identity collisions stay in B*."""
    if not S:
        raise MonteCarloError("S must be nonempty")
    inv = [inverse(s) for s in S]
    star = tuple(
        compose(S[i], inv[j]) for i in range(len(S)) for j in range(len(S)) if i != j
    )
    ident = compose(S[0], inv[0])
    full = tuple(
        compose(S[i], inv[j]) if i != j else ident
        for i in range(len(S))
        for j in range(len(S))
    )
    return full, star


class _Operators(NamedTuple):
    """One family of trial operators, built a stack at a time.

    ``build(idx)`` turns a (b, k) element-index array of draws into the
    (b, n, n) stack of their operators.
    ``draw_bytes`` is what one drawn element gathers: each image row with the
    8-byte key its lookup builds (``_gather_bytes``).
    """

    n: int
    draw_bytes: int
    build: Callable[[int, np.ndarray], np.ndarray]


def _gather_bytes(G: FiniteGroup, rows: int) -> int:
    """Bytes of ``rows`` gathered image rows of G and their lookup keys."""
    return rows * (G.rows[0].nbytes + 8)


def _coset_stack(adj: np.ndarray) -> np.ndarray:
    """Each 0/1 coset adjacency of a (b, m, m) stack divided by its degree.

    G permutes the cosets transitively by right multiplication and keeps
    adjacency (Hb = H s h a exactly when Hbg = H s h ag), so every coset graph
    is regular and its first row sum is its degree."""
    return adj / adj[:, :1].sum(axis=2)[:, :, None]


def _cayley_operators(G: FiniteGroup) -> _Operators:
    def build(idx):
        A = cayley_counts(G, idx)
        return (A + A.transpose(0, 2, 1)) / (2.0 * idx.shape[1])

    return _Operators(len(G), _gather_bytes(G, len(G)), build)


def _coset_operators(G: FiniteGroup, H: FiniteGroup) -> _Operators:
    cosets = CosetGraphs(G, H)

    def build(idx):
        return _coset_stack(cosets.adjacency(idx))

    return _Operators(len(cosets), _gather_bytes(G, len(cosets) * len(H)), build)


def _gram_operators(G: FiniteGroup, L: FiniteGroup, N: FiniteGroup) -> _Operators:
    """Scaled input-side Grams A A^T / (2k^2) of the bi-coset graphs."""
    bicosets = BicosetGraphs(G, L, N)

    def build(idx):
        A = bicosets.incidence(idx).astype(float)
        k = idx.shape[1]
        return A @ A.transpose(0, 2, 1) / (2.0 * k * k)

    m_in = len(bicosets.inputs)
    return _Operators(m_in, _gather_bytes(G, m_in), build)


def cayley_operator(G: FiniteGroup, S: tuple[Permutation, ...]) -> np.ndarray:
    """Normalized multigraph adjacency (1/2|S|) * sum_s (R(s) + R(s)^T)."""
    if not S:
        raise MonteCarloError("S must be nonempty")
    return _cayley_operators(G).build(G.lookup(G.rows_of(S))[None])[0]


def _normalized_coset_matrix(G, H, S) -> tuple[np.ndarray, bool]:
    """0/1 coset adjacency (loops on the diagonal) divided by its degree.

    Returns (matrix, True): the graph is always regular (``_coset_stack``),
    and the pair stays because ``perfbench/record.py`` reads the matrix as
    item 0.
    """
    return _coset_stack(coset_graph(G, H, S).adj[None])[0], True


def _product_indices(order: int, k: int, t0: int, t1: int) -> np.ndarray:
    """Rows t0..t1-1 of the |G|^k index tuples in lexicographic order, the
    order of ``itertools.product(G.elements, repeat=k)``."""
    powers = order ** np.arange(k - 1, -1, -1)
    return np.arange(t0, t1)[:, None] // powers % order


def _solve_stack(stack, threshold: float, mu: list, top: list, arbitrated: dict) -> None:
    """Append each stacked operator's mu* and top |eigenvalue|, ties arbitrated.

    ``arbitrated`` maps an operator's bytes to its Jacobi (mu*, top), so an
    operator that recurs in the tie band is solved by Jacobi once.
    """
    w, _, _ = sym_eigensystems(stack)
    by_abs = np.sort(np.abs(w), axis=1)
    mus = by_abs[:, -2] if w.shape[1] >= 2 else np.full(len(w), math.nan)
    tops = by_abs[:, -1]
    band = TIE_BAND * np.maximum(np.linalg.norm(stack, axis=(1, 2)), 1.0)
    for i in np.flatnonzero(np.abs(mus - threshold) <= band):
        key = stack[i].tobytes()
        if key not in arbitrated:
            wj, _, _ = jacobi_eigensystem(stack[i])
            by_abs_j = np.sort(np.abs(wj))
            arbitrated[key] = by_abs_j[-2], by_abs_j[-1]
        mus[i], tops[i] = arbitrated[key]
    mu.extend(mus.tolist())
    top.extend(tops.tolist())


def _spectra(operators: _Operators, k: int, count: int, draws, threshold: float):
    """mu* and top |eigenvalue| of the operators of draws 0..count-1, in order.

    ``draws(t0, t1)`` gives the (t1 - t0, k) element indices of draws t0..t1-1.
    Each stack is drawn, built and solved in turn, and holds as many draws as
    fit ``SOLVE_CHUNK_BYTES`` by operator size and by gathered row size.
    """
    size = max(1, SOLVE_CHUNK_BYTES // max(8 * operators.n**2, k * operators.draw_bytes))
    mu: list[float] = []
    top: list[float] = []
    arbitrated: dict[bytes, tuple[float, float]] = {}
    for t0 in range(0, count, size):
        stack = operators.build(draws(t0, min(count, t0 + size)))
        _solve_stack(stack, threshold, mu, top, arbitrated)
    return mu, top


def _checked(variant: str, operators: _Operators) -> _Operators:
    """``operators``, refused when they are 1 x 1 and so have no mu*."""
    if operators.n < 2:
        raise MonteCarloError({
            "thm14": "group needs at least 2 elements for mu*",
            "thm15": "coset space needs at least 2 cosets for mu*",
            "thm18": "input coset space is 1-dimensional; mu* undefined",
        }[variant])
    return operators


def _run_trials(variant, G, subgroups, k, eps, trials, seed, make_operators):
    """One batch: validate, evaluate the bound, draw trial t's multiset from
    ``seeded_rng(seed, t)``, solve the operators of ``make_operators()`` and
    record the tail.  ``subgroups`` is () for thm14, (H,) for thm15 and (L, N)
    for thm18; the first one's cosets index the operator."""
    if variant == "thm18":
        if k < 2:
            raise MonteCarloError(f"bi-coset trials need k >= 2, got {k}")
        if trials < 1:
            raise MonteCarloError("trials must be >= 1")
    elif k < 1 or trials < 1:
        raise MonteCarloError(f"need k >= 1 and trials >= 1, got k={k}, trials={trials}")
    if seed < 0:
        raise MonteCarloError(f"seed must be >= 0, got {seed}")
    operators = _checked(variant, make_operators())
    table = character_table(G)
    sums = dim_sums_both(G, subgroups[0], table) if subgroups else {"D": dim_sum_D(G, table)}
    bounds = []
    for kind, D in sums.items():
        tb = bound_eval(BoundInputs(D_value=D, k=k, eps=eps, variant=variant))
        bounds.append((kind, tb.bound))
    bound = max(b for _, b in bounds)
    threshold = tb.threshold  # the same for every kind: variant, k and eps set it

    def draws(t0, t1):
        return seeded_indices(seed, t0, t1, len(G), k)

    mu_values, top_values = _spectra(operators, k, trials, draws, threshold)
    violating = tuple(i for i, mu in enumerate(mu_values) if mu > threshold)
    return TrialBatch(
        variant=variant,
        group=G.label(),
        subgroups=tuple(H.label() for H in subgroups),
        k=k,
        eps=eps,
        trials=trials,
        seed=seed,
        threshold=threshold,
        mu_values=tuple(mu_values),
        empirical_tail=len(violating) / trials,
        bounds=tuple(bounds),
        bound=bound,
        vacuous=bound >= 1.0,
        violating_trials=violating,
        # the scaling caps the bi-Cayley Gram's top eigenvalue at 1/2
        top_values=tuple(top_values) if variant == "thm18" else (),
    )


def run_cayley_trials(
    G: FiniteGroup,
    k: int,
    eps: float,
    trials: int,
    seed: int,
) -> TrialBatch:
    """Random Cayley multigraphs: tail of mu* past eps vs the dimension-sum bound."""
    return _run_trials(
        "thm14", G, (), k, eps, trials, seed, lambda: _cayley_operators(G)
    )


def run_coset_trials(
    G: FiniteGroup,
    H: FiniteGroup,
    k: int,
    eps: float,
    trials: int,
    seed: int,
) -> TrialBatch:
    """Random coset graphs on [G:H], normalized by their degree."""
    return _run_trials(
        "thm15", G, (H,), k, eps, trials, seed, lambda: _coset_operators(G, H)
    )


def run_bicoset_trials(
    G: FiniteGroup,
    L: FiniteGroup,
    N: FiniteGroup,
    k: int,
    eps: float,
    trials: int,
    seed: int,
) -> TrialBatch:
    """Random bi-coset graphs: mu* of the scaled input-side Gram A A^T / (2k^2).

    The event threshold is eps + (1-eps)/(2k); the realized top eigenvalue is
    recorded per trial since the scaling caps it at 1/2 in the bi-Cayley case.
    """
    return _run_trials(
        "thm18", G, (L, N), k, eps, trials, seed, lambda: _gram_operators(G, L, N)
    )


# -- exact small-case enumeration ---------------------------------------------

def _enumerated_tail(G, k, eps, cap, make_operators) -> tuple[float, int]:
    """P(mu* > eps) of the operators of ``make_operators()`` over all |G|^k
    ordered draws."""
    if k < 1:
        raise MonteCarloError(f"need k >= 1, got k={k}")
    total = len(G) ** k
    if total > cap:
        raise MonteCarloError(f"|G|^k = {total} exceeds enumeration cap {cap}")
    mu_values, _ = _spectra(
        make_operators(), k, total, lambda t0, t1: _product_indices(len(G), k, t0, t1), eps
    )
    return sum(mu > eps for mu in mu_values) / total, total


def enumerate_cayley_tail(
    G: FiniteGroup, k: int, eps: float, cap: int = ENUMERATION_CAP
) -> tuple[float, int]:
    """Exact P(mu* > eps) over all |G|^k ordered draws; feasible when <= cap."""
    return _enumerated_tail(G, k, eps, cap, lambda: _checked("thm14", _cayley_operators(G)))


def enumerate_coset_tail(
    G: FiniteGroup, H: FiniteGroup, k: int, eps: float, cap: int = ENUMERATION_CAP
) -> tuple[float, int]:
    """Exact coset-graph tail over all |G|^k ordered draws."""
    return _enumerated_tail(G, k, eps, cap, lambda: _checked("thm15", _coset_operators(G, H)))


def shifted_product_spectrum_matches(
    G: FiniteGroup, S: tuple[Permutation, ...], tol: float = 1e-8
) -> bool | None:
    """Cross-check of the bi-Cayley Gram spectrum against the product multiset.

    With trivial subgroups and distinct elements in S, the spectrum of
    A A^T / (2k^2) must equal the normalized adjacency spectrum of the Cayley
    graph on B* = SS^{-1} minus identities, mapped through
    nu -> ((k^2-k) nu + k) / (2k^2).  Returns None when k < 2 or S repeats an
    element, True/False otherwise.  Distinct elements give diag(A A^T) = k:
    each s joins g to a different sg.
    """
    k = len(S)
    if k < 2 or len(set(S)) != k:
        return None
    A = bicayley_graph(G, S).inc.astype(float)
    M = A @ A.T / (2.0 * k * k)
    _, b_star = product_multisets(S)
    op = cayley_operator(G, b_star)
    nu = np.array(sym_eigenvalues(op).eigenvalues)
    mapped = np.sort(((k * k - k) * nu + k) / (2.0 * k * k))
    report = sym_eigenvalues(M)
    direct = np.sort(np.array(report.eigenvalues))
    if not np.allclose(mapped, direct, atol=tol):
        return False
    by_abs = np.sort(np.abs(mapped))[::-1]
    return bool(abs(by_abs[1] - report.mu_star) <= tol)


# -- reporting -----------------------------------------------------------------

def _sig12(x: float) -> float:
    """x at 12 significant digits, as every float in the output is printed."""
    return float(f"{x:.12g}")


def aggregate_rows(batches: list[TrialBatch]) -> list[dict]:
    """One summary row per batch, deterministically ordered by (group, k, eps)."""
    rows = []
    for b in batches:
        bounds = dict(b.bounds)
        row = {
            "variant": b.variant,
            "group": b.group,
            "subgroups": ";".join(b.subgroups),
            "k": b.k,
            "eps": _sig12(b.eps),
            "threshold": _sig12(b.threshold),
            "empirical_tail": _sig12(b.empirical_tail),
            "bound_paper": _sig12(bounds.get("paper", bounds.get("D", math.nan))),
            "bound_support": _sig12(bounds.get("support", bounds.get("D", math.nan))),
            "vacuous": b.vacuous,
            "falsified": b.falsified(),
            "seed": b.seed,
            "trials": b.trials,
        }
        rows.append(row)
    rows.sort(key=lambda r: (r["group"], r["k"], r["eps"], r["variant"]))
    return rows


CSV_COLUMNS = (
    "variant",
    "group",
    "subgroups",
    "k",
    "eps",
    "threshold",
    "empirical_tail",
    "bound_paper",
    "bound_support",
    "vacuous",
    "falsified",
    "seed",
    "trials",
)


def render_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_csv_cell(r.get(c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render_json(rows: list[dict]) -> str:
    return json.dumps(rows, sort_keys=True, indent=2) + "\n"
