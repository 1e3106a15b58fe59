"""Random generating-multiset experiments against the entropy tail bounds.

Each batch samples connection multisets S, builds the corresponding normalized
operator (Cayley, coset, or bi-coset Gram), records the second-largest
absolute eigenvalue per trial, and compares the empirical tail frequency with
the evaluated bound.  Trial t of a batch draws from ``seeded_rng(seed, t)``,
so results are independent of execution order and bit-reproducible.

Every batch and every exact enumeration goes through one path: the operators
are stacked ``SOLVE_CHUNK_BYTES`` at a time and solved by one certified LAPACK
call per stack (``spectral.sym_eigensystems``), so memory stays flat as the
trial count grows.  A trial whose LAPACK mu* lies within
``TIE_BAND * max(||M||_F, 1)`` of the event threshold is re-solved by
``jacobi_eigensystem``, and its mu* and top eigenvalue come from that solve.
The two solvers' eigenvalues differ by less than their certified errors
(``DEFAULT_TOL * ||M||_F`` each), which the band covers, so every verdict is
the one the Jacobi solver alone gives; that includes operators whose mu*
equals the threshold exactly, which Jacobi decides by its rounding.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .characters import (
    BoundInputs,
    CharacterTable,
    bound_eval,
    character_table,
    dim_sum_D,
    dim_sums_both,
)
from .graphs import bicayley_graph, bicoset_graph, coset_graph
from .permgroup import (
    FiniteGroup,
    Permutation,
    compose,
    inverse,
    right_cosets,
    seeded_rng,
)
from .spectral import DEFAULT_TOL, jacobi_eigensystem, sym_eigensystems, sym_eigenvalues

ENUMERATION_CAP = 10**4
# Operator bytes per stacked solve (512 KiB).  The solve holds about four more
# buffers of this size, so a batch's peak memory does not grow with its trials.
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
    flags: tuple[str, ...]
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


def cayley_operator(G: FiniteGroup, S: tuple[Permutation, ...]) -> np.ndarray:
    """Normalized multigraph adjacency (1/2|S|) * sum_s (R(s) + R(s)^T)."""
    if not S:
        raise MonteCarloError("S must be nonempty")
    n = len(G)
    # R(s) has a 1 at (index of s*g, g) for every g.
    sg = G.lookup(G.rows_of(S)[:, G.rows])
    A = np.bincount((sg * n + np.arange(n)).ravel(), minlength=n * n).reshape(n, n)
    return (A + A.T) / (2.0 * len(S))


def _normalized_coset_matrix(G, H, S) -> tuple[np.ndarray, bool]:
    """0/1 coset adjacency (loops on the diagonal) divided by its row sum.

    Returns (matrix, regular); a non-regular instance is divided by the max
    row sum instead.
    """
    g = coset_graph(G, H, S)
    adj = g.adj.astype(float)
    sums = adj.sum(axis=1)
    regular = bool(np.all(sums == sums[0]))
    return adj / sums.max(), regular


def _mu_tail(mu_values, threshold):
    violating = tuple(i for i, mu in enumerate(mu_values) if mu > threshold)
    return violating, len(violating) / len(mu_values)


def _sample_indices(order: int, k: int, seed: int, trial: int) -> list[int]:
    rng = seeded_rng(seed, trial)
    return [int(i) for i in rng.integers(0, order, size=k)]


def _solve_stack(stack: np.ndarray, threshold: float, mu: list, top: list) -> None:
    """Append each stacked operator's mu* and top |eigenvalue|, ties arbitrated."""
    w, _, _ = sym_eigensystems(stack)
    by_abs = np.sort(np.abs(w), axis=1)
    mus = by_abs[:, -2] if w.shape[1] >= 2 else np.full(len(w), math.nan)
    tops = by_abs[:, -1]
    band = TIE_BAND * np.maximum(np.linalg.norm(stack, axis=(1, 2)), 1.0)
    for i in np.flatnonzero(np.abs(mus - threshold) <= band):
        wj, _, _ = jacobi_eigensystem(stack[i])
        by_abs_j = np.sort(np.abs(wj))
        mus[i], tops[i] = by_abs_j[-2], by_abs_j[-1]
    mu.extend(mus.tolist())
    top.extend(tops.tolist())


def _spectra(operators, threshold: float) -> tuple[list[float], list[float]]:
    """mu* and top |eigenvalue| of each same-shape operator, in order.

    The operators are copied into a stack of at most ``SOLVE_CHUNK_BYTES`` and
    solved a stack at a time, with near-threshold ties re-solved by Jacobi.
    """
    mu: list[float] = []
    top: list[float] = []
    stack, filled = None, 0
    for op in operators:
        if stack is None:
            size = max(1, SOLVE_CHUNK_BYTES // (8 * op.size))
            stack = np.empty((size, *op.shape))
        stack[filled] = op
        filled += 1
        if filled == len(stack):
            _solve_stack(stack, threshold, mu, top)
            filled = 0
    if filled:
        _solve_stack(stack[:filled], threshold, mu, top)
    return mu, top


def _trial_spectra(G, k, trials, seed, build, threshold):
    """Draw trial t's multiset from ``seeded_rng(seed, t)``, build its operator
    with ``build(t, S)``, and return (mu*, top |eigenvalue|) per trial."""
    order = len(G)
    operators = (
        build(t, tuple(G.elements[i] for i in _sample_indices(order, k, seed, t)))
        for t in range(trials)
    )
    return _spectra(operators, threshold)


def _subgroup_bounds(G, H, table, k, eps, variant):
    """(paper bound, (paper, support) pairs, weakest bound) of thm15/thm18."""
    table = character_table(G) if table is None else table
    sums = dim_sums_both(G, H, table)
    tb_paper = bound_eval(BoundInputs(D_value=sums["paper"], k=k, eps=eps, variant=variant))
    tb_support = bound_eval(
        BoundInputs(D_value=sums["support"], k=k, eps=eps, variant=variant)
    )
    bounds = (("paper", tb_paper.bound), ("support", tb_support.bound))
    return tb_paper, bounds, max(tb_paper.bound, tb_support.bound)


def run_cayley_trials(
    G: FiniteGroup,
    k: int,
    eps: float,
    trials: int,
    seed: int,
    table: CharacterTable | None = None,
) -> TrialBatch:
    """Random Cayley multigraphs: tail of mu* past eps vs the dimension-sum bound."""
    if k < 1 or trials < 1:
        raise MonteCarloError(f"need k >= 1 and trials >= 1, got k={k}, trials={trials}")
    table = character_table(G) if table is None else table
    D = dim_sum_D(G, table)
    tb = bound_eval(BoundInputs(D_value=D, k=k, eps=eps, variant="thm14"))
    mu_values, _ = _trial_spectra(
        G, k, trials, seed, lambda t, S: cayley_operator(G, S), tb.threshold
    )
    violating, tail = _mu_tail(mu_values, tb.threshold)
    return TrialBatch(
        variant="thm14",
        group=G.label(),
        subgroups=(),
        k=k,
        eps=eps,
        trials=trials,
        seed=seed,
        threshold=tb.threshold,
        mu_values=tuple(mu_values),
        empirical_tail=tail,
        bounds=(("D", tb.bound),),
        bound=tb.bound,
        vacuous=tb.vacuous,
        violating_trials=violating,
        flags=(),
    )


def run_coset_trials(
    G: FiniteGroup,
    H: FiniteGroup,
    k: int,
    eps: float,
    trials: int,
    seed: int,
    table: CharacterTable | None = None,
) -> TrialBatch:
    """Random coset graphs on [G:H], normalized by their (asserted) regular degree."""
    if k < 1 or trials < 1:
        raise MonteCarloError(f"need k >= 1 and trials >= 1, got k={k}, trials={trials}")
    if len(right_cosets(G, H)) < 2:
        raise MonteCarloError("coset space needs at least 2 cosets for mu*")
    tb, bounds, bound = _subgroup_bounds(G, H, table, k, eps, "thm15")
    flags = []

    def build(t, S):
        mat, regular = _normalized_coset_matrix(G, H, S)
        if not regular:
            flags.append(f"trial {t}: non-regular coset graph, normalized by max degree")
        return mat

    mu_values, _ = _trial_spectra(G, k, trials, seed, build, tb.threshold)
    violating, tail = _mu_tail(mu_values, tb.threshold)
    return TrialBatch(
        variant="thm15",
        group=G.label(),
        subgroups=(H.label(),),
        k=k,
        eps=eps,
        trials=trials,
        seed=seed,
        threshold=tb.threshold,
        mu_values=tuple(mu_values),
        empirical_tail=tail,
        bounds=bounds,
        bound=bound,
        vacuous=bound >= 1.0,
        violating_trials=violating,
        flags=tuple(flags),
    )


def run_bicoset_trials(
    G: FiniteGroup,
    L: FiniteGroup,
    N: FiniteGroup,
    k: int,
    eps: float,
    trials: int,
    seed: int,
    table: CharacterTable | None = None,
) -> TrialBatch:
    """Random bi-coset graphs: mu* of the scaled input-side Gram A A^T / (2k^2).

    The event threshold is eps + (1-eps)/(2k); the realized top eigenvalue is
    recorded per trial since the scaling caps it at 1/2 in the bi-Cayley case.
    """
    if k < 2:
        raise MonteCarloError(f"bi-coset trials need k >= 2, got {k}")
    if trials < 1:
        raise MonteCarloError("trials must be >= 1")
    if len(right_cosets(G, L)) < 2:
        raise MonteCarloError("input coset space is 1-dimensional; mu* undefined")
    tb, bounds, bound = _subgroup_bounds(G, L, table, k, eps, "thm18")

    def build(t, S):
        A = bicoset_graph(G, L, N, S).inc.astype(float)
        return A @ A.T / (2.0 * k * k)

    mu_values, top_values = _trial_spectra(G, k, trials, seed, build, tb.threshold)
    violating, tail = _mu_tail(mu_values, tb.threshold)
    return TrialBatch(
        variant="thm18",
        group=G.label(),
        subgroups=(L.label(), N.label()),
        k=k,
        eps=eps,
        trials=trials,
        seed=seed,
        threshold=tb.threshold,
        mu_values=tuple(mu_values),
        empirical_tail=tail,
        bounds=bounds,
        bound=bound,
        vacuous=bound >= 1.0,
        violating_trials=violating,
        flags=(),
        top_values=tuple(top_values),
    )


# -- exact small-case enumeration ---------------------------------------------

def _enumerated_tail(G, k, eps, cap, build) -> tuple[float, int]:
    """P(mu* > eps) of the operators ``build(S)`` over all |G|^k ordered draws."""
    total = len(G) ** k
    if total > cap:
        raise MonteCarloError(f"|G|^k = {total} exceeds enumeration cap {cap}")
    draws = itertools.product(G.elements, repeat=k)
    mu_values, _ = _spectra((build(S) for S in draws), eps)
    return sum(mu > eps for mu in mu_values) / total, total


def enumerate_cayley_tail(
    G: FiniteGroup, k: int, eps: float, cap: int = ENUMERATION_CAP
) -> tuple[float, int]:
    """Exact P(mu* > eps) over all |G|^k ordered draws; feasible when <= cap."""
    return _enumerated_tail(G, k, eps, cap, lambda S: cayley_operator(G, S))


def enumerate_coset_tail(
    G: FiniteGroup, H: FiniteGroup, k: int, eps: float, cap: int = ENUMERATION_CAP
) -> tuple[float, int]:
    """Exact coset-graph tail over all |G|^k ordered draws."""
    return _enumerated_tail(
        G, k, eps, cap, lambda S: _normalized_coset_matrix(G, H, S)[0]
    )


def shifted_product_spectrum_matches(
    G: FiniteGroup, S: tuple[Permutation, ...], tol: float = 1e-8
) -> bool | None:
    """Cross-check of the bi-Cayley Gram spectrum against the product multiset.

    With trivial subgroups and distinct elements in S, the spectrum of
    A A^T / (2k^2) must equal the normalized adjacency spectrum of the Cayley
    graph on B* = SS^{-1} minus identities, mapped through
    nu -> ((k^2-k) nu + k) / (2k^2).  Returns None when the diagonal condition
    fails (repeated draws), True/False otherwise.
    """
    k = len(S)
    if k < 2 or len(set(S)) != k:
        return None
    A = bicayley_graph(G, S).inc.astype(float)
    M = A @ A.T / (2.0 * k * k)
    if not np.all(np.diag(A @ A.T) == k):
        return None
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
    return float(f"{x:.12g}")


def aggregate_rows(
    batches: list[TrialBatch], wall_times: list[float] | None = None
) -> list[dict]:
    """One summary row per batch, deterministically ordered by (group, k, eps)."""
    rows = []
    for i, b in enumerate(batches):
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
        if wall_times is not None:
            row["wall_time_s"] = _sig12(wall_times[i])
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
    columns = list(CSV_COLUMNS)
    if any("wall_time_s" in r for r in rows):
        columns.append("wall_time_s")
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join(_csv_cell(r.get(c)) for c in columns))
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
