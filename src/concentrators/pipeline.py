"""End-to-end concentrator pipeline for a user-supplied expanding set.

Given a group G, a subgroup L, and a generating multiset S, build the
bi-coset graph on [G:L] x G with connection multiset (S u {1})L, together
with the coset graph on G/L connected through (S u {1})(S u {1})^{-1}, and
report every measurable concentration quantity: the Cayley graph's magnifier
constant, the coset graph's Laplacian gap against the magnifier-implied
bound, the top of the input-side Gram spectrum, and the resulting
concentration constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    bicoset_graph,
    cayley_graph,
    connected_components,
    coset_graph,
    Graph,
)
from .permgroup import FiniteGroup, Permutation, compose, inverse, trivial_group
from .spectral import (
    SpectralError,
    laplacian_gap,
    magnifier_gap_bound,
    magnifier_gap_check,
    sym_eigenvalues,
    tanner_bound,
)
from .verify import EXHAUSTIVE_CAP, ConcentrationReport, magnifier_constant


class PipelineError(ValueError):
    """The pipeline could not be assembled from the given inputs."""


@dataclass(frozen=True)
class PipelineReport:
    """All quantities measured along the bi-coset concentrator pipeline."""

    n_in: int
    n_out: int
    input_degree: int
    output_degree: int
    connected: bool
    generates: bool
    magnifier: ConcentrationReport
    laplacian_gap: float
    gap_bound: float
    gap_check: bool
    gram_top: float
    gram_second: float
    tanner_alpha: float
    tanner_constant: float | None
    warnings: tuple[str, ...]


def bicoset_concentrator_report(
    G: FiniteGroup,
    L: FiniteGroup,
    S: tuple[Permutation, ...],
    budget: int = 1000,
    seed: int | None = None,
) -> PipelineReport:
    """Run the full pipeline; the magnifier step is exhaustive when |G| <= 24."""
    if not S:
        raise PipelineError("the generating multiset S must be nonempty")
    warnings: list[str] = []
    ident = G.identity()
    s_ext = tuple(S) + (ident,)
    s_prime = tuple(compose(s, l) for s in s_ext for l in L.elements)

    X = bicoset_graph(G, L, trivial_group(G.degree), s_prime)
    # X is biregular: input Lg has the |S'| edges to s'g, and output h has one
    # edge per s in S u {1}, from the one l in L that makes (sl)^-1 h the
    # least element of its L-coset.
    in_deg, out_deg = len(s_prime), len(s_ext)

    comp_count, _ = connected_components(X)
    connected = comp_count == 1
    # Outputs h, h' share an input exactly when h' h^-1 is in S' S'^-1, as
    # S' L = S'.  S' holds 1, so S' S'^-1 and S'^-1 S' both generate <S'>.
    generates = connected
    if not connected:
        warnings.append(
            "bi-coset graph is disconnected; the product multiset does not generate the group"
        )

    # Coset graph on G/L through the symmetric product multiset; loops carry
    # no Laplacian weight, so they are stripped before the gap computation.
    t_multiset = tuple(compose(a, inverse(b)) for a in s_ext for b in s_ext)
    d_graph = coset_graph(G, L, t_multiset)
    d_adj = np.array(d_graph.adj)
    np.fill_diagonal(d_adj, 0)
    gap = laplacian_gap(Graph(d_adj))

    mode = "exhaustive" if len(G) <= EXHAUSTIVE_CAP else "sampled"
    mag = magnifier_constant(cayley_graph(G, S), mode=mode, budget=budget, seed=seed)
    eps = mag.worst_ratio
    bound = magnifier_gap_bound(eps)
    check = magnifier_gap_check(eps, gap)
    if not check:
        warnings.append("Laplacian gap fell below the magnifier-implied bound")

    A = X.inc.astype(float)
    gram = sym_eigenvalues(A @ A.T)
    top, second = gram.eigenvalues[0], gram.eigenvalues[1]

    alpha = X.n_out / X.n_in
    tanner: float | None
    try:
        tanner = tanner_bound(X.n_in, X.n_out, float(in_deg), float(out_deg), second, alpha)
    except SpectralError as exc:
        tanner = None
        warnings.append(f"concentration constant unavailable: {exc}")

    return PipelineReport(
        n_in=X.n_in,
        n_out=X.n_out,
        input_degree=in_deg,
        output_degree=out_deg,
        connected=connected,
        generates=generates,
        magnifier=mag,
        laplacian_gap=gap,
        gap_bound=bound,
        gap_check=check,
        gram_top=top,
        gram_second=second,
        tanner_alpha=alpha,
        tanner_constant=tanner,
        warnings=tuple(warnings),
    )
