"""Graph constructions: Cayley, coset, bi-coset, double covers, incidence graphs.

Adjacency structures carry integer edge multiplicities.  For plain graphs the
diagonal stores loop counts and a loop adds 2 to its vertex degree; bipartite
graphs cannot have loops by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .permgroup import (
    FiniteGroup,
    Permutation,
    closure,
    inverse_rows,
    right_cosets,
)


class GraphError(ValueError):
    """A graph-construction precondition failed."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected multigraph: symmetric multiplicity matrix, diagonal = loops."""

    adj: np.ndarray

    def __post_init__(self) -> None:
        adj = np.array(self.adj, dtype=np.int64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise GraphError(f"adjacency must be square, got {adj.shape}")
        if np.any(adj < 0) or np.any(adj != adj.T):
            raise GraphError("adjacency must be symmetric and non-negative")
        object.__setattr__(self, "adj", _freeze(adj))

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def degree(self, i: int) -> int:
        """Vertex degree with loops counted twice."""
        return int(self.adj[i].sum() + self.adj[i, i])

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1) + np.diag(self.adj)

    def is_simple(self) -> bool:
        return bool(np.all(np.diag(self.adj) == 0) and np.all(self.adj <= 1))


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Bipartite multigraph given by its n_in x n_out multiplicity matrix."""

    inc: np.ndarray
    in_labels: tuple[str, ...] = ()
    out_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        inc = np.array(self.inc, dtype=np.int64)
        if inc.ndim != 2:
            raise GraphError(f"incidence must be 2-d, got {inc.shape}")
        if np.any(inc < 0):
            raise GraphError("multiplicities must be non-negative")
        object.__setattr__(self, "inc", _freeze(inc))
        if not self.in_labels:
            object.__setattr__(self, "in_labels", tuple(str(i) for i in range(inc.shape[0])))
        if not self.out_labels:
            object.__setattr__(self, "out_labels", tuple(str(j) for j in range(inc.shape[1])))
        if len(self.in_labels) != inc.shape[0] or len(self.out_labels) != inc.shape[1]:
            raise GraphError("label count does not match matrix shape")

    @property
    def n_in(self) -> int:
        return self.inc.shape[0]

    @property
    def n_out(self) -> int:
        return self.inc.shape[1]

    def in_degrees(self) -> np.ndarray:
        return self.inc.sum(axis=1)

    def out_degrees(self) -> np.ndarray:
        return self.inc.sum(axis=0)


def cayley_graph(G: FiniteGroup, S: Sequence[Permutation]) -> Graph:
    """Vertices G; one undirected edge {g, sg} per group element and s in S.

    S is a multiset: repeated entries add parallel edges, and the identity adds
    loops.  Summed over both endpoints every vertex has degree 2|S|.
    """
    if not S:
        raise GraphError("connection multiset S must be nonempty")
    n = len(G)
    # sg[a, g] is the index of s_a * g; each s adds {g, sg}, once when a loop.
    sg = G.lookup(G.rows_of(S)[:, G.rows])
    g = np.broadcast_to(np.arange(n), sg.shape)
    ends = np.concatenate([(g * n + sg).ravel(), (sg * n + g)[sg != g]])
    return Graph(np.bincount(ends, minlength=n * n).reshape(n, n))


def coset_graph(G: FiniteGroup, H: FiniteGroup, S: Sequence[Permutation]) -> Graph:
    """Simple graph on the right cosets Hg, joined when reps differ by H(S u S^-1)H.

    Hb is joined to Ha exactly when Hb = H s h a for some s in S u S^-1 and
    h in H, so each coset's neighbours are the cosets of s h a.
    """
    part = right_cosets(G, H)
    if not S:
        raise GraphError("connection multiset S must be nonempty")
    conn = G.rows_of(S)
    conn = np.concatenate([conn, inverse_rows(conn)])
    reps = G.rows[[c[0] for c in part.cosets]]
    b = np.asarray(part.coset_of)[G.lookup(conn[:, H.rows[:, reps]])]
    a = np.broadcast_to(np.arange(len(part)), b.shape)
    adj = np.zeros((len(part), len(part)), dtype=np.int64)
    adj[a, b] = 1
    adj[b, a] = 1
    return Graph(adj)


def bicoset_graph(
    G: FiniteGroup,
    L: FiniteGroup,
    N: FiniteGroup,
    S: Sequence[Permutation],
    simple: bool = False,
) -> BipartiteGraph:
    """Bipartite graph on [G:L] x [G:N] with edges {Lg, Nsg}.

    Multiplicity convention: for the canonical (least-index) representative g
    of each L-coset, inc[Lg][Nh] counts the s in S with Nsg = Nh.  Every input
    then has degree exactly |S|.  When S is right-L-invariant (e.g. a union of
    cosets sL) this is independent of the representative; for arbitrary
    multisets the canonical representative fixes the convention.  ``simple``
    collapses multiplicities to 0/1.
    """
    if not S:
        raise GraphError("connection multiset S must be nonempty")
    in_part = right_cosets(G, L)
    out_part = right_cosets(G, N)
    conn = G.rows_of(S)
    in_reps = [c[0] for c in in_part.cosets]
    out_reps = [c[0] for c in out_part.cosets]
    # j[s, i] is the N-coset of s * rep_i.
    j = np.asarray(out_part.coset_of)[G.lookup(conn[:, G.rows[in_reps]])]
    i = np.broadcast_to(np.arange(len(in_part)), j.shape)
    n_out = len(out_part)
    inc = np.bincount((i * n_out + j).ravel(), minlength=len(in_part) * n_out)
    inc = inc.reshape(len(in_part), n_out)
    if simple:
        inc = np.minimum(inc, 1)
    in_labels = tuple(f"Lg{r}" for r in in_reps)
    out_labels = tuple(f"Ng{r}" for r in out_reps)
    return BipartiteGraph(inc, in_labels, out_labels)


def bicayley_graph(
    G: FiniteGroup, S: Sequence[Permutation], simple: bool = False
) -> BipartiteGraph:
    """Bi-coset graph with both subgroups trivial: inputs g, outputs sg."""
    triv = closure(G.degree, [], name="1")
    return bicoset_graph(G, triv, triv, S, simple=simple)


def extended_double_cover(g: Graph) -> BipartiteGraph:
    """Bipartite graph with incidence A + I; wants a simple input graph."""
    if not g.is_simple():
        raise GraphError("extended double cover needs a simple graph")
    inc = g.adj + np.eye(g.n, dtype=np.int64)
    labels_x = tuple(f"x{i}" for i in range(g.n))
    labels_y = tuple(f"y{i}" for i in range(g.n))
    return BipartiteGraph(inc, labels_x, labels_y)


def gq22_incidence() -> BipartiteGraph:
    """Point-line incidence of the generalized quadrangle of order (2,2).

    Points are the 15 unordered pairs from a 6-set, lines the 15 perfect
    matchings; a point lies on a line when the pair belongs to the matching.
    Both sides are 3-regular and the incidence graph has girth 8.
    """
    points = list(itertools.combinations(range(6), 2))
    point_idx = {p: i for i, p in enumerate(points)}

    def matchings(rest: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
        if not rest:
            return [()]
        a = rest[0]
        out = []
        for b in rest[1:]:
            rem = tuple(x for x in rest if x not in (a, b))
            for sub in matchings(rem):
                out.append(((a, b),) + sub)
        return out

    lines = matchings(tuple(range(6)))
    inc = np.zeros((15, 15), dtype=np.int64)
    for j, line in enumerate(lines):
        for pair in line:
            inc[point_idx[pair], j] = 1
    in_labels = tuple(f"{a}{b}" for a, b in points)
    out_labels = tuple("|".join(f"{a}{b}" for a, b in line) for line in lines)
    return BipartiteGraph(inc, in_labels, out_labels)


def connected_components(x: Graph | BipartiteGraph) -> tuple[int, tuple[int, ...]]:
    """Component count and a vertex labeling (bipartite: inputs then outputs)."""
    if isinstance(x, Graph):
        n = x.n
        nbrs = [np.nonzero(x.adj[i])[0] for i in range(n)]
    else:
        n = x.n_in + x.n_out
        nbrs = [x.n_in + np.nonzero(x.inc[i])[0] for i in range(x.n_in)]
        nbrs += [np.nonzero(x.inc[:, j])[0] for j in range(x.n_out)]
    label = [-1] * n
    count = 0
    for start in range(n):
        if label[start] >= 0:
            continue
        stack = [start]
        label[start] = count
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if label[w] < 0:
                    label[w] = count
                    stack.append(int(w))
        count += 1
    return count, tuple(label)
