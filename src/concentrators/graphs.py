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
        if (adj < 0).any() or (adj != adj.T).any():
            raise GraphError("adjacency must be symmetric and non-negative")
        object.__setattr__(self, "adj", _freeze(adj))

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def degrees(self) -> np.ndarray:
        """Vertex degrees with loops counted twice."""
        return self.adj.sum(axis=1) + np.diag(self.adj)

    def is_simple(self) -> bool:
        return not (self.adj.diagonal().any() or (self.adj > 1).any())


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Bipartite multigraph given by its n_in x n_out multiplicity matrix;
    inputs and outputs are the matrix's row and column indices."""

    inc: np.ndarray

    def __post_init__(self) -> None:
        inc = np.array(self.inc, dtype=np.int64)
        if inc.ndim != 2:
            raise GraphError(f"incidence must be 2-d, got {inc.shape}")
        if (inc < 0).any():
            raise GraphError("multiplicities must be non-negative")
        object.__setattr__(self, "inc", _freeze(inc))

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


def _composed(G: FiniteGroup, idx: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Element indices of s * c for every s drawn in the (b, k) index array
    ``idx`` and every image row c of ``cols`` (shape (..., degree)): an array
    of shape (b, k) + cols.shape[:-1].

    A stack draws at most |G| distinct elements, so each distinct element's
    rows are composed and looked up once and gathered back by the inverse.
    """
    distinct, inverse = np.unique(idx, return_inverse=True)
    # The inverse's shape for a 2-d input changed between numpy 2.0.0 and
    # 2.0.1, so it is reshaped explicitly.
    return G.lookup(G.rows[distinct][:, cols])[inverse.reshape(idx.shape)]


def cayley_counts(G: FiniteGroup, idx: np.ndarray) -> np.ndarray:
    """(b, n, n) stack of R_t = sum_s R(s) over the multiset in row t of ``idx``.

    ``idx`` is a (b, k) array of element indices; R(s) has a 1 at (index of
    s*g, g) for every g.  One gather and one ``bincount`` build the stack.
    """
    b, n = len(idx), len(G)
    sg = _composed(G, idx, G.rows)  # (b, k, n)
    flat = (np.arange(b)[:, None, None] * n + sg) * n + np.arange(n)
    return np.bincount(flat.ravel(), minlength=b * n * n).reshape(b, n, n)


def cayley_graph(G: FiniteGroup, S: Sequence[Permutation]) -> Graph:
    """Vertices G; one undirected edge {g, sg} per group element and s in S.

    S is a multiset: repeated entries add parallel edges, and the identity adds
    loops.  Summed over both endpoints every vertex has degree 2|S|.
    """
    if not S:
        raise GraphError("connection multiset S must be nonempty")
    R = cayley_counts(G, G.indices_of(S)[None])[0]
    # each s adds {g, sg} to both ends, but a loop only once
    return Graph(R + R.T - np.diag(np.diag(R)))


class CosetGraphs:
    """The coset graphs of one subgroup H of G, built a stack of connection
    multisets at a time.  The right cosets are computed once, when the
    object is made."""

    def __init__(self, G: FiniteGroup, H: FiniteGroup) -> None:
        self.G = G
        self.partition = right_cosets(G, H)
        reps = G.rows[self.partition.cosets[:, 0]]
        self._h_reps = H.rows[:, reps]  # (|H|, m, degree): the rows of h * rep_a

    def __len__(self) -> int:
        return len(self.partition)

    def adjacency(self, idx: np.ndarray) -> np.ndarray:
        """(b, m, m) 0/1 adjacency of the coset graph of each row of the (b, k)
        element-index array ``idx``, loops on the diagonal.

        Hb is joined to Ha exactly when Hb = H s h a for some s in S u S^-1
        and h in H, so each coset's neighbours are the cosets of s h a.  The
        s in S alone suffice: b = h' s h a gives Ha = H s^-1 h'^-1 b, so the
        S^-1 edges are the S edges reversed, which the symmetric scatter adds.
        """
        # nb[t, c, h, a] is the coset of s_c * h * rep_a in trial t
        nb = self.partition.coset_of[_composed(self.G, idx, self._h_reps)]
        m = len(self)
        t = np.arange(len(idx))[:, None, None, None]
        a = np.arange(m)
        adj = np.zeros((len(idx), m, m), dtype=np.int64)
        adj[t, a, nb] = 1
        adj[t, nb, a] = 1
        return adj


def coset_graph(G: FiniteGroup, H: FiniteGroup, S: Sequence[Permutation]) -> Graph:
    """Simple graph on the right cosets Hg, joined when reps differ by H(S u S^-1)H."""
    cosets = CosetGraphs(G, H)
    if not S:
        raise GraphError("connection multiset S must be nonempty")
    return Graph(cosets.adjacency(G.indices_of(S)[None])[0])


class BicosetGraphs:
    """The bi-coset graphs on [G:L] x [G:N], built a stack of connection
    multisets at a time.  Both coset partitions are computed once, when the
    object is made, and are one partition when N is L."""

    def __init__(self, G: FiniteGroup, L: FiniteGroup, N: FiniteGroup) -> None:
        self.G = G
        self.inputs = right_cosets(G, L)
        self.outputs = self.inputs if N is L else right_cosets(G, N)
        self._in_reps = G.rows[self.inputs.cosets[:, 0]]

    def incidence(self, idx: np.ndarray) -> np.ndarray:
        """(b, m_in, m_out) multiplicities of the bi-coset graph of each row of
        the (b, k) element-index array ``idx``: entry [t, i, j] counts the s
        in multiset t with N s rep_i = N_j."""
        b, m_in, m_out = len(idx), len(self.inputs), len(self.outputs)
        # j[t, s, i] is the N-coset of s * rep_i
        j = self.outputs.coset_of[_composed(self.G, idx, self._in_reps)]
        flat = (np.arange(b)[:, None, None] * m_in + np.arange(m_in)) * m_out + j
        inc = np.bincount(flat.ravel(), minlength=b * m_in * m_out)
        return inc.reshape(b, m_in, m_out)


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
    inc = BicosetGraphs(G, L, N).incidence(G.indices_of(S)[None])[0]
    return BipartiteGraph(np.minimum(inc, 1) if simple else inc)


def bicayley_graph(
    G: FiniteGroup, S: Sequence[Permutation], simple: bool = False
) -> BipartiteGraph:
    """Bi-coset graph with both subgroups trivial: inputs g, outputs sg."""
    triv = closure(G.degree, [], name="1")
    return bicoset_graph(G, triv, triv, S, simple=simple)


def closed_neighborhoods(g: Graph) -> np.ndarray:
    """The support of A + I as booleans: row v is v's closed neighborhood, so
    the union of the rows of a vertex set X is N(X) ∪ X.  For a simple graph
    it is the extended double cover's incidence."""
    support = g.adj > 0
    np.fill_diagonal(support, True)
    return support


def extended_double_cover(g: Graph) -> BipartiteGraph:
    """Bipartite graph with incidence A + I; wants a simple input graph."""
    if not g.is_simple():
        raise GraphError("extended double cover needs a simple graph")
    return BipartiteGraph(closed_neighborhoods(g))


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
    return BipartiteGraph(inc)


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
