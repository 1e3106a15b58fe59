import numpy as np
import pytest

import concentrators as C
from concentrators.graphs import (
    GraphError,
    bicayley_graph,
    bicoset_graph,
    cayley_graph,
    connected_components,
    coset_graph,
    extended_double_cover,
    gq22_incidence,
)
from concentrators.permgroup import closure, compose, from_cycles, inverse


def plus(z, k):
    """The rotation-by-k element of a cyclic group acting on its points."""
    n = z.degree
    return z.elements[int(z.lookup(tuple((i + k) % n for i in range(n))))]


def test_cayley_z6_cycle(z6):
    g = cayley_graph(z6, [plus(z6, 1)])
    expected = np.zeros((6, 6), dtype=np.int64)
    for i in range(6):
        expected[i, (i + 1) % 6] = expected[(i + 1) % 6, i] = 1
    assert np.array_equal(g.adj, expected)


def test_cayley_z4_full_connection(z4):
    g = cayley_graph(z4, [plus(z4, 1), plus(z4, 2), plus(z4, 3)])
    # support is K4; each ordered pair (g, sg) contributes, so degrees are 2|S|
    assert np.array_equal(g.adj > 0, (np.ones((4, 4)) - np.eye(4)) > 0)
    assert g.degrees().tolist() == [6] * 4


def test_cayley_degree_sum_counts_insertions(s4):
    S = [s4.elements[3], s4.elements[5], s4.elements[0]]
    g = cayley_graph(s4, S)
    assert int(g.degrees().sum()) == 2 * len(s4) * len(S)


def test_cayley_identity_makes_loops(z4):
    g = cayley_graph(z4, [z4.identity()])
    assert np.array_equal(g.adj, np.eye(4, dtype=np.int64))
    assert g.degrees()[0] == 2


def test_cayley_multiset_doubles(z6):
    s = plus(z6, 2)
    single = cayley_graph(z6, [s])
    double = cayley_graph(z6, [s, s])
    assert np.array_equal(double.adj, 2 * single.adj)


def test_cayley_rejects_foreign_elements(z4, z6):
    with pytest.raises(Exception):
        cayley_graph(z4, [plus(z6, 1)])


def test_coset_trivial_subgroup_matches_cayley_support(s3):
    triv = closure(3, [])
    S = [s3.elements[1], s3.elements[2]]
    cg = coset_graph(s3, triv, S)
    sym = cayley_graph(s3, S + [inverse(S[0]), inverse(S[1])])
    assert np.array_equal(cg.adj > 0, sym.adj > 0)


def test_coset_s3_a3_is_k2(s3, a3):
    g = coset_graph(s3, a3, [s3.elements[1]])  # (0 1) is odd
    assert g.n == 2
    assert np.array_equal(g.adj, np.array([[0, 1], [1, 0]]))


def test_coset_connection_inside_subgroup(s3, a3):
    g = coset_graph(s3, a3, [from_cycles([(0, 1, 2)], 3)])  # S inside A3
    assert np.array_equal(g.adj, np.eye(2, dtype=np.int64))


def test_bicayley_z3_matching():
    z3 = C.cyclic_group(3)
    g = bicayley_graph(z3, [plus(z3, 1)])
    assert g.inc.sum() == 3
    assert (g.in_degrees() == 1).all() and (g.out_degrees() == 1).all()
    count, _ = connected_components(g)
    assert count == 3


def test_bicoset_regular_iff_equal_subgroup_orders(s4):
    L = closure(4, [from_cycles([(0, 1)], 4)], name="L")
    N = closure(4, [from_cycles([(0, 1)], 4), from_cycles([(2, 3)], 4)], name="N")
    S = [s4.elements[1], s4.elements[7]]
    g = bicoset_graph(s4, L, N, S)
    assert g.n_in == 12 and g.n_out == 6
    in_deg = set(int(x) for x in g.in_degrees())
    out_deg = set(int(x) for x in g.out_degrees())
    assert in_deg == {len(S)}
    assert out_deg != in_deg  # |L| != |N|: not regular
    same = bicoset_graph(s4, L, L, S)
    assert set(int(x) for x in same.in_degrees()) == {len(S)}
    assert int(same.inc.sum()) == same.n_in * len(S)


def test_bicoset_degree_sums_exact(s3, swap01, a3):
    S = [s3.elements[2], s3.elements[2], s3.elements[4]]
    g = bicoset_graph(s3, swap01, a3, S)
    assert int(g.in_degrees().sum()) == g.n_in * len(S)
    assert int(g.out_degrees().sum()) == g.n_in * len(S)


def test_bicoset_component_count_matches_generated_index(z4):
    g = bicayley_graph(z4, [plus(z4, 2)])
    count, _ = connected_components(g)
    # <S^-1 S> = {0}, of index 4: one matching component per coset
    s_inv_s = closure(4, [compose(inverse(plus(z4, 2)), plus(z4, 2))])
    assert len(s_inv_s) == 1
    assert count == len(z4) // len(s_inv_s)
    assert count > 1  # disconnected since <S^-1 S> != G


def test_bicoset_connectivity_criterion(z5, z6, s3):
    cases = [
        (z5, [plus(z5, 1)]),
        (z5, [plus(z5, 1), plus(z5, 2)]),
        (z6, [plus(z6, 2)]),
        (z6, [plus(z6, 2), plus(z6, 3)]),
        (s3, [s3.elements[1], s3.elements[2]]),
        (s3, [s3.elements[2]]),
    ]
    for G, S in cases:
        prods = [compose(inverse(a), b) for a in S for b in S]
        generated = closure(G.degree, tuple(set(prods)))
        count, _ = connected_components(bicayley_graph(G, S))
        assert (count == 1) == (len(generated) == len(G))


def test_bicoset_simple_flag(z4):
    S = [plus(z4, 1), plus(z4, 1)]
    full = bicayley_graph(z4, S)
    simple = bicayley_graph(z4, S, simple=True)
    assert full.inc.max() == 2 and simple.inc.max() == 1


def test_double_cover_triangle_is_k33():
    tri = C.Graph(np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))
    cover = extended_double_cover(tri)
    assert np.array_equal(cover.inc, np.ones((3, 3), dtype=np.int64))


def test_double_cover_single_vertex():
    cover = extended_double_cover(C.Graph(np.zeros((1, 1), dtype=np.int64)))
    assert np.array_equal(cover.inc, np.array([[1]]))


def test_double_cover_singular_values_shift_spectrum():
    c4 = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        c4[i, (i + 1) % 4] = c4[(i + 1) % 4, i] = 1
    cover = extended_double_cover(C.Graph(c4))
    A = cover.inc.astype(float)
    singular = np.sqrt(np.sort(np.array(C.sym_eigenvalues(A @ A.T).eigenvalues))[::-1])
    adj_eigs = np.array(C.sym_eigenvalues(c4.astype(float)).eigenvalues)
    expected = np.sort(np.abs(adj_eigs + 1.0))[::-1]
    assert np.allclose(singular, expected, atol=1e-8)


def test_double_cover_needs_simple_graph():
    with pytest.raises(GraphError):
        extended_double_cover(C.Graph(np.array([[0, 2], [2, 0]])))
    with pytest.raises(GraphError):
        extended_double_cover(C.Graph(np.array([[1]])))


def test_double_cover_regularity(z6):
    g = cayley_graph(z6, [plus(z6, 1)])  # 2-regular simple
    cover = extended_double_cover(g)
    assert set(int(x) for x in cover.in_degrees()) == {3}
    assert set(int(x) for x in cover.out_degrees()) == {3}


def bfs_distances(adj_lists, start):
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj_lists[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def bipartite_girth(inc):
    n, m = inc.shape
    adj = {i: [n + j for j in range(m) if inc[i, j]] for i in range(n)}
    adj.update({n + j: [i for i in range(n) if inc[i, j]] for j in range(m)})
    best = None
    for root in range(n + m):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        parent[w] = v
                        nxt.append(w)
                    elif parent[v] != w:
                        cycle = dist[v] + dist[w] + 1
                        if best is None or cycle < best:
                            best = cycle
            frontier = nxt
    return best


def test_gq22_shape_and_girth():
    gq = gq22_incidence()
    assert gq.n_in == 15 and gq.n_out == 15
    assert set(int(x) for x in gq.in_degrees()) == {3}
    assert set(int(x) for x in gq.out_degrees()) == {3}
    assert bipartite_girth(np.asarray(gq.inc)) == 8
    adj = {i: [15 + j for j in range(15) if gq.inc[i, j]] for i in range(15)}
    adj.update({15 + j: [i for i in range(15) if gq.inc[i, j]] for j in range(15)})
    assert max(max(bfs_distances(adj, v).values()) for v in range(30)) == 4


def test_gq22_gram_spectrum():
    gq = gq22_incidence()
    A = gq.inc.astype(float)
    vals = np.round(C.sym_eigenvalues(A @ A.T).eigenvalues, 8)
    hist = {v: list(vals).count(v) for v in set(vals)}
    assert hist == {9.0: 1, 4.0: 9, 0.0: 5}


def test_connected_components_cycle(z6):
    g = cayley_graph(z6, [plus(z6, 1)])
    count, labels = connected_components(g)
    assert count == 1 and len(set(labels)) == 1


def test_connected_components_matching():
    inc = np.eye(3, dtype=np.int64)
    count, labels = connected_components(C.BipartiteGraph(inc))
    assert count == 3
    assert labels[0] == labels[3] and labels[1] == labels[4]
