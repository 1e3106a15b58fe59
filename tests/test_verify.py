import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import concentrators as C
from concentrators import verify
from concentrators.designs import design_bipartite
from concentrators.graphs import GraphError
from concentrators.spectral import sym_eigenvalues, tanner_bound
from concentrators.verify import (
    VerifyError,
    bsc_check,
    double_cover_harness,
    expander_check,
    magnifier_constant,
)

import oracles


def cycle_graph(n):
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return C.Graph(a)


def path_graph(n):
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1
    return C.Graph(a)


def k33():
    return C.BipartiteGraph(np.ones((3, 3), dtype=np.int64))


def test_bsc_k33():
    rep = bsc_check(k33(), alpha=1.0, c=1.0)
    assert rep.verdict
    assert rep.worst_ratio >= 1.0


def test_bsc_matching_fails_c2():
    rep = bsc_check(C.BipartiteGraph(np.eye(3, dtype=np.int64)), alpha=1.0, c=2.0)
    assert not rep.verdict
    assert rep.worst_ratio == 1.0
    assert len(rep.worst_set) == 1


def test_bsc_d9_blocks_meets_tanner(mathieu_chain):
    d9 = mathieu_chain[3]
    X = design_bipartite(d9, blocks_as_inputs=True)
    c = tanner_bound(12, 9, 3, 4, 3.0, 0.75)
    rep = bsc_check(X, alpha=0.75, c=c)
    assert rep.verdict
    assert rep.worst_ratio >= c


def test_bsc_alpha_validation():
    with pytest.raises(VerifyError):
        bsc_check(k33(), alpha=0.0, c=1.0)
    with pytest.raises(VerifyError):
        bsc_check(k33(), alpha=0.1, c=1.0)  # no eligible subset size


def test_bsc_exhaustive_cap():
    X = C.BipartiteGraph(np.ones((25, 3), dtype=np.int64))
    with pytest.raises(VerifyError):
        bsc_check(X, alpha=1.0, c=0.1)


def test_bsc_sampled_refutes(mathieu_chain):
    X = C.BipartiteGraph(np.eye(3, dtype=np.int64))
    rep = bsc_check(X, alpha=1.0, c=2.0, mode="sampled", budget=64, seed=5)
    assert rep.mode == "sampled"
    assert not rep.verdict


def test_bsc_sampled_needs_seed():
    with pytest.raises(VerifyError):
        bsc_check(k33(), alpha=1.0, c=1.0, mode="sampled", seed=None)


def test_sampled_never_below_exhaustive():
    rng = np.random.default_rng(33)
    for _ in range(5):
        inc = (rng.random((7, 7)) < 0.4).astype(np.int64)
        inc[rng.integers(0, 7), rng.integers(0, 7)] = 1
        X = C.BipartiteGraph(inc)
        exact = bsc_check(X, alpha=1.0, c=0.0).worst_ratio
        sampled = bsc_check(X, alpha=1.0, c=0.0, mode="sampled", budget=30, seed=9)
        assert sampled.worst_ratio >= exact - 1e-12


def test_worst_ratio_invariant_under_relabeling():
    rng = np.random.default_rng(12)
    inc = (rng.random((8, 9)) < 0.35).astype(np.int64)
    inc[:, 0] = 1  # avoid empty rows
    X = C.BipartiteGraph(inc)
    base = bsc_check(X, alpha=1.0, c=0.0).worst_ratio
    rows = rng.permutation(8)
    cols = rng.permutation(9)
    Y = C.BipartiteGraph(inc[np.ix_(rows, cols)])
    assert bsc_check(Y, alpha=1.0, c=0.0).worst_ratio == pytest.approx(base)


def test_magnifier_k3():
    rep = magnifier_constant(C.Graph(np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)))
    assert rep.worst_ratio == 2.0


def test_magnifier_c6():
    rep = magnifier_constant(cycle_graph(6))
    assert rep.worst_ratio == pytest.approx(2 / 3)
    assert rep.worst_set == (0, 1, 2)  # lexicographically least attaining run


def test_magnifier_edgeless():
    rep = magnifier_constant(C.Graph(np.zeros((4, 4), dtype=np.int64)))
    assert rep.worst_ratio == 0.0
    assert not rep.verdict


def test_magnifier_positive_iff_connected():
    graphs = [cycle_graph(5), path_graph(6), cycle_graph(8)]
    for g in graphs:
        assert magnifier_constant(g).worst_ratio > 0
    disconnected = np.zeros((6, 6), dtype=np.int64)
    disconnected[0, 1] = disconnected[1, 0] = 1
    disconnected[2, 3] = disconnected[3, 2] = 1
    disconnected[4, 5] = disconnected[5, 4] = 1
    assert magnifier_constant(C.Graph(disconnected)).worst_ratio == 0.0


def test_expander_k33_half_restricted():
    rep = expander_check(k33(), c=1.0)
    assert rep.verdict


def test_expander_k33_unrestricted_fails():
    rep = expander_check(k33(), c=2.0, restrict_half=False)
    assert not rep.verdict


def test_expander_c0_reduces_to_hall():
    X = C.BipartiteGraph(np.eye(4, dtype=np.int64))
    assert expander_check(X, c=0.0, restrict_half=False).verdict


def test_expander_needs_square_sides():
    with pytest.raises(VerifyError):
        expander_check(C.BipartiteGraph(np.ones((2, 3), dtype=np.int64)), c=0.5)


def test_harness_c3():
    tri = C.Graph(np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))
    rep = double_cover_harness(tri)
    assert rep.magnifier.worst_ratio == 2.0
    assert rep.passed


def test_harness_c6_and_p3():
    assert double_cover_harness(cycle_graph(6)).passed
    report = double_cover_harness(path_graph(3))
    assert report.passed in (True, False)  # falsification harness, no assumed verdict
    assert report.expander.subsets_checked > 0


def test_python_and_numpy_engines_agree():
    rng = np.random.default_rng(2)
    inc = (rng.random((17, 10)) < 0.3).astype(np.int64)
    inc[:, 0] = 1
    ratio, worst, checked, _ = oracles.subset_scan(inc, 8)
    rep = bsc_check(C.BipartiteGraph(inc), alpha=8 / 17, c=0.0)
    assert checked == rep.subsets_checked
    assert ratio == rep.worst_ratio
    assert worst == rep.worst_set


def test_tanner_property_over_bibd_corpus(mathieu_chain):
    gq = C.gq22_incidence()
    cases = [design_bipartite(mathieu_chain[3], blocks_as_inputs=True)]
    cases += [design_bipartite(d) for d in mathieu_chain[1:]]
    cases.append(gq)
    for X in cases:
        n, m = X.n_in, X.n_out
        k = int(X.in_degrees()[0])
        r = int(X.out_degrees()[0])
        A = X.inc.astype(float)
        lam2 = sym_eigenvalues(A @ A.T).eigenvalues[1]
        top = min(m / n, 1.0)
        alphas = [a / 10 for a in range(1, 11) if a / 10 <= top]
        if top not in alphas:
            alphas.append(top)
        for alpha in alphas:
            if int(alpha * n + 1e-9) < 1:
                continue
            c = tanner_bound(n, m, k, r, lam2, alpha)
            rep = bsc_check(X, alpha=alpha, c=c)
            assert rep.verdict, (n, m, alpha, c, rep.worst_ratio)


def _bipartite(masks, n_out=64):
    """The bipartite graph whose input v reaches the outputs set in masks[v]."""
    return C.BipartiteGraph([[(mask >> j) & 1 for j in range(n_out)] for mask in masks])


def _alpha(max_size, n_in):
    """An alpha for which bsc_check scans subsets of at most max_size inputs
    (every subset when max_size >= n_in)."""
    max_size = min(max_size, n_in)
    alpha = max_size / n_in
    assert int(alpha * n_in + 1e-9) == max_size
    return alpha


@st.composite
def sparse_masks(draw, bits):
    """Neighbor bitmasks of ``bits`` inputs with at most 3 outputs each, so
    ratios tie often; returns (masks, n_out)."""
    n_out = draw(st.integers(1, 64))
    rows = draw(st.lists(st.frozensets(st.integers(0, n_out - 1), max_size=3),
                         min_size=bits, max_size=bits))
    return [sum(1 << j for j in row) for row in rows], n_out


@st.composite
def sparse_graphs(draw, n):
    """Adjacency of a graph on ``n`` vertices, each joined to at most 3 others
    before symmetrizing, so ratios tie often."""
    rows = draw(st.lists(st.frozensets(st.integers(0, n - 1), max_size=3),
                         min_size=n, max_size=n))
    adj = np.zeros((n, n), dtype=np.int64)
    for v, row in enumerate(rows):
        for j in row:
            if j != v:
                adj[v, j] = adj[j, v] = 1
    return adj


@settings(max_examples=25, deadline=None)
@given(data=st.data(), bits=st.integers(17, 20), max_size=st.integers(1, 4),
       kind=st.sampled_from(["plain", "exclude_self"]))
def test_kernel_matches_python_scan(data, bits, max_size, kind):
    # plain: bsc_check with c = 0, which nothing refutes.  exclude_self: the
    # magnifier, which scans every |X| <= n/2, on at most 19 vertices (two
    # chunks) so that the reference loop stays short.
    if kind == "plain":
        X = _bipartite(*data.draw(sparse_masks(bits)))
        inc = X.inc
        rep = bsc_check(X, alpha=_alpha(max_size, bits), c=0.0)
    else:
        inc = data.draw(sparse_graphs(min(bits, 19)))
        max_size = len(inc) // 2
        rep = magnifier_constant(C.Graph(inc))
    want = oracles.subset_scan(inc, max_size, exclude_self=kind == "exclude_self")
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == want[:3]
    assert rep.verdict or kind == "exclude_self"


def _own_outputs(extra, inputs):
    """Input v reaches output v plus ``extra[v]`` shifted above bit 23, so no
    subset of these inputs has fewer neighbors than elements."""
    return {v: (1 << v) | (extra[v] << 24) for v in inputs}


@settings(max_examples=15, deadline=None)
@given(data=st.data(), bits=st.integers(19, 20), max_size=st.integers(1, 20))
def test_kernel_early_exit_at_end_of_first_chunk(data, bits, max_size):
    # Input 18 reaches nothing, so {18} (mask 2^18, the last of the first
    # block of 2^18 masks) is the first refutation, and the 19th subset in
    # (size, lexicographic) order.
    extra = data.draw(st.lists(st.integers(0, 2**40 - 1), min_size=bits, max_size=bits))
    nbrs = _own_outputs(extra, [v for v in range(bits) if v != 18])
    masks = [nbrs.get(v, 0) for v in range(bits)]
    rep = bsc_check(_bipartite(masks), alpha=_alpha(max_size, bits), c=1.0)
    assert not rep.verdict
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == (0.0, (18,), 19)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), bits=st.integers(19, 20), max_size=st.integers(2, 20))
def test_kernel_early_exit_in_second_chunk(data, bits, max_size):
    # Input 18 reaches only output 0, which is all that input 0 reaches, so
    # {0, 18} (mask 2^18 + 1, the first of the second block of 2^18 masks)
    # is the first set with fewer neighbors than elements, after every
    # singleton and the pairs {0, 1} .. {0, 17}.
    extra = data.draw(st.lists(st.integers(0, 2**40 - 1), min_size=bits, max_size=bits))
    nbrs = _own_outputs(extra, range(1, bits))
    nbrs[0] = nbrs[18] = 1
    masks = [nbrs[v] for v in range(bits)]
    rep = bsc_check(_bipartite(masks), alpha=_alpha(max_size, bits), c=1.0)
    assert not rep.verdict
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == (0.5, (0, 18), bits + 18)


def _expander_matches_oracle(inc, c, restrict_half):
    X = C.BipartiteGraph(np.array(inc, dtype=np.int64))
    rep = expander_check(X, c, restrict_half=restrict_half)
    want = oracles.expander_scan(inc, c, restrict_half)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked, rep.verdict) == want
    return rep


@st.composite
def square_incidences(draw, max_n=10):
    n = draw(st.integers(2, max_n))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=80, deadline=None)
@given(inc=square_incidences(), restrict_half=st.booleans(),
       c=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
def test_expander_kernel_matches_itertools_scan(inc, restrict_half, c):
    rep = _expander_matches_oracle(inc, c, restrict_half)
    failing = _expander_matches_oracle(inc, rep.worst_ratio + 0.25, restrict_half)
    assert not failing.verdict


def _cover(n, steps):
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for s in steps:
            adj[i, (i + s) % n] = adj[(i + s) % n, i] = 1
    return C.extended_double_cover(C.Graph(adj)).inc.tolist()


@pytest.mark.parametrize("restrict_half", [True, False])
@pytest.mark.parametrize(
    "inc",
    [
        np.eye(6, dtype=np.int64).tolist(),  # every subset ties at cmax 0
        np.ones((5, 5), dtype=np.int64).tolist(),
        _cover(8, [1]),
        _cover(9, [1, 3]),
        [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],  # negative cmax
    ],
    ids=["matching", "complete", "cover-c8", "cover-c9-chords", "collisions"],
)
def test_expander_kernel_tied_minima(inc, restrict_half):
    for c in (0.0, 1.0):
        _expander_matches_oracle(inc, c, restrict_half)


def test_expander_kernel_across_chunks():
    # 19 inputs: the half-restricted sets fill masks up to 2^19, two chunks
    rep = _expander_matches_oracle(_cover(19, [1]), 0.5, True)
    assert rep.subsets_checked == 2**18 - 1


def test_expander_tie_across_chunks():
    # {1} (first chunk) and {0, 1, 18} (second chunk, masks from 2^18 + 1) both
    # attain cmax 0; the later one is lexicographically smaller.
    n = 19
    nbrs = {0: {0, 1}, 1: {2}, 18: {0}}
    nbrs.update({i: {i, i + 1, (i + 2) % n} for i in range(2, 18)})
    inc = [[int(j in nbrs[i]) for j in range(n)] for i in range(n)]
    rep = _expander_matches_oracle(inc, 0.5, True)
    assert (rep.worst_ratio, rep.worst_set) == (0.0, (0, 1, 18))


def test_expander_no_eligible_subset():
    X = C.BipartiteGraph(np.ones((1, 1), dtype=np.int64))
    for restrict_half in (True, False):
        with pytest.raises(VerifyError):
            expander_check(X, c=0.5, restrict_half=restrict_half)


def test_sampled_mode_needs_positive_budget():
    with pytest.raises(VerifyError):
        bsc_check(k33(), alpha=1.0, c=1.0, mode="sampled", budget=0, seed=1)
    with pytest.raises(VerifyError):
        expander_check(k33(), c=1.0, mode="sampled", budget=0, seed=1)


@st.composite
def sparse_incidences(draw, max_in, max_out):
    """A bipartite graph with at most 4 outputs per input."""
    n_in = draw(st.integers(1, max_in))
    n_out = draw(st.integers(1, max_out))
    rows = draw(st.lists(st.frozensets(st.integers(0, n_out - 1), max_size=4),
                         min_size=n_in, max_size=n_in))
    return C.BipartiteGraph([[int(j in row) for j in range(n_out)] for row in rows])


def _loop_max_size(n_in, budget=4096):
    """The largest max_size whose subsets of n_in inputs number at most
    ``budget`` (at least 1), which keeps a reference loop short."""
    count, size = n_in, 1
    while size < n_in and count + math.comb(n_in, size + 1) <= budget:
        size += 1
        count += math.comb(n_in, size)
    return size


@settings(max_examples=60, deadline=None)
@given(data=st.data(), c=st.sampled_from([0.0, 0.5, 1.0, 4 / 3, 2.0, 3.0]))
def test_bsc_stops_at_the_first_refuting_subset_below_17_inputs(data, c):
    # On every input count up to 20, one row or the cell table, the scan
    # stops where a loop over the subsets in (size, lexicographic) order
    # stops, with up to 200 outputs (neighbor sets of up to four 64-bit
    # words).
    X = data.draw(sparse_incidences(20, 200))
    max_size = data.draw(st.integers(1, _loop_max_size(X.n_in)))
    rep = bsc_check(X, alpha=_alpha(max_size, X.n_in), c=c)
    ratio, worst, checked, refuted = oracles.subset_scan(X.inc, max_size, target=c)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == (ratio, worst, checked)
    assert rep.verdict is not refuted


def test_bsc_report_does_not_depend_on_output_padding():
    # 17 inputs, input 5 reaches nothing: {5}, the sixth subset, refutes c = 1.
    inc = np.zeros((17, 20), dtype=np.int64)
    for v in range(17):
        if v != 5:
            inc[v, v] = 1
    padded = np.hstack([inc, np.zeros((17, 45), dtype=np.int64)])
    reports = [bsc_check(C.BipartiteGraph(m), alpha=0.5, c=1.0) for m in (inc, padded)]
    assert reports[0] == reports[1]
    assert (reports[0].worst_ratio, reports[0].worst_set, reports[0].subsets_checked) == \
        (0.0, (5,), 6)


@settings(max_examples=40, deadline=None)
@given(X=sparse_incidences(20, 32), n_in=st.integers(13, 20),
       c=st.sampled_from([0.5, 1.0, 4 / 3, 2.0]), data=st.data())
def test_bsc_report_is_the_same_across_word_boundaries(X, n_in, c, data):
    # Neighbor sets are 32-bit words; all-zero output columns that take n_out
    # to 32, 33, 64 and 65 fill one word, spill into a second, fill two and
    # spill into a third.  The report is the loop's in every case.
    inc = np.vstack([X.inc, np.zeros((20, X.n_out), dtype=X.inc.dtype)])[:n_in]
    inc[X.n_in:, : X.n_out] = np.eye(20, X.n_out, dtype=inc.dtype)[X.n_in : n_in]
    max_size = data.draw(st.integers(1, _loop_max_size(n_in)))
    want = oracles.subset_scan(inc, max_size, target=c)
    for n_out in (X.n_out, 32, 33, 64, 65):
        padded = np.hstack([inc, np.zeros((n_in, n_out - X.n_out), dtype=inc.dtype)])
        rep = bsc_check(C.BipartiteGraph(padded), alpha=_alpha(max_size, n_in), c=c)
        assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == want[:3]
        assert rep.verdict is not want[3]


@st.composite
def twin_incidences(draw):
    """13-20 inputs over 5, 32, 33, 64 or 65 outputs (neighbor keys of one
    to three 32-bit words); each input reaches nothing, everything, a copy
    of an earlier input's outputs (a twin) or a random set, so many subsets
    share a neighbor union, within one size and across sizes."""
    n_in = draw(st.integers(13, 20))
    n_out = draw(st.sampled_from([5, 32, 33, 64, 65]))
    rows = []
    for _ in range(n_in):
        kind = draw(st.sampled_from(["empty", "full", "twin", "random"]))
        if kind == "empty":
            rows.append(frozenset())
        elif kind == "full":
            rows.append(frozenset(range(n_out)))
        elif kind == "twin" and rows:
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(draw(st.frozensets(st.integers(0, n_out - 1), max_size=4)))
    return np.array([[int(j in row) for j in range(n_out)] for row in rows], dtype=np.int64)


@settings(max_examples=40, deadline=None)
@given(inc=twin_incidences(), data=st.data())
def test_kernel_cells_match_the_brute_force_minima(inc, data):
    # The kernel takes each cell's least count over distinct neighbor
    # unions only; every cell that holds an eligible subset must still hold
    # the least count over all of its subsets.
    max_size = data.draw(st.integers(1, len(inc)))
    least = verify._Kernel(verify._neighbor_words(inc), max_size).least
    want = oracles.kernel_cells(inc, max_size)
    assert least.shape == (len(want), len(want[0]))
    got = [[int(x) if w is not None else None for x, w in zip(row, wrow)]
           for row, wrow in zip(least.tolist(), want)]
    assert got == want


@pytest.mark.parametrize("empty", [0, 5, 15])
def test_an_input_that_refutes_nothing_leaves_a_refuted_report_unchanged(empty):
    # 16 inputs, input ``empty`` reaching nothing, and the same graph with a
    # 17th input that reaches an output of its own: {empty} is the first
    # refuting subset of both, and the report does not change.
    inc = np.eye(17, dtype=np.int64)
    inc[empty, empty] = 0
    reports = [bsc_check(C.BipartiteGraph(inc[:n, :n]), alpha=0.5, c=1.0) for n in (16, 17)]
    assert reports[0] == reports[1]
    assert (reports[1].worst_ratio, reports[1].worst_set, reports[1].subsets_checked) == \
        (0.0, (empty,), empty + 1) == oracles.subset_scan(inc, 8, target=1.0)[:3]


@settings(max_examples=12, deadline=None)
@given(n_in=st.integers(19, 21), size=st.integers(2, 5), rich=st.sets(st.integers(0, 20)),
       max_size=st.integers(12, 21))
def test_bsc_first_refutation_among_failing_cells_of_several_blocks(n_in, size, rich, max_size):
    # Input v reaches output v, output 63 shared by all inputs, and output
    # 64 + v too when v is rich: |N(X)| = |X| + |X & rich| + 1.  With
    # c = 1 + 1/(size - 1/2) no smaller set fails, and every ``size``-set of
    # inputs that are not rich does.  Their cells span high masks of up to
    # ``size`` bits, more rows than one re-expansion block of 4096 columns
    # holds, and the first of them is the ``size`` least inputs not rich.
    rich = {v for v in rich if v < n_in}
    poor = [v for v in range(n_in) if v not in rich]
    max_size = min(max_size, n_in)
    if len(poor) < size:
        return
    masks = [(1 << v) | (1 << 63) | (int(v in rich) << (64 + v)) for v in range(n_in)]
    X = _bipartite(masks, n_out=64 + n_in)
    c = 1 + 1 / (size - 0.5)
    rep = bsc_check(X, alpha=_alpha(max_size, n_in), c=c)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked, rep.verdict) == \
        (*oracles.subset_scan(X.inc, max_size, target=c)[:3], False)
    assert rep.worst_set == tuple(poor[:size])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.sampled_from([0, 3, 2024]), budget=st.integers(1, 12))
def test_sampled_modes_match_the_reference_loops(data, seed, budget):
    X = data.draw(sparse_incidences(12, 150))
    max_size = data.draw(st.integers(1, X.n_in))
    rep = bsc_check(X, alpha=_alpha(max_size, X.n_in), c=1.0, mode="sampled",
                    budget=budget, seed=seed)
    want = oracles.sampled_scan(X.inc, max_size, False, budget, seed)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == want
    assert rep.verdict == (want[0] >= 1.0 - 1e-12)

    adj = data.draw(sparse_graphs(data.draw(st.integers(2, 12))))
    rep = magnifier_constant(C.Graph(adj), mode="sampled", budget=budget, seed=seed)
    want = oracles.sampled_scan(adj, len(adj) // 2, True, budget, seed)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == want

    inc = data.draw(square_incidences())
    restrict_half = data.draw(st.booleans())
    c = data.draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    rep = expander_check(C.BipartiteGraph(np.array(inc, dtype=np.int64)), c,
                         restrict_half=restrict_half, mode="sampled", budget=budget, seed=seed)
    want = oracles.expander_sampled(inc, c, restrict_half, budget, seed)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked, rep.verdict) == want


# -- the eligible-only kernel against the reference loops ------------------------


@st.composite
def pooled_incidences(draw, min_in, max_in):
    """A bipartite graph with ``min_in``..``max_in`` inputs and 1-70 outputs,
    each input reaching at most 3 outputs of a pool of 8, which straddles
    output 64 when the pool starts at 57-63: ratios tie and fail often, and
    neighbor sets cross the 64-bit word split."""
    n_in = draw(st.integers(min_in, max_in))
    n_out = draw(st.integers(1, 70))
    start = draw(st.integers(0, max(0, n_out - 8)))
    pool = st.integers(start, min(n_out - 1, start + 7))
    rows = draw(st.lists(st.frozensets(pool, max_size=3), min_size=n_in, max_size=n_in))
    return C.BipartiteGraph([[int(j in row) for j in range(n_out)] for row in rows])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), c=st.sampled_from([0.0, 0.5, 1.0, 4 / 3, 2.0, 3.0]))
def test_kernel_matches_the_reference_loops(data, c):
    # bsc on 1-20 inputs: every max_size up to 12 inputs; from 13 inputs
    # max_size <= 3, which keeps the Python loops short.
    X = data.draw(pooled_incidences(1, 20))
    max_size = data.draw(st.integers(1, X.n_in if X.n_in <= 12 else 3))
    rep = bsc_check(X, alpha=_alpha(max_size, X.n_in), c=c)
    ratio, worst, checked, refuted = oracles.subset_scan(X.inc, max_size, target=c)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == (ratio, worst, checked)
    assert rep.verdict is not refuted
    # the magnifier (|X| <= n/2) on up to 14 vertices
    adj = data.draw(sparse_graphs(data.draw(st.integers(2, 14))))
    rep = magnifier_constant(C.Graph(adj))
    want = oracles.subset_scan(adj, len(adj) // 2, exclude_self=True)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == want[:3]
    # the expander on up to 12 inputs, every eligible size
    inc = data.draw(square_incidences(max_n=12))
    _expander_matches_oracle(inc, c, data.draw(st.booleans()))


@st.composite
def late_refutations(draw):
    """17-20 inputs.  Inputs other than 18 reach their own output and up to
    two of outputs 20-29, so no set of them has fewer neighbors than
    elements; input 18 reaches only output v of an input v that reaches
    nothing else, so {v, 18} (mask 2^18 + 2^v, past the first block of 2^18
    masks) refutes c = 1 when there are 19 or 20 inputs.  Returns (graph,
    max_size), the max_size kept to ``_loop_max_size`` where nothing
    refutes."""
    n_in = draw(st.integers(17, 20))
    extra = st.frozensets(st.integers(20, 29), max_size=2)
    rows = [{v} | draw(extra) for v in range(n_in)]
    if n_in > 18:
        v = draw(st.integers(0, 17))
        rows[v], rows[18] = {v}, {v}
    inc = [[int(j in row) for j in range(30)] for row in rows]
    return C.BipartiteGraph(inc), draw(st.integers(1, n_in if n_in > 18 else _loop_max_size(n_in)))


@settings(max_examples=12, deadline=None)
@given(case=late_refutations(), c=st.sampled_from([0.9, 1.0]))
def test_bsc_chunk_exit_matches_the_mask_by_mask_reference(case, c):
    X, max_size = case
    rep = bsc_check(X, alpha=_alpha(max_size, X.n_in), c=c)
    ratio, worst, checked, refuted = oracles.subset_scan(X.inc, max_size, target=c)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == (ratio, worst, checked)
    assert rep.verdict is not refuted
    assert refuted == (X.n_in > 18 and max_size > 1)
    if refuted:
        assert (ratio, len(worst), worst[1]) == (0.5, 2, 18)


@settings(max_examples=8, deadline=None)
@given(X=pooled_incidences(17, 19), c=st.sampled_from([0.5, 1.0, 2.0]),
       max_size=st.integers(1, 19))
def test_bsc_chunk_exit_on_pooled_graphs(X, c, max_size):
    max_size = min(max_size, X.n_in)
    rep = bsc_check(X, alpha=_alpha(max_size, X.n_in), c=c)
    ratio, worst, checked, refuted = oracles.subset_scan(X.inc, max_size, target=c)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == (ratio, worst, checked)
    assert rep.verdict is not refuted


@pytest.mark.parametrize(
    "rows, n_out, worst",
    [
        # ratio 1 at {0, 1, 2} (size 3) and at {3} (size 1): the larger set
        # comes first in lexicographic order
        ([{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {3}], 4, (0, 1, 2)),
        # ratio 2 at {2} and at {0, 1} (N = {0, 1, 2, 3}) and {0, 1, 2}
        ([{0, 1, 2}, {1, 2, 3}, {4, 5}], 6, (0, 1)),
        # across the word split: ratio 1/2 at {0, 1} and at {2, 3, 4, 5}
        ([{63}, {63}, {64, 65}, {64, 65}, {64, 65}, {64, 65}], 70, (0, 1)),
    ],
    ids=["size3-before-size1", "size2-before-size1", "word-split"],
)
def test_float_equal_minima_at_different_sizes(rows, n_out, worst):
    X = C.BipartiteGraph([[int(j in row) for j in range(n_out)] for row in rows])
    for max_size in range(len(worst), X.n_in + 1):
        rep = bsc_check(X, alpha=_alpha(max_size, X.n_in), c=0.0)
        assert rep.worst_set == worst
        assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == \
            oracles.subset_scan(X.inc, max_size)[:3]


def test_scan_where_most_rows_have_no_eligible_subset():
    # 20 inputs and max_size 1: only the high rows of popcount 0 and 1 hold
    # an eligible subset.  {0}, the first singleton, refutes c = 3.
    inc = np.zeros((20, 70), dtype=np.int64)
    for v in range(20):
        inc[v, (3 * v) % 70] = inc[v, 69 - v] = 1
    X = C.BipartiteGraph(inc)
    rep = bsc_check(X, alpha=1 / 20, c=3.0)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked, rep.verdict) == \
        (2.0, (0,), 1, False) == (*oracles.subset_scan(inc, 1, target=3.0)[:3], False)
    rep = magnifier_constant(C.Graph(np.zeros((3, 3), dtype=np.int64)))
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == (0.0, (0,), 3)


def test_refutation_at_size_one_leaves_no_complete_size():
    # Below 17 inputs the scan stops right after {2}, the first refuting set.
    inc = np.ones((9, 4), dtype=np.int64)
    inc[2] = 0
    rep = bsc_check(C.BipartiteGraph(inc), alpha=1.0, c=1.0)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked, rep.verdict) == \
        (0.0, (2,), 3, False)


@pytest.mark.parametrize("which", ["value", "fails"])
def test_non_monotone_table_raises(which):
    from concentrators.verify import _check_monotone, _grid

    size, nbrs = _grid(2, 3)
    value = nbrs / size
    fails = nbrs < size
    _check_monotone(value, fails)
    if which == "value":
        value = -value  # decreases as |N| grows
    else:
        fails = ~fails  # turns true as |N| grows
    with pytest.raises(VerifyError, match="as |N| grows"):
        _check_monotone(value, fails)


@st.composite
def circulants(draw, min_n, max_n):
    """Adjacency of the circulant graph on Z_n joining v to v +- s for each
    s in a nonempty connection set."""
    n = draw(st.integers(min_n, max_n))
    steps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3))
    adj = np.zeros((n, n), dtype=np.int64)
    for v in range(n):
        for s in steps:
            adj[v, (v + s) % n] = adj[(v + s) % n, v] = 1
    return adj


@settings(max_examples=20, deadline=None)
@given(adj=circulants(13, 16))
def test_magnifier_witness_among_cells_of_several_low_popcounts(adj):
    # Every rotation of a circulant's worst set is a worst set too.  When the
    # rotations place different numbers of their elements among the 12 low
    # inputs, as they nearly always do, the cells attaining the least value
    # have several low popcounts, and each is re-expanded over its own group
    # of columns.
    n = len(adj)
    rep = magnifier_constant(C.Graph(adj))
    want = oracles.subset_scan(adj, n // 2, exclude_self=True)
    assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == want[:3]
    assume(len({sum((v + r) % n < 12 for v in rep.worst_set) for r in range(n)}) > 1)


def test_fails_tables_are_cached_read_only_per_shape_and_constant():
    from concentrators.verify import _bsc_fails, _expansion_fails, _fails_table

    for fails in (_bsc_fails, _expansion_fails):
        table = _fails_table(fails, 6, 6, 3, 0.5)
        assert table is _fails_table(fails, 6, 6, 3, 0.5)
        assert not table.flags.writeable
        assert _fails_table(fails, 6, 6, 3, 1.0) is not table
        assert _fails_table(fails, 6, 7, 3, 0.5).shape == (7, 8)


def test_tables_have_a_read_only_row_per_size_with_inf_and_false_outside():
    # A read looks any size up: row 0 and the rows past max_size hold inf in
    # the value tables and False in the fails tables.
    from concentrators.verify import (_bsc_fails, _bsc_ratio, _expansion_fails, _fails_table,
                                      _largest_c, _outside_ratio, _value_table)

    n_in, n_out, max_size = 7, 9, 3
    outside = [0, *range(max_size + 1, n_in + 1)]
    for ratio in (_bsc_ratio, _outside_ratio, _largest_c):
        value = _value_table(ratio, n_in, n_out, max_size)
        assert value.shape == (n_in + 1, n_out + 1) and not value.flags.writeable
        assert np.isinf(value[outside]).all() and np.isfinite(value[1 : max_size + 1]).all()
    for fails in (_bsc_fails, _expansion_fails):
        table = _fails_table(fails, n_in, n_out, max_size, 1.5)
        assert table.shape == (n_in + 1, n_out + 1) and not table.flags.writeable
        assert not table[outside].any() and table[1 : max_size + 1, 0].all()


# -- the one-row read (up to 12 inputs) ----------------------------------------


@st.composite
def tied_blocks(draw, n):
    """n inputs and n outputs in blocks: the inputs of a block, placed at
    random indices, all reach the block's outputs, as many as the block has
    inputs.  Every union of whole blocks has exactly as many neighbors as
    elements, so the bsc ratio 1 and the expander constant 0 are attained at
    several sizes at once, and only the lexicographic rule picks the witness."""
    perm = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    rows = [set()] * n
    for lo, hi in zip(bounds, bounds[1:]):
        for k in range(lo, hi):
            rows[perm[k]] = set(range(lo, hi))
    return C.BipartiteGraph([[int(j in row) for j in range(n)] for row in rows])


def _check_one_row_scans(X, c, max_sizes, adj, square):
    """bsc on ``X`` at each of ``max_sizes`` against ``subset_scan`` with its
    stop rule, the magnifier on ``adj``, and the expander on ``square`` half
    restricted and not, against ``expander_scan``."""
    for max_size in max_sizes:
        rep = bsc_check(X, alpha=_alpha(max_size, X.n_in), c=c)
        ratio, worst, checked, refuted = oracles.subset_scan(X.inc, max_size, target=c)
        assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == (ratio, worst, checked)
        assert rep.verdict is not refuted
    if len(adj) >= 2:
        rep = magnifier_constant(C.Graph(adj))
        want = oracles.subset_scan(adj, len(adj) // 2, exclude_self=True)
        assert (rep.worst_ratio, rep.worst_set, rep.subsets_checked) == want[:3]
        for restrict_half in (True, False):
            _expander_matches_oracle(square.tolist(), c - 0.5, restrict_half)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_in=st.integers(1, 13), c=st.sampled_from([0.5, 1.0, 1.5, 2.0]))
def test_one_row_read_matches_the_reference_loops(data, n_in, c):
    # Up to 12 inputs every scan is the kernel's one row; 13 is the first
    # input count with two rows.  A bsc scan at a drawn max_size, c refuting
    # or not; the magnifier; the expander half restricted and not.
    X = data.draw(st.one_of(tied_blocks(n_in), pooled_incidences(n_in, n_in)))
    row = st.lists(st.integers(0, 1), min_size=n_in, max_size=n_in)
    square = data.draw(st.one_of(tied_blocks(n_in).map(lambda G: G.inc),
                                 st.lists(row, min_size=n_in, max_size=n_in).map(np.array)))
    adj = data.draw(sparse_graphs(n_in))
    _check_one_row_scans(X, c, [data.draw(st.integers(1, n_in))], adj, square)


@pytest.mark.parametrize("n_in", range(1, 17))
def test_one_row_read_at_every_max_size(n_in):
    # Every input count up to 16 (the one row, then the cell table) and
    # every max_size, on tied blocks (float-equal minima at several sizes)
    # placed by a fixed seed.
    rng = np.random.default_rng(n_in)
    cuts = np.flatnonzero(rng.random(n_in - 1) < 0.4) + 1
    perm = rng.permutation(n_in)
    inc = np.zeros((n_in, n_in), dtype=np.int64)
    for lo, hi in zip([0, *cuts], [*cuts, n_in]):
        inc[np.ix_(perm[lo:hi], range(lo, hi))] = 1
    adj = np.triu((rng.random((n_in, n_in)) < 0.3).astype(np.int64), 1)
    for c in (1.0, 1.5):
        _check_one_row_scans(C.BipartiteGraph(inc), c, range(1, n_in + 1), adj + adj.T, inc)


# -- lemma 11: one gather read twice against the two separate checks -------------


def _harness_reference(g, **kw):
    """The harness as two separate checks: the magnifier constant c of ``g``,
    then the extended double cover as an expander with that c."""
    mag = magnifier_constant(g, **kw)
    exp = expander_check(C.extended_double_cover(g), mag.worst_ratio, restrict_half=True, **kw)
    return mag, exp


def _assert_harness_matches_reference(adj, **kw):
    g = C.Graph(adj)
    rep = double_cover_harness(g, **kw)
    mag, exp = _harness_reference(g, **kw)
    assert rep.magnifier == mag
    assert rep.expander == exp
    assert rep.passed is exp.verdict


@st.composite
def mixed_graphs(draw, min_n, max_n):
    """A sparse graph (``sparse_graphs``) or a dense one with a drawn edge
    probability, on ``min_n``..``max_n`` vertices."""
    n = draw(st.integers(min_n, max_n))
    if draw(st.booleans()):
        return draw(sparse_graphs(n))
    p = draw(st.sampled_from([0.2, 0.5, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu((rng.random((n, n)) < p).astype(np.int64), 1)
    return upper + upper.T


@settings(max_examples=120, deadline=None)
@given(adj=mixed_graphs(2, 12))
def test_harness_matches_the_two_checks_on_one_row(adj):
    _assert_harness_matches_reference(adj)


@settings(max_examples=30, deadline=None)
@given(adj=mixed_graphs(13, 20))
def test_harness_matches_the_two_checks_on_the_kernel(adj):
    _assert_harness_matches_reference(adj)


@settings(max_examples=60, deadline=None)
@given(adj=mixed_graphs(2, 30), seed=st.integers(0, 2**40), budget=st.integers(1, 20))
def test_harness_matches_the_two_checks_sampled(adj, seed, budget):
    _assert_harness_matches_reference(adj, mode="sampled", budget=budget, seed=seed)


def _loop_graph(n):
    adj = cycle_graph(n).adj.copy()
    adj[3, 3] = 1
    return adj


def _double_edge_graph(n):
    adj = cycle_graph(n).adj.copy()
    adj[0, 1] = adj[1, 0] = 2
    return adj


@pytest.mark.parametrize(
    "adj, kw",
    [
        (_loop_graph(24), {}),
        (_double_edge_graph(24), {}),
        (_loop_graph(24), {"mode": "sampled", "seed": 1}),
        (_loop_graph(24), {"mode": "sampled"}),
        (_loop_graph(25), {}),
        (np.ones((1, 1), dtype=np.int64), {}),
        (np.zeros((1, 1), dtype=np.int64), {"mode": "bogus"}),
        (_loop_graph(6), {"mode": "bogus"}),
    ],
    ids=["loop24", "double-edge24", "loop24-sampled", "loop24-no-seed", "loop25",
         "one-vertex-loop", "one-vertex-bad-mode", "loop6-bad-mode"],
)
def test_harness_rejects_bad_input_before_any_gather(monkeypatch, adj, kw):
    # The error of the two separate checks, in their order: the magnifier's
    # own (which it raises before its gather), else the double cover's.
    def no_gather(*args):
        raise AssertionError("gathered")

    monkeypatch.setattr(verify, "_gather", no_gather)
    g = C.Graph(adj)
    with pytest.raises((VerifyError, GraphError, AssertionError)) as first:
        magnifier_constant(g, **kw)
    if first.type is AssertionError:
        with pytest.raises(GraphError) as first:
            C.extended_double_cover(g)
    with pytest.raises(first.type, match=f"^{re.escape(str(first.value))}$"):
        double_cover_harness(g, **kw)
