import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concentrators as C
from concentrators.designs import design_bipartite
from concentrators.spectral import sym_eigenvalues, tanner_bound
from concentrators.verify import (
    VerifyError,
    _scan_numpy,
    _scan_python,
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
    masks = []
    for row in inc:
        m = 0
        for j in np.nonzero(row)[0]:
            m |= 1 << int(j)
        masks.append(m)
    metric = lambda size, union, mask: (union.bit_count(), size)
    best_py, checked_py, _ = _scan_python(masks, 17, 8, metric, None, False)
    best_np, checked_np, _ = _scan_numpy(masks, 17, 8, "plain", None, False)
    assert checked_py == checked_np
    assert best_py[0] * best_np[1] == best_np[0] * best_py[1]
    assert best_py[2] == best_np[2]


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


def _plain(size, union, mask):
    return union.bit_count(), size


def _exclude_self(size, union, mask):
    return (union & ~mask).bit_count(), size


@st.composite
def sparse_masks(draw, bits):
    """Neighbor bitmasks of ``bits`` inputs with at most 3 outputs each, so
    ratios tie often."""
    n_out = draw(st.integers(1, 64))
    rows = draw(st.lists(st.frozensets(st.integers(0, n_out - 1), max_size=3),
                         min_size=bits, max_size=bits))
    return [sum(1 << j for j in row) for row in rows]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), bits=st.integers(17, 20), max_size=st.integers(1, 4),
       kind=st.sampled_from(["plain", "exclude_self"]))
def test_kernel_matches_python_scan(data, bits, max_size, kind):
    masks = data.draw(sparse_masks(bits))
    metric = _plain if kind == "plain" else _exclude_self
    fast = _scan_numpy(masks, bits, max_size, kind, None, False)
    assert fast == _scan_python(masks, bits, max_size, metric, None, False)
    assert fast[2] is None


def _own_outputs(extra, inputs):
    """Input v reaches output v plus ``extra[v]`` shifted above bit 23, so no
    subset of these inputs has fewer neighbors than elements."""
    return {v: (1 << v) | (extra[v] << 24) for v in inputs}


@settings(max_examples=15, deadline=None)
@given(data=st.data(), bits=st.integers(19, 20), max_size=st.integers(1, 20))
def test_kernel_early_exit_at_end_of_first_chunk(data, bits, max_size):
    # Chunks are [1, 2^18 + 1), [2^18 + 1, 2^19 + 1), ...  Input 18 reaches
    # nothing, so the first refutation is mask 2^18, the last of the first chunk.
    extra = data.draw(st.lists(st.integers(0, 2**40 - 1), min_size=bits, max_size=bits))
    nbrs = _own_outputs(extra, [v for v in range(bits) if v != 18])
    masks = [nbrs.get(v, 0) for v in range(bits)]
    best, checked, refuted = _scan_numpy(masks, bits, max_size, "plain", 1.0, True)
    assert refuted == best == (0, 1, 1 << 18)
    # every eligible mask below 2^18, and 2^18 itself
    assert checked == sum(math.comb(18, s) for s in range(1, min(max_size, 18) + 1)) + 1


@settings(max_examples=15, deadline=None)
@given(data=st.data(), bits=st.integers(19, 20), max_size=st.integers(2, 20))
def test_kernel_early_exit_in_second_chunk(data, bits, max_size):
    # Input 18 reaches only output 0, which is all that input 0 reaches, so
    # {0, 18} (mask 2^18 + 1, the first of the second chunk) is the first set
    # with fewer neighbors than elements, and the only one at ratio 1/2 there.
    extra = data.draw(st.lists(st.integers(0, 2**40 - 1), min_size=bits, max_size=bits))
    nbrs = _own_outputs(extra, range(1, bits))
    nbrs[0] = nbrs[18] = 1
    masks = [nbrs[v] for v in range(bits)]
    best, checked, refuted = _scan_numpy(masks, bits, max_size, "plain", 1.0, True)
    assert refuted == best == (1, 2, (1 << 18) | 1)
    # every eligible mask below 2^19, and 2^19 itself when there are 20 inputs
    below = sum(math.comb(19, s) for s in range(1, min(max_size, 19) + 1))
    assert checked == below + (bits > 19)


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
