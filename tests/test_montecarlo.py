import math

import numpy as np
import pytest

import concentrators as C
from concentrators.montecarlo import (
    MonteCarloError,
    aggregate_rows,
    cayley_operator,
    enumerate_cayley_tail,
    enumerate_coset_tail,
    render_csv,
    render_json,
    run_bicoset_trials,
    run_cayley_trials,
    run_coset_trials,
)
from concentrators.permgroup import (
    Permutation,
    compose,
    inverse,
    seeded_rng,
    trivial_group,
)

import oracles


def plus(z, k):
    n = z.degree
    return z.elements[int(z.lookup(tuple((i + k) % n for i in range(n))))]


def sample_multiset(G, k, seed):
    """k uniform draws, with replacement, from G's element list."""
    return tuple(G.elements[i] for i in seeded_rng(seed).integers(0, len(G), size=k))


def product_multisets(S):
    """(B, B*) with B = {s_i s_j^-1 over ordered pairs} and B* = B minus the
    k diagonal identity copies.  Off-diagonal identity collisions stay in B*."""
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


def shifted_product_spectrum_matches(G, S, tol=1e-8):
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
    A = C.bicayley_graph(G, S).inc.astype(float)
    M = A @ A.T / (2.0 * k * k)
    _, b_star = product_multisets(S)
    op = cayley_operator(G, b_star)
    nu = np.array(C.sym_eigenvalues(op).eigenvalues)
    mapped = np.sort(((k * k - k) * nu + k) / (2.0 * k * k))
    report = C.sym_eigenvalues(M)
    direct = np.sort(np.array(report.eigenvalues))
    if not np.allclose(mapped, direct, atol=tol):
        return False
    by_abs = np.sort(np.abs(mapped))[::-1]
    return bool(abs(by_abs[1] - report.mu_star) <= tol)


def test_product_multisets_singleton(z5):
    B, Bstar = product_multisets((plus(z5, 2),))
    assert B == (Permutation(tuple(range(5))),)
    assert Bstar == ()


def test_product_multisets_z5_pair(z5):
    S = (plus(z5, 1), plus(z5, 2))
    B, Bstar = product_multisets(S)
    assert len(B) == 4 and len(Bstar) == 2
    shifts = sorted(p.images[0] for p in Bstar)
    assert shifts == [1, 4]  # +1 and -1
    assert sorted(p.images[0] for p in B) == [0, 0, 1, 4]


def test_product_multiset_inverse_closed(s4):
    S = sample_multiset(s4, 5, 77)
    B, Bstar = product_multisets(S)
    for multiset in (B, Bstar):
        counts = {}
        for p in multiset:
            counts[p.images] = counts.get(p.images, 0) + 1
        for p in multiset:
            assert counts[p.images] == counts[inverse(p).images]


def test_cardinalities_without_collisions(z6):
    S = (plus(z6, 1), plus(z6, 2), plus(z6, 4))
    B, Bstar = product_multisets(S)
    assert len(B) == 9 and len(Bstar) == 6


def test_cayley_operator_row_sums(s3):
    S = (s3.elements[1], s3.elements[2], s3.elements[2])
    op = cayley_operator(s3, S)
    assert np.allclose(op.sum(axis=1), 1.0)
    assert np.allclose(op, op.T)


def test_trial_determinism(s3):
    a = run_cayley_trials(s3, k=3, eps=0.5, trials=20, seed=99)
    b = run_cayley_trials(s3, k=3, eps=0.5, trials=20, seed=99)
    assert a == b
    c = run_cayley_trials(s3, k=3, eps=0.5, trials=20, seed=100)
    assert a.mu_values != c.mu_values


def test_trials_validation(s3):
    with pytest.raises(MonteCarloError):
        run_cayley_trials(s3, k=0, eps=0.5, trials=5, seed=1)
    with pytest.raises(MonteCarloError):
        run_cayley_trials(s3, k=2, eps=0.5, trials=0, seed=1)


def test_one_element_group_has_no_mu_star():
    z1 = C.cyclic_group(1)
    with pytest.raises(MonteCarloError, match="at least 2 elements"):
        run_cayley_trials(z1, k=2, eps=0.5, trials=3, seed=1)
    with pytest.raises(MonteCarloError, match="at least 2 elements"):
        enumerate_cayley_tail(z1, 2, 0.5)


def test_one_coset_has_no_mu_star(s3):
    with pytest.raises(MonteCarloError, match="at least 2 cosets"):
        enumerate_coset_tail(s3, s3, 2, 0.5)


def test_z2_exact_distribution_enumerable():
    z2 = C.cyclic_group(2)
    tail, total = enumerate_cayley_tail(z2, 1, 0.5)
    assert total == 2
    # both draws (identity or the swap) give |mu*| = 1
    assert tail == 1.0
    batch = run_cayley_trials(z2, k=1, eps=0.5, trials=50, seed=3)
    assert batch.empirical_tail == 1.0


def test_enumeration_cap():
    z5 = C.cyclic_group(5)
    with pytest.raises(MonteCarloError):
        enumerate_cayley_tail(z5, 7, 0.5)


def test_monte_carlo_matches_enumeration_z3():
    z3 = C.cyclic_group(3)
    eps = 0.5
    exact, total = enumerate_cayley_tail(z3, 2, eps)
    trials = 400
    batch = run_cayley_trials(z3, k=2, eps=eps, trials=trials, seed=11)
    se = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
    assert abs(batch.empirical_tail - exact) <= 3 * se + 1e-12


def test_coset_reduction_to_trivial_subgroup(s3):
    # same per-trial draws; the coset graph on {1} is the symmetrized support
    triv = trivial_group(3)
    seed, k = 5, 3
    rng_draws = [
        tuple(int(i) for i in seeded_rng(seed, t).integers(0, len(s3), size=k))
        for t in range(4)
    ]
    for t, picks in enumerate(rng_draws):
        S = tuple(s3.elements[i] for i in picks)
        cg = C.coset_graph(s3, triv, S)
        sym_support = C.cayley_graph(s3, S + tuple(inverse(s) for s in S)).adj > 0
        assert np.array_equal(cg.adj > 0, sym_support)


def test_coset_trials_s3_a3_exact_tail(s3, a3):
    eps = 0.6
    exact, total = enumerate_coset_tail(s3, a3, 2, eps)
    assert total == 36
    batch = run_coset_trials(s3, a3, k=2, eps=eps, trials=500, seed=21)
    se = math.sqrt(max(exact * (1 - exact), 1e-12) / 500)
    assert abs(batch.empirical_tail - exact) <= 3 * se + 1e-12
    assert batch.bounds[0][0] == "paper" and batch.bounds[1][0] == "support"


def test_bicoset_dimension_guard(s3):
    with pytest.raises(MonteCarloError):
        run_bicoset_trials(s3, s3, s3, k=2, eps=0.3, trials=3, seed=1)
    with pytest.raises(MonteCarloError):
        run_bicoset_trials(s3, trivial_group(3), trivial_group(3), k=1, eps=0.3, trials=3, seed=1)


def test_bicoset_top_eigenvalue_is_half_for_bicayley(z5):
    triv = trivial_group(5)
    batch = run_bicoset_trials(z5, triv, triv, k=3, eps=0.3, trials=10, seed=8)
    assert all(abs(t - 0.5) < 1e-9 for t in batch.top_values)
    assert batch.threshold == pytest.approx(0.3 + 0.7 / 6)


def test_bicoset_thm18_example_surfaces_outcome(s3, a3, swap01):
    batch = run_bicoset_trials(s3, swap01, a3, k=6, eps=0.4, trials=200, seed=11)
    assert batch.threshold == pytest.approx(0.45)
    bounds = dict(batch.bounds)
    assert bounds["support"] == pytest.approx(6.4e-5, abs=1e-6)
    # the tail inequality either holds or the batch carries the falsification
    if batch.empirical_tail > batch.bound:
        assert batch.falsified()
        assert len(batch.violating_trials) == round(batch.empirical_tail * batch.trials)
    else:
        assert not batch.falsified()


def test_shifted_product_spectrum_consistency(z5, z6):
    checked = 0
    skipped = 0
    for G in (z5, z6):
        for seed in range(8):
            S = sample_multiset(G, 3, seed)
            result = shifted_product_spectrum_matches(G, S)
            if result is None:
                assert len(set(S)) < len(S)
                skipped += 1
            else:
                # distinct elements give the diagonal the spectrum map needs
                els, one = [p.images for p in G.elements], [tuple(range(G.degree))]
                A = np.array(oracles.bicoset_incidence(els, one, one, [s.images for s in S]))
                assert np.all(np.diag(A @ A.T) == len(S))
                assert result is True
                checked += 1
    assert checked >= 5  # distinct-element draws dominate


def test_aggregate_empty():
    assert aggregate_rows([]) == []
    assert render_csv([]).startswith("variant,")


def test_aggregate_rows_ordering_and_formats(s3, a3):
    b1 = run_cayley_trials(s3, k=4, eps=0.5, trials=10, seed=1)
    b2 = run_cayley_trials(s3, k=2, eps=0.5, trials=10, seed=1)
    b3 = run_coset_trials(s3, a3, k=2, eps=0.4, trials=10, seed=1)
    rows = aggregate_rows([b1, b2, b3])
    keys = [(r["group"], r["k"], r["eps"]) for r in rows]
    assert keys == sorted(keys)
    csv_text = render_csv(rows)
    json_text = render_json(rows)
    assert len(csv_text.strip().splitlines()) == 4
    # CSV and JSON encode identical numbers at 12 significant digits
    import json as _json

    parsed = _json.loads(json_text)
    csv_lines = csv_text.strip().splitlines()
    header = csv_lines[0].split(",")
    for row_obj, line in zip(parsed, csv_lines[1:]):
        cells = dict(zip(header, line.split(",")))
        for col in ("eps", "threshold", "empirical_tail", "bound_paper", "bound_support"):
            assert float(cells[col]) == row_obj[col]
