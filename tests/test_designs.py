import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concentrators as C
from concentrators import designs
from concentrators.designs import (
    DISPUTED_REFERENCE_TUPLES,
    Design,
    DesignError,
    bibd_params,
    bibd_spectrum_check,
    contraction,
    derived_count,
    design_bibd,
    design_bipartite,
    golay_codewords,
    golay_generator_matrix,
    validate_design,
)
from concentrators.permgroup import (
    MATHIEU12_GENERATORS,
    right_cosets,
    compose,
)

import oracles


def test_validate_d12(mathieu_chain):
    d12 = mathieu_chain[0]
    ok, witness = validate_design(d12)
    assert ok and witness is None


def test_validate_complete_design():
    blocks = tuple(itertools.combinations(range(5), 3))
    d = Design(v=5, blocks=blocks, t=2, gamma=3)
    ok, _ = validate_design(d)
    assert ok


def test_validate_mutation_produces_witness(mathieu_chain):
    d12 = mathieu_chain[0]
    broken = Design(v=12, blocks=d12.blocks[1:], t=5, gamma=1)
    ok, witness = validate_design(broken)
    assert not ok
    subset, count = witness
    assert len(subset) == 5 and count != 1


def test_validate_cap():
    blocks = tuple(itertools.combinations(range(30), 8))[:10]
    d = Design(v=30, blocks=blocks, t=5, gamma=1)
    with pytest.raises(DesignError, match="cap"):
        validate_design(d, cap=10**3)


@pytest.mark.parametrize(
    "t,v,k,expected",
    [
        (5, 24, 8, (24, 759, 253, 8, 77)),
        (3, 22, 6, (22, 77, 21, 6, 5)),
        (4, 23, 7, (23, 253, 77, 7, 21)),
        (5, 12, 6, (12, 132, 66, 6, 30)),
        (4, 11, 5, (11, 66, 30, 5, 12)),
        (3, 10, 4, (10, 30, 12, 4, 4)),
        (2, 9, 3, (9, 12, 4, 3, 1)),
    ],
)
def test_bibd_params_from_formula(t, v, k, expected):
    params = bibd_params(t, v, k, 1)
    assert params.as_tuple() == expected
    assert params.identities_hold()


def test_derived_count_non_integer_signals_nonexistence():
    # 2-(7,4,1): b = 7*6/(4*3) is fractional
    assert derived_count(2, 7, 4, 1, 0) is None
    assert bibd_params(2, 7, 4, 1) is None


def test_disputed_reference_tuples_fail_identities():
    for key, quoted in DISPUTED_REFERENCE_TUPLES.items():
        t, v, k, gamma = key
        v_q, b_q, r_q, k_q, lam_q = quoted
        assert b_q * k_q != v_q * r_q  # the quoted tuple is inconsistent
        derived = bibd_params(t, v, k, gamma)
        assert derived.identities_hold()


def test_contraction_chain_from_witt(witt24):
    c1 = contraction(witt24, 0)
    assert (c1.t, c1.v, c1.k, c1.b) == (4, 23, 7, 253)
    ok, _ = validate_design(c1)
    assert ok
    c2 = contraction(c1, 0)
    assert (c2.t, c2.v, c2.b) == (3, 22, 77)
    ok, _ = validate_design(c2)
    assert ok


def test_contraction_default_point(mathieu_chain):
    d12 = mathieu_chain[0]
    d11 = contraction(d12)
    assert (d11.t, d11.v, d11.k) == (4, 11, 5)
    assert d11.b == 66


def test_contraction_point_range(mathieu_chain):
    with pytest.raises(DesignError):
        contraction(mathieu_chain[0], 12)


def test_golay_generator_is_self_dual():
    gen = golay_generator_matrix()
    assert gen.shape == (12, 24)
    assert np.array_equal(gen[:, :12], np.eye(12, dtype=np.int64))
    assert (gen @ gen.T % 2).sum() == 0


def test_golay_weight_distribution():
    words = golay_codewords()
    assert words.shape == (4096, 24)
    weights = words.sum(axis=1)
    hist = {int(w): int(c) for w, c in zip(*np.unique(weights, return_counts=True))}
    assert hist == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    assert all(w % 4 == 0 for w in hist)


def test_golay_witt_design_is_steiner(witt24):
    assert witt24.b == 759
    ok, _ = validate_design(witt24)
    assert ok
    assert 759 * math.comb(8, 5) == math.comb(24, 5)


def test_mathieu_chain_parameters(mathieu_chain):
    tuples = [design_bibd(d).as_tuple() for d in mathieu_chain]
    assert tuples == [
        (12, 132, 66, 6, 30),
        (11, 66, 30, 5, 12),
        (10, 30, 12, 4, 4),
        (9, 12, 4, 3, 1),
    ]


def test_counting_identities_hold_for_corpus(mathieu_chain, witt24):
    for d in list(mathieu_chain) + [witt24]:
        params = design_bibd(d)
        assert params.b == d.b
        assert params.identities_hold()
        assert math.comb(d.v, d.t) * d.gamma == d.b * math.comb(d.k, d.t)


def test_design_bipartite_d9(mathieu_chain):
    d9 = mathieu_chain[3]
    g = design_bipartite(d9)
    assert (g.n_in, g.n_out) == (9, 12)
    assert set(int(x) for x in g.in_degrees()) == {4}
    assert set(int(x) for x in g.out_degrees()) == {3}
    flipped = design_bipartite(d9, blocks_as_inputs=True)
    assert (flipped.n_in, flipped.n_out) == (12, 9)
    assert np.array_equal(flipped.inc, g.inc.T)


def test_design_bipartite_witt(witt24):
    g = design_bipartite(witt24)
    assert (g.n_in, g.n_out) == (24, 759)
    assert set(int(x) for x in g.in_degrees()) == {253}
    assert set(int(x) for x in g.out_degrees()) == {8}


@pytest.mark.parametrize("index,top,flat", [(0, 396.0, 36.0), (3, 12.0, 3.0)])
def test_bibd_spectrum_chain(mathieu_chain, index, top, flat):
    report = bibd_spectrum_check(mathieu_chain[index])
    assert report.ok
    assert report.eigenvalues[0] == pytest.approx(top, rel=1e-9)
    assert report.eigenvalues[1] == pytest.approx(flat, rel=1e-9)
    assert report.mu1 == pytest.approx(math.sqrt(flat), abs=1e-6)
    assert report.ramanujan


def test_bibd_spectrum_witt(witt24):
    report = bibd_spectrum_check(witt24)
    assert report.ok
    assert report.eigenvalues[0] == pytest.approx(2024.0, rel=1e-9)
    assert report.eigenvalues[1] == pytest.approx(176.0, rel=1e-9)
    assert report.mu1 == pytest.approx(math.sqrt(176.0), abs=1e-6)
    assert report.ramanujan


def test_semi_transitivity_d12(mathieu_chain):
    d12 = mathieu_chain[0]
    X = design_bipartite(d12)
    pairs = [(g.images, oracles.induced_block_permutation(d12, g.images))
             for g in MATHIEU12_GENERATORS]
    assert oracles.semi_transitivity_check(X.inc.tolist(), pairs)


def test_semi_transitivity_identity_only_fails():
    X = C.BipartiteGraph(np.eye(2, dtype=np.int64))
    pairs = [((0, 1), (0, 1))]
    assert not oracles.semi_transitivity_check(X.inc.tolist(), pairs)


def test_semi_transitivity_right_multiplication_on_bicayley(s3):
    X = C.bicayley_graph(s3, [s3.elements[1], s3.elements[2]])
    triv = right_cosets(s3, C.closure(3, []))
    pairs = []
    for a in s3.generators:
        images = tuple(s3.lookup([compose(g, a).images for g in s3.elements]).tolist())
        pairs.append((images, images))
    assert oracles.semi_transitivity_check(X.inc.tolist(), pairs)


def test_semi_transitivity_right_multiplication_on_invariant_bicoset(s4):
    # S right-L-invariant: the action by right multiplication is well-defined
    L = C.closure(4, [C.from_cycles([(0, 1)], 4)], name="L")
    base = [s4.elements[5], s4.elements[9]]
    S = tuple(compose(s, l) for s in base for l in L.elements)
    X = C.bicoset_graph(s4, L, L, S)
    in_part = right_cosets(s4, L)
    pairs = []
    for a in s4.generators:
        moved = s4.lookup([compose(s4.elements[rep], a).images for rep in in_part.cosets[:, 0]])
        imgs = tuple(in_part.coset_of[moved].tolist())
        pairs.append((imgs, imgs))
    assert oracles.semi_transitivity_check(X.inc.tolist(), pairs)


def test_induced_block_permutation_rejects_non_automorphism(mathieu_chain):
    d9 = mathieu_chain[3]
    with pytest.raises(DesignError):
        oracles.induced_block_permutation(d9, C.from_cycles([(0, 1)], 9).images)


def test_empty_design_rejected():
    with pytest.raises(DesignError):
        Design(v=5, blocks=(), t=2, gamma=1)


def test_contracting_valid_design_stays_valid(mathieu_chain, witt24):
    for d in [mathieu_chain[0], witt24]:
        cur = d
        while cur.t > 1:
            cur = contraction(cur)
            ok, _ = validate_design(cur)
            assert ok


# -- the ranked count against the dict-count oracle -----------------------------

def _mutated(d):
    """d with its last block replaced by the first block with its largest
    point swapped for the least point outside it: t-subsets shared with the
    first block count twice, and the dropped block's own ones go missing."""
    first = d.blocks[0]
    spare = next(x for x in range(d.v) if x not in first)
    moved = (*first[:-1], spare)
    return Design(v=d.v, blocks=(*d.blocks[:-1], moved), t=d.t, gamma=d.gamma)


def test_validate_matches_dict_oracle(mathieu_chain, witt24):
    for d in (*mathieu_chain, witt24):
        for case in (d, _mutated(d)):
            assert validate_design(case) == oracles.validate_design(case, case.t, case.gamma)
        # The mutant has a t-subset in two blocks and one in none.
        counts = Counter(s for b in _mutated(d).blocks for s in itertools.combinations(b, d.t))
        assert max(counts.values()) == 2 and len(counts) < math.comb(d.v, d.t)


def test_validate_in_small_batches_matches_dict_oracle(monkeypatch, mathieu_chain, witt24):
    # 40 subsets a pass: several blocks a pass on the 12-point chain, one
    # block (56 subsets) a pass on the 24-point design.
    monkeypatch.setattr(designs, "_RANK_BATCH", 40)
    for d in (*mathieu_chain, _mutated(mathieu_chain[0]), _mutated(witt24)):
        assert validate_design(d) == oracles.validate_design(d, d.t, d.gamma)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_validate_random_designs_match_dict_oracle(data):
    v = data.draw(st.integers(2, 9))
    k = data.draw(st.integers(1, v - 1))
    t = data.draw(st.integers(1, k))
    blocks = data.draw(st.lists(st.permutations(range(v)).map(lambda p: p[:k]), min_size=1,
                                max_size=12))
    d = Design(v=v, blocks=tuple(blocks), t=t, gamma=data.draw(st.integers(1, 3)))
    assert validate_design(d) == oracles.validate_design(d, t, d.gamma)


@pytest.mark.parametrize("t, gamma", [(2, 1), (2, 30), (3, 12), (4, 4), (1, 66), (1, 5)])
def test_validate_override_matches_dict_oracle(mathieu_chain, t, gamma):
    d12 = mathieu_chain[0]
    assert validate_design(d12, t=t, gamma=gamma) == oracles.validate_design(d12, t, gamma)


def test_validate_witness_is_lexicographically_first():
    # Blocks are pairs: every pair once, except {0, 4} (in no block) and
    # {1, 2} (in two).  {0, 4} comes first in lexicographic order, {1, 2} has
    # the smaller colexicographic rank.
    pairs = [p for p in itertools.combinations(range(5), 2) if p != (0, 4)]
    d = Design(v=5, blocks=(*pairs, (1, 2)), t=2, gamma=1)
    expected = oracles.validate_design(d, 2, 1)
    assert expected[1][0] == (0, 4)
    assert validate_design(d, gamma=1) == expected


@pytest.mark.parametrize("t, gamma", [(0, 1), (-1, 1), (2, 0), (2, -2)])
def test_strength_and_count_must_be_positive(mathieu_chain, t, gamma):
    with pytest.raises(DesignError, match="t >= 1 and gamma >= 1"):
        Design(v=6, blocks=((0, 1, 2),), t=t, gamma=gamma)
    with pytest.raises(DesignError, match="t >= 1 and gamma >= 1"):
        validate_design(mathieu_chain[0], t=t, gamma=gamma)


def test_fixed_designs_are_built_once_and_read_only():
    words = golay_codewords()
    assert golay_codewords() is words
    with pytest.raises(ValueError):
        words[0, 0] = 1
    assert not words.flags.writeable
    assert C.golay_witt_design() is C.golay_witt_design()
    assert C.mathieu12_designs() is C.mathieu12_designs()
