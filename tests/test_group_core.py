"""Differential tests: the array-backed group core against per-element oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concentrators as C
from concentrators.characters import _class_matrices
from concentrators.montecarlo import cayley_operator
from concentrators.permgroup import (
    GroupError,
    Permutation,
    closure,
    conjugacy_classes,
    from_cycles,
    right_cosets,
)

import oracles


@st.composite
def generator_sets(draw, max_degree=6, max_gens=3):
    degree = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=max_gens))
    return degree, [Permutation(tuple(g)) for g in gens]


@st.composite
def group_and_subgroup(draw, max_degree=5):
    degree, gens = draw(generator_sets(max_degree=max_degree))
    G = closure(degree, gens)
    picks = draw(st.lists(st.integers(0, len(G) - 1), max_size=2))
    H = closure(degree, [G.elements[i] for i in picks])
    return G, H


def images(G):
    return [p.images for p in G.elements]


def assert_same_partition(G, H):
    part = right_cosets(G, H)
    reps, coset_of, cosets = oracles.right_cosets(images(G), images(H))
    assert [G.index_of(r) for r in part.representatives] == list(reps)
    assert part.coset_of == coset_of
    assert part.cosets == cosets


def assert_same_classes(G):
    expected = oracles.conjugacy_classes(images(G), [g.images for g in G.generators])
    assert conjugacy_classes(G) == expected


def dihedral(n):
    """The dihedral group of order 2n acting on n points."""
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    flip = Permutation(tuple((-i) % n for i in range(n)))
    return closure(n, [rot, flip], name=f"D{n}")


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.integers(1, 800))
def test_closure_matches_oracle_and_cap(spec, cap):
    degree, gens = spec
    try:
        expected = oracles.closure(degree, [g.images for g in gens], cap)
    except GroupError as exc:
        with pytest.raises(GroupError) as got:
            closure(degree, gens, cap=cap)
        assert str(got.value) == str(exc)
        return
    G = closure(degree, gens, cap=cap)
    assert images(G) == expected
    assert [G.index[e] for e in expected] == list(range(len(expected)))


@settings(max_examples=40, deadline=None)
@given(group_and_subgroup())
def test_cosets_and_classes_match_oracle(groups):
    G, H = groups
    assert_same_partition(G, H)
    assert_same_classes(G)


@settings(max_examples=25, deadline=None)
@given(group_and_subgroup(max_degree=4), st.data())
def test_graph_builders_match_oracle(groups, data):
    G, H = groups
    picks = data.draw(st.lists(st.integers(0, len(G) - 1), min_size=1, max_size=3))
    S = [G.elements[i] for i in picks]
    S_img = [s.images for s in S]
    els = images(G)
    assert C.cayley_graph(G, S).adj.tolist() == oracles.cayley_adjacency(els, S_img)
    assert cayley_operator(G, tuple(S)).tolist() == oracles.cayley_operator(els, S_img)
    assert C.coset_graph(G, H, S).adj.tolist() == oracles.coset_adjacency(els, images(H), S_img)
    inc = C.bicoset_graph(G, H, G, S).inc.tolist()
    assert inc == oracles.bicoset_incidence(els, images(H), els, S_img)
    inc = C.bicoset_graph(G, H, H, S).inc.tolist()
    assert inc == oracles.bicoset_incidence(els, images(H), images(H), S_img)


@pytest.mark.parametrize("build", [C.symmetric_group, C.alternating_group])
@pytest.mark.parametrize("n", [4, 5])
def test_class_matrices_match_oracle(build, n):
    G = build(n)
    classes = conjugacy_classes(G)
    class_of = [0] * len(G)
    for c, members in enumerate(classes):
        for m in members:
            class_of[m] = c
    mats = _class_matrices(G, classes, class_of)
    assert mats.tolist() == oracles.class_matrices(images(G), classes)


@pytest.mark.parametrize(
    "G, H",
    [
        (C.cyclic_group(20), closure(20, [Permutation(tuple((i + 5) % 20 for i in range(20)))])),
        (dihedral(300), closure(300, [Permutation(tuple((-i) % 300 for i in range(300)))])),
        (dihedral(300), closure(300, [Permutation(tuple((i + 100) % 300 for i in range(300)))])),
    ],
    ids=["Z20", "D300-flip", "D300-rot3"],
)
def test_large_degree_matches_oracle(G, H):
    gens = [g.images for g in G.generators]
    assert images(G) == oracles.closure(G.degree, gens, 10**6)
    assert_same_partition(G, H)
    assert_same_classes(G)


def test_large_degree_cap_matches_oracle():
    rot = Permutation(tuple((i + 1) % 300 for i in range(300)))
    with pytest.raises(GroupError) as exc:
        oracles.closure(300, [rot.images], 299)
    with pytest.raises(GroupError) as got:
        closure(300, [rot], cap=299)
    assert str(got.value) == str(exc.value)


def test_row_dtype_is_smallest_unsigned():
    assert C.cyclic_group(256).rows.dtype == np.uint8
    assert C.cyclic_group(257).rows.dtype == np.uint16
    assert C.symmetric_group(4).rows.dtype == np.uint8


def test_rows_and_views_are_read_only(s4):
    with pytest.raises(ValueError):
        s4.rows[0, 0] = 1
    with pytest.raises(TypeError):
        s4.elements[0] = s4.elements[1]
    with pytest.raises(TypeError):
        s4.index[(0, 1, 2, 3)] = 5


def test_lookup_vectorized_and_rejects_non_members(s4):
    a4 = C.alternating_group(4)
    idx = s4.lookup(a4.rows)
    assert [s4.elements[i] for i in idx] == list(a4.elements)
    assert s4.lookup(s4.rows[[[3, 1], [0, 2]]]).tolist() == [[3, 1], [0, 2]]
    odd = from_cycles([(0, 1)], 4)
    with pytest.raises(GroupError, match="not an element"):
        a4.lookup(np.array([a4.rows[2], odd.images]))


def test_index_mapping_contract(s3):
    assert len(s3.index) == 6
    assert list(s3.index) == images(s3)
    assert s3.index[(1, 0, 2)] == images(s3).index((1, 0, 2))
    for bad in [(0, 1), (0, 0, 1), (0, 1, 3), (-1, 0, 1), "abc", (0.5, 1, 2)]:
        assert bad not in s3.index
        with pytest.raises(KeyError):
            s3.index[bad]


def test_elements_view_is_lazy_sequence(s4):
    els = s4.elements
    assert len(els) == 24
    assert els[-1] == els[23]
    assert els[2:5] == (els[2], els[3], els[4])
    assert from_cycles([(0, 1)], 4) in els
    assert from_cycles([(0, 1)], 5) not in els
    with pytest.raises(IndexError):
        els[24]


def test_user_permutation_still_validated():
    with pytest.raises(GroupError):
        Permutation((0, 2, 2))
