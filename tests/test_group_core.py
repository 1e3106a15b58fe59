"""Differential tests: the array-backed group core against per-element oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concentrators as C
from concentrators.characters import _class_matrices
from concentrators.montecarlo import cayley_operator
from concentrators.permgroup import (
    MATHIEU12_GENERATORS,
    GroupError,
    Permutation,
    _keys,
    _row_dtype,
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


# -- the key boundary: packed uint64 keys up to degree 16, row bytes above ------

@st.composite
def sparse_generator_sets(draw, min_degree=13, max_degree=18, max_gens=3, max_moved=5):
    """Generators that each move at most ``max_moved`` points, so that some
    closures finish under a small cap and others hit it."""
    degree = draw(st.integers(min_degree, max_degree))
    gens = []
    for _ in range(draw(st.integers(0, max_gens))):
        moved = draw(st.lists(st.integers(0, degree - 1), unique=True, max_size=max_moved))
        images = list(range(degree))
        for point, image in zip(moved, draw(st.permutations(moved))):
            images[point] = image
        gens.append(Permutation(tuple(images)))
    return degree, gens


@settings(max_examples=60, deadline=None)
@given(sparse_generator_sets(), st.integers(1, 300))
def test_closure_at_the_key_boundary_matches_oracle_and_cap(spec, cap):
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
    assert G.lookup(np.array(expected, dtype=np.int64)).tolist() == list(range(len(expected)))


@pytest.mark.parametrize("degree", range(13, 19))
def test_keys_separate_rows_differing_in_two_adjacent_points(degree):
    # Rows that differ only in the images of points p and p+1: a key with too
    # few bits a point, or one that loses the last point, merges some of them.
    base = np.arange(degree)[::-1]
    a, b = np.divmod(np.arange(degree * degree), degree)
    rows = []
    for p in range(degree - 1):
        r = np.tile(base, (degree * degree, 1))
        r[:, p], r[:, p + 1] = a, b
        rows.append(r)
    rows = np.unique(np.concatenate(rows), axis=0).astype(_row_dtype(degree))
    assert len(np.unique(_keys(rows))) == len(rows)


def boundary_group(degree):
    """S4 on the points 0 and degree-3..degree-1: its rows put each of those
    points, degree-1 included, in the last position."""
    top = degree - 1
    return closure(degree, [from_cycles([(0, top)], degree),
                            from_cycles([(top - 2, top - 1, top)], degree)])


def near_misses(G):
    """Rows one change away from an element: the last image replaced by every
    other point (a repeated image), and the images of points 0 and 1 swapped (a
    bijection outside G)."""
    rows = G.rows.astype(np.int64)
    out = [rows[:, [1, 0, *range(2, G.degree)]]]
    for v in range(G.degree):
        r = rows[rows[:, -1] != v].copy()
        r[:, -1] = v
        out.append(r)
    return np.concatenate(out)


def out_of_range(G, values):
    """Each element with one image replaced by each of ``values`` outside
    0..degree-1."""
    rows = G.rows.astype(np.int64)
    out = []
    for p in range(G.degree):
        for v in [v for v in values if not 0 <= v < G.degree]:
            r = rows.copy()
            r[:, p] = v
            out.append(r)
    return np.concatenate(out)


@pytest.mark.parametrize("degree", [16, 17])
def test_lookup_at_the_key_boundary(degree):
    G = boundary_group(degree)
    assert len(G) == 24 and G.rows.dtype == np.uint8
    # At degree 16, image 15 in the last position sets bit 63 of the key.
    assert (G.rows[:, -1] == degree - 1).sum() == 6
    idx = np.arange(24)
    assert G.lookup(G.rows).tolist() == idx.tolist()
    assert G.lookup(G.rows[::-1].astype(np.int64)).tolist() == idx[::-1].tolist()
    got, found = G._find(G.rows.reshape(4, 6, degree))
    assert got.tolist() == idx.reshape(4, 6).tolist() and found.all()
    misses = near_misses(G)
    for rows in (misses, misses.astype(np.uint8)):
        assert not G._find(rows)[1].any()
        with pytest.raises(GroupError, match="not an element"):
            G.lookup(rows[-1:])
    mixed = np.concatenate([misses, G.rows])
    got, found = G._find(mixed)
    assert found.tolist() == [False] * len(misses) + [True] * 24
    assert got[found].tolist() == idx.tolist()


@pytest.mark.parametrize("degree", [16, 17])
def test_out_of_range_rows_are_not_found(degree):
    G = boundary_group(degree)
    wide = out_of_range(G, [-1, -16, degree, 16, 17, 31, 255, 256, 2**40])
    narrow = out_of_range(G, range(degree, 256)).astype(np.uint8)
    for rows in (wide, narrow):
        assert not G._find(rows)[1].any()
        with pytest.raises(GroupError, match="not an element"):
            G.lookup(rows)
        got, found = G._find(np.concatenate([G.rows.astype(rows.dtype), rows]))
        assert found.sum() == 24 and got[:24].tolist() == list(range(24))
    with pytest.raises(KeyError):
        G.index[(degree + 15, *range(1, degree))]


def test_closure_peak_memory_on_m12():
    # The 12-point group's closure peaks near 6.7 MiB of numpy allocations;
    # upcasting each whole row array to uint64 for its keys took it to 13.5 MiB.
    tracemalloc.start()
    try:
        G = closure(12, MATHIEU12_GENERATORS)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(G) == 95040
    assert peak < 8
