"""Differential tests: the array-backed group core against per-element oracles."""

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import concentrators as C
from concentrators import characters, permgroup
from concentrators.characters import _class_matrices
from concentrators.graphs import BicosetGraphs, CosetGraphs
from concentrators.montecarlo import cayley_operator
from concentrators.permgroup import (
    MATHIEU12_GENERATORS,
    FiniteGroup,
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
    assert part.cosets[:, 0].tolist() == list(reps)
    assert part.coset_of.tolist() == list(coset_of)
    assert part.cosets.tolist() == [list(c) for c in cosets]


def assert_same_classes(G):
    expected = oracles.conjugacy_classes(images(G), [g.images for g in G.generators])
    assert conjugacy_classes(G) == expected


def dihedral(n):
    """The dihedral group of order 2n acting on n points."""
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    flip = Permutation(tuple((-i) % n for i in range(n)))
    return closure(n, [rot, flip], name=f"D{n}")


@st.composite
def block_product_sets(draw, max_blocks=3, max_block=4):
    """Generators of a direct product of small groups on disjoint point
    blocks, the blocks scattered over the points, with generators repeated
    and the identity among them.  Their stabilizer chains have several
    levels, and the base points need not be the least points."""
    sizes = draw(st.lists(st.integers(1, max_block), min_size=1, max_size=max_blocks))
    degree = sum(sizes)
    points = draw(st.permutations(range(degree)))
    gens = []
    for end, size in zip(np.cumsum(sizes).tolist(), sizes):
        block = points[end - size : end]
        for _ in range(draw(st.integers(0, 2))):
            images = list(range(degree))
            for p, q in zip(block, draw(st.permutations(block))):
                images[p] = q
            gens.append(tuple(images))
    extra = st.sampled_from([*gens, tuple(range(degree))])
    gens = draw(st.permutations(gens + draw(st.lists(extra, min_size=1, max_size=3))))
    return degree, [Permutation(g) for g in gens]


def cycle_spec(degree, cycles):
    return degree, [from_cycles(c, degree) for c in cycles]


# Z3 x Z2 x S3 on {1, 3, 7}, {2, 5}, {4, 6, 8}, with point 0 fixed, the Z3
# generator repeated and the identity among the generators: base points 1, 2,
# 4, 6.  D4 on {1, 3, 6, 7} times A4 on {2, 4, 5, 8}: base points 1, 2, 3, 4.
# Each with the cap at its order and one below.
Z3_Z2_S3 = cycle_spec(9, [[(1, 3, 7)], [(4, 6)], [(1, 3, 7)], [(4, 6, 8)], [], [(2, 5)]])
D4_A4 = cycle_spec(9, [[(1, 6)], [(2, 4, 5)], [(1, 3, 6, 7)], [], [(4, 5, 8)]])


@settings(max_examples=120, deadline=None)
@given(st.one_of(generator_sets(), block_product_sets()), st.integers(1, 800))
@example(Z3_Z2_S3, 36)
@example(Z3_Z2_S3, 35)
@example(D4_A4, 96)
@example(D4_A4, 95)
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
    classes, class_of = characters._class_structure(G)
    assert classes == conjugacy_classes(G) and not class_of.flags.writeable
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


def test_closure_refuses_s12_before_enumerating():
    # |S12| = 479001600 is past the default cap.  The stabilizer chain shows
    # it before any element is built: enumerating up to the cap first took a
    # 58 MiB peak.
    gens = [from_cycles([(0, 1)], 12), Permutation(tuple((i + 1) % 12 for i in range(12)))]
    tracemalloc.start()
    try:
        with pytest.raises(GroupError) as got:
            closure(12, gens)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert str(got.value) == (
        "closure exceeded the enumeration cap of 1000000 elements; "
        "raise `cap` explicitly if the group really is this large"
    )
    assert peak < 1


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
    # The 12-point group's closure peaks near 5.2 MiB of numpy allocations,
    # during the search: the rows, the table over ranks and one level's
    # candidates.  Upcasting each whole row array to uint64 for its keys once
    # took it to 13.5 MiB.
    tracemalloc.start()
    try:
        G = closure(12, MATHIEU12_GENERATORS)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(G) == 95040
    assert peak < 8


# -- lookups on both sides of the sorted-needle threshold ------------------------

def _needles(G, count, seed):
    """``count`` int64 rows mixing elements of G, bijections outside G (when
    G is not the whole symmetric group) and rows with a point out of range."""
    rng = np.random.default_rng(seed)
    rows = G.rows[rng.integers(0, len(G), count)].astype(np.int64)
    kind = rng.integers(0, 3, count)
    outside = kind == 1
    rows[outside] = rows[outside][:, [1, 0, *range(2, G.degree)]]
    bad = np.flatnonzero(kind == 2)
    rows[bad, rng.integers(0, G.degree, len(bad))] = rng.choice([-1, G.degree, 255, 300], len(bad))
    return rows


@pytest.mark.parametrize(
    "G",
    [C.symmetric_group(4), C.symmetric_group(5), C.alternating_group(6),
     closure(12, MATHIEU12_GENERATORS[:5]),
     closure(17, [from_cycles([(0, 16)], 17), from_cycles([(12, 13, 14, 15, 16)], 17)])],
    ids=["S4", "S5", "A6", "M11", "S6-deg17"],
)
def test_find_agrees_on_both_sides_of_the_sort_threshold(G):
    # S4 and S5 have fewer than _SORTED_FIND_ORDER elements, so only A6, M11
    # and the row-byte keys of S6 on 17 points take the sorted path, from
    # _SORTED_FIND_NEEDLES needles on.
    index = {p.images: i for i, p in enumerate(G.elements)}
    n0 = permgroup._SORTED_FIND_NEEDLES
    for count in (n0 - 1, n0, 4 * n0):
        rows = _needles(G, count, seed=count)
        in_range = ((rows >= 0) & (rows < 256)).all(axis=1)
        for variant in (rows, rows.astype(np.int16), rows[in_range].astype(np.uint8),
                        rows[in_range].astype(np.uint16)):
            want = [index.get(tuple(r)) for r in variant.tolist()]
            idx, found = G._find(variant)
            assert found.tolist() == [w is not None for w in want]
            assert idx[found].tolist() == [w for w in want if w is not None]
        idx, found = G._find(rows)
        assert 0 < found.sum() < count
        # A 3-D (..., degree) input gives the same answers in its leading shape.
        even = count - count % 2
        idx3, found3 = G._find(rows[:even].reshape(2, -1, G.degree))
        assert idx3.shape == found3.shape == (2, even // 2)
        assert np.array_equal(found3.ravel(), found[:even])
        assert np.array_equal(idx3.ravel()[found[:even]], idx[:even][found[:even]])
        # lookup returns the same indices when every row is found, and names
        # the first row that is not.
        hits = idx[found].tolist()
        assert G.lookup(rows[found]).tolist() == hits
        assert G.lookup(rows[found].reshape(1, -1, G.degree)).tolist() == [hits]
        first_miss = tuple(rows[np.argmin(found)].tolist())
        with pytest.raises(GroupError, match=re.escape(repr(first_miss))):
            G.lookup(rows)


@pytest.fixture(scope="module")
def m12_classes(m12):
    return conjugacy_classes(m12)


def test_m12_classes_partition_the_group(m12, m12_classes):
    assert len(m12_classes) == 15
    members = np.concatenate([np.array(c) for c in m12_classes])
    assert np.array_equal(np.sort(members), np.arange(len(m12)))
    assert [c[0] for c in m12_classes] == sorted(c[0] for c in m12_classes)
    assert all(list(c) == sorted(c) for c in m12_classes)
    assert all(95040 % len(c) == 0 for c in m12_classes)


def test_m12_classes_are_closed_under_conjugation(m12, m12_classes):
    class_of = np.empty(len(m12), dtype=np.intp)
    for c, members in enumerate(m12_classes):
        class_of[list(members)] = c
    x = m12.rows.astype(np.intp)
    for g in m12.generators:
        g = np.array(g.images)
        ginv = np.argsort(g)
        # g x g^-1 maps p to g(x(g^-1(p))).
        assert np.array_equal(class_of[m12.lookup(g[x[:, ginv]])], class_of)


# -- the bitwise row check of FiniteGroup against the scatter oracle -------------

def _row_error(rows, degree):
    try:
        FiniteGroup(degree=degree, generators=(), rows=rows)
    except GroupError as exc:
        return str(exc)
    return None


def _row_cases(degree, seed):
    """(label, rows) at ``degree``: distinct random bijections, then rows that
    miss one point (in either 64-point word), rows with a point out of range
    and rows that repeat an element."""
    rng = np.random.default_rng(seed)
    dtype = _row_dtype(degree)
    perms = {tuple(range(degree))}
    while len(perms) < min(math.factorial(degree), 6):
        perms.add(tuple(rng.permutation(degree).tolist()))
    valid = np.array(sorted(perms), dtype=dtype)
    cases = [("valid", valid)]
    for missing in sorted({0, degree // 2, degree - 1, 63, 64} & set(range(degree))):
        if degree == 1:
            break
        bad = valid.copy()
        i = int(rng.integers(len(bad)))
        p = int(np.flatnonzero(bad[i] == missing)[0])
        bad[i, p] = bad[i, (p + 1) % degree]
        cases.append((f"point {missing} missing", bad))
    for value in sorted({degree, np.iinfo(dtype).max}):
        bad = valid.copy()
        bad[-1, degree - 1] = value
        cases.append((f"point {value} out of range", bad))
    cases.append(("repeated element", np.concatenate([valid, valid[-1:]])))
    return cases


@pytest.mark.parametrize("degree", [1, 2, 8, 9, 16, 17, 64, 65])
def test_row_check_matches_the_scatter_oracle(degree):
    cases = _row_cases(degree, seed=degree)
    labels = [label for label, _ in cases]
    assert "valid" in labels and "repeated element" in labels
    assert any("out of range" in label for label in labels)
    assert degree == 1 or any("missing" in label for label in labels)
    for label, rows in cases:
        want = oracles.group_row_error(rows, degree)
        assert _row_error(rows, degree) == want, label
        if "out of range" not in label:
            assert permgroup._hits_every_point(rows, degree) == ("missing" not in label), label
    if degree == 65:
        # the second word alone: every point but 64 hit
        assert {label for label, _ in cases} >= {"point 63 missing", "point 64 missing"}


@pytest.mark.parametrize(
    "build",
    [*(functools.partial(C.symmetric_group, n) for n in range(1, 8)),
     *(functools.partial(C.alternating_group, n) for n in (4, 5, 6)),
     lambda: closure(12, MATHIEU12_GENERATORS[:5], name="M11"),
     C.mathieu12_group],
    ids=[*(f"S{n}" for n in range(1, 8)), "A4", "A5", "A6", "M11", "M12"],
)
def test_closure_rows_match_oracle(build):
    G = build()
    expected = oracles.closure(G.degree, [g.images for g in G.generators], 10**6)
    assert list(map(tuple, G.rows.tolist())) == expected


# -- one coset partition for both sides of a bi-coset graph with N = L ------------

def assert_shared_partition(G, H):
    graphs = BicosetGraphs(G, H, H)
    assert graphs.outputs is graphs.inputs
    reps, coset_of, cosets = oracles.right_cosets(images(G), images(H))
    part = graphs.inputs
    assert part.cosets[:, 0].tolist() == list(reps)
    assert part.coset_of.tolist() == list(coset_of)
    assert part.cosets.tolist() == [list(c) for c in cosets]


@settings(max_examples=40, deadline=None)
@given(group_and_subgroup())
def test_bicoset_graphs_with_n_is_l_match_the_oracle_partition(groups):
    assert_shared_partition(*groups)


def test_bicoset_graphs_on_m12_over_m11_share_the_oracle_partition(m12):
    assert_shared_partition(m12, closure(12, MATHIEU12_GENERATORS[:5], name="M11"))


# -- coset partitions and class maps as read-only index arrays --------------------

def is_read_only_ints(a):
    return isinstance(a, np.ndarray) and a.dtype.kind == "i" and not a.flags.writeable


def assert_holds_partition_arrays(graphs, parts):
    """The graph builder's partitions are read-only index arrays, and every
    array it holds with a partition array's values is that array itself."""
    arrays = [a for part in parts for a in (part.coset_of, part.cosets)]
    assert all(is_read_only_ints(a) for a in arrays)
    for held in vars(graphs).values():
        for a in arrays:
            if isinstance(held, np.ndarray) and held.shape == a.shape and np.array_equal(held, a):
                assert np.shares_memory(held, a)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_partition_arrays_are_read_only_match_the_oracle_and_are_not_copied(n):
    G = C.symmetric_group(n)
    L = closure(n, [from_cycles([(0, 1)], n)])
    N = C.alternating_group(n)
    for H in (L, N):
        part = right_cosets(G, H)
        _, coset_of, cosets = oracles.right_cosets(images(G), images(H))
        assert is_read_only_ints(part.coset_of) and is_read_only_ints(part.cosets)
        assert part.coset_of.tolist() == list(coset_of)
        assert part.cosets.tolist() == [list(c) for c in cosets]
    class_of = characters.character_table(G).class_of
    classes = oracles.conjugacy_classes(images(G), [g.images for g in G.generators])
    expected = {m: c for c, members in enumerate(classes) for m in members}
    assert is_read_only_ints(class_of)
    assert class_of.tolist() == [expected[i] for i in range(len(G))]
    coset_graphs = CosetGraphs(G, L)
    assert_holds_partition_arrays(coset_graphs, [coset_graphs.partition])
    for graphs in (BicosetGraphs(G, L, N), BicosetGraphs(G, L, L)):
        assert_holds_partition_arrays(graphs, [graphs.inputs, graphs.outputs])


# -- class matrices from batched lookups ------------------------------------------

@pytest.mark.parametrize("batch_rows", [1, 7, 50])
@pytest.mark.parametrize("build", [C.symmetric_group, C.alternating_group])
@pytest.mark.parametrize("n", [4, 5])
def test_batched_class_matrices_match_oracle(monkeypatch, batch_rows, build, n):
    # 1 and 7 rows give batches of one element, 50 rows several elements with
    # a short last batch; the default batch holds all of these groups.
    monkeypatch.setattr(characters, "_CONJ_BATCH_ROWS", batch_rows)
    G = build(n)
    classes, class_of = characters._class_structure(G)
    assert classes == conjugacy_classes(G)
    assert class_of.tolist() == [{m: c for c, ms in enumerate(classes) for m in ms}[i]
                                 for i in range(len(G))]
    mats = _class_matrices(G, classes, class_of)
    assert mats.tolist() == oracles.class_matrices(images(G), classes)
