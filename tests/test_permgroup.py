import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import concentrators as C
from concentrators.permgroup import (
    GroupError,
    Permutation,
    closure,
    compose,
    conjugacy_classes,
    from_cycles,
    inverse,
    orbit_of_set,
    right_cosets,
    seeded_rng,
    trivial_group,
)


def apply_chain(p, q, point):
    """Independent composition oracle: apply q, then p, one point at a time."""
    return p.images[q.images[point]]


def test_involution_composes_to_identity():
    swap = from_cycles([(0, 1)], 2)
    assert compose(swap, swap) == Permutation(tuple(range(2)))


def test_identity_law():
    p = from_cycles([(0, 2, 1)], 4)
    assert compose(p, Permutation(tuple(range(4)))) == p
    assert compose(Permutation(tuple(range(4))), p) == p


def test_three_cycle_squares():
    p = from_cycles([(0, 1, 2)], 3)
    assert compose(p, p) == from_cycles([(0, 2, 1)], 3)


def test_compose_matches_pointwise_oracle_over_s3():
    elements = [Permutation(t) for t in itertools.permutations(range(3))]
    for p in elements:
        for q in elements:
            r = compose(p, q)
            assert all(r.images[i] == apply_chain(p, q, i) for i in range(3))


def test_compose_degree_mismatch():
    with pytest.raises(GroupError):
        compose(Permutation(tuple(range(2))), Permutation(tuple(range(3))))


def test_non_bijection_rejected():
    with pytest.raises(GroupError):
        Permutation((0, 0, 1))


@given(st.permutations(list(range(6))))
def test_inverse_roundtrip(images):
    p = Permutation(tuple(images))
    assert compose(p, inverse(p)) == Permutation(tuple(range(6)))
    assert compose(inverse(p), p) == Permutation(tuple(range(6)))


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_inverse_antihomomorphism(a, b):
    p, q = Permutation(tuple(a)), Permutation(tuple(b))
    assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))


def test_from_cycles_fixed_points():
    p = from_cycles([(1, 3)], 5)
    assert p.images == (0, 3, 2, 1, 4)


def test_closure_s3(s3):
    assert len(s3) == 6
    assert s3.identity() == Permutation(tuple(range(3)))


def test_closure_trivial():
    assert len(trivial_group(4)) == 1


def test_closure_cap():
    with pytest.raises(GroupError, match="cap"):
        closure(4, C.symmetric_group(4).generators, cap=3)


def test_closure_deterministic_order(s3):
    again = C.symmetric_group(3)
    assert [p.images for p in again.elements] == [p.images for p in s3.elements]


def test_closure_random_pairs_closed(s4):
    rng = seeded_rng(42)
    n = len(s4)
    for _ in range(100):
        a, b = rng.integers(0, n, size=2)
        assert s4._find(compose(s4.elements[a], s4.elements[b]).images)[1]


def test_group_orders():
    assert len(C.cyclic_group(7)) == 7
    assert len(C.alternating_group(4)) == 12
    assert len(C.alternating_group(5)) == 60
    assert len(C.symmetric_group(5)) == 120


def test_right_cosets_s3_a3(s3, a3):
    part = right_cosets(s3, a3)
    assert len(part) == 2
    assert all(len(c) == 3 for c in part.cosets)


def test_right_cosets_s3_swap(s3, swap01):
    part = right_cosets(s3, swap01)
    assert len(part) == 3
    assert all(len(c) == 2 for c in part.cosets)


def test_cosets_partition(s4):
    h = closure(4, [from_cycles([(0, 1)], 4), from_cycles([(2, 3)], 4)])
    part = right_cosets(s4, h)
    seen = sorted(i for coset in part.cosets for i in coset)
    assert seen == list(range(len(s4)))
    assert len(part) * len(h) == len(s4)


def test_not_subgroup_rejected(s3, a3, swap01):
    with pytest.raises(GroupError):
        right_cosets(a3, swap01)  # same degree, not contained
    with pytest.raises(GroupError):
        right_cosets(s3, C.symmetric_group(4))  # degree mismatch


def test_conjugacy_classes_s3(s3):
    sizes = sorted(len(c) for c in conjugacy_classes(s3))
    assert sizes == [1, 2, 3]


def test_conjugacy_classes_s4_brute_force(s4):
    classes = conjugacy_classes(s4)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    # independent oracle: all-pairs conjugation
    for members in classes:
        x = s4.elements[members[0]]
        orbit = s4.lookup([compose(compose(g, x), inverse(g)).images for g in s4.elements])
        assert set(orbit.tolist()) == set(members)
    assert classes[0] == (0,)
    assert sum(len(c) for c in classes) == len(s4)
    assert all(len(s4) % len(c) == 0 for c in classes)


def test_conjugacy_classes_abelian(z6):
    assert all(len(c) == 1 for c in conjugacy_classes(z6))


def test_orbit_singleton_under_rotation():
    rot = from_cycles([(0, 1, 2)], 3)
    assert orbit_of_set([rot], {0}) == ((0,), (1,), (2,))


def test_orbit_fixed_under_identity():
    assert orbit_of_set([Permutation(tuple(range(5)))], {1, 3}) == ((1, 3),)


def test_orbit_generator_stable():
    from concentrators.permgroup import MATHIEU12_BASE_BLOCK, MATHIEU12_GENERATORS

    blocks = set(orbit_of_set(MATHIEU12_GENERATORS, MATHIEU12_BASE_BLOCK))
    for block in blocks:
        for g in MATHIEU12_GENERATORS:
            assert tuple(sorted(g.images[x] for x in block)) in blocks


def test_sample_frequencies_z4(z4):
    draws = 10**5
    rng = seeded_rng(2024)
    picks = rng.integers(0, len(z4), size=draws)
    counts = np.bincount(picks, minlength=4)
    p = 1 / 4
    sigma = np.sqrt(p * (1 - p) / draws)
    for c in counts:
        assert abs(c / draws - p) < 3 * sigma
