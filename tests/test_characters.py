import math

import numpy as np
import pytest

import concentrators as C
from concentrators import characters
from concentrators.characters import (
    BoundInputs,
    CharacterError,
    bound_eval,
    character_table,
    dim_sum_D,
    dim_sum_DGH,
    trivial_restriction_multiplicities,
    weighted_entropy,
)
from concentrators.fileio import load_group
from concentrators.permgroup import FiniteGroup, closure, from_cycles, trivial_group


def test_s3_degrees(s3, s3_table):
    assert s3_table.degrees == (1, 1, 2)
    assert sum(d * d for d in s3_table.degrees) == 6


def test_s4_degrees(s4, s4_table):
    assert s4_table.degrees == (1, 1, 2, 3, 3)
    assert sum(d * d for d in s4_table.degrees) == 24


def test_abelian_degrees(z6):
    table = character_table(z6)
    assert table.degrees == (1,) * 6
    assert table.n_classes == 6


def test_dihedral8_degrees():
    # dihedral group of order 8: degrees 1,1,1,1,2
    d4 = closure(4, [from_cycles([(0, 1, 2, 3)], 4), from_cycles([(0, 2)], 4)])
    assert len(d4) == 8
    assert character_table(d4).degrees == (1, 1, 1, 1, 2)


def test_row_orthogonality_residual(s4_table):
    sizes = np.array(s4_table.class_sizes, dtype=float)
    gram = (s4_table.chars * sizes) @ s4_table.chars.conj().T / 24
    assert np.max(np.abs(gram - np.eye(5))) < 1e-8


def test_column_orthogonality(s4_table):
    chars = s4_table.chars
    sizes = np.array(s4_table.class_sizes, dtype=float)
    col = chars.conj().T @ chars
    expected = np.diag(24 / sizes)
    assert np.max(np.abs(col - expected)) < 1e-7


def test_identity_column_carries_degrees(s4_table):
    assert np.allclose(s4_table.chars[:, 0].real, s4_table.degrees)
    assert np.allclose(s4_table.chars[:, 0].imag, 0.0)


def test_table_deterministic(s3):
    t1 = character_table(s3)
    t2 = character_table(s3)
    assert t1.degrees == t2.degrees
    assert np.array_equal(t1.chars, t2.chars)


def test_dim_sum_values(s3, s4, z6, s3_table, s4_table):
    assert dim_sum_D(s3, s3_table) == 4
    assert dim_sum_D(s4, s4_table) == 10
    assert dim_sum_D(z6) == 6


@pytest.mark.parametrize("n", range(2, 7))
def test_dim_sum_D_counts_involutions_of_symmetric_groups(n):
    # Every irreducible of S_n is real, so by Frobenius-Schur the degrees sum
    # to #{g : g^2 = 1}, counted here from the rows without a character table.
    G = C.symmetric_group(n)
    rows = G.rows.astype(np.intp)
    squares = np.take_along_axis(rows, rows, axis=1)
    assert dim_sum_D(G) == int((squares == np.arange(n)).all(axis=1).sum())


def test_dim_sum_bounds(s4, s4_table):
    D = dim_sum_D(s4, s4_table)
    assert math.sqrt(24) < D <= 24


def test_dim_sum_of_the_one_element_group_is_one():
    # D = sqrt|G| = |G| = 1: the only group where the lower bound is attained
    G = C.cyclic_group(1)
    table = character_table(G)
    assert table.degrees == (1,)
    assert dim_sum_D(G, table) == 1


def test_dgh_variants_s3(s3, swap01, s3_table):
    assert dim_sum_DGH(s3, swap01, "paper", s3_table) == 1
    assert dim_sum_DGH(s3, swap01, "support", s3_table) == 2


def test_dgh_trivial_subgroup(s3, s3_table):
    triv = trivial_group(3)
    assert dim_sum_DGH(s3, triv, "paper", s3_table) == 0
    assert dim_sum_DGH(s3, triv, "support", s3_table) == dim_sum_D(s3, s3_table) - 1


def test_dgh_whole_group(s3, s3_table):
    assert dim_sum_DGH(s3, s3, "paper", s3_table) == dim_sum_D(s3, s3_table) - 1
    assert dim_sum_DGH(s3, s3, "support", s3_table) == 0


def test_dgh_monotone_in_subgroup(s3, a3, swap01, s3_table):
    chains = [
        [trivial_group(3), swap01, s3],
        [trivial_group(3), a3, s3],
    ]
    for chain in chains:
        vals = [dim_sum_DGH(s3, h, "paper", s3_table) for h in chain]
        assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_restriction_multiplicities(s3, a3, s3_table):
    mults = trivial_restriction_multiplicities(s3, a3, s3_table)
    # trivial and sign restrict to the A3-trivial; the 2-dim does not
    assert sorted(mults) == [0, 1, 1]


def test_unknown_variant_rejected(s3, swap01):
    with pytest.raises(CharacterError):
        dim_sum_DGH(s3, swap01, "other")


def test_entropy_at_p_is_zero():
    for p in (0.1, 0.5, 0.9):
        assert weighted_entropy(p, p) == pytest.approx(0.0, abs=1e-12)


def test_entropy_boundaries():
    assert weighted_entropy(0.5, 1.0) == pytest.approx(math.log(2), abs=1e-12)
    assert weighted_entropy(0.5, 0.0) == pytest.approx(math.log(2), abs=1e-12)
    assert weighted_entropy(0.5, 0.9) == pytest.approx(0.368064, abs=1e-5)


def test_entropy_domain():
    with pytest.raises(CharacterError):
        weighted_entropy(0.0, 0.5)
    with pytest.raises(CharacterError):
        weighted_entropy(0.5, 1.5)


def test_entropy_convex_on_grid():
    xs = np.linspace(0.0, 1.0, 101)
    vals = [weighted_entropy(0.5, x) for x in xs]
    for i in range(1, 100):
        assert vals[i] <= (vals[i - 1] + vals[i + 1]) / 2 + 1e-12


def test_entropy_pinsker_grid():
    for eps in np.linspace(0.0, 0.5, 51):
        assert weighted_entropy(0.5, 0.5 + eps) >= 2 * eps * eps - 1e-12


def test_bound_thm14_example():
    tb = bound_eval(BoundInputs(D_value=4, k=40, eps=0.5, variant="thm14"))
    assert tb.threshold == 0.5
    expected = 8 * math.exp(-40 * weighted_entropy(0.5, 0.75))
    assert tb.bound == pytest.approx(expected, rel=1e-12)
    assert tb.bound == pytest.approx(0.0427, abs=2e-4)
    assert not tb.vacuous


def test_bound_thm18_vacuous_at_k1():
    tb = bound_eval(BoundInputs(D_value=3, k=1, eps=0.3, variant="thm18"))
    assert tb.bound == pytest.approx(6.0)
    assert tb.vacuous


def test_bound_thm18_example():
    tb = bound_eval(BoundInputs(D_value=2, k=6, eps=0.4, variant="thm18"))
    assert tb.threshold == pytest.approx(0.45)
    assert tb.bound == pytest.approx(4 * math.exp(-30 * weighted_entropy(0.5, 0.9)), rel=1e-12)
    assert tb.bound == pytest.approx(6.4e-5, abs=1e-6)


def test_bound_monotone_in_k():
    for variant in ("thm14", "thm18"):
        vals = [
            bound_eval(BoundInputs(D_value=5, k=k, eps=0.3, variant=variant)).bound
            for k in range(1, 30)
        ]
        assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_bound_thm15_matches_thm14_shape(s3, s3_table):
    # same formula with a different dimension sum plugged in
    D = dim_sum_D(s3, s3_table)
    a = bound_eval(BoundInputs(D_value=D, k=12, eps=0.4, variant="thm14"))
    b = bound_eval(BoundInputs(D_value=D, k=12, eps=0.4, variant="thm15"))
    assert a.bound == b.bound and a.threshold == b.threshold


def test_bound_input_validation():
    with pytest.raises(CharacterError):
        BoundInputs(D_value=2, k=0, eps=0.5, variant="thm14")
    with pytest.raises(CharacterError):
        BoundInputs(D_value=2, k=3, eps=1.2, variant="thm14")
    with pytest.raises(CharacterError):
        BoundInputs(D_value=2, k=3, eps=0.5, variant="bogus")
    with pytest.raises(CharacterError):
        bound_eval(BoundInputs(D_value=2, k=3, eps=0.7, variant="thm18"))


def test_class_cap_enforced():
    big = C.cyclic_group(61)
    with pytest.raises(CharacterError, match="cap"):
        character_table(big)


def test_failed_tables_are_not_kept():
    big = C.cyclic_group(61)
    for _ in range(2):
        with pytest.raises(CharacterError, match="cap"):
            character_table(big)
    assert all(key[1] != big.rows.tobytes() for key in characters._TABLES)


def _same_values(a, b):
    assert (a.classes, a.class_sizes, a.degrees) == (b.classes, b.class_sizes, b.degrees)
    assert np.array_equal(a.class_of, b.class_of)
    assert np.array_equal(a.chars, b.chars)


def test_two_loads_of_one_group_file_share_a_table(tmp_path):
    path = tmp_path / "s4.txt"
    path.write_text("degree 4\n(0 1)\n(0 1 2 3)\n")
    G, H = load_group(path), load_group(path)
    assert G is not H
    assert character_table(G) is character_table(H)


def test_generators_and_tol_key_their_own_tables(tmp_path):
    path = tmp_path / "s4.txt"
    path.write_text("degree 4\n(0 1)\n(0 1 2 3)\n")
    G = load_group(path)
    # The same rows under one more generator.
    G_other = FiniteGroup(G.degree, G.generators + (from_cycles([(0, 2)], 4),), G.rows, G.name)
    table = character_table(G)
    by_gens = character_table(G_other)
    by_tol = character_table(G, tol=1e-9)
    assert len({id(table), id(by_gens), id(by_tol)}) == 3
    _same_values(by_gens, table)
    _same_values(by_tol, table)
    assert character_table(G) is table


def test_table_cache_is_bounded():
    groups = [C.cyclic_group(n) for n in range(2, 2 + characters._TABLES_KEPT + 5)]
    tables = [character_table(G) for G in groups]
    assert len(characters._TABLES) <= characters._TABLES_KEPT
    # The most recent tables are kept; the oldest were dropped and are rebuilt.
    assert character_table(groups[-1]) is tables[-1]
    rebuilt = character_table(groups[0])
    assert rebuilt is not tables[0]
    _same_values(rebuilt, tables[0])
    assert len(characters._TABLES) <= characters._TABLES_KEPT


def test_cached_tables_are_read_only(s4):
    table = character_table(s4)
    assert character_table(s4) is table
    for a in (table.chars, table.class_of):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
