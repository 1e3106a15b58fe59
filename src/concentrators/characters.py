"""Numeric character tables and the dimension sums behind the tail bounds.

The table is computed by the class-algebra method: the class-sum
multiplication matrices commute, a random real combination splits their common
eigenvectors, and each eigenvector yields one irreducible character.  Degrees
are recovered from orthogonality and rounded to exact integers; the table is
then re-verified (sum of squared degrees, row and column orthogonality) and
construction aborts on any failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .permgroup import (
    _CONJ_BATCH_ROWS,
    FiniteGroup,
    conjugacy_classes,
    inverse_rows,
    is_subgroup,
    seeded_rng,
)

MAX_CLASSES = 60
# Random combinations of the class matrices tried before giving up on
# splitting their common eigenvectors.
SPLIT_RETRIES = 8


class CharacterError(ValueError):
    """Character-table computation failed or a precondition was violated."""


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Conjugacy classes, irreducible degrees, and character values per class.

    ``class_of`` is a read-only index array mapping each element index of G
    to its class.
    """

    classes: tuple[tuple[int, ...], ...]
    class_sizes: tuple[int, ...]
    class_of: np.ndarray
    degrees: tuple[int, ...]
    chars: np.ndarray  # (n_irreps, n_classes), complex

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def order(self) -> int:
        return sum(self.class_sizes)


def _class_structure(G: FiniteGroup):
    classes = conjugacy_classes(G)
    class_of = np.empty(len(G), dtype=np.intp)
    class_of[np.concatenate(classes)] = np.repeat(np.arange(len(classes)), list(map(len, classes)))
    class_of.setflags(write=False)
    return classes, class_of


def _class_matrices(G: FiniteGroup, classes, class_of) -> np.ndarray:
    """mats[i][k][j] = #{x in C_i : x^-1 * z_k in C_j} for a fixed z_k per class.

    These are the matrices of multiplication by the class sums in the
    class-sum basis; they commute pairwise.  The products x^-1 * z_k of all
    classes are looked up together, in batches of at most _CONJ_BATCH_ROWS.
    ``class_of`` is ``_class_structure``'s element-to-class index array.
    """
    r = len(classes)
    inv_rows = inverse_rows(G.rows)
    z = G.rows[[members[0] for members in classes]]
    counts = np.zeros(r**3, dtype=np.int64)
    step = max(1, _CONJ_BATCH_ROWS // r)
    for s in range(0, len(G), step):
        # x^-1 * z_k maps p to x^-1(z_k(p)): y[x, k] for every x of the batch.
        y = G.lookup(inv_rows[s : s + step][:, z])
        cells = (class_of[s : s + step, None] * r + np.arange(r)) * r + class_of[y]
        counts += np.bincount(cells.ravel(), minlength=r**3)
    # Reorient so column j of mats[i] acts on the coefficient of class j.
    return counts.reshape(r, r, r).transpose(0, 2, 1).astype(float)


def character_table(G: FiniteGroup, tol: float = 1e-8) -> CharacterTable:
    """Compute the full complex character table of an enumerated group."""
    classes, class_of = _class_structure(G)
    r = len(classes)
    if r > MAX_CLASSES:
        raise CharacterError(f"{r} conjugacy classes exceeds the cap of {MAX_CLASSES}")
    sizes = np.array([len(c) for c in classes], dtype=float)
    order = len(G)
    mats = _class_matrices(G, classes, class_of)

    rng = seeded_rng(0)
    vecs = None
    for _ in range(SPLIT_RETRIES):
        coeff = rng.standard_normal(r)
        T = np.tensordot(coeff, mats, axes=(0, 0))
        w, V = np.linalg.eig(T)
        gaps = np.abs(w[:, None] - w[None, :])
        np.fill_diagonal(gaps, np.inf)
        scale = max(float(np.abs(w).max()), 1.0)
        if float(gaps.min()) > 1e-6 * scale:
            vecs = V
            break
    if vecs is None:
        raise CharacterError(f"degeneracy splitting failed after {SPLIT_RETRIES} attempts")

    rows = []
    for idx in range(r):
        v = vecs[:, idx]
        m = int(np.argmax(np.abs(v)))
        omega = np.array([(mats[i] @ v)[m] / v[m] for i in range(r)])
        d_sq = order / float(np.sum(np.abs(omega) ** 2 / sizes))
        d = round(math.sqrt(d_sq))
        if d < 1 or abs(d * d - d_sq) > tol * max(d_sq, 1.0) * 10:
            raise CharacterError(f"non-integer irreducible degree from {d_sq}")
        chi = d * omega / sizes
        rows.append((d, chi))

    # Sorted by degree, then by the values rounded to 6 decimals, each an
    # (real, imaginary) pair; the table is rounded once.
    chars = np.array([chi for _, chi in rows])
    rounded = np.round(chars, 6)
    keys = np.stack((rounded.real, rounded.imag), axis=-1).tolist()
    ranked = sorted(range(r), key=lambda i: (rows[i][0], keys[i]))
    degrees = tuple(rows[i][0] for i in ranked)
    chars = chars[ranked]

    if sum(d * d for d in degrees) != order:
        raise CharacterError(f"degrees {degrees} violate sum(d^2) = {order}")
    gram = (chars * sizes) @ chars.conj().T / order
    if float(np.max(np.abs(gram - np.eye(r)))) > tol:
        raise CharacterError("row orthogonality failed beyond tolerance")
    col = chars.conj().T @ chars
    col_expected = np.diag(order / sizes)
    if float(np.max(np.abs(col - col_expected))) > tol * order:
        raise CharacterError("column orthogonality failed beyond tolerance")
    chars.setflags(write=False)
    return CharacterTable(
        classes=classes,
        class_sizes=tuple(int(s) for s in sizes),
        class_of=class_of,
        degrees=degrees,
        chars=chars,
    )


def dim_sum_D(G: FiniteGroup, table: CharacterTable | None = None) -> int:
    """Sum of irreducible degrees D, with sqrt|G| <= D <= |G|.

    D^2 >= sum of squared degrees = |G| by Cauchy-Schwarz, with equality only
    for the one-element group, where D = 1.
    """
    table = character_table(G) if table is None else table
    D = sum(table.degrees)
    order = table.order()
    if D * D < order or D > order:
        raise CharacterError(f"D={D} outside [sqrt({order}), {order}]")
    return D


def trivial_restriction_multiplicities(
    G: FiniteGroup, H: FiniteGroup, table: CharacterTable | None = None
) -> tuple[int, ...]:
    """Multiplicity of H's trivial representation in each irreducible of G,
    computed as the average of character values over H."""
    if not is_subgroup(G, H):
        raise CharacterError(f"{H.label()} is not a subgroup of {G.label()}")
    table = character_table(G) if table is None else table
    h_classes = table.class_of[G.lookup(H.rows)]
    mults = []
    for chi in table.chars:
        m = chi[h_classes].sum() / len(H)
        if abs(m.imag) > 1e-8 or abs(m.real - round(m.real)) > 1e-8:
            raise CharacterError(f"non-integer trivial multiplicity {m}")
        mults.append(round(m.real))
    return tuple(mults)


def dim_sum_DGH(
    G: FiniteGroup,
    H: FiniteGroup,
    variant: str = "paper",
    table: CharacterTable | None = None,
) -> int:
    """Subgroup-relative dimension sum, in two readings.

    ``paper``: degrees of irreducibles whose restriction to H contains no
    trivial component.  ``support``: degrees of the non-trivial irreducibles
    whose restriction does contain one (these are exactly the irreducibles
    supporting the coset-graph spectrum).  The two disagree in the limit
    H = {1}, which is why both are always reported side by side upstream.
    """
    sums = dim_sums_both(G, H, table)
    if variant not in sums:
        raise CharacterError(f"unknown variant {variant!r}")
    return sums[variant]


def dim_sums_both(
    G: FiniteGroup, H: FiniteGroup, table: CharacterTable | None = None
) -> dict[str, int]:
    """Both readings of ``dim_sum_DGH``, keyed "paper" and "support"."""
    table = character_table(G) if table is None else table
    mults = trivial_restriction_multiplicities(G, H, table)
    trivial_idx = _trivial_irrep_index(table)
    return {
        "paper": sum(d for d, m in zip(table.degrees, mults) if m == 0),
        "support": sum(
            d
            for i, (d, m) in enumerate(zip(table.degrees, mults))
            if m > 0 and i != trivial_idx
        ),
    }


def _trivial_irrep_index(table: CharacterTable) -> int:
    for i, chi in enumerate(table.chars):
        if np.allclose(chi, 1.0, atol=1e-6):
            return i
    raise CharacterError("trivial character missing from table")


# -- weighted entropy and the tail bounds -------------------------------------

def weighted_entropy(p: float, x: float) -> float:
    """H_p(x) = x log(x/p) + (1-x) log((1-x)/(1-p)), natural log, 0 log 0 = 0."""
    if not 0.0 < p < 1.0:
        raise CharacterError(f"p={p} outside (0, 1)")
    if not 0.0 <= x <= 1.0:
        raise CharacterError(f"x={x} outside [0, 1]")
    total = 0.0
    if x > 0.0:
        total += x * math.log(x / p)
    if x < 1.0:
        total += (1.0 - x) * math.log((1.0 - x) / (1.0 - p))
    return total


VARIANTS = ("thm14", "thm15", "thm18")


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to a tail-bound evaluation: dimension sum, draws, and epsilon."""

    D_value: float
    k: int
    eps: float
    variant: str

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise CharacterError(f"variant must be one of {VARIANTS}")
        if not 0.0 < self.eps < 1.0:
            raise CharacterError(f"eps={self.eps} outside (0, 1)")
        if self.k < 1:
            raise CharacterError(f"k={self.k} must be >= 1")


@dataclass(frozen=True)
class TailBound:
    """Event threshold on mu*, the probability bound, and a vacuousness flag."""

    threshold: float
    bound: float
    vacuous: bool


def bound_eval(inputs: BoundInputs) -> TailBound:
    """Evaluate the entropy tail bound for one of the three variants.

    thm14/thm15 bound the event {mu* > eps} by 2*D*exp(-k * H_{1/2}((1+eps)/2)).
    thm18 bounds {mu* > eps + (1-eps)/(2k)} by 2*D*exp(-(k^2-k) * H_{1/2}(1/2+eps));
    with k = 1 the exponent vanishes and the bound is vacuous.
    """
    if inputs.variant == "thm18":
        if inputs.eps > 0.5:
            raise CharacterError(
                f"thm18 entropy argument 1/2 + eps = {0.5 + inputs.eps} exceeds 1"
            )
        threshold = inputs.eps + (1.0 - inputs.eps) / (2.0 * inputs.k)
        exponent = (inputs.k**2 - inputs.k) * weighted_entropy(0.5, 0.5 + inputs.eps)
    else:
        threshold = inputs.eps
        exponent = inputs.k * weighted_entropy(0.5, (1.0 + inputs.eps) / 2.0)
    bound = 2.0 * inputs.D_value * math.exp(-exponent)
    return TailBound(threshold=threshold, bound=bound, vacuous=bound >= 1.0)
