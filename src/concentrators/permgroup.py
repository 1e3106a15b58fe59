"""Permutations on finite point sets and fully enumerated permutation groups.

Everything is 0-based: a permutation of degree n is a bijection of
{0, ..., n-1} stored as its image tuple.  Groups are enumerated explicitly by
breadth-first closure, which keeps element order deterministic and lets the
rest of the library address elements by index.

A ``FiniteGroup`` holds its elements as one read-only ``(order, degree)``
integer array ``rows`` (``uint8`` up to degree 256, wider beyond), plus the
sorted row bytes, so ``lookup`` maps a whole array of image rows to element
indices with one ``np.searchsorted``.  Closure, cosets and conjugacy classes
work level by level on these arrays.  ``G.elements`` is a lazy read-only
sequence that builds a ``Permutation`` only for the element accessed, and
``G.index`` a read-only mapping from image tuples to indices.

Randomness is always drawn from numpy's PCG64 seeded through ``SeedSequence``
so that every sampled multiset is reproducible from its integer seed words.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

DEFAULT_CLOSURE_CAP = 10**6


class GroupError(ValueError):
    """A group-theoretic precondition failed."""


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., degree-1} stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(i) for i in self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        seen = [False] * n
        for i in images:
            if not 0 <= i < n or seen[i]:
                raise GroupError(f"images {images!r} are not a bijection on 0..{n - 1}")
            seen[i] = True

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated to start at its least point."""
        out = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            p = self.images[start]
            while p != start:
                cyc.append(p)
                seen[p] = True
                p = self.images[p]
            out.append(tuple(cyc))
        return tuple(out)


def identity_perm(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply q first, then p: the result maps i to p(q(i))."""
    if p.degree != q.degree:
        raise GroupError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Permutation(tuple(p.images[j] for j in q.images))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.degree
    for i, j in enumerate(p.images):
        inv[j] = i
    return Permutation(tuple(inv))


def from_cycles(cycles: Sequence[Sequence[int]], degree: int) -> Permutation:
    """Build a permutation from disjoint cycles; unmentioned points are fixed."""
    images = list(range(degree))
    touched = set()
    for cyc in cycles:
        for i, point in enumerate(cyc):
            if point in touched:
                raise GroupError(f"point {point} repeated across cycles")
            touched.add(point)
            images[point] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(images))


def _trusted(images: tuple[int, ...]) -> Permutation:
    """A Permutation from images already checked to be a bijection."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def _row_dtype(degree: int) -> np.dtype:
    """Smallest unsigned dtype holding the points 0..degree-1."""
    return np.min_scalar_type(degree - 1)


def _perm_rows(perms: Sequence[Permutation], degree: int) -> np.ndarray:
    """Image rows of permutations of the given degree, one per row."""
    return np.array([p.images for p in perms], dtype=_row_dtype(degree)).reshape(-1, degree)


def _keys(rows: np.ndarray) -> np.ndarray:
    """One exactly comparable key per image row: the row's raw bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[-1] * rows.itemsize)))[..., 0]


def inverse_rows(rows: np.ndarray) -> np.ndarray:
    """Image rows of the inverse permutations, in the same dtype."""
    return np.argsort(rows, axis=-1).astype(rows.dtype)


class _Elements(Sequence):
    """Read-only element list of a group; builds a Permutation per access."""

    __slots__ = ("_group",)

    def __init__(self, group: FiniteGroup) -> None:
        self._group = group

    def __len__(self) -> int:
        return len(self._group.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return _trusted(tuple(self._group.rows[i].tolist()))

    def __iter__(self) -> Iterator[Permutation]:
        for row in self._group.rows.tolist():
            yield _trusted(tuple(row))

    def __contains__(self, p) -> bool:
        return isinstance(p, Permutation) and p in self._group


class _Index(Mapping):
    """Read-only map from image tuples to element indices."""

    __slots__ = ("_group",)

    def __init__(self, group: FiniteGroup) -> None:
        self._group = group

    def __getitem__(self, key) -> int:
        G = self._group
        if not isinstance(key, tuple) or len(key) != G.degree:
            raise KeyError(key)
        try:
            row = np.array(key, dtype=G.rows.dtype)
        except (TypeError, ValueError, OverflowError):
            raise KeyError(key) from None
        if row.tolist() != list(key):  # e.g. a fractional point
            raise KeyError(key)
        idx, found = G._find(row)
        if not found:
            raise KeyError(key)
        return int(idx)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for row in self._group.rows.tolist():
            yield tuple(row)

    def __len__(self) -> int:
        return len(self._group.rows)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite permutation group with a fixed, fully enumerated element order.

    ``rows[i]`` holds the images of element i; the array is read-only and uses
    the smallest unsigned dtype that fits the degree.  ``elements`` and
    ``index`` are read-only views over it.
    """

    degree: int
    generators: tuple[Permutation, ...]
    rows: np.ndarray = field(repr=False)
    name: str = ""
    _sorted_keys: np.ndarray = field(init=False, repr=False)
    _sorted_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows)
        dtype = _row_dtype(self.degree)
        if rows.ndim != 2 or rows.shape[1] != self.degree or rows.dtype != dtype:
            raise GroupError(f"rows must be (order, {self.degree}) of {dtype}")
        # One batch check replaces a Permutation validation per element.
        if np.any(np.sort(rows, axis=1) != np.arange(self.degree)):
            raise GroupError("group rows are not all bijections")
        keys = _keys(rows)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        if np.any(sorted_keys[1:] == sorted_keys[:-1]):
            raise GroupError("group rows repeat an element")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_sorted_keys", sorted_keys)
        object.__setattr__(self, "_sorted_index", order)

    @property
    def elements(self) -> Sequence[Permutation]:
        return _Elements(self)

    @property
    def index(self) -> Mapping[tuple[int, ...], int]:
        return _Index(self)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, p: Permutation) -> bool:
        return p.images in self.index

    def _find(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(indices, found) for image rows of shape (..., degree)."""
        rows = np.asarray(rows)
        flat = rows.reshape(-1, self.degree)
        ok = True
        if flat.dtype != self.rows.dtype:
            ok = np.all((flat >= 0) & (flat < self.degree), axis=1)
            flat = np.where(ok[:, None], flat, 0).astype(self.rows.dtype)
        keys = _keys(flat)
        pos = np.minimum(np.searchsorted(self._sorted_keys, keys), len(self) - 1)
        found = (self._sorted_keys[pos] == keys) & ok
        shape = rows.shape[:-1]
        return self._sorted_index[pos].reshape(shape), found.reshape(shape)

    def lookup(self, rows) -> np.ndarray:
        """Element indices of the image rows in ``rows`` (shape (..., degree)).

        Raises GroupError naming the first row that is not an element.
        """
        idx, found = self._find(rows)
        if not found.all():
            bad = np.asarray(rows).reshape(-1, self.degree)[np.argmin(found.ravel())]
            raise GroupError(f"{tuple(bad.tolist())!r} is not an element of {self.label()}")
        return idx

    def rows_of(self, perms: Sequence[Permutation]) -> np.ndarray:
        """Image rows of ``perms``, checked at once to be elements of G."""
        for p in perms:
            if p.degree != self.degree:
                raise GroupError(f"{p.images!r} is not an element of {self.label()}")
        rows = _perm_rows(perms, self.degree)
        self.lookup(rows)
        return rows

    def index_of(self, p: Permutation) -> int:
        try:
            return self.index[p.images]
        except KeyError:
            raise GroupError(f"{p.images!r} is not an element of {self.label()}") from None

    def identity(self) -> Permutation:
        return self.elements[0]

    def label(self) -> str:
        return self.name or f"group(deg={self.degree},order={len(self)})"


def closure(
    degree: int,
    generators: Sequence[Permutation],
    cap: int = DEFAULT_CLOSURE_CAP,
    name: str = "",
) -> FiniteGroup:
    """Enumerate the group generated by ``generators`` by breadth-first search.

    The element order is deterministic: the identity first, then BFS levels,
    expanding each frontier element by left-multiplying with the generators in
    the order given.  Enumeration refuses to grow past ``cap`` elements.

    Each level is computed at once: the candidates ``gen o cur`` in (frontier
    element, generator) order, deduplicated by first occurrence, minus the
    elements of earlier levels, kept in candidate order.
    """
    if degree < 1:
        raise GroupError(f"degree must be >= 1, got {degree}")
    for g in generators:
        if g.degree != degree:
            raise GroupError(f"generator degree {g.degree} != {degree}")
    gens = _perm_rows(generators, degree)
    frontier = np.arange(degree, dtype=gens.dtype)[None, :]
    levels = [frontier]
    seen = _keys(frontier)  # sorted keys of every element so far
    total = 1
    while len(frontier) and len(gens):
        cand = gens[:, frontier].transpose(1, 0, 2).reshape(-1, degree)
        keys = _keys(cand)
        uniq, first = np.unique(keys, return_index=True)
        pos = np.searchsorted(seen, uniq)
        new = seen[np.minimum(pos, len(seen) - 1)] != uniq
        total += int(new.sum())
        if total > cap:
            raise GroupError(
                f"closure exceeded the enumeration cap of {cap} elements; "
                "raise `cap` explicitly if the group really is this large"
            )
        seen = np.insert(seen, pos[new], uniq[new])
        frontier = cand[np.sort(first[new])]
        levels.append(frontier)
    return FiniteGroup(
        degree=degree,
        generators=tuple(generators),
        rows=np.concatenate(levels),
        name=name,
    )


def is_subgroup(G: FiniteGroup, H: FiniteGroup) -> bool:
    """True when every element of H is an element of G (H is a group already)."""
    if H.degree != G.degree or len(H) > len(G):
        return False
    return bool(G._find(H.rows)[1].all())


@dataclass(frozen=True, eq=False)
class CosetPartition:
    """Right cosets Hg of a subgroup, indexed by their least-element representative."""

    parent: FiniteGroup
    subgroup: FiniteGroup
    representatives: tuple[Permutation, ...]
    coset_of: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.representatives)


# Rows looked up per batch when many small cosets are found together.
_COSET_BATCH_ROWS = 1 << 12


def right_cosets(G: FiniteGroup, H: FiniteGroup) -> CosetPartition:
    """Partition G into right cosets Hg; representative = least element index.

    Cosets are found in batches of the least unassigned indices.  A candidate
    opens a new coset exactly when it is the least member of its coset; any
    other candidate shares its coset with a smaller candidate of the batch.
    """
    if not is_subgroup(G, H):
        raise GroupError(f"{H.label()} is not a subgroup of {G.label()}")
    coset_of = np.full(len(G), -1, dtype=np.int64)
    batch = max(1, _COSET_BATCH_ROWS // len(H))
    cosets = []
    while True:
        todo = np.flatnonzero(coset_of < 0)[:batch]
        if not len(todo):
            break
        members = np.sort(G.lookup(H.rows[:, G.rows[todo]]).T, axis=1)
        members = members[members[:, 0] == todo]
        coset_of[members] = len(cosets) + np.arange(len(members))[:, None]
        cosets.extend(members.tolist())
    return CosetPartition(
        parent=G,
        subgroup=H,
        representatives=tuple(G.elements[c[0]] for c in cosets),
        coset_of=tuple(coset_of.tolist()),
        cosets=tuple(tuple(c) for c in cosets),
    )


def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted index tuples, ordered by least member.

    Each class is the orbit of its least member under conjugation by the
    generators, grown a whole frontier at a time.
    """
    gens = _perm_rows(G.generators, G.degree)
    conjugators = list(zip(gens, inverse_rows(gens)))
    assigned = np.zeros(len(G), dtype=bool)
    classes = []
    start = 0
    while not assigned[start:].all():
        start += int(np.argmin(assigned[start:]))  # least unassigned element
        assigned[start] = True
        orbit = [np.array([start])]
        frontier = orbit[0]
        while len(frontier) and conjugators:
            x = G.rows[frontier]
            level = []
            for g, ginv in conjugators:
                # g x g^-1 maps p to g(x(g^-1(p))).  Distinct x give distinct
                # conjugates, so marking them keeps the level free of repeats.
                y = G.lookup(g[x[:, ginv]])
                y = y[~assigned[y]]
                assigned[y] = True
                level.append(y)
            frontier = np.concatenate(level)
            orbit.append(frontier)
        classes.append(tuple(np.sort(np.concatenate(orbit)).tolist()))
    return tuple(classes)


def orbit_of_set(
    generators: Sequence[Permutation], seed_set: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """BFS orbit of a point set under elementwise generator action, sorted."""
    start = tuple(sorted(set(int(x) for x in seed_set)))
    for g in generators:
        for x in start:
            if not 0 <= x < g.degree:
                raise GroupError(f"seed point {x} outside 0..{g.degree - 1}")
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in generators:
                image = tuple(sorted(g.images[x] for x in cur))
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return tuple(sorted(seen))


def seeded_rng(*words: int) -> np.random.Generator:
    """The library-wide PRNG: PCG64 keyed by SeedSequence over integer words.

    All Monte Carlo code derives per-trial generators as
    ``seeded_rng(seed, trial_index)``, so serial and parallel runs agree.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(words))))


def sample_multiset(G: FiniteGroup, k: int, seed: int) -> tuple[Permutation, ...]:
    """k independent uniform draws (with replacement) from G's element list."""
    if k < 1:
        raise GroupError(f"need k >= 1 draws, got {k}")
    rng = seeded_rng(seed)
    picks = rng.integers(0, len(G), size=k)
    return tuple(G.elements[int(i)] for i in picks)


# -- standard construction helpers -------------------------------------------

def trivial_group(degree: int) -> FiniteGroup:
    return closure(degree, [], name=f"1(deg={degree})")


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n acting by rotation on n points."""
    if n < 1:
        raise GroupError("cyclic group needs n >= 1")
    if n == 1:
        return closure(1, [], name="Z1")
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    return closure(n, [rot], name=f"Z{n}")


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("symmetric group needs n >= 1")
    if n == 1:
        return closure(1, [], name="S1")
    gens = [from_cycles([(0, 1)], n)]
    if n > 2:
        gens.append(Permutation(tuple((i + 1) % n for i in range(n))))
    return closure(n, gens, name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    if n < 3:
        return closure(max(n, 1), [], name=f"A{n}")
    gens = [from_cycles([(0, 1, 2)], n)]
    if n > 3:
        if n % 2 == 1:
            gens.append(Permutation(tuple((i + 1) % n for i in range(n))))
        else:
            gens.append(from_cycles([tuple(range(1, n))], n))
    return closure(n, gens, name=f"A{n}")


# Classical generating set for the sharply 5-transitive group on 12 points,
# shipped 0-based.  The first three generators fix {9, 10, 11} and restrict to
# the sharply 2-transitive group of order 72 on the 3x3 grid {0..8} (one grid
# translation plus two quaternion rotations); each later generator extends the
# chain by one point, through orders 720 and 7920 to 95040.  The orbit of
# MATHIEU12_BASE_BLOCK under the full group is the block set of the Steiner
# system S(5, 6, 12).
MATHIEU12_GENERATORS: tuple[Permutation, ...] = (
    from_cycles([(0, 1, 2), (3, 4, 5), (6, 7, 8)], 12),
    from_cycles([(1, 3, 2, 6), (4, 5, 8, 7)], 12),
    from_cycles([(1, 4, 2, 8), (3, 7, 6, 5)], 12),
    from_cycles([(0, 9), (3, 4), (5, 7), (6, 8)], 12),
    from_cycles([(9, 10), (3, 6), (4, 7), (5, 8)], 12),
    from_cycles([(10, 11), (3, 8), (4, 6), (5, 7)], 12),
)

MATHIEU12_BASE_BLOCK: tuple[int, ...] = (0, 1, 2, 9, 10, 11)


def mathieu12_group(cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Enumerate all 95040 elements of the 5-transitive group on 12 points."""
    return closure(12, MATHIEU12_GENERATORS, cap=cap, name="M12")
