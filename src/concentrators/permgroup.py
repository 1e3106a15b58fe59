"""Permutations on finite point sets and fully enumerated permutation groups.

Everything is 0-based: a permutation of degree n is a bijection of
{0, ..., n-1} stored as its image tuple.  Groups are enumerated explicitly by
breadth-first closure, which keeps element order deterministic and lets the
rest of the library address elements by index.

A ``FiniteGroup`` holds its elements as one read-only ``(order, degree)``
integer array ``rows`` (``uint8`` up to degree 256, wider beyond), plus one
sorted key per row (``_keys``: the images packed 4 bits a point into a
``uint64`` up to degree 16, the raw row bytes above), so ``lookup`` maps a
whole array of image rows to element indices with one ``np.searchsorted``,
made over the argsorted needles when there are many.  Closure first builds a
stabilizer chain of the generators in plain Python (base points, basic orbits,
transversals and the deduplicated Schreier elements of each level), which
fixes |G| and refuses a group past the cap before any element is built.  The
chain gives every element an integer rank below |G|, and its level tables,
composed into two segment tables, give the rank of ``gen o x`` from that of x
in two gathers; the breadth-first search then checks "found already?" in one
direct-address array over ranks, with no sorting.  Cosets work level by level
on the row arrays; conjugacy classes are the orbits of one table of the
generators' conjugation action on element indices.  A partition of the
elements, such as ``right_cosets``' ``CosetPartition``, is a read-only integer
index array built once, which its readers index in place.
``G.elements`` is a lazy read-only sequence that builds a ``Permutation`` only
for the element accessed, and ``G.index`` a read-only mapping from image
tuples to indices.

Randomness is always drawn from numpy's PCG64 seeded through ``SeedSequence``
so that every sampled multiset is reproducible from its integer seed words;
``seeded_rng`` defines that stream.  ``seeded_indices`` makes a whole stack
of Monte Carlo trials' draws in one numpy pass, bit-identical to each trial's
``seeded_rng(seed, t).integers(0, order, size=k)``, and falls back to
``seeded_rng`` where that pass would not be exact.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

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


# Largest degree whose rows pack into one uint64 key, 4 bits a point.
_PACKED_DEGREE = 16
# Rows packed per pass, which bounds the temporaries of a large key array.
_PACK_ROWS = 1 << 14


def _keys(rows: np.ndarray) -> np.ndarray:
    """One exactly comparable key per row of an ``(n, degree)`` image array.

    Up to degree 16 the images are packed 4 bits a point into one
    little-endian ``uint64``: point p goes to bits 4p..4p+3.  Above degree 16
    the key is the row's raw bytes.  Either way the key is injective on rows
    of points 0..degree-1; callers use it for membership and first occurrence
    only, never for its order.
    """
    n, degree = rows.shape
    if degree > _PACKED_DEGREE:
        rows = np.ascontiguousarray(rows)
        return rows.view(np.dtype((np.void, degree * rows.itemsize)))[:, 0]
    out = np.empty((n, 8), dtype=np.uint8)
    for s in range(0, n, _PACK_ROWS):
        part = rows[s : s + _PACK_ROWS]
        pad = np.zeros((len(part), _PACKED_DEGREE), dtype=np.uint8)
        pad[:, :degree] = part
        # The low byte of each pair (image of 2j, image of 2j+1) becomes
        # (image of 2j) | (image of 2j+1) << 4; the assignment keeps it.
        pairs = pad.view("<u2")
        pairs |= pairs >> 4
        out[s : s + _PACK_ROWS] = pairs
    return out.view("<u8")[:, 0]


# Points covered by one word of ``_hits_every_point``.
_WORD_BITS = 64


def _hits_every_point(rows: np.ndarray, degree: int) -> bool:
    """True when every row of an ``(n, degree)`` array of points
    0..degree-1 hits all of them, so that each row is a bijection.

    Each row is one ``bitwise_or`` of ``1 << image`` in the smallest unsigned
    word that holds ``degree`` bits, compared with the full mask.  Above 64
    points each 64-point word takes one such pass: the images below the word
    wrap to shifts of at least 64 and the images above it shift that far
    anyway, and numpy's shift by the word width or more gives 0.  The shifts
    are laid out point-major, so the OR runs over whole columns.
    """
    word = np.min_scalar_type((1 << min(degree, _WORD_BITS)) - 1)
    for lo in range(0, degree, _WORD_BITS):
        shift = rows.T - rows.dtype.type(lo)
        bits = np.left_shift(word.type(1), shift, dtype=word, order="C")
        full = word.type((1 << min(degree - lo, _WORD_BITS)) - 1)
        if not (np.bitwise_or.reduce(bits, axis=0) == full).all():
            return False
    return True


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


# ``_find`` sorts its needles from this many on, in groups of at least
# _SORTED_FIND_ORDER elements.  Fewer needles do not repay the argsort; the
# keys of a smaller group stay in cache, so its random searches save little,
# and the sort's 16 extra bytes a needle raise the peak of large stacks.
_SORTED_FIND_NEEDLES = 1 << 10
_SORTED_FIND_ORDER = 1 << 8


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite permutation group with a fixed, fully enumerated element order.

    ``rows[i]`` holds the images of element i; the array is read-only and uses
    the smallest unsigned dtype that fits the degree.  ``elements`` and
    ``index`` are read-only views over it.  Lookups search the rows' keys
    (``_keys``) in sorted order.
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
        # One batch check replaces a Permutation validation per element: every
        # point in range, and every point hit in every row.
        if rows.size and rows.max() >= self.degree or not _hits_every_point(rows, self.degree):
            raise GroupError("group rows are not all bijections")
        keys = _keys(rows)
        order = np.argsort(keys)
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
        # Keys are injective only on rows of points 0..degree-1.
        if flat.dtype != self.rows.dtype or (flat.size and flat.max() >= self.degree):
            ok = np.all((flat >= 0) & (flat < self.degree), axis=1)
            flat = np.where(ok[:, None], flat, 0).astype(self.rows.dtype)
        keys = _keys(flat)
        if len(keys) >= _SORTED_FIND_NEEDLES and len(self) >= _SORTED_FIND_ORDER:
            # Sorted needles walk the sorted keys one way instead of starting
            # each binary search cold; scatter the positions back.
            order = np.argsort(keys)
            pos = np.empty(len(keys), dtype=np.intp)
            pos[order] = np.searchsorted(self._sorted_keys, keys[order])
        else:
            pos = np.searchsorted(self._sorted_keys, keys)
        pos = np.minimum(pos, len(self) - 1)
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


def _chain(
    degree: int, gens: Sequence[tuple[int, ...]], cap: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-level transition tables of a stabilizer chain of <gens>.

    Level i has a base point b_i (the least point that an element of E_i
    moves), its basic orbit Δ_i under <E_i> and a transversal u_j with
    u_j(b_i) = Δ_i[j].  E_1 is ``gens`` as given; E_{i+1} holds the distinct
    Schreier elements s = u_{j'}^-1 e u_j (e in E_i, e(Δ_i[j]) = Δ_i[j']),
    which generate the stabilizer of b_1..b_i.  Level i's tables are the
    (|E_i|, |Δ_i|) arrays of j' and of the index of s in E_{i+1}.  The chain
    ends when every element of E_i is the identity.  Since E_{i+1} lies in
    the stabilizer, Π_{j<=i} |Δ_j| * |E_{i+1}| <= |G|: once it passes ``cap``
    the closure is refused, before any element is enumerated.
    """
    tables = []
    elements = list(gens)
    size = 1
    while True:
        base = min((p for e in elements for p, q in enumerate(e) if p != q), default=None)
        if base is None:
            return tables
        ident = tuple(range(degree))
        # itemgetter(*e)(x) is x o e; the transversal and its inverses grow
        # together, u_q = e o u_p and u_q^-1 = u_p^-1 o e^-1.
        forward = [itemgetter(*e) for e in elements]
        backward = [itemgetter(*sorted(ident, key=e.__getitem__)) for e in elements]
        where = {base: 0}
        orbit, trans, inverses = [base], [ident], [ident]
        for p, u, v in zip(orbit, trans, inverses):
            for e, back in zip(elements, backward):
                q = e[p]
                if q not in where:
                    where[q] = len(orbit)
                    orbit.append(q)
                    trans.append(itemgetter(*u)(e))
                    inverses.append(back(v))
        size *= len(orbit)
        getters = [itemgetter(*u) for u in trans]
        schreier: dict[tuple[int, ...], int] = {}
        pos, nxt = [], []
        for e, fwd in zip(elements, forward):
            for p, get in zip(orbit, getters):
                j = where[e[p]]
                s = get(fwd(inverses[j]))
                if s not in schreier:
                    schreier[s] = len(schreier)
                    if size * len(schreier) > cap:
                        raise GroupError(
                            f"closure exceeded the enumeration cap of {cap} elements; "
                            "raise `cap` explicitly if the group really is this large"
                        )
                pos.append(j)
                nxt.append(schreier[s])
        shape = (len(elements), len(orbit))
        tables.append((np.array(pos).reshape(shape), np.array(nxt).reshape(shape)))
        elements = list(schreier)


def _compose(tables: list[tuple[np.ndarray, np.ndarray]], states: np.ndarray):
    """A run of chain levels' tables composed into one: (digits, ends), each
    of shape (len(states), Π|Δ_i|).  Column r stands for the digits of an
    element x on these levels, the first level most significant.  From state
    e, the product e x has the digits numbered ``digits[e, r]`` and leaves
    the run in state ``ends[e, r]``."""
    digits = np.zeros((len(states), 1), dtype=np.int64)
    ends = states[:, None]
    for pos, nxt in tables:
        width = pos.shape[1]
        cols = np.arange(width)
        digits = (digits[:, :, None] * width + pos[ends[:, :, None], cols]).reshape(len(states), -1)
        ends = nxt[ends[:, :, None], cols].reshape(len(states), -1)
    return digits, ends


def _bfs_rows(gens: np.ndarray, tables: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The element rows of ``closure``, in its order, from the chain tables."""
    ngens, degree = gens.shape
    widths = [pos.shape[1] for pos, _ in tables]
    order = math.prod(widths)
    rows = np.empty((order, degree), dtype=gens.dtype)
    rows[0] = np.arange(degree)
    if order == 1:
        return rows
    # The rank is high * Q + low: the digits of the first m levels and of
    # the rest.  m minimizes the two tables' total size; the run of levels
    # after it starts from the len(tables[m][0]) elements of E_{m+1}, or from
    # the identity alone when m is the last level.
    counts = [ngens, *(len(pos) for pos, _ in tables[1:]), 1]
    prefix = [math.prod(widths[:m]) for m in range(len(tables) + 1)]
    sizes = [ngens * p + n * (order // p) for p, n in zip(prefix, counts)]
    m = sizes.index(min(sizes))
    Q = order // prefix[m]
    # For generator g and high digits h of x, the rank of g x is
    # low[to_low[h, g] + low digits of x] + to_high[h, g].
    high, ends = _compose(tables[:m], np.arange(ngens))
    to_high = np.ascontiguousarray((high * Q).T)
    to_low = np.ascontiguousarray((ends * Q).T)
    low = _compose(tables[m:], np.arange(counts[m]))[0].ravel()
    # found[r] is the position, among its level's candidates, of the first
    # candidate of rank r; ranks not yet found hold ``unseen``, and the
    # identity, rank 0, holds 0.
    unseen = ngens * order
    found = np.full(order, unseen)
    found[0] = 0
    ranks = np.zeros(1, dtype=np.intp)
    start, count = 0, 1
    while count < order:
        hi, lo = divmod(ranks, Q)
        cand = (low.take(to_low.take(hi, axis=0) + lo[:, None]) + to_high.take(hi, axis=0)).ravel()
        new = (found.take(cand) == unseen).nonzero()[0]
        c = cand[new]
        np.minimum.at(found, c, new)
        new = new[found.take(c) == new]
        ranks = cand[new]
        parent, gen = divmod(new, ngens)
        parent_rows = rows.take(start + parent, axis=0)
        start, count = count, count + len(new)
        rows[start:count] = gens.take(parent_rows + (gen * degree)[:, None])
    return rows


def closure(
    degree: int,
    generators: Sequence[Permutation],
    cap: int = DEFAULT_CLOSURE_CAP,
    name: str = "",
) -> FiniteGroup:
    """Enumerate the group generated by ``generators`` by breadth-first search.

    The element order is deterministic: the identity first, then BFS levels,
    expanding each frontier element by left-multiplying with the generators in
    the order given.  Enumeration refuses to grow past ``cap`` elements, and
    says so before it enumerates anything.

    A stabilizer chain (``_chain``) gives each element x a rank below |G|:
    its digits j_i, level by level, in x = u_{j_1} u_{j_2} ... .  The levels'
    tables are composed into two segment tables, split at the level where
    their total size is least, so the rank of ``gen o x`` is two gathers from
    the rank of x.  Each BFS level takes the candidates in (frontier element,
    generator) order, drops those already found by one read of a
    direct-address array over ranks, keeps each rank's first occurrence
    (``np.minimum.at``) and builds image rows only for the elements kept, from
    their parent's row.  Ranks only tell whether a candidate was found before,
    so the order is that of the search on rows.
    """
    if degree < 1:
        raise GroupError(f"degree must be >= 1, got {degree}")
    for g in generators:
        if g.degree != degree:
            raise GroupError(f"generator degree {g.degree} != {degree}")
    tables = _chain(degree, [g.images for g in generators], cap)
    return FiniteGroup(
        degree=degree,
        generators=tuple(generators),
        rows=_bfs_rows(_perm_rows(generators, degree), tables),
        name=name,
    )


def is_subgroup(G: FiniteGroup, H: FiniteGroup) -> bool:
    """True when every element of H is an element of G (H is a group already)."""
    if H.degree != G.degree or len(H) > len(G):
        return False
    return bool(G._find(H.rows)[1].all())


@dataclass(frozen=True, eq=False)
class CosetPartition:
    """Right cosets Hg of a subgroup as two read-only int64 index arrays.

    ``cosets`` is (m, |H|): row i holds coset i's element indices ascending,
    and the rows are ordered by least member, so ``cosets[i, 0]`` is coset
    i's representative.  ``coset_of`` (length |G|) maps each element index
    to its coset.
    """

    coset_of: np.ndarray
    cosets: np.ndarray

    def __len__(self) -> int:
        return len(self.cosets)


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
    cosets = np.empty((len(G) // len(H), len(H)), dtype=np.int64)
    batch = max(1, _COSET_BATCH_ROWS // len(H))
    found = 0
    while found < len(cosets):
        todo = np.flatnonzero(coset_of < 0)[:batch]
        members = np.sort(G.lookup(H.rows[:, G.rows[todo]]).T, axis=1)
        members = members[members[:, 0] == todo]
        coset_of[members] = found + np.arange(len(members))[:, None]
        cosets[found : found + len(members)] = members
        found += len(members)
    coset_of.setflags(write=False)
    cosets.setflags(write=False)
    return CosetPartition(coset_of, cosets)


# Elements conjugated per lookup, which bounds the conjugation table's temporaries.
_CONJ_BATCH_ROWS = 1 << 14


def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted index tuples, ordered by least member.

    The generators' conjugation action on element indices is tabulated once,
    ``conj[j, i]`` = index of ``g_j x_i g_j^-1``, by batched lookups.  The
    classes are its orbits, found by min-label propagation on that table with
    pointer jumping: every element's label ends as its orbit's least member.
    """
    gens = _perm_rows(G.generators, G.degree)
    if not len(gens):
        return tuple((i,) for i in range(len(G)))
    ginvs = inverse_rows(gens)
    conj = np.empty((len(gens), len(G)), dtype=np.intp)
    for s in range(0, len(G), _CONJ_BATCH_ROWS):
        x = G.rows[s : s + _CONJ_BATCH_ROWS]
        # g x g^-1 maps p to g(x(g^-1(p))).
        y = np.stack([g[x[:, ginv]] for g, ginv in zip(gens, ginvs)])
        conj[:, s : s + len(x)] = G.lookup(y)
    # Each label stays a member of its element's orbit and only decreases, so
    # the fixed point is the orbit minimum.
    label = np.arange(len(G))
    while True:
        new = np.minimum(label, label[conj].min(axis=0))
        new = new[new]
        if (new == label).all():
            break
        label = new
    # Sorting label * |G| + index orders each class's members as well.
    order = np.argsort(label * len(G) + np.arange(len(G)))
    label = label[order]
    bounds = [0, *(np.flatnonzero(label[1:] != label[:-1]) + 1).tolist(), len(G)]
    members = order.tolist()
    return tuple(tuple(members[a:b]) for a, b in zip(bounds, bounds[1:]))


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


# -- one-pass draws of a trial stack ------------------------------------------
#
# ``seeded_indices`` recomputes, for a whole stack of trials at once, what
# ``seeded_rng(seed, t).integers(0, order, size=k)`` draws: numpy's
# SeedSequence hash, PCG64's seeding, its XSL-RR output and the Lemire bound.
# Hash constants are masked Python ints and every array is uint32 or uint64,
# so all arithmetic wraps as numpy's C code does.

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
# SeedSequence (numpy/random/bit_generator.pyx): pool of 4 uint32 words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(n: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, least significant first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash(values: np.ndarray, h: int, mult: int, count: int) -> tuple[np.ndarray, int]:
    """``count`` successive SeedSequence hashes of ``values`` (broadcast over
    a leading axis of length ``count``) from hash constant h, and the next
    constant.  Hash i xors with constant i and multiplies by constant i + 1."""
    consts = [h]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    c = np.array(consts, dtype=np.uint32)[:, None]
    out = (values ^ c[:-1]) * c[1:]
    return out ^ out >> 16, consts[-1]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ out >> 16


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, uint64)`` for each column of
    an (words, b) uint32 entropy array: the (b, 4) uint64 seeds of PCG64."""
    padded = np.zeros((max(len(entropy), _POOL_SIZE), entropy.shape[1]), dtype=np.uint32)
    padded[: len(entropy)] = entropy
    # mix_entropy: hash the first pool-size words, then mix every pool word
    # into every other one, then mix each remaining word into all of them.
    # Each step's hashes of one source word are independent, so they run as
    # one array operation in numpy's order of hash constants.
    pool, h = _hash(padded[:_POOL_SIZE], _INIT_A, _MULT_A, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        mixed, h = _hash(pool[src], h, _MULT_A, _POOL_SIZE - 1)
        pool[dst] = _mix(pool[dst], mixed)
    for word in padded[_POOL_SIZE:]:
        mixed, h = _hash(word, h, _MULT_A, _POOL_SIZE)
        pool = _mix(pool, mixed)
    # generate_state cycles through the pool for 8 uint32 words and pairs
    # them little-endian into 4 uint64 words.
    state, _ = _hash(np.tile(pool, (2, 1)), _INIT_B, _MULT_B, 2 * _POOL_SIZE)
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


@functools.lru_cache(maxsize=16)
def _jump_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) uint64 limbs of the (2, n) table [A_j; C_j] for
    j = 2..n+1, where A_j = M^j and C_j = sum_{i<j} M^i mod 2^128: the
    PCG64 state j steps after x is A_j x + C_j inc."""
    mask = (1 << 128) - 1
    A, C = [], []
    a, c = _PCG_MULT, 1  # j = 1
    for _ in range(n):
        a, c = a * _PCG_MULT & mask, (c + a) & mask
        A.append(a)
        C.append(c)
    hi = np.array([[v >> 64 for v in A], [v >> 64 for v in C]], dtype=np.uint64)
    lo = np.array([[v & _MASK64 for v in A], [v & _MASK64 for v in C]], dtype=np.uint64)
    hi.setflags(write=False)
    lo.setflags(write=False)
    return hi, lo


def _mulhi64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products of two uint64 arrays."""
    x0, x1 = x & _MASK32, x >> 32
    y0, y1 = y & _MASK32, y >> 32
    p01, p10 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg64_outputs(words: np.ndarray, n: int) -> np.ndarray:
    """The first n outputs of PCG64 seeded with each row of the (b, 4)
    uint64 ``words``: a (b, n) uint64 array."""
    v0, v1, v2, v3 = (w[:, None] for w in words.T)
    # pcg64_set_seed: initstate = v0:v1, inc = (v2:v3) << 1 | 1.  Seeding
    # steps the state from 0, adds initstate and steps again, so output j
    # comes from the state A_{j+2} x + C_{j+2} inc, with x = inc + initstate.
    inc_hi, inc_lo = v2 << 1 | v3 >> 63, v3 << 1 | 1
    x_lo = inc_lo + v1
    x_hi = inc_hi + v0 + (x_lo < inc_lo)
    # Both products mod 2^128 at once: [x; inc] times [A; C].
    a_hi, a_lo = _jump_tables(n)
    y_hi, y_lo = np.stack([x_hi, inc_hi]), np.stack([x_lo, inc_lo])
    a_hi, a_lo = a_hi[:, None], a_lo[:, None]
    p_lo = y_lo * a_lo
    p_hi = _mulhi64(y_lo, a_lo) + y_hi * a_lo + y_lo * a_hi
    lo = p_lo[0] + p_lo[1]
    hi = p_hi[0] + p_hi[1] + (lo < p_lo[0])
    # XSL-RR: rotate hi ^ lo right by the top 6 bits of the state.
    value, rot = hi ^ lo, hi >> 58
    return value >> rot | value << (64 - rot & 63)


def seeded_indices(seed: int, t0: int, t1: int, order: int, k: int) -> np.ndarray:
    """The (t1 - t0, k) int64 array whose row t - t0 is
    ``seeded_rng(seed, t).integers(0, order, size=k)``, drawn for all rows at once.

    Each row runs numpy's own SeedSequence, PCG64 and Lemire steps in array
    arithmetic, so it is bit-identical to the per-trial generator.  A row in
    which Lemire's method would reject a draw, and every row when
    ``order >= 2^32`` or ``t1 > 2^32``, is drawn by ``seeded_rng`` itself.
    """
    seed, t0, t1, order, k = int(seed), int(t0), int(t1), int(order), int(k)
    if seed < 0:
        raise GroupError(f"seed must be >= 0, got {seed}")
    if not 0 <= t0 <= t1:
        raise GroupError(f"need 0 <= t0 <= t1, got t0={t0}, t1={t1}")
    if not 0 < order < 1 << 32 or t1 > 1 << 32:
        out = np.empty((t1 - t0, k), dtype=np.int64)
        redraw = range(t1 - t0)
    else:
        words = _seed_words(seed)
        entropy = np.empty((len(words) + 1, t1 - t0), dtype=np.uint32)
        entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
        entropy[-1] = np.arange(t0, t1)
        n = (k + 1) // 2
        out64 = _pcg64_outputs(_state_words(entropy), n)
        # numpy's next_uint32 hands out each 64-bit output low half first.
        u32 = np.stack([out64 & _MASK32, out64 >> 32], axis=2).reshape(t1 - t0, 2 * n)[:, :k]
        m = u32 * order
        out = (m >> 32).astype(np.int64)
        redraw = np.flatnonzero(((m & _MASK32) < ((1 << 32) - order) % order).any(axis=1))
    for i in redraw:
        out[i] = seeded_rng(seed, t0 + int(i)).integers(0, order, size=k)
    return out


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


def mathieu12_group() -> FiniteGroup:
    """Enumerate all 95040 elements of the 5-transitive group on 12 points."""
    return closure(12, MATHIEU12_GENERATORS, cap=DEFAULT_CLOSURE_CAP, name="M12")
