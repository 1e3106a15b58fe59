"""Combinatorial oracles: concentration, magnification, and expansion checks.

Each check minimizes a function of |X| and |N(X)| alone over the eligible
input sets X, so it is a pair of small tables indexed by [|X|, |N(X)|], with
one row per size 0..n_in: ``value`` (the bsc ratio |N(X)|/|X|, the magnifier
ratio, or the largest expander constant that passes) and ``fails`` (the bsc
or expander inequality does not hold; the magnifier has none).  The rows
outside 1..max_size hold inf and False, so a read looks any size up without
checking it.  The magnifier scans the support of A + I, whose neighbor union
of X is N(X) ∪ X, and reads |N(X) - X|/|X| as (|N(X) ∪ X| - |X|)/|X|.  Every
scan reports the least (value, witness), the witness being the
lexicographically least index tuple among float-equal minima.

A scan is a gather and a read.  The gather (``_gather``) takes the neighbor
counts of the eligible subsets once; its ``read(value, fails,
stop_at_failure)`` reduces them through one pair of tables.  ``lemma11``'s
magnifier and the expander check of its extended double cover scan the same
support with the same ``max_size`` of n/2, so ``double_cover_harness`` reads
both answers off one gather.  Every ``value`` table depends only on the shape
(n_in, n_out, max_size), so each is built, checked and cached read-only once
per shape (``_value_table``); the bsc and expander ``fails`` tables depend on
the claimed constant too, and are cached once per shape and constant
(``_fails_table``).

Both tables must be monotone in |N(X)| at a fixed |X|: ``value`` never
decreases and ``fails`` never turns from False to True as |N(X)| grows, and
``_check_monotone`` raises if they do not.  So the least value among the
subsets of one size, and whether any of them fails, is read at that size's
least |N(X)|.

Every mode has one read, ``_Cells.read``, over cells of subsets of one
size: each gather gives every cell's size and least |N(X)|, and re-expands
the cells it is asked for to find the lexicographically least subset that
attains a table entry.  The least value is the least over the cells of the
value at the cell's least |N(X)|; only the cells that attain it are
re-expanded.  ``subsets_checked`` counts the subsets the scan covers, and a
check with a ``fails`` table passes when none of them fails.

From 13 inputs the gather is one kernel, ``_Kernel``.  A subset is a bitmask
split into a low half of 12 bits and a high half, and both halves' masks are
taken in popcount order (computed once per bit count).  A cell is one high
mask with one low popcount q; the subset's size is the high popcount p plus
q.  The kernel covers only eligible subsets: for each high mask the low
columns with popcount at most max_size - p (so 24 inputs with max_size 12
cover 9,740,685 subsets, not 2^24 - 1).  Neighbor sets are split into 32-bit
words; each half has a table of the neighbor union of every subset of its
bits, built by doubling.  Columns of one popcount with the same union (all
words) give the same counts, and rows of one popcount with the same union
the same cells, so the counts are taken over distinct (popcount, union)
columns and rows only, found by one sort per word, and each row copies its
distinct row's cells.  A block of at most 2^17 unions costs one broadcast OR
per word and a popcount, and ``np.minimum.reduceat`` over the columns'
popcount groups reduces it to a table of the least |N(X)| per cell.  A cell
is re-expanded on the original masks, over the columns of its own low
popcount.

Up to ``_LO_BITS`` inputs the high half is empty and the kernel would be one
row, which ``_OneRow`` gathers subset by subset instead: every eligible
subset is its own cell (``_row_order``, cached per input count, holds the
row in (size, lexicographic) order with each subset's lexicographic rank
across sizes; the eligible subsets for any max_size are a prefix), and the
least of the selected cells is the one of least rank.

An exhaustive bsc scan stops right after its first failing subset in (size,
lexicographic) order, as a loop over ``itertools.combinations`` would.  The
read finds it off the cells: the least size s with a failing cell holds the
first failing subset, the lexicographically least failing member of those
cells, and the scan covers every smaller size and the subsets of size s up
to that one, whose lexicographic rank among them has a closed form.

Sampled mode (``_Sampled``) draws ``budget`` random subsets per size, each
its own cell, and never stops early: it can only refute a claimed constant,
never certify it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import BipartiteGraph, Graph, GraphError, closed_neighborhoods
from .permgroup import seeded_rng

EXHAUSTIVE_CAP = 24
# The kernel's low half has this many bits; with at most this many inputs the
# high half is empty and the scan gathers the kernel's one row (``_OneRow``).
_LO_BITS = 12
# The most unions of one kernel block (blocks of 2^18 ran about a third slower
# on the 24-input magnifier scan).
_CHUNK = 1 << 17


class VerifyError(ValueError):
    """A verification precondition failed."""


@dataclass(frozen=True)
class ConcentrationReport:
    """Outcome of a subset oracle run.

    ``worst_ratio``/``worst_set`` describe the minimizing subset found; in
    exhaustive runs without early exit they are exact, and the witness is the
    lexicographically smallest attaining set.  With a fixed target constant
    the scan stops at the first refutation.  Sampled runs never certify:
    verdict True just means "not refuted by ``subsets_checked`` draws".
    """

    mode: str
    worst_ratio: float
    worst_set: tuple[int, ...]
    subsets_checked: int
    verdict: bool


def _mask_to_set(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def _neighbor_words(mat) -> np.ndarray:
    """Each row's support as little-endian 32-bit words, shape (rows, words)."""
    bits = np.packbits(np.asarray(mat) > 0, axis=1, bitorder="little")
    n_bytes = max(4, -(-bits.shape[1] // 4) * 4)  # whole words, at least one
    padded = np.zeros((bits.shape[0], n_bytes), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    return padded.view("<u4")


def _union_table(masks) -> np.ndarray:
    """Neighbor union of every subset of ``masks``, indexed by subset bitmask."""
    table = np.zeros(1 << len(masks), dtype=np.uint32)
    for v, mask in enumerate(masks.tolist()):
        table[1 << v : 2 << v] = table[: 1 << v] | mask
    return table


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _popcount_order(bits):
    """The masks 0 .. 2^bits - 1 ordered by popcount and then by value, their
    popcounts, and the offset where each popcount 0 .. bits starts (with
    2^bits appended).  Cached per bit count, so the arrays are read-only."""
    masks = np.arange(1 << bits, dtype=np.uint64)
    masks = masks[np.argsort(np.bitwise_count(masks), kind="stable")]
    pops = np.bitwise_count(masks).astype(np.intp)
    return _read_only(masks, pops, np.searchsorted(pops, np.arange(bits + 2)))


@functools.cache
def _layout(n_in):
    """The kernel's layout of n_in > _LO_BITS inputs, cached per input count:
    the low bit count, ``_popcount_order`` of the low and of the high half,
    the high masks shifted into place, and the size of every cell."""
    lb = _LO_BITS
    lo, lo_pop, lo_starts = _popcount_order(lb)
    hi, hi_pop, hi_starts = _popcount_order(n_in - lb)
    cells = _read_only(hi << np.uint64(lb), hi_pop[:, None] + np.arange(lb + 1))
    return lb, lo, lo_pop, lo_starts, hi, hi_pop, hi_starts, *cells


def _subsets_upto(n_in, size):
    """The number of nonempty subsets of at most ``size`` of n_in inputs."""
    return sum(math.comb(n_in, j) for j in range(1, size + 1))


def _distinct(pops, words):
    """The distinct (popcount, neighbor union) keys of at most 2^13 masks with
    popcounts ``pops`` and unions ``words`` (one uint32 row per neighbor
    word): (the masks in key order, whether each is the first of its key).
    The keys sort by popcount first.

    One sort per word: each mask's key so far, as its rank among the keys so
    far, goes above the next word and the mask's own index, in one int64 of
    13 + 32 + 13 bits."""
    index = np.arange(len(pops))
    rank = pops
    for w, word in enumerate(words):
        if w:
            rank = np.empty_like(index)
            rank[order] = np.cumsum(new) - 1
        key = np.sort(rank << 45 | word.astype(np.int64) << 13 | index)
        order, head = key & 0x1FFF, key >> 13
        new = np.empty(len(key), dtype=bool)
        new[0] = True
        np.not_equal(head[1:], head[:-1], out=new[1:])
    return order, new


def _union_counts(his, los):
    """|N| of every (row, column) pair, rows from ``his`` and columns from
    ``los`` (one uint32 row of unions per neighbor word): one broadcast OR
    per word and a popcount."""
    total = None
    for hi, lo in zip(his, los):
        count = np.bitwise_count(hi[:, None] | lo)
        if total is None:
            total = count.astype(np.intp) if len(his) > 7 else count
        else:
            total += count  # at most 7 * 32 in uint8
    return total


class _Cells:
    """The one read, shared by the three gathers.  A gather of the ``n_in``
    rows ``words`` covers ``count`` subsets in cells, and gives each cell's
    size (``sizes``) and least |N(X)| (``least``); ``_least(cells, table,
    target)`` is the lexicographically least subset of the selected cells
    with ``table[|X|, |N(X)|] == target``, or None."""

    def read(self, value, fails, stop_at_failure):
        """The least (value, witness) over the scanned subsets, read off the
        least count per cell (``value``/``fails`` are monotone in |N|).  A
        scan that stops at its first failure covers the sizes below the least
        failing size and that size's subsets up to the first failing one."""
        n_in, sizes = self.n_in, self.sizes
        cell_value = value[sizes, self.least]
        failed, checked, first = False, self.count, None
        if fails is not None:
            cell_fails = fails[sizes, self.least]
            failed = bool(cell_fails.any())
        if failed and stop_at_failure:
            size = int(sizes[cell_fails].min())
            first = self._least(cell_fails & (sizes == size), fails, True)
            # Of the subsets of this size, sum_i C(n_in - 1 - c_i, size - i)
            # come after c_0 < c_1 < ... in lexicographic order.
            elems = _mask_to_set(first)
            after = sum(math.comb(n_in - 1 - c, size - i) for i, c in enumerate(elems))
            checked = _subsets_upto(n_in, size) - after
            # The scanned subsets of this size before ``first`` pass, so they
            # have more neighbors and (bsc's ratio rising with |N|) a larger
            # value: the witness is ``first`` or in a smaller cell.
            count = int(np.bitwise_count(np.bitwise_or.reduce(self.words[list(elems)])).sum())
            first_value = value[size, count]
            cell_value = np.where(sizes < size, cell_value, np.inf)
            low = min(cell_value.min(), first_value)
            if first_value != low:
                first = None
        else:
            low = cell_value.min()
        witness = self._least(cell_value == low, value, low)
        if first is not None:
            witness = first if witness is None else min(first, witness, key=_lex_key)
        return float(low), _mask_to_set(witness), checked, failed


class _Kernel(_Cells):
    """Neighbor counts |N(X)| of the subsets of at most ``max_size`` of
    _LO_BITS < n_in <= 24 inputs.

    A subset is a high mask (its inputs from ``_LO_BITS`` on) and a low mask,
    each half in ``_popcount_order``: row i is the high mask ``hi[i]``, column
    j the low mask ``lo[j]``, and cell (i, q) holds the subsets of row i whose
    low half has q elements, the columns ``lo_starts[q]:lo_starts[q + 1]``.
    ``lo_words`` and ``hi_words`` hold, per neighbor word, the unions of the
    low masks in column order and of the high masks in row order, as uint32,
    for the columns and rows that hold an eligible subset.

    ``least`` is the least count of every eligible cell, one whose size
    p + q is at most ``max_size``.  The other cells hold 0 or the count of a
    larger subset, and the tables hold inf and False at their sizes.
    Columns of one low popcount with the same union give the same counts,
    and rows of one high popcount with the same union the same cells, so the
    counts are taken over the distinct unions only (``_distinct``), and each
    row copies its distinct row's cells.  The distinct rows, in popcount
    order, go in blocks of at most ``_CHUNK`` unions against the distinct
    columns of low popcount up to max_size - p, p the popcount of the
    block's first row, the widest of the block; each block is reduced by
    ``np.minimum.reduceat`` over the columns' popcount groups.
    """

    def __init__(self, words, max_size):
        self.words, self.n_in = words, len(words)
        (lb, self.lo, lo_pop, self.lo_starts, hi, self.hi_pop, hi_starts,
         self.hi_masks, self.sizes) = _layout(self.n_in)
        self.count = _subsets_upto(self.n_in, max_size)
        # Only the columns and rows of eligible cells are ever read.
        ncols = self.lo_starts[min(max_size, lb) + 1]
        nrows = hi_starts[min(max_size, self.n_in - lb) + 1]
        self.lo_words = np.array([_union_table(col[:lb])[self.lo[:ncols]] for col in words.T])
        self.hi_words = np.array([_union_table(col[lb:])[hi[:nrows]] for col in words.T])
        # One ``_distinct`` takes both, the rows' popcounts offset past the
        # columns', so the columns sort first.
        pops = np.concatenate((lo_pop[:ncols], self.hi_pop[:nrows] + (lb + 1)))
        unions = np.concatenate((self.lo_words, self.hi_words), axis=1)
        order, new = _distinct(pops, unions)
        keep = order[new]
        kept_pops = pops[keep]
        starts = np.searchsorted(kept_pops, np.arange(lb + 2))
        width = starts[-1]  # the distinct columns, then the distinct rows
        los, his = unions[:, keep[:width]], unions[:, keep[width:]]
        n_rows = his.shape[1]
        least = np.zeros((n_rows, lb + 1), dtype=np.intp)
        # numpy buffers a broadcast several rows at a time when a row is
        # shorter than about a third of the ufunc buffer (8192 elements by
        # default), and then runs the OR about four times slower per element;
        # a 64-element buffer leaves rows of 64 columns or more unbuffered.
        with np.errstate():  # restores the buffer size on exit
            np.setbufsize(64)
            r = 0
            while r < n_rows:
                # rows ascend in popcount, so the block's first row is the widest
                top = min(max_size - (int(kept_pops[width + r]) - lb - 1), lb) + 1
                stop = min(r + max(1, _CHUNK // starts[top]), n_rows)
                counts = _union_counts(his[:, r:stop], los[:, : starts[top]])
                least[r:stop, :top] = np.minimum.reduceat(counts, starts[:top], axis=1)
                r = stop
        self.least = np.zeros((len(hi), lb + 1), dtype=np.intp)
        self.least[order[ncols:] - ncols] = least[np.cumsum(new[ncols:]) - 1]

    def _least(self, cells, table, target):
        """Re-expands the selected cells over the original masks, in blocks
        of at most ``_CHUNK`` unions of cells of one low popcount q, each
        over that group's columns only (under the 64-element buffer)."""
        best = []
        with np.errstate():
            np.setbufsize(64)
            for q in np.flatnonzero(cells.any(axis=0)):
                rows = np.flatnonzero(cells[:, q])
                cols = slice(self.lo_starts[q], self.lo_starts[q + 1])
                lo = self.lo[cols]
                step = max(1, _CHUNK // len(lo))
                for r in range(0, len(rows), step):
                    block = rows[r : r + step]
                    counts = _union_counts(self.hi_words[:, block], self.lo_words[:, cols])
                    hit = table[self.hi_pop[block, None] + q, counts] == target
                    if hit.any():
                        best.append(_lex_least((self.hi_masks[block, None] | lo)[hit]))
        return min(best, key=_lex_key, default=None)


_FLIP = str.maketrans("01", "10")


def _lex_key(mask: int) -> str:
    """Orders masks as their sorted index tuples: bit i, flipped, is
    character i, so a set element sorts first and a prefix before its
    extensions."""
    return bin(mask)[:1:-1].translate(_FLIP)


def _lex_least(cands: np.ndarray) -> int:
    """The bitmask among ``cands`` whose sorted index tuple is least."""
    prefix = 0  # the least tuple's first elements, held by every candidate
    while cands.size > 16:
        rest = cands ^ np.uint64(prefix)
        low = rest & -rest
        nxt = int(np.minimum.reduce(low))
        if nxt == 0:  # ``prefix`` is itself a candidate
            return prefix
        cands = cands[low == nxt]
        prefix |= nxt
    return min(cands.tolist(), key=_lex_key)


@functools.cache
def _row_order(n_in):
    """The nonempty subsets of n_in <= _LO_BITS inputs (the kernel's one
    row), cached per input count: their masks in (size, lexicographic) order,
    which is ``itertools.combinations`` size by size, their sizes, each one's
    rank in the lexicographic order of index tuples across sizes, and, for
    each k from 0 to n_in, how many of them have at most k elements.

    The lexicographic order of the subsets of {k, .., n_in - 1} is the empty
    set, then k joined to each of those of {k + 1, ..}, then the nonempty
    ones of {k + 1, ..}; a stable sort by size keeps it within each size."""
    lex = np.zeros(1, dtype=np.uint64)
    for k in reversed(range(n_in)):
        lex = np.concatenate((lex[:1], lex | np.uint64(1 << k), lex[1:]))
    # a subset's rank is its position in ``lex``; the empty set sorts first
    pops = np.bitwise_count(lex)
    order = np.argsort(pops, kind="stable")[1:]
    sizes = pops[order].astype(np.intp)
    upto = np.searchsorted(sizes, np.arange(n_in + 1), side="right")
    return _read_only(lex[order], sizes, order, upto)


class _OneRow(_Cells):
    """Neighbor counts |N(X)| of the subsets of at most ``max_size`` of
    n_in <= _LO_BITS inputs: the kernel's one row, with every eligible
    subset its own cell, in (size, lexicographic) order."""

    def __init__(self, words, max_size):
        self.words, self.n_in = words, len(words)
        masks, sizes, self.rank, upto = _row_order(self.n_in)
        self.count = int(upto[max_size])
        self.masks, self.sizes = masks[: self.count], sizes[: self.count]
        self.least = np.zeros(self.count, dtype=np.intp)
        for col in words.T:
            self.least += np.bitwise_count(_union_table(col)[self.masks])

    def _least(self, cells, table, target):
        """The selected subset of least lexicographic rank: a cell is one
        subset, selected only where the table holds the target."""
        hits = cells.nonzero()[0]
        return int(self.masks[hits[self.rank[hits].argmin()]]) if hits.size else None


class _Sampled(_Cells):
    """``budget`` sorted ``rng.choice(n_in, size, replace=False)`` draws per
    size, taken one at a time, every draw its own cell; the unions of one
    size's draws are one OR reduction over their rows."""

    def __init__(self, words, max_size, budget, seed):
        rng = seeded_rng(seed)
        self.words, self.n_in = words, len(words)
        self.draws, least = [], []
        for size in range(1, max_size + 1):
            combos = [sorted(rng.choice(self.n_in, size=size, replace=False).tolist())
                      for _ in range(budget)]
            self.draws += combos
            unions = np.bitwise_or.reduce(words[np.array(combos)], axis=1)
            least.append(np.bitwise_count(unions).sum(axis=1, dtype=np.intp))
        self.count = len(self.draws)
        self.sizes = np.repeat(np.arange(1, max_size + 1), budget)
        self.least = np.concatenate(least)

    def _least(self, cells, table, target):
        """The selected draw of least index tuple."""
        hits = cells.nonzero()[0].tolist()
        return sum(1 << v for v in min(self.draws[i] for i in hits)) if hits else None


def _check_mode(n_in, mode, budget, seed) -> None:
    """Raise if ``mode`` cannot scan n_in inputs with this budget and seed."""
    if mode == "exhaustive":
        if n_in > EXHAUSTIVE_CAP:
            raise VerifyError(f"exhaustive mode capped at {EXHAUSTIVE_CAP} inputs, got {n_in}")
    elif mode == "sampled":
        if seed is None:
            raise VerifyError("sampled mode requires an explicit seed")
        if budget < 1:
            raise VerifyError(f"sampled mode needs a budget of at least 1, got {budget}")
    else:
        raise VerifyError(f"unknown mode {mode!r}")


def _gather(mat, max_size, mode, budget, seed):
    """The neighbor counts of the input sets of at most ``max_size`` rows of
    ``mat`` (mode already checked): a ``_Sampled``, ``_OneRow`` or
    ``_Kernel``, whose ``_Cells.read(value, fails, stop_at_failure)`` gives
    (least value, its witness, subsets checked, whether a subset failed)."""
    words = _neighbor_words(mat)
    if mode == "sampled":
        return _Sampled(words, max_size, budget, seed)
    if len(words) <= _LO_BITS:
        return _OneRow(words, max_size)
    return _Kernel(words, max_size)


def _check_monotone(value, fails) -> None:
    """Every scan reads a size's least value, and whether any of its subsets
    fails, at that size's least |N|; that needs ``value`` never to decrease
    and ``fails`` never to turn from False to True as |N| grows.  Either
    table may be None."""
    if value is not None and not (value[:, 1:] >= value[:, :-1]).all():
        raise VerifyError("oracle value table decreases as |N| grows")
    if fails is not None and (fails[:, 1:] > fails[:, :-1]).any():
        raise VerifyError("oracle failure table turns true as |N| grows")


def _grid(max_size, n_out):
    """A size column 1..max_size and the neighbor counts 0..n_out, which
    broadcast to the eligible rows of a table."""
    return np.arange(1, max_size + 1)[:, None], np.arange(n_out + 1)


@functools.lru_cache(maxsize=64)  # bounded: sampled mode takes any graph size
def _value_table(ratio, n_in, n_out, max_size) -> np.ndarray:
    """``ratio(n_in, sizes, nbrs)`` on the ``_grid``, in a table with one
    row per size 0..n_in and inf in the others: built, checked monotone and
    made read-only once per shape."""
    value = np.full((n_in + 1, n_out + 1), np.inf)
    value[1 : max_size + 1] = ratio(n_in, *_grid(max_size, n_out))
    _check_monotone(value, None)
    return _read_only(value)[0]


@functools.lru_cache(maxsize=64)  # bounded: the claimed constant takes any value
def _fails_table(fails, n_in, n_out, max_size, c) -> np.ndarray:
    """``fails(n_in, c, sizes, nbrs)`` on the ``_grid``, in a table with one
    row per size 0..n_in and False in the others: built, checked monotone
    and made read-only once per shape and claimed constant."""
    table = np.zeros((n_in + 1, n_out + 1), dtype=bool)
    table[1 : max_size + 1] = fails(n_in, c, *_grid(max_size, n_out))
    _check_monotone(None, table)
    return _read_only(table)[0]


def bsc_check(
    X: BipartiteGraph,
    alpha: float,
    c: float,
    mode: str = "exhaustive",
    budget: int = 1000,
    seed: int | None = None,
) -> ConcentrationReport:
    """Is |neighbors(S)| >= c|S| for every nonempty input set with |S| <= alpha*n?

    Exhaustive mode is exact and stops at its first refutation; sampled
    mode can only refute.  The verdict is "no scanned subset failed".
    """
    if not 0 < alpha <= 1:
        raise VerifyError(f"alpha={alpha} outside (0, 1]")
    max_size = int(alpha * X.n_in + 1e-9)
    if max_size < 1:
        raise VerifyError(f"alpha={alpha} admits no nonempty subsets of {X.n_in} inputs")
    _check_mode(X.n_in, mode, budget, seed)
    fails = _fails_table(_bsc_fails, X.n_in, X.n_out, max_size, c)
    value = _value_table(_bsc_ratio, X.n_in, X.n_out, max_size)
    counts = _gather(X.inc, max_size, mode, budget, seed)
    ratio, worst, checked, failed = counts.read(value, fails, mode == "exhaustive")
    return ConcentrationReport(
        mode=mode,
        worst_ratio=ratio,
        worst_set=worst,
        subsets_checked=checked,
        verdict=not failed,
    )


def _bsc_ratio(n_in, size, nbrs):
    """|N(X)|/|X|."""
    return nbrs / size


def _bsc_fails(n_in, c, size, nbrs):
    """|N(X)| < c|X|, with a 1e-12 relative slack."""
    return nbrs < c * size - 1e-12 * size


def _outside_ratio(n_in, size, nbrs):
    """|N(X) - X|/|X| from the count |N(X) ∪ X| of the support of A + I."""
    return (nbrs - size) / size


def _magnifier_report(counts, n, max_size, mode) -> ConcentrationReport:
    """The magnifier constant of an n-vertex graph read off ``counts``, the
    gather of the support of its A + I."""
    value = _value_table(_outside_ratio, n, n, max_size)
    ratio, worst, checked, _ = counts.read(value, None, False)
    return ConcentrationReport(
        mode=mode,
        worst_ratio=ratio,
        worst_set=worst,
        subsets_checked=checked,
        verdict=ratio > 0,
    )


def magnifier_constant(
    g: Graph,
    mode: str = "exhaustive",
    budget: int = 1000,
    seed: int | None = None,
) -> ConcentrationReport:
    """Largest c with |N(X) - X| >= c|X| for all nonempty X, |X| <= n/2.

    The reported worst_ratio *is* that constant (exact in exhaustive mode).
    """
    max_size = g.n // 2
    if max_size < 1:
        raise VerifyError(f"graph on {g.n} vertices admits no eligible subsets")
    _check_mode(g.n, mode, budget, seed)
    counts = _gather(closed_neighborhoods(g), max_size, mode, budget, seed)
    return _magnifier_report(counts, g.n, max_size, mode)


def _expander_report(counts, n, c, max_size, mode) -> ConcentrationReport:
    """The expansion check with constant c read off ``counts``, the gather of
    an n x n incidence."""
    fails = _fails_table(_expansion_fails, n, n, max_size, c)
    value = _value_table(_largest_c, n, n, max_size)
    best_c, best_set, checked, failed = counts.read(value, fails, False)
    return ConcentrationReport(
        mode=mode,
        worst_ratio=best_c,
        worst_set=best_set,
        subsets_checked=checked,
        verdict=not failed,
    )


def expander_check(
    X: BipartiteGraph,
    c: float,
    restrict_half: bool = True,
    mode: str = "exhaustive",
    budget: int = 1000,
    seed: int | None = None,
) -> ConcentrationReport:
    """Check |N(A)| >= (1 + c(1 - |A|/n)) |A| over nonempty input sets A.

    By default only |A| <= n/2 is enforced; without the restriction the
    inequality is strictly stronger and fails on natural examples.  The
    reported worst_ratio is the largest constant that would pass, i.e. the
    minimum of n(|N(A)| - |A|) / (|A|(n - |A|)) over eligible A with |A| < n.
    """
    if X.n_in != X.n_out:
        raise VerifyError(f"expander check needs equal sides, got {X.n_in}x{X.n_out}")
    n = X.n_in
    if n < 2:
        raise VerifyError(f"no input set A with 0 < |A| < n among {n} inputs")
    max_size = n // 2 if restrict_half else n
    _check_mode(n, mode, budget, seed)
    return _expander_report(_gather(X.inc, max_size, mode, budget, seed), n, c, max_size, mode)


def _expansion_fails(n, c, size, nbrs):
    """Not |N(A)| >= (1 + c(1 - |A|/n))|A| (with a 1e-9 slack), or not Hall's
    condition when |A| = n; elementwise over arrays."""
    return ~((nbrs * n >= (n + c * (n - size)) * size - 1e-9) & ((size < n) | (nbrs >= size)))


def _largest_c(n, size, nbrs):
    """The largest c for which a set of this size and neighbor count passes;
    inf when |A| = n, which passes for every c or none."""
    num = n * (nbrs - size)
    return np.divide(num, size * (n - size), out=np.full(num.shape, np.inf), where=size < n)


@dataclass(frozen=True)
class DoubleCoverReport:
    """Magnifier constant of a graph vs expansion of its extended double cover."""

    magnifier: ConcentrationReport
    expander: ConcentrationReport
    passed: bool


def double_cover_harness(
    g: Graph, mode: str = "exhaustive", budget: int = 1000, seed: int | None = None
) -> DoubleCoverReport:
    """Measure the magnifier constant c, then test the extended double cover as
    an expander with that same c (half-restricted).  A falsification harness:
    the verdict is whatever the subset oracles report.

    The cover's incidence A + I is the support the magnifier scans, and both
    checks take |X| <= n/2, so one gather serves both reads (in sampled mode
    both would draw the same subsets from ``seeded_rng(seed)``).  Every input
    error is raised before the gather, with the message and in the order of
    ``magnifier_constant`` followed by ``extended_double_cover``."""
    n, max_size = g.n, g.n // 2
    if max_size < 1:
        raise VerifyError(f"graph on {n} vertices admits no eligible subsets")
    _check_mode(n, mode, budget, seed)
    if not g.is_simple():
        raise GraphError("extended double cover needs a simple graph")
    counts = _gather(closed_neighborhoods(g), max_size, mode, budget, seed)
    mag = _magnifier_report(counts, n, max_size, mode)
    exp = _expander_report(counts, n, mag.worst_ratio, max_size, mode)
    return DoubleCoverReport(magnifier=mag, expander=exp, passed=exp.verdict)
