"""Combinatorial oracles: concentration, magnification, and expansion checks.

Each check minimizes a function of |X| and |N(X)| alone over the eligible
input sets X, so it is a pair of small tables indexed by [|X|, |N(X)|]:
``value`` (the bsc ratio |N(X)|/|X|, the magnifier ratio |N(X) - X|/|X|, or
the largest expander constant that passes) and ``fails`` (the bsc or expander
inequality does not hold; the magnifier has none).  Every scan reports the
least (value, witness), the witness being the lexicographically least index
tuple among float-equal minima.

Exhaustive mode (up to 24 inputs) visits every eligible subset on one kernel,
``_subset_chunks``.  Subsets are bitmasks, visited in increasing order in the
chunks [1, 2^18 + 1), [2^18 + 1, 2^19 + 1), ... (so no array grows much past
2^18 entries).  Neighbor sets are split into 64-bit words.  For each word the
input bits split into a low half of at most 12 bits and the rest; each half
gets a table of the neighbor union of every subset of its bits, built by
doubling (at most 4096 ``uint64`` entries each), so the union of mask ``m`` is
``lo[m & lo_mask] | hi[m >> lo_bits]``, one broadcast OR per chunk and word,
and |N(X)| is the sum of the words' popcounts.

A bsc scan stops at its first refutation, by a rule that depends on the
number of inputs alone.  From ``_CHUNK_EXIT_MIN_INPUTS`` inputs it stops at
the end of the refuting chunk.  Below that the whole scan is one chunk, and
it stops at the first failing subset in (size, lexicographic) order, as a
loop over ``itertools.combinations`` would: ``subsets_checked`` and the
reported minimum cover the subsets up to and including that one.

Sampled mode draws ``budget`` random subsets per size, reduces them with the
same tables, and can only refute a claimed constant, never certify it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graphs import BipartiteGraph, Graph, extended_double_cover
from .permgroup import seeded_rng

EXHAUSTIVE_CAP = 24
# From this many inputs a refuted bsc scan stops at the end of the refuting
# chunk; below it, right after the first refuting subset.
_CHUNK_EXIT_MIN_INPUTS = 17


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
    """Each row's support as little-endian 64-bit words, shape (rows, words)."""
    bits = np.packbits(np.asarray(mat) > 0, axis=1, bitorder="little")
    n_bytes = max(8, -(-bits.shape[1] // 8) * 8)  # whole words, at least one
    padded = np.zeros((bits.shape[0], n_bytes), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    return padded.view("<u8")


def _union_table(masks) -> np.ndarray:
    """Neighbor union of every subset of ``masks``, indexed by subset bitmask."""
    table = np.zeros(1 << len(masks), dtype=np.uint64)
    for v, mask in enumerate(masks):
        table[1 << v : 2 << v] = table[: 1 << v] | mask
    return table


def _subset_chunks(words, max_size, exclude_self):
    """Yield ``(m, sizes, nbrs)`` for the nonempty input subsets, as bitmasks
    in increasing order, one chunk [1 + k*2^18, 1 + (k+1)*2^18) of
    [1, 2^n_in) at a time; chunks without a subset of at most ``max_size``
    elements are skipped, and the others are not filtered.  ``nbrs`` is
    |N(X)|, or |N(X) - X| with ``exclude_self``.  ``words`` is
    ``_neighbor_words`` of n_in <= 24 inputs.
    """
    n_in = len(words)
    lo_bits = min(n_in, 12)
    tables = [(_union_table(col[:lo_bits]), _union_table(col[lo_bits:])) for col in words.T]
    total = 1 << n_in
    chunk = 1 << 18
    # lo[m & lo_mask] | hi[m >> lo_bits] over a chunk is one broadcast OR of
    # the high rows the chunk touches with all of ``lo``, sliced to the chunk.
    for start in range(1, total, chunk):
        stop = min(start + chunk, total)
        m = np.arange(start, stop, dtype=np.uint64)
        sizes = np.bitwise_count(m)
        if sizes.min() > max_size:
            continue
        first = start >> lo_bits
        last = ((stop - 1) >> lo_bits) + 1
        offset = first << lo_bits
        for w, (lo, hi) in enumerate(tables):
            union = (hi[first:last, None] | lo).ravel()[start - offset : stop - offset]
            if exclude_self and w == 0:  # input bits all lie in the first word
                union &= ~m
            count = np.bitwise_count(union)
            nbrs = count if w == 0 else nbrs + count.astype(np.intp)
        yield m, sizes, nbrs


def _lex_least(cands: np.ndarray) -> int:
    """The bitmask among ``cands`` whose sorted index tuple is least."""
    prefix = np.uint64(0)
    while not (cands == prefix).any():
        rest = cands & ~prefix
        low = rest & (~rest + np.uint64(1))
        nxt = low.min()
        cands = cands[low == nxt]
        prefix |= nxt
    return int(prefix)


def _through_first_failure(m, sizes, bad) -> np.ndarray:
    """Which of the masks ``m`` a (size, lexicographic) scan visits up to and
    including the first ``bad`` one.  Of two sets of one size, the one that
    holds the least element of their symmetric difference comes first."""
    size = sizes[bad].min()
    first = np.uint64(_lex_least(m[bad & (sizes == size)]))
    diff = m ^ first
    low = diff & (~diff + np.uint64(1))
    return (sizes < size) | ((sizes == size) & (((low & m) != 0) | (diff == 0)))


def _exhaustive(words, max_size, tables, exclude_self, stop_at_failure):
    """The least (value, witness) over every eligible subset, on the kernel."""
    n_in = len(words)
    value, fails = tables(np.arange(1, max_size + 1)[:, None])
    width = value.shape[1]
    # Rows for every size 0..n_in, so that chunks need no filtering: larger
    # sets than max_size never attain a finite minimum and never fail.
    value = _size_rows(value, n_in, np.inf)
    fails = None if fails is None else _size_rows(fails, n_in, False)
    best = None
    checked = 0
    failed = False
    for m, sizes, nbrs in _subset_chunks(words, max_size, exclude_self):
        key = sizes.astype(np.intp) * width + nbrs
        eligible = np.count_nonzero(sizes <= max_size)
        if fails is not None and not failed:
            bad = fails[key]
            failed = bool(bad.any())
            if failed and stop_at_failure and n_in < _CHUNK_EXIT_MIN_INPUTS:
                visited = _through_first_failure(m, sizes, bad)
                m, key = m[visited], key[visited]
                eligible = m.size
        checked += int(eligible)
        v = value[key]
        low = v.min()
        if best is None or low <= best[0]:
            cand = (float(low), _mask_to_set(_lex_least(m[v == low])))
            best = cand if best is None else min(best, cand)
        if failed and stop_at_failure:
            break
    return (*best, checked, failed)


def _size_rows(table, n_in, fill) -> np.ndarray:
    """The rows of ``table`` (sizes 1, 2, ...) placed among rows 0..n_in of
    ``fill``, flattened for lookup by size * width + |N|."""
    rows = np.full((n_in + 1, table.shape[1]), fill, dtype=table.dtype)
    rows[1 : len(table) + 1] = table
    return rows.ravel()


def _sampled(words, max_size, tables, exclude_self, budget, seed):
    """The least (value, witness) over ``budget`` sorted
    ``rng.choice(n_in, size, replace=False)`` draws per size, one at a time."""
    rng = seeded_rng(seed)
    masks = [int.from_bytes(row.tobytes(), "little") for row in words]
    best = None
    checked = 0
    failed = False
    for size in range(1, max_size + 1):
        value, fails = tables(np.array([[size]]))
        value = value[0].tolist()
        fails = None if fails is None else fails[0].tolist()
        for _ in range(budget):
            combo = tuple(sorted(int(x) for x in rng.choice(len(masks), size=size, replace=False)))
            union = 0
            for v in combo:
                union |= masks[v]
            if exclude_self:
                union &= ~sum(1 << v for v in combo)
            nbrs = union.bit_count()
            checked += 1
            failed = failed or (fails is not None and fails[nbrs])
            cand = (value[nbrs], combo)
            if best is None or cand < best:
                best = cand
    return (*best, checked, failed)


def _scan(mat, max_size, tables, mode, budget, seed, exclude_self=False, stop_at_failure=False):
    """(least value, its witness, subsets checked, whether a subset failed)
    over the input sets of at most ``max_size`` rows of ``mat``.

    ``tables(sizes, nbrs)`` gives ``value`` and ``fails`` (or None) on the
    broadcast grid of a size column and the neighbor counts 0..n_out.
    ``stop_at_failure`` ends an exhaustive scan at its first failing subset.
    """
    n_in, n_out = np.shape(mat)
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
    words = _neighbor_words(mat)
    tables = functools.partial(tables, nbrs=np.arange(n_out + 1))
    max_size = min(max_size, n_in)
    if mode == "exhaustive":
        return _exhaustive(words, max_size, tables, exclude_self, stop_at_failure)
    return _sampled(words, max_size, tables, exclude_self, budget, seed)


def bsc_check(
    X: BipartiteGraph,
    alpha: float,
    c: float,
    mode: str = "exhaustive",
    budget: int = 1000,
    seed: int | None = None,
) -> ConcentrationReport:
    """Is |neighbors(S)| >= c|S| for every nonempty input set with |S| <= alpha*n?

    Exhaustive mode is exact and may stop at the first refutation; sampled
    mode can only refute.
    """
    if not 0 < alpha <= 1:
        raise VerifyError(f"alpha={alpha} outside (0, 1]")
    max_size = int(alpha * X.n_in + 1e-9)
    if max_size < 1:
        raise VerifyError(f"alpha={alpha} admits no nonempty subsets of {X.n_in} inputs")
    ratio, worst, checked, _ = _scan(
        X.inc,
        max_size,
        lambda size, nbrs: (nbrs / size, nbrs < c * size - 1e-12 * size),
        mode,
        budget,
        seed,
        stop_at_failure=True,
    )
    return ConcentrationReport(
        mode=mode,
        worst_ratio=ratio,
        worst_set=worst,
        subsets_checked=checked,
        verdict=ratio >= c - 1e-12,
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
    ratio, worst, checked, _ = _scan(
        g.adj, max_size, lambda size, nbrs: (nbrs / size, None), mode, budget, seed,
        exclude_self=True,
    )
    return ConcentrationReport(
        mode=mode,
        worst_ratio=ratio,
        worst_set=worst,
        subsets_checked=checked,
        verdict=ratio > 0,
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
    best_c, best_set, checked, failed = _scan(
        X.inc,
        n // 2 if restrict_half else n,
        lambda size, nbrs: (_largest_c(n, size, nbrs), ~_expansion_holds(n, c, size, nbrs)),
        mode,
        budget,
        seed,
    )
    return ConcentrationReport(
        mode=mode,
        worst_ratio=best_c,
        worst_set=best_set,
        subsets_checked=checked,
        verdict=not failed,
    )


def _expansion_holds(n, c, size, nbrs):
    """|N(A)| >= (1 + c(1 - |A|/n))|A|, with a 1e-9 slack, and Hall's condition
    when |A| = n; elementwise over arrays."""
    return (nbrs * n >= (n + c * (n - size)) * size - 1e-9) & ((size < n) | (nbrs >= size))


def _largest_c(n, size, nbrs):
    """The largest c for which a set of this size and neighbor count passes;
    inf when |A| = n, which passes for every c or none."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(size < n, n * (nbrs - size) / (size * (n - size)), np.inf)


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
    the verdict is whatever the subset oracles report."""
    mag = magnifier_constant(g, mode=mode, budget=budget, seed=seed)
    cover = extended_double_cover(g)
    exp = expander_check(
        cover, mag.worst_ratio, restrict_half=True, mode=mode, budget=budget, seed=seed
    )
    return DoubleCoverReport(magnifier=mag, expander=exp, passed=exp.verdict)
