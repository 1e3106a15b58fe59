"""Combinatorial oracles: concentration, magnification, and expansion checks.

Exhaustive mode enumerates every eligible input subset (feasible up to 24
inputs) and reports the exact worst neighbor ratio with a deterministic,
lexicographically-least witness.  Sampled mode draws random subsets per size
and can only refute a claimed constant, never certify it.

Exhaustive scans run on one kernel, ``_subset_chunks``.  Input subsets are
bitmasks, visited in increasing order in the chunks [1, 2^18 + 1),
[2^18 + 1, 2^19 + 1), ... (so no array grows much past 2^18 entries).  The
input bits are split into a low half of at most 12 bits and a high half; each
half gets a table of the neighbor union of every subset of its bits, built by
doubling (at most 4096 ``uint64`` entries each), so the neighbor union of mask
``m`` is ``lo[m & lo_mask] | hi[m >> lo_bits]``, one broadcast OR per chunk
whatever the number of inputs.  Neighbor sets must fit 64 output bits.  The
exhaustive expander check always runs on the kernel (at most 24 inputs and
outputs).  bsc and magnifier scans below 17 inputs or beyond 64 outputs stay
on a pure-Python loop.  The 17-input gate stays because ``verify-bsc`` stops
right after the first refuting subset on that loop but only at a chunk end on
the kernel, so moving small bsc scans would change their ``subsets_checked``.
Sampled mode is a Python loop over drawn index tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import BipartiteGraph, Graph, extended_double_cover
from .permgroup import seeded_rng

EXHAUSTIVE_CAP = 24
_NUMPY_MIN_BITS = 17  # below this bsc early exits stop per subset, not per chunk


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


def _neighbor_masks(mat: np.ndarray) -> list[int]:
    masks = []
    for row in np.asarray(mat):
        m = 0
        for j in np.nonzero(row)[0]:
            m |= 1 << int(j)
        masks.append(m)
    return masks


def _ratio_fold(best, size: int, gamma: int, mask: int):
    """Fold one candidate into (num, den, mask) keeping exact lex-min ties."""
    num, den, bmask = best
    # compare gamma/size against num/den exactly
    lhs = gamma * den
    rhs = num * size
    if lhs < rhs or (lhs == rhs and _mask_to_set(mask) < _mask_to_set(bmask)):
        return (gamma, size, mask)
    return best


def _scan_python(masks, n_in, max_size, metric, target, early_exit):
    """Pure-python exhaustive scan; metric(size, union_mask, subset_mask) -> (num, den)."""
    best = None
    checked = 0
    refuted = None
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(n_in), size):
            union = 0
            mask = 0
            for v in combo:
                union |= masks[v]
                mask |= 1 << v
            num, den = metric(size, union, mask)
            checked += 1
            if best is None:
                best = (num, den, mask)
            else:
                best = _ratio_fold(best, den, num, mask)
            if early_exit and target is not None and num < target * den - 1e-12 * den:
                refuted = (num, den, mask)
                return best, checked, refuted
    return best, checked, refuted


def _union_table(masks) -> np.ndarray:
    """Neighbor union of every subset of ``masks``, indexed by subset bitmask."""
    table = np.zeros(1 << len(masks), dtype=np.uint64)
    for v, mask in enumerate(masks):
        table[1 << v : 2 << v] = table[: 1 << v] | np.uint64(mask)
    return table


def _subset_chunks(masks, n_in, max_size):
    """Yield ``(m, sizes, union)`` for the nonempty input subsets of at most
    ``max_size`` elements, as bitmasks in increasing order, one chunk
    [1 + k*2^18, 1 + (k+1)*2^18) of [1, 2^n_in) at a time; chunks without an
    eligible mask are skipped.  ``m`` and ``union`` are ``uint64``, ``sizes``
    is ``uint8``.  Needs n_in <= 24 and neighbor masks below 2^64."""
    lo_bits = min(n_in, 12)
    lo = _union_table(masks[:lo_bits])
    hi = _union_table(masks[lo_bits:n_in])
    total = 1 << n_in
    chunk = 1 << 18
    # lo[m & lo_mask] | hi[m >> lo_bits] over a chunk is one broadcast OR of
    # the high rows the chunk touches with all of ``lo``, sliced to the chunk.
    # Each array is filtered before the next one is built, so at most two
    # chunk-sized uint64 arrays are alive at once.
    for start in range(1, total, chunk):
        stop = min(start + chunk, total)
        m = np.arange(start, stop, dtype=np.uint64)
        sizes = np.bitwise_count(m)
        eligible = sizes <= max_size
        if not eligible.any():
            continue
        first = start >> lo_bits
        last = ((stop - 1) >> lo_bits) + 1
        offset = first << lo_bits
        union = (hi[first:last, None] | lo).ravel()[start - offset : stop - offset]
        if not eligible.all():
            m = m[eligible]
            sizes = sizes[eligible]
            union = union[eligible]
        yield m, sizes, union


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


def _scan_numpy(masks, n_in, max_size, metric_kind, target, early_exit):
    """Vectorized scan over all bitmasks; needs n_out <= 64 and n_in <= 24.

    Neighbor unions come from ``_subset_chunks``'s split union tables.  After
    each chunk every candidate at the chunk minimum is folded exactly, and a
    set target stops the scan at the end of the first chunk that refutes it.
    """
    best = None
    checked = 0
    refuted = None
    for m, sizes, union in _subset_chunks(masks, n_in, max_size):
        if metric_kind == "exclude_self":
            union &= ~m
        gammas = np.bitwise_count(union)
        checked += int(m.size)
        ratios = gammas / sizes  # float64, exact on these small integers
        # fold every candidate attaining the chunk minimum exactly; equal
        # rationals in this range compare equal as floats
        tie = ratios <= ratios.min()
        for idx in np.nonzero(tie)[0]:
            cand = (int(gammas[idx]), int(sizes[idx]), int(m[idx]))
            if best is None:
                best = cand
            else:
                best = _ratio_fold(best, cand[1], cand[0], cand[2])
        if early_exit and target is not None and best is not None:
            num, den, mask = best
            if num < target * den - 1e-12 * den:
                refuted = best
                return best, checked, refuted
    return best, checked, refuted


def _exhaustive_min_ratio(mat, n_in, max_size, exclude_self, target=None, early_exit=False):
    """Minimum of |neighbors(X)|/|X| over nonempty X with |X| <= max_size."""
    if n_in > EXHAUSTIVE_CAP:
        raise VerifyError(f"exhaustive mode capped at {EXHAUSTIVE_CAP} inputs, got {n_in}")
    masks = _neighbor_masks(mat)
    n_out = np.asarray(mat).shape[1]
    max_size = min(max_size, n_in)
    if max_size < 1:
        raise VerifyError("no eligible subset sizes")
    if n_out <= 64 and n_in >= _NUMPY_MIN_BITS:
        kind = "exclude_self" if exclude_self else "plain"
        best, checked, refuted = _scan_numpy(masks, n_in, max_size, kind, target, early_exit)
    else:
        if exclude_self:
            metric = lambda size, union, mask: ((union & ~mask).bit_count(), size)
        else:
            metric = lambda size, union, mask: (union.bit_count(), size)
        best, checked, refuted = _scan_python(masks, n_in, max_size, metric, target, early_exit)
    num, den, mask = best
    return num / den, _mask_to_set(mask), checked


def _check_sampled(budget, seed):
    if seed is None:
        raise VerifyError("sampled mode requires an explicit seed")
    if budget < 1:
        raise VerifyError(f"sampled mode needs a budget of at least 1, got {budget}")


def _sampled_min_ratio(mat, n_in, max_size, exclude_self, budget, seed):
    _check_sampled(budget, seed)
    rng = seeded_rng(seed)
    masks = _neighbor_masks(mat)
    best = None
    checked = 0
    for size in range(1, min(max_size, n_in) + 1):
        for _ in range(budget):
            combo = sorted(int(x) for x in rng.choice(n_in, size=size, replace=False))
            union = 0
            mask = 0
            for v in combo:
                union |= masks[v]
                mask |= 1 << v
            gamma = (union & ~mask).bit_count() if exclude_self else union.bit_count()
            checked += 1
            cand = (gamma, size, mask)
            best = cand if best is None else _ratio_fold(best, size, gamma, mask)
    num, den, mask = best
    return num / den, _mask_to_set(mask), checked


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
    support = (X.inc > 0).astype(np.int64)
    max_size = int(alpha * X.n_in + 1e-9)
    if max_size < 1:
        raise VerifyError(f"alpha={alpha} admits no nonempty subsets of {X.n_in} inputs")
    if mode == "exhaustive":
        ratio, worst, checked = _exhaustive_min_ratio(
            support, X.n_in, max_size, exclude_self=False, target=c, early_exit=True
        )
    elif mode == "sampled":
        ratio, worst, checked = _sampled_min_ratio(
            support, X.n_in, max_size, exclude_self=False, budget=budget, seed=seed
        )
    else:
        raise VerifyError(f"unknown mode {mode!r}")
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
    support = (g.adj > 0).astype(np.int64)
    np.fill_diagonal(support, 0)
    max_size = g.n // 2
    if max_size < 1:
        raise VerifyError(f"graph on {g.n} vertices admits no eligible subsets")
    if mode == "exhaustive":
        ratio, worst, checked = _exhaustive_min_ratio(
            support, g.n, max_size, exclude_self=True
        )
    elif mode == "sampled":
        ratio, worst, checked = _sampled_min_ratio(
            support, g.n, max_size, exclude_self=True, budget=budget, seed=seed
        )
    else:
        raise VerifyError(f"unknown mode {mode!r}")
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
    support = (X.inc > 0).astype(np.int64)
    masks = _neighbor_masks(support)
    max_size = n // 2 if restrict_half else n
    if n < 2:
        raise VerifyError(f"no input set A with 0 < |A| < n among {n} inputs")

    if mode == "exhaustive":
        if n > EXHAUSTIVE_CAP:
            raise VerifyError(f"exhaustive mode capped at {EXHAUSTIVE_CAP} inputs")
        best_c, best_set, checked, verdict = _expander_exhaustive(masks, n, max_size, c)
    elif mode == "sampled":
        _check_sampled(budget, seed)
        rng = seeded_rng(seed)
        combos = (
            tuple(sorted(int(x) for x in rng.choice(n, size=size, replace=False)))
            for size in range(1, max_size + 1)
            for _ in range(budget)
        )
        best_c, best_set, checked, verdict = _expander_sampled(masks, n, c, combos)
    else:
        raise VerifyError(f"unknown mode {mode!r}")
    return ConcentrationReport(
        mode=mode,
        worst_ratio=best_c,
        worst_set=best_set,
        subsets_checked=checked,
        verdict=verdict,
    )


def _expander_exhaustive(masks, n, max_size, c):
    """Every nonempty A with |A| <= max_size, on the subset kernel.

    Returns (least cmax, its lexicographically least witness among float-equal
    minima, subsets checked, verdict).  Both the inequality and cmax depend on
    (|A|, |N(A)|) alone, so they are evaluated once per pair, with the scalar
    expressions of the sampled scan, and looked up per subset."""
    pairs = [(size, nbrs) for size in range(max_size + 1) for nbrs in range(n + 1)]
    ok_tab = np.array([_expansion_holds(n, c, size, nbrs) for size, nbrs in pairs])
    cmax_tab = np.array(
        [_largest_c(n, size, nbrs) if 0 < size < n else np.inf for size, nbrs in pairs]
    )
    best_c = None
    best_set: tuple[int, ...] = ()
    verdict = True
    checked = 0
    for m, sizes, union in _subset_chunks(masks, n, max_size):
        key = sizes.astype(np.intp) * (n + 1) + np.bitwise_count(union)
        checked += int(m.size)
        if verdict and not ok_tab[key].all():
            verdict = False
        cmax = cmax_tab[key]
        low = cmax.min()
        if low < np.inf and (best_c is None or low <= best_c):
            cand = _mask_to_set(_lex_least(m[cmax == low]))
            if best_c is None or low < best_c or cand < best_set:
                best_c, best_set = float(low), cand
    return best_c, best_set, checked, verdict


def _expansion_holds(n, c, size, nbrs) -> bool:
    """|N(A)| >= (1 + c(1 - |A|/n))|A|, with a 1e-9 slack, and Hall's condition
    when |A| = n."""
    if not nbrs * n >= (n + c * (n - size)) * size - 1e-9:
        return False
    return size < n or nbrs >= size


def _largest_c(n, size, nbrs) -> float:
    """The largest c for which a set of this size and neighbor count passes."""
    return n * (nbrs - size) / (size * (n - size))


def _expander_sampled(masks, n, c, combos):
    """The exhaustive rule over the given index tuples, one at a time."""
    best_c = None
    best_set: tuple[int, ...] = ()
    verdict = True
    checked = 0
    for combo in combos:
        union = 0
        for v in combo:
            union |= masks[v]
        size = len(combo)
        nbrs = union.bit_count()
        checked += 1
        if not _expansion_holds(n, c, size, nbrs):
            verdict = False
        if size < n:
            cmax = _largest_c(n, size, nbrs)
            key = (cmax, combo)
            if best_c is None or key < (best_c, best_set):
                best_c, best_set = cmax, tuple(combo)
    return best_c, best_set, checked, verdict


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
