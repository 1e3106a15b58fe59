"""Block designs: validation, contraction, Steiner systems, incidence spectra.

Two built-in families: the 5-(24,8,1) Steiner system read off the weight-8
words of the extended binary Golay code, and the 5-(12,6,1) system obtained
as a block orbit on 12 points, together with the designs reached from both by
repeated contraction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import BipartiteGraph
from .permgroup import MATHIEU12_BASE_BLOCK, MATHIEU12_GENERATORS, orbit_of_set
from .spectral import ramanujan_check, sym_eigenvalues

DEFAULT_VALIDATE_CAP = 10**7
# Block t-subsets ranked per pass of ``validate_design``, which bounds its
# temporaries on designs with many large blocks.
_RANK_BATCH = 1 << 18


class DesignError(ValueError):
    """A design precondition or internal consistency check failed."""


def _check_strength(t: int, gamma: int) -> None:
    if t < 1 or gamma < 1:
        raise DesignError(f"need t >= 1 and gamma >= 1, got t={t}, gamma={gamma}")


@dataclass(frozen=True)
class Design:
    """v points, equal-size blocks, claimed strength t and t-wise count gamma,
    both at least 1."""

    v: int
    blocks: tuple[tuple[int, ...], ...]
    t: int
    gamma: int

    def __post_init__(self) -> None:
        blocks = tuple(tuple(sorted(int(x) for x in b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise DesignError("a design needs at least one block")
        k = len(blocks[0])
        for b in blocks:
            if len(b) != k or len(set(b)) != k:
                raise DesignError(f"block {b} is not a {k}-subset")
            if b[0] < 0 or b[-1] >= self.v:
                raise DesignError(f"block {b} has points outside 0..{self.v - 1}")
        _check_strength(self.t, self.gamma)
        if not self.t <= k < self.v:
            raise DesignError(f"need t <= k < v, got t={self.t}, k={k}, v={self.v}")

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def k(self) -> int:
        return len(self.blocks[0])


@dataclass(frozen=True)
class BibdParams:
    """(v, b, r, k, lambda) with the standard counting identities."""

    v: int
    b: int
    r: int
    k: int
    lam: int

    def identities_hold(self) -> bool:
        return (
            self.b * self.k == self.v * self.r
            and self.r * (self.k - 1) == self.lam * (self.v - 1)
        )

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.v, self.b, self.r, self.k, self.lam)


# Parameter tuples sometimes quoted for two of the contracted designs; both
# fail the counting identity b*k = v*r and are kept only so reports can flag
# the conflict against the formula-derived values.
DISPUTED_REFERENCE_TUPLES: dict[tuple[int, int, int, int], tuple[int, ...]] = {
    (4, 23, 7, 1): (23, 506, 77, 6, 21),
    (2, 9, 3, 1): (9, 36, 8, 3, 1),
}


def derived_count(t: int, v: int, k: int, gamma: int, s: int) -> int | None:
    """gamma_s = gamma * (v-s)...(v-t+1) / ((k-s)...(k-t+1)); None if fractional.

    A fractional value signals that no t-(v,k,gamma) design can exist.
    """
    if not 0 <= s <= t:
        raise DesignError(f"need 0 <= s <= t, got s={s}, t={t}")
    num = gamma
    den = 1
    for i in range(s, t):
        num *= v - i
        den *= k - i
    q, rem = divmod(num, den)
    return q if rem == 0 else None


def bibd_params(t: int, v: int, k: int, gamma: int) -> BibdParams | None:
    """BIBD parameters (v, b, r, k, lambda) derived from a t-design; None if impossible."""
    if t < 2:
        raise DesignError("BIBD parameters need strength t >= 2")
    b = derived_count(t, v, k, gamma, 0)
    r = derived_count(t, v, k, gamma, 1)
    lam = derived_count(t, v, k, gamma, 2)
    if b is None or r is None or lam is None:
        return None
    return BibdParams(v=v, b=b, r=r, k=k, lam=lam)


def design_bibd(design: Design) -> BibdParams:
    params = bibd_params(design.t, design.v, design.k, design.gamma)
    if params is None:
        raise DesignError("design parameters do not yield integer BIBD counts")
    return params


def validate_design(
    design: Design,
    t: int | None = None,
    gamma: int | None = None,
    cap: int = DEFAULT_VALIDATE_CAP,
) -> tuple[bool, tuple[tuple[int, ...], int] | None]:
    """Exhaustively check that every t-subset lies in exactly gamma blocks.

    Returns (True, None) or (False, (witness_subset, observed_count)); the
    witness is the lexicographically first failing t-subset.  Every block's
    t-subsets are ranked in lexicographic order and counted by one bincount
    over all C(v, t) ranks, so the least failing rank is the witness.
    """
    t = design.t if t is None else t
    gamma = design.gamma if gamma is None else gamma
    _check_strength(t, gamma)
    if not t <= design.k < design.v:
        raise DesignError(f"need t <= k < v, got t={t}")
    total = math.comb(design.v, t)
    if total > cap:
        raise DesignError(f"C({design.v},{t}) = {total} exceeds enumeration cap {cap}")
    # The sorted subset c_0 < ... < c_{t-1} has lexicographic rank
    # total - 1 - sum_i C(v-1-c_i, t-i).  binom[j - 1][x] = C(x, j) for every
    # x <= v-1-t+j that member t-j can give, all at most total.
    binom = [np.arange(design.v - t + 1, dtype=np.int64)]
    for _ in range(t - 1):
        binom.append(np.concatenate(([0], np.cumsum(binom[-1]))))
    combos = itertools.combinations(range(design.k), t)
    where = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.intp).reshape(-1, t)
    flipped = design.v - 1 - np.array(design.blocks, dtype=np.int64)
    counts = np.zeros(total, dtype=np.int64)
    step = max(1, _RANK_BATCH // len(where))
    for s in range(0, design.b, step):
        subs = flipped[s : s + step, where]
        ranks = total - 1 - sum(binom[t - 1 - i][subs[..., i]] for i in range(t))
        counts += np.bincount(ranks.ravel(), minlength=total)
    bad = np.flatnonzero(counts != gamma)
    if not len(bad):
        return True, None
    return False, (_lex_unrank(design.v, t, int(bad[0])), int(counts[bad[0]]))


def _lex_unrank(v: int, t: int, rank: int) -> tuple[int, ...]:
    """The t-subset of 0..v-1 with the given lexicographic rank."""
    out, x = [], 0
    for left in range(t, 0, -1):
        # C(v-1-x, left-1) subsets continue the prefix with x.
        while rank >= (n := math.comb(v - 1 - x, left - 1)):
            rank -= n
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def contraction(design: Design, p: int | None = None) -> Design:
    """Blocks through p with p removed, relabeled to 0..v-2; strength drops by one.

    Defaults to the largest point, so repeated contraction walks down the
    natural chain v, v-1, ...
    """
    if design.t < 2:
        raise DesignError("contraction needs strength t >= 2")
    p = design.v - 1 if p is None else p
    if not 0 <= p < design.v:
        raise DesignError(f"point {p} outside 0..{design.v - 1}")
    new_blocks = []
    for block in design.blocks:
        if p in block:
            new_blocks.append(
                tuple(x if x < p else x - 1 for x in block if x != p)
            )
    return Design(v=design.v - 1, blocks=tuple(new_blocks), t=design.t - 1, gamma=design.gamma)


# -- the 24-point Steiner system via the extended binary Golay code ----------

def golay_generator_matrix() -> np.ndarray:
    """The fixed 12x24 generator matrix [I | B] of the extended binary Golay code.

    Rows are derived from the quadratic-residue construction mod 23: the 23
    cyclic shifts of the residue indicator vector, each extended by an overall
    parity bit, reduced to row echelon form over GF(2).  The reduction is
    deterministic and its pivots land on the first 12 columns.
    """
    p = 23
    residues = {(i * i) % p for i in range(1, p)}
    rows = np.zeros((p, p + 1), dtype=np.int64)
    for u in range(p):
        for v in range(p):
            if (v - u) % p in residues:
                rows[u, v] = 1
        rows[u, p] = rows[u, :p].sum() % 2
    A = rows % 2
    r = 0
    for c in range(A.shape[1]):
        piv = next((i for i in range(r, A.shape[0]) if A[i, c]), None)
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        for i in range(A.shape[0]):
            if i != r and A[i, c]:
                A[i] ^= A[r]
        r += 1
    gen = A[:12]
    if r != 12 or not np.array_equal(gen[:, :12], np.eye(12, dtype=np.int64)):
        raise DesignError("Golay generator reduction lost its systematic form")
    return gen


@functools.cache
def golay_codewords() -> np.ndarray:
    """All 4096 codewords of the extended binary Golay code as a 4096x24 array.

    Built once per process; the array is read-only."""
    gen = golay_generator_matrix()
    combos = ((np.arange(4096)[:, None] >> np.arange(12)) & 1).astype(np.int64)
    words = combos @ gen % 2
    words.setflags(write=False)
    return words


GOLAY_WEIGHT_DISTRIBUTION = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


@functools.cache
def golay_witt_design() -> Design:
    """The 5-(24,8,1) Steiner system: supports of the 759 weight-8 codewords.

    Aborts if the code's weight distribution differs from the expected
    {0:1, 8:759, 12:2576, 16:759, 24:1}.  Built once per process.
    """
    words = golay_codewords()
    weights = words.sum(axis=1)
    observed = {int(w): int(c) for w, c in zip(*np.unique(weights, return_counts=True))}
    if observed != GOLAY_WEIGHT_DISTRIBUTION:
        raise DesignError(f"Golay weight distribution corrupted: {observed}")
    octads = sorted(tuple(int(x) for x in np.nonzero(row)[0]) for row in words[weights == 8])
    return Design(v=24, blocks=tuple(octads), t=5, gamma=1)


# -- the 12-point chain from a block orbit ------------------------------------

@functools.cache
def mathieu12_designs() -> tuple[Design, Design, Design, Design]:
    """The 5-(12,6,1) design as a block orbit, then three contractions.

    Blocks are the orbit of the base hexad under the 12-point generators; the
    chain contracts at the largest point each time, giving 4-(11,5,1),
    3-(10,4,1) and 2-(9,3,1).  Every member is validated before return, once
    per process: the chain is built on the first call and reused.
    """
    blocks = orbit_of_set(MATHIEU12_GENERATORS, MATHIEU12_BASE_BLOCK)
    if len(blocks) != 132:
        raise DesignError(f"hexad orbit has {len(blocks)} blocks, expected 132")
    chain = [Design(v=12, blocks=blocks, t=5, gamma=1)]
    for _ in range(3):
        chain.append(contraction(chain[-1]))
    for d in chain:
        ok, witness = validate_design(d)
        if not ok:
            raise DesignError(f"contracted design failed validation at {witness}")
    return tuple(chain)  # type: ignore[return-value]


def design_bipartite(design: Design, blocks_as_inputs: bool = False) -> BipartiteGraph:
    """0/1 incidence graph; rows are points (v x b) unless blocks_as_inputs."""
    inc = np.zeros((design.v, design.b), dtype=np.int64)
    for j, block in enumerate(design.blocks):
        for x in block:
            inc[x, j] = 1
    return BipartiteGraph(inc.T.copy() if blocks_as_inputs else inc)


@dataclass(frozen=True)
class BibdSpectrumReport:
    """Observed vs expected point-side Gram spectrum of a BIBD incidence."""

    params: BibdParams
    eigenvalues: tuple[float, ...]
    expected: tuple[float, ...]
    max_relative_error: float
    mu1: float
    mu1_expected: float
    ramanujan: bool
    ok: bool


def bibd_spectrum_check(design: Design, tol: float = 1e-8) -> BibdSpectrumReport:
    """Check spectrum(A A^T) = {r*k (x1), r-lambda (x v-1)} for the v x b incidence.

    Also reports the bipartite second singular value mu1 = sqrt(r - lambda)
    and whether it meets the (r, k)-biregular Ramanujan threshold.
    """
    params = design_bibd(design)
    ok_valid, witness = validate_design(design)
    if not ok_valid:
        raise DesignError(f"not a valid design, witness {witness}")
    A = design_bipartite(design).inc.astype(float)
    report = sym_eigenvalues(A @ A.T)
    expected = [float(params.r * params.k)] + [float(params.r - params.lam)] * (design.v - 1)
    scale = max(abs(e) for e in expected)
    errs = [abs(o - e) / scale for o, e in zip(report.eigenvalues, expected)]
    max_err = max(errs)
    mu1 = math.sqrt(max(report.eigenvalues[1], 0.0))
    mu1_expected = math.sqrt(params.r - params.lam)
    return BibdSpectrumReport(
        params=params,
        eigenvalues=report.eigenvalues,
        expected=tuple(expected),
        max_relative_error=max_err,
        mu1=mu1,
        mu1_expected=mu1_expected,
        ramanujan=ramanujan_check(params.r, params.k, mu1),
        ok=max_err <= tol,
    )
