"""Per-element pure-Python reference implementations.

These are the loops that the array-backed group core and the subset-scan
kernel and tables in ``concentrators`` replaced.  They work on image tuples
and Python ints only and share nothing with the arrays, so the differential
tests in ``test_group_core.py`` and ``test_verify.py`` compare two
independent computations.  ``parse_graph_text`` is the graph file reader
that writes one matrix cell per edge line, the reference of
``test_fileio.py``; it shares only the graph classes with the reader it
checks.  ``validate_design`` is the design check that counts every block's
t-subsets in a dict, the reference of ``test_designs.py``, which also checks
the designs' automorphisms with ``induced_block_permutation`` (the action a
point permutation induces on block indices) and ``semi_transitivity_check``
(side actions that keep the incidence and are transitive on each side).
``group_row_error`` is the check of a group's rows that scatters a boolean
per (row, point), the reference of the bitwise check in ``FiniteGroup``.
``jacobi_eigensystem`` is the cyclic Jacobi iteration on numpy rows and
columns, the reference of ``spectral.jacobi_eigensystem``, which does the
same arithmetic on Python floats and must agree with it to the bit
(``test_spectral.py``).  ``solve_stack`` is the Monte Carlo stack solve that
runs every operator of a stack through LAPACK and sends each in-band one to
the Jacobi reference above, the reference of ``montecarlo._solve_stack``,
which solves each distinct operator of a stack once
(``test_distinct_solve.py``).
"""

import itertools
import math

import numpy as np

from concentrators.designs import DesignError
from concentrators.montecarlo import TIE_BAND
from concentrators.permgroup import GroupError, seeded_rng
from concentrators.spectral import (
    DEFAULT_TOL,
    MAX_SWEEPS,
    SpectralError,
    _check_symmetric,
    _offdiag_norm,
    sym_eigensystems,
)


def _compose(p, q):
    """Apply q first, then p."""
    return tuple(p[j] for j in q)


def _inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def closure(degree, generators, cap):
    """Image tuples in breadth-first order: identity, then each frontier
    element left-multiplied by the generators in the order given."""
    ident = tuple(range(degree))
    index = {ident: 0}
    elements = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for cur in frontier:
            for gen in generators:
                cand = _compose(gen, cur)
                if cand not in index:
                    if len(elements) >= cap:
                        raise GroupError(
                            f"closure exceeded the enumeration cap of {cap} elements; "
                            "raise `cap` explicitly if the group really is this large"
                        )
                    index[cand] = len(elements)
                    elements.append(cand)
                    nxt.append(cand)
        frontier = nxt
    return elements


def right_cosets(elements, sub_elements):
    """(representative indices, coset_of, cosets) of the right cosets Hg."""
    index = {e: i for i, e in enumerate(elements)}
    coset_of = [-1] * len(elements)
    reps, cosets = [], []
    for i, g in enumerate(elements):
        if coset_of[i] >= 0:
            continue
        members = sorted(index[_compose(h, g)] for h in sub_elements)
        for m in members:
            coset_of[m] = len(reps)
        reps.append(members[0])
        cosets.append(tuple(members))
    return tuple(reps), tuple(coset_of), tuple(cosets)


def conjugacy_classes(elements, generators):
    """Sorted index tuples, ordered by least member."""
    index = {e: i for i, e in enumerate(elements)}
    assigned = [False] * len(elements)
    gen_invs = [(g, _inverse(g)) for g in generators]
    classes = []
    for i in range(len(elements)):
        if assigned[i]:
            continue
        orbit = {i}
        frontier = [i]
        assigned[i] = True
        while frontier:
            x = elements[frontier.pop()]
            for g, ginv in gen_invs:
                k = index[_compose(_compose(g, x), ginv)]
                if not assigned[k]:
                    assigned[k] = True
                    orbit.add(k)
                    frontier.append(k)
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def cayley_adjacency(elements, S):
    """Multiplicity matrix (as nested lists) of the Cayley graph {g, sg}."""
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    adj = [[0] * n for _ in range(n)]
    for s in S:
        for gi, g in enumerate(elements):
            hi = index[_compose(s, g)]
            adj[gi][hi] += 1
            if hi != gi:
                adj[hi][gi] += 1
    return adj


def cayley_operator(elements, S):
    """(1/2|S|) sum_s (R(s) + R(s)^T) with R(s)[sg, g] = 1, as nested lists."""
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    A = [[0.0] * n for _ in range(n)]
    for s in S:
        for gi, g in enumerate(elements):
            A[index[_compose(s, g)]][gi] += 1.0
    return [[(A[i][j] + A[j][i]) / (2.0 * len(S)) for j in range(n)] for i in range(n)]


def coset_adjacency(elements, sub_elements, S):
    """0/1 adjacency of cosets Ha, Hb with rep_b rep_a^-1 in H(S u S^-1)H."""
    index = {e: i for i, e in enumerate(elements)}
    reps, _, _ = right_cosets(elements, sub_elements)
    hsh = set()
    for h1 in sub_elements:
        for s in set(S):
            for base in (_compose(h1, s), _compose(h1, _inverse(s))):
                for h2 in sub_elements:
                    hsh.add(index[_compose(base, h2)])
    m = len(reps)
    adj = [[0] * m for _ in range(m)]
    for a in range(m):
        ga_inv = _inverse(elements[reps[a]])
        for b in range(a, m):
            if index[_compose(elements[reps[b]], ga_inv)] in hsh:
                adj[a][b] = adj[b][a] = 1
    return adj


def bicoset_incidence(elements, L_elements, N_elements, S):
    """inc[Lg][Nh] = #{s in S : N s g = Nh} for each least representative g."""
    index = {e: i for i, e in enumerate(elements)}
    in_reps, _, _ = right_cosets(elements, L_elements)
    out_reps, out_coset_of, _ = right_cosets(elements, N_elements)
    inc = [[0] * len(out_reps) for _ in in_reps]
    for i, rep in enumerate(in_reps):
        for s in S:
            inc[i][out_coset_of[index[_compose(s, elements[rep])]]] += 1
    return inc


def class_matrices(elements, classes):
    """mats[i][j][k] = #{x in C_i : x^-1 z_k in C_j}, z_k the least member of C_k."""
    index = {e: i for i, e in enumerate(elements)}
    class_of = {m: c for c, members in enumerate(classes) for m in members}
    r = len(classes)
    mats = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i, members in enumerate(classes):
        for k, zc in enumerate(classes):
            z = elements[zc[0]]
            for x in members:
                y = _compose(_inverse(elements[x]), z)
                mats[i][class_of[index[y]]][k] += 1
    return mats


def _masks(inc):
    """Each row's support as a Python int bitmask."""
    return [sum(1 << j for j, x in enumerate(row) if x) for row in inc]


def _mask_to_set(mask):
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def _ratio_fold(best, size, gamma, mask):
    """Fold one candidate into (num, den, mask) keeping exact lex-min ties."""
    num, den, bmask = best
    lhs = gamma * den
    rhs = num * size
    if lhs < rhs or (lhs == rhs and _mask_to_set(mask) < _mask_to_set(bmask)):
        return (gamma, size, mask)
    return best


def _gamma(masks, combo, exclude_self):
    union = 0
    mask = 0
    for v in combo:
        union |= masks[v]
        mask |= 1 << v
    return ((union & ~mask) if exclude_self else union).bit_count(), mask


def subset_scan(inc, max_size, exclude_self=False, target=None):
    """Exhaustive |N(X)|/|X| scan, or |N(X) - X|/|X| with ``exclude_self``,
    over 0 < |X| <= max_size in (size, lexicographic) order.  A ``target``
    stops the scan right after the first subset with
    |N| < target*|X| - 1e-12*|X|.

    Returns (worst ratio, its witness, subsets checked, refuted) with exact
    rational comparisons and the lexicographically least witness among ties,
    as the pure-Python loop of ``bsc_check`` and ``magnifier_constant`` did."""
    masks = _masks(inc)
    best = None
    checked = 0
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(len(masks)), size):
            gamma, mask = _gamma(masks, combo, exclude_self)
            checked += 1
            best = (gamma, size, mask) if best is None else _ratio_fold(best, size, gamma, mask)
            if target is not None and gamma < target * size - 1e-12 * size:
                return best[0] / best[1], _mask_to_set(best[2]), checked, True
    return best[0] / best[1], _mask_to_set(best[2]), checked, False


def kernel_cells(inc, max_size, lo_bits=12):
    """The least |N(X)| of every cell of the subset kernel, by brute force.

    Inputs 0 .. lo_bits - 1 form the low half of a subset and the rest its
    high half.  Row i is the i-th high mask in (popcount, value) order and
    column q a low popcount; the cell holds the subsets with that high half
    and q low inputs.  A cell with no subset of 1 .. max_size inputs is
    None."""
    masks = _masks(inc)

    def unions(ms):  # the neighbor union of every subset of ``ms``, by bitmask
        out = [0]
        for m in ms:
            out += [u | m for u in out]
        return out

    lo, hi = unions(masks[:lo_bits]), unions(masks[lo_bits:])
    groups = [[u for low, u in enumerate(lo) if low.bit_count() == q] for q in range(lo_bits + 1)]
    table = []
    for high in sorted(range(len(hi)), key=lambda h: (h.bit_count(), h)):
        table.append([min((hi[high] | u).bit_count() for u in group)
                      if 1 <= high.bit_count() + q <= max_size else None
                      for q, group in enumerate(groups)])
    return table


def _draws(n, max_size, budget, seed):
    """The sampled modes' draws: ``budget`` sorted index tuples per size."""
    rng = seeded_rng(seed)
    for size in range(1, min(max_size, n) + 1):
        for _ in range(budget):
            yield tuple(sorted(int(x) for x in rng.choice(n, size=size, replace=False)))


def sampled_scan(inc, max_size, exclude_self, budget, seed, target=None):
    """The sampled bsc/magnifier loop: (worst ratio, witness, subsets checked,
    refuted) over ``_draws``, folded as ``subset_scan`` folds.  It reads every
    draw; with a ``target``, refuted says that some draw has
    |N| < target*|X| - 1e-12*|X|."""
    masks = _masks(inc)
    best = None
    checked = 0
    refuted = False
    for combo in _draws(len(masks), max_size, budget, seed):
        gamma, mask = _gamma(masks, combo, exclude_self)
        checked += 1
        size = len(combo)
        best = (gamma, size, mask) if best is None else _ratio_fold(best, size, gamma, mask)
        if target is not None and gamma < target * size - 1e-12 * size:
            refuted = True
    return best[0] / best[1], _mask_to_set(best[2]), checked, refuted


def expander_sampled(inc, c, restrict_half, budget, seed):
    """The sampled expander loop over ``_draws``: (least cmax, witness,
    subsets checked, verdict), ties going to the least index tuple."""
    n = len(inc)
    return _expander_fold(inc, c, _draws(n, n // 2 if restrict_half else n, budget, seed))


def expander_scan(inc, c, restrict_half):
    """Exhaustive relative-expansion check over index tuples.

    ``inc`` is a square 0/1 incidence (nested lists or array rows).  Returns
    (least cmax, its witness, subsets checked, verdict) with the witness the
    lexicographically least tuple among float-equal minima, as the
    ``itertools`` scan of ``expander_check`` did."""
    n = len(inc)
    max_size = n // 2 if restrict_half else n
    combos = (
        combo
        for size in range(1, max_size + 1)
        for combo in itertools.combinations(range(n), size)
    )
    return _expander_fold(inc, c, combos)


def _expander_fold(inc, c, combos):
    n = len(inc)
    masks = _masks(inc)
    best_c = None
    best_set = ()
    verdict = True
    checked = 0
    for combo in combos:
        size = len(combo)
        union = 0
        for v in combo:
            union |= masks[v]
        nbrs = union.bit_count()
        checked += 1
        if not nbrs * n >= (n + c * (n - size)) * size - 1e-9:
            verdict = False
        if size < n:
            cmax = n * (nbrs - size) / (size * (n - size))
            key = (cmax, combo)
            if best_c is None or key < (best_c, best_set):
                best_c, best_set = cmax, tuple(combo)
        elif nbrs < size:
            verdict = False
    return best_c, best_set, checked, verdict


def parse_graph_text(text):
    """The graph file reader that writes each edge line into the matrix as it
    reads it, in file order, and rejects a line whose cell an earlier line set
    nonzero.  Returns the graph, or raises what the reader raised."""
    from concentrators.fileio import FormatError
    from concentrators.graphs import BipartiteGraph, Graph

    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise FormatError("empty graph file")
    head = lines[0].split()
    if head[0] == "graph" and len(head) == 2:
        n = m = int(head[1])
    elif head[0] == "bipartite" and len(head) == 3:
        n, m = int(head[1]), int(head[2])
    else:
        raise FormatError(f"expected 'graph n' or 'bipartite n m' header, got {lines[0]!r}")
    mat = np.zeros((n, m), dtype=np.int64)
    for ln in lines[1:]:
        i, j, mult = (int(t) for t in ln.split())
        if not (0 <= i < n and 0 <= j < m):
            raise FormatError(f"edge endpoint outside 0..{n - 1} x 0..{m - 1}: {ln!r}")
        if not -(2**63) <= mult < 2**63:
            raise FormatError(f"edge multiplicity does not fit int64: {ln!r}")
        if mat[i, j] != 0:
            raise FormatError(f"duplicate edge line: {ln!r}")
        mat[i, j] = mult
        if head[0] == "graph":
            mat[j, i] = mult
    return Graph(mat) if head[0] == "graph" else BipartiteGraph(mat)


def validate_design(design, t, gamma):
    """(ok, witness) for "every t-subset lies in exactly gamma blocks": a dict
    count of every block's t-subsets, then a lexicographic walk over all
    t-subsets for the first whose count is not gamma."""
    total = math.comb(design.v, t)
    counts = {}
    for block in design.blocks:
        for sub in itertools.combinations(block, t):
            counts[sub] = counts.get(sub, 0) + 1
    if len(counts) == total and all(c == gamma for c in counts.values()):
        return True, None
    for sub in itertools.combinations(range(design.v), t):
        c = counts.get(sub, 0)
        if c != gamma:
            return False, (sub, c)
    return True, None


def induced_block_permutation(design, g):
    """The image tuple g induces on block indices, for g an image tuple on
    the design's points; DesignError when g does not permute the blocks."""
    block_idx = {b: i for i, b in enumerate(design.blocks)}
    images = []
    for block in design.blocks:
        j = block_idx.get(tuple(sorted(g[x] for x in block)))
        if j is None:
            raise DesignError(f"{g} does not permute the blocks")
        images.append(j)
    return tuple(images)


def _transitive(n, perms):
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for images in perms:
            w = images[v]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def semi_transitivity_check(inc, pairs):
    """True iff every (sigma, tau) pair of image tuples on the inputs and
    outputs keeps the multiplicities of ``inc`` (a list of rows),
    inc[sigma(i)][tau(j)] == inc[i][j], and the sigmas are transitive on the
    inputs and the taus on the outputs."""
    n_in, n_out = len(inc), len(inc[0])
    for sigma, tau in pairs:
        if any(inc[sigma[i]][tau[j]] != inc[i][j] for i in range(n_in) for j in range(n_out)):
            return False
    if not pairs:
        return n_in == 1 and n_out == 1
    return _transitive(n_in, [s for s, _ in pairs]) and _transitive(n_out, [t for _, t in pairs])


def group_row_error(rows, degree):
    """The message ``FiniteGroup`` raises for these image rows, or None.

    Every point must be in range and hit in every row: one boolean scattered
    per (row, point) of an ``(order, degree)`` array.  Then no row may repeat,
    checked by a set of image tuples."""
    rows = np.asarray(rows)
    if rows.size and rows.max() >= degree:
        return "group rows are not all bijections"
    hit = np.zeros(rows.shape, dtype=bool)
    hit[np.arange(len(rows))[:, None], rows] = True
    if not hit.all():
        return "group rows are not all bijections"
    if len(set(map(tuple, rows.tolist()))) != len(rows):
        return "group rows repeat an element"
    return None


def jacobi_eigensystem(M):
    """``(w, V, residual)`` by cyclic Jacobi rotations, each applied to two
    rows, then two columns of the numpy matrix and two columns of V."""
    A = _check_symmetric(M, DEFAULT_TOL)
    if A.ndim != 2:
        raise SpectralError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    V = np.eye(n)
    norm = float(np.linalg.norm(A))
    if n < 2 or norm == 0.0:
        w = np.diag(A).copy()
        order = np.argsort(-w, kind="stable")
        return w[order], V[:, order], 0.0
    target = DEFAULT_TOL * norm
    skip = target / (n * n)
    for _ in range(MAX_SWEEPS):
        if _offdiag_norm(A) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                theta = 0.5 * math.atan2(2.0 * apq, A[q, q] - A[p, p])
                c = math.cos(theta)
                s = math.sin(theta)
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    residual = _offdiag_norm(A)
    if residual > target:
        raise SpectralError(
            f"Jacobi iteration did not converge within {MAX_SWEEPS} sweeps "
            f"(off-norm {residual:.3e} > {target:.3e})"
        )
    w = np.diag(A).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], V[:, order], residual


def solve_stack(stack, threshold, mu, top, arbitrated):
    """Append each stacked operator's mu* and top |eigenvalue|: one LAPACK
    solve of every operator of the stack, then a Jacobi solve of each
    operator whose mu* lies in the tie band and whose bytes ``arbitrated``
    does not hold yet."""
    w, _, _ = sym_eigensystems(stack)
    by_abs = np.sort(np.abs(w), axis=1)
    mus = by_abs[:, -2] if w.shape[1] >= 2 else np.full(len(w), math.nan)
    tops = by_abs[:, -1]
    band = TIE_BAND * np.maximum(np.linalg.norm(stack, axis=(1, 2)), 1.0)
    for i in np.flatnonzero(np.abs(mus - threshold) <= band):
        key = stack[i].tobytes()
        if key not in arbitrated:
            wj, _, _ = jacobi_eigensystem(stack[i])
            by_abs_j = np.sort(np.abs(wj))
            arbitrated[key] = by_abs_j[-2], by_abs_j[-1]
        mus[i], tops[i] = arbitrated[key]
    mu.extend(mus.tolist())
    top.extend(tops.tolist())
