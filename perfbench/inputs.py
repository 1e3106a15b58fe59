"""Workload input generator.

Every file the program reads is written here from the workload seed, into a
directory the caller owns; the program sees only those files and the argv of
each op.  Nothing in this module imports the program, so the inputs do not
change when the program does.

An op is a dict with ``id`` (stable across seeds where the input is),
``argv`` (for ``concentrators.cli.main``), ``kind`` (how the checker treats
it) and ``meta`` (what the checker's oracles need).
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("tails", "oracles", "groups")

# The 12-point generators shipped with the program (0-based cycles).  The
# first five fix point 11 and generate its stabilizer, of order 7920.
M12_CYCLES = (
    [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
    [(1, 3, 2, 6), (4, 5, 8, 7)],
    [(1, 4, 2, 8), (3, 7, 6, 5)],
    [(0, 9), (3, 4), (5, 7), (6, 8)],
    [(9, 10), (3, 6), (4, 7), (5, 8)],
    [(10, 11), (3, 8), (4, 6), (5, 7)],
)

# thm14 on the groups of acceptance criterion 7, eps = 0.5.  Z3 (k=2) and
# Z4 (k=2) draws include exact ties mu* = eps; they stay in on purpose.
SMALL_CASES = (("Z2", 1), ("Z2", 2), ("Z2", 3), ("Z3", 2), ("Z4", 2), ("Z5", 2), ("S3", 2))

TRIALS = {"thm14-S4": 32, "thm15-S4": 80, "thm18-S3": 200, "small": 150}


def perm_from_cycles(cycles, degree: int) -> tuple[int, ...]:
    images = list(range(degree))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            images[p] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def group_text(degree: int, gens) -> str:
    return f"degree {degree}\n" + "".join(" ".join(map(str, g)) + "\n" for g in gens)


def graph_text(adj: np.ndarray) -> str:
    n = adj.shape[0]
    lines = [f"graph {n}"]
    for i in range(n):
        for j in range(i, n):
            if adj[i, j]:
                lines.append(f"{i} {j} {int(adj[i, j])}")
    return "\n".join(lines) + "\n"


def bipartite_text(inc: np.ndarray) -> str:
    lines = [f"bipartite {inc.shape[0]} {inc.shape[1]}"]
    for i, j in zip(*np.nonzero(inc)):
        lines.append(f"{i} {j} {int(inc[i, j])}")
    return "\n".join(lines) + "\n"


def bfs_elements(degree: int, gens) -> list[tuple[int, ...]]:
    """Group elements in the program's documented order: identity first, then
    breadth-first levels, each frontier element left-multiplied by the
    generators in the order given."""
    ident = tuple(range(degree))
    seen = {ident}
    out = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gens:
                cand = tuple(g[j] for j in cur)
                if cand not in seen:
                    seen.add(cand)
                    out.append(cand)
                    nxt.append(cand)
        frontier = nxt
    return out


def _sub_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


class Writer:
    def __init__(self, root: Path):
        self.root = root

    def __call__(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text)
        return str(path)


# -- tails ---------------------------------------------------------------------

def _s(n: int):
    """The program's generators of S_n: (0 1) and the n-cycle."""
    return [perm_from_cycles([(0, 1)], n), tuple((i + 1) % n for i in range(n))]


def _z(n: int):
    return [tuple((i + 1) % n for i in range(n))]


TAIL_GROUPS = {
    "S4": (4, _s(4)),
    "S3": (3, _s(3)),
    "swap4": (4, [perm_from_cycles([(0, 1)], 4)]),
    "swap3": (3, [perm_from_cycles([(0, 1)], 3)]),
    "A3": (3, [(1, 2, 0)]),
    **{f"Z{n}": (n, _z(n)) for n in (2, 3, 4, 5)},
}


def tails_ops(seed: int, w: Writer) -> list[dict]:
    files = {name: w(f"{name}.txt", group_text(*spec)) for name, spec in TAIL_GROUPS.items()}
    seeds = _sub_seeds(seed, 3 + len(SMALL_CASES))

    def mc(op_id, variant, group, k, eps, trials, s, L=None, N=None):
        argv = ["montecarlo", "--group", files[group]]
        if L:
            argv += ["--L", files[L]]
        if N:
            argv += ["--N", files[N]]
        argv += ["--k", str(k), "--eps", repr(eps), "--trials", str(trials),
                 "--seed", str(s), "--variant", variant]
        meta = {"variant": variant, "group": group, "L": L, "N": N, "k": k,
                "eps": eps, "trials": trials, "seed": s}
        return {"id": op_id, "argv": argv, "kind": "montecarlo", "meta": meta}

    ops = [
        mc("thm14-S4-k40", "thm14", "S4", 40, 0.5, TRIALS["thm14-S4"], seeds[0]),
        mc("thm15-S4-swap-k12", "thm15", "S4", 12, 0.5, TRIALS["thm15-S4"], seeds[1], L="swap4"),
        mc("thm18-S3-swap-A3-k6", "thm18", "S3", 6, 0.4, TRIALS["thm18-S3"], seeds[2],
           L="swap3", N="A3"),
    ]
    for (group, k), s in zip(SMALL_CASES, seeds[3:]):
        ops.append(mc(f"thm14-{group}-k{k}", "thm14", group, k, 0.5, TRIALS["small"], s))
    return ops


# -- oracles -------------------------------------------------------------------

def affine_plane_blocks_incidence() -> np.ndarray:
    """The 2-(9,3,1) design (lines of AG(2,3)) as a 12 x 9 block-point incidence."""
    points = [(x, y) for x in range(3) for y in range(3)]
    lines = set()
    for a, b in ((0, 1), (1, 0), (1, 1), (1, 2)):
        for c in range(3):
            lines.add(tuple(sorted(i for i, (x, y) in enumerate(points) if (a * x + b * y) % 3 == c)))
    inc = np.zeros((12, 9), dtype=np.int64)
    for j, line in enumerate(sorted(lines)):
        inc[j, list(line)] = 1
    return inc


def gq22_incidence() -> np.ndarray:
    """Points (pairs of a 6-set) against lines (perfect matchings): 15 x 15."""
    pairs = list(itertools.combinations(range(6), 2))

    def matchings(rest):
        if not rest:
            return [()]
        return [((rest[0], b),) + m for b in rest[1:]
                for m in matchings(tuple(x for x in rest[1:] if x != b))]

    inc = np.zeros((15, 15), dtype=np.int64)
    for j, line in enumerate(matchings(tuple(range(6)))):
        for pair in line:
            inc[pairs.index(pair), j] = 1
    return inc


def tanner_alpha_grid(inc: np.ndarray) -> list[tuple[float, float]]:
    """(alpha, c) over the acceptance-4 grid, c the spectral concentration bound.

    The Gram eigenvalues of these incidences are integers; rounding them keeps
    the constants identical on every machine.
    """
    n, m = inc.shape
    k, r = int(inc.sum(axis=1)[0]), int(inc.sum(axis=0)[0])
    lam2 = round(float(np.linalg.eigvalsh(inc @ inc.T)[-2]), 6)
    top = m / n
    alphas = [a / 10 for a in range(1, 11) if a / 10 <= top]
    if top not in alphas:
        alphas.append(top)
    return [(a, k * k / (a * (k * r - lam2) + lam2)) for a in alphas if int(a * n + 1e-9) >= 1]


def cayley_adjacency(elements, gens) -> np.ndarray:
    index = {p: i for i, p in enumerate(elements)}
    adj = np.zeros((len(elements), len(elements)), dtype=np.int64)
    for s in gens:
        for gi, g in enumerate(elements):
            hi = index[tuple(s[j] for j in g)]
            adj[gi, hi] += 1
            if hi != gi:
                adj[hi, gi] += 1
    return adj


def connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in np.nonzero(adj[v])[0]:
            if int(u) not in seen:
                seen.add(int(u))
                stack.append(int(u))
    return len(seen) == n


def corpus_graphs(seed: int) -> list[tuple[str, np.ndarray]]:
    """The 804-graph sweep: every connected labeled graph on 2-5 vertices,
    cycles, paths and complete graphs on 6-8 vertices, and 24 random
    connected graphs on 6-8 vertices drawn from the workload seed."""
    out = []
    for n in (2, 3, 4, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            adj = np.zeros((n, n), dtype=np.int64)
            for b, (i, j) in enumerate(pairs):
                if (mask >> b) & 1:
                    adj[i, j] = adj[j, i] = 1
            if connected(adj):
                out.append((f"n{n}-m{mask}", adj))
    for n in (6, 7, 8):
        ring = np.roll(np.eye(n, dtype=np.int64), 1, axis=1)
        path = np.eye(n, k=1, dtype=np.int64)
        for name, upper in (("cycle", ring), ("path", path)):
            adj = ((upper + upper.T) > 0).astype(np.int64)
            out.append((f"{name}{n}", adj))
        out.append((f"complete{n}", 1 - np.eye(n, dtype=np.int64)))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 804])))
    for n in (6, 7, 8):
        made = 0
        while made < 8:
            p = 0.25 + 0.5 * rng.random()
            upper = np.triu((rng.random((n, n)) < p).astype(np.int64), 1)
            adj = upper + upper.T
            if connected(adj):
                out.append((f"random{n}-{made}", adj))
                made += 1
    return out


def oracles_ops(seed: int, w: Writer) -> list[dict]:
    ops = []
    for name, inc in (("d9blocks", affine_plane_blocks_incidence()), ("gq22", gq22_incidence())):
        path = w(f"{name}.txt", bipartite_text(inc))
        for alpha, c in tanner_alpha_grid(inc):
            ops.append({"id": f"bsc-{name}-a{alpha:g}", "kind": "subsets", "meta": {},
                        "argv": ["verify-bsc", "--graph", path, "--alpha", repr(alpha),
                                 "--c", repr(c)]})
    s4_gens = _s(4)
    s4 = bfs_elements(4, s4_gens)
    path = w("cayley_s4.txt", graph_text(cayley_adjacency(s4, s4_gens)))
    ops.append({"id": "magnifier-cayley-s4", "kind": "subsets", "meta": {},
                "argv": ["verify-magnifier", "--graph", path]})
    z20 = np.zeros((20, 20), dtype=np.int64)
    for g in range(20):
        for s in (1, 4):
            z20[g, (g + s) % 20] = z20[(g + s) % 20, g] = 1
    path = w("cover_z20.txt", bipartite_text(z20 + np.eye(20, dtype=np.int64)))
    ops.append({"id": "expander-cover-z20", "kind": "subsets", "meta": {},
                "argv": ["verify-expander", "--graph", path, "--c", "0.5"]})
    ops.append({"id": "pipeline63-s4", "kind": "subsets", "meta": {},
                "argv": ["pipeline63", "--group", w("S4.txt", group_text(4, s4_gens)),
                         "--L", w("swap4.txt", group_text(4, [perm_from_cycles([(0, 1)], 4)])),
                         "--S", w("gens_s4.txt", group_text(4, s4_gens))]})
    corpus = corpus_graphs(seed)
    random.Random(seed).shuffle(corpus)
    for name, adj in corpus:
        ops.append({"id": f"lemma11-{name}", "kind": "corpus", "meta": {"adj": adj.tolist()},
                    "argv": ["lemma11", "--graph", w(f"corpus-{name}.txt", graph_text(adj))]})
    return ops


# -- groups --------------------------------------------------------------------

M12_S_SIZE = 6
M12_WORD_LENGTH = 40


def m12_multiset(seed: int) -> list[tuple[int, ...]]:
    """Random elements of the 12-point group as seeded generator words."""
    gens = [perm_from_cycles(c, 12) for c in M12_CYCLES]
    rng = random.Random(seed)
    out = []
    for _ in range(M12_S_SIZE):
        p = tuple(range(12))
        for _ in range(M12_WORD_LENGTH):
            g = gens[rng.randrange(len(gens))]
            p = tuple(g[j] for j in p)
        out.append(p)
    return out


def groups_ops(seed: int, w: Writer) -> list[dict]:
    m12 = [perm_from_cycles(c, 12) for c in M12_CYCLES]
    s7 = _s(7)
    s6 = [perm_from_cycles([(0, 1)], 7), perm_from_cycles([(0, 1, 2, 3, 4, 5)], 7)]
    a7 = [perm_from_cycles([(0, 1, 2)], 7), tuple((i + 1) % 7 for i in range(7))]
    S = m12_multiset(_sub_seeds(seed, 1)[0])
    m11 = w("M11.txt", group_text(12, m12[:5]))
    return [
        {"id": "bicoset-M12-M11", "kind": "bicoset",
         "meta": {"S": [list(s) for s in S], "elements": 95040 + 7920 + 7920},
         "argv": ["construct", "--kind", "bicoset", "--group", w("M12.txt", group_text(12, m12)),
                  "--L", m11, "--N", m11, "--S", w("S_m12.txt", group_text(12, S)),
                  "--out", str(w.root / "out_bicoset.txt")]},
        {"id": "chartable-S7", "kind": "fixed", "meta": {"elements": 5040 + 720 + 2520},
         "argv": ["chartable", "--group", w("S7.txt", group_text(7, s7)),
                  "--subgroup", w("S6.txt", group_text(7, s6)),
                  "--subgroup", w("A7.txt", group_text(7, a7))]},
        {"id": "design-golay", "kind": "fixed", "meta": {}, "argv": ["design", "--golay", "--validate"]},
        {"id": "design-mathieu12", "kind": "fixed", "meta": {},
         "argv": ["design", "--mathieu", "12", "--validate"]},
    ]


WORKLOAD_OPS = {"tails": tails_ops, "oracles": oracles_ops, "groups": groups_ops}


def build_ops(workload: str, seed: int, root: Path) -> list[dict]:
    """Write the workload's input files under ``root`` and return its op list."""
    return WORKLOAD_OPS[workload](seed, Writer(root))
