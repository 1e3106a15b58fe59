"""Output checker: every op's exit code and stdout against a reference.

An op's input digest (its argv with input files replaced by their contents)
keys the reference recorded from the program for the default seed and one
more seed (``reference/<workload>.json``).  Inputs not in the reference, which
only seed-dependent ops produce, go to an independent oracle in this file:

* ``montecarlo``: every trial's operator is rebuilt here and solved with
  ``numpy.linalg.eigvalsh``.  A trial whose mu* lies within ``TIE`` of the
  threshold takes its verdict from the recorded tie table (every draw of the
  small groups and every coset graph of S4 over <(0 1)> is in it); a
  near-threshold trial with no table entry (thm14 on S4, k=40, about 1 in 600
  trials) accepts either verdict.  Seed-independent summary fields (bounds,
  threshold) come from the reference.
* ``corpus``: ``lemma11`` is recomputed by brute force over all subsets.
* ``bicoset``: the incidence is recomputed from the point action of the
  12-point group, whose point stabilizer is the input and output subgroup.

Integers, booleans, strings and lists of them (exit codes, verdicts,
``subsets_checked``, witness sets, ``violating_trials``) compare exactly;
floats compare within ``TOL`` absolute plus ``TOL`` relative.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import inputs

TOL = 1e-9
TIE = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def round12(x: float) -> float:
    return float(f"{x:.12g}")


def mismatch(ref, got, path="") -> str | None:
    """First difference between two parsed outputs, or None."""
    if isinstance(ref, bool) or isinstance(got, bool):
        ok = type(ref) is type(got) and ref == got
    elif isinstance(ref, float) or isinstance(got, float):
        ok = (isinstance(got, (int, float)) and isinstance(ref, (int, float))
              and abs(got - ref) <= TOL + TOL * abs(ref))
    elif isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(ref)}"
        for k in sorted(ref):
            bad = mismatch(ref[k], got[k], f"{path}.{k}")
            if bad:
                return bad
        return None
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: length {len(got) if isinstance(got, list) else got!r} != {len(ref)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            bad = mismatch(r, g, f"{path}[{i}]")
            if bad:
                return bad
        return None
    else:
        ok = ref == got
    return None if ok else f"{path}: {got!r} != {ref!r}"


def input_digest(argv: list[str], root: Path, seedless: bool = False) -> str:
    h = hashlib.sha256()
    for prev, tok in zip([None] + argv, argv):
        if prev == "--out":
            tok = "$OUT"
        elif seedless and prev == "--seed":
            tok = "*"
        elif tok.startswith(str(root)):
            tok = Path(tok).name + ":" + Path(tok).read_text()
        h.update(tok.encode() + b"\0")
    return h.hexdigest()


def normalize(op: dict, code, stdout: str, root: Path) -> dict:
    """Parsed output with the input directory replaced by ``$IN``."""
    out = json.loads(stdout.replace(str(root), "$IN")) if stdout.strip() else None
    got = {"exit": code, "out": out}
    if op["kind"] == "bicoset":
        got["graph"] = (root / "out_bicoset.txt").read_text()
    return got


class Checker:
    def __init__(self, workload: str, root: Path, reference: dict | None = None):
        self.root = root
        if reference is None:
            reference = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
        self.reference = reference
        self.ties = {case: {tuple(json.loads(k)): v for k, v in table.items()}
                     for case, table in reference.get("ties", {}).items()}
        self._memo: dict = {}
        self._groups: dict = {}
        self.near_threshold = 0

    def check(self, op: dict, code, stdout: str) -> str | None:
        """None if the op's output is correct, else what is wrong."""
        key = (op["id"], code, stdout)
        if key not in self._memo:
            problem = self._check(op, code, stdout)
            self._memo[key] = problem if problem is None or len(problem) < 300 else problem[:297] + "..."
        return self._memo[key]

    def _check(self, op, code, stdout):
        try:
            got = normalize(op, code, stdout, self.root)
        except (ValueError, OSError) as exc:
            return f"unreadable output: {exc}"
        ref = self.reference["ops"].get(input_digest(op["argv"], self.root))
        if ref is not None:
            return mismatch(ref, got)
        oracle = {"montecarlo": self._montecarlo, "corpus": self._lemma11,
                  "bicoset": self._bicoset}.get(op["kind"])
        if oracle is None:
            return "no reference recorded for this input"
        try:
            return oracle(op, got)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return f"malformed output: {exc!r}"

    # -- montecarlo ----------------------------------------------------------

    def _group(self, name):
        if name not in self._groups:
            degree, gens = inputs.TAIL_GROUPS[name]
            els = inputs.bfs_elements(degree, gens)
            self._groups[name] = (els, {p: i for i, p in enumerate(els)})
        return self._groups[name]

    def context(self, meta: dict) -> dict:
        """Element order, multiplication table and cosets for one batch."""
        els, index = self._group(meta["group"])
        mul = np.array([[index[tuple(s[j] for j in g)] for g in els] for s in els])
        ctx = {"mul": mul, "inv": [index[tuple(int(i) for i in np.argsort(g))] for g in els]}
        for side in ("L", "N"):
            if meta.get(side):
                H = [index[h] for h in self._group(meta[side])[0]]
                ctx[side] = (H, *_right_cosets(mul, H))
        return ctx

    def operator(self, meta: dict, ctx: dict, picks: list[int]):
        """(matrix, tie key, regular) of one trial drawing the elements ``picks``."""
        mul, inv, k = ctx["mul"], ctx["inv"], meta["k"]
        if meta["variant"] == "thm14":
            A = np.zeros(mul.shape)
            for s in picks:
                A[mul[s], np.arange(len(mul))] += 1.0
            return (A + A.T) / (2.0 * k), tuple(sorted(picks)), True
        if meta["variant"] == "thm15":
            H, _, reps = ctx["L"]
            hsh = sorted({int(mul[mul[h1, x], h2]) for s in set(picks)
                          for x in (s, inv[s]) for h1 in H for h2 in H})
            adj = np.array([[1.0 if mul[rb, inv[ra]] in hsh else 0.0 for rb in reps]
                            for ra in reps])
            sums = adj.sum(axis=1)
            return adj / sums.max(), tuple(hsh), bool(np.all(sums == sums[0]))
        _, _, in_reps = ctx["L"]
        _, out_of, out_reps = ctx["N"]
        inc = np.zeros((len(in_reps), len(out_reps)))
        for i, rep in enumerate(in_reps):
            for s in picks:
                inc[i, out_of[mul[s, rep]]] += 1
        return inc @ inc.T / (2.0 * k * k), None, True

    def trial_operators(self, meta: dict):
        """(mu*, top |eigenvalue|, tie key, regular) per trial, from numpy."""
        ctx = self.context(meta)
        order = len(ctx["mul"])
        out = []
        for t in range(meta["trials"]):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([meta["seed"], t])))
            picks = [int(i) for i in rng.integers(0, order, size=meta["k"])]
            M, key, regular = self.operator(meta, ctx, picks)
            mu, top = spectrum_mu_top(M)
            out.append((mu, top, key, regular))
        return out

    def _montecarlo(self, op, got):
        meta, out = op["meta"], got["out"]
        if got["exit"] != 0:
            return f"exit code {got['exit']}"
        seedless = self.reference["seedless"].get(input_digest(op["argv"], self.root, True))
        if seedless is None:
            return "no reference recorded for this input"
        thm18 = meta["variant"] == "thm18"
        keys = {"summary", "mu_values", "violating_trials", "flags"} | ({"top_values"} if thm18 else set())
        if set(out) != keys:
            return f"output keys {sorted(out)} != {sorted(keys)}"
        summary = out["summary"]
        if set(summary) != set(seedless) | {"seed", "empirical_tail", "falsified"}:
            return f"summary keys {sorted(summary)}"
        bad = mismatch(seedless, {k: summary[k] for k in seedless})
        if bad:
            return "summary" + bad
        lengths = [len(out["mu_values"])] + ([len(out["top_values"])] if thm18 else [])
        if summary["seed"] != meta["seed"] or set(lengths) != {meta["trials"]}:
            return "seed or trial count differs from the request"
        threshold = seedless["threshold"]
        ties = self.ties.get(op["id"], {})
        violating, flags = [], []
        for t, (mu, top, key, regular) in enumerate(self.trial_operators(meta)):
            if abs(out["mu_values"][t] - mu) > TOL + TOL * abs(mu):
                return f"trial {t}: mu* {out['mu_values'][t]!r} != {mu!r}"
            if thm18 and abs(out["top_values"][t] - top) > TOL:
                return f"trial {t}: top eigenvalue {out['top_values'][t]!r} != {top!r}"
            if not regular:
                flags.append(f"trial {t}: non-regular coset graph, normalized by max degree")
            if abs(mu - threshold) > TIE:
                above = mu > threshold
            elif key in ties:
                above = ties[key]
            else:
                self.near_threshold += 1
                above = t in out["violating_trials"]
            if above:
                violating.append(t)
        if out["violating_trials"] != violating:
            return f"violating_trials {out['violating_trials']} != {violating}"
        if out["flags"] != flags:
            return f"flags {out['flags']} != {flags}"
        tail = len(violating) / meta["trials"]
        bound = max(seedless["bound_paper"], seedless["bound_support"])
        expect = {"empirical_tail": round12(tail),
                  "falsified": (not seedless["vacuous"]) and tail > bound}
        bad = mismatch(expect, {k: summary[k] for k in expect})
        return None if bad is None else "summary" + bad

    # -- lemma11 -------------------------------------------------------------

    def _lemma11(self, op, got):
        return mismatch(lemma11_expected(np.array(op["meta"]["adj"])), got)

    # -- bicoset -------------------------------------------------------------

    def _bicoset(self, op, got):
        return mismatch(bicoset_expected(op["meta"]["S"]), got)


def spectrum_mu_top(M: np.ndarray) -> tuple[float, float]:
    """Second-largest |eigenvalue| and the larger of |top| and |bottom|."""
    w = np.linalg.eigvalsh(M)
    return float(np.sort(np.abs(w))[-2]), float(max(abs(w[0]), abs(w[-1])))


def _right_cosets(mul: np.ndarray, H: list[int]):
    """Right cosets Hg numbered by least member, with those least members."""
    coset_of = [-1] * len(mul)
    reps = []
    for g in range(len(mul)):
        if coset_of[g] < 0:
            for h in H:
                coset_of[mul[h, g]] = len(reps)
            reps.append(g)
    return coset_of, reps


def _masks(rows) -> list[int]:
    return [sum(1 << int(j) for j in np.nonzero(row)[0]) for row in rows]


def lemma11_expected(adj: np.ndarray) -> dict:
    """Magnifier constant by brute force, then the extended double cover as an
    expander with that constant; witnesses are lexicographically least."""
    n = adj.shape[0]
    half = n // 2
    combos = [c for size in range(1, half + 1) for c in itertools.combinations(range(n), size)]
    support = (adj > 0).astype(int)
    np.fill_diagonal(support, 0)
    nbr = _masks(support)
    best = None
    for combo in combos:
        union = mask = 0
        for v in combo:
            union |= nbr[v]
            mask |= 1 << v
        cand = (Fraction((union & ~mask).bit_count(), len(combo)), combo)
        best = cand if best is None or cand < best else best
    c = best[0].numerator / best[0].denominator
    magnifier = {"mode": "exhaustive", "worst_ratio": round12(c), "worst_set": list(best[1]),
                 "subsets_checked": len(combos), "verdict": c > 0}
    cover = _masks(support + np.eye(n, dtype=int))
    verdict, worst = True, None
    for combo in combos:
        union = 0
        for v in combo:
            union |= cover[v]
        size, nbrs = len(combo), union.bit_count()
        if not nbrs * n >= (n + c * (n - size)) * size - 1e-9:
            verdict = False
        cand = (n * (nbrs - size) / (size * (n - size)), combo)
        worst = cand if worst is None or cand < worst else worst
    expander = {"mode": "exhaustive", "worst_ratio": round12(worst[0]), "worst_set": list(worst[1]),
                "subsets_checked": len(combos), "verdict": verdict}
    return {"exit": 0 if verdict else 1,
            "out": {"magnifier": magnifier, "expander": expander, "passed": verdict}}


def bicoset_expected(S: list[list[int]]) -> dict:
    """Bi-coset incidence of the 12-point group over the stabilizer of point 11
    on both sides.  The right coset of g is fixed by the point g^-1(11); cosets
    are numbered by their least element in the program's element order, which
    a breadth-first prefix of that order settles."""
    gens = [inputs.perm_from_cycles(c, 12) for c in inputs.M12_CYCLES]
    point_order, reps = {}, []
    frontier, seen = [tuple(range(12))], {tuple(range(12))}
    point_order[11] = 0
    reps.append(frontier[0])
    while len(reps) < 12:
        nxt = []
        for cur in frontier:
            for g in gens:
                cand = tuple(g[j] for j in cur)
                if cand in seen:
                    continue
                seen.add(cand)
                nxt.append(cand)
                point = cand.index(11)
                if point not in point_order:
                    point_order[point] = len(reps)
                    reps.append(cand)
        frontier = nxt
    inc = np.zeros((12, 12), dtype=np.int64)
    for i, rep in enumerate(reps):
        for s in S:
            inc[i, point_order[rep.index(s.index(11))]] += 1
    out = {"kind": "bicoset", "n_in": 12, "n_out": 12, "out": "$IN/out_bicoset.txt"}
    return {"exit": 0, "out": out, "graph": inputs.bipartite_text(inc)}
