"""Record the reference outputs that ``check.py`` compares against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/record.py

For each workload it runs every op once for each seed in ``SEEDS`` and stores
the parsed outputs keyed by input digest, the seed-independent montecarlo
summary fields, and, for tails, the tie table: the program's verdict for every
operator of the tie cases whose mu* lies within ``check.TIE`` of the
threshold.  It writes ``perfbench/reference/<workload>.json``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import inputs
import workload

SEEDS = (1, 2)  # the default seed of run.py and one more
SEEDLESS_FIELDS = ("variant", "group", "subgroups", "k", "eps", "threshold",
                   "bound_paper", "bound_support", "vacuous", "trials")


def tie_table(op: dict, threshold: float, checker: check.Checker, tmp: Path) -> dict:
    """Program verdicts on every near-threshold operator the op can draw."""
    from concentrators import fileio, montecarlo, spectral

    meta = op["meta"]
    ctx = checker.context(meta)
    order = len(ctx["mul"])
    G = fileio.load_group(tmp / f"{meta['group']}.txt")
    if meta["variant"] == "thm14":
        draws = itertools.product(range(order), repeat=meta["k"])
    else:
        H = ctx["L"][0]
        double = sorted({min(int(ctx["mul"][ctx["mul"][a, g], b]) for a in H for b in H)
                         for g in range(order)})
        draws = (list(d) for r in range(1, len(double) + 1)
                 for d in itertools.combinations(double, r))
        L = fileio.load_group(tmp / f"{meta['L']}.txt")
    table = {}
    for picks in draws:
        M, key, _ = checker.operator(meta, ctx, list(picks))
        if abs(check.spectrum_mu_top(M)[0] - threshold) > check.TIE:
            continue
        S = tuple(G.elements[i] for i in picks)
        if meta["variant"] == "thm14":
            prog = montecarlo.cayley_operator(G, S)
        else:
            prog = montecarlo._normalized_coset_matrix(G, L, S)[0]
        table[json.dumps(list(key))] = spectral.sym_eigenvalues(prog).mu_star > threshold
    return table


def record(name: str, cli, root: Path) -> dict:
    ref = {"seeds": list(SEEDS), "ops": {}, "seedless": {}, "ties": {}}
    for seed in SEEDS:
        tmp = Path(tempfile.mkdtemp(dir=root))
        try:
            ops = inputs.build_ops(name, seed, tmp)
            checker = check.Checker(name, tmp, reference=ref)
            for op in ops:
                _, code, stdout = workload.run_op(cli, op["argv"])
                if isinstance(code, str):
                    raise RuntimeError(f"{op['id']}: {code}")
                got = check.normalize(op, code, stdout, tmp)
                ref["ops"][check.input_digest(op["argv"], tmp)] = got
                if op["kind"] != "montecarlo":
                    continue
                summary = got["out"]["summary"]
                ref["seedless"][check.input_digest(op["argv"], tmp, seedless=True)] = {
                    k: summary[k] for k in SEEDLESS_FIELDS}
                meta = op["meta"]
                enumerable = meta["variant"] == "thm15" or (
                    meta["variant"] == "thm14" and meta["group"] != "S4")
                if enumerable and op["id"] not in ref["ties"]:
                    ref["ties"][op["id"]] = tie_table(op, summary["threshold"], checker, tmp)
        finally:
            shutil.rmtree(tmp)
    return ref


def main() -> int:
    root = Path.cwd()
    cli = workload.load_program(root)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    (root / ".bench_tmp").mkdir(exist_ok=True)
    for name in inputs.WORKLOADS:
        ref = record(name, cli, root / ".bench_tmp")
        path = check.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"{path}: {len(ref['ops'])} ops, "
              f"{sum(len(t) for t in ref['ties'].values())} tie entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
