"""Self-test of the output checker.

Runs a few ops of the program, then shows that the checker passes their real
outputs and flags each of these corruptions, on a recorded seed (checked
against the reference) and on an unrecorded seed (checked by the oracles):

* a tie-case verdict flipped: one trial with mu* exactly at the threshold
  moved into or out of ``violating_trials``, with the tail and the
  ``falsified`` flag made consistent with the flip;
* a corrupted count: ``subsets_checked`` off by one;
* a corrupted witness set and a corrupted float.

Run from the root of a checkout:  python3 perfbench/selftest.py
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import inputs
import workload

SEEDS = (1, 99991)  # recorded, unrecorded


def dump(out: dict) -> str:
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def flip_tie(out: dict) -> dict:
    bad = copy.deepcopy(out)
    t = next(i for i, mu in enumerate(bad["mu_values"]) if abs(mu - bad["summary"]["threshold"]) <= check.TIE)
    viol = set(bad["violating_trials"]) ^ {t}
    bad["violating_trials"] = sorted(viol)
    s = bad["summary"]
    s["empirical_tail"] = check.round12(len(viol) / s["trials"])
    s["falsified"] = (not s["vacuous"]) and s["empirical_tail"] > max(s["bound_paper"], s["bound_support"])
    return bad


def corrupt(path: list, delta):
    def edit(out: dict) -> dict:
        bad = copy.deepcopy(out)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = delta(node[path[-1]])
        return bad
    return edit


CASES = [  # (workload, op id or prefix, corruption name, edit)
    ("tails", "thm14-Z4-k2", "tie verdict flipped", flip_tie),
    ("tails", "thm15-S4-swap-k12", "tie verdict flipped", flip_tie),
    ("tails", "thm14-S4-k40", "mu* off by 1e-6", corrupt(["mu_values", 0], lambda x: x + 1e-6)),
    ("oracles", "bsc-gq22-a0.5", "subsets_checked off by one", corrupt(["subsets_checked"], lambda x: x + 1)),
    ("oracles", "lemma11-random8-", "witness set changed",
     corrupt(["magnifier", "worst_set"], lambda s: s[1:] + [s[0] + 1])),
    ("oracles", "lemma11-random7-", "subsets_checked off by one",
     corrupt(["expander", "subsets_checked"], lambda x: x - 1)),
]


def main() -> int:
    root = Path.cwd()
    cli = workload.load_program(root)
    (root / ".bench_tmp").mkdir(exist_ok=True)
    failures = 0
    for seed in SEEDS:
        for name in ("tails", "oracles"):
            tmp = Path(tempfile.mkdtemp(dir=root / ".bench_tmp"))
            try:
                ops = inputs.build_ops(name, seed, tmp)
                checker = check.Checker(name, tmp)
                for wl, op_id, what, edit in CASES:
                    if wl != name:
                        continue
                    op = next(o for o in ops if o["id"].startswith(op_id))
                    _, code, stdout = workload.run_op(cli, op["argv"])
                    clean = checker.check(op, code, stdout)
                    bad = checker.check(op, code, dump(edit(json.loads(stdout))))
                    ok = clean is None and bad is not None
                    failures += not ok
                    print(f"{'PASS' if ok else 'FAIL'} seed {seed} {op['id']}: real output "
                          f"{'accepted' if clean is None else 'REJECTED: ' + clean}; "
                          f"{what} {'flagged: ' + bad if bad else 'NOT FLAGGED'}")
            finally:
                shutil.rmtree(tmp)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
