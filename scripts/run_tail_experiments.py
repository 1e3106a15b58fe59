#!/usr/bin/env python3
"""Sweep random-multiset tail experiments over a small group grid.

For each (group, variant, k, eps) cell the script runs a trial batch,
compares the empirical tail frequency with the entropy bound, and emits one
summary row.  Any cell whose tail exceeds its (non-vacuous) bound is listed
as a falsification finding with the batch seed, so every number printed here
can be regenerated exactly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import concentrators as C
from concentrators.cli import _int_at_least
from concentrators.montecarlo import (
    aggregate_rows,
    render_csv,
    render_json,
    run_bicoset_trials,
    run_cayley_trials,
    run_coset_trials,
)
from concentrators.permgroup import closure, from_cycles, trivial_group


def build_grid():
    s3 = C.symmetric_group(3)
    s4 = C.symmetric_group(4)
    a3 = C.alternating_group(3)
    swap = closure(3, [from_cycles([(0, 1)], 3)], name="swap01")
    z8 = C.cyclic_group(8)
    grid = []
    for k in (6, 12, 24):
        for eps in (0.4, 0.6):
            grid.append(("thm14", s4, None, None, k, eps))
            grid.append(("thm14", z8, None, None, k, eps))
    for k in (6, 12, 24):
        grid.append(("thm15", s4, closure(4, [from_cycles([(0, 1)], 4)], name="swap01"), None, k, 0.5))
        grid.append(("thm15", s3, a3, None, k, 0.5))
    for k in (4, 6, 10):
        grid.append(("thm18", s3, swap, a3, k, 0.4))
        grid.append(("thm18", s3, trivial_group(3), trivial_group(3), k, 0.3))
    return grid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # Checked at parse time, so a bad value exits 2 with a usage error.
    parser.add_argument("--trials", type=_int_at_least(1), default=300)
    parser.add_argument("--seed", type=_int_at_least(0), required=True)
    parser.add_argument("--out", default="tail_experiments.csv")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    args = parser.parse_args(argv)

    batches = []
    for variant, G, L, N, k, eps in build_grid():
        if variant == "thm14":
            batch = run_cayley_trials(G, k, eps, args.trials, args.seed)
        elif variant == "thm15":
            batch = run_coset_trials(G, L, k, eps, args.trials, args.seed)
        else:
            batch = run_bicoset_trials(G, L, N, k, eps, args.trials, args.seed)
        batches.append(batch)
        status = "FALSIFIED" if batch.falsified() else ("vacuous" if batch.vacuous else "ok")
        print(
            f"{variant} {G.label():>4} k={k:<3} eps={eps}: tail={batch.empirical_tail:.4f} "
            f"bound={batch.bound:.4g} [{status}]"
        )
        if batch.falsified():
            print(f"  reproducing seeds: ({batch.seed}, t) for t in {batch.violating_trials[:8]}")

    rows = aggregate_rows(batches)
    text = render_csv(rows) if args.format == "csv" else render_json(rows)
    Path(args.out).write_text(text)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
