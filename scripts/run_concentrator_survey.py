#!/usr/bin/env python3
"""Survey the built-in concentrator families.

Builds the 12-point design chain, the 24-point Steiner system, and the
generalized-quadrangle incidence graph; for each it reports the Gram
spectrum, the Ramanujan verdict, the concentration constant from the
second eigenvalue, and (at desk scale) the exhaustively verified worst
neighbor ratio.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import concentrators as C
from concentrators.designs import bibd_spectrum_check, design_bibd, design_bipartite
from concentrators.spectral import sym_eigenvalues, tanner_bound
from concentrators.verify import bsc_check

# Designs with at most this many blocks get an exhaustive bsc check: d9, with
# 12 blocks, alone among the surveyed families.
EXHAUSTIVE_BLOCKS = 16


def survey_design(name, design):
    spectrum = bibd_spectrum_check(design)
    X = design_bipartite(design, blocks_as_inputs=True)
    n, m = X.n_in, X.n_out
    k = int(X.in_degrees()[0])
    r = int(X.out_degrees()[0])
    lam2 = float(spectrum.eigenvalues[1])
    alpha = min(m / n, 1.0)
    entry = {
        "family": name,
        "bibd": design_bibd(design).as_tuple(),
        "gram_spectrum_ok": spectrum.ok,
        "mu1": spectrum.mu1,
        "ramanujan": spectrum.ramanujan,
        "tanner_alpha": alpha,
        "tanner_constant": tanner_bound(n, m, k, r, lam2, alpha),
    }
    if n <= EXHAUSTIVE_BLOCKS:
        rep = bsc_check(X, alpha=alpha, c=entry["tanner_constant"], mode="exhaustive")
        entry["worst_ratio"] = rep.worst_ratio
        entry["verified"] = rep.verdict
    return entry


def survey_gq22():
    X = C.gq22_incidence()
    A = X.inc.astype(float)
    lam2 = sym_eigenvalues(A @ A.T).eigenvalues[1]
    c = tanner_bound(15, 15, 3, 3, lam2, 1.0)
    rep = bsc_check(X, alpha=1.0, c=c, mode="exhaustive")
    return {
        "family": "gq22",
        "gram_lambda2": lam2,
        "tanner_alpha": 1.0,
        "tanner_constant": c,
        "worst_ratio": rep.worst_ratio,
        "verified": rep.verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="concentrator_survey.json")
    args = parser.parse_args(argv)

    chain = C.mathieu12_designs()
    entries = [
        survey_design(name, design)
        for name, design in zip(("d12", "d11", "d10", "d9"), chain)
    ]
    entries.append(survey_design("witt24", C.golay_witt_design()))
    entries.append(survey_gq22())

    for e in entries:
        verified = e.get("verified")
        suffix = "" if verified is None else f" verified={verified}"
        print(f"{e['family']:>7}: tanner c={e['tanner_constant']:.4f}{suffix}")
    Path(args.out).write_text(json.dumps(entries, indent=2, sort_keys=True, default=str) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
