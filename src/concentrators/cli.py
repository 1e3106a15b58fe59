"""Command-line front end.

Subcommands: construct, spectrum, design, chartable, verify-bsc,
verify-magnifier, verify-expander, lemma11, montecarlo, pipeline63.
JSON is the canonical output (keys sorted, so identical flags and seed give
byte-identical bytes); CSV is available for the montecarlo batch table.
Exit codes: 0 success, 1 failed verification verdict, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from . import designs, fileio, graphs, montecarlo, spectral, verify
from .characters import character_table, dim_sum_D, dim_sums_both
from .montecarlo import _sig12
from .pipeline import bicoset_concentrator_report


def _each_distinct(f, values) -> list:
    """``[f(x) for x in values]`` for a list of floats, with one call of ``f``
    per distinct value.  0.0 and -0.0 are one dict key but print apart, so
    the zeros are keyed by their sign."""
    done = dict.fromkeys(values)
    zeros = {}
    if 0.0 in done:
        del done[0.0]
        zeros = {math.copysign(1.0, x): x for x in values if x == 0}
        zeros = {sign: f(x) for sign, x in zeros.items()}
    for x in done:
        done[x] = f(x)
    if not zeros:
        return list(map(done.__getitem__, values))
    return [zeros[math.copysign(1.0, x)] if x == 0 else done[x] for x in values]


def _canonical_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)``, byte
    for byte.  With an indent, ``json`` runs its pure-Python encoder; this
    writer does the same work in fewer calls (strings and keys still go
    through the C ``encode_basestring_ascii``).  ``pad`` is the newline and
    indent in front of this value's closing bracket.  A non-finite float
    raises ``ValueError`` and any other type ``TypeError``, as ``json`` does."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(item) is int for item in value):
            parts = map(int.__repr__, value)
        elif all(isinstance(item, float) and math.isfinite(item) for item in value):
            parts = _each_distinct(float.__repr__, value)
        else:
            parts = [_canonical_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}")
                key = _canonical_json(key)
            parts.append(_quote(key) + ": " + _canonical_json(item, inner))
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(payload, out: str | None) -> None:
    # a non-finite float raises ValueError (exit 2) instead of printing
    # NaN/Infinity, which is not JSON
    text = _canonical_json(payload) + "\n"
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _report_dict(r: verify.ConcentrationReport) -> dict:
    return {
        "mode": r.mode,
        "worst_ratio": _sig12(r.worst_ratio),
        "worst_set": list(r.worst_set),
        "subsets_checked": r.subsets_checked,
        "verdict": r.verdict,
    }


# The options each construct kind needs, and the flags it also reads; an
# option missing or not read is an error raised before any file is read.
_CONSTRUCT_READS = {
    "cayley": (("group", "S"), ()),
    "coset": (("group", "H", "S"), ()),
    "bicoset": (("group", "L", "N", "S"), ("simple",)),
    "double-cover": (("graph",), ()),
    "gq22": ((), ()),
}
_CONSTRUCT_OPTIONS = tuple(dict.fromkeys(
    name for needs, flags in _CONSTRUCT_READS.values() for name in needs + flags
))


def _given(args, name) -> bool:
    """Whether option ``name`` was given, an empty value included."""
    return getattr(args, name) not in (None, False)


def _load_subgroups(L_path: str, N_path: str):
    """The subgroups named by ``--L`` and ``--N``: one load, and one object
    for both, when they name the same path."""
    L = fileio.load_group(L_path)
    return L, L if N_path == L_path else fileio.load_group(N_path)


def _cmd_construct(args) -> int:
    kind = args.kind
    needs, flags = _CONSTRUCT_READS[kind]
    unread = [f"--{name}" for name in _CONSTRUCT_OPTIONS
              if name not in needs + flags and _given(args, name)]
    if unread:
        raise fileio.FormatError(f"construct --kind {kind} does not read {', '.join(unread)}")
    missing = [f"--{name}" for name in needs if not getattr(args, name)]
    if missing:
        raise fileio.FormatError(f"construct --kind {kind} needs {', '.join(missing)}")
    if kind == "gq22":
        out_graph = graphs.gq22_incidence()
    elif kind == "double-cover":
        g = fileio.load_graph(args.graph)
        if not isinstance(g, graphs.Graph):
            raise fileio.FormatError("double-cover expects a plain graph file")
        out_graph = graphs.extended_double_cover(g)
    else:
        G = fileio.load_group(args.group)
        _, S = fileio.load_multiset(args.S)
        if kind == "cayley":
            out_graph = graphs.cayley_graph(G, S)
        elif kind == "coset":
            H = fileio.load_group(args.H)
            out_graph = graphs.coset_graph(G, H, S)
        else:
            L, N = _load_subgroups(args.L, args.N)
            out_graph = graphs.bicoset_graph(G, L, N, S, simple=args.simple)
    fileio.save_graph(out_graph, args.out)
    if isinstance(out_graph, graphs.Graph):
        shape = {"kind": kind, "n": out_graph.n, "out": args.out}
    else:
        shape = {
            "kind": kind,
            "n_in": out_graph.n_in,
            "n_out": out_graph.n_out,
            "out": args.out,
        }
    _emit(shape, None)
    return 0


def _cmd_spectrum(args) -> int:
    g = fileio.load_graph(args.graph)
    if isinstance(g, graphs.Graph):
        mat = g.adj.astype(float)
    else:
        mat = g.inc.astype(float)
        mat = mat @ mat.T
    report = spectral.sym_eigenvalues(mat, tol=args.tol)
    _emit(
        {
            "eigenvalues": [_sig12(x) for x in report.eigenvalues],
            # a 1-vertex graph has no second eigenvalue
            "mu_star": None if math.isnan(report.mu_star) else _sig12(report.mu_star),
            "residual": _sig12(report.residual),
        },
        args.out,
    )
    return 0


def _design_payload(d: designs.Design, validate: bool) -> tuple[dict, bool]:
    payload: dict = {
        "v": d.v,
        "b": d.b,
        "k": d.k,
        "t": d.t,
        "gamma": d.gamma,
    }
    ok = True
    if validate:
        ok, witness = designs.validate_design(d)
        payload["valid"] = ok
        if witness is not None:
            payload["witness"] = {"subset": list(witness[0]), "count": witness[1]}
    # Strength 1 has no pair count, so no BIBD parameters.
    params = designs.bibd_params(d.t, d.v, d.k, d.gamma) if d.t >= 2 else None
    if params is not None:
        payload["bibd"] = {
            "v": params.v,
            "b": params.b,
            "r": params.r,
            "k": params.k,
            "lambda": params.lam,
            "identities_hold": params.identities_hold(),
        }
    disputed = designs.DISPUTED_REFERENCE_TUPLES.get((d.t, d.v, d.k, d.gamma))
    if disputed is not None and params is not None:
        payload["disputed_reference_tuple"] = {
            "quoted": list(disputed),
            "derived": list(params.as_tuple()),
            "note": "the quoted tuple fails b*k = v*r; derived values are used",
        }
    return payload, ok


def _cmd_design(args) -> int:
    sources = [args.golay, args.mathieu is not None, args.infile is not None]
    if sum(sources) > 1:
        raise fileio.FormatError("design reads one source: --golay, --mathieu N, or --in FILE")
    if args.infile is None and (args.t is not None or args.gamma is not None):
        raise fileio.FormatError("design reads --t and --gamma only with --in")
    if args.golay:
        d = designs.golay_witt_design()
        source = "golay"
    elif args.mathieu is not None:
        by_points = {12: 0, 11: 1, 10: 2, 9: 3}
        if args.mathieu not in by_points:
            raise fileio.FormatError("--mathieu expects one of 12, 11, 10, 9")
        d = designs.mathieu12_designs()[by_points[args.mathieu]]
        source = f"mathieu{args.mathieu}"
    elif args.infile:
        if args.t is None or args.gamma is None:
            raise fileio.FormatError("--in needs --t and --gamma")
        d = fileio.load_design(args.infile, args.t, args.gamma)
        source = args.infile
    else:
        raise fileio.FormatError("choose a source: --golay, --mathieu N, or --in FILE")
    if args.contract is not None:
        d = designs.contraction(d, args.contract)
        source += f"/contract{args.contract}"
    payload, ok = _design_payload(d, args.validate)
    payload["source"] = source
    if args.golay and args.contract is None:
        words = designs.golay_codewords()
        weights, counts = np.unique(words.sum(axis=1), return_counts=True)
        payload["codewords"] = int(words.shape[0])
        payload["weight_distribution"] = {
            str(int(w)): int(c) for w, c in zip(weights, counts)
        }
    if args.out:
        fileio.save_design(d, args.out)
        payload["out"] = args.out
    _emit(payload, None)
    return 0 if ok else 1


def _cmd_chartable(args) -> int:
    G = fileio.load_group(args.group)
    table = character_table(G, tol=args.tol)
    payload = {
        "order": len(G),
        "class_sizes": list(table.class_sizes),
        "degrees": list(table.degrees),
        "D": dim_sum_D(G, table),
        "DGH": [],
    }
    for sub_path in args.subgroup or []:
        H = fileio.load_group(sub_path)
        sums = dim_sums_both(G, H, table)
        payload["DGH"].append(
            {
                "subgroup": Path(sub_path).stem,
                "order": len(H),
                "paper": sums["paper"],
                "support": sums["support"],
            }
        )
    _emit(payload, args.out)
    return 0


def _as_bipartite(g) -> graphs.BipartiteGraph:
    if isinstance(g, graphs.BipartiteGraph):
        return g
    raise fileio.FormatError("this check expects a bipartite graph file")


def _cmd_verify_bsc(args) -> int:
    X = _as_bipartite(fileio.load_graph(args.graph))
    report = verify.bsc_check(
        X, alpha=args.alpha, c=args.c, mode=args.mode, budget=args.budget, seed=args.seed
    )
    _emit({"check": "bsc", "alpha": args.alpha, "c": args.c, **_report_dict(report)}, args.out)
    return 0 if report.verdict else 1


def _cmd_verify_magnifier(args) -> int:
    g = fileio.load_graph(args.graph)
    if not isinstance(g, graphs.Graph):
        raise fileio.FormatError("magnifier check expects a plain graph file")
    report = verify.magnifier_constant(g, mode=args.mode, budget=args.budget, seed=args.seed)
    verdict = report.verdict if args.c is None else report.worst_ratio >= args.c - 1e-12
    payload = {"check": "magnifier", **_report_dict(report), "verdict": verdict}
    if args.c is not None:
        payload["c"] = args.c
    _emit(payload, args.out)
    return 0 if verdict else 1


def _cmd_verify_expander(args) -> int:
    X = _as_bipartite(fileio.load_graph(args.graph))
    report = verify.expander_check(
        X,
        c=args.c,
        restrict_half=not args.no_restrict_half,
        mode=args.mode,
        budget=args.budget,
        seed=args.seed,
    )
    _emit(
        {
            "check": "expander",
            "c": args.c,
            "restrict_half": not args.no_restrict_half,
            **_report_dict(report),
        },
        args.out,
    )
    return 0 if report.verdict else 1


def _cmd_lemma11(args) -> int:
    g = fileio.load_graph(args.graph)
    if not isinstance(g, graphs.Graph):
        raise fileio.FormatError("the double-cover harness expects a plain graph file")
    report = verify.double_cover_harness(g, mode=args.mode, budget=args.budget, seed=args.seed)
    _emit(
        {
            "magnifier": _report_dict(report.magnifier),
            "expander": _report_dict(report.expander),
            "passed": report.passed,
        },
        args.out,
    )
    return 0 if report.passed else 1


# The subgroup options each montecarlo variant reads, and the error when one
# is missing; both checks run before any file is read.
_MONTECARLO_READS = {
    "thm14": ((), ""),
    "thm15": (("L",), "thm15 needs --L (the subgroup)"),
    "thm18": (("L", "N"), "thm18 needs --L and --N"),
}


def _cmd_montecarlo(args) -> int:
    reads, missing = _MONTECARLO_READS[args.variant]
    unread = [f"--{name}" for name in ("L", "N") if name not in reads and _given(args, name)]
    if unread:
        raise fileio.FormatError(f"montecarlo --variant {args.variant} does not read "
                                 f"{', '.join(unread)}")
    if not all(getattr(args, name) for name in reads):
        raise fileio.FormatError(missing)
    G = fileio.load_group(args.group)
    if args.variant == "thm14":
        batch = montecarlo.run_cayley_trials(G, args.k, args.eps, args.trials, args.seed)
    elif args.variant == "thm15":
        H = fileio.load_group(args.L)
        batch = montecarlo.run_coset_trials(G, H, args.k, args.eps, args.trials, args.seed)
    else:
        L, N = _load_subgroups(args.L, args.N)
        batch = montecarlo.run_bicoset_trials(
            G, L, N, args.k, args.eps, args.trials, args.seed
        )
    rows = montecarlo.aggregate_rows([batch])
    if args.format == "csv":
        text = montecarlo.render_csv(rows)
        if args.out:
            Path(args.out).write_text(text)
        sys.stdout.write(text)
    else:
        payload = {
            "summary": rows[0],
            "mu_values": _each_distinct(_sig12, batch.mu_values),
            "violating_trials": list(batch.violating_trials),
            # Coset graphs are regular, so no trial is flagged; the key stays
            # in the output format.
            "flags": [],
        }
        if batch.top_values:
            payload["top_values"] = _each_distinct(_sig12, batch.top_values)
        _emit(payload, args.out)
    return 0


def _cmd_pipeline63(args) -> int:
    G = fileio.load_group(args.group)
    L = fileio.load_group(args.L)
    _, S = fileio.load_multiset(args.S)
    report = bicoset_concentrator_report(G, L, S, budget=args.budget, seed=args.seed)
    payload = dataclasses.asdict(report)
    payload["magnifier"] = _report_dict(report.magnifier)
    for key in ("laplacian_gap", "gap_bound", "gram_top", "gram_second", "tanner_alpha"):
        payload[key] = _sig12(payload[key])
    if payload["tanner_constant"] is not None:
        payload["tanner_constant"] = _sig12(payload["tanner_constant"])
    payload["warnings"] = list(report.warnings)
    _emit(payload, args.out)
    return 0


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``, checked at parse time."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_budget = _int_at_least(1)
_seed = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The full parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="concentrators",
        description="Construct concentrator graph families and verify their "
        "spectral and combinatorial concentration properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a graph and write it to a graph file")
    p.add_argument("--kind", required=True,
                   choices=["cayley", "coset", "bicoset", "double-cover", "gq22"])
    p.add_argument("--group", help="group file (degree header + generators)")
    p.add_argument("--H", help="subgroup file for coset graphs")
    p.add_argument("--L", help="input-side subgroup file for bicoset graphs")
    p.add_argument("--N", help="output-side subgroup file for bicoset graphs")
    p.add_argument("--S", help="connection multiset file (degree header + permutations)")
    p.add_argument("--graph", help="input graph file (double-cover)")
    p.add_argument("--simple", action="store_true",
                   help="collapse bicoset multiplicities to 0/1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("spectrum", help="eigenvalues of a graph adjacency or Gram matrix")
    p.add_argument("--graph", required=True,
                   help="graph file; bipartite inputs are analyzed through A A^T")
    p.add_argument("--tol", type=float, default=spectral.DEFAULT_TOL)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("design", help="build, validate, or contract block designs")
    p.add_argument("--golay", action="store_true", help="the 5-(24,8,1) Steiner system")
    p.add_argument("--mathieu", type=int, help="12-point chain member: 12, 11, 10, or 9")
    p.add_argument("--in", dest="infile", help="design file input")
    p.add_argument("--t", type=int, help="claimed strength for --in")
    p.add_argument("--gamma", type=int, help="claimed t-wise count for --in")
    p.add_argument("--contract", type=int, help="contract at this point")
    p.add_argument("--validate", action="store_true")
    p.add_argument("--out", help="write the design file here")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("chartable", help="character table, degrees, and dimension sums")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", action="append",
                   help="subgroup file; both dimension-sum variants are reported")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_chartable)

    def verify_common(p):
        p.add_argument("--graph", required=True)
        p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
        p.add_argument("--budget", type=_budget, default=1000)
        p.add_argument("--seed", type=_seed, help="required for sampled mode")
        p.add_argument("--out")

    p = sub.add_parser("verify-bsc", help="neighbor-count concentration check")
    verify_common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.set_defaults(func=_cmd_verify_bsc)

    p = sub.add_parser("verify-magnifier", help="outside-neighbor magnification constant")
    verify_common(p)
    p.add_argument("--c", type=float, help="claimed constant to compare against")
    p.set_defaults(func=_cmd_verify_magnifier)

    p = sub.add_parser("verify-expander", help="relative-expansion inequality check")
    verify_common(p)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--no-restrict-half", action="store_true",
                   help="also test input sets larger than half")
    p.set_defaults(func=_cmd_verify_expander)

    p = sub.add_parser("lemma11", help="magnifier constant vs extended-double-cover expansion")
    verify_common(p)
    p.set_defaults(func=_cmd_lemma11)

    p = sub.add_parser("montecarlo", help="random generating-multiset tail experiments")
    p.add_argument("--group", required=True)
    p.add_argument("--L", help="subgroup file (thm15: the subgroup; thm18: input side)")
    p.add_argument("--N", help="output-side subgroup file (thm18)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--variant", choices=["thm14", "thm15", "thm18"], required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("pipeline63", help="bi-coset concentrator pipeline for a "
                       "user-supplied expanding set")
    p.add_argument("--group", required=True)
    p.add_argument("--L", required=True)
    p.add_argument("--S", required=True)
    p.add_argument("--budget", type=_budget, default=1000)
    p.add_argument("--seed", type=_seed, help="required when |G| > 24 (sampled magnifier)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pipeline63)

    return parser, sub.choices


# The parsers every ``main`` call in this process reuses; parsing leaves no
# state on them.
_shared_parsers = functools.cache(_build_parsers)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass: an argv that starts
    with a subcommand name is parsed by that subcommand's parser alone, which
    is what the full parser hands the rest of the argv to.  Any other argv,
    or one that leaves arguments over, goes through the full parser, so every
    usage error keeps its text and exit code 2."""
    parser, subcommands = _shared_parsers()
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in subcommands:
        namespace = argparse.Namespace(command=argv[0])
        args, extras = subcommands[argv[0]].parse_known_args(argv[1:], namespace)
        if not extras:
            return args
    return parser.parse_args(argv)


# Float options that must be finite, and those of them that must also be
# positive.  ``main`` rejects a bad value right after parsing, before the
# command reads any file or scans a subset.
_FINITE = ("alpha", "c", "tol")
_POSITIVE = ("tol",)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    for name in _FINITE:
        value = getattr(args, name, None)
        if value is None:
            continue
        need = "finite and positive" if name in _POSITIVE else "finite"
        if not math.isfinite(value) or (name in _POSITIVE and value <= 0):
            print(f"error: argument --{name}: must be {need}, got {value}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    # MemoryError: a size header too large to allocate, e.g. ``graph 10000000``
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
