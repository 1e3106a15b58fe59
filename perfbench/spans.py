"""Span recorder for the traced run, installed from the benchmark's own files.

Each layer-boundary public function of the program is replaced, at every
module binding that holds it (modules import these by name, so
``montecarlo.sym_eigenvalues`` is a separate binding from
``spectral.sym_eigenvalues``), by a wrapper that records one span: name,
start, end, parent span and op id.  Per-element helpers such as ``compose``
and ``index_of`` are not wrapped.  Spans stay in memory; the caller writes
them out when the run ends.  A layer's self time is its spans' durations
minus the time their child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("permgroup", "graphs", "spectral", "montecarlo", "characters", "verify",
          "designs", "pipeline", "fileio", "cli")

TIE = 1e-9


def _eligible(bound, report) -> int:
    """Subsets an exhaustive scan visits when it does not stop early."""
    if report.mode != "exhaustive":
        return report.subsets_checked
    args = bound.arguments
    graph = next(iter(args.values()))
    if "alpha" in args:
        n, top = graph.n_in, int(args["alpha"] * graph.n_in + 1e-9)
    elif "restrict_half" in args:
        n = graph.n_in
        top = n // 2 if args["restrict_half"] else n
    else:
        n, top = graph.n, graph.n // 2
    return sum(math.comb(n, s) for s in range(1, min(top, n) + 1))


def _scan(c, bound, report):
    c["verify.subsets_checked"] += report.subsets_checked
    c["verify.eligible"] += _eligible(bound, report)
    c["verify.refutations"] += not report.verdict


def _eigensolve(c, bound, result):
    n = np.asarray(next(iter(bound.arguments.values()))).shape[0]
    c["spectral.eigensolve_n3"] += n**3
    c["spectral.max_residual"] = max(c["spectral.max_residual"], float(result[2]))


def _closure(c, bound, group):
    c["permgroup.closure_elements"] += len(group)


def _table(c, bound, table):
    c["characters.classes"] += table.n_classes


def _runner(c, bound, batch):
    c["montecarlo.trials"] += batch.trials
    c["montecarlo.near_threshold_trials"] += sum(
        abs(mu - batch.threshold) <= TIE for mu in batch.mu_values)


# (module, function, counter hook or None).  The hook sees the bound call
# arguments and the result, so counts are taken where the work happens.
BOUNDARIES = [
    ("permgroup", "closure", _closure),
    ("permgroup", "is_subgroup", None),
    ("permgroup", "right_cosets", None),
    ("permgroup", "conjugacy_classes", None),
    ("permgroup", "orbit_of_set", None),
    ("permgroup", "seeded_rng", None),
    ("graphs", "cayley_graph", None),
    ("graphs", "coset_graph", None),
    ("graphs", "bicoset_graph", None),
    ("graphs", "bicayley_graph", None),
    ("graphs", "extended_double_cover", None),
    ("graphs", "gq22_incidence", None),
    ("graphs", "connected_components", None),
    ("spectral", "jacobi_eigensystem", _eigensolve),
    ("spectral", "sym_eigenvalues", None),
    ("spectral", "mu_star", None),
    ("spectral", "laplacian_gap", None),
    ("montecarlo", "run_cayley_trials", _runner),
    ("montecarlo", "run_coset_trials", _runner),
    ("montecarlo", "run_bicoset_trials", _runner),
    ("montecarlo", "cayley_operator", None),
    ("montecarlo", "_normalized_coset_matrix", None),
    ("montecarlo", "aggregate_rows", None),
    ("montecarlo", "render_csv", None),
    ("characters", "character_table", _table),
    ("characters", "dim_sum_D", None),
    ("characters", "dim_sums_both", None),
    ("characters", "dim_sum_DGH", None),
    ("characters", "bound_eval", None),
    ("designs", "golay_codewords", None),
    ("designs", "golay_witt_design", None),
    ("designs", "mathieu12_designs", None),
    ("designs", "contraction", None),
    ("designs", "validate_design", None),
    ("designs", "bibd_params", None),
    ("verify", "bsc_check", _scan),
    ("verify", "magnifier_constant", _scan),
    ("verify", "expander_check", _scan),
    ("verify", "double_cover_harness", None),
    ("pipeline", "bicoset_concentrator_report", None),
    ("fileio", "load_group", None),
    ("fileio", "load_multiset", None),
    ("fileio", "load_graph", None),
    ("fileio", "load_design", None),
    ("fileio", "save_graph", None),
    ("fileio", "save_design", None),
    ("cli", "main", None),
]

# Function groups whose calls are counted and whose time is the inclusive
# duration of the outermost span among them.
GROUPS = {
    "spectral.eigensolve": ["spectral.jacobi_eigensystem"],
    "montecarlo.operator": ["montecarlo.cayley_operator", "montecarlo._normalized_coset_matrix"],
    "graphs.build": ["graphs.cayley_graph", "graphs.coset_graph", "graphs.bicoset_graph",
                     "graphs.bicayley_graph", "graphs.extended_double_cover",
                     "graphs.gq22_incidence"],
    "permgroup.closure": ["permgroup.closure"],
    "permgroup.conjugacy": ["permgroup.conjugacy_classes"],
    "permgroup.cosets": ["permgroup.right_cosets"],
    "characters.table": ["characters.character_table"],
    "designs.build": ["designs.golay_codewords", "designs.golay_witt_design",
                      "designs.mathieu12_designs", "designs.contraction"],
    "designs.validate": ["designs.validate_design"],
    "verify.scan": ["verify.bsc_check", "verify.magnifier_constant", "verify.expander_check"],
    "fileio.load": ["fileio.load_group", "fileio.load_multiset", "fileio.load_graph",
                    "fileio.load_design"],
    "cli.main": ["cli.main"],
}
CALL_METRICS = {
    "spectral.eigensolve_calls": "spectral.eigensolve",
    "montecarlo.operator_calls": "montecarlo.operator",
    "graphs.build_calls": "graphs.build",
    "permgroup.closure_calls": "permgroup.closure",
    "permgroup.conjugacy_calls": "permgroup.conjugacy",
    "permgroup.cosets_calls": "permgroup.cosets",
    "characters.table_calls": "characters.table",
    "designs.validate_calls": "designs.validate",
    "verify.calls": "verify.scan",
    "fileio.load_calls": "fileio.load",
    "cli.calls": "cli.main",
}
TIME_METRICS = {
    "spectral.eigensolve_s": "spectral.eigensolve",
    "montecarlo.operator_s": "montecarlo.operator",
    "graphs.build_s": "graphs.build",
    "permgroup.closure_s": "permgroup.closure",
    "permgroup.conjugacy_s": "permgroup.conjugacy",
    "permgroup.cosets_s": "permgroup.cosets",
    "characters.table_s": "characters.table",
    "designs.build_s": "designs.build",
    "designs.validate_s": "designs.validate",
    "verify.scan_s": "verify.scan",
    "fileio.load_s": "fileio.load",
}
COUNTERS = ("spectral.eigensolve_n3", "spectral.max_residual", "montecarlo.trials",
            "montecarlo.near_threshold_trials", "permgroup.closure_elements",
            "characters.classes", "verify.subsets_checked", "verify.refutations")

RUNNERS = {"montecarlo.run_cayley_trials", "montecarlo.run_coset_trials",
           "montecarlo.run_bicoset_trials"}

# name -> (unit, better); the per-layer metrics of BENCHMARK.json, in order.
METRICS = {
    "spectral.eigensolve_calls": ("count", "lower"),
    "spectral.eigensolve_s": ("s", "lower"),
    "spectral.eigensolve_n3": ("count", "lower"),
    "spectral.max_residual": ("abs", "lower"),
    "montecarlo.operator_calls": ("count", "lower"),
    "montecarlo.operator_s": ("s", "lower"),
    "montecarlo.runner_self_s": ("s", "lower"),
    "montecarlo.trials": ("count", "higher"),
    "montecarlo.near_threshold_trials": ("count", "lower"),
    "graphs.build_calls": ("count", "lower"),
    "graphs.build_s": ("s", "lower"),
    "permgroup.closure_calls": ("count", "lower"),
    "permgroup.closure_s": ("s", "lower"),
    "permgroup.closure_elements": ("count", "lower"),
    "permgroup.conjugacy_calls": ("count", "lower"),
    "permgroup.conjugacy_s": ("s", "lower"),
    "permgroup.cosets_calls": ("count", "lower"),
    "permgroup.cosets_s": ("s", "lower"),
    "characters.table_calls": ("count", "lower"),
    "characters.table_s": ("s", "lower"),
    "characters.classes": ("count", "lower"),
    "designs.build_s": ("s", "lower"),
    "designs.validate_calls": ("count", "lower"),
    "designs.validate_s": ("s", "lower"),
    "verify.calls": ("count", "lower"),
    "verify.scan_s": ("s", "lower"),
    "verify.subsets_checked": ("count", "lower"),
    "verify.scan_fraction": ("ratio", "lower"),
    "verify.refutations": ("count", "lower"),
    "fileio.load_calls": ("count", "lower"),
    "fileio.load_s": ("s", "lower"),
    "cli.calls": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_current = contextvars.ContextVar("perfbench_span", default=-1)


class Recorder:
    """Spans of one traced pass: [name, start, end, parent, op, child_time]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict = defaultdict(float)
        self.op = None
        self._patches: list = []

    def wrap(self, name: str, fn, hook):
        spans, counters = self.spans, self.counters
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            rec = [name, 0.0, 0.0, parent, self.op, 0.0]
            token = _current.set(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                _current.reset(token)
                if parent >= 0:
                    spans[parent][5] += rec[2] - rec[1]
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(counters, bound, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each boundary function in the program."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "concentrators" or name.startswith("concentrators."))]
        for layer, fname, hook in BOUNDARIES:
            orig = getattr(sys.modules[f"concentrators.{layer}"], fname)
            wrapper = self.wrap(f"{layer}.{fname}", orig, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def summary(self, wall: float) -> dict:
        """Per-layer metrics of the recorded pass; ``wall`` is its traced wall time."""
        group_of = {fn: g for g, fns in GROUPS.items() for fn in fns}
        calls, times = defaultdict(int), defaultdict(float)
        out = {name: 0.0 for name in METRICS}
        attributed = 0.0
        for name, t0, t1, parent, _op, child in self.spans:
            dur = t1 - t0
            out[name.split(".")[0] + ".self_s"] += dur - child
            attributed += dur - child
            if name in RUNNERS:
                out["montecarlo.runner_self_s"] += dur - child
            group = group_of.get(name)
            if group is None:
                continue
            calls[group] += 1
            p = parent
            while p >= 0 and group_of.get(self.spans[p][0]) != group:
                p = self.spans[p][3]
            if p < 0:
                times[group] += dur
        out.update({m: calls[g] for m, g in CALL_METRICS.items()})
        out.update({m: times[g] for m, g in TIME_METRICS.items()})
        out.update({m: self.counters[m] for m in COUNTERS})
        eligible = self.counters["verify.eligible"]
        out["verify.scan_fraction"] = self.counters["verify.subsets_checked"] / eligible if eligible else 0.0
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = wall - attributed
        return out

    def dump(self, fh) -> None:
        for name, t0, t1, parent, op, _child in self.spans:
            fh.write(f'["{name}", {t0!r}, {t1!r}, {parent}, "{op}"]\n')
