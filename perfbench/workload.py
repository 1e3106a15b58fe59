"""One workload in its own process: write the inputs, run passes of
in-process ``concentrators.cli.main`` calls, check every output, and print
the results as one JSON line.

``run.py`` starts this in a fresh interpreter per run, so import cost and peak
RSS belong to the workload alone.  A pass is the workload's fixed op list,
called back to back by one client (a closed loop).  Untraced passes give the
end-to-end numbers; with ``--trace 1`` traced and untraced passes alternate,
and the traced ones give the per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import check
import inputs
import spans


def load_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import concentrators
    import concentrators.cli as cli

    if not Path(concentrators.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise ImportError(f"concentrators imported from {concentrators.__file__}, not {root / 'src'}")
    return cli


def run_op(cli, argv: list[str]):
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the op failed; record why and carry on with the run
        code = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return time.perf_counter() - t0, code, out.getvalue()


def work_done(op: dict, stdout: str) -> float:
    """The unit of work an op contributes to ``work_per_s``."""
    if op["kind"] == "montecarlo":
        return op["meta"]["trials"]
    if op["kind"] == "subsets":
        out = json.loads(stdout)
        return (out["magnifier"] if "magnifier" in out else out)["subsets_checked"]
    return op["meta"].get("elements", 0)


def run_pass(cli, ops, checker, failures, recorder=None) -> dict:
    wall = work = work_time = 0.0
    corpus_ms = []
    failed = 0
    for op in ops:
        if recorder is not None:
            recorder.op = op["id"]
        dt, code, stdout = run_op(cli, op["argv"])
        wall += dt
        problem = code if isinstance(code, str) else checker.check(op, code, stdout)
        if problem:
            failed += 1
            if len(failures) < 20:
                failures.append(f"{op['id']}: {problem}")
            continue
        if op["kind"] == "corpus":
            corpus_ms.append(dt * 1e3)
            continue
        units = work_done(op, stdout)
        if units:
            work += units
            work_time += dt
    row = {"wall_s": wall, "failed": failed, "ops": len(ops),
           "work_per_s": work / work_time if work_time else 0.0}
    if corpus_ms:
        q = statistics.quantiles(corpus_ms, n=10, method="inclusive")
        row.update(corpus_op_p50_ms=statistics.median(corpus_ms), corpus_op_p90_ms=q[8])
    return row


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", type=Path, required=True, help="checkout holding src/concentrators")
    args = p.parse_args(argv)
    root = args.root.resolve()
    cli = load_program(root)
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        ops = inputs.build_ops(args.workload, args.seed, tmp)
        checker = check.Checker(args.workload, tmp)
        failures: list[str] = []
        plain, traced, recorders = [], [], []
        # Start another pass only if it should end within --seconds, judged by
        # the last pass, so a slow machine gets fewer passes, not a longer run.
        start, last = time.perf_counter(), 0.0
        while (not plain or (args.trace and not traced)
               or time.perf_counter() - start + last <= args.seconds):
            t0 = time.perf_counter()
            if args.trace and len(traced) < len(plain):
                rec = spans.Recorder()
                rec.install()
                try:
                    row = run_pass(cli, ops, checker, failures, rec)
                finally:
                    rec.uninstall()
                row["layers"] = rec.summary(row["wall_s"])
                traced.append(row)
                recorders.append(rec)
            else:
                plain.append(run_pass(cli, ops, checker, failures))
            last = time.perf_counter() - t0
        result = {
            "attempted": sum(r["ops"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "failures": failures,
            "passes": len(plain),
            "pass_walls": [round(r["wall_s"], 4) for r in plain],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "near_threshold_unpinned": checker.near_threshold,
        }
        for key in ("wall_s", "work_per_s", "corpus_op_p50_ms", "corpus_op_p90_ms"):
            values = [r[key] for r in plain if key in r]
            if values:
                result[key] = statistics.median(values)
        if traced:
            # One whole pass, the traced pass of median wall time, so that its
            # layer self times and the unattributed remainder add up exactly.
            layers = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]["layers"]
            layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                          - result["wall_s"])
            result.update(layers=layers, traced_passes=len(traced))
            out_dir = root / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
                for rec in recorders:
                    rec.dump(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
