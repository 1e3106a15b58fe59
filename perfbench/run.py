"""The repository benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload tails|oracles|groups --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Set-up time is measured first, as the median of several fresh interpreters
importing ``concentrators.cli`` and building its parser.  The workload then
runs in a fresh subprocess (``workload.py``) with BLAS/OpenMP pinned to one
thread, for about ``--seconds`` seconds, and every op output is checked.
Each metric is printed by name with its unit, followed by the result as one
JSON line: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "work_per_s": "1/s"}
# What work_per_s counts on each workload, under the workload's own name.
WORK = {"tails": ("trials_per_s", "trials/s"), "oracles": ("subsets_per_s", "subsets/s"),
        "groups": ("elements_per_s", "elements/s")}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def environment(root: Path) -> dict:
    info = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(), "threads": {v: "1" for v in THREAD_VARS},
            "git_sha": "unknown", "git_dirty": None}
    try:
        import numpy

        info["numpy"] = numpy.__version__
        info["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (ImportError, KeyError, TypeError) as exc:
        info["numpy"] = f"unavailable: {exc}"
    if (root / ".git").exists():
        try:
            git = ["git", "-C", str(root)]
            info["git_sha"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                             text=True, timeout=30).stdout.strip()
            info["git_dirty"] = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                                    text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def setup_seconds(root: Path, env: dict) -> float:
    """Median wall time for a fresh interpreter to be ready to dispatch a CLI call."""
    code = "import concentrators.cli as c; c.build_parser()"
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "concentrators" / "cli.py").is_file():
        print(f"error: no program at {root / 'src' / 'concentrators'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    info = environment(root)
    print("# env " + json.dumps(info, sort_keys=True))
    try:
        setup_s = setup_seconds(root, env)
        child = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", str(root)],
            cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    sys.stderr.write(child.stderr)
    if child.returncode != 0 or not child.stdout.strip():
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    res = json.loads(child.stdout.strip().splitlines()[-1])

    work_name, work_unit = WORK[args.workload]
    print(f"# workload {args.workload} seed {args.seed}: {res['passes']} untraced passes"
          + (f", {res['traced_passes']} traced" if args.trace else "") + "; medians over passes")
    report = [("wall_s", res["wall_s"], "s"), ("setup_s", setup_s, "s"),
              ("peak_rss_mb", res["peak_rss_mb"], "MiB"),
              ("work_per_s", res["work_per_s"], "1/s"), (work_name, res["work_per_s"], work_unit),
              ("error_rate", res["failed"] / res["attempted"], "ratio")]
    report += [(k, res[k], "ms") for k in ("corpus_op_p50_ms", "corpus_op_p90_ms") if k in res]
    if args.trace:
        report += [(k, v, spans.METRICS[k][0]) for k, v in res["layers"].items()]
    for name, value, unit in report:
        print(f"{name:36s} {value:>16.6g} {unit}")
    if args.trace:
        layers = res["layers"]
        total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS) + layers["trace.unattributed_s"]
        print(f"# layer self times + unattributed = {total:.6f} s; traced pass wall = "
              f"{layers['trace.wall_s']:.6f} s")
    print(f"# {res['failed']} of {res['attempted']} ops failed; "
          f"{res['near_threshold_unpinned']} near-threshold trials had no pinned verdict")
    print(f"# untraced pass walls (s): {res['pass_walls']}")
    for line in res["failures"]:
        print(f"# FAILED {line}")

    if args.trace:
        metrics = {k: {"value": v, "unit": spans.METRICS[k][0]} for k, v in res["layers"].items()}
    else:
        values = {"wall_s": res["wall_s"], "setup_s": setup_s, "peak_rss_mb": res["peak_rss_mb"],
                  "work_per_s": res["work_per_s"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
