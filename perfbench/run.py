#!/usr/bin/env python3
"""factorlab benchmark: one workload per call, each run in fresh processes.

    python3 perfbench/run.py --workload horserace --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke     # every workload at toy size, both modes

A run sets up the workload's inputs several times, each in a fresh process,
then measures whole rounds of the workload's CLI calls in one more fresh
process for about --seconds, checking every round's outputs outside the
timed region. With --trace 0 the last stdout line reports the end-to-end
metrics; with --trace 1 it reports the per-layer metrics of a run that
alternates untraced and traced rounds, and the spans go to
.perfbench/traces/. Every result is also kept in .perfbench/results/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS / OpenMP thread in every process of a run: on two cores a second
# thread gave no speed at these sizes and made timings wander.
THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("horserace", "predictability", "pool_wide")
# set-up runs at least SETUPS times, and again while less than SETUP_SPAN_S
# has gone into it (up to MAX_SETUPS), so the short set-ups get a steadier
# median
SETUPS = 3
MAX_SETUPS = 8
SETUP_SPAN_S = 4.0
DEADLINE_S = 175.0
# the layers that run during set-up, whose per-layer numbers come from it
SETUP_LAYERS = ("toy_model.generate_universe_s", "data.write_panel_s",
                "data.write_panel_rows")


class RunError(RuntimeError):
    pass


def child(role: str, workload: str, seed: int, size: str, workdir: str,
          deadline: float, *extra: str) -> dict:
    """Run child.py in a fresh process and return its JSON report."""
    env = dict(os.environ, PYTHONPATH=SRC, **THREADS)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), role,
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--workdir", workdir, *extra]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RunError(f"{role} of {workload} ran past the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{role} of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> dict:
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        setups = []
        while len(setups) < SETUPS or (
                len(setups) < MAX_SETUPS
                and sum(s["setup_s"] for s in setups) < SETUP_SPAN_S):
            setups.append(child("setup", workload, seed, size, workdir, deadline,
                                "--trace", str(int(trace))))
        extra = ["--seconds", str(seconds)]
        if trace:
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            extra += ["--trace", "1", "--spans",
                      os.path.join(OUT, "traces", f"{workload}-seed{seed}.jsonl")]
        m = child("measure", workload, seed, size, workdir, deadline, *extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = list(m["errors"])
    if len({s["sha256"] for s in setups}) != 1:
        errors.append("set-up wrote different inputs from the same seed")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"# perfbench {tag} nproc={os.cpu_count()} numpy={m['numpy']} "
          f"blas={m['blas']} threads=1 rounds="
          f"{' '.join(f'{w:.3f}' for w in m['walls'])}")
    if trace:
        metrics = dict(m["layers"])
        for key in SETUP_LAYERS:
            metrics[key] = (statistics.median(s["layers"][key][0] for s in setups),
                            metrics[key][1])
        metrics["trace.overhead_s"] = (
            statistics.median(m["traced_walls"]) - statistics.median(m["walls"]), "s")
        print(f"# layer self times add up to {m['self_sum']:.4f} s of a "
              f"{statistics.median(m['traced_walls']):.4f} s traced round")
        if m["lh_calls"]:
            print(f"# long-only solves: {m['lh_calls']}, tail percentile "
                  f"{m['lh_tail_percentile']}, largest gap to the exact optimum "
                  f"{m['lh_gap']:.3g} * AUM")
    else:
        metrics = {
            "wall_s": (statistics.median(m["walls"]), "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        }
    result = {
        "correct": not errors,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size, traced and not")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "factorlab", "__init__.py")):
        print(f"perfbench: no factorlab source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run(workload, args.seed, 0.0, trace, size="smoke")
                print(json.dumps(result))
                ok &= result["correct"] and result["failed"] == 0
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
