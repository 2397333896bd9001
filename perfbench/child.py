"""One fresh process of a benchmark run: `setup` writes a workload's inputs,
`measure` runs its rounds. The last stdout line is a JSON report.

    python3 perfbench/child.py setup   --workload W --seed N --size S --workdir D [--trace 1]
    python3 perfbench/child.py measure --workload W --seed N --size S --workdir D
                                       --seconds T [--trace 1 --spans FILE]

run.py starts these with the BLAS and OpenMP pools fixed to one thread and
factorlab's source tree on PYTHONPATH.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

T_START = time.perf_counter()


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_setup(args) -> dict:
    import numpy  # noqa: F401  (timed: part of importing factorlab)
    import factorlab.cli  # noqa: F401
    import spans
    import workloads

    inst = spans.Instrument(trace=True, capture=set()).install() if args.trace else None
    workloads.setup(args.workload, args.seed, workloads.SIZES[args.size], args.workdir)
    setup_s = time.perf_counter() - T_START
    if inst is not None:
        inst.remove()
    inputs = [f"market{k}/{name}" for k in range(workloads.HR_MARKETS)
              for name in ("panel.csv", "truth_series.csv")] \
        if args.workload == "horserace" else ["panel.csv"]
    report = {"setup_s": setup_s,
              "sha256": digest(os.path.join(args.workdir, p) for p in inputs)}
    if inst is not None:
        report["layers"], _ = spans.layer_metrics(inst.spans, 1)
    return report


# which program calls each workload's checks need: always, and when traced
CAPTURE = {
    "horserace": (set(), {"portfolio.optimize_long_only",
                          "portfolio.build_long_short",
                          "portfolio.clean_correlation"}),
    "predictability": ({"signals.residual_returns"}, set()),
    "pool_wide": ({"data.select_pool", "portfolio.run_backtest"},
                  {"portfolio.build_long_short", "portfolio.clean_correlation"}),
}
COSTS = {"linear_rate": 5e-4, "financing_spread": 0.02, "default_borrow_fee": 0.0025}
PRED_FACTORS = ("MOM", "VALUEEAR", "LOWVOL", "SMB", "ROA")
# A traced run makes exactly this many (untraced, traced) round pairs, so its
# per-layer numbers, and the tail of the long-only solve times, always rest
# on the same number of calls.
TRACE_PAIRS = 1


class Checker:
    """Runs a workload's checks on one round's outputs and captured calls;
    reference computations on the inputs are made once, on first use."""

    def __init__(self, workload, seed, size):
        self.workload, self.seed, self.size = workload, seed, size
        self._ref = None
        self.lh_gap = float("-inf")

    def reference(self):
        if self._ref is None:
            import numpy as np
            import checks
            import workloads
            if self.workload == "predictability":
                _, _, _, arrays = workloads.predictability_arrays(self.seed, self.size)
                resid = checks.reference_residuals(arrays["ret"], self.size.pr_lookback)
                mom = checks.reference_mom_scores(arrays["ret"])
                self._ref = {"resid": resid,
                             "curve": checks.reference_curve(mom, resid, 21, 20)}
            elif self.workload == "pool_wide":
                dates, _, regions, arrays = workloads.pool_wide_arrays(
                    self.seed, self.size)
                self._ref = {"dates": np.asarray(dates),
                             "pool": checks.reference_pool(
                                 arrays["adv"], regions, np.asarray(dates),
                                 workloads.pool_counts(self.size))}
            else:
                self._ref = {}
        return self._ref

    def check_outputs(self, op) -> None:
        """The files one operation wrote."""
        import checks
        if self.workload == "horserace":
            checks.check_backtest_outputs(op.out, ("LH", "LS"), op.aum, COSTS)
        elif self.workload == "predictability":
            checks.check_predictability_outputs(op.out, PRED_FACTORS, 20)
            checks.check_curve(os.path.join(op.out, "pred_MOM.csv"),
                               self.reference()["curve"])
        else:
            checks.check_backtest_outputs(op.out, ("LS",), 1e9, COSTS)

    def check_calls(self, captured: dict) -> None:
        """The program calls captured during one round."""
        import checks
        for _, resid in captured.get("signals.residual_returns", []):
            checks.check_residuals(resid, self.reference()["resid"])
        pools = captured.get("data.select_pool", [])
        for (_, pool), (call, result) in zip(
                pools, captured.get("portfolio.run_backtest", [])):
            ref = self.reference()
            checks.check_pool(pool.mask, ref["pool"])
            checks.check_pool_books(result, pool.mask, ref["dates"], call["config"].cap)
        for call, book in captured.get("portfolio.optimize_long_only", []):
            self.lh_gap = max(self.lh_gap, checks.check_lh_solve(call, book))
        for call, out in captured.get("portfolio.build_long_short", []):
            checks.check_ls_book(call, out)
        for _, out in captured.get("portfolio.clean_correlation", []):
            checks.check_cleaned(out)


def run_round(ops, inst, checker, errors) -> tuple[float, int, int]:
    """One round: every operation once, timed from the first CLI call to the
    last output written; checks follow outside the timed region. Returns
    the wall time, the failed operations and the bytes written."""
    from factorlab import cli
    for op in ops:
        shutil.rmtree(op.out, ignore_errors=True)
    inst.install()
    failed = []
    t0 = time.perf_counter()
    for op in ops:
        if cli.main(op.argv + ["--out", op.out]) != 0:
            failed.append(op.name)
    wall = time.perf_counter() - t0
    inst.remove()
    out_bytes = sum(os.path.getsize(os.path.join(op.out, f))
                    for op in ops if os.path.isdir(op.out) for f in os.listdir(op.out))
    for op in ops:
        if op.name not in failed:
            _check(errors, op.name, checker.check_outputs, op)
    if not failed:
        _check(errors, "calls", checker.check_calls, inst.captured)
    for calls in inst.captured.values():
        calls.clear()
    return wall, len(failed), out_bytes


def _check(errors, what, fn, arg) -> None:
    """Record a failed check, or an output the check could not read."""
    try:
        fn(arg)
    except (AssertionError, OSError, ValueError, KeyError) as exc:
        errors.append(f"{what}: {exc!r}")


def run_measure(args) -> dict:
    import numpy as np
    import factorlab.cli  # noqa: F401
    import spans
    import workloads

    size = workloads.SIZES[args.size]
    ops = workloads.operations(args.workload, size, args.workdir)
    always, traced = CAPTURE[args.workload]
    plain = spans.Instrument(trace=False, capture=always)
    tracer = spans.Instrument(trace=True, capture=always | traced) if args.trace else None
    checker = Checker(args.workload, args.seed, size)
    errors: list[str] = []
    walls, traced_walls = [], []
    attempted = failed = traced_bytes = 0
    measured = 0.0
    while True:
        for inst, sink in ((plain, walls), (tracer, traced_walls)):
            if inst is None:
                continue
            wall, n_failed, out_bytes = run_round(ops, inst, checker, errors)
            if inst is tracer:
                traced_bytes += out_bytes
            sink.append(wall)
            measured += wall
            attempted += len(ops)
            failed += n_failed
        rounds = len(walls)
        if tracer is not None:
            if rounds == TRACE_PAIRS:
                break
        elif measured + 0.5 * measured / rounds > args.seconds:
            # another round would end more than half a round past --seconds
            break
    report = {
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lh_gap": checker.lh_gap,
        "numpy": np.__version__,
        "blas": _blas(np),
    }
    if tracer is not None:
        tracer.write(args.spans)
        layers, info = spans.layer_metrics(tracer.spans, len(traced_walls))
        layers["cli.out_bytes"] = (traced_bytes / len(traced_walls), "bytes")
        report["layers"] = layers
        report["traced_walls"] = traced_walls
        report["self_sum"] = sum(spans.self_times(tracer.spans)) / len(traced_walls)
        report.update(info)
    return report


def _blas(np) -> str:
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    report = run_setup(args) if args.role == "setup" else run_measure(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
