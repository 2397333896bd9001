#!/usr/bin/env python3
"""Print a sha256 for every output file of the three benchmark workloads.

Builds the inputs of `horserace`, `predictability` and `pool_wide` (or of
each `--workload` given) with perfbench/workloads.py at the given size and
seed, runs each workload's CLI calls once, and prints one `path sha256`
line per output file, the path relative to --out. The CLI's own messages
go to stderr. Two source trees write the same bytes when their printouts
match:

    python scripts/output_hashes.py --size full --seed 3 --out /tmp/a > a.txt
    python scripts/output_hashes.py --size full --seed 3 --out /tmp/b > b.txt
    diff a.txt b.txt    # the second run from the other tree

    python scripts/output_hashes.py --workload horserace --out /tmp/c
"""

import argparse
import contextlib
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

import workloads  # noqa: E402
from factorlab import cli  # noqa: E402


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="smoke")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append",
                        help="run only this workload (repeat for more; "
                             "default: all three)")
    args = parser.parse_args()
    size = workloads.SIZES[args.size]
    for name in args.workload or workloads.WORKLOADS:
        workdir = os.path.join(args.out, name)
        with contextlib.redirect_stdout(sys.stderr):
            workloads.setup(name, args.seed, size, workdir)
            ops = workloads.operations(name, size, workdir)
            for op in ops:
                if cli.main(op.argv + ["--out", op.out]) != 0:
                    print(f"{name}: {op.name} failed", file=sys.stderr)
                    return 1
        for op in ops:
            for f in sorted(os.listdir(op.out)):
                path = os.path.join(op.out, f)
                print(os.path.relpath(path, args.out), sha256(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
