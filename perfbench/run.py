#!/usr/bin/env python3
"""Build and run the scheduler simulator benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 10 --trace 0

It builds perfbench/bin/perfbench_main.exe with dune (against the
repository's own libraries, from source), runs it, and passes its output
through: a human-readable table, then as the last line one JSON object
with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  --trace 1 also writes the traced run's spans under
perfbench/_out/.  --self-test builds and runs the toy-size harness test
instead.  See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = "perfbench/bin/perfbench_main.exe"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    # The benchmark links the repository's libraries, so it needs the
    # whole checkout, not only this directory.
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune-project")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found: run from a checkout of the repository" % needed)
    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./" + target],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed", 1)
    return os.path.join(ROOT, "_build", "default", target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["paper-mix", "churn", "deep-fair"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        exe = build("perfbench/test/perfbench_selftest.exe")
        sys.exit(subprocess.run([exe], cwd=ROOT).returncode)
    if args.workload is None:
        ap.error("--workload is required")
    exe = build(EXE)
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace == 1:
        out = os.path.join(HERE, "_out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--spans", os.path.join(out, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
