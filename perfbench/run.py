"""invseq benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload eb_ladder --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports invseq from ./src and exits
with code 2 when that is missing.  Workloads: eb_ladder, hb_ladder,
hb_tiny, diagnostic (see workloads.py); `all` runs each in a process of
its own.  A run repeats whole passes until the wall time inside calls
reaches --seconds and the workload's minimum number of passes is done.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics, with the difference
between the two kinds of pass as the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans of a traced run go to .perfbench_out/trace-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAMES = ("eb_ladder", "hb_ladder", "hb_tiny", "diagnostic")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_ROOT = ".perfbench_out"


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_one(args) -> int:
    root = os.path.join(os.getcwd(), OUT_ROOT)
    os.makedirs(root, exist_ok=True)
    out_dir = os.path.join(root, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    import measure
    metrics, notes, run = measure.run_one(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir,
        os.path.join(root, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<11} {name:<46} {value:>14.6g} {unit}")
    for line in notes + [f"failed {run['failed']} of {run['attempted']} ops"]:
        print(f"{args.workload:<11} {line}")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, so that its peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "invseq", "__init__.py")):
        print("perfbench: src/invseq not found; run from the repository root", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported, here and in every child
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join([src, HERE])
    sys.path[:0] = [src, HERE]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
