"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads eb_ladder hb_tiny --seeds 1 2 3 4 5 --seconds 10
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

Run from the repository root.  Each run is one `perfbench/run.py` process,
one after another.  The spread of a metric is the distance between the
first and third quartile of its values, `statistics.quantiles(v, n=4)`,
as a share of their median; BENCHMARK.json bounds each end-to-end metric's
spread and its drift between two sets of runs.  --out records the machine,
the medians, quartiles and every value as JSON, under `end_to_end` or
`per_layer` by --trace, keeping what an existing file holds for the
workloads not rerun.
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

HERE = os.path.dirname(os.path.abspath(__file__))


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": 1, "platform": platform.platform()}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run's result, with its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(prog="perfbench/spread.py")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    report = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            results.append(run(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items())
                + f" ({results[-1]['wall_s']:.1f} s)", flush=True)
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "correct": all(r["correct"] for r in results), "metrics": {}}
        for name, first in results[0]["metrics"].items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = first["unit"]
            entry["metrics"][name] = s
            bound = bounds.get(name)
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            flag = "" if bound is None else f"  bound {bound}" + ("  OVER" if s["spread"] > bound else "")
            print(f"  {workload:<11} {name:<46} median {s['median']:<12.6g} spread {spread}{flag}")
        entry["wall_s"] = summarize([r["wall_s"] for r in results])
        print(f"  {workload:<11} failed {entry['failed']} of {entry['attempted']} ops; "
              f"median wall time per run {entry['wall_s']['median']:.1f} s", flush=True)
        report["workloads"][workload] = entry
    if args.out:  # one file holds both kinds of run; workloads not rerun are kept
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        key = "per_layer" if args.trace else "end_to_end"
        report["workloads"] = {**doc.get(key, {}).get("workloads", {}), **report["workloads"]}
        doc[key] = report
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
