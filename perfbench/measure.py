"""The timed loop of one workload and the metrics computed from it.

Imported by run.py only after the BLAS thread variables are set, because
importing this module imports numpy.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import invseq.empirical_bayes
import invseq.experiments
import invseq.gaussian_posterior
import invseq.theory
import workloads
from benchstats import pit_total_variation, self_times, tail_percentile
from tracing import LAYERS, Recorder, clock

MODULES = {m.__name__: m for m in (invseq.experiments, invseq.empirical_bayes,
                                   invseq.gaussian_posterior, invseq.theory)}

# Op latencies are reported at a reference CPU speed.  On a shared 2-vCPU VM
# the same code ran at CPU speeds up to 2x apart, switching every few
# seconds to minutes.  host_speed() runs between calls, never inside one,
# and every op of a call is scaled by REFERENCE_S over the mean of the
# probes at the call's two ends.
REFERENCE_S = 0.025
SETUP_RUNS = 5
HERE = os.path.dirname(os.path.abspath(__file__))
_SCALARS = np.random.default_rng(0).standard_normal(3)
_VECTOR = np.random.default_rng(1).standard_normal(4096)
_LARGE = np.random.default_rng(2).standard_normal(100_000)


def host_speed() -> float:
    """CPU seconds for a fixed mix of numpy call overhead and vector transcendentals.

    Small and 4096-element arrays follow call-bound ops such as a J = 3
    chain; the 1e5-element array follows the cache-bound ones, such as a
    J = 4642 chain or an N = 1e5 fit.  The fastest of two tries; 25-29 ms
    on the 2-vCPU VM of the first baseline.
    """
    best = float("inf")
    for _ in range(2):
        t0 = clock()
        for _ in range(100):
            np.exp(_SCALARS)
            np.sum(_SCALARS)
            np.logaddexp(_SCALARS, 1.0)
            float(np.logaddexp(_VECTOR, 0.5).sum())
        for _ in range(6):
            float(np.logaddexp(_LARGE, 0.5).sum())
        best = min(best, clock() - t0)
    return best


def measure_setup(name: str, seed: int, out_dir: str) -> dict:
    """Set-up CPU times, each the median over SETUP_RUNS fresh interpreters.

    The interpreters run setup_probe.py one after another.  setup_s is
    also brought to the reference speed by the median of host_speed()
    probes taken before and after each interpreter.  The median settles
    the noise from one interpreter to the next; the scaling is for the
    host's slower and faster stretches, which last minutes.
    """
    speeds = [host_speed()]
    runs = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed), out_dir],
                              capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        speeds.append(host_speed())
    setup = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    setup["setup_s"] *= REFERENCE_S / statistics.median(speeds)
    return setup


def op_latencies(t0: float, t1: float, op_starts: list, ops: int):
    """Latencies of the ops of one call, or None if the op count is off.

    Op k runs from its simulate() call to the next op's; the first op also
    holds the work before the first simulate() and the last op the work
    after its own until the call returns.
    """
    if ops == 1:
        return [t1 - t0]
    if len(op_starts) != ops:
        return None
    bounds = [t0] + op_starts[1:] + [t1]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def run_passes(wl, hooks, seconds: float, trace: bool) -> dict:
    """Repeat whole passes; with `trace`, every second pass records spans.

    Only the wall time inside calls counts toward `seconds`; output checks
    and host_speed() run between calls.  An op fails when its call raises,
    a check on its output fails, or its call's outputs differ from the
    first pass.  Each pass keeps its op latencies in CPU seconds at the
    reference speed, None for a failed op.
    """
    reference: dict = {}
    passes: list[dict] = []
    attempted = failed = 0
    speed = host_speed()
    while len(passes) < wl.min_passes or sum(p["seconds"] for p in passes) < seconds:
        hooks.recording = trace and len(passes) % 2 == 1
        record = {"traced": hooks.recording, "seconds": 0.0, "cpu_s": 0.0, "latencies": [], "bytes": 0}
        for index, call in enumerate(wl.calls()):
            hooks.reset()
            first_op = attempted
            hooks.op_of = lambda: first_op + max(len(hooks.op_starts) - 1, 0)
            t0, c0 = time.perf_counter(), clock()
            try:
                result = call.run()
            except Exception:  # counted as failed ops; the run goes on
                traceback.print_exc(file=sys.stderr)
                result = None
            c1, t1 = clock(), time.perf_counter()
            record["seconds"] += t1 - t0
            record["cpu_s"] += c1 - c0
            attempted += call.ops
            before, speed = speed, host_speed()
            lat = ok = None
            if result is not None:
                lat = op_latencies(c0, c1, hooks.op_starts, call.ops)
                ok, digest, size = call.check(result, hooks)
                record["bytes"] += size
                if lat is None or len(ok) != call.ops or reference.setdefault(index, digest) != digest:
                    ok = None
            failed += call.ops - (sum(bool(x) for x in ok) if ok else 0)
            scale = REFERENCE_S / (0.5 * (before + speed))
            record["latencies"] += ([x * scale if good else None for x, good in zip(lat, ok)] if ok
                                    else [None] * call.ops)
        hooks.recording = False
        passes.append(record)
    return {"passes": passes, "attempted": attempted, "failed": failed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def best_latencies(passes: list) -> np.ndarray:
    """Each op of a pass at its fastest repetition across the passes given.

    Contention only ever adds time, so the fastest repetition is the figure
    that repeats from run to run.  Ops that never succeeded drop out.
    """
    table = np.array([[np.inf if x is None else x for x in p["latencies"]] for p in passes])
    best = table.min(axis=0)
    return best[np.isfinite(best)]


def hb_figures(hb) -> dict:
    if hb is None or not hb.chains:
        return {}
    chains = list(hb.chains.values())
    ess = sum(c["ess"] for c in chains)
    figures = {"alpha_ess_per_s": ess / sum(c["seconds"] for c in chains),
               "alpha_iat": sum(c["draws"] for c in chains) / ess,
               "acceptance_rate": float(np.mean([c["acceptance"] for c in chains]))}
    if hb.with_oracle:
        figures["alpha_tv"] = pit_total_variation(np.concatenate([c["pits"] for c in chains]),
                                                  workloads.TV_BINS)
    return figures


def end_to_end(wl, run: dict, setup: dict) -> tuple[dict, list]:
    """Throughput and median from each op's fastest repetition; the tail from every op run.

    The tail percentile is the highest with ten op runs beyond it in the
    smallest run a workload makes (min_passes * ops_per_pass op runs), so
    it does not move when a faster program fits more passes into a run.
    """
    q = tail_percentile(wl.min_passes * wl.ops_per_pass)
    best = best_latencies(run["passes"])
    every = np.array([x for p in run["passes"] for x in p["latencies"] if x is not None])
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "ops_per_s": (best.size / float(best.sum()), "1/s"),
        "op_s_p50": (float(np.median(best)), "s"),
        "op_s_tail": (float(np.percentile(every, q)), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = [f"{len(run['passes'])} passes of {wl.ops_per_pass} ops, in CPU seconds at the reference "
             f"speed; ops_per_s and op_s_p50 take each op at its fastest pass; op_s_tail is p{q} of "
             f"{every.size} op runs; setup_s is the median of {SETUP_RUNS} fresh interpreters"]
    hb = hb_figures(wl.hb)
    if hb:
        notes.append(f"alpha_ess_per_s {hb['alpha_ess_per_s']:.6g} 1/s "
                     "(pooled Geyer ESS of alpha per CPU second inside run_mwg)")
        notes.append("alpha_tv: reported by the traced run (--trace 1), which builds the exact oracle")
    return metrics, notes


def per_layer(wl, run: dict, recorder, setup: dict) -> dict:
    """Per-layer figures, each per traced pass; 0 where a layer did no work."""
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    k = len(traced)
    spans = recorder.spans
    layer_self = self_times(spans)
    layer_of = {s["id"]: s["layer"] for s in spans}

    def per_fn(attr):
        sel = [s for s in spans if s["name"].rpartition(".")[2] == attr]
        return (len(sel) / k, sum(s["end"] - s["start"] for s in sel) / k,
                sum(s["work"] or 0 for s in sel) / k)

    m = {"cli.import_s": (setup["import_s"], "s"), "cli.self_s": (setup["cli_self_s"], "s")}
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0) / k, "s")

    calls, busy, coords = per_fn("fit")
    m["empirical_bayes.fit.calls"] = (calls, "count")
    m["empirical_bayes.fit.busy_s"] = (busy, "s")
    m["empirical_bayes.fit.us_per_coord"] = (1e6 * busy / coords if coords else 0.0, "us")

    calls, busy, cos_evals = per_fn("synthesize_function")
    m["sequence_model.synthesize_function.calls"] = (calls, "count")
    m["sequence_model.synthesize_function.busy_s"] = (busy, "s")
    m["sequence_model.synthesize_function.cos_evals"] = (cos_evals, "count")
    m["sequence_model.simulate.busy_s"] = (per_fn("simulate")[1], "s")

    calls, busy, sweeps = per_fn("run_mwg")
    hb = hb_figures(wl.hb)
    m["hierarchical_bayes.run_mwg.calls"] = (calls, "count")
    m["hierarchical_bayes.run_mwg.busy_s"] = (busy, "s")
    m["hierarchical_bayes.run_mwg.sweeps"] = (sweeps, "count")
    m["hierarchical_bayes.run_mwg.us_per_sweep"] = (1e6 * busy / sweeps if sweeps else 0.0, "us")
    m["hierarchical_bayes.run_mwg.acceptance_rate"] = (hb.get("acceptance_rate", 0.0), "ratio")
    m["hierarchical_bayes.run_mwg.alpha_iat"] = (hb.get("alpha_iat", 0.0), "sweeps")
    m["hierarchical_bayes.alpha_ess_per_s"] = (hb.get("alpha_ess_per_s", 0.0), "1/s")
    m["hierarchical_bayes.alpha_tv"] = (hb.get("alpha_tv", 0.0), "ratio")

    calls, busy, _ = per_fn("bracket")
    m["theory.bracket.calls"] = (calls, "count")
    m["theory.bracket.busy_s"] = (busy, "s")
    m["theory.bracket.alpha_points_scanned"] = (
        getattr(wl, "points_scanned", 0) / len(run["passes"]), "count")

    entries = [s for s in spans if s["layer"] == "gaussian_posterior"
               and (s["parent"] is None or layer_of[s["parent"]] != "gaussian_posterior")]
    m["gaussian_posterior.calls"] = (len(entries) / k, "count")
    m["gaussian_posterior.busy_s"] = (sum(s["end"] - s["start"] for s in entries) / k, "s")
    m["experiments.bytes_written"] = (float(np.mean([p["bytes"] for p in run["passes"]])), "bytes")

    m["trace.overhead_s"] = (min(p["cpu_s"] for p in traced) - min(p["cpu_s"] for p in plain), "s")
    m["trace.spans"] = (len(spans) / k, "count")
    return m


def run_one(name: str, seed: int, seconds: float, trace: bool,
            out_dir: str, trace_path: str) -> tuple[dict, list, dict]:
    setup = measure_setup(name, seed, out_dir)
    wl = workloads.WORKLOADS[name](seed, out_dir)
    if wl.hb is not None:
        wl.hb.with_oracle = trace
    hooks = Recorder()
    hooks.install(MODULES)
    try:
        run = run_passes(wl, hooks, seconds, trace)
    finally:
        hooks.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)
    if not trace:
        metrics, notes = end_to_end(wl, run, setup)
        return metrics, notes, run
    hooks.write_jsonl(trace_path)
    n_traced = sum(p["traced"] for p in run["passes"])
    notes = [f"per traced pass: {n_traced} traced and {len(run['passes']) - n_traced} untraced passes; "
             f"spans in {os.path.relpath(trace_path)}"]
    return per_layer(wl, run, hooks, setup), notes, run
