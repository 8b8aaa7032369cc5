"""The four benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one client: a pass is a fixed list of
calls into the public entry points the command line wraps (`run_figure1`,
`run_rate_sweep`, `run_figure2`, `bracket`), each call holds one or more
ops, and the next call starts when the previous one returns.  A pass is
the same for every repetition within a run, so its outputs must replay
byte for byte.  Constructing a workload only builds specs and configs; it
is the part of set-up a user of the command line pays before the first op.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

import invseq.cli as cli
import invseq.experiments as experiments
import invseq.theory as theory
from invseq import ExperimentConfig, log_likelihood
from invseq.sequence_model import default_truncation

from benchstats import effective_sample_size

ULP_SLACK = 64 * np.finfo(float).eps  # ell(alpha_hat) vs its grid, in relative units
TV_BINS = 20
ORACLE_POINTS = 3001


@dataclass
class Call:
    """One call into an entry point: `run()` returns its result, `ops` ops ride on it."""

    run: object
    ops: int
    check: object  # (result, hooks) -> (per-op ok flags, replay digest, bytes written)


def _digest_files(out_dir: str, names) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            blob = fh.read()
        h.update(name.encode() + b"\0" + blob)
        size += len(blob)
    return h.hexdigest(), size


def fit_ok(obs, eb) -> bool:
    """alpha_hat in [0, log n], finite, and no point of its own grid beats it."""
    a = eb.alpha_hat
    values = eb.curve.values
    if not (math.isfinite(a) and 0.0 <= a <= math.log(obs.n) and np.all(np.isfinite(values))):
        return False
    top = float(np.max(values))
    ell = log_likelihood(a, obs)
    return math.isfinite(ell) and ell >= top - ULP_SLACK * max(1.0, abs(top))


def chain_ok(chain) -> bool:
    s = chain.summary()
    return bool(np.all(np.isfinite(chain.alphas)) and np.all(chain.alphas > 0.0)
                and 0.0 <= chain.acceptance_rate <= 1.0
                and all(math.isfinite(s[k]) for k in ("alpha_mean", "alpha_mode"))
                and np.all(np.isfinite(chain.mu_mean)))


def alpha_marginal_cdf(obs, hyper):
    """Exact marginal of alpha, lambda(alpha)*exp(ell(alpha)), as a CDF on a grid.

    With J = N the sampler's alpha marginal is exactly this 1-D density, so
    quadrature on a grid is the oracle.  A coarse scan finds where the log
    density is within 40 of its peak; ORACLE_POINTS cover that window.
    """
    def logpost(grid):
        return np.array([hyper.log_density(a) + log_likelihood(a, obs) for a in grid])

    coarse = np.linspace(1e-9, 40.0, 401)
    lp = logpost(coarse)
    live = np.nonzero(lp > lp.max() - 40.0)[0]
    lo = coarse[max(live[0] - 1, 0)]
    hi = coarse[min(live[-1] + 1, coarse.size - 1)]
    grid = np.linspace(max(lo, 1e-9), hi, ORACLE_POINTS)
    lp = logpost(grid)
    density = np.exp(lp - lp.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])
    return grid, cdf / cdf[-1]


class HbStats:
    """Chain figures of merit, gathered outside the timed region.

    Passes replay the same chains, so each chain (keyed by its
    observation) is scored once, and its sampler time is its fastest
    repetition.  The exact-marginal oracle behind alpha_tv runs only when
    `with_oracle` is set, as it is in traced runs.
    """

    def __init__(self):
        self.chains: dict = {}
        self.with_oracle = False

    def add(self, hooks) -> None:
        for obs, hyper, chain, seconds in hooks.chains:
            key = (obs.n, obs.seed)
            if key in self.chains:
                self.chains[key]["seconds"] = min(self.chains[key]["seconds"], seconds)
                continue
            self.chains[key] = {"ess": effective_sample_size(chain.alphas), "draws": chain.alphas.size,
                                "seconds": seconds, "acceptance": chain.acceptance_rate}
            if self.with_oracle:
                grid, cdf = alpha_marginal_cdf(obs, hyper)
                self.chains[key]["pits"] = np.interp(chain.alphas, grid, cdf)


def _hb_call_check(cfg, stats: HbStats):
    """Check a run_figure2 call: warm-start fits, chains and the manifest."""
    def check(manifest, hooks):
        reps = [rep for rung in manifest["rungs"] for rep in rung["replicates"]]
        ok = []
        for k, rep in enumerate(reps):
            good = all(math.isfinite(rep[key]) for key in ("acceptance_rate", "alpha_mean", "alpha_mode"))
            good &= k < len(hooks.fits) and fit_ok(*hooks.fits[k])
            good &= k < len(hooks.chains) and chain_ok(hooks.chains[k][2])
            ok.append(bool(good))
        stats.add(hooks)
        digest, size = _digest_files(cfg.output_dir, ["fig2_manifest.json", *manifest["files"]])
        return ok, digest, size
    return check


def _config(seed: int, out_dir: str, **fields) -> ExperimentConfig:
    # built the way the command line builds it: a JSON-like dict through from_dict
    d = {"model": {"kind": "volterra", "p": 1.0}, "truth": {"kind": "paper_example"},
         "seed": seed, "output_dir": out_dir, "hyper": {"kind": "exponential", "rate": 1.0}}
    d.update(fields)
    return ExperimentConfig.from_dict(d)


class EbLadder:
    name = "eb_ladder"
    min_passes = 2
    # The middle rung sets op_s_p50, so it is one whose ops take about 0.1 s,
    # not milliseconds; 36 op runs put op_s_tail (p72) among the cap rung's.
    LADDER = [1e3, 1e12, 1e15]  # N = 10, 1e4, 1e5 (the cap)
    # Several replicates per rung, as in real studies: replicate 0 also pays
    # the rung's syntheses and CSV writes, the others only simulate and fit.
    REPLICATES = 3
    ops_per_pass = 2 * len(LADDER) * REPLICATES

    def __init__(self, seed: int, out_dir: str):
        self.cfg = _config(seed, out_dir, n_ladder=self.LADDER, replicates=self.REPLICATES, mode="eb")
        self.hb = None

    def calls(self) -> list[Call]:
        ops = len(self.LADDER) * self.REPLICATES
        return [Call(lambda: experiments.run_figure1(self.cfg), ops, self._check_fig1),
                Call(lambda: experiments.run_rate_sweep(self.cfg, 1.0), ops,
                     self._check_rate)]

    def _check_fig1(self, manifest, hooks):
        alphas = [a for rung in manifest["rungs"] for a in rung["alpha_hat"]]
        ok = [k < len(hooks.fits) and hooks.fits[k][1].alpha_hat == a and fit_ok(*hooks.fits[k])
              for k, a in enumerate(alphas)]
        digest, size = _digest_files(self.cfg.output_dir, ["fig1_manifest.json", *manifest["files"]])
        return ok, digest, size

    def _check_rate(self, manifest, hooks):
        ok = []
        slope_ok = math.isfinite(manifest["fitted_slope"])
        for rung, row in enumerate(manifest["rows"]):
            row_ok = slope_ok and all(math.isfinite(row[k]) and row[k] > 0.0
                                      for k in ("mean_sq_error", "mean_posterior_risk"))
            for r in range(self.REPLICATES):
                k = rung * self.REPLICATES + r
                ok.append(row_ok and k < len(hooks.fits) and fit_ok(*hooks.fits[k]))
        digest, size = _digest_files(self.cfg.output_dir, ["rate_manifest.json", *manifest["files"]])
        return ok, digest, size


class HbLadder:
    name = "hb_ladder"
    # A chain's CPU time swung up to 2x between repetitions on a shared VM,
    # so the ladder is kept short and repeated more often.  With 12 runs of
    # the top rung, op_s_tail (p72 of 36 op runs) falls among them.
    min_passes = 4
    LADDER = [1e3, 1e7, 1e11]  # J = N = 10, 215, 4642
    REPLICATES = 3
    ops_per_pass = len(LADDER) * REPLICATES

    def __init__(self, seed: int, out_dir: str):
        self.cfg = _config(seed, out_dir, n_ladder=self.LADDER, replicates=self.REPLICATES,
                           mode="hb", hb_iterations=4000, hb_burn_in=1000)
        self.hb = HbStats()

    def calls(self) -> list[Call]:
        return [Call(lambda: experiments.run_figure2(self.cfg), self.ops_per_pass,
                     _hb_call_check(self.cfg, self.hb))]


class HbTiny:
    name = "hb_tiny"
    min_passes = 6
    CHAINS = 4  # ops per pass; op k runs one chain at seed + k

    ops_per_pass = CHAINS

    def __init__(self, seed: int, out_dir: str):
        self.cfgs = [_config(seed + k, out_dir, n_ladder=[10.0], replicates=1, mode="hb",
                             hb_iterations=10_000, hb_burn_in=1000) for k in range(self.CHAINS)]
        self.hb = HbStats()

    def calls(self) -> list[Call]:
        return [Call(lambda cfg=cfg: experiments.run_figure2(cfg), 1,
                     _hb_call_check(cfg, self.hb))
                for cfg in self.cfgs]


class Diagnostic:
    name = "diagnostic"
    min_passes = 2
    # (truth, n, the upper_status the truth implies).  The analytic truth's
    # diagnostic stays below L*(log n)^2 up to the scan cap at n = 1e6.
    # Below the cap call, n stops at 1e11 (N = 4642), which keeps a pass
    # short enough to repeat.
    CASES = ([("paper", 10.0 ** e, "crossed") for e in (6, 8, 10, 11)]
             + [("power:1", 10.0 ** e, "crossed") for e in (6, 8, 10, 11)]
             + [("analytic:1", 1e6, "no-crossing-below-cap")]
             + [("analytic:1", 10.0 ** e, "crossed") for e in (8, 10, 11)]
             + [("paper", 1e15, "crossed")])  # N = 1e5, the cap
    ops_per_pass = len(CASES)

    def __init__(self, seed: int, out_dir: str):
        self.model = cli.parse_model("volterra")
        order = np.random.default_rng(seed).permutation(len(self.CASES))
        self.cases = []
        for k in order:
            truth, n, status = self.CASES[k]
            mu = cli.parse_truth(truth).coefficients(default_truncation(n, self.model.p))
            self.cases.append((n, status, mu))
        self.hb = None
        self.points_scanned = 0

    def calls(self) -> list[Call]:
        return [Call(lambda mu=mu, n=n: theory.bracket(mu, self.model, n), 1, self._checker(status))
                for n, status, mu in self.cases]

    def _checker(self, status: str):
        def check(report, hooks):
            values = [report.alpha_lower, report.lower_threshold, report.upper_threshold, report.scan_cap]
            ok = (all(math.isfinite(v) for v in values)
                  and report.alpha_lower <= report.alpha_upper
                  and report.upper_status == status
                  and (status != "crossed" or report.alpha_upper <= report.scan_cap)
                  and bool(np.all(np.isfinite(report.curve_values))))
            self.points_scanned += scanned_points(report)
            h = hashlib.sha256(report.to_json().encode())
            h.update(report.curve_alphas.tobytes() + report.curve_values.tobytes())
            return [bool(ok)], h.hexdigest(), 0
        return check


def scanned_points(report) -> int:
    """Alpha grid points bracket() evaluated, recovered from its report.

    The scan runs in chunks of 512 points and keeps every step-th point for
    the curve (step <= points/1024), so the last kept point lies in the last
    chunk scanned.
    """
    step, chunk = theory.SCAN_STEP, 512
    total = np.arange(step, max(report.scan_cap, math.sqrt(math.log(report.n))) + step, step).size
    last = int(round(float(report.curve_alphas[-1]) / step))
    return int(min(math.ceil(last / chunk) * chunk, total))


WORKLOADS = {w.name: w for w in (EbLadder, HbLadder, HbTiny, Diagnostic)}
