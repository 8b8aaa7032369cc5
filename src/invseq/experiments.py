"""Reproducible experiment drivers behind the command line front end.

Each driver is a rung body inside one shared rung loop: the loop walks
a ladder of noise levels and hands each rung's body the rung's replicate
observations, simulated lazily as the body draws them.  The body runs
the requested inference and writes plain CSV/JSON outputs into an output
directory, and the loop finishes with a manifest that pins the
configuration hash, the derived per-replicate seeds and the headline
numbers.  `run_figure1` and `run_rate_sweep` draw the replicates in
groups that share one likelihood scan (`empirical_bayes.scans`) and fit
each replicate on its own from there; `run_figure2` takes them one at a
time, each simulated just before its fit and chain.  Reruns with the
same config produce byte-identical files; replicates are independent by
construction (seed = base seed + replicate index), and a shared scan
gives each the bits of a scan of its own, so they could be farmed out
without changing any result.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .empirical_bayes import eb_posterior, fit, scans
from .errors import ConfigError
from .gaussian_posterior import posterior_mean_function, posterior_risk
from .hierarchical_bayes import HbConfig, HyperPrior, run_mwg
from .sequence_model import (ModelSpec, TruthSpec, _coefficients, fields_dict, read_fields,
                             simulate, synthesize_function, truncation)

GRID_POINTS = 512
CURVE_GRID = np.linspace(0.0, 1.0, GRID_POINTS)


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    truth: TruthSpec
    n_ladder: tuple[float, ...] = (1e3, 1e5, 1e7, 1e9, 1e11)
    replicates: int = 1
    seed: int = 0
    N: int | None = None  # None: ceil(n^(1/(1+2p))) per rung, capped
    output_dir: str = "."
    hyper: HyperPrior = HyperPrior(kind="exponential")
    hb_iterations: int = 2000
    hb_burn_in: int | None = None

    def __post_init__(self):
        if not self.n_ladder:
            raise ConfigError("n_ladder must not be empty")
        if not all(1 < n < math.inf for n in self.n_ladder):
            raise ConfigError("every rung needs a finite n > 1")
        if any(b >= a for a, b in zip(self.n_ladder[1:], self.n_ladder)):
            raise ConfigError("n_ladder must be strictly increasing")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        # the sampler settings are checked here, before any driver creates output_dir
        HbConfig(iterations=self.hb_iterations, burn_in=self.hb_burn_in, seed=self.seed)
        # N and the kappa table are checked at the top rung, which needs the most coordinates
        truncation(self.n_ladder[-1], self.model, self.N)

    def to_dict(self) -> dict:
        # manifests have always recorded N and hb_burn_in, as null when unset
        return {"N": None, "hb_burn_in": None, **fields_dict(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return read_fields(cls, d)

    def config_sha256(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def write_csv(path, columns: dict) -> None:
    """A header row of the column names, then one row per index: each value as repr(float(v)).

    The header is written by `csv.writer`, so a name that needs quoting is
    quoted; the values are float reprs, which never need it.  Every line
    ends in CRLF.  Each column is converted once to a 1-D float64 array;
    a column that is not 1-D, or columns of unequal length, are a
    ValueError raised before the file is opened, so no byte is written.
    """
    cols = [np.asarray(c, dtype=float) for c in columns.values()]
    if any(c.ndim != 1 for c in cols):
        raise ValueError("every column must be 1-D")
    if len({c.size for c in cols}) > 1:
        raise ValueError("columns differ in length: " + ", ".join(str(c.size) for c in cols))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(columns)
        reprs = [map(repr, c.tolist()) for c in cols]
        body = "\r\n".join(map(",".join, zip(*reprs)))
        if body:
            fh.write(body)
            fh.write("\r\n")


def write_json(path, obj) -> None:
    """obj as JSON with sorted keys and an indent of one."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)


def rung_tag(n: float) -> str:
    """n in the shortest mantissa-exponent form that reads back as n: 1e3, 1.5e3, 2.125e11."""
    s = next(s for s in (f"{n:.{d}e}" for d in range(17)) if float(s) == n)
    return s.replace("e+0", "e").replace("e+", "e").replace("e-0", "e-")


@dataclass(frozen=True)
class _Rung:
    n: float
    N: int
    tag: str
    mu0: np.ndarray
    true_f: np.ndarray | None  # the truth on CURVE_GRID, for drivers that draw curves


class _Ladder:
    """The rung loop the drivers share, and the files it writes."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.files: list[str] = []

    def run(self, body: Callable, curves: bool) -> list[tuple[_Rung, list]]:
        """Per rung, body(rung, observations): the list of its replicates' results.

        observations is an iterator that simulates replicate r at seed + r
        only when the body asks for it.  With curves, the truth is
        synthesized on CURVE_GRID once per rung, before the rung's first
        simulation.  Returns each rung with what its body returned.
        """
        cfg = self.cfg
        os.makedirs(cfg.output_dir, exist_ok=True)
        out = []
        for n in cfg.n_ladder:
            N = truncation(n, cfg.model, cfg.N)
            mu0 = _coefficients(cfg.truth, N)
            true_f = synthesize_function(mu0, CURVE_GRID) if curves else None
            rung = _Rung(n, N, rung_tag(n), mu0, true_f)
            observations = (simulate(cfg.truth, cfg.model, n, N, cfg.seed + r)
                            for r in range(cfg.replicates))
            out.append((rung, body(rung, observations)))
        return out

    def output(self, name: str) -> str:
        """Path of an output file, listed in the manifest."""
        self.files.append(name)
        return os.path.join(self.cfg.output_dir, name)

    def write_manifest(self, prefix: str, **fields) -> dict:
        manifest = {"config": self.cfg.to_dict(), "config_sha256": self.cfg.config_sha256(),
                    "version": __version__, "files": self.files, **fields}
        write_json(os.path.join(self.cfg.output_dir, f"{prefix}_manifest.json"), manifest)
        return manifest


def _shared_scan(replicate: Callable) -> Callable:
    """A rung body that runs replicate(rung, r, obs, scan) on each replicate's `scans` item."""
    return lambda rung, observations: [replicate(rung, r, obs, scan)
                                       for r, (obs, scan) in enumerate(scans(observations))]


def run_figure1(cfg: ExperimentConfig) -> dict:
    """Empirical Bayes reconstructions across the ladder.

    Per rung: a 512-point curve CSV (truth vs plug-in posterior mean,
    replicate 0) and the normalized likelihood curve; every replicate's
    alpha_hat lands in the manifest.
    """
    ladder = _Ladder(cfg)

    def replicate(rung, r, obs, scan):
        eb = fit(obs, scan)
        if r == 0:
            mean_f = posterior_mean_function(eb_posterior(obs, eb), CURVE_GRID)
            write_csv(ladder.output(f"fig1_{rung.tag}_curve.csv"),
                      {"t": CURVE_GRID, "true_f": rung.true_f, "eb_mean_f": mean_f})
            write_csv(ladder.output(f"fig1_{rung.tag}_likelihood.csv"), eb.curve.columns())
        return eb.alpha_hat

    seeds = [cfg.seed + r for r in range(cfg.replicates)]
    rungs = [{"n": rung.n, "N": rung.N, "seeds": seeds, "alpha_hat": alpha_hats}
             for rung, alpha_hats in ladder.run(_shared_scan(replicate), curves=True)]
    return ladder.write_manifest("fig1", grid_points=GRID_POINTS, rungs=rungs)


def run_figure2(cfg: ExperimentConfig) -> dict:
    """Hierarchical Bayes across the ladder.

    Per rung (replicate 0): CSV of post-burn-in alpha draws, a JSON chain
    summary and the posterior-mean curve.  The alpha chain is warm-started
    at the plug-in estimate of the same observation, which costs one grid
    scan and removes any visible burn-in transient at the larger rungs.
    """
    ladder = _Ladder(cfg)

    def replicate(rung, r, obs):
        warm = max(fit(obs).alpha_hat, 1e-3)
        hb_cfg = HbConfig(iterations=cfg.hb_iterations, burn_in=cfg.hb_burn_in,
                          seed=obs.seed, alpha_init=warm)
        chain = run_mwg(obs, cfg.hyper, hb_cfg)
        summary = chain.summary()
        if r == 0:
            write_csv(ladder.output(f"fig2_{rung.tag}_alpha.csv"), {"alpha": chain.alphas})
            write_json(ladder.output(f"fig2_{rung.tag}_summary.json"), summary)
            mean_f = synthesize_function(chain.mu_mean, CURVE_GRID)
            write_csv(ladder.output(f"fig2_{rung.tag}_curve.csv"),
                      {"t": CURVE_GRID, "true_f": rung.true_f, "hb_mean_f": mean_f})
        return {"seed": obs.seed, "acceptance_rate": summary["acceptance_rate"],
                "alpha_mean": summary["alpha_mean"], "alpha_mode": summary["alpha_mode"]}

    def body(rung, observations):  # each replicate simulated just before its fit and chain
        return [replicate(rung, r, obs) for r, obs in enumerate(observations)]

    rungs = [{"n": rung.n, "N": rung.N, "replicates": reps}
             for rung, reps in ladder.run(body, curves=True)]
    return ladder.write_manifest("fig2", grid_points=GRID_POINTS, rungs=rungs)


def run_rate_sweep(cfg: ExperimentConfig, beta: float) -> dict:
    """Plug-in squared error against the ladder, with the log-log slope.

    Requires at least three rungs and a truth of known regularity
    (power_law of the given beta, or the running example whose effective
    beta is 1).
    """
    if len(cfg.n_ladder) < 3:
        raise ConfigError("rate sweep needs at least 3 rungs")
    if cfg.truth.kind == "power_law":
        if not math.isclose(cfg.truth.beta, beta):
            raise ConfigError("beta does not match the power_law truth")
    elif cfg.truth.kind == "paper_example":
        if not math.isclose(beta, 1.0):
            raise ConfigError("the running-example truth has effective beta = 1")
    else:
        raise ConfigError("rate sweep needs a power_law or paper_example truth")

    ladder = _Ladder(cfg)

    def replicate(rung, r, obs, scan):
        post = eb_posterior(obs, fit(obs, scan))
        return float(np.sum((post.means - rung.mu0) ** 2)), posterior_risk(post, rung.mu0)

    rows = []
    for rung, errs in ladder.run(_shared_scan(replicate), curves=False):
        sq_errs, risks = zip(*errs)
        rows.append({"n": rung.n, "N": rung.N,
                     "mean_sq_error": float(np.mean(sq_errs)),
                     "mean_posterior_risk": float(np.mean(risks))})

    columns = {key: [row[key] for row in rows]
               for key in ("n", "mean_sq_error", "mean_posterior_risk")}
    write_csv(ladder.output("rate_sweep.csv"), columns)

    log_n = np.log(columns["n"])
    log_err = np.log(columns["mean_sq_error"])
    slope = float(np.polyfit(log_n, log_err, 1)[0])
    theoretical = -2.0 * beta / (1.0 + 2.0 * beta + 2.0 * cfg.model.p)
    return ladder.write_manifest("rate", beta=beta, rows=rows, fitted_slope=slope,
                                 theoretical_slope=theoretical)
