"""Hierarchical Bayes: a hyperprior on alpha sampled by Metropolis-within-Gibbs.

Each sweep alternates an exact conjugate draw of the first J coordinates
given alpha with a random-walk Metropolis step on alpha given those
coordinates.  The alpha step targets lambda(alpha) * p(mu_J | alpha); the
observation enters only through the conjugate mu draw.  Proposals are
normal steps truncated to (0, inf), so the acceptance ratio carries the
Phi(alpha/sd)/Phi(alpha'/sd) correction that keeps the kernel reversible.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .errors import ConfigError, NumericalError
from .sequence_model import Observation, design, log_index, weight

MODE_BIN_WIDTH = 0.25


@dataclass(frozen=True)
class HyperPrior:
    """Prior density for alpha on (0, inf).

    Kinds: "exponential" (rate), "gamma" (shape, rate), "inverse_gamma"
    (shape, scale) and "fixed" (point mass; a test hook that pins alpha).
    The first three all have exponentially-or-polynomially decaying tails
    of the envelope form alpha^-c3 * exp(-c2*alpha) required for the
    adaptation guarantees.
    """

    kind: str
    shape: float = 1.0
    rate: float = 1.0
    scale: float = 1.0
    alpha_star: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exponential", "gamma", "inverse_gamma", "fixed"):
            raise ConfigError(f"unknown hyperprior kind {self.kind!r}")
        if min(self.shape, self.rate, self.scale) <= 0:
            raise ConfigError("hyperprior parameters must be positive")
        if self.kind == "fixed" and self.alpha_star <= 0:
            raise ConfigError("pinned alpha must be positive")

    @classmethod
    def exponential(cls, rate: float = 1.0) -> "HyperPrior":
        return cls(kind="exponential", rate=float(rate))

    @classmethod
    def gamma(cls, shape: float, rate: float) -> "HyperPrior":
        return cls(kind="gamma", shape=float(shape), rate=float(rate))

    @classmethod
    def inverse_gamma(cls, shape: float, scale: float) -> "HyperPrior":
        return cls(kind="inverse_gamma", shape=float(shape), scale=float(scale))

    @classmethod
    def fixed(cls, alpha_star: float) -> "HyperPrior":
        return cls(kind="fixed", alpha_star=float(alpha_star))

    def log_density(self, alpha: float) -> float:
        if alpha <= 0:
            return -math.inf
        if self.kind == "exponential":
            return math.log(self.rate) - self.rate * alpha
        if self.kind == "gamma":
            return (self.shape * math.log(self.rate) - math.lgamma(self.shape)
                    + (self.shape - 1.0) * math.log(alpha) - self.rate * alpha)
        if self.kind == "inverse_gamma":
            return (self.shape * math.log(self.scale) - math.lgamma(self.shape)
                    - (self.shape + 1.0) * math.log(alpha) - self.scale / alpha)
        return 0.0 if alpha == self.alpha_star else -math.inf

    def to_dict(self) -> dict:
        return {"kind": self.kind, "shape": self.shape, "rate": self.rate,
                "scale": self.scale, "alpha_star": self.alpha_star}

    @classmethod
    def from_dict(cls, d: dict) -> "HyperPrior":
        return cls(kind=d["kind"], shape=float(d.get("shape", 1.0)),
                   rate=float(d.get("rate", 1.0)), scale=float(d.get("scale", 1.0)),
                   alpha_star=float(d.get("alpha_star", 1.0)))


@dataclass(frozen=True)
class HbConfig:
    """Sampler settings.  proposal_sd/alpha_init of None mean "pick a default"."""

    J: int
    iterations: int
    burn_in: int | None = None
    proposal_sd: float | None = None
    seed: int = 0
    thin: int = 100
    alpha_init: float | None = None

    def resolved_burn_in(self) -> int:
        return self.iterations // 10 if self.burn_in is None else self.burn_in


@dataclass(frozen=True)
class HbChain:
    """Post-burn-in output of one Metropolis-within-Gibbs run."""

    alphas: np.ndarray
    acceptance_rate: float
    mu_mean: np.ndarray
    mu_var: np.ndarray
    mu_draws: np.ndarray
    config: HbConfig
    proposal_sd: float

    @property
    def mu_second_moment(self) -> np.ndarray:
        return self.mu_var + self.mu_mean**2

    def summary(self) -> dict:
        q = np.quantile(self.alphas, [0.025, 0.5, 0.975])
        return {
            "acceptance_rate": self.acceptance_rate,
            "alpha_mean": float(np.mean(self.alphas)),
            "alpha_quantiles": [float(v) for v in q],
            "alpha_mode": histogram_mode(self.alphas),
            "mu_mean": [float(v) for v in self.mu_mean],
            "mu_var": [float(v) for v in self.mu_var],
            "burn_in": self.config.resolved_burn_in(),
            "thin": self.config.thin,
            "proposal_sd": self.proposal_sd,
        }

    def write_alpha_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["alpha"])
            for a in self.alphas:
                w.writerow([repr(float(a))])

    def write_summary_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, sort_keys=True, indent=1)


def log_conditional_mu_density(mu: np.ndarray, alpha: float) -> float:
    """log p(mu_1..mu_J | alpha) up to an additive constant free of alpha.

    sum_j [(1/2 + alpha)*log j - j^(1+2*alpha)*mu_j^2/2].  The quadratic
    part is summed in log space so that a huge j^(1+2*alpha) returns -inf
    instead of overflowing, and zero coordinates contribute nothing.
    """
    mu = np.asarray(mu, dtype=float)
    if alpha <= 0:
        return -math.inf
    log_j = log_index(mu.size)
    first = (0.5 + alpha) * float(np.sum(log_j))
    nz = mu != 0.0
    if not np.any(nz):
        return first
    s = (1.0 + 2.0 * alpha) * log_j[nz] + 2.0 * np.log(np.abs(mu[nz]))
    m = float(np.max(s))
    if m > 700.0:
        return -math.inf
    return first - 0.5 * float(np.sum(np.exp(s)))


def mh_log_acceptance(alpha: float, alpha_prime: float, mu: np.ndarray,
                      hyper: HyperPrior, proposal_sd: float) -> float:
    """Log acceptance probability (uncapped) of the truncated-normal MH step.

    log lambda(a') - log lambda(a) + log p(mu|a') - log p(mu|a)
    + log Phi(a/sd) - log Phi(a'/sd); the normal kernel itself is
    symmetric and cancels.
    """
    if alpha <= 0 or alpha_prime <= 0:
        return -math.inf
    return (hyper.log_density(alpha_prime) - hyper.log_density(alpha)
            + log_conditional_mu_density(mu, alpha_prime)
            - log_conditional_mu_density(mu, alpha)
            + float(log_ndtr(alpha / proposal_sd))
            - float(log_ndtr(alpha_prime / proposal_sd)))


def _propose_positive(alpha: float, sd: float, rng) -> float:
    """Normal step truncated to (0, inf), drawn by rejection."""
    while True:
        cand = alpha + sd * rng.standard_normal()
        if cand > 0.0:
            return cand


def mh_alpha_step(alpha: float, mu: np.ndarray, hyper: HyperPrior,
                  proposal_sd: float, rng) -> tuple[float, bool]:
    """One Metropolis step on alpha given the current coordinates."""
    if proposal_sd <= 0:
        raise ConfigError("proposal_sd must be positive")
    cand = _propose_positive(alpha, proposal_sd, rng)
    log_acc = mh_log_acceptance(alpha, cand, mu, hyper, proposal_sd)
    if math.isnan(log_acc):
        raise NumericalError("non-finite MH acceptance ratio")
    if math.log(rng.random()) < log_acc:
        return cand, True
    return alpha, False


def default_proposal_sd(n: float, J: int) -> float:
    """Step size for the alpha walk.

    The base rule 0.3*(1 or loglog n) suits small J; the conditional
    density of alpha given J coordinates has curvature of order
    2*sum_j log(j)^2, so the step is capped near that scale or the
    chain stalls when J runs into the thousands.
    """
    logn = math.log(n)
    base = 0.3 if logn <= 1.0 else 0.3 * max(1.0, math.log(logn))
    curv = 2.0 * float(np.sum(log_index(J)**2))
    if curv <= 0.0:
        return base
    return min(base, 2.4 / math.sqrt(curv))


def histogram_mode(draws: np.ndarray) -> float:
    """Midpoint of the fullest of the bins [k/4, (k+1)/4), k = 0, 1, ..., reaching past every draw.

    Ties go to the lowest bin.
    """
    draws = np.asarray(draws, dtype=float)
    bins = math.floor(float(np.max(draws)) / MODE_BIN_WIDTH) + 1
    counts, edges = np.histogram(draws, bins=bins, range=(0.0, bins * MODE_BIN_WIDTH))
    k = int(np.argmax(counts))
    return float(0.5 * (edges[k] + edges[k + 1]))


def run_mwg(obs: Observation, hyper: HyperPrior, cfg: HbConfig) -> HbChain:
    """Run the Metropolis-within-Gibbs sampler.

    Runs cfg.iterations sweeps; each sweep draws mu_1..mu_J exactly from
    the conjugate conditional, then moves alpha (skipped for the "fixed"
    hyperprior hook).  Identical configs reproduce identical chains.
    """
    J = cfg.J
    if J < 1 or J > obs.N:
        raise ConfigError("need 1 <= J <= N")
    if cfg.iterations < 1:
        raise ConfigError("need at least one iteration")
    burn = cfg.resolved_burn_in()
    if not 0 <= burn < cfg.iterations:
        raise ConfigError("burn_in must be in [0, iterations)")
    if cfg.thin < 1:
        raise ConfigError("thin must be >= 1")

    sd = cfg.proposal_sd if cfg.proposal_sd is not None else default_proposal_sd(obs.n, J)
    if sd <= 0:
        raise ConfigError("proposal_sd must be positive")
    pinned = hyper.kind == "fixed"
    alpha = cfg.alpha_init if cfg.alpha_init is not None else (
        hyper.alpha_star if pinned else 1.0)
    if alpha <= 0:
        raise ConfigError("alpha_init must be positive")

    rng = np.random.default_rng(cfg.seed)
    d = design(obs.model, obs.n, J)
    y_over_k = obs.y[:J] / d.kappa
    inv_nk2 = 1.0 / (obs.n * d.kappa**2)

    kept = cfg.iterations - burn
    alphas = np.empty(kept)
    # moments are accumulated about the first kept draw: at large n the draws
    # spread far less than their size, and raw sums of mu^2 would cancel
    mu_sum = np.zeros(J)
    dev_sq_sum = np.zeros(J)
    thinned: list[np.ndarray] = []
    accepted = 0
    proposed = 0

    for it in range(cfg.iterations):
        # exact conjugate mu draw at the current alpha (see gaussian_posterior)
        w = weight(d.log_odds(alpha))
        mu = w * y_over_k + np.sqrt(w * inv_nk2) * rng.standard_normal(J)

        if not pinned:
            proposed += 1
            try:
                alpha, ok = mh_alpha_step(alpha, mu, hyper, sd, rng)
            except NumericalError as err:
                raise NumericalError(f"iteration {it}: {err}") from err
            accepted += int(ok)

        if it >= burn:
            k = it - burn
            alphas[k] = alpha
            if k == 0:
                ref = mu
            mu_sum += mu
            dev = mu - ref
            dev *= dev
            dev_sq_sum += dev
            if k % cfg.thin == 0:
                thinned.append(mu)

    mu_mean = mu_sum / kept
    return HbChain(
        alphas=alphas,
        acceptance_rate=accepted / proposed if proposed else 0.0,
        mu_mean=mu_mean,
        mu_var=np.maximum(dev_sq_sum / kept - (mu_mean - ref)**2, 0.0),
        mu_draws=np.array(thinned),
        config=cfg,
        proposal_sd=float(sd),
    )
