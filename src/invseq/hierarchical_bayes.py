"""Hierarchical Bayes: a hyperprior on alpha, sampled with mu integrated out.

The marginal posterior of alpha is lambda(alpha) * exp(ell(alpha)), where
ell is the marginal likelihood of all N observed coordinates, the function
empirical Bayes maximizes.  Each sweep moves alpha by a random-walk
Metropolis step on that density, so each kept alpha is a draw from its
exact marginal (van Dyk & Park 2008).  Given alpha, mu_1..mu_N are
conjugate, so the chain reports their posterior moments as the mixture of
the conjugate posteriors at its kept alphas (Rao-Blackwellised, Gelfand &
Smith 1990) and never draws mu: `gaussian_posterior.mixture` over the
distinct kept alphas, each weighted by its count.
Proposals are normal steps truncated to (0, inf), so the acceptance ratio
carries the Phi(alpha/sd)/Phi(alpha'/sd) correction that keeps the kernel
reversible.  log Phi comes from the standard library's complementary error
function: log1p(-erfc(x/sqrt 2)/2) for x >= 0, which is every call the
sampler makes, and log(erfc(-x/sqrt 2)/2) below 0.  The step is
sd = 2.4/sqrt(I + 1), where I is the Fisher information of ell at the
start point; the +1 keeps the step finite where ell is flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical_bayes import Loglik
from .errors import ConfigError, NumericalError
from .gaussian_posterior import mixture
from .sequence_model import Observation

MODE_BIN_WIDTH = 0.25
SQRT2 = math.sqrt(2.0)


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
        for name in ("shape", "rate", "scale", "alpha_star"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise ConfigError(f"hyperprior {name} must be positive and finite, got {v}")

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


@dataclass(frozen=True)
class HbConfig:
    """Sampler settings.  alpha_init of None means "pick a default".

    The chain always covers every coordinate of the observation it runs on.
    """

    iterations: int
    burn_in: int | None = None
    seed: int = 0
    alpha_init: float | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("need at least one iteration")
        if not 0 <= self.resolved_burn_in() < self.iterations:
            raise ConfigError("burn_in must be in [0, iterations)")
        if self.alpha_init is not None and not 0.0 < self.alpha_init < math.inf:
            raise ConfigError(f"alpha_init must be positive and finite, got {self.alpha_init}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def resolved_burn_in(self) -> int:
        return self.iterations // 10 if self.burn_in is None else self.burn_in


@dataclass(frozen=True)
class HbChain:
    """Post-burn-in output of one sampler run.

    alphas holds the kept draws of alpha; mu_mean and mu_var are the
    posterior moments of mu under the mixture of the conjugate posteriors
    at those alphas (`gaussian_posterior.mixture`), each distinct alpha
    weighted by how many kept sweeps it held.
    """

    alphas: np.ndarray
    acceptance_rate: float
    mu_mean: np.ndarray
    mu_var: np.ndarray
    config: HbConfig
    proposal_sd: float

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
            "proposal_sd": self.proposal_sd,
        }


def mh_log_acceptance(alpha: float, alpha_prime: float, target: float,
                      target_prime: float, proposal_sd: float) -> float:
    """Log acceptance probability (uncapped) of the truncated-normal step alpha -> alpha'.

    target and target_prime are log lambda + ell at alpha and alpha'.
    The normal kernel itself is symmetric and cancels, leaving
    log Phi(a/sd) - log Phi(a'/sd) from the truncation.
    """
    return (target_prime - target
            + _log_ndtr(alpha / proposal_sd) - _log_ndtr(alpha_prime / proposal_sd))


def _log_ndtr(x: float) -> float:
    """log Phi(x), the log of the standard normal distribution function."""
    if x >= 0.0:
        return math.log1p(-0.5 * math.erfc(x / SQRT2))
    return math.log(0.5 * math.erfc(-x / SQRT2))


def _propose_positive(alpha: float, sd: float, rng) -> float:
    """Normal step truncated to (0, inf), drawn by rejection."""
    while True:
        cand = alpha + sd * rng.standard_normal()
        if cand > 0.0:
            return cand


def _step_size(log_i: np.ndarray, w: np.ndarray) -> float:
    """2.4/sqrt(I + 1), with I = 2 * sum_i (log i * w_i)^2 the Fisher information of ell at w."""
    g = log_i * w
    return 2.4 / math.sqrt(2.0 * float(np.dot(g, g)) + 1.0)


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
    """Run the sampler.

    Runs cfg.iterations sweeps, each a Metropolis step of alpha on its
    marginal posterior, and keeps the alphas past burn-in; the "fixed"
    hyperprior hook pins alpha and runs none.  mu is never drawn: its
    moments are the conjugate mixture over the kept alphas, so under the
    hook they are exactly those of posterior(alpha_star, obs).  With the
    "fixed" hook, an alpha_init other than its alpha is a ConfigError.
    Identical configs reproduce identical chains.
    """
    burn = cfg.resolved_burn_in()
    pinned = hyper.kind == "fixed"
    alpha = cfg.alpha_init if cfg.alpha_init is not None else (
        hyper.alpha_star if pinned else 1.0)
    if pinned and alpha != hyper.alpha_star:
        raise ConfigError(f"alpha_init {alpha} differs from the fixed hyperprior's "
                          f"alpha {hyper.alpha_star}")

    rng = np.random.default_rng(cfg.seed)
    ell = Loglik(obs)
    start = ell(alpha)
    if not math.isfinite(start):
        raise NumericalError(f"log likelihood non-finite at the start point alpha={alpha}")
    # targets and ratios use ell's centred value; the dropped term cancels
    target = hyper.log_density(alpha) + start
    ell.complete()
    sd = _step_size(ell.design.log_i, ell.u * ell.r)
    alphas = np.full(cfg.iterations - burn, alpha)
    accepted = 0

    for it in range(0 if pinned else cfg.iterations):
        cand = _propose_positive(alpha, sd, rng)
        cand_target = hyper.log_density(cand) + ell(cand)
        log_acc = mh_log_acceptance(alpha, cand, target, cand_target, sd)
        if math.isnan(log_acc):
            raise NumericalError(f"iteration {it}: non-finite MH acceptance ratio")
        if math.log(rng.random()) < log_acc:
            alpha, target = cand, cand_target
            accepted += 1
        if it >= burn:
            alphas[it - burn] = alpha

    mu_mean, mu_var = mixture(obs, ell.design, *np.unique(alphas, return_counts=True))
    return HbChain(alphas, accepted / cfg.iterations, mu_mean, mu_var, cfg, sd)
