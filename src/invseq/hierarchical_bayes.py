"""Hierarchical Bayes: a hyperprior on alpha, sampled with mu integrated out.

The marginal posterior of alpha is pi(alpha) = lambda(alpha) * exp(ell(alpha)),
where ell is the marginal likelihood of all N observed coordinates, the
function empirical Bayes maximizes.  The chain walks pi by independence
Metropolis-Hastings (Tierney 1994) on (0, ALPHA_MAX].  Its proposal q
comes from a grid: a scan of log(alpha * pi), the density of log alpha,
finds the window where it is within WINDOW of its peak, extending to the
right as far as it must; GRID_CELLS cells, equal in log(alpha +
CELL_SHIFT), cover the window, and cell g carries the mass p_g of pi over
it by a one-point rule that integrates a gamma prior's power of alpha
exactly.  q spreads (1 - PRIOR_SHARE) of its mass evenly inside the cells
by those masses and draws the rest from lambda itself, a defensive
mixture (Hesterberg 1995), so q > 0 wherever pi > 0 and the ratio
pi(a') q(a) / (pi(a) q(a')) keeps the chain exact whatever the grid.
Proposals do not depend on the state, so CHUNK of them are drawn at a
time and `Loglik.column` fills their targets in alpha-column blocks; the
accept loop then only compares the precomputed log weights log pi - log q.

Given alpha, mu_1..mu_N are conjugate, so the chain never draws mu.  Its
moments are the grid's quadrature of the exact posterior:
`gaussian_posterior.mixture` of the conjugate posteriors at the cells'
nodes, weighted by p_g.
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
# where log(alpha * pi) is first scanned for the grid window: 5 points a decade up to 0.1, then 0.1 apart
SCAN_ALPHAS = np.concatenate([np.geomspace(1e-12, 0.1, 56)[:-1], np.linspace(0.1, 40.0, 400)])
ALPHA_MAX = 1e30  # the chain's target is pi on (0, ALPHA_MAX]; the window must close below it
WINDOW = 40.0  # the window keeps the scan points within this of the scan's peak
GRID_CELLS = 256  # cells of the proposal grid
CELL_SHIFT = 0.1  # cells are equal in log(alpha + CELL_SHIFT): even near 0, geometric past it
PRIOR_SHARE = 0.05  # the proposal's share drawn from the hyperprior
CHUNK = 1024  # proposals drawn, evaluated and accepted at a time


@dataclass(frozen=True)
class HyperPrior:
    """Prior density for alpha on (0, inf).

    Kinds: "exponential" (rate), "gamma" (shape, rate) and "inverse_gamma"
    (shape, scale).  All three have exponentially-or-polynomially decaying
    tails of the envelope form alpha^-c3 * exp(-c2*alpha) required for the
    adaptation guarantees.  The posterior at one fixed alpha is
    `gaussian_posterior.posterior`.
    """

    kind: str
    shape: float = 1.0
    rate: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exponential", "gamma", "inverse_gamma"):
            raise ConfigError(f"unknown hyperprior kind {self.kind!r}")
        for name in ("shape", "rate", "scale"):
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

    def log_density(self, alpha):
        """log lambda at a scalar alpha (a float) or elementwise on an array; -inf at alpha <= 0."""
        a = np.asarray(alpha, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):  # alpha <= 0 is masked below
            if self.kind == "exponential":
                v = math.log(self.rate) - self.rate * a
            elif self.kind == "gamma":
                v = (self.shape * math.log(self.rate) - math.lgamma(self.shape)
                     + (self.shape - 1.0) * np.log(a) - self.rate * a)
            else:
                v = (self.shape * math.log(self.scale) - math.lgamma(self.shape)
                     - (self.shape + 1.0) * np.log(a) - self.scale / a)
        v = np.where(a > 0, v, -math.inf)
        return v if v.ndim else float(v)

    def draw(self, rng, size: int) -> np.ndarray:
        """size independent draws of alpha."""
        if self.kind == "exponential":
            return rng.exponential(1.0 / self.rate, size)
        if self.kind == "gamma":
            return rng.gamma(self.shape, 1.0 / self.rate, size)
        with np.errstate(divide="ignore", over="ignore"):  # a gamma draw near 0 gives inf
            return self.scale / rng.gamma(self.shape, 1.0, size)


@dataclass(frozen=True)
class HbConfig:
    """Sampler settings.  alpha_init of None starts the chain at alpha = 1.

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
class Proposal:
    """The independence proposal: the grid density mixed with the hyperprior.

    edges are the GRID_CELLS + 1 edges of the window's cells, nodes the
    cells' quadrature nodes and masses their p_g, summing to 1.  The
    density is q(a) = (1 - PRIOR_SHARE) * p_g / (cell g's width) +
    PRIOR_SHARE * lambda(a) for a in cell g, and PRIOR_SHARE * lambda(a)
    outside the window.
    """

    hyper: HyperPrior
    edges: np.ndarray
    nodes: np.ndarray
    masses: np.ndarray

    def draw(self, rng, size: int) -> np.ndarray:
        """size independent draws from q."""
        cdf = np.concatenate([[0.0], np.cumsum(self.masses)])
        # the grid part's CDF is linear inside each cell, so interpolation inverts it
        out = np.interp(rng.random(size) * cdf[-1], cdf, self.edges)
        prior = rng.random(size) < PRIOR_SHARE
        out[prior] = self.hyper.draw(rng, int(np.count_nonzero(prior)))
        return out

    def log_density(self, alphas: np.ndarray) -> np.ndarray:
        """log q elementwise."""
        g = np.searchsorted(self.edges, alphas, side="right") - 1
        inside = (g >= 0) & (g < self.masses.size)
        dens = np.zeros(alphas.shape)
        dens[inside] = self.masses[g[inside]] / np.diff(self.edges)[g[inside]]
        with np.errstate(divide="ignore"):  # log 0 outside the window
            return np.logaddexp(math.log1p(-PRIOR_SHARE) + np.log(dens),
                                math.log(PRIOR_SHARE) + self.hyper.log_density(alphas))


def grid_proposal(ell: Loglik, hyper: HyperPrior) -> Proposal:
    """The proposal for the target lambda * exp(ell) (see the module docstring)."""
    lo, hi = _window(ell, hyper)
    edges = np.exp(np.linspace(math.log(lo + CELL_SHIFT), math.log(hi + CELL_SHIFT),
                               GRID_CELLS + 1)) - CELL_SHIFT
    edges[[0, -1]] = lo, hi
    nodes, log_w = _cell_rule(hyper, edges)
    lp = log_w + hyper.log_density(nodes) + ell.column(nodes)
    masses = np.exp(lp - lp.max())
    return Proposal(hyper, edges, nodes, masses / masses.sum())


def _window(ell: Loglik, hyper: HyperPrior) -> tuple[float, float]:
    """The interval [lo, hi] outside which log(alpha * pi) is WINDOW below its peak.

    alpha * pi is the density of log alpha, so even a power-law tail like
    the inverse gamma's leaves no mass of note past hi.  The scan starts on
    SCAN_ALPHAS and doubles its right end, 400 points at a time, until its
    last point is out of the window; lo is 0 when its first point is in it.
    A log density still within WINDOW of its peak at ALPHA_MAX is an error.
    """
    def log_alpha_pi(a):
        return np.log(a) + hyper.log_density(a) + ell.column(a)

    scan = SCAN_ALPHAS
    lp = log_alpha_pi(scan)
    while lp[-1] > lp.max() - WINDOW:
        if 2.0 * scan[-1] > ALPHA_MAX:
            raise NumericalError(f"log posterior of alpha still within {WINDOW:g} of its peak "
                                 f"at alpha = {scan[-1]:.3g}: its tail is too heavy for the grid")
        more = np.linspace(scan[-1], 2.0 * scan[-1], 401)[1:]
        scan, lp = np.concatenate([scan, more]), np.concatenate([lp, log_alpha_pi(more)])
    if not np.all(np.isfinite(lp)):
        raise NumericalError("log posterior of alpha non-finite on the grid scan")
    live = np.nonzero(lp > lp.max() - WINDOW)[0]
    return (0.0 if live[0] == 0 else float(scan[live[0] - 1])), float(scan[live[-1] + 1])


def _cell_rule(hyper: HyperPrior, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's quadrature node and log weight for an integrand lambda * exp(ell).

    The rule integrates the factor alpha^k of lambda exactly over the cell
    (k is the gamma kind's shape - 1, else 0) and puts the node at the
    cell's centroid under that factor, so it is exact for alpha^k times a
    linear function, and a gamma prior's singularity at 0 (shape < 1)
    costs it nothing.  The returned log weight is that of alpha^k's
    integral less k log(node), so weight * lambda(node) * exp(ell(node))
    is the cell's share.  With k = 0 the rule is the midpoint rule.
    """
    t = hyper.shape if hyper.kind == "gamma" else 1.0  # k + 1
    e0, e1 = edges[:-1], edges[1:]
    with np.errstate(divide="ignore"):  # log 0 = -inf for a cell starting at 0
        r = np.log(e0 / e1)
    # e1^t - e0^t and e1^(t+1) - e0^(t+1) over e1^t and e1^(t+1), without cancellation
    p, p1 = -np.expm1(t * r), -np.expm1((t + 1.0) * r)
    nodes = e1 * (t / (t + 1.0)) * (p1 / p)
    return nodes, t * np.log(e1) + np.log(p) - math.log(t) - (t - 1.0) * np.log(nodes)


def log_weights(ell: Loglik, hyper: HyperPrior, prop: Proposal, alphas: np.ndarray) -> np.ndarray:
    """log pi - log q at each alpha, with pi taken as lambda * exp(ell's centred value).

    The log acceptance probability of a move a -> a' is w(a') - w(a), that
    is log [pi(a') q(a) / (pi(a) q(a'))]; the dropped term of ell cancels.
    The target is pi on (0, ALPHA_MAX]: elsewhere, as where pi is 0, the
    weight is -inf, so such a proposal (an inverse-gamma draw can overflow
    to inf) is never taken.
    """
    w = np.full(alphas.shape, -math.inf)
    ok = (alphas > 0.0) & (alphas <= ALPHA_MAX)
    a = alphas[ok]
    target = hyper.log_density(a) + ell.column(a)
    with np.errstate(invalid="ignore"):  # -inf - -inf where lambda and q vanish together
        w[ok] = np.where(target == -math.inf, -math.inf, target - prop.log_density(a))
    return w


def effective_sample_size(draws: np.ndarray) -> float:
    """Draws over their integrated autocorrelation time, Geyer's (1992) initial monotone estimate.

    Sums of adjacent pairs of the (biased) autocovariance are taken while
    they stay positive, each capped at its predecessor.  Each lag is one
    dot product, so a well-mixed chain stops after a few lags and no
    transform of the whole chain is held.  A chain that never moves
    carries one effective draw.
    """
    d = np.asarray(draws, dtype=float)
    n = d.size
    d = d - d.mean()
    gamma0 = float(d @ d) / n
    if gamma0 <= 0.0:
        return 1.0
    total, prev = 0.0, math.inf
    for k in range(0, 2 * (n // 2), 2):
        pair = (float(d[:n - k] @ d[k:]) + float(d[:n - k - 1] @ d[k + 1:])) / n
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        total += prev
    tau = (2.0 * total - gamma0) / gamma0
    return n / min(max(tau, 1.0 / n), n)


@dataclass(frozen=True)
class HbChain:
    """Post-burn-in output of one sampler run.

    alphas holds the kept draws of alpha and proposal the grid they were
    proposed from.  mu_mean and mu_var are the posterior moments of mu by
    the grid's quadrature: the mixture of the conjugate posteriors at the
    cells' nodes, weighted by the cells' masses (`gaussian_posterior.mixture`).
    """

    alphas: np.ndarray
    acceptance_rate: float
    mu_mean: np.ndarray
    mu_var: np.ndarray
    config: HbConfig
    proposal: Proposal

    def summary(self) -> dict:
        q = np.quantile(self.alphas, [0.025, 0.5, 0.975])
        prop = self.proposal
        return {
            "acceptance_rate": self.acceptance_rate,
            "alpha_mean": float(np.mean(self.alphas)),
            "alpha_quantiles": [float(v) for v in q],
            "alpha_mode": histogram_mode(self.alphas),
            "alpha_ess": effective_sample_size(self.alphas),
            "mu_mean": self.mu_mean.tolist(),
            "mu_var": self.mu_var.tolist(),
            "burn_in": self.config.resolved_burn_in(),
            "proposal": {"window": [float(prop.edges[0]), float(prop.edges[-1])],
                         "cells": int(prop.masses.size), "prior_share": PRIOR_SHARE},
        }


def histogram_mode(draws: np.ndarray) -> float:
    """Midpoint of the fullest of the bins [k/4, (k+1)/4), k = 0, 1, ..., that hold the draws.

    Ties go to the lowest bin.  Only bins that hold a draw are counted, so
    the cost does not grow with the largest draw.
    """
    bins, counts = np.unique(np.floor(np.asarray(draws, dtype=float) / MODE_BIN_WIDTH),
                             return_counts=True)
    return float((bins[np.argmax(counts)] + 0.5) * MODE_BIN_WIDTH)


def run_mwg(obs: Observation, hyper: HyperPrior, cfg: HbConfig) -> HbChain:
    """Run the sampler.

    Runs cfg.iterations independence Metropolis-Hastings steps of alpha on
    its marginal posterior, from cfg.alpha_init (1 by default), and keeps
    the alphas past burn-in.  mu is never drawn: its moments are the grid
    quadrature of its posterior.  Identical configs reproduce identical
    chains.
    """
    alpha = 1.0 if cfg.alpha_init is None else cfg.alpha_init
    ell = Loglik(obs)
    prop = grid_proposal(ell, hyper)
    current = float(log_weights(ell, hyper, prop, np.array([alpha]))[0])
    if not math.isfinite(current):
        raise NumericalError(f"log posterior of alpha non-finite at the start point alpha={alpha}")
    rng = np.random.default_rng(cfg.seed)
    accepted = 0
    states = np.empty(cfg.iterations)
    for s in range(0, cfg.iterations, CHUNK):
        cand = prop.draw(rng, min(CHUNK, cfg.iterations - s))
        w = log_weights(ell, hyper, prop, cand)
        if np.isnan(w).any():
            raise NumericalError(f"iteration {s + int(np.argmax(np.isnan(w)))}: "
                                 "non-finite MH acceptance ratio")
        # accept a candidate when log U < w - current, i.e. when w - log U > current
        chunk = []
        for a, wa, ta in zip(cand.tolist(), w.tolist(), (w - np.log(rng.random(cand.size))).tolist()):
            if ta > current:
                alpha, current = a, wa
                accepted += 1
            chunk.append(alpha)
        states[s:s + cand.size] = chunk

    mu_mean, mu_var = mixture(obs, ell.design, prop.nodes, prop.masses)
    return HbChain(states[cfg.resolved_burn_in():], accepted / cfg.iterations, mu_mean, mu_var, cfg, prop)
