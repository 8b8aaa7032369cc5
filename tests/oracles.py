"""Reference helpers shared by the tests; not part of the package API."""
from __future__ import annotations

import bisect
import math

import numpy as np

from invseq import ModelSpec, synthesize_function
from invseq.empirical_bayes import Loglik
from invseq.gaussian_posterior import mixture
from invseq.hierarchical_bayes import ALPHA_MAX, CHUNK, PRIOR_SHARE, grid_proposal


def sandwich_constant(model: ModelSpec, N: int) -> float:
    """Smallest C such that i^-p/C <= kappa_i <= C*i^-p over i <= N (by scan)."""
    i = np.arange(1, N + 1, dtype=float)
    ratio = model.kappa_vector(N) * i**model.p
    return float(max(ratio.max(), 1.0 / ratio.min()))


def volterra_forward(mu: np.ndarray, t: float) -> float:
    """sum_i kappa_i * mu_i * e_i(t) with the volterra multipliers.

    Applying the weighting twice reproduces integration:
    volterra_forward(kappa*mu, t) equals the reflected double primitive
    int_t^1 int_0^s mu(u) du ds of the synthesized signal.
    """
    mu = np.asarray(mu, dtype=float)
    kap = ModelSpec.volterra().kappa_vector(mu.size)
    return float(synthesize_function(kap * mu, np.asarray([t]))[0])


def grid_log_q(prop, dist, a: float) -> float:
    """log of the sampler's proposal density at a, from its grid masses and a scipy prior.

    The grid's share is spread evenly over each cell by the cell's mass; the
    prior's share follows the prior's density everywhere.
    """
    edges = prop.edges.tolist()
    g = bisect.bisect_right(edges, a) - 1
    grid = 0.0
    if 0 <= g < prop.masses.size:
        grid = prop.masses[g] / (edges[g + 1] - edges[g])
    return math.log((1.0 - PRIOR_SHARE) * grid + PRIOR_SHARE * dist.pdf(a))


def reference_chain(obs, hyper, cfg):
    """The sampler with every candidate's log weight taken from one column per chunk.

    This is `run_mwg`'s chain without the enclosure: each chunk's CHUNK
    candidates are drawn from the grid proposal by inverting the CDF of its
    masses, a PRIOR_SHARE of them replaced by hyperprior draws, and weighed
    by one `log_weights`-style column of the target less log q, with q
    formed from the cells' masses over their widths.  Returns the kept
    alphas, the acceptance rate and the moments of mu.
    """
    alpha = 1.0 if cfg.alpha_init is None else cfg.alpha_init
    ell = Loglik(obs)
    prop = grid_proposal(ell, hyper)
    cdf = np.concatenate([[0.0], np.cumsum(prop.masses)])

    def log_q(a):
        g = np.searchsorted(prop.edges, a, side="right") - 1
        inside = (g >= 0) & (g < prop.masses.size)
        dens = np.zeros(a.shape)
        dens[inside] = prop.masses[g[inside]] / np.diff(prop.edges)[g[inside]]
        with np.errstate(divide="ignore"):
            return np.logaddexp(math.log1p(-PRIOR_SHARE) + np.log(dens),
                                math.log(PRIOR_SHARE) + hyper.log_density(a))

    def weights(a):
        w = np.full(a.shape, -math.inf)
        ok = (a > 0.0) & (a <= ALPHA_MAX)
        target = hyper.log_density(a[ok]) + ell.column(a[ok])
        with np.errstate(invalid="ignore"):
            w[ok] = np.where(target == -math.inf, -math.inf, target - log_q(a[ok]))
        return w

    current = float(weights(np.array([alpha]))[0])
    rng = np.random.default_rng(cfg.seed)
    accepted = 0
    states = []
    for s in range(0, cfg.iterations, CHUNK):
        size = min(CHUNK, cfg.iterations - s)
        cand = np.interp(rng.random(size) * cdf[-1], cdf, prop.edges)
        prior = rng.random(size) < PRIOR_SHARE
        cand[prior] = hyper.draw(rng, int(np.count_nonzero(prior)))
        w = weights(cand)
        for a, wa, ta in zip(cand.tolist(), w.tolist(), (w - np.log(rng.random(size))).tolist()):
            if ta > current:
                alpha, current = a, wa
                accepted += 1
            states.append(alpha)
    mu_mean, mu_var = mixture(obs, ell.design, prop.nodes, prop.masses)
    return np.array(states[cfg.resolved_burn_in():]), accepted / cfg.iterations, mu_mean, mu_var
