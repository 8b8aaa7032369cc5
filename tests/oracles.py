"""Reference helpers shared by the tests; not part of the package API."""
from __future__ import annotations

import bisect
import math

import numpy as np

from invseq import ModelSpec, synthesize_function
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


def _weights(prop, alphas, values, log_q):
    """lambda + ell - log q at each alpha in (0, ALPHA_MAX], -inf at the others and where pi is 0.

    values(ok) gives ell at the alphas the mask ok marks, and log_q(a) log q
    at those alphas a.
    """
    ok = (alphas > 0.0) & (alphas <= ALPHA_MAX)
    a = alphas[ok]
    w = np.full(alphas.shape, -math.inf)
    target = prop.hyper.log_density(a) + values(ok)
    with np.errstate(invalid="ignore"):  # -inf - -inf where lambda and q vanish together
        w[ok] = np.where(target == -math.inf, -math.inf, target - log_q(a))
    return w


def fresh_log_weights(prop, alphas):
    """log pi - log q at each alpha, with q formed afresh from the cells' masses over their widths.

    pi is lambda * exp(ell's centred value) on (0, ALPHA_MAX], and the
    weight is -inf elsewhere and wherever pi is 0.
    """
    def log_q(a):
        g = np.searchsorted(prop.edges, a, side="right") - 1
        inside = (g >= 0) & (g < prop.masses.size)
        dens = np.zeros(a.shape)
        dens[inside] = prop.masses[g[inside]] / np.diff(prop.edges)[g[inside]]
        with np.errstate(divide="ignore"):
            return np.logaddexp(math.log1p(-PRIOR_SHARE) + np.log(dens),
                                math.log(PRIOR_SHARE) + prop.hyper.log_density(a))

    return _weights(prop, alphas, lambda ok: prop.ell.column(alphas[ok]), log_q)


def weights_at(prop, alphas, values):
    """The log weight at each alpha as the sampler forms it from values in place of ell there.

    log q is looked up by its own search of the cells' edges; the weight is
    -inf outside (0, ALPHA_MAX] and wherever pi is 0.
    """
    def log_q(a):
        return np.logaddexp(prop.log_cells[np.searchsorted(prop.edges, a, side="right")],
                            math.log(PRIOR_SHARE) + prop.hyper.log_density(a))

    return _weights(prop, alphas, values.__getitem__, log_q)


def enclosure_bounds(enc, alphas):
    """Bounds on every column value of ell at each alpha, by three searches.

    Every alpha searches the window scan for its interval's floor and
    ceiling; those in the knots' hull search it for the hull test and the
    knots for their gap, and take the chord's value less and plus its
    half-width there.
    """
    i = np.searchsorted(enc.scan, alphas, side="right")
    lo, hi = enc.floors[i], enc.ceilings[i]
    if enc.knots.size:
        inside = (alphas >= enc.knots[0]) & (alphas <= enc.knots[-1])
    else:
        inside = np.zeros(alphas.shape, dtype=bool)
    a = alphas[inside]
    g = np.minimum(np.searchsorted(enc.knots, a, side="right") - 1, enc.slopes.size - 1)
    left, right = a - enc.knots[g], enc.knots[g + 1] - a
    mid, half = enc.values[g] + left * enc.slopes[g], enc.bends[g] * left * right + enc.slack[g]
    lo[inside], hi[inside] = mid - half, mid + half
    return lo, hi


def reference_bounds(prop, alphas):
    """Bounds on each alpha's log weight: `weights_at` each of `enclosure_bounds`' two bounds."""
    return tuple(weights_at(prop, alphas, v) for v in enclosure_bounds(prop.enclosure, alphas))


def reference_chain(obs, hyper, cfg):
    """The sampler with every candidate's log weight taken from one column per chunk.

    This is `run_mwg`'s chain without the enclosure: each chunk's CHUNK
    candidates are drawn from the grid proposal by inverting the CDF of its
    masses, a PRIOR_SHARE of them replaced by hyperprior draws, and weighed
    by `fresh_log_weights`, one column per chunk.  Returns the kept alphas,
    the acceptance rate and the moments of mu, which the grid forms in its
    node column (`Proposal.mu_mean` and `mu_var`) and which
    `test_chain_moments_are_the_mixture_at_the_nodes` holds to
    `gaussian_posterior.mixture` at the nodes.
    """
    alpha = 1.0 if cfg.alpha_init is None else cfg.alpha_init
    prop = grid_proposal(obs, hyper)
    cdf = np.concatenate([[0.0], np.cumsum(prop.masses)])
    current = float(fresh_log_weights(prop, np.array([alpha]))[0])
    rng = np.random.default_rng(cfg.seed)
    accepted = 0
    states = []
    for s in range(0, cfg.iterations, CHUNK):
        size = min(CHUNK, cfg.iterations - s)
        cand = np.interp(rng.random(size) * cdf[-1], cdf, prop.edges)
        prior = rng.random(size) < PRIOR_SHARE
        cand[prior] = hyper.draw(rng, int(np.count_nonzero(prior)))
        w = fresh_log_weights(prop, cand)
        for a, wa, ta in zip(cand.tolist(), w.tolist(), (w - np.log(rng.random(size))).tolist()):
            if ta > current:
                alpha, current = a, wa
                accepted += 1
            states.append(alpha)
    return np.array(states[cfg.resolved_burn_in():]), accepted / cfg.iterations, prop.mu_mean, prop.mu_var
