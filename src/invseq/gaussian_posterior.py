"""Conjugate coordinatewise posterior under the Gaussian prior N(0, i^(-1-2*alpha)).

For each coordinate the posterior is normal with

    mean_i = n * kappa_i * y_i / (i^(1+2*alpha) + n*kappa_i^2) = w_i * y_i / kappa_i
    var_i  = 1 / (i^(1+2*alpha) + n*kappa_i^2)                 = w_i / (n*kappa_i^2)

which is the textbook form n*kappa_i^-1*y_i/(i^(1+2a)*kappa_i^-2 + n) and
kappa_i^-2/(i^(1+2a)*kappa_i^-2 + n) multiplied through by kappa_i^2.
Written through the data weight w_i (see sequence_model) no large power
i^(1+2a) is ever formed.

`mixture` is the one place these moments are formed.  It mixes the
posteriors of a column of alphas under given weights, as hierarchical
Bayes needs, reading w from the blocks `Design.blocks` fills; `posterior`
is its one-alpha case, the empirical-Bayes plug-in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequence_model import Design, Observation, _checked_alpha, design, synthesize_function


@dataclass(frozen=True)
class CoordinatePosterior:
    """Posterior means and variances of the first N coordinates at a fixed alpha."""

    alpha: float
    means: np.ndarray
    variances: np.ndarray


def mixture(obs: Observation, d: Design, alphas, weights) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of mu under the conjugate posteriors at alphas, mixed by weights.

    d is the design of obs, and alphas and weights are 1-D arrays of one
    length.  The caller passes alphas finite and >= 0 and weights finite
    and >= 0, which are not checked here: `posterior` checks its alpha, and
    the chain passes its grid's nodes and masses.  Only weights with no
    positive entry are a ValueError.  They need not sum to 1, and a zero
    weight contributes nothing.  Every posterior has mean w y/kappa and
    variance w/(n kappa^2), so the mixture has mean E[w] y/kappa and, by
    total variance, variance E[w]/(n kappa^2) + Var(w) (y/kappa)^2, with E
    and Var taken over alpha.  Each `Design.blocks` block of the alphas of
    positive weight turns its u into w in place, and its weighted mean and
    spread of w join the running ones by the pairwise update of Chan, Golub
    & LeVeque (1983): at large n the w_i of nearby alphas agree to many
    digits, and raw sums of w_i^2 would cancel.  A one-alpha block forms no spread, so a single
    alpha gives exactly the conjugate posterior.
    """
    alphas, q = alphas[weights > 0], weights[weights > 0]
    if not alphas.size:
        raise ValueError("mixture needs a weight > 0")
    mean, spread, total = 0.0, 0.0, 0.0
    for s, w, r in d.blocks(alphas):
        p = q[s:s + len(w)]
        w *= np.reciprocal(r, r)  # u*r, as every layer forms w
        t = float(p.sum())
        w_b = w[0] if p.size == 1 else (p @ w) / t  # the block's mean
        if p.size > 1:
            w -= w_b
            w *= w
            spread = spread + p @ w
        if s:  # merge the block into the running mean and spread
            delta = w_b - mean
            w_b = mean + delta * (t / (total + t))
            spread = spread + delta * delta * (total * t / (total + t))
        mean, total = w_b, total + t
    y_over_k = obs.y / d.kappa
    var = mean / (obs.n * d.kappa**2)
    if alphas.size > 1:
        var += spread / total * y_over_k**2
    return mean * y_over_k, var


def posterior(alpha: float, obs: Observation) -> CoordinatePosterior:
    """Exact conjugate posterior at prior regularity alpha, finite and >= 0."""
    _checked_alpha(alpha)
    means, variances = mixture(obs, design(obs.model, obs.n, obs.N), np.array([alpha]), np.ones(1))
    return CoordinatePosterior(alpha=float(alpha), means=means, variances=variances)


def posterior_risk(post: CoordinatePosterior, mu0: np.ndarray) -> float:
    """Squared-error risk proxy of a posterior: ||mean - mu0||^2 + sum of posterior variances.

    mu0 may be shorter than the posterior; missing entries count as zero.
    """
    mu0 = np.asarray(mu0, dtype=float)
    ref = np.zeros(post.means.size)
    k = min(ref.size, mu0.size)
    ref[:k] = mu0[:k]
    return float(np.sum((post.means - ref) ** 2) + np.sum(post.variances))


def posterior_mean_function(post: CoordinatePosterior, t_grid: np.ndarray) -> np.ndarray:
    """Posterior mean synthesized as a function on [0, 1]."""
    return synthesize_function(post.means, t_grid)
