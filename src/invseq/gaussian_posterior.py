"""Conjugate coordinatewise posterior under the Gaussian prior N(0, i^(-1-2*alpha)).

For each coordinate the posterior is normal with

    mean_i = n * kappa_i * y_i / (i^(1+2*alpha) + n*kappa_i^2) = w_i * y_i / kappa_i
    var_i  = 1 / (i^(1+2*alpha) + n*kappa_i^2)                 = w_i / (n*kappa_i^2)

which is the textbook form n*kappa_i^-1*y_i/(i^(1+2a)*kappa_i^-2 + n) and
kappa_i^-2/(i^(1+2a)*kappa_i^-2 + n) multiplied through by kappa_i^2.
Written through the data weight w_i (see sequence_model) no large power
i^(1+2a) is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sequence_model import Observation, design, synthesize_function


@dataclass(frozen=True)
class CoordinatePosterior:
    """Posterior means and variances of the first N coordinates at a fixed alpha."""

    alpha: float
    means: np.ndarray
    variances: np.ndarray


def posterior(alpha: float, obs: Observation) -> CoordinatePosterior:
    """Exact conjugate posterior at prior regularity alpha."""
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    d = design(obs.model, obs.n, obs.N)
    w, r = np.empty(obs.N), np.empty(obs.N)
    d.odds(alpha, w, r)
    w *= np.reciprocal(r, r)  # u*r, as every layer forms w
    return CoordinatePosterior(alpha=float(alpha), means=w * (obs.y / d.kappa),
                               variances=w / (obs.n * d.kappa**2))


def posterior_risk(alpha: float, obs: Observation, mu0: np.ndarray) -> float:
    """Squared-error risk proxy: ||mean - mu0||^2 + sum of posterior variances.

    mu0 may be shorter than N; missing entries count as zero.
    """
    post = posterior(alpha, obs)
    mu0 = np.asarray(mu0, dtype=float)
    ref = np.zeros(obs.N)
    k = min(obs.N, mu0.size)
    ref[:k] = mu0[:k]
    return float(np.sum((post.means - ref) ** 2) + np.sum(post.variances))


def posterior_mean_function(post: CoordinatePosterior, t_grid: np.ndarray) -> np.ndarray:
    """Posterior mean synthesized as a function on [0, 1]."""
    return synthesize_function(post.means, t_grid)
