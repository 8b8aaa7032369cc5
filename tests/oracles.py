"""Reference helpers shared by the tests; not part of the package API."""
from __future__ import annotations

import bisect
import math

import numpy as np

from invseq import ModelSpec, synthesize_function
from invseq.hierarchical_bayes import PRIOR_SHARE


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
