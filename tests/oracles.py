"""Reference helpers shared by the tests; not part of the package API."""
from __future__ import annotations

import numpy as np

from invseq import ModelSpec, synthesize_function


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
