"""Marginal-likelihood empirical Bayes choice of the prior regularity.

The marginal log likelihood of alpha (additive constants dropped) is

    ell(alpha) = -1/2 * sum_i [ log(1 + n/(i^(1+2a)*kappa_i^-2))
                                - n^2 y_i^2 / (i^(1+2a)*kappa_i^-2 + n) ]

and the estimator is its maximizer over [0, log n].  A coarse grid scan
followed by golden-section refinement is enough: the curve is smooth and
one-dimensional, and ties are broken toward the smallest alpha.

With u_i = exp(s_i(alpha)) = n*kappa_i^2 / i^(1+2a) (see sequence_model)
the bracket is log(1 + u_i) - n*y_i^2 * u_i/(1 + u_i), and since
u/(1 + u) = 1 - 1/(1 + u),

    ell(alpha) - 1/2 * sum_i n*y_i^2 = -1/2 * sum_i [ log(1 + u_i) + n*y_i^2/(1 + u_i) ].

Every search and every ratio works on this centred value.  The dropped
term is free of alpha but large: at n = 1e15 and N = 1e5 it is about
1.5e14, where one ulp is 0.03, so ell itself cannot resolve the
differences a golden-section search compares near its maximum.  The
centred value is about 1e6 there.  `Loglik` evaluates it from
`Design.odds` with one logarithm and one reciprocal more per coordinate,
into buffers it holds, and reported values (`log_likelihood`, the curve)
add the term back once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .gaussian_posterior import CoordinatePosterior, posterior
from .sequence_model import Observation, design

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section step ratio

GRID_SIZE = 200  # points of the search grid over [0, log n], both endpoints included
GOLDEN_TOL = 1e-4  # bracket width at which golden-section refinement stops


@dataclass(frozen=True)
class LikelihoodCurve:
    """ell sampled on the search grid (both endpoints included)."""

    alphas: np.ndarray
    values: np.ndarray
    argmax_index: int

    def columns(self) -> dict:
        """Columns alpha, loglik and normalized = exp(v - max v), for `experiments.write_csv`."""
        top = float(np.max(self.values))
        return {"alpha": self.alphas, "loglik": self.values,
                "normalized": [math.exp(v - top) for v in self.values]}


@dataclass(frozen=True)
class EbFit:
    alpha_hat: float
    curve: LikelihoodCurve
    refined: bool


class Loglik:
    """ell(alpha) - 1/2 * sum_i n*y_i^2 over all N coordinates of an observation.

    A call returns the centred value at alpha >= 0 and leaves u and
    r = 1/(1 + u) of `Design.odds` in `u` and `r`, so a caller can form the
    data weight w = u * r without another exponential.  Every call reuses
    the same buffers.  `ny2` holds n*y_i^2 and `offset` is the dropped term
    1/2 * sum_i n*y_i^2.
    """

    def __init__(self, obs: Observation):
        N = obs.N
        self.design = design(obs.model, obs.n, N)
        # log(1 + u) and r share one block, so a single dot with (1, ..., 1, n*y^2) sums both terms
        self._terms = np.empty(2 * N)
        self._log1p_u, self.r = self._terms[:N], self._terms[N:]
        self.u = np.empty(N)
        with np.errstate(over="ignore"):  # inf here is the NumericalError below
            ny2 = obs.n * obs.y**2
        self._coef = np.concatenate([np.ones(N), ny2])
        self.ny2 = self._coef[N:]
        self.offset = 0.5 * float(np.sum(ny2))
        if not math.isfinite(self.offset):
            raise NumericalError("n * y_i^2 overflows the float range")

    def __call__(self, alpha) -> float:
        u, r = self.u, self.r
        self.design.odds(alpha, u, r)
        np.log(r, self._log1p_u)
        np.reciprocal(r, r)
        return -0.5 * float(np.dot(self._terms, self._coef))


def log_likelihood(alpha: float, obs: Observation) -> float:
    """Marginal log likelihood of alpha given the observation."""
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    ell = Loglik(obs)
    return ell(alpha) + ell.offset


def score(alpha: float, obs: Observation) -> float:
    """Derivative of the marginal log likelihood in alpha.

    Written with the data weight w_i = n/(i^(1+2a)*kappa_i^-2 + n):
    sum_i log(i) * (w_i - w_i * (1 - w_i) * n * y_i^2).
    """
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    ell = Loglik(obs)
    ell(alpha)
    w = ell.u * ell.r
    return float(np.sum(ell.design.log_i * (w - w * ell.r * ell.ny2)))


def _scan(n: float, ell: Loglik) -> tuple[LikelihoodCurve, np.ndarray]:
    """ell on a uniform grid of GRID_SIZE points over [0, log n], and its centred values."""
    top = math.log(n)
    if top <= 0:
        raise ConfigError("empirical Bayes search needs n > 1")
    alphas = np.linspace(0.0, top, GRID_SIZE)
    centred = np.array([ell(a) for a in alphas])
    if not np.all(np.isfinite(centred)):
        bad = alphas[~np.isfinite(centred)][0]
        raise NumericalError(f"log likelihood non-finite at alpha={bad}")
    # np.argmax takes the first maximizer, i.e. the smallest alpha on ties.
    curve = LikelihoodCurve(alphas=alphas, values=centred + ell.offset,
                            argmax_index=int(np.argmax(centred)))
    return curve, centred


def _golden_max(f, lo: float, hi: float, tol: float):
    """Golden-section maximizer of a scalar function on [lo, hi]."""
    a, b = lo, hi
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + INV_PHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - INV_PHI * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def fit(obs: Observation) -> EbFit:
    """Maximize ell over [0, log n]: grid scan plus golden-section refinement.

    The GRID_SIZE-point scan is refined between the best grid point's
    neighbours down to GOLDEN_TOL.  The refined candidate replaces the best
    grid point only when it is strictly better, so exact endpoint maximizers
    (zero data pulls the maximizer to log n) and smallest-alpha
    tie-breaking are preserved.
    """
    ell = Loglik(obs)
    curve, centred = _scan(obs.n, ell)
    k = curve.argmax_index
    lo = curve.alphas[max(k - 1, 0)]
    hi = curve.alphas[min(k + 1, curve.alphas.size - 1)]
    cand, cand_val = _golden_max(ell, lo, hi, GOLDEN_TOL)
    if not math.isfinite(cand_val):
        raise NumericalError("log likelihood non-finite during refinement")
    alpha_hat = float(curve.alphas[k])
    refined = bool(cand_val > centred[k])
    if refined:
        alpha_hat = float(cand)
    return EbFit(alpha_hat=alpha_hat, curve=curve, refined=refined)


def eb_posterior(obs: Observation, eb_fit: EbFit | None = None) -> CoordinatePosterior:
    """Plug-in posterior at the fitted alpha."""
    if eb_fit is None:
        eb_fit = fit(obs)
    return posterior(eb_fit.alpha_hat, obs)
