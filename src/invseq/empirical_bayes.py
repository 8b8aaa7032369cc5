"""Marginal-likelihood empirical Bayes choice of the prior regularity.

The marginal log likelihood of alpha (additive constants dropped) is

    ell(alpha) = -1/2 * sum_i [ log(1 + n/(i^(1+2a)*kappa_i^-2))
                                - n^2 y_i^2 / (i^(1+2a)*kappa_i^-2 + n) ]

and the estimator is its maximizer over [0, log n].  A coarse grid scan
followed by golden-section refinement is enough: the curve is smooth and
one-dimensional, and ties are broken toward the smallest alpha.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .gaussian_posterior import CoordinatePosterior, posterior
from .sequence_model import Design, Observation, design, softplus_weight, weight, weight_product

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section step ratio

DEFAULT_GRID_SIZE = 200
DEFAULT_REFINE_TOL = 1e-4


@dataclass(frozen=True)
class LikelihoodCurve:
    """ell sampled on the search grid (both endpoints included)."""

    alphas: np.ndarray
    values: np.ndarray
    argmax_index: int

    def write_csv(self, path) -> None:
        """Columns (alpha, loglik, normalized) with normalized = exp(v - max v)."""
        top = float(np.max(self.values))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["alpha", "loglik", "normalized"])
            for a, v in zip(self.alphas, self.values):
                w.writerow([repr(float(a)), repr(float(v)), repr(math.exp(v - top))])


@dataclass(frozen=True)
class EbFit:
    alpha_hat: float
    curve: LikelihoodCurve
    refined: bool


def _prepared(obs: Observation, N: int | None = None) -> tuple[Design, np.ndarray]:
    """The design and n*y_i^2 of the first N coordinates (all of them by default)."""
    N = obs.N if N is None else N
    with np.errstate(over="ignore"):  # inf here surfaces as NumericalError later
        ny2 = obs.n * obs.y[:N]**2
    return design(obs.model, obs.n, N), ny2


def _loglik(alpha, d: Design, ny2) -> float:
    return _loglik_weight(alpha, d, ny2)[0]


def _loglik_weight(alpha, d: Design, ny2) -> tuple[float, np.ndarray]:
    """ell(alpha) and the data weight w it was computed from."""
    # w = n/(i^(1+2a)*kappa^-2 + n); the quadratic term is n*w*y_i^2.
    sp, w = softplus_weight(d.log_odds(alpha))
    return -0.5 * float(np.sum(sp - w * ny2)), w


def log_likelihood(alpha: float, obs: Observation) -> float:
    """Marginal log likelihood of alpha given the observation."""
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    return _loglik(alpha, *_prepared(obs))


def score(alpha: float, obs: Observation) -> float:
    """Derivative of the marginal log likelihood in alpha.

    Written with the data weight w_i = n/(i^(1+2a)*kappa_i^-2 + n):
    sum_i log(i) * (w_i - w_i * (1 - w_i) * n * y_i^2).
    """
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    d, ny2 = _prepared(obs)
    s = d.log_odds(alpha)
    w = weight(s)
    return float(np.sum(d.log_i * (w - weight_product(s) * ny2)))


def likelihood_curve(obs: Observation, grid_size: int = DEFAULT_GRID_SIZE) -> LikelihoodCurve:
    """ell on a uniform grid over [0, log n]."""
    return _scan(obs.n, _prepared(obs), grid_size)


def _scan(n: float, prep, grid_size: int) -> LikelihoodCurve:
    if grid_size < 2:
        raise ConfigError("grid needs at least the two endpoints")
    top = math.log(n)
    if top <= 0:
        raise ConfigError("empirical Bayes search needs n > 1")
    alphas = np.linspace(0.0, top, grid_size)
    values = np.array([_loglik(a, *prep) for a in alphas])
    if not np.all(np.isfinite(values)):
        bad = alphas[~np.isfinite(values)][0]
        raise NumericalError(f"log likelihood non-finite at alpha={bad}")
    # np.argmax takes the first maximizer, i.e. the smallest alpha on ties.
    return LikelihoodCurve(alphas=alphas, values=values, argmax_index=int(np.argmax(values)))


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


def fit(obs: Observation, grid_size: int = DEFAULT_GRID_SIZE,
        refine_tol: float = DEFAULT_REFINE_TOL) -> EbFit:
    """Maximize ell over [0, log n]: grid scan plus golden-section refinement.

    The refined candidate replaces the best grid point only when it is
    strictly better, so exact endpoint maximizers (zero data pulls the
    maximizer to log n) and smallest-alpha tie-breaking are preserved.
    """
    prep = _prepared(obs)
    curve = _scan(obs.n, prep, grid_size)
    k = curve.argmax_index
    lo = curve.alphas[max(k - 1, 0)]
    hi = curve.alphas[min(k + 1, curve.alphas.size - 1)]
    cand, cand_val = _golden_max(lambda a: _loglik(a, *prep), lo, hi, refine_tol)
    if not math.isfinite(cand_val):
        raise NumericalError("log likelihood non-finite during refinement")
    alpha_hat = float(curve.alphas[k])
    refined = bool(cand_val > curve.values[k])
    if refined:
        alpha_hat = float(cand)
    return EbFit(alpha_hat=alpha_hat, curve=curve, refined=refined)


def eb_posterior(obs: Observation, eb_fit: EbFit | None = None) -> CoordinatePosterior:
    """Plug-in posterior at the fitted alpha."""
    if eb_fit is None:
        eb_fit = fit(obs)
    return posterior(eb_fit.alpha_hat, obs)
