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
centred value is about 1e6 there.  `Loglik.column` evaluates it at a
whole array of alphas, from the blocks of u and 1 + u that `Design.blocks`
fills, with one logarithm and one reciprocal more per coordinate; the
grid scan is one such column, the golden-section search and
`log_likelihood` columns of one alpha, and the sampler's targets columns
of proposals.  Reported values (`log_likelihood`, the curve) add the term
back once.

Most coordinates need no evaluation at most alphas.  Where u_i <= 2^-53,
that is s_i <= -53 log 2 = -36.74, 1 + u_i rounds to exactly 1: the
coordinate adds exactly 0 to the log term and exactly n*y_i^2 to the
other.  Every model kind has kappa_i <= C i^-p, so

    s_i(alpha) <= log(n C^2) - (1 + 2a + 2p) * log i,

which is below S_NEGLIGIBLE = -37 for every i > exp((log(n C^2) + 37)/(1 + 2a + 2p)).
A block of alphas therefore evaluates only the active prefix of its
smallest alpha, the first

    k(alpha) = min(N, floor(exp((log(n C^2) + 37)/(1 + 2a + 2p))) + 1)

coordinates, and adds the suffix sum of n*y_i^2 past k, which is summed
once in long double and stored rounded.  The coordinates it skips are the
ones a full evaluation would have added as exact 0s and n*y_i^2s, so only
the order of summation changes.  Where k would skip fewer than
PREFIX_MIN_SKIP coordinates, that is up to an alpha_full fixed by n, C, p
and N, a block evaluates all N.  At n = 1e15 (Volterra, C = pi)
and N = 1e5, alpha_full is 1.7, and k is 3653 at alpha = 3, 293 at
alpha = 5 and 25 at alpha = 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .gaussian_posterior import CoordinatePosterior, posterior
from .sequence_model import S_NEGLIGIBLE, Observation, design

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section step ratio

GRID_SIZE = 200  # points of the search grid over [0, log n], both endpoints included
GOLDEN_TOL = 1e-4  # bracket width at which golden-section refinement stops
# A block evaluates a prefix only where it skips at least this many coordinates.  A prefix
# costs nothing a full block does not (its coefficients are a view), but a smaller value
# would move alpha_full, and with it the summation order and the bits of every curve.
PREFIX_MIN_SKIP = 512


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

    `column` evaluates the centred value at an array of alphas >= 0, and a
    call is its one-alpha case.  Past `alpha_full` a block of alphas
    evaluates only the active prefix of its smallest alpha, the first
    k(alpha) coordinates (see the module docstring), and adds the
    precomputed sum of n*y_i^2 over the rest; up to `alpha_full` it
    evaluates all N.  `ny2` holds n*y_i^2 and `offset` is the dropped term
    1/2 * sum_i n*y_i^2.
    """

    def __init__(self, obs: Observation):
        N = obs.N
        model = obs.model
        self.design = design(model, obs.n, N)
        with np.errstate(over="ignore"):  # inf here is the NumericalError below
            ny2 = obs.n * obs.y**2
        self.ny2 = ny2
        self._ones = np.ones(N)  # a gemv against it sums each row of log(1 + u)
        self.offset = 0.5 * float(np.sum(ny2))
        if not math.isfinite(self.offset):
            raise NumericalError("n * y_i^2 overflows the float range")
        # _suffix[k] = sum_{i > k} n*y_i^2, summed in long double and rounded once
        self._suffix = np.zeros(N + 1)
        self._suffix[:N] = np.cumsum(ny2[::-1], dtype=np.longdouble)[::-1]
        # kappa_i <= C i^-p, so s_i(alpha) < S_NEGLIGIBLE wherever
        # (1 + 2*alpha + 2p) * log i > log(n C^2) - S_NEGLIGIBLE = _reach
        self._reach = math.log(obs.n) + 2.0 * math.log(model.C) - S_NEGLIGIBLE
        self._slope = 1.0 + 2.0 * model.p
        # k(alpha) <= N - PREFIX_MIN_SKIP once alpha > alpha_full
        self.alpha_full = (math.inf if N <= PREFIX_MIN_SKIP + 1 else
                           0.5 * (self._reach / math.log(N - PREFIX_MIN_SKIP) - self._slope))
        self._N = N

    def __call__(self, alpha) -> float:
        return float(self.column(np.array([alpha], dtype=float))[0])

    def _active(self, alpha) -> int:
        """k(alpha) past alpha_full, else N (a nan alpha too, which gives nan)."""
        if not alpha > self.alpha_full:
            return self._N
        return min(self._N, int(math.exp(self._reach / (self._slope + 2.0 * alpha))) + 1)

    def column(self, alphas: np.ndarray) -> np.ndarray:
        """The centred value at each alpha >= 0 of a 1-D array.

        Each `Design.blocks` block covers the active prefix of its smallest
        alpha.  Its u half becomes log(1 + u) and its 1 + u half r = 1/(1 + u)
        in place, and one gemv of each half, against ones and against n*y^2,
        sums both terms of every row.
        """
        out = np.empty(alphas.size)
        for s, log1p_u, r in self.design.blocks(alphas, self._active):
            k = r.shape[1]
            np.log(r, log1p_u)
            np.reciprocal(r, r)
            out[s:s + len(r)] = log1p_u @ self._ones[:k] + r @ self.ny2[:k] + self._suffix[k]
        out *= -0.5
        return out


def log_likelihood(alpha: float, obs: Observation) -> float:
    """Marginal log likelihood of alpha, finite and >= 0, given the observation."""
    if not 0 <= alpha < math.inf:
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
    ell = Loglik(obs)
    return ell(alpha) + ell.offset


def score(alpha: float, obs: Observation) -> float:
    """Derivative of the marginal log likelihood in alpha.

    Written with the data weight w_i = n/(i^(1+2a)*kappa_i^-2 + n):
    sum_i log(i) * (w_i - w_i * (1 - w_i) * n * y_i^2).  alpha must be finite and >= 0.
    """
    if not 0 <= alpha < math.inf:
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
    ell = Loglik(obs)
    _, (u,), (r,) = next(ell.design.blocks(np.array([alpha])))
    np.reciprocal(r, r)
    w = u * r
    return float(np.sum(ell.design.log_i * (w - w * r * ell.ny2)))


def _scan(n: float, ell: Loglik) -> tuple[LikelihoodCurve, np.ndarray]:
    """ell on a uniform grid of GRID_SIZE points over [0, log n], and its centred values."""
    top = math.log(n)
    if top <= 0:
        raise ConfigError("empirical Bayes search needs n > 1")
    alphas = np.linspace(0.0, top, GRID_SIZE)
    centred = ell.column(alphas)
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


def eb_posterior(obs: Observation, eb_fit: EbFit) -> CoordinatePosterior:
    """Plug-in posterior at the fitted alpha."""
    return posterior(eb_fit.alpha_hat, obs)
