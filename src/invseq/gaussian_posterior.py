"""Conjugate coordinatewise posterior under the Gaussian prior N(0, i^(-1-2*alpha)).

For each coordinate the posterior is normal with

    mean_i = n * kappa_i * y_i / (i^(1+2*alpha) + n*kappa_i^2) = w_i * y_i / kappa_i
    var_i  = 1 / (i^(1+2*alpha) + n*kappa_i^2)                 = w_i / (n*kappa_i^2)

which is the textbook form n*kappa_i^-1*y_i/(i^(1+2a)*kappa_i^-2 + n) and
kappa_i^-2/(i^(1+2a)*kappa_i^-2 + n) multiplied through by kappa_i^2.
Written through the data weight w_i (see sequence_model) no large power
i^(1+2a) is ever formed.

`Mixture` is the one place these moments are formed.  It mixes the
posteriors of a column of alphas, as hierarchical Bayes needs, joining
one block of w at a time under weights given relative to the block's own
largest one.  The sampler feeds it the blocks of its node column as
`empirical_bayes.columns` evaluates them, weighted by their log weights
(`hierarchical_bayes.grid_proposal`).  `mixture` feeds it the blocks
`Design.blocks` fills for any alphas and weights, and `posterior` is its
one-alpha case, the empirical-Bayes plug-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequence_model import Design, Observation, _checked_alpha, design, synthesize_function


@dataclass(frozen=True)
class CoordinatePosterior:
    """Posterior means and variances of the first N coordinates at a fixed alpha."""

    alpha: float
    means: np.ndarray
    variances: np.ndarray


class Mixture:
    """Moments of mu under conjugate posteriors mixed over alpha, joined block by block.

    Every conjugate posterior has mean w y/kappa and variance w/(n kappa^2),
    so a mixture of them over alpha has mean E[w] y/kappa and, by total
    variance, variance E[w]/(n kappa^2) + Var(w) (y/kappa)^2, with E and
    Var taken over alpha (`mu`).  `add` joins a block of rows of w, one row
    per alpha.  The block's weighted mean and spread of w join the running
    ones by the pairwise update of Chan, Golub & LeVeque (1983): at large n
    the w_i of nearby alphas agree to many digits, and raw sums of w_i^2
    would cancel.  The merged mean sums the two means weighted by their
    shares of the total, both >= 0, so no digit cancels where w spans many
    decades over alpha.  A block's weights are given relative to exp(top), and
    the running ones are kept relative to the largest top yet; a block with
    a larger top rescales the running total and spread to it (the online
    normaliser of Milakov & Gimelshein 2018).  So weights known only as
    logarithms stream in with no pass to find their maximum first, and
    blocks of one top, as `mixture` gives, are never rescaled.  A one-row
    block forms no spread, so one alpha gives exactly the conjugate
    posterior.
    """

    def __init__(self, N: int):
        self.mean = np.empty(N)
        self.spread = self._scratch = None  # made once a second row comes
        self.total, self.top, self.rows = 0.0, -math.inf, 0

    def add(self, p: np.ndarray, top: float, *parts: np.ndarray) -> None:
        """Join a block of rows of w weighted by p * exp(top).

        p holds a weight >= 0 per row with a finite positive sum.  parts
        split the block's w by coordinates, all N of them from the first
        on, each rows by coordinates, and are overwritten.
        """
        first = not self.rows
        if self.spread is None and self.rows + p.size > 1:
            self.spread, self._scratch = np.zeros(self.mean.size), np.empty((2, self.mean.size))
        t = float(p.sum())
        scale = 1.0  # exp(top) over the running top
        if first:
            self.top = top
        elif top > self.top:
            shrink = math.exp(self.top - top)
            self.total *= shrink
            self.spread *= shrink
            self.top = top
        else:
            scale = math.exp(top - self.top)
        ts = t * scale
        merged = self.total + ts
        stay, share, cross = self.total / merged, ts / merged, self.total * ts / merged
        at = 0
        for w in parts:
            cols = slice(at, at + w.shape[1])
            at = cols.stop
            mean = self.mean[cols]
            if p.size == 1:
                w_b = w[0]
            else:
                w_b = mean if first else self._scratch[0, cols]
                np.matmul(p, w, out=w_b)
                w_b /= t  # the block's mean
                w -= w_b
                w *= w
                tmp = self._scratch[1, cols]
                np.matmul(p, w, out=tmp)
                if scale != 1.0:
                    tmp *= scale
                self.spread[cols] += tmp
            if first:
                if p.size == 1:
                    mean[:] = w_b
                continue
            tmp = self._scratch[1, cols]
            np.subtract(w_b, mean, out=tmp)  # merge the block into the running mean and spread
            mean *= stay
            w_b *= share
            mean += w_b
            tmp *= tmp
            tmp *= cross
            self.spread[cols] += tmp
        self.total += ts
        self.rows += p.size

    def mu(self, obs: Observation, d: Design) -> tuple[np.ndarray, np.ndarray]:
        """Mean and variance of mu under the mixture; d is the design of obs."""
        y_over_k = obs.y / d.kappa
        var = self.mean / (obs.n * d.kappa**2)
        if self.rows > 1:
            var += self.spread / self.total * y_over_k**2
        return self.mean * y_over_k, var


def mixture(obs: Observation, d: Design, alphas, weights) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of mu under the conjugate posteriors at alphas, mixed by weights.

    d is the design of obs, and alphas and weights are 1-D arrays of one
    length.  The caller passes alphas finite and >= 0 and weights finite
    and >= 0, which are not checked here: `posterior` checks its alpha.
    Only weights with no positive entry are a ValueError.  They need not
    sum to 1, and a zero weight contributes nothing.  Each `Design.blocks`
    block of the alphas of positive weight turns its u into w in place and
    joins a `Mixture`.
    """
    alphas, q = alphas[weights > 0], weights[weights > 0]
    if not alphas.size:
        raise ValueError("mixture needs a weight > 0")
    moments = Mixture(d.log_i.size)
    for s, w, r in d.blocks(alphas):
        w *= np.reciprocal(r, r)  # u*r, as every layer forms w
        moments.add(q[s:s + len(w)], 0.0, w)
    return moments.mu(obs, d)


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
