"""Marginal-likelihood empirical Bayes choice of the prior regularity.

The marginal log likelihood of alpha (additive constants dropped) is

    ell(alpha) = -1/2 * sum_i [ log(1 + n/(i^(1+2a)*kappa_i^-2))
                                - n^2 y_i^2 / (i^(1+2a)*kappa_i^-2 + n) ]

and the estimator is its maximizer over [0, log n].  A coarse grid scan
followed by a few safeguarded Newton steps between the best grid point's
neighbours is enough: the curve is smooth and one-dimensional, and ties are
broken toward the smallest alpha.

With u_i = exp(s_i(alpha)) = n*kappa_i^2 / i^(1+2a) (see sequence_model)
the bracket is log(1 + u_i) - n*y_i^2 * u_i/(1 + u_i), and since
u/(1 + u) = 1 - 1/(1 + u),

    ell(alpha) - 1/2 * sum_i n*y_i^2 = -1/2 * sum_i [ log(1 + u_i) + n*y_i^2/(1 + u_i) ].

Every search and every ratio works on this centred value.  The dropped
term is free of alpha but large: at n = 1e15 and N = 1e5 it is about
1.5e14, where one ulp is 0.03, so ell itself cannot resolve the
differences between the refined maximizer and its grid point.  The
centred value is about 1e6 there.  `columns` evaluates it for several
observations of one model, n and N at a whole array of alphas, from the
blocks of u and 1 + u that `Design.blocks` fills, with one logarithm and
one reciprocal more per coordinate.  A block, its logarithms and their
row sums are free of the data, so they are made once for all the
observations; each observation adds only its own gemv against n*y^2.
`Loglik.column` is its one-observation case.  The grid scan is one
column, shared by a group of replicates in `scans`, the refined candidate
and `log_likelihood` columns of one alpha, and the sampler's targets
columns of proposals.  The sampler's window scan and node column also
read each block's log(1 + u) row sums and r through a visitor, which
bound the likelihood between and beyond the nodes, and the node column
its data weights w = u r, from which the moments of mu are joined.
`Loglik.slope` reads one such block for the first and second derivative, which the Newton
steps of each observation's `fit` and `score` use.  Reported values (`log_likelihood`, the curve) add
the term back once.

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
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .gaussian_posterior import CoordinatePosterior, posterior
from .sequence_model import (SCAN_GROUP, S_NEGLIGIBLE, Observation, _checked_alpha, _ones, block_rows,
                             design)

GRID_SIZE = 200  # points of the search grid over [0, log n], both endpoints included
STEP_TOL = 1e-4  # the Newton refinement stops after a step shorter than this
# A block evaluates a prefix only where it skips at least this many coordinates.  A prefix
# costs nothing a full block does not (its coefficients are a view), but a smaller value
# would move alpha_full, and with it the summation order and the bits of every curve.
PREFIX_MIN_SKIP = 512
SUFFIX_CHUNK = 4096  # terms per long-double cumsum of the suffix table (see _suffix_sums)


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
    call is its one-alpha case; `columns` evaluates several observations'
    Logliks at once.  Past `alpha_full` a block of alphas
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
        self._ones = _ones(N)  # a gemv against it sums each row of log(1 + u)
        self.offset = 0.5 * float(np.sum(ny2))
        if not math.isfinite(self.offset):
            raise NumericalError("n * y_i^2 overflows the float range")
        # _suffix[k] = sum_{i > k} n*y_i^2, summed in long double and rounded once
        self._suffix = _suffix_sums(ny2)
        # kappa_i <= C i^-p, so s_i(alpha) < S_NEGLIGIBLE wherever
        # (1 + 2*alpha + 2p) * log i > log(n C^2) - S_NEGLIGIBLE = _reach
        self._reach = math.log(obs.n) + 2.0 * math.log(model.C) - S_NEGLIGIBLE
        self._slope = 1.0 + 2.0 * model.p
        # k(alpha) <= N - PREFIX_MIN_SKIP once alpha > alpha_full
        self.alpha_full = (math.inf if N <= PREFIX_MIN_SKIP + 1 else
                           0.5 * (self._reach / math.log(N - PREFIX_MIN_SKIP) - self._slope))
        self._N = N
        self._key = (model, obs.n, N)

    def __call__(self, alpha) -> float:
        return float(self.column(np.array([alpha], dtype=float))[0])

    def _active(self, alpha) -> int:
        """k(alpha) past alpha_full, else N (a nan alpha too, which gives nan)."""
        if not alpha > self.alpha_full:
            return self._N
        return min(self._N, int(math.exp(self._reach / (self._slope + 2.0 * alpha))) + 1)

    def column(self, alphas: np.ndarray) -> np.ndarray:
        """The centred value at each alpha >= 0 of a 1-D array: `columns` of this one observation."""
        return columns((self,), alphas)[0]

    def slope(self, alpha: float) -> tuple[float, float]:
        """First and second derivative of the centred value at one alpha >= 0.

        With L = log i, r = 1/(1 + u) and w = u r, du/dalpha = -2 L u gives

            d1 = sum_i L w (1 - n y_i^2 r),
            d2 = -2 sum_i L^2 w r (1 - n y_i^2 (r - w)),

        over the active prefix `column` reads; a coordinate past it, where
        w < e^-37, would add less than e^-37 L (1 + n y_i^2) to d1.  Both sums
        are formed in place in one `Design.blocks` block, with r - w = 2r - 1.
        """
        _, (u,), (r,) = next(self.design.blocks(np.array([alpha], dtype=float), self._active))
        k = u.size
        log_i, ny2 = self.design.log_i[:k], self.ny2[:k]
        np.reciprocal(r, r)
        np.multiply(u, r, u)  # w
        lw = u @ log_i
        np.multiply(u, r, u)
        np.multiply(u, log_i, u)  # L w r
        lwr_ny2 = u @ ny2
        l2wr = u @ log_i
        np.multiply(u, log_i, u)  # L^2 w r
        np.multiply(r, 2.0, r)
        np.subtract(r, 1.0, r)
        np.multiply(r, ny2, r)  # n y^2 (r - w)
        return float(lw - lwr_ny2), -2.0 * float(l2wr - u @ r)


def _suffix_sums(ny2: np.ndarray) -> np.ndarray:
    """t[k] = sum_{i >= k} ny2[i] (0-based) for k < N, and t[N] = 0.

    Each sum is carried in long double and rounded once.  The terms are
    added from the last one down, SUFFIX_CHUNK at a time: each chunk's
    cumsum starts from the carry of the chunks after it, its element 0, so
    every addition is the one a single long-double cumsum of the reversed
    terms makes (the first chunk's carry is 0, and 0 + x is x for the
    x >= 0 here), and no N-long long-double array is held.
    """
    N = ny2.size
    out = np.zeros(N + 1)
    buf = np.zeros(SUFFIX_CHUNK + 1, dtype=np.longdouble)
    for end in range(N, 0, -SUFFIX_CHUNK):
        start = max(end - SUFFIX_CHUNK, 0)
        run = buf[:end - start + 1]
        run[1:] = ny2[start:end][::-1]
        np.cumsum(run, out=run)
        out[start:end] = run[:0:-1]
        buf[0] = run[-1]
    return out


class Block(NamedTuple):
    """One block of a `columns` call, as its visitor sees it.

    The block's alphas are alphas[start:start + len(r)], and log1p_u and r
    its (rows, k) halves, log(1 + u) and 1/(1 + u), over the active prefix
    of k coordinates.  log_sum holds the row sums of log1p_u and values the
    block's finished centred values, one row per Loglik.  w is the data
    weight u r, rows by the same k coordinates, when the call asked for
    it, else None.
    """

    start: int
    log1p_u: np.ndarray
    r: np.ndarray
    log_sum: np.ndarray
    values: np.ndarray
    w: np.ndarray | None


def columns(ells: Sequence[Loglik], alphas: np.ndarray, visit=None, data_weights: bool = False) -> np.ndarray:
    """Row j is the centred value of ells[j] at each alpha >= 0 of a 1-D array.

    Every Loglik must be of observations with one model, n and N, so they
    share the design, the prefix lengths and with them every block.  Each
    `Design.blocks` block covers the active prefix of its smallest alpha.
    Its u half becomes log(1 + u) and its 1 + u half r = 1/(1 + u) in
    place, once for all observations, and one gemv against ones sums its
    log(1 + u) rows.  Each observation then adds its own gemv of r against
    its n*y^2 and its suffix term, so row j has the bits of the same sum
    taken for ells[j] alone.

    visit, if given, is called once per block with its `Block`, after the
    block's values are final.  log1p_u, r and w are spent by then, so the
    visitor may overwrite them; it changes no bit of the rows.  With
    data_weights, a buffer of half a block's size takes r, the u half the
    data weight w = u r, as every layer forms it, and the 1 + u half
    log(1 + u), with the bits of the in-place path; without, no block does
    that work.
    """
    first = ells[0]
    if any(ell._key != first._key for ell in ells):
        raise ValueError("a shared scan needs observations of one model, n and N")
    out = np.empty((len(ells), alphas.size))
    spare = np.empty(min(block_rows(first._N), max(alphas.size, 1)) * first._N) if data_weights else None
    w = None
    for s, u, u1 in first.design.blocks(alphas, first._active):
        k = u.shape[1]
        if spare is None:
            log1p_u, r = u, u1
            np.log(u1, log1p_u)
            np.reciprocal(u1, r)
        else:
            log1p_u, r, w = u1, spare[:u.size].reshape(u.shape), u
            np.reciprocal(u1, r)
            np.multiply(u, r, w)
            np.log(u1, log1p_u)
        log_sum = log1p_u @ first._ones[:k]
        values = out[:, s:s + len(r)]
        for row, ell in zip(values, ells):
            row[:] = -0.5 * (log_sum + r @ ell.ny2[:k] + ell._suffix[k])
        if visit is not None:
            visit(Block(s, log1p_u, r, log_sum, values, w))
    return out


def log_likelihood(alpha: float, obs: Observation) -> float:
    """Marginal log likelihood of alpha, finite and >= 0, given the observation."""
    _checked_alpha(alpha)
    ell = Loglik(obs)
    return ell(alpha) + ell.offset


def score(alpha: float, obs: Observation) -> float:
    """Derivative of the marginal log likelihood in alpha, `Loglik.slope`'s first.

    Written with the data weight w_i = n/(i^(1+2a)*kappa_i^-2 + n):
    sum_i log(i) * (w_i - w_i * (1 - w_i) * n * y_i^2).  alpha must be finite and >= 0.
    """
    _checked_alpha(alpha)
    return Loglik(obs).slope(alpha)[0]


class Scan(NamedTuple):
    """An observation's centred values on the search grid, and the Loglik they came from."""

    ell: Loglik
    alphas: np.ndarray
    centred: np.ndarray


def scans(observations: Iterable[Observation]) -> Iterator[tuple[Observation, Scan]]:
    """Each observation of one model, n and N with its Scan, in the order given.

    The grid has GRID_SIZE points over [0, log n].  The observations are
    drawn lazily, a group at a time, and one `columns` call fills each block
    of the grid once for a whole group.  A group holds at most
    SCAN_GROUP // (N + GRID_SIZE) observations, so the n*y^2 vectors and
    scan rows held at once do not grow with the number of observations.
    `fit(obs, scan)` refines each.
    """
    it = iter(observations)
    for first in it:
        group = [first, *islice(it, max(1, SCAN_GROUP // (first.N + GRID_SIZE)) - 1)]
        ells = [Loglik(obs) for obs in group]
        top = math.log(first.n)
        if top <= 0:
            raise ConfigError("empirical Bayes search needs n > 1")
        alphas = np.linspace(0.0, top, GRID_SIZE)
        for obs, ell, row in zip(group, ells, columns(ells, alphas)):
            yield obs, Scan(ell, alphas, row)


def _newton_max(ell: Loglik, x: float, lo: float, hi: float) -> float:
    """Safeguarded Newton steps on `ell.slope` from x, kept inside [lo, hi].

    The sign of the first derivative at each point moves one end of the
    bracket there.  A step that would not land strictly inside the bracket,
    or one taken where the second derivative is not finite and negative,
    bisects it instead.  A point whose first derivative has a sign becomes
    an end of the bracket, so the bracket shrinks at every such step.  The
    steps stop at one shorter than STEP_TOL, or at once where the first
    derivative is exactly 0.
    """
    while True:
        d1, d2 = ell.slope(x)
        if d1 == 0.0:
            return x
        if d1 > 0.0:
            lo = x
        elif d1 < 0.0:
            hi = x
        nxt = x - d1 / d2 if -math.inf < d2 < 0.0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        step, x = nxt - x, nxt
        if abs(step) < STEP_TOL:
            return x


def fit(obs: Observation, scan: Scan | None = None) -> EbFit:
    """Maximize ell over [0, log n]: grid scan plus safeguarded Newton refinement.

    scan is obs's Scan from `scans`; without it, obs is scanned alone.
    The GRID_SIZE-point scan is refined by `_newton_max` from the best grid
    point, between its neighbours, and ell is evaluated once at the result.
    The refined candidate replaces the best grid point only when it is
    strictly better, so exact endpoint maximizers (zero data pulls the
    maximizer to log n) and smallest-alpha tie-breaking are preserved.  A
    candidate that is the grid point itself is not evaluated.
    """
    ell, alphas, centred = next(scans([obs]))[1] if scan is None else scan
    if not np.all(np.isfinite(centred)):
        bad = alphas[~np.isfinite(centred)][0]
        raise NumericalError(f"log likelihood non-finite at alpha={bad}")
    # np.argmax takes the first maximizer, i.e. the smallest alpha on ties.
    k = int(np.argmax(centred))
    curve = LikelihoodCurve(alphas=alphas, values=centred + ell.offset, argmax_index=k)
    alpha_hat = float(alphas[k])
    cand = _newton_max(ell, alpha_hat, float(alphas[max(k - 1, 0)]),
                       float(alphas[min(k + 1, alphas.size - 1)]))
    refined = False
    if cand != alpha_hat:
        cand_val = ell(cand)
        if not math.isfinite(cand_val):
            raise NumericalError("log likelihood non-finite during refinement")
        refined = bool(cand_val > centred[k])
        if refined:
            alpha_hat = cand
    return EbFit(alpha_hat=alpha_hat, curve=curve, refined=refined)


def eb_posterior(obs: Observation, eb_fit: EbFit) -> CoordinatePosterior:
    """Plug-in posterior at the fitted alpha."""
    return posterior(eb_fit.alpha_hat, obs)
