"""Deterministic diagnostics: where the likelihood maximizer can fall,
and the benchmark convergence rates it should deliver.

The central object is a functional of the true coefficients,

    diag(a) = (1+2a+2p) / (n^(1/(1+2a+2p)) * log n)
              * sum_i n^2 i^(1+2a) mu_i^2 log(i) / (i^(1+2a)/kappa_i^2 + n)^2,

whose first up-crossings of a small threshold l = 0.01 and of a large
threshold L*(log n)^2 with L = 1 bracket the empirical-Bayes estimate from
below and above.
The i = 1 term vanishes (log 1 = 0), so the diagnostic is identically
zero exactly when the truth lives on the first coordinate alone.

One evaluator, built once per (truth, model, n), computes diag wherever
it is needed: at a column of alphas for the scan that finds a crossing,
and at a single alpha, a column of one, for bracket_diagnostic and for
the bisection that refines it.  The scan fills CHUNK alphas at a time,
each chunk a column filled in the cache-sized blocks of `Design.blocks`,
until every crossing it looks for is found or ruled out; both crossings
are then read off the finished scan.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sequence_model import S_FLOOR, ModelSpec, _checked_alpha, design

LOWER_THRESHOLD = 0.01  # l
UPPER_COEFF = 1.0  # L, of the upper threshold L*(log n)^2
SCAN_STEP = 1e-3
REFINE_TOL = 1e-6
# alphas per scanned chunk, at whose ends the scan may stop; a multiple of every
# block_rows(N), so each alpha's row sums to the same bits in whichever chunk it falls
CHUNK = 512


@dataclass(frozen=True)
class BracketReport:
    """Output of bracket(): crossing points plus the sampled diagnostic curve.

    alpha_upper is +inf either because the diagnostic is identically zero
    (truth supported on coordinate 1; upper_status "identically-zero") or
    because no crossing occurred below the scan cap ("no-crossing-below-cap").
    """

    alpha_lower: float
    alpha_upper: float
    lower_threshold: float
    upper_threshold: float
    n: float
    p: float
    scan_cap: float
    upper_status: str
    curve_alphas: np.ndarray
    curve_values: np.ndarray

    def to_json(self) -> str:
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
             if f.name not in ("curve_alphas", "curve_values")}
        d["alpha_upper"] = None if math.isinf(self.alpha_upper) else self.alpha_upper
        return json.dumps(d, sort_keys=True)


class _Diagnostic:
    """diag(alpha) of one truth at one (model, n).

    Holds the design of the truth's coordinates and the alpha-free part of
    each term, n*kappa_i^2 * mu_i^2 * log i.  Each term is that part times
    w_i*(1-w_i) = u_i*r_i*r_i, with w_i = n/(i^(1+2a)/kappa_i^2 + n) the data
    weight formed from the blocks of `Design.blocks`, so no large power is
    formed explicitly.

    From alpha_floor on, every s_i with i >= 2 sits at S_FLOOR, so the
    blocks would hold e^-700 in place of terms that have underflowed, and
    the prefactor, linear in alpha, would make that floor grow.  There diag
    is exactly 0.  alpha_floor lies above the scan cap log n / (2 log 2)
    unless kappa_2 is below about e^-350.
    """

    def __init__(self, mu0: np.ndarray, model: ModelSpec, n: float):
        if not math.e < n < math.inf:
            raise ConfigError("the diagnostic needs a finite n with log n > 1")
        self.design = d = design(model, n, mu0.size)
        self.terms = n * d.kappa**2 * mu0**2 * d.log_i
        self.p = model.p
        self.logn = math.log(n)
        # s_i(alpha) <= S_FLOOR  <=>  1 + 2 alpha >= (log(n kappa_i^2) - S_FLOOR) / log i
        top = np.max((d.log_nk2[1:] - S_FLOOR) / d.log_i[1:], initial=1.0)
        self.alpha_floor = 0.5 * (float(top) - 1.0)

    def column(self, alphas: np.ndarray) -> np.ndarray:
        """diag at each alpha of a 1-D array.

        Each `Design.blocks` block's terms are summed by one matrix-vector
        product, so a single alpha's by a one-row one.  At N = 1e5 a row of
        a block is within 10 eps of a long-double sum, a single alpha within
        70 eps.
        """
        total = np.empty(alphas.size)
        for s, u, r in self.design.blocks(alphas):
            np.reciprocal(r, r)
            u *= r
            u *= r
            total[s:s + len(u)] = u @ self.terms
        total[alphas >= self.alpha_floor] = 0.0
        # the clamp keeps 1 + 2 alpha finite up to the float max
        q = 1.0 + 2.0 * np.minimum(alphas, self.alpha_floor) + 2.0 * self.p
        return q / (np.exp(self.logn / q) * self.logn) * total

    def __call__(self, alpha: float) -> float:
        return float(self.column(np.array([alpha]))[0])


def bracket_diagnostic(alpha: float, mu0: np.ndarray, model: ModelSpec, n: float) -> float:
    """The diagnostic above at a single alpha, finite and >= 0, truncated at len(mu0) terms."""
    _checked_alpha(alpha)
    return _Diagnostic(np.asarray(mu0, dtype=float), model, n)(alpha)


def bracket(mu0: np.ndarray, model: ModelSpec, n: float) -> BracketReport:
    """Locate the two threshold crossings of the diagnostic.

    The lower bracket is min(first crossing of LOWER_THRESHOLD, sqrt(log n));
    the upper bracket is the first crossing of UPPER_COEFF*(log n)^2,
    scanned up to log n / (2*log 2) (beyond which a crossing is guaranteed
    whenever the second coordinate of the truth is non-zero).  The scan
    fills the grid of step 1e-3 CHUNK alphas at a time, each chunk one
    column of `_Diagnostic.column`, and stops at the first chunk end where
    each threshold is either exceeded by a scanned value or past its limit,
    sqrt(log n) for the lower and the cap for the upper.  Each crossing is
    then read off the finished scan by `_crossing`, which refines it by
    bisection to 1e-6.  An identically-zero diagnostic is not scanned: its
    curve is zero over the whole grid.
    """
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.size < 1:
        raise ConfigError("need at least one coefficient")
    diag = _Diagnostic(mu0, model, n)
    logn = diag.logn
    upper_threshold = UPPER_COEFF * logn**2
    sqrt_logn = math.sqrt(logn)
    cap = logn / (2.0 * math.log(2.0))

    alphas = np.arange(SCAN_STEP, max(cap, sqrt_logn) + SCAN_STEP, SCAN_STEP)
    zero = not np.any(diag.terms)
    chunks = [np.zeros(alphas.size)] if zero else []
    peak = -math.inf
    for start in range(0, 0 if zero else alphas.size, CHUNK):
        a = alphas[start:start + CHUNK]
        chunks.append(diag.column(a))
        peak = max(peak, chunks[-1].max())
        if (peak > LOWER_THRESHOLD or a[-1] >= sqrt_logn) and (peak > upper_threshold or a[-1] >= cap):
            break
    values = np.concatenate(chunks)
    lower_cross = _crossing(diag, alphas, values, LOWER_THRESHOLD, math.inf)
    upper_cross = _crossing(diag, alphas, values, upper_threshold, cap)

    alpha_lower = sqrt_logn if lower_cross is None else min(lower_cross, sqrt_logn)
    alpha_upper = math.inf if upper_cross is None else upper_cross
    status = ("crossed" if upper_cross is not None else
              "identically-zero" if zero else "no-crossing-below-cap")

    step = max(1, values.size // 1024)
    return BracketReport(
        alpha_lower=float(alpha_lower),
        alpha_upper=float(alpha_upper),
        lower_threshold=LOWER_THRESHOLD,
        upper_threshold=float(upper_threshold),
        n=float(n),
        p=float(model.p),
        scan_cap=float(cap),
        upper_status=status,
        curve_alphas=alphas[:values.size:step],
        curve_values=values[::step],
    )


def _crossing(diag: _Diagnostic, alphas: np.ndarray, values: np.ndarray, threshold: float,
              limit: float) -> float | None:
    """The first alpha with diag(alpha) > threshold, refined to REFINE_TOL.

    values holds diag at the first values.size points of the scan grid
    alphas.  None when none of them is above threshold, or when the first
    that is lies past limit.
    """
    above = np.flatnonzero(values > threshold)
    if not above.size or alphas[above[0]] > limit:
        return None
    k = above[0]
    # smallest alpha in (lo, hi] with diag(alpha) > threshold; alphas[k - 1] can differ
    # from lo in the last bit, which moves the bisection's result
    lo = alphas[k] - SCAN_STEP if k > 0 else 1e-9
    hi = float(alphas[k])
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if diag(mid) > threshold:
            hi = mid
        else:
            lo = mid
    return hi


def minimax_rate_sobolev(beta: float, p: float, n: float) -> float:
    """n^(-beta/(1+2*beta+2*p)), the benchmark rate over a Sobolev ball."""
    if beta <= 0 or p < 0 or n <= 0:
        raise ConfigError("need beta > 0, p >= 0, n > 0")
    return n ** (-beta / (1.0 + 2.0 * beta + 2.0 * p))


def minimax_rate_analytic(p: float, n: float) -> float:
    """n^(-1/2) * (log n)^(1/2+p), the benchmark rate for analytic signals."""
    if p < 0 or n <= 1:
        raise ConfigError("need p >= 0, n > 1")
    return n**-0.5 * math.log(n) ** (0.5 + p)

