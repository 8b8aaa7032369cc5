"""Deterministic diagnostics: where the likelihood maximizer can fall,
and the benchmark convergence rates it should deliver.

The central object is a functional of the true coefficients,

    diag(a) = (1+2a+2p) / (n^(1/(1+2a+2p)) * log n)
              * sum_i n^2 i^(1+2a) mu_i^2 log(i) / (i^(1+2a)/kappa_i^2 + n)^2,

whose first up-crossings of a small threshold l and of a large threshold
L*(log n)^2 bracket the empirical-Bayes estimate from below and above.
The i = 1 term vanishes (log 1 = 0), so the diagnostic is identically
zero exactly when the truth lives on the first coordinate alone.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sequence_model import Design, ModelSpec, design, weight_product

DEFAULT_LOWER_THRESHOLD = 0.01
DEFAULT_UPPER_COEFF = 1.0
SCAN_STEP = 1e-3
REFINE_TOL = 1e-6


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
        d = {
            "alpha_lower": self.alpha_lower,
            "alpha_upper": None if math.isinf(self.alpha_upper) else self.alpha_upper,
            "lower_threshold": self.lower_threshold,
            "upper_threshold": self.upper_threshold,
            "n": self.n,
            "p": self.p,
            "scan_cap": self.scan_cap,
            "upper_status": self.upper_status,
        }
        return json.dumps(d, sort_keys=True)

    def write_curve_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["alpha", "diagnostic"])
            for a, v in zip(self.curve_alphas, self.curve_values):
                w.writerow([repr(float(a)), repr(float(v))])


def _prefactor(alpha: float, p: float, n: float) -> float:
    q = 1.0 + 2.0 * alpha + 2.0 * p
    return q / (math.exp(math.log(n) / q) * math.log(n))


def _weighted_truth(mu0: np.ndarray, model: ModelSpec, n: float) -> tuple[Design, np.ndarray]:
    """The design of the truth's coordinates and the alpha-free part of each
    diagnostic term, n*kappa_i^2 * mu_i^2 * log i."""
    d = design(model, n, mu0.size)
    return d, n * d.kappa**2 * mu0**2 * d.log_i


def bracket_diagnostic(alpha: float, mu0: np.ndarray, model: ModelSpec, n: float) -> float:
    """The diagnostic above at a single alpha, truncated at len(mu0) terms.

    Computed through the data weight w_i = n/(i^(1+2a)/kappa_i^2 + n) as
    sum_i w_i*(1-w_i) * n*kappa_i^2 * mu_i^2 * log i, which never forms a
    large power explicitly.
    """
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    if n <= math.e:
        raise ConfigError("diagnostic needs log n > 1")
    d, vec = _weighted_truth(np.asarray(mu0, dtype=float), model, n)
    return _prefactor(alpha, model.p, n) * float(np.sum(weight_product(d.log_odds(alpha)) * vec))


def _first_crossing(values: np.ndarray, threshold: float) -> int | None:
    idx = np.nonzero(values > threshold)[0]
    return int(idx[0]) if idx.size else None


def _bisect_crossing(f, lo: float, hi: float, threshold: float) -> float:
    """Smallest alpha in (lo, hi] with f(alpha) > threshold, to REFINE_TOL."""
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) > threshold:
            hi = mid
        else:
            lo = mid
    return hi


def bracket(mu0: np.ndarray, model: ModelSpec, n: float,
            l: float = DEFAULT_LOWER_THRESHOLD,
            L: float = DEFAULT_UPPER_COEFF) -> BracketReport:
    """Locate the two threshold crossings of the diagnostic.

    The lower bracket is min(first crossing of l, sqrt(log n)); the upper
    bracket is the first crossing of L*(log n)^2, scanned up to
    log n / (2*log 2) (beyond which a crossing is guaranteed whenever the
    second coordinate of the truth is non-zero).  Grid step 1e-3, each
    crossing refined by bisection to 1e-6.
    """
    if l <= 0 or L <= 0:
        raise ConfigError("thresholds must be positive")
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.size < 1:
        raise ConfigError("need at least one coefficient")
    if n <= math.e:
        raise ConfigError("bracket needs log n > 1")
    logn = math.log(n)

    p = model.p
    upper_threshold = L * logn**2
    sqrt_logn = math.sqrt(logn)
    cap = logn / (2.0 * math.log(2.0))
    scan_hi = max(cap, sqrt_logn)

    d, vec = _weighted_truth(mu0, model, n)

    def h(alpha: float) -> float:
        return _prefactor(alpha, p, n) * float(np.dot(weight_product(d.log_odds(alpha)), vec))

    identically_zero = bool(np.max(vec, initial=0.0) == 0.0)

    alphas = np.arange(SCAN_STEP, scan_hi + SCAN_STEP, SCAN_STEP)
    pref = (1.0 + 2.0 * alphas + 2.0 * p) / (
        np.exp(logn / (1.0 + 2.0 * alphas + 2.0 * p)) * logn)

    lower_cross: float | None = None
    upper_cross: float | None = None
    curve_a: list[np.ndarray] = []
    curve_v: list[np.ndarray] = []
    chunk = 512
    for start in range(0, alphas.size, chunk):
        a_blk = alphas[start:start + chunk]
        # s stays bound until the next block's s replaces it.  Freed inside the
        # kernel call instead, the block buffers go back to the system on every
        # chunk and are page-faulted in again (80% more faults at N = 4642).
        s = d.log_odds(a_blk[:, None])
        vals = pref[start:start + chunk] * (weight_product(s, out=s) @ vec)
        curve_a.append(a_blk)
        curve_v.append(vals)
        if lower_cross is None:
            k = _first_crossing(vals, l)
            if k is not None:
                lo = a_blk[k] - SCAN_STEP if start + k > 0 else 1e-9
                lower_cross = _bisect_crossing(h, lo, float(a_blk[k]), l)
        if upper_cross is None:
            k = _first_crossing(vals, upper_threshold)
            if k is not None and a_blk[k] <= cap:
                lo = a_blk[k] - SCAN_STEP if start + k > 0 else 1e-9
                upper_cross = _bisect_crossing(h, lo, float(a_blk[k]), upper_threshold)
        done_lower = lower_cross is not None or a_blk[-1] >= sqrt_logn
        if done_lower and (upper_cross is not None or a_blk[-1] >= cap):
            break

    alpha_lower = min(lower_cross if lower_cross is not None else math.inf, sqrt_logn)
    if upper_cross is not None:
        alpha_upper = upper_cross
        status = "crossed"
    elif identically_zero:
        alpha_upper = math.inf
        status = "identically-zero"
    else:
        alpha_upper = math.inf
        status = "no-crossing-below-cap"

    all_a = np.concatenate(curve_a)
    all_v = np.concatenate(curve_v)
    step = max(1, all_a.size // 1024)
    return BracketReport(
        alpha_lower=float(alpha_lower),
        alpha_upper=float(alpha_upper),
        lower_threshold=float(l),
        upper_threshold=float(upper_threshold),
        n=float(n),
        p=float(p),
        scan_cap=float(cap),
        upper_status=status,
        curve_alphas=all_a[::step],
        curve_values=all_v[::step],
    )


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


def slowly_varying_factor(kind: str, p: float, n: float) -> float:
    """The slack factor in the adaptation guarantee.

    "sobolev": (log n)^2 * (log log n)^(1/2)
    "analytic": (log n)^((1/2+p)*sqrt(log n)/2 + 1 - p) * (log log n)^(1/2)
    """
    if p < 0:
        raise ConfigError("need p >= 0")
    # tolerant boundary: e**e and exp(e) differ by a few ulps
    if n < math.exp(math.e) * (1.0 - 1e-12):
        raise ConfigError("need n >= e^e so that log log n >= 1")
    logn = math.log(n)
    loglogn = math.log(logn)
    if kind == "sobolev":
        return logn**2 * math.sqrt(loglogn)
    if kind == "analytic":
        return logn ** ((0.5 + p) * math.sqrt(logn) / 2.0 + 1.0 - p) * math.sqrt(loglogn)
    raise ConfigError(f"unknown kind {kind!r}")
