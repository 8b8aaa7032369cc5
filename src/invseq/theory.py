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
the bisection that refines it.  The scan runs coarse to fine.  It
evaluates every STRIDE-th alpha of the grid, one row block of
`Design.blocks` to a column (at most COARSE_COLUMN alphas: 64 up to
N = 2048, 4 at the cap), and bounds diag between two coarse points by the
growth its derivative in alpha allows.  Only an interval whose bound
reaches a threshold is searched.  Up to N = 8192 it is evaluated point by
point; past it, where a block holds fewer rows than an interval, its
points every block_rows(N) grid steps are evaluated first, and only the
sub-intervals whose own bound reaches the threshold are evaluated point
by point.  The first grid alpha there above the threshold is the
crossing.  Every column the scan evaluates reproduces, bit for bit, the
values of one column over the whole grid, so the scan finds what a scan
of the whole grid finds.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .sequence_model import S_FLOOR, ModelSpec, _checked_alpha, block_rows, design

LOWER_THRESHOLD = 0.01  # l
UPPER_COEFF = 1.0  # L, of the upper threshold L*(log n)^2
SCAN_STEP = 1e-3
REFINE_TOL = 1e-6
# grid steps from one coarse point of the scan to the next, and the most coarse points per column
# it evaluates; both multiples of 4, so BLAS sums every row of those columns four at a time (_Grid)
STRIDE = 16
COARSE_COLUMN = 64
BOUND_MARGIN = 1e-9  # relative slack of the scan's bound, far above the rounding of a value


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
    evaluated: int  # alphas `_Diagnostic.column` evaluated, bisection included; not in to_json

    def to_json(self) -> str:
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
             if f.name not in ("curve_alphas", "curve_values", "evaluated")}
        d["alpha_upper"] = None if math.isinf(self.alpha_upper) else self.alpha_upper
        return json.dumps(d, sort_keys=True)


class _Diagnostic:
    """diag(alpha) of one truth at one (model, n).

    Holds the design of the truth's coordinates and the alpha-free part of
    each term, n*kappa_i^2 * mu_i^2 * log i.  Each term is that part times
    w_i*(1-w_i) = u_i*r_i*r_i, with w_i = n/(i^(1+2a)/kappa_i^2 + n) the data
    weight formed from the blocks of `Design.blocks`, so no large power is
    formed explicitly.  The alpha-free parts must have a finite sum:
    w(1 - w) <= 1/4, so every total is at most a quarter of it.

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
        with np.errstate(over="ignore", invalid="ignore"):
            self.terms = n * d.kappa**2 * mu0**2 * d.log_i
            if not math.isfinite(self.terms.sum()):
                raise NumericalError("the diagnostic's terms n kappa_i^2 mu_i^2 log i "
                                     "are not finite or overflow their sum")
        self.p = model.p
        self.logn = math.log(n)
        # s_i(alpha) <= S_FLOOR  <=>  1 + 2 alpha >= (log(n kappa_i^2) - S_FLOOR) / log i
        top = np.max((d.log_nk2[1:] - S_FLOOR) / d.log_i[1:], initial=1.0)
        self.alpha_floor = 0.5 * (float(top) - 1.0)
        # log i of the last non-zero term, not of N: an analytic truth's terms underflow to 0
        # (past i = 372 at gamma = 1)
        self.log_i_max = float(np.max(d.log_i, where=self.terms != 0.0, initial=0.0))
        self.evaluated = 0  # alphas evaluated so far

    def column(self, alphas: np.ndarray) -> np.ndarray:
        """diag at each alpha of a 1-D array.

        Each `Design.blocks` block's terms are summed by one matrix-vector
        product, so a single alpha's by a one-row one.  At N = 1e5 a row of
        a block is within 10 eps of a long-double sum, a single alpha within
        70 eps.
        """
        self.evaluated += alphas.size
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

    def growth(self, alphas: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """A bound on diag(alpha + h) / diag(alpha) for 0 <= h <= width, at each pair.

        Each term is alpha-free data times w(1 - w), whose log-derivative
        in alpha, 2 log i (2w - 1), is at most 2 log i in size, and 0 where
        S_FLOOR clamps s_i.  The prefactor's, 2/q + 2 log n / q^2 with
        q = 1 + 2 alpha + 2p, falls as alpha grows.  The zeroing from
        alpha_floor only lowers values.
        """
        q = 1.0 + 2.0 * alphas + 2.0 * self.p
        rate = 2.0 * self.log_i_max + 2.0 / q + 2.0 * self.logn / q**2
        return np.exp(widths * rate) * (1.0 + BOUND_MARGIN)


class _Grid:
    """diag on the scan grid, each value bit for bit as in one column over the whole grid.

    BLAS sums the rows of a block four at a time, whichever alphas they
    hold, so any column of 4k rows reproduces those values; a shorter
    column is padded by repeating its last alpha.  Only the whole column's
    last block can differ: when its rows are not a multiple of 4, the last
    few are summed apart, a lone row by a dot product.  That block, from
    `body` on, is evaluated once, whole, when a value in it is first read.
    """

    def __init__(self, diag: _Diagnostic, alphas: np.ndarray):
        self.diag, self.alphas = diag, alphas
        self.rows = block_rows(diag.terms.size)  # alphas per `Design.blocks` block
        M = alphas.size
        self.body = M - M % min(self.rows, M) if M % 4 else M
        self._tail = None

    def at(self, idx: np.ndarray) -> np.ndarray:
        """diag at the increasing grid indices idx."""
        k = int(np.searchsorted(idx, self.body))
        parts = []
        if k:
            a = self.alphas[idx[:k]]
            parts.append(self.diag.column(np.pad(a, (0, -k % 4), mode="edge"))[:k])
        if k < idx.size:
            if self._tail is None:
                self._tail = self.diag.column(self.alphas[self.body:])
            parts.append(self._tail[idx[k:] - self.body])
        return np.concatenate(parts)


def bracket_diagnostic(alpha: float, mu0: np.ndarray, model: ModelSpec, n: float) -> float:
    """The diagnostic above at a single alpha, finite and >= 0, truncated at len(mu0) terms."""
    _checked_alpha(alpha)
    return _Diagnostic(np.asarray(mu0, dtype=float), model, n)(alpha)


def bracket(mu0: np.ndarray, model: ModelSpec, n: float) -> BracketReport:
    """Locate the two threshold crossings of the diagnostic.

    The lower bracket is min(first crossing of LOWER_THRESHOLD, sqrt(log n));
    the upper bracket is the first crossing of UPPER_COEFF*(log n)^2,
    scanned up to log n / (2*log 2) (beyond which a crossing is guaranteed
    whenever the second coordinate of the truth is non-zero).  `_scan`
    looks for each on the grid of step 1e-3: the lower one up to the first
    grid alpha at or past sqrt(log n), the upper one up to the last at or
    below the cap.  `_crossing` refines the first grid alpha above a
    threshold by bisection to 1e-6.  The curve is diag at the scan's coarse
    points, every STRIDE-th alpha of the grid, up to the first at or past
    the later end of the two searches.  An identically-zero diagnostic is
    not scanned: its curve is zero at every coarse point of the grid.
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
    targets = ((LOWER_THRESHOLD, min(int(np.searchsorted(alphas, sqrt_logn)), alphas.size - 1)),
               (upper_threshold, int(np.searchsorted(alphas, cap, side="right")) - 1))
    zero = not np.any(diag.terms)
    if zero:
        firsts, values = (None, None), np.zeros(alphas[::STRIDE].size)
    else:
        firsts, values = _scan(diag, alphas, targets)
    lower_cross, upper_cross = (None if k is None else _crossing(diag, alphas, k, threshold)
                                for k, (threshold, _) in zip(firsts, targets))

    alpha_lower = sqrt_logn if lower_cross is None else min(lower_cross, sqrt_logn)
    alpha_upper = math.inf if upper_cross is None else upper_cross
    status = ("crossed" if upper_cross is not None else
              "identically-zero" if zero else "no-crossing-below-cap")

    return BracketReport(
        alpha_lower=float(alpha_lower),
        alpha_upper=float(alpha_upper),
        lower_threshold=LOWER_THRESHOLD,
        upper_threshold=float(upper_threshold),
        n=float(n),
        p=float(model.p),
        scan_cap=float(cap),
        upper_status=status,
        curve_alphas=alphas[::STRIDE][:values.size],
        curve_values=values,
        evaluated=diag.evaluated,
    )


def _scan(diag: _Diagnostic, alphas: np.ndarray, targets) -> tuple[list, np.ndarray]:
    """Search the grid alphas for each (threshold, stop) of targets.

    Returns the first grid index k <= stop with diag(alphas[k]) > threshold
    for each target, None where there is none, and diag at the coarse
    points alphas[::STRIDE] up to the first at or past the later end of the
    searches, k or else stop.  Each coarse point starts an interval of
    STRIDE grid alphas or fewer.  Where the point's value times the
    interval's `_Diagnostic.growth` stays at or below a threshold, no value
    in the interval is above it; any other interval a search reaches is
    searched by `_first_above`.  The coarse points are evaluated in columns
    of one row block, at most COARSE_COLUMN of them, until every search has
    ended: blocks share no work, so a longer column costs as much per alpha
    and evaluates points past the searches' ends.
    """
    grid = _Grid(diag, alphas)
    starts = np.arange(0, alphas.size, STRIDE)
    ends = np.minimum(starts + STRIDE, alphas.size)
    growth = diag.growth(alphas[starts], alphas[ends - 1] - alphas[starts])
    firsts = [None] * len(targets)
    searching = list(range(len(targets)))
    columns = []
    size = min(COARSE_COLUMN, grid.rows)
    for c in range(0, starts.size, size):
        if not searching:
            break
        columns.append(grid.at(starts[c:c + size]))
        j = np.arange(c, c + columns[-1].size)
        bound = columns[-1] * growth[j]
        for t in searching[:]:
            threshold, stop = targets[t]
            for i in j[(bound > threshold) & (starts[j] <= stop)]:
                firsts[t] = _first_above(grid, starts[i], ends[i], threshold, stop)
                if firsts[t] is not None:
                    break
            if firsts[t] is not None or ends[j[-1]] > stop:
                searching.remove(t)
    values = np.concatenate(columns)
    reach = max(stop if k is None else k for k, (_, stop) in zip(firsts, targets))
    last = min(-(-reach // STRIDE), starts.size - 1)
    if last >= values.size:
        values = np.concatenate([values, grid.at(starts[values.size:last + 1])])
    return firsts, values[:last + 1]


def _first_above(grid: _Grid, lo: int, hi: int, threshold: float, stop: int) -> int | None:
    """The first grid index k in [lo, hi), k <= stop, with diag(alphas[k]) > threshold, or None.

    Where a block holds fewer rows than an interval (N > 8192), the points
    every `grid.rows` grid steps are evaluated first, in one column, and
    bound their sub-intervals as the coarse points bound theirs; only a
    sub-interval whose bound reaches the threshold is evaluated point by
    point.  At N <= 8192 that level would cost more numpy calls than it
    saves rows, so the interval is evaluated whole.
    """
    if grid.rows < STRIDE:
        subs = np.arange(lo, hi, grid.rows)
        sub_ends = np.minimum(subs + grid.rows, hi)
        alphas = grid.alphas
        bound = grid.at(subs) * grid.diag.growth(alphas[subs], alphas[sub_ends - 1] - alphas[subs])
        keep = (bound > threshold) & (subs <= stop)
        pieces = zip(subs[keep], sub_ends[keep])
    else:
        pieces = [(lo, hi)]
    for a, b in pieces:
        above = np.flatnonzero(grid.at(np.arange(a, b))[:stop + 1 - a] > threshold)
        if above.size:
            return int(a + above[0])
    return None


def _crossing(diag: _Diagnostic, alphas: np.ndarray, k: int, threshold: float) -> float:
    """The first alpha with diag(alpha) > threshold, refined to REFINE_TOL.

    alphas[k] is the first alpha of the scan grid with diag above threshold.
    """
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

