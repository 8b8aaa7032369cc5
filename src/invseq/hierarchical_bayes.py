"""Hierarchical Bayes: a hyperprior on alpha, sampled with mu integrated out.

The marginal posterior of alpha is pi(alpha) = lambda(alpha) * exp(ell(alpha)),
where ell is the marginal likelihood of all N observed coordinates, the
function empirical Bayes maximizes.  The chain walks pi by independence
Metropolis-Hastings (Tierney 1994) on (0, ALPHA_MAX].  Its proposal q
comes from a grid: a scan of log(alpha * pi), the density of log alpha,
finds the window where it is within WINDOW of its peak, extending to the
right as far as it must; GRID_CELLS cells, equal in log(alpha +
CELL_SHIFT), cover the window, and cell g carries the mass p_g of pi over
it by a one-point rule that integrates a gamma prior's power of alpha
exactly.  q spreads (1 - PRIOR_SHARE) of its mass evenly inside the cells
by those masses and draws the rest from lambda itself, a defensive
mixture (Hesterberg 1995), so q > 0 wherever pi > 0 and the ratio
pi(a') q(a) / (pi(a) q(a')) keeps the chain exact whatever the grid.
Proposals do not depend on the state, so CHUNK of them are drawn at a
time, and the accept loop compares their log weights w = log pi - log q.

A move needs only the decision whether w' - log U exceeds the current w,
not w' itself, and the grid's two scans of ell bound every w.  The column
of ell at the grid's nodes, which sets the cells' masses, encloses ell
between them: the chord between two nodes' values, widened by a bound on
ell's curvature over the gap, read off that column's own blocks, and on
every rounding, holds any value `Loglik.column` gives there, whatever
alphas share its column.  Outside the nodes' hull the window scan bounds
ell on both sides, since of its two halves, both of which the scan's
column forms, one falls and one rises with alpha (`_enclose`).  The loop decides
each move from the candidate's and the state's bounds where they do not
straddle the threshold, and evaluates w by `log_weights` only where they
cannot decide, for the candidate and the current state.  Over fewer than
ENCLOSE_MIN_N coordinates nothing is enclosed and every candidate is
evaluated, each chunk in one column.  The states, the acceptance rate and
the moments are those of the chain that evaluates every candidate.

Given alpha, mu_1..mu_N are conjugate, so the chain never draws mu.  Its
moments are the grid's quadrature of the exact posterior: the mixture of
the conjugate posteriors at the cells' nodes, weighted by p_g.  A
`gaussian_posterior.Mixture` joins it inside the node column, one block at
a time, from the data weights w = u r that `columns` hands the column's
visitor, each block weighted by exp(log p_g - the block's largest log
p_g), unnormalised.  Past a block's active prefix r is exactly 1, so w
there is the u of a `Design.blocks` fill of the rest.  The nodes' prefixes
are filled once, for the values, the enclosure and the moments.  alpha's
mean, quantiles and mode are read off the same cells (`HbChain.summary`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .empirical_bayes import Loglik, columns
from .errors import ConfigError, NumericalError
from .gaussian_posterior import Mixture
from .sequence_model import LOG_FLOAT_MAX, S_FLOOR, Observation

# where log(alpha * pi) is first scanned for the grid window: 5 points a decade up to 0.1, then 0.1 apart
SCAN_ALPHAS = np.concatenate([np.geomspace(1e-12, 0.1, 56)[:-1], np.linspace(0.1, 40.0, 400)])
ALPHA_MAX = 1e30  # the chain's target is pi on (0, ALPHA_MAX]; the window must close below it
WINDOW = 40.0  # the window keeps the scan points within this of the scan's peak
GRID_CELLS = 256  # cells of the proposal grid
CELL_SHIFT = 0.1  # cells are equal in log(alpha + CELL_SHIFT): even near 0, geometric past it
PRIOR_SHARE = 0.05  # the proposal's share drawn from the hyperprior
CHUNK = 1024  # proposals drawn, evaluated and accepted at a time
# The chain encloses ell only over at least this many coordinates; below, every candidate is
# evaluated.  There a chunk's column costs about as much as the enclosure's vector arithmetic:
# 4000-sweep chains (paper truth, n = N^3, one BLAS thread on a 2-vCPU x86 VM) broke even near
# N = 35, 3% slower enclosed at N = 30 and 4% faster at N = 46.
ENCLOSE_MIN_N = 40
EPS = 2.0**-53  # unit roundoff of a float


@dataclass(frozen=True)
class HyperPrior:
    """Prior density for alpha on (0, inf).

    Kinds: "exponential" (rate), "gamma" (shape, rate) and "inverse_gamma"
    (shape, scale).  All three have exponentially-or-polynomially decaying
    tails of the envelope form alpha^-c3 * exp(-c2*alpha) required for the
    adaptation guarantees.  The posterior at one fixed alpha is
    `gaussian_posterior.posterior`.
    """

    kind: str
    shape: float = 1.0
    rate: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exponential", "gamma", "inverse_gamma"):
            raise ConfigError(f"unknown hyperprior kind {self.kind!r}")
        for name in ("shape", "rate", "scale"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise ConfigError(f"hyperprior {name} must be positive and finite, got {v}")

    @classmethod
    def exponential(cls, rate: float = 1.0) -> "HyperPrior":
        return cls(kind="exponential", rate=float(rate))

    @classmethod
    def gamma(cls, shape: float, rate: float) -> "HyperPrior":
        return cls(kind="gamma", shape=float(shape), rate=float(rate))

    @classmethod
    def inverse_gamma(cls, shape: float, scale: float) -> "HyperPrior":
        return cls(kind="inverse_gamma", shape=float(shape), scale=float(scale))

    def log_density(self, alpha):
        """log lambda at a scalar alpha (a float) or elementwise on an array; -inf at alpha <= 0."""
        a = np.asarray(alpha, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):  # alpha <= 0 is masked below
            if self.kind == "exponential":
                v = math.log(self.rate) - self.rate * a
            elif self.kind == "gamma":
                v = (self.shape * math.log(self.rate) - math.lgamma(self.shape)
                     + (self.shape - 1.0) * np.log(a) - self.rate * a)
            else:
                v = (self.shape * math.log(self.scale) - math.lgamma(self.shape)
                     - (self.shape + 1.0) * np.log(a) - self.scale / a)
        v = np.where(a > 0, v, -math.inf)
        return v if v.ndim else float(v)

    def draw(self, rng, size: int) -> np.ndarray:
        """size independent draws of alpha."""
        if self.kind == "exponential":
            return rng.exponential(1.0 / self.rate, size)
        if self.kind == "gamma":
            return rng.gamma(self.shape, 1.0 / self.rate, size)
        with np.errstate(divide="ignore", over="ignore"):  # a gamma draw near 0 gives inf
            return self.scale / rng.gamma(self.shape, 1.0, size)


@dataclass(frozen=True)
class HbConfig:
    """Sampler settings.  alpha_init of None starts the chain at alpha = 1.

    The chain always covers every coordinate of the observation it runs on.
    """

    iterations: int
    burn_in: int | None = None
    seed: int = 0
    alpha_init: float | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("need at least one iteration")
        if not 0 <= self.resolved_burn_in() < self.iterations:
            raise ConfigError("burn_in must be in [0, iterations)")
        if self.alpha_init is not None and not 0.0 < self.alpha_init < math.inf:
            raise ConfigError(f"alpha_init must be positive and finite, got {self.alpha_init}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def resolved_burn_in(self) -> int:
        return self.iterations // 10 if self.burn_in is None else self.burn_in


class _Enclosure(NamedTuple):
    """Certified bounds on ell, the centred value `Loglik.column` gives, at every alpha.

    Between the grid's nodes the bounds are a chord's band: knots are the
    nodes it spans and values ell's column at them; for the gap from
    knots[g] to knots[g + 1], slopes[g] is the slope of the chord between
    their values, bends[g] bounds |ell''| / 2 over the gap and slack[g] the
    rounding.  Outside the knots' hull the window scan bounds them: scan
    holds its alphas, and floors[i] and ceilings[i] bound every column
    value at an alpha in [scan[i - 1], scan[i]), index 0 below scan[0] and
    the last from scan[-1] on (see `_enclose`).  With no knots the hull is
    empty.
    """

    knots: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    bends: np.ndarray
    slack: np.ndarray
    scan: np.ndarray
    floors: np.ndarray
    ceilings: np.ndarray

    def covers(self, alphas: np.ndarray) -> np.ndarray:
        """Where alphas lie in the knots' hull."""
        if not self.knots.size:
            return np.zeros(alphas.shape, dtype=bool)
        return (alphas >= self.knots[0]) & (alphas <= self.knots[-1])

    def at(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The chord's value at alphas in the hull and a half-width, past which no column of ell lies."""
        g = np.minimum(np.searchsorted(self.knots, alphas, side="right") - 1, self.slopes.size - 1)
        left = alphas - self.knots[g]
        right = self.knots[g + 1] - alphas
        return (self.values[g] + left * self.slopes[g],
                self.bends[g] * left * right + self.slack[g])

    def bounds(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds on every column value at each alpha: the chord's band in the hull, the scan's outside."""
        i = np.searchsorted(self.scan, alphas, side="right")
        lo, hi = self.floors[i], self.ceilings[i]
        inside = self.covers(alphas)
        mid, half = self.at(alphas[inside])
        lo[inside], hi[inside] = mid - half, mid + half
        return lo, hi


@dataclass(frozen=True)
class Proposal:
    """The independence proposal: the grid density mixed with the hyperprior.

    edges are the GRID_CELLS + 1 edges of the window's cells, nodes the
    cells' quadrature nodes and masses their p_g, summing to 1.  The
    density is q(a) = (1 - PRIOR_SHARE) * p_g / (cell g's width) +
    PRIOR_SHARE * lambda(a) for a in cell g, and PRIOR_SHARE * lambda(a)
    outside the window.  enclosure bounds ell at every alpha, and is None
    over fewer than ENCLOSE_MIN_N coordinates.  moments is the mixture of
    mu's conjugate posteriors at the nodes, weighted by the masses, as the
    node column joined it.  The masses' CDF and each cell's log grid
    density are built once, with the bits of forming them at each draw and
    density call.
    """

    hyper: HyperPrior
    edges: np.ndarray
    nodes: np.ndarray
    masses: np.ndarray
    enclosure: _Enclosure | None
    moments: Mixture = field(repr=False, compare=False)
    cdf: np.ndarray = field(init=False, repr=False)
    log_cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cdf", np.concatenate([[0.0], np.cumsum(self.masses)]))
        # log((1 - PRIOR_SHARE) * p_g / width) by cell, -inf left and right of the window
        with np.errstate(divide="ignore"):  # a cell whose mass underflowed to 0
            cells = math.log1p(-PRIOR_SHARE) + np.log(self.masses / np.diff(self.edges))
        object.__setattr__(self, "log_cells", np.concatenate([[-math.inf], cells, [-math.inf]]))

    def draw(self, rng, size: int) -> np.ndarray:
        """size independent draws from q."""
        # the grid part's CDF is linear inside each cell, so interpolation inverts it
        out = np.interp(rng.random(size) * self.cdf[-1], self.cdf, self.edges)
        prior = rng.random(size) < PRIOR_SHARE
        out[prior] = self.hyper.draw(rng, int(np.count_nonzero(prior)))
        return out

    def log_density(self, alphas: np.ndarray) -> np.ndarray:
        """log q elementwise."""
        grid = self.log_cells[np.searchsorted(self.edges, alphas, side="right")]
        return np.logaddexp(grid, math.log(PRIOR_SHARE) + self.hyper.log_density(alphas))


def grid_proposal(ell: Loglik, hyper: HyperPrior) -> Proposal:
    """The proposal for the target lambda * exp(ell) (see the module docstring)."""
    lo, hi, scan = _window(ell, hyper)
    edges = np.exp(np.linspace(math.log(lo + CELL_SHIFT), math.log(hi + CELL_SHIFT),
                               GRID_CELLS + 1)) - CELL_SHIFT
    edges[[0, -1]] = lo, hi
    nodes, log_w = _cell_rule(hyper, edges)
    log_prior = log_w + hyper.log_density(nodes)
    moments = Mixture(ell.design.log_i.size)
    # each node block's w covers its prefix; past it r == 1, so w is u, filled here in step
    tails = ell.design.blocks(nodes, ell._active, tail=True)

    def weigh(block):
        lp = log_prior[block.start:block.start + block.r.shape[0]] + block.values[0]
        top = float(lp.max())
        moments.add(np.exp(lp - top), top, block.w, next(tails)[1])

    if ell.design.log_i.size < ENCLOSE_MIN_N:
        values, enclosure = columns((ell,), nodes, weigh, data_weights=True)[0], None
    else:
        values, enclosure = _enclose(ell, nodes, *scan, weigh)
    lp = log_prior + values
    masses = np.exp(lp - lp.max())
    return Proposal(hyper, edges, nodes, masses / masses.sum(), enclosure, moments)


def _enclose(ell: Loglik, nodes: np.ndarray, scan: np.ndarray, scan_values: np.ndarray,
             logs: np.ndarray, weigh) -> tuple[np.ndarray, _Enclosure]:
    """ell's column at the nodes, and the enclosure of ell from that column's blocks and the window scan.

    weigh is handed each of the column's blocks, with its w, first.

    With L_i = log i, u_i = exp(s_i(a)) and r_i = 1/(1 + u_i), over the
    stored log i, log(n kappa_i^2) and n y_i^2, ell = -T/2 with

        T(a) = A(a) + B(a),  A = sum_i log(1 + u_i),  B = sum_i n y_i^2 r_i,

    sums of terms >= 0, A falling and B rising with alpha.  eps = 2^-53,
    and numpy's exp and log are taken to be within 4 ulps.  Past
    c = LOG_FLOAT_MAX - S_FLOOR `Design.blocks` evaluates alpha at c,
    where every u_i but u_1 is already below e^-700.  For a in a gap
    [x_g, x_g+1] between two knots, bends[g] and slack[g] give

        |column(a) - chord(a)| <= bends[g] (a - x_g)(x_g+1 - a) + slack[g],

    where column(a) is what any `Loglik.column` call gives at a and chord
    the line through the knots' values v_g, as `_Enclosure.at` forms it:

    1. Curvature.  ell'' = -2 sum_i L_i^2 r_i (1 - r_i)(1 - n y_i^2 (2 r_i - 1))
       (`Loglik.slope`, with 1 - 2w = 2r - 1), and over the gap each r_i
       lies between its values at the two knots.  So |ell''| <= M_g =
       2 sum_i L_i^2 P_i (1 + n y_i^2 Q_i), with P_i the largest r(1 - r)
       and Q_i the largest |2r - 1| over that range, and the chord of
       ell misses it by at most M_g/2 (a - x_g)(x_g+1 - a).  The r are read
       off the node column's blocks (`columns`' visitor).  A gap inside a
       block has both knots on its prefix.  A gap across a block boundary
       takes its left knot's row from the block before, over that block's
       prefix, and pads its right knot's shorter row with r = 1: past its
       own prefix u_i < e^-37 at the right knot, so r_i lies in
       (1 - e^-37, 1] there, and stretching the range [r(x_g), r(x_g+1)] to
       reach 1 can only raise P_i and Q_i.  Past the left knot's prefix
       u_i < e^-37 on the whole gap, so those coordinates add less than
       2 e^-37 L_i^2 (1 + n y_i^2) each.  The blocks' r are within tau =
       eps (3.1 S + 13) of the exact ones (step 2), and P and Q move by at
       most 1 and 2 times a move of r, so half M_g is at most the computed
       half plus (2 tau + 1e-16) sum_i L_i^2 (1 + n y_i^2), times
       1 + (N + 12) eps for the rounding of the sums and of the product at
       a.  That is bends.
    2. Rounding.  Any column's value at a is within rho(a) =
       eps [N + (N + 4 S + 24) |ell(a)|] of ell(a), where S =
       max |log(n kappa_i^2)| + log N (1 + 2 min(a_top, c)) bounds the
       terms of s_i for a <= a_top:
       - s_i is rounded three times, by at most 3.01 eps S, so u_i is within
         (3.02 S + 8.01) eps relative after exp's own error;
       - log(1 + u_i) is then within that times u_i r_i <= log(1 + u_i),
         8.1 eps log(1 + u_i) and 1.01 eps (the rounding of 1 + u_i), and
         n y_i^2 r_i within (3.02 S + 10.1) eps relative;
       - the gemvs over the prefix of k <= N terms and the additions of the
         two sums and the suffix sum add at most (k + 4) eps T;
       - a coordinate past the prefix, or of an alpha past c, adds n y_i^2
         for its term, off by less than e^-37 (1 + n y_i^2) <
         eps (1 + n y_i^2 r_i) (1 + eps).
       The log half alone is held the same way: a block's row sum of
       log(1 + u), the log_sum `columns` hands its visitor, is within
       eps [3N + (N + 4 S + 24) A(a)] of A(a).
       T's two halves are monotone, so T(a) <= T(x_g) + T(x_g+1) and, with
       rho at the knots, |ell(a)| <= Phi_g = 2 (|v_g| + |v_g+1|) + 1.  The
       chord through the v_g is within max(rho(x_g), rho(x_g+1)) of ell's
       chord, and `_Enclosure.at` forms it within 6.2 eps (|v_g| + |v_g+1|).
       With rho(a) itself that is at most eps [2N + (2N + 8 S + 51) Phi_g].
    3. Outside the hull.  The window scan x_0 < ... < x_L gives each
       point's column value v_j and log_sum A_j, so B_j = -2 v_j - A_j.
       For a in [x_j, x_j+1] the halves' monotony gives

           A(x_j+1) + B(x_j) <= T(a) <= A(x_j) + B(x_j+1),

       and the same holds below x_0 with A(x_0) + 2 x_0 sum_i L_i for A(x_j)
       (|A'| <= 2 sum_i L_i) and 0 for B(x_j), and past x_L with 0 for
       A(x_j+1) and sum_i n y_i^2 = 2 offset for B(x_j+1).  So ell(a) lies
       between minus half of each pairing, formed from the A_j and B_j.
       Phi = 1 + twice the larger bound on -ell there bounds |ell(a)|, the
       |v_j| and the A_j at both ends, with room for their rounding.
       floors and ceilings hold the two bounds less and plus
       eps [5N + (3N + 12 S + 75) Phi], S taken at the interval's right end
       or at c: rho(a) and rho at a scan point, the errors of the two A's
       and of a B, halved, and at most three roundings of the bound, each
       within eps Phi.
    4. The bounds.  `_Enclosure.bounds` rounds the chord's value less and
       plus the half-width, within eps (Phi_g + bends[g] width^2 + slack[g]),
       and a floor or ceiling is rounded once from its bound and slack.
       Each slack adds 16 eps (Phi + bends width^2 + slack) for these and
       for the rounding of the slack itself.  Rounding to nearest is monotone, so the
       log weight w = (log lambda + c) - log q and w - log U, formed from
       the bounds on c as `log_weights` and the accept test form them from
       c, bound every value those give.

    The knots stop where `Design.blocks` clamps alpha, at c: past it the
    scan's bounds alone hold ell.
    """
    design = ell.design
    N = design.log_i.size
    clamp = LOG_FLOAT_MAX - S_FLOOR
    top = int(np.searchsorted(nodes, clamp, side="right"))
    top = top if top >= 2 else 0
    sq = design.log_i**2
    sq_ny2 = sq * ell.ny2
    half_bend = np.empty(max(top - 1, 0))
    # the last knot's r - 1/2, carried into the next block; that block's first knot's, padded
    # with r = 1 past its prefix; and scratch for the gap between them
    edge = np.empty((3, N))
    carried = 0

    def visit(block):
        nonlocal carried
        weigh(block)
        s, log1p_u, r = block.start, block.log1p_u, block.r
        k = r.shape[1]
        m = min(len(r), top - s)  # the knots among the block's rows
        if m < 1:
            return
        d = r[:m]
        np.subtract(d, 0.5, d)  # r - 1/2
        if s:  # the gap from the block before
            edge[1, :k] = d[0]
            edge[1, k:carried] = 0.5
            half_bend[s - 1] = _half_bends(edge[:2, :carried], edge[2:, :carried], sq, sq_ny2)[0]
        edge[0, :k] = d[-1]
        carried = k
        half_bend[s:s + m - 1] = _half_bends(d, log1p_u[:m - 1], sq, sq_ny2)

    values = columns((ell,), nodes, visit, data_weights=True)[0]

    def spread(a_top):  # S at a_top (step 2)
        return float(np.max(np.abs(design.log_nk2))) + float(design.log_i[-1]) * (1.0 + 2.0 * a_top)

    knots, knot_values = nodes[:top], values[:top]
    S = spread(nodes[top - 1])  # with no knots the arrays below are empty, whatever S is
    tau = EPS * (3.1 * S + 13.0)
    bends = (1.0 + (N + 12) * EPS) * (half_bend + (2.0 * tau + 1e-16) * (sq.sum() + sq_ny2.sum()))
    mags = np.abs(knot_values)
    phi = 2.0 * (mags[:-1] + mags[1:]) + 1.0
    slack = EPS * (2.0 * N + (2.0 * N + 8.0 * S + 52.0) * phi)
    slack += 16.0 * EPS * (phi + bends * np.diff(knots)**2 + slack)  # step 4

    # step 3: interval i runs from scan[i - 1] to scan[i], with 0 and the clamp past the ends
    B = -2.0 * scan_values - logs
    ub = -0.5 * (np.append(logs, 0.0) + np.insert(B, 0, 0.0))
    lb = -0.5 * (np.insert(logs, 0, logs[0] + 2.0 * scan[0] * design.log_i.sum())
                 + np.append(B, 2.0 * ell.offset))
    phi = 1.0 - 2.0 * lb
    S = spread(np.minimum(np.append(scan, clamp), clamp))
    rise = EPS * (5.0 * N + (3.0 * N + 12.0 * S + 75.0) * phi)
    rise += 16.0 * EPS * (phi + rise)  # step 4
    enclosure = _Enclosure(knots, knot_values, np.diff(knot_values) / np.diff(knots), bends, slack,
                           scan, lb - rise, ub + rise)
    return values, enclosure


def _half_bends(d: np.ndarray, p: np.ndarray, sq: np.ndarray, sq_ny2: np.ndarray) -> np.ndarray:
    """Half the curvature bound M_g of `_enclose` over each gap between consecutive rows of d.

    d holds r - 1/2 at consecutive knots over k coordinates, and p is
    scratch of one row fewer; both are overwritten.
    """
    k = d.shape[1]
    lo, hi = d[:-1], d[1:]  # r - 1/2 at each gap's two knots
    np.maximum(lo, 0.0, out=p)
    np.minimum(p, hi, out=p)  # the point of [r(x_g), r(x_g+1)] nearest 1/2, less 1/2
    np.square(p, p)
    np.subtract(0.25, p, p)  # max r(1 - r) over the gap
    lin = p @ sq[:k]
    np.abs(d, d)
    np.maximum(lo, hi, out=lo)  # max |2r - 1| / 2 over the gap
    np.multiply(p, lo, p)
    return lin + 2.0 * (p @ sq_ny2[:k])


def _window(ell: Loglik, hyper: HyperPrior) -> tuple[float, float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The interval [lo, hi] outside which log(alpha * pi) is WINDOW below its peak, and the scan.

    alpha * pi is the density of log alpha, so even a power-law tail like
    the inverse gamma's leaves no mass of note past hi.  The scan starts on
    SCAN_ALPHAS and doubles its right end, 400 points at a time, until its
    last point is out of the window; lo is 0 when its first point is in it.
    A log density still within WINDOW of its peak at ALPHA_MAX is an error.
    The scan is returned as its alphas, ell's column there and each
    alpha's row sum of log(1 + u) in that column, which bound ell outside
    the grid (`_enclose`).
    """
    def scanned(a):
        logs = np.empty(a.size)

        def keep(block):
            logs[block.start:block.start + block.log_sum.size] = block.log_sum

        values = columns((ell,), a, keep)[0]
        return np.log(a) + hyper.log_density(a) + values, values, logs

    scan = SCAN_ALPHAS
    lp, values, logs = scanned(scan)
    while lp[-1] > lp.max() - WINDOW:
        if 2.0 * scan[-1] > ALPHA_MAX:
            raise NumericalError(f"log posterior of alpha still within {WINDOW:g} of its peak "
                                 f"at alpha = {scan[-1]:.3g}: its tail is too heavy for the grid")
        more = np.linspace(scan[-1], 2.0 * scan[-1], 401)[1:]
        scan = np.concatenate([scan, more])
        lp, values, logs = (np.concatenate(pair) for pair in zip((lp, values, logs), scanned(more)))
    if not np.all(np.isfinite(lp)):
        raise NumericalError("log posterior of alpha non-finite on the grid scan")
    live = np.nonzero(lp > lp.max() - WINDOW)[0]
    lo = 0.0 if live[0] == 0 else float(scan[live[0] - 1])
    return lo, float(scan[live[-1] + 1]), (scan, values, logs)


def _cell_rule(hyper: HyperPrior, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's quadrature node and log weight for an integrand lambda * exp(ell).

    The rule integrates the factor alpha^k of lambda exactly over the cell
    (k is the gamma kind's shape - 1, else 0) and puts the node at the
    cell's centroid under that factor, so it is exact for alpha^k times a
    linear function, and a gamma prior's singularity at 0 (shape < 1)
    costs it nothing.  The returned log weight is that of alpha^k's
    integral less k log(node), so weight * lambda(node) * exp(ell(node))
    is the cell's share.  With k = 0 the rule is the midpoint rule.
    """
    t = hyper.shape if hyper.kind == "gamma" else 1.0  # k + 1
    e0, e1 = edges[:-1], edges[1:]
    with np.errstate(divide="ignore"):  # log 0 = -inf for a cell starting at 0
        r = np.log(e0 / e1)
    # e1^t - e0^t and e1^(t+1) - e0^(t+1) over e1^t and e1^(t+1), without cancellation
    p, p1 = -np.expm1(t * r), -np.expm1((t + 1.0) * r)
    nodes = e1 * (t / (t + 1.0)) * (p1 / p)
    return nodes, t * np.log(e1) + np.log(p) - math.log(t) - (t - 1.0) * np.log(nodes)


def log_weights(ell: Loglik, hyper: HyperPrior, prop: Proposal, alphas: np.ndarray) -> np.ndarray:
    """log pi - log q at each alpha, with pi taken as lambda * exp(ell's centred value).

    The log acceptance probability of a move a -> a' is w(a') - w(a), that
    is log [pi(a') q(a) / (pi(a) q(a'))]; the dropped term of ell cancels.
    The target is pi on (0, ALPHA_MAX]: elsewhere, as where pi is 0, the
    weight is -inf, so such a proposal (an inverse-gamma draw can overflow
    to inf) is never taken.
    """
    return _weights(hyper, prop, alphas, lambda a: (ell.column(a),))[0]


def _weights(hyper: HyperPrior, prop: Proposal, alphas: np.ndarray, column) -> list[np.ndarray]:
    """log_weights' w at each alpha, once for each array column(a) gives in place of ell at a.

    a holds the alphas in (0, ALPHA_MAX]; w is -inf at the others.
    """
    ok = (alphas > 0.0) & (alphas <= ALPHA_MAX)
    a = alphas[ok]
    lam, lq = hyper.log_density(a), prop.log_density(a)
    out = []
    for values in column(a):
        w = np.full(alphas.shape, -math.inf)
        target = lam + values
        with np.errstate(invalid="ignore"):  # -inf - -inf where lambda and q vanish together
            w[ok] = np.where(target == -math.inf, -math.inf, target - lq)
        out.append(w)
    return out


def effective_sample_size(draws: np.ndarray) -> float:
    """Draws over their integrated autocorrelation time, Geyer's (1992) initial monotone estimate.

    Sums of adjacent pairs of the (biased) autocovariance are taken while
    they stay positive, each capped at its predecessor.  Each lag is one
    dot product, so a well-mixed chain stops after a few lags and no
    transform of the whole chain is held.  A chain that never moves
    carries one effective draw.
    """
    d = np.asarray(draws, dtype=float)
    n = d.size
    d = d - d.mean()
    gamma0 = float(d @ d) / n
    if gamma0 <= 0.0:
        return 1.0
    total, prev = 0.0, math.inf
    for k in range(0, 2 * (n // 2), 2):
        pair = (float(d[:n - k] @ d[k:]) + float(d[:n - k - 1] @ d[k + 1:])) / n
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        total += prev
    tau = (2.0 * total - gamma0) / gamma0
    return n / min(max(tau, 1.0 / n), n)


@dataclass(frozen=True)
class HbChain:
    """Post-burn-in output of one sampler run.

    alphas holds the kept draws of alpha and proposal the grid they were
    proposed from.  mu_mean and mu_var are the posterior moments of mu by
    the grid's quadrature: the mixture of the conjugate posteriors at the
    cells' nodes, weighted by the cells' masses, which the node column
    joins as it is evaluated (`Proposal.moments`); they agree with
    `gaussian_posterior.mixture` at the nodes and masses to rounding.
    exact_evaluations is the number of alphas at which the chain evaluated
    its log weights (see `run_mwg`); it is not part of the summary.

    The summary reads alpha's posterior off the grid too: alpha_mean is the
    masses' quadrature of alpha, the quantiles invert the masses' CDF,
    linear inside each cell, and alpha_mode is the node of the cell with
    the most mass per width.  Only alpha_ess and acceptance_rate come from
    the chain, which checks the grid rather than supplying its numbers.
    """

    alphas: np.ndarray
    acceptance_rate: float
    mu_mean: np.ndarray
    mu_var: np.ndarray
    config: HbConfig
    proposal: Proposal
    exact_evaluations: int

    def summary(self) -> dict:
        prop = self.proposal
        # the grid's CDF is linear inside each cell, so interpolation inverts it, as in Proposal.draw
        q = np.interp(np.array([0.025, 0.5, 0.975]) * prop.cdf[-1], prop.cdf, prop.edges)
        return {
            "acceptance_rate": self.acceptance_rate,
            "alpha_mean": float(prop.masses @ prop.nodes),
            "alpha_quantiles": [float(v) for v in q],
            "alpha_mode": float(prop.nodes[np.argmax(prop.masses / np.diff(prop.edges))]),
            "alpha_ess": effective_sample_size(self.alphas),
            "mu_mean": self.mu_mean.tolist(),
            "mu_var": self.mu_var.tolist(),
            "burn_in": self.config.resolved_burn_in(),
            "proposal": {"window": [float(prop.edges[0]), float(prop.edges[-1])],
                         "cells": int(prop.masses.size), "prior_share": PRIOR_SHARE},
        }


def run_mwg(obs: Observation, hyper: HyperPrior, cfg: HbConfig) -> HbChain:
    """Run the sampler.

    Runs cfg.iterations independence Metropolis-Hastings steps of alpha on
    its marginal posterior, from cfg.alpha_init (1 by default), and keeps
    the alphas past burn-in.  mu is never drawn: its moments are the grid
    quadrature of its posterior.  Identical configs reproduce identical
    chains.

    Each candidate carries bounds w_lo <= w <= w_hi on its log weight
    (`_chunk_weights`), and w_lo == w_hi where they pin it; the current
    state keeps the bounds it was taken with.  Rounding is monotone, so
    w_lo - log U and w_hi - log U bound w - log U.  A move is taken when
    that lower bound exceeds the state's upper one, and refused when the
    upper bound is at or below the state's lower one.  Else the candidate
    and the state get their log_weights values, as points, and the test is
    the exact chain's w - log U > w.  A value log_weights gives depends in
    its last bits on the alphas that share its column, and the bounds hold
    each such value, so a decision can differ from the evaluated chain's
    only where w - log U lies within that rounding of w.
    exact_evaluations counts the alphas log_weights evaluated, the start
    point included.
    """
    alpha = 1.0 if cfg.alpha_init is None else cfg.alpha_init
    ell = Loglik(obs)
    prop = grid_proposal(ell, hyper)
    current = float(log_weights(ell, hyper, prop, np.array([alpha]))[0])
    if not math.isfinite(current):
        raise NumericalError(f"log posterior of alpha non-finite at the start point alpha={alpha}")
    cur_lo = cur_hi = current
    rng = np.random.default_rng(cfg.seed)
    accepted, evaluated = 0, 1
    states = np.empty(cfg.iterations)
    for s in range(0, cfg.iterations, CHUNK):
        cand = prop.draw(rng, min(CHUNK, cfg.iterations - s))
        log_u = np.log(rng.random(cand.size))
        w_lo, w_hi = _chunk_weights(ell, hyper, prop, cand, s)
        # accept a candidate when log U < w - current, i.e. when w - log U > current
        lows = (w_lo - log_u).tolist(), w_lo.tolist()
        if prop.enclosure is None:  # every w was evaluated, so its bounds are one value
            evaluated += cand.size
            highs = lows
        else:
            highs = (w_hi - log_u).tolist(), w_hi.tolist()
        chunk = []
        for a, lo, hi, wl, wh in zip(cand.tolist(), lows[0], highs[0], lows[1], highs[1]):
            if not lo > cur_hi and hi > cur_lo:  # the bounds cannot decide: evaluate
                todo = ([] if lo == hi else [a]) + ([] if cur_lo == cur_hi else [alpha])
                vals = log_weights(ell, hyper, prop, np.array(todo)).tolist()
                evaluated += len(todo)
                if lo != hi:
                    wl = wh = vals[0]
                    lo = hi = wl - float(log_u[len(chunk)])
                if cur_lo != cur_hi:
                    cur_lo = cur_hi = vals[-1]
                if math.isnan(lo) or math.isnan(cur_lo):
                    raise NumericalError(f"iteration {s + len(chunk)}: non-finite MH acceptance ratio")
            if lo > cur_hi:
                alpha, cur_lo, cur_hi = a, wl, wh
                accepted += 1
            chunk.append(alpha)
        states[s:s + cand.size] = chunk

    mu_mean, mu_var = prop.moments.mu(obs, ell.design)
    return HbChain(states[cfg.resolved_burn_in():], accepted / cfg.iterations, mu_mean, mu_var,
                   cfg, prop, evaluated)


def _chunk_weights(ell: Loglik, hyper: HyperPrior, prop: Proposal, cand: np.ndarray,
                   start: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds w_lo <= w_hi on the log weight log_weights would give each of a chunk's candidates.

    Without an enclosure both are log_weights' values, from one column.
    Else w is formed as log_weights forms it, once from each of the
    enclosure's bounds on the column value (`_Enclosure.bounds`): the
    chord's band inside the nodes' hull, and the window scan's floor and
    ceiling outside it.  w_lo == w_hi only where the bounds pin w.
    """
    if prop.enclosure is None:
        w_lo = w_hi = log_weights(ell, hyper, prop, cand)
    else:
        w_lo, w_hi = _weights(hyper, prop, cand, prop.enclosure.bounds)
    bad = np.isnan(w_lo) | np.isnan(w_hi)
    if bad.any():
        raise NumericalError(f"iteration {start + int(np.argmax(bad))}: non-finite MH acceptance ratio")
    return w_lo, w_hi
