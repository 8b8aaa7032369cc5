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
The chain reads one object, the `Proposal`: it draws candidates, gives
their exact log weights and bounds on them, and holds the grid's moments
of mu and statistics of alpha.

A move needs only the decision whether w' - log U exceeds the current w,
not w' itself, and the grid's two scans of ell bound every w.  The column
of ell at the grid's nodes, which sets the cells' masses, encloses ell
between them: the chord between two nodes' values, widened by a bound on
ell's curvature, one per GROUP consecutive gaps and read off that
column's rows at the group's two ends, and on every rounding, holds any
value `Loglik.column` gives there, whatever alphas share its column.
Outside the nodes' hull the window scan bounds ell on both sides, since
of its two halves, both of which the scan's column forms, one falls and
one rises with alpha (`_enclose`).  The loop decides each move from the
candidate's and the state's bounds where they do not straddle the
threshold, and evaluates w (`Proposal.log_weights`) only where they
cannot decide, for the candidate and the current state.  Each
candidate's cell is looked up once, for its log q and, inside the nodes'
hull, its gap (`Proposal.bounds`).  Over fewer than ENCLOSE_MIN_N
coordinates nothing is enclosed and every candidate is evaluated, each
chunk in one column.  The states, the acceptance rate and the moments are
those of the chain that evaluates every candidate.

Given alpha, mu_1..mu_N are conjugate, so the chain never draws mu.  Its
moments are the grid's quadrature of the exact posterior: the mixture of
the conjugate posteriors at the cells' nodes, weighted by p_g.  A
`gaussian_posterior.Mixture` joins it inside the node column, one block at
a time, from the data weights w = u r that `columns` hands the column's
visitor, each block weighted by exp(log p_g - the block's largest log
p_g), unnormalised.  Past a block's active prefix r is exactly 1, so w
there is the u of a `Design.blocks` fill of the rest.  The nodes' prefixes
are filled once, for the values, the enclosure and the moments, and the
accumulator is dropped once they are formed.  alpha's mean, quantiles and
mode are read off the same cells (`Proposal.alpha_mean`, `quantile` and
`alpha_mode`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .empirical_bayes import Loglik, columns
from .errors import ConfigError, NumericalError
from .gaussian_posterior import Mixture
from .sequence_model import LOG_FLOAT_MAX, S_FLOOR, Observation, block_rows

# where log(alpha * pi) is first scanned for the grid window: 5 points a decade up to 0.1, then 0.1 apart
SCAN_ALPHAS = np.concatenate([np.geomspace(1e-12, 0.1, 56)[:-1], np.linspace(0.1, 40.0, 400)])
ALPHA_MAX = 1e30  # the chain's target is pi on (0, ALPHA_MAX]; the window must close below it
WINDOW = 40.0  # the window keeps the scan points within this of the scan's peak
GRID_CELLS = 256  # cells of the proposal grid
CELL_SHIFT = 0.1  # cells are equal in log(alpha + CELL_SHIFT): even near 0, geometric past it
PRIOR_SHARE = 0.05  # the proposal's share drawn from the hyperprior
CHUNK = 1024  # proposals drawn, evaluated and accepted at a time
# The chain encloses ell only over at least this many coordinates; below, every candidate is
# evaluated.  There a chunk's column costs about as much as its bounds: 4000-sweep chains (paper
# truth, n = N^3, exponential(1), seeds 1-5, one BLAS thread on a 2-vCPU x86 VM, medians of 60
# interleaved runs, in two sessions) ran 9-11% slower enclosed at N = 3, 1-5% slower at N = 10,
# 0-8% at N = 20 and 4-7% at N = 25, 4-14% faster at N = 30 and 8-10% faster at N = 35 to 46.
# The break-even lies near 30, and no benchmark workload runs an N in [25, 40) to confirm a
# lower start, so enclosing still starts at 40.
ENCLOSE_MIN_N = 40
# Consecutive gaps between the nodes that share one curvature bound (see `_enclose`), so the node
# column reads two rows per group.  Against a bound per gap, 4000-sweep chains (paper truth,
# exponential(1), n = N^3 or the ladder's n, seeds 1-5, 1-3 from N = 12600; process CPU, one BLAS
# thread on a 2-vCPU x86 VM; both kinds of chain alternated call by call, 5-20 rounds) took 6%
# longer at N = 46 and 100 and 1% longer at N = 215, where the extra evaluations a looser bound
# leaves cost more than the rows it skips, and 9, 17, 22 and 22% less at N = 1000, 4642, 12600
# and 1e5.  Groups of 8 took 2% longer at N = 46, 100 and 215 and 8, 15, 19 and 16% less at the
# others.  One group over all 256 nodes raised N = 216's evaluations from 13-29 to 233-347 and
# doubled its time.
GROUP = 16
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
    their values, bends[g] bounds |ell''| / 2 over the group of up to GROUP
    consecutive gaps that holds it, so a group's gaps share one, and
    slack[g] bounds the rounding.  Outside the knots' hull the window scan
    bounds them: scan holds its alphas, and floors[i] and ceilings[i] bound
    every column value at an alpha in [scan[i - 1], scan[i]), index 0 below
    scan[0] and the last from scan[-1] on (see `_enclose`).  With no knots
    the hull is empty.  `Proposal.bounds` reads them.
    """

    knots: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    bends: np.ndarray
    slack: np.ndarray
    scan: np.ndarray
    floors: np.ndarray
    ceilings: np.ndarray


@dataclass(frozen=True)
class Proposal:
    """The grid posterior of alpha and mu, and the independence proposal drawn from it.

    edges are the GRID_CELLS + 1 edges of the window's cells, nodes the
    cells' quadrature nodes, node g inside cell g, and masses their p_g,
    summing to 1.  mu_mean and mu_var are the moments of mu under the
    mixture of its conjugate posteriors at the nodes, weighted by the
    masses, as the node column joined them.  The proposal density is q(a) =
    (1 - PRIOR_SHARE) * p_g / (cell g's width) + PRIOR_SHARE * lambda(a)
    for a in cell g, and PRIOR_SHARE * lambda(a) outside the window.  ell
    is the likelihood the chain's log weights read, and enclosure bounds it
    at every alpha; it is None over fewer than ENCLOSE_MIN_N coordinates.
    The masses' CDF and each cell's log grid density are built once, with
    the bits of forming them at each draw and weight.
    """

    hyper: HyperPrior
    edges: np.ndarray
    nodes: np.ndarray
    masses: np.ndarray
    mu_mean: np.ndarray
    mu_var: np.ndarray
    ell: Loglik = field(repr=False, compare=False)
    enclosure: _Enclosure | None
    cdf: np.ndarray = field(init=False, repr=False)
    log_cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cdf", np.concatenate([[0.0], np.cumsum(self.masses)]))
        # log((1 - PRIOR_SHARE) * p_g / width) by cell, -inf left and right of the window
        with np.errstate(divide="ignore"):  # a cell whose mass underflowed to 0
            cells = math.log1p(-PRIOR_SHARE) + np.log(self.masses / np.diff(self.edges))
        object.__setattr__(self, "log_cells", np.concatenate([[-math.inf], cells, [-math.inf]]))

    @property
    def alpha_mean(self) -> float:
        """alpha's posterior mean: the masses' quadrature of alpha."""
        return float(self.masses @ self.nodes)

    @property
    def alpha_mode(self) -> float:
        """The node of the cell with the most mass per width."""
        return float(self.nodes[np.argmax(self.masses / np.diff(self.edges))])

    def quantile(self, levels: np.ndarray) -> np.ndarray:
        """The alpha at each level in [0, 1] of the masses' CDF, linear inside each cell."""
        return np.interp(levels * self.cdf[-1], self.cdf, self.edges)

    def draw(self, rng, size: int) -> np.ndarray:
        """size independent draws from q."""
        out = self.quantile(rng.random(size))
        prior = rng.random(size) < PRIOR_SHARE
        out[prior] = self.hyper.draw(rng, int(np.count_nonzero(prior)))
        return out

    def log_weights(self, alphas: np.ndarray) -> np.ndarray:
        """log pi - log q at each alpha, with pi taken as lambda * exp(ell's centred value).

        The log acceptance probability of a move a -> a' is w(a') - w(a), that
        is log [pi(a') q(a) / (pi(a) q(a'))]; the dropped term of ell cancels.
        The target is pi on (0, ALPHA_MAX]: elsewhere, as where pi is 0, the
        weight is -inf, so such a proposal (an inverse-gamma draw can overflow
        to inf) is never taken.
        """
        ok, a, _, lam, lq = self._cells(alphas)
        return _weighed(ok, lam, lq, self.ell.column(a))

    def bounds(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds w_lo <= w_hi on the log weight `log_weights` would give each alpha.

        Without an enclosure it returns one array twice, log_weights' values
        from one column, so that `w_lo is w_hi` tells a caller the bounds are
        the evaluated weights.  Else w is formed as log_weights forms it, once from each
        of the enclosure's bounds on the column value: the chord's band in
        the knots' hull, and the window scan's floor and ceiling outside it.
        An alpha's cell c gives its log q and, in the hull, its gap: node
        c - 1 lies in cell c - 1, so the gap starts at knot c - 1 or c - 2 by
        which side of that node the alpha falls (at the last knot, the last
        gap).  Only the alphas outside the hull look up their scan interval.
        w_lo == w_hi only where the bounds pin w.
        """
        enc = self.enclosure
        if enc is None:
            w = self.log_weights(alphas)
            return w, w
        ok, a, c, lam, lq = self._cells(alphas)
        knots = enc.knots
        hull = (a >= knots[0]) & (a <= knots[-1]) if knots.size else np.zeros(a.size, dtype=bool)
        lo, hi = np.empty(a.size), np.empty(a.size)
        out = ~hull
        i = np.searchsorted(enc.scan, a[out], side="right")
        lo[out], hi[out] = enc.floors[i], enc.ceilings[i]
        x = a[hull]
        g = np.minimum(c[hull], knots.size - 1) - 1
        g -= x < knots[g]
        left = x - knots[g]
        right = knots[g + 1] - x
        mid = enc.values[g] + left * enc.slopes[g]
        half = enc.bends[g] * left * right + enc.slack[g]
        lo[hull], hi[hull] = mid - half, mid + half
        return _weighed(ok, lam, lq, lo), _weighed(ok, lam, lq, hi)

    def _cells(self, alphas: np.ndarray):
        """Which alphas lie in (0, ALPHA_MAX], those alphas, their cells and their log lambda and log q.

        An alpha's cell c has edges[c - 1] <= alpha < edges[c]: 0 left of the
        window and GRID_CELLS + 1 right of it, where log_cells is -inf.
        """
        ok = (alphas > 0.0) & (alphas <= ALPHA_MAX)
        a = alphas[ok]
        c = np.searchsorted(self.edges, a, side="right")
        lam = self.hyper.log_density(a)
        return ok, a, c, lam, np.logaddexp(self.log_cells[c], math.log(PRIOR_SHARE) + lam)


def _weighed(ok: np.ndarray, lam: np.ndarray, lq: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The log weight lambda + values - log q at the alphas ok marks, -inf at the others."""
    w = np.full(ok.shape, -math.inf)
    target = lam + values
    with np.errstate(invalid="ignore"):  # -inf - -inf where lambda and q vanish together
        w[ok] = np.where(target == -math.inf, -math.inf, target - lq)
    return w


def grid_proposal(obs: Observation, hyper: HyperPrior) -> Proposal:
    """The grid posterior and proposal for the target lambda * exp(ell) (see the module docstring)."""
    ell = Loglik(obs)
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
    return Proposal(hyper, edges, nodes, masses / masses.sum(), *moments.mu(obs, ell.design), ell, enclosure)


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
    the line through the knots' values v_g, as `Proposal.bounds` forms it:

    1. Curvature.  ell'' = -2 sum_i L_i^2 r_i (1 - r_i)(1 - n y_i^2 (2 r_i - 1))
       (`Loglik.slope`, with 1 - 2w = 2r - 1).  The gaps are taken GROUP
       at a time from the first knot, the last group holding what is left,
       and a group runs between its end knots x_a < x_b.  Each r_i is
       monotone in alpha, so over the group it lies between its values at
       x_a and x_b.  So |ell''| <= M = 2 sum_i L_i^2 P_i (1 + n y_i^2 Q_i)
       there, with P_i the largest r(1 - r) and Q_i the largest |2r - 1|
       over that range, and on each of the group's gaps the chord of ell
       misses it by at most M/2 (a - x_g)(x_g+1 - a).  The r are read off
       the node column's blocks (`columns`' visitor), at the end knots
       only.  The left end's row is taken over its block's prefix, and a
       right end in a later block has its shorter row padded with r = 1:
       past its own prefix u_i < e^-37 at x_b, so r_i lies in
       (1 - e^-37, 1] there, and stretching the range [r(x_a), r(x_b)] to
       reach 1 can only raise P_i and Q_i.  Past the left end's prefix
       u_i < e^-37 on the whole group, so those coordinates add less than
       2 e^-37 L_i^2 (1 + n y_i^2) each.  The blocks' r are within tau =
       eps (3.1 S + 13) of the exact ones (step 2), and P and Q move by at
       most 1 and 2 times a move of r, so half M is at most the computed
       half plus (2 tau + 1e-16) sum_i L_i^2 (1 + n y_i^2), times
       1 + (N + 12) eps for the rounding of the sums and of the product at
       a.  That is bends, for each gap of the group.
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
       chord, and `Proposal.bounds` forms it within 6.2 eps (|v_g| + |v_g+1|).
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
    4. The bounds.  `Proposal.bounds` rounds the chord's value less and
       plus the half-width, within eps (Phi_g + bends[g] width^2 + slack[g]),
       and a floor or ceiling is rounded once from its bound and slack.
       Each slack adds 16 eps (Phi + bends width^2 + slack) for these and
       for the rounding of the slack itself.  Rounding to nearest is monotone, so the
       log weight w = (log lambda + c) - log q and w - log U, formed from
       the bounds on c as `Proposal.log_weights` and the accept test form
       them from c, bound every value those give.

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
    # the groups' end knots, [-1] (held by no block) without knots
    ends = np.append(np.arange(0, top - 1, GROUP), top - 1)
    half_bend = np.empty(ends.size)  # for the group ending at each end; the first is spare
    # r - 1/2 at the last end before a block, over carried coordinates (before the first end, r = 1
    # over all N); behind it, the block's ends padded with r = 1 past its prefix; and scratch
    last, (rows, spare) = np.full(N, 0.5), np.empty((2, min(block_rows(N), nodes.size) // GROUP + 3, N))
    carried = N

    def visit(block):
        nonlocal carried
        weigh(block)
        s, r, k = block.start, block.r, block.r.shape[1]
        a, b = np.searchsorted(ends, (s, s + len(r)))  # the ends among the block's rows
        if a == b:
            return
        d = rows[:1 + b - a, :carried]
        d[0] = last[:carried]
        np.subtract(r[ends[a:b] - s], 0.5, d[1:, :k])
        d[1:, k:] = 0.5
        last[:k] = d[-1, :k]
        half_bend[a:b] = _half_bends(d, spare[:b - a, :carried], sq, sq_ny2)
        carried = k

    values = columns((ell,), nodes, visit, data_weights=True)[0]

    def spread(a_top):  # S at a_top (step 2)
        return float(np.max(np.abs(design.log_nk2))) + float(design.log_i[-1]) * (1.0 + 2.0 * a_top)

    knots, knot_values = nodes[:top], values[:top]
    S = spread(nodes[top - 1])  # with no knots the arrays below are empty, whatever S is
    tau = EPS * (3.1 * S + 13.0)
    half_bend = np.repeat(half_bend[1:], np.diff(ends))  # each gap takes its group's bound
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
    """Half the curvature bound M of `_enclose` over each group between consecutive rows of d.

    d holds r - 1/2 at consecutive group ends over k coordinates, and p is
    scratch of one row fewer; both are overwritten.
    """
    k = d.shape[1]
    lo, hi = d[:-1], d[1:]  # r - 1/2 at each group's two ends
    np.maximum(lo, 0.0, out=p)
    np.minimum(p, hi, out=p)  # the point of [r(x_a), r(x_b)] nearest 1/2, less 1/2
    np.square(p, p)
    np.subtract(0.25, p, p)  # max r(1 - r) over the group
    lin = p @ sq[:k]
    np.abs(d, d)
    np.maximum(lo, hi, out=lo)  # max |2r - 1| / 2 over the group
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
    proposed from.  mu_mean and mu_var are the grid's posterior moments of
    mu (`Proposal`): the mixture of the conjugate posteriors at the cells'
    nodes, weighted by the cells' masses; they agree with
    `gaussian_posterior.mixture` at the nodes and masses to rounding.
    exact_evaluations is the number of alphas at which the chain evaluated
    its log weights (see `run_mwg`); it is not part of the summary.

    The summary reads alpha's posterior off the grid too (`Proposal`'s
    alpha_mean, quantile and alpha_mode).  Only alpha_ess and
    acceptance_rate come from the chain, which checks the grid rather than
    supplying its numbers.
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
        return {
            "acceptance_rate": self.acceptance_rate,
            "alpha_mean": prop.alpha_mean,
            "alpha_quantiles": prop.quantile(np.array([0.025, 0.5, 0.975])).tolist(),
            "alpha_mode": prop.alpha_mode,
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
    (`Proposal.bounds`), and w_lo == w_hi where they pin it; the current
    state keeps the bounds it was taken with.  Rounding is monotone, so
    w_lo - log U and w_hi - log U bound w - log U.  A move is taken when
    that lower bound exceeds the state's upper one, and refused when the
    upper bound is at or below the state's lower one.  Else the candidate
    and the state get their `Proposal.log_weights` values, as points, and
    the test is the exact chain's w - log U > w.  A value log_weights gives
    depends in its last bits on the alphas that share its column, and the
    bounds hold each such value, so a decision can differ from the
    evaluated chain's only where w - log U lies within that rounding of w.
    A nan bound decides nothing, and a nan value is a NumericalError.
    exact_evaluations counts the alphas log_weights evaluated, the start
    point included.
    """
    alpha = 1.0 if cfg.alpha_init is None else cfg.alpha_init
    prop = grid_proposal(obs, hyper)
    cur_lo = cur_hi = float(prop.log_weights(np.array([alpha]))[0])
    if not math.isfinite(cur_lo):
        raise NumericalError(f"log posterior of alpha non-finite at the start point alpha={alpha}")
    rng = np.random.default_rng(cfg.seed)
    accepted, evaluated = 0, 1
    states = np.empty(cfg.iterations)
    for s in range(0, cfg.iterations, CHUNK):
        cand = prop.draw(rng, min(CHUNK, cfg.iterations - s))
        log_u = np.log(rng.random(cand.size))
        w_lo, w_hi = prop.bounds(cand)
        # accept a candidate when log U < w - current, i.e. when w - log U > current
        lows = (w_lo - log_u).tolist(), w_lo.tolist()
        exact = w_lo is w_hi  # the bounds are the evaluated weights
        evaluated += cand.size if exact else 0
        highs = lows if exact else ((w_hi - log_u).tolist(), w_hi.tolist())
        chunk = []
        for a, lo, hi, wl, wh in zip(cand.tolist(), lows[0], highs[0], lows[1], highs[1]):
            if not (lo > cur_hi or hi <= cur_lo):  # the bounds cannot decide, or are nan
                if not exact:  # evaluate what they leave open
                    todo = ([] if lo == hi else [a]) + ([] if cur_lo == cur_hi else [alpha])
                    vals = prop.log_weights(np.array(todo)).tolist()
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

    return HbChain(states[cfg.resolved_burn_in():], accepted / cfg.iterations, prop.mu_mean, prop.mu_var,
                   cfg, prop, evaluated)
