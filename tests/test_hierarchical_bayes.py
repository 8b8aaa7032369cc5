from __future__ import annotations

import csv
import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad, trapezoid

from invseq import (
    HbConfig,
    HyperPrior,
    ModelSpec,
    Observation,
    TruthSpec,
    fit,
    log_likelihood,
    posterior,
    run_mwg,
    simulate,
)
from invseq import hierarchical_bayes
from invseq.cli import main
from invseq.empirical_bayes import Loglik
from invseq.errors import ConfigError, NumericalError
from invseq.gaussian_posterior import mixture
from invseq.hierarchical_bayes import (ALPHA_MAX, ENCLOSE_MIN_N, PRIOR_SHARE, effective_sample_size,
                                       grid_proposal)
from invseq.sequence_model import block_rows, default_truncation, fields_dict, read_fields
from oracles import fresh_log_weights, grid_log_q, reference_chain

VOLTERRA = ModelSpec.volterra()


def _effective_sample_size():
    """The benchmark's own estimator, loaded from perfbench/benchstats.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "benchstats.py"
    spec = importlib.util.spec_from_file_location("perfbench_benchstats", path)
    benchstats = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(benchstats)
    return benchstats.effective_sample_size


KINDS = [
    (HyperPrior.exponential(1.3), stats.expon(scale=1.0 / 1.3)),
    (HyperPrior.gamma(2.0, 1.5), stats.gamma(2.0, scale=1.0 / 1.5)),
    (HyperPrior.inverse_gamma(2.0, 1.0), stats.invgamma(2.0, scale=1.0)),
]


def test_log_density_matches_scipy():
    for hyper, dist in KINDS:
        for x in (0.3, 1.0, 4.2):
            assert math.isclose(hyper.log_density(x), dist.logpdf(x), rel_tol=1e-12)


def test_log_density_vanishes_left_of_zero():
    for hyper, _ in KINDS:
        assert hyper.log_density(0.0) == -math.inf
        assert hyper.log_density(-1.0) == -math.inf


def test_log_density_is_elementwise():
    grid = np.array([-1.0, 0.0, 1e-3, 0.3, 1.0, 4.2, 40.0])
    for hyper, _ in KINDS:
        got = hyper.log_density(grid)
        assert got.shape == grid.shape
        np.testing.assert_array_equal(got, [hyper.log_density(float(a)) for a in grid])


@pytest.mark.parametrize("k", range(3), ids=["exponential", "gamma", "inverse_gamma"])
def test_draws_follow_the_density(k):
    hyper, dist = KINDS[k]
    draws = hyper.draw(np.random.default_rng(17), 20_000)
    assert draws.shape == (20_000,) and np.all(draws > 0.0)
    assert stats.kstest(draws, dist.cdf).pvalue > 1e-3


def test_density_normalizes():
    for hyper, _ in KINDS:
        total, err = quad(lambda a: math.exp(hyper.log_density(a)), 0.0, np.inf)
        assert abs(total - 1.0) <= max(1e-8, 10 * err)


def test_envelope_boundedness():
    """Each kind stays within constant multiples of a^-c3 * exp(-c2 a)."""
    grid = np.geomspace(0.1, 50.0, 200)
    cases = [
        (HyperPrior.exponential(1.3), 1.3, 0.0, 1.0 + 1e-9),
        (HyperPrior.gamma(2.0, 1.5), 1.5, -1.0, 1.0 + 1e-9),
        # inverse gamma: the leftover exp(-scale/a) factor is bounded on [0.1, inf)
        (HyperPrior.inverse_gamma(2.0, 1.0), 0.0, 3.0, math.exp(1.0 / 0.1) * 1.01),
    ]
    for hyper, c2, c3, max_ratio in cases:
        r = np.array([math.exp(hyper.log_density(a) + c3 * math.log(a) + c2 * a)
                      for a in grid])
        assert np.all(np.isfinite(r)) and np.all(r > 0)
        assert r.max() / r.min() <= max_ratio


def test_hyperprior_validation_and_round_trip():
    with pytest.raises(ConfigError):
        HyperPrior(kind="cauchy")
    with pytest.raises(ConfigError):
        HyperPrior.exponential(0.0)
    for hyper, _ in KINDS:
        assert read_fields(HyperPrior, fields_dict(hyper)) == hyper


@pytest.mark.parametrize("make, name", [
    (HyperPrior.exponential, "rate"),
    (lambda v: HyperPrior.gamma(v, 1.0), "shape"),
    (lambda v: HyperPrior.gamma(2.0, v), "rate"),
    (lambda v: HyperPrior.inverse_gamma(2.0, v), "scale"),
])
@pytest.mark.parametrize("v", [math.nan, math.inf])
def test_hyperprior_rejects_non_finite(make, name, v):
    with pytest.raises(ConfigError, match=f"hyperprior {name} must be positive and finite"):
        make(v)


def test_mh_acceptance_no_move_is_unit():
    """An alpha has the same weight, bit for bit, wherever it falls in a proposal column
    (first, middle or last of a 16-row block, or in the short last block), so a move
    that stays put has log acceptance exactly 0."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e11, 4642, 3)
    hyper = HyperPrior.gamma(2.0, 1.5)
    prop = grid_proposal(obs, hyper)
    alphas = np.random.default_rng(0).uniform(0.5, 1.5, 40)
    alphas[[1, 6, 15, 22, 39]] = 1.1
    w = prop.log_weights(alphas)
    assert np.all(w[[6, 15, 22, 39]] - w[1] == 0.0)


def test_mh_acceptance_hand_value():
    """Outside the grid window only the hyperprior proposes, q = PRIOR_SHARE * lambda,
    so the prior cancels and the ratio is the likelihood ratio."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e7, 215, 2)
    hyper = HyperPrior.exponential(1.0)
    prop = grid_proposal(obs, hyper)
    a1, a2 = prop.edges[-1] + 0.5, prop.edges[-1] + 2.0
    w = prop.log_weights(np.array([a1, a2]))
    want = log_likelihood(a2, obs) - log_likelihood(a1, obs)
    assert math.isclose(w[1] - w[0], want, rel_tol=1e-12)
    assert math.isclose(w[0], Loglik(obs)(a1) - math.log(PRIOR_SHARE), rel_tol=1e-12)


def test_acceptance_ratio_matches_oracle_at_large_n():
    """Criterion 7's oracle and cases, with n log-uniform in [10, 1e12] instead of [10, 1e4].

    The weights come from the evaluator run_mwg uses.  Were ell carried with
    its alpha-free term n*y_1^2 (about 1e11 here), rounding alone would put the
    ratio 4e-6 off.
    """
    rng = np.random.default_rng(303)
    dists = [stats.expon(scale=1.0), stats.gamma(2.0, scale=1.0 / 1.5),
             stats.invgamma(2.0, scale=1.0)]
    hypers = [HyperPrior.exponential(1.0), HyperPrior.gamma(2.0, 1.5),
              HyperPrior.inverse_gamma(2.0, 1.0)]
    worst = 0.0
    for k in range(100):
        a1 = float(np.exp(rng.uniform(math.log(0.05), math.log(8.0))))
        a2 = float(np.exp(rng.uniform(math.log(0.05), math.log(8.0))))
        J = int(rng.integers(1, 21))
        z = rng.standard_normal(J)
        n = float(10.0 ** rng.uniform(1.0, 12.0))
        rng.uniform(0.1, 1.0)  # a step size once; drawn still, so the 100 cases stay the same
        kap = VOLTERRA.kappa_vector(J)
        y = kap * TruthSpec.paper_example().coefficients(J) + z / math.sqrt(n)
        obs = Observation(n=n, N=J, y=y, seed=k, model=VOLTERRA)
        hyper, dist = hypers[k % 3], dists[k % 3]
        prop = grid_proposal(obs, hyper)
        w = prop.log_weights(np.array([a1, a2]))
        impl = w[1] - w[0]
        j = np.arange(1, J + 1, dtype=float)

        def logtarget(a):
            return float(dist.logpdf(a) + np.sum(stats.norm.logpdf(
                y, scale=np.sqrt(kap**2 * j ** (-1.0 - 2.0 * a) + 1.0 / n))))

        oracle = (logtarget(a2) - logtarget(a1)
                  + grid_log_q(prop, dist, a1) - grid_log_q(prop, dist, a2))
        worst = max(worst, abs(impl - oracle) / (1.0 + abs(impl)))
    assert worst <= 1e-10


def test_run_mwg_validation():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 100.0, 5, 0)
    hyper = HyperPrior.exponential(1.0)
    with pytest.raises(ConfigError):
        run_mwg(obs, hyper, HbConfig(iterations=10, burn_in=10))
    for start in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="alpha_init must be positive"):
            run_mwg(obs, hyper, HbConfig(iterations=10, alpha_init=start))
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        run_mwg(obs, hyper, HbConfig(iterations=10, seed=-1))


@pytest.mark.parametrize("n, N", [(1e3, 10), (1e7, 215)], ids=["evaluated", "enclosed"])
def test_chain_stops_at_the_first_nan_weight(monkeypatch, n, N):
    """A candidate whose log weight is nan stops the chain with a NumericalError naming its
    iteration, whether its weight was evaluated or bounded: an evaluated nan weight is
    refused as it is, with no second evaluation, and nan bounds decide nothing, so the
    candidate is evaluated and its nan value refused."""
    class Holed(HyperPrior):
        def log_density(self, alpha):  # nan past alpha = 2
            v = super().log_density(alpha)
            return np.where(np.asarray(alpha) > 2.0, math.nan, v) if np.ndim(v) else v

    build = hierarchical_bayes.grid_proposal
    monkeypatch.setattr(hierarchical_bayes, "grid_proposal",
                        lambda obs, hyper: dataclasses.replace(build(obs, hyper), hyper=Holed("exponential")))
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, N, 1)
    prop = hierarchical_bayes.grid_proposal(obs, HyperPrior.exponential(1.0))
    assert (prop.enclosure is None) == (N < ENCLOSE_MIN_N)
    first = int(np.argmax(prop.draw(np.random.default_rng(4), 1000) > 2.0))
    assert first > 0
    sizes = []
    weigh = hierarchical_bayes.Proposal.log_weights
    monkeypatch.setattr(hierarchical_bayes.Proposal, "log_weights",
                        lambda self, alphas: sizes.append(alphas.size) or weigh(self, alphas))
    with pytest.raises(NumericalError, match=f"^iteration {first}: non-finite MH acceptance ratio$"):
        run_mwg(obs, HyperPrior.exponential(1.0), HbConfig(iterations=1000, seed=4))
    if N < ENCLOSE_MIN_N:  # the start point, then the chunk's one column
        assert sizes == [1, 1000]


def test_run_mwg_deterministic():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 10, 1)
    cfg = HbConfig(iterations=400, burn_in=100, seed=3)
    hyper = HyperPrior.exponential(1.0)
    a = run_mwg(obs, hyper, cfg)
    b = run_mwg(obs, hyper, cfg)
    np.testing.assert_array_equal(a.alphas, b.alphas)
    np.testing.assert_array_equal(a.mu_mean, b.mu_mean)
    np.testing.assert_array_equal(a.mu_var, b.mu_var)
    assert a.acceptance_rate == b.acceptance_rate


def test_run_mwg_basic_chain_properties():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 10, 1)
    chain = run_mwg(obs, HyperPrior.exponential(1.0),
                    HbConfig(iterations=2000, burn_in=200, seed=3))
    assert chain.alphas.size == 1800
    assert np.all(chain.alphas > 0.0)
    assert 0.0 < chain.acceptance_rate < 1.0
    assert np.all(chain.mu_var >= 0.0)


def test_chain_reads_every_coordinate_past_the_prefix():
    """Under zero data at n = 1e15 the proposal window, about [4.3, 50], lies wholly
    past alpha_full = 3.55, so the likelihood at every cell node, which sets the
    cells' masses, reads a prefix of at most 568 of the N = 2000 coordinates; yet
    the posterior of mu needs the data weight of all N.

    The mean is held to the quadrature oracle's 1e-9 sd plus a few ulps.  The
    variance is only checked to be positive: past coordinate 388 it is below
    1e-40, where the grid quadrature and the oracle's trapezoid rule part by
    more than the oracle's 1e-9 bound.
    """
    obs = simulate(TruthSpec.zero(), VOLTERRA, 1e15, 2000, 2)
    hyper, dist = KINDS[0]
    chain = run_mwg(obs, hyper, HbConfig(iterations=4000, seed=9))
    ell = Loglik(obs)
    assert chain.proposal.nodes.min() > ell.alpha_full
    assert ell._active(chain.proposal.nodes.min()) < 600
    assert chain.mu_mean.shape == chain.mu_var.shape == (2000,)
    assert np.all(np.isfinite(chain.mu_mean)) and np.all(np.isfinite(chain.mu_var))
    assert np.all(chain.mu_var > 0.0)
    mean, var, alpha = _hb_moments(obs, dist, np.geomspace(1e-6, 1e3, 4001))
    ulps = 4.0 * np.finfo(float).eps * np.abs(mean)
    assert np.all(np.abs(chain.mu_mean - mean) <= 1e-9 * np.sqrt(var) + ulps)
    _assert_alpha_summary(chain, alpha)


@pytest.mark.parametrize("n, N, k", [
    (10.0, 3, 0), (1e3, 10, 0), (1e11, 1000, 0), (1e15, 2000, 0),
    (10.0, 3, 1), (1e3, 10, 1), (1e11, 1000, 1),
    (10.0, 3, 2), (1e3, 10, 2), (1e11, 1000, 2),
], ids=["exponential-1e1", "exponential-1e3", "exponential-1e11", "exponential-1e15",
        "gamma-1e1", "gamma-1e3", "gamma-1e11",
        "inverse_gamma-1e1", "inverse_gamma-1e3", "inverse_gamma-1e11"])
def test_chain_moments_are_the_grid_quadrature(n, N, k):
    """mu_mean and mu_var are the moments of mu's hierarchical-Bayes posterior.

    The oracle integrates the conjugate posteriors `posterior(a, obs)`
    against lambda(a) times the marginal normal density of y (scipy's, as
    in criterion 7) by the trapezoid rule on 4001 points equally spaced in
    log a, and combines them by total variance.  The points span [1e-6, 1e7]
    at n <= 1e3, where the inverse gamma's tail reaches far, and [1e-6, 1e3]
    above, where alpha's posterior is narrow and needs the finer spacing.
    `log_likelihood` is not used for the weights: it carries the alpha-free
    1/2 sum n y_i^2 (about 2.5e10 at n = 1e11), whose rounding alone would
    put the oracle 3e-8 sd off.  The chain's grid cells are a small
    fraction of alpha's posterior sd at n <= 1e3, so its quadrature is held
    to 1e-4 sd in the mean and 1e-3 in the variance there, far below the
    Monte Carlo error of a chain's own estimate.  At n >= 1e7 the window holds
    alpha's posterior many times over and both rules agree to 1e-9, plus
    a few ulps of the mean (one ulp of mu_1 is 2e-9 sd at n = 1e15).  The
    summary's alpha statistics, read off the same grid, are held to the
    oracle's by `_assert_alpha_summary`.
    """
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, N, 5)
    hyper, dist = KINDS[k]
    chain = run_mwg(obs, hyper, HbConfig(iterations=10, seed=6))
    mean, var, alpha = _hb_moments(obs, dist, np.geomspace(1e-6, 1e7 if n <= 1e3 else 1e3, 4001))

    tol_mean, tol_var = (1e-4, 1e-3) if n <= 1e3 else (1e-9, 1e-9)
    ulps = 4.0 * np.finfo(float).eps * np.abs(mean)
    assert np.all(np.abs(chain.mu_mean - mean) <= tol_mean * np.sqrt(var) + ulps)
    assert np.all(np.abs(chain.mu_var - var) <= tol_var * var)
    _assert_alpha_summary(chain, alpha)


@pytest.mark.parametrize("n, N, shape, rate, truth, lo, hi", [
    (10.0, 3, 0.5, 1.0, TruthSpec.paper_example(), 1e-30, 1e3),
    (1e3, 10, 0.5, 1.0, TruthSpec.paper_example(), 1e-30, 1e3),
    (10.0, 3, 2.0, 0.01, TruthSpec(kind="zero"), 1e-6, 1e5),
    (1e3, 10, 2.0, 0.01, TruthSpec(kind="zero"), 1e-6, 1e5),
    (1e15, 10, 2.0, 0.01, TruthSpec(kind="zero"), 1e-6, 1e5),
], ids=["singular-1e1", "singular-1e3", "far-1e1", "far-1e3", "far-1e15"])
def test_chain_moments_of_wide_posteriors(n, N, shape, rate, truth, lo, hi):
    """The grid quadrature where alpha's posterior reaches 0 or far past 40.

    A gamma hyperprior of shape 1/2 has an integrable singularity at 0, which
    the cells' rule integrates exactly.  Under gamma(2, 0.01) and zero data
    the likelihood rises with alpha to a plateau, so the posterior follows
    the prior's tail out to thousands; at n = 1e15 most of its mass lies
    past 40, and the scan must extend to find it.  Each oracle is the
    trapezoid rule of `test_chain_moments_are_the_grid_quadrature` on 4001
    points over [lo, hi].  The posteriors are broad, so the bounds are
    those of n <= 1e3 there: 1e-4 sd in the mean and 1e-3 in the variance.
    The summary's alpha statistics are held as there.
    """
    obs = simulate(truth, VOLTERRA, n, N, 5)
    hyper, dist = HyperPrior.gamma(shape, rate), stats.gamma(shape, scale=1.0 / rate)
    chain = run_mwg(obs, hyper, HbConfig(iterations=10, seed=6))
    mean, var, alpha = _hb_moments(obs, dist, np.geomspace(lo, hi, 4001))
    if n == 1e15:
        assert chain.proposal.edges[-1] > 1e3 and chain.proposal.edges[0] > 1.0
        assert np.mean(run_mwg(obs, hyper, HbConfig(iterations=4000, seed=6)).alphas > 40.0) > 0.8
    assert np.all(np.abs(chain.mu_mean - mean) <= 1e-4 * np.sqrt(var))
    assert np.all(np.abs(chain.mu_var - var) <= 1e-3 * var)
    _assert_alpha_summary(chain, alpha)


def _assert_alpha_summary(chain, alpha):
    """The summary's alpha statistics against the oracle's (`_hb_moments`).

    The mean is held to 1e-4 of alpha's posterior sd.  The summary takes
    the CDF linear inside each cell of width h, which moves a quantile by
    up to h^2/8 |f'/f|, about h^2 / (4 sd) at the 2.5 and 97.5% quantiles
    of a near-normal posterior; each quantile is held to 5e-3 sd plus that
    for the cell that holds it.  Where cells are a tenth of an sd wide the
    second term is 2.5e-3 sd; under paper truth at n = 1e15 they are 0.19 sd
    wide, and the outer quantiles miss by 5.6e-3 sd.  The summary's mode is a
    cell's node, so it is held to within one width of the cell that holds
    the oracle's mode.
    """
    a_mean, a_sd, a_mode, points, cdf = alpha
    s = chain.summary()
    assert abs(s["alpha_mean"] - a_mean) <= 1e-4 * a_sd
    edges = chain.proposal.edges
    widths = np.diff(edges)
    want = np.interp([0.025, 0.5, 0.975], cdf, points)
    h = widths[np.searchsorted(edges, want, side="right") - 1]
    assert np.all(np.abs(np.array(s["alpha_quantiles"]) - want) <= 5e-3 * a_sd + h**2 / (4.0 * a_sd))
    g = int(np.searchsorted(edges, a_mode, side="right")) - 1
    assert 0 <= g < widths.size
    assert abs(s["alpha_mode"] - a_mode) <= widths[g]


def _log_posterior(obs, dist, alphas):
    """log lambda(a) plus the log marginal normal density of y (scipy's), at each a of alphas.

    The alphas go in chunks of about a million terms.
    """
    kap, j = VOLTERRA.kappa_vector(obs.N), np.arange(1, obs.N + 1, dtype=float)
    chunks = np.array_split(alphas, -(-alphas.size * obs.N // 10**6))
    return np.concatenate([dist.logpdf(a) + stats.norm.logpdf(
        obs.y, scale=np.sqrt(kap**2 * j ** (-1.0 - 2.0 * a[:, None]) + 1.0 / obs.n)).sum(axis=1)
        for a in chunks])


def _hb_moments(obs, dist, alphas):
    """Mean and variance of mu, and alpha's posterior, under hierarchical Bayes by the trapezoid rule in log alpha.

    The nodes are alphas, log-spaced; the hyperprior is the scipy distribution
    dist.  alpha's posterior is returned as its mean, sd, mode, and a CDF,
    linear between the points it is given at.  They come from a second rule
    of 20 001 points, log-spaced over the span where the first rule's density
    of log alpha is above 1e-14 of its peak: a narrow posterior (sd 0.006 at
    n = 1e15) spans few of the first rule's points, and its CDF, inverted
    between them, would be off by up to 0.3 sd.  The mode is the point
    where the density of alpha is largest.
    """
    logpost = _log_posterior(obs, dist, alphas)
    weights = np.exp(logpost - logpost.max()) * alphas  # d alpha = alpha d log alpha
    weights[[0, -1]] *= 0.5
    live = np.nonzero(weights > 0.0)[0]
    assert weights[live[0]] < 1e-12 * weights.max() or live[0] == 0
    assert weights[-1] < 1e-12 * weights.max()
    ends = np.nonzero(weights > 1e-14 * weights.max())[0][[0, -1]] + [-1, 1]
    span = alphas[np.clip(ends, 0, alphas.size - 1)]
    weights = weights[live] / weights[live].sum()
    posts = [posterior(float(a), obs) for a in alphas[live]]
    means = np.array([p.means for p in posts])
    mean = weights @ means

    points = np.geomspace(*span, 20_001)
    logpost = _log_posterior(obs, dist, points)
    dens = np.exp(logpost - logpost.max()) * points
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]))])
    cdf /= cdf[-1]
    w = 0.5 * np.diff(cdf)  # each point's trapezoid weight, half from each side
    w = np.concatenate([w, [0.0]]) + np.concatenate([[0.0], w])
    a_mean = w @ points
    alpha = (a_mean, math.sqrt(w @ (points - a_mean) ** 2), points[np.argmax(logpost)], points, cdf)
    return mean, weights @ (np.array([p.variances for p in posts]) + (means - mean) ** 2), alpha


@pytest.mark.parametrize("n, J", [(1e7, 215), (1e11, 4642)])
def test_alpha_chain_mixes(n, J):
    """The alpha chain explores its exact marginal instead of echoing the warm start."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, J, 12)
    hyper = HyperPrior.exponential(1.0)
    warm = max(fit(obs).alpha_hat, 1e-3)
    chain = run_mwg(obs, hyper, HbConfig(iterations=4000, burn_in=1000, seed=13,
                                         alpha_init=warm))

    # quadrature of lambda(alpha) * exp(ell(alpha)); the window holds all its mass
    grid = np.linspace(max(warm - 1.5, 1e-6), warm + 1.5, 3001)
    logpost = np.array([hyper.log_density(a) + log_likelihood(a, obs) for a in grid])
    dens = np.exp(logpost - logpost.max())
    assert max(dens[0], dens[-1]) < 1e-12
    dens /= trapezoid(dens, grid)
    mean = trapezoid(grid * dens, grid)
    sd = math.sqrt(trapezoid((grid - mean) ** 2 * dens, grid))

    assert _effective_sample_size()(chain.alphas) >= 300
    assert abs(float(np.std(chain.alphas)) / sd - 1.0) <= 0.15
    assert abs(float(np.mean(chain.alphas)) - mean) <= 0.25 * sd


def test_vague_inverse_gamma_chain_is_finite():
    """Under inverse_gamma(1e-3, 1e-3) about 47% of the hyperprior's draws overflow to inf.

    Such a proposal weighs -inf and is refused, so the chain runs on.  Here
    the data bound alpha's posterior; with next to none they do not, and
    its tail, near alpha^-1, is too heavy for any window below ALPHA_MAX:
    that is an error, not a truncated grid.
    """
    hyper = HyperPrior.inverse_gamma(1e-3, 1e-3)
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e7, 215, 2)
    chain = run_mwg(obs, hyper, HbConfig(iterations=10_000, seed=3))
    assert np.all(np.isfinite(chain.alphas)) and 0.5 < chain.acceptance_rate < 1.0
    assert np.all(np.isfinite(chain.mu_mean)) and np.all(chain.mu_var > 0.0)
    assert np.isinf(chain.proposal.draw(np.random.default_rng(3), 10_000)).any()

    w = chain.proposal.log_weights(np.array([-1.0, 0.0, math.inf, 2.0 * ALPHA_MAX, 1.0]))
    assert np.all(w[:4] == -math.inf) and math.isfinite(w[4])

    weak = simulate(TruthSpec.paper_example(), VOLTERRA, 10.0, 3, 2)
    with pytest.raises(NumericalError, match="tail is too heavy"):
        run_mwg(weak, hyper, HbConfig(iterations=100, seed=3))


def test_chain_whose_last_chunk_is_one_inf_draw():
    """1025 sweeps leave a 1-candidate last chunk; at seed 12 it is an inverse-gamma
    draw that overflowed to inf, so no alpha of that chunk reaches the likelihood."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e7, 200, 1)
    chain = run_mwg(obs, HyperPrior.inverse_gamma(1e-3, 1e-3), HbConfig(iterations=1025, seed=12))
    assert chain.alphas.size == 1025 - HbConfig(iterations=1025).resolved_burn_in()
    assert np.all(np.isfinite(chain.alphas)) and np.all(np.isfinite(chain.mu_mean))


CHAIN_CASES = [
    # (truth, n, N, hyperprior, iterations, seed, grid cells)
    (TruthSpec.paper_example(), 10.0, 3, HyperPrior.exponential(1.0), 3000, 1, None),
    (TruthSpec.paper_example(), 1e3, 10, HyperPrior.gamma(0.1, 1.0), 3000, 2, None),
    (TruthSpec.paper_example(), 1e3, ENCLOSE_MIN_N, HyperPrior.gamma(0.1, 1.0), 3000, 13, None),
    (TruthSpec.paper_example(), 1e7, 215, HyperPrior.exponential(1.0), 4000, 3, None),
    (TruthSpec.paper_example(), 1e7, 215, HyperPrior.gamma(0.1, 1.0), 4000, 4, None),
    (TruthSpec.paper_example(), 1e7, 215, HyperPrior.inverse_gamma(2.0, 1.0), 4000, 5, None),
    (TruthSpec.paper_example(), 1e7, 200, HyperPrior.inverse_gamma(1e-3, 1e-3), 1025, 12, None),
    (TruthSpec.paper_example(), 1e7, 215, HyperPrior.inverse_gamma(1e-3, 1e-3), 3000, 6, None),
    (TruthSpec.paper_example(), 1e11, 4642, HyperPrior.gamma(2.0, 1.5), 4000, 7, None),
    (TruthSpec.paper_example(), 1e11, 4642, HyperPrior.inverse_gamma(2.0, 1.0), 4000, 10, None),
    (TruthSpec.paper_example(), 1e11, 4642, HyperPrior.gamma(0.5, 1.0), 4000, 11, None),
    (TruthSpec.power_law(1.0), 1e9, 1000, HyperPrior.exponential(1.0), 3000, 8, 4),
    (TruthSpec.paper_example(), 1e7, 215, HyperPrior.exponential(1.0), 3000, 9, 16),
    (TruthSpec.zero(), 1e15, 2000, HyperPrior.exponential(1.3), 4000, 9, None),
    (TruthSpec.paper_example(), 2e12, 12600, HyperPrior.exponential(1.0), 4000, 14, None),
]


@pytest.mark.parametrize("truth, n, N, hyper, iterations, seed, cells", CHAIN_CASES,
                         ids=["tiny", "gamma-0.1-1e3", "gamma-0.1-window-from-0", "exponential-1e7", "gamma-0.1-1e7",
                              "inverse_gamma-1e7", "last-chunk-one-inf-draw", "vague-inverse_gamma",
                              "gamma-1e11", "inverse_gamma-1e11", "gamma-0.5-1e11",
                              "coarse-4-cells", "coarse-16-cells",
                              "past-alpha_full", "groups-across-8-row-blocks"])
def test_chain_equals_the_evaluated_chain(monkeypatch, truth, n, N, hyper, iterations, seed, cells):
    """run_mwg, which decides most moves from the enclosure, takes every decision of
    the reference chain (`oracles.reference_chain`), which evaluates every candidate
    and forms the proposal's CDF and density afresh at each call.

    A coarse grid leaves wide enclosures, so many moves are decided by evaluation.
    The 1025-sweep chain's last chunk is one inverse-gamma draw that overflowed to
    inf.  Under gamma(0.1) at n = 1e3 the grid window starts at 0, and many
    proposals fall below the first node, some below the first scan point.  At
    n = 1e11 the heavy inverse-gamma tail and the gamma(0.5) mass near 0
    propose many alphas outside the nodes' hull, where only the window scan
    bounds the likelihood.  At n = 2e12 (N = 12600) a node block holds 8 rows,
    so every group of gaps that shares a curvature bound spans blocks.  Below
    ENCLOSE_MIN_N coordinates every candidate is evaluated.
    """
    if cells is not None:
        monkeypatch.setattr(hierarchical_bayes, "GRID_CELLS", cells)
    obs = simulate(truth, VOLTERRA, n, N, seed)
    cfg = HbConfig(iterations=iterations, seed=seed + 100)
    chain = run_mwg(obs, hyper, cfg)
    alphas, rate, mu_mean, mu_var = reference_chain(obs, hyper, cfg)
    np.testing.assert_array_equal(chain.alphas, alphas)
    assert chain.acceptance_rate == rate
    np.testing.assert_array_equal(chain.mu_mean, mu_mean)
    np.testing.assert_array_equal(chain.mu_var, mu_var)
    if N < ENCLOSE_MIN_N:
        assert chain.exact_evaluations == iterations + 1
    else:
        assert chain.exact_evaluations < iterations


@pytest.mark.parametrize("truth, n, N, hyper, seed, window", [
    (TruthSpec.paper_example(), 10.0, 3, HyperPrior.exponential(1.0), 1, None),
    (TruthSpec.paper_example(), 1e3, 10, HyperPrior.gamma(2.0, 1.5), 1, None),
    (TruthSpec.paper_example(), 1e7, 215, HyperPrior.exponential(1.0), 1, None),
    (TruthSpec.paper_example(), 1e11, 4642, HyperPrior.inverse_gamma(2.0, 1.0), 1, None),
    (TruthSpec.paper_example(), 1e15, 100_000, HyperPrior.exponential(1.0), 1, None),
    (TruthSpec.zero(), 1e15, 2000, HyperPrior.exponential(1.3), 1, None),
    (TruthSpec.zero(), 1e15, 2000, HyperPrior.exponential(1.3), 2, None),
    (TruthSpec.paper_example(), 1e11, 4642, HyperPrior.exponential(1.0), 3, 1000.0),
], ids=["tiny", "not-enclosed-1e3", "1e7", "1e11", "cap-4-row-blocks", "past-alpha_full-1",
        "past-alpha_full-2", "zero-masses"])
def test_chain_moments_are_the_mixture_at_the_nodes(monkeypatch, truth, n, N, hyper, seed, window):
    """The chain's moments, joined block by block inside the node column from each
    block's log weights, are `gaussian_posterior.mixture` at the grid's nodes weighted
    by its masses, to 1e-13 relative.

    Below ENCLOSE_MIN_N coordinates the node column encloses nothing.  At the cap
    (n = 1e15, N = 1e5) a block holds 4 rows, so the running weights are rescaled
    many times.  Under zero data at n = 1e15 every node lies past alpha_full, so each
    block's w covers only a prefix and the rest comes from the tail fill; there w
    spans hundreds of decades across the nodes, and the light nodes of large w come
    first.  A window widened to 1000 leaves nodes whose masses underflow to 0, which
    `mixture` drops and the column weighs by a weight that may not be 0.
    """
    if window is not None:
        monkeypatch.setattr(hierarchical_bayes, "WINDOW", window)
    obs = simulate(truth, VOLTERRA, n, N, seed)
    chain = run_mwg(obs, hyper, HbConfig(iterations=10, seed=seed))
    prop, ell = chain.proposal, Loglik(obs)
    assert (prop.enclosure is None) == (N < ENCLOSE_MIN_N)
    if N == 100_000:
        assert block_rows(N) == 4
    if truth.kind == "zero":
        assert prop.nodes.min() > ell.alpha_full
    if window is not None:
        assert 0 < np.count_nonzero(prop.masses == 0.0) < prop.masses.size
    mean, var = mixture(obs, ell.design, prop.nodes, prop.masses)
    np.testing.assert_allclose(chain.mu_mean, mean, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(chain.mu_var, var, rtol=1e-13, atol=0.0)


def test_proposal_tables_keep_the_bits_of_each_call():
    """The proposal's CDF and log grid density, built once, give each draw, each quantile
    and each log weight the bits of forming them afresh at each call."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e7, 215, 2)
    hyper, dist = KINDS[1]
    prop = grid_proposal(obs, hyper)
    cdf = np.concatenate([[0.0], np.cumsum(prop.masses)])
    u = np.random.default_rng(4).random(5000)
    np.testing.assert_array_equal(np.interp(u * cdf[-1], cdf, prop.edges), prop.quantile(u))
    rng, again = np.random.default_rng(6), np.random.default_rng(6)
    draws = np.interp(rng.random(5000) * cdf[-1], cdf, prop.edges)
    prior = rng.random(5000) < PRIOR_SHARE
    draws[prior] = hyper.draw(rng, int(np.count_nonzero(prior)))
    np.testing.assert_array_equal(prop.draw(again, 5000), draws)
    a = np.concatenate([prop.edges, prop.nodes, [0.0, -1.0, 1e3, math.inf, math.nan],
                        np.random.default_rng(5).uniform(0.0, 2.0 * prop.edges[-1], 2000)])
    np.testing.assert_array_equal(prop.log_weights(a), fresh_log_weights(prop, a))


@pytest.mark.parametrize("hyper, seed", [
    (HyperPrior.exponential(1.0), 1), (HyperPrior.exponential(1.0), 2), (HyperPrior.exponential(1.0), 3),
    (HyperPrior.inverse_gamma(2.0, 1.0), 1), (HyperPrior.inverse_gamma(2.0, 1.0), 2),
    (HyperPrior.inverse_gamma(2.0, 1.0), 3),
    (HyperPrior.gamma(0.5, 1.0), 1), (HyperPrior.gamma(0.5, 1.0), 2), (HyperPrior.gamma(0.5, 1.0), 3),
], ids=["1", "2", "3", "inverse_gamma-1", "inverse_gamma-2", "inverse_gamma-3",
        "gamma-0.5-1", "gamma-0.5-2", "gamma-0.5-3"])
def test_enclosure_decides_most_moves_at_large_n(hyper, seed):
    """At n = 1e11 (N = 4642) log_weights evaluates about 1% of the candidates: only the
    moves whose margin neither the chord between the nodes nor, outside the nodes' hull,
    the window scan's bounds can decide.  The bound is set from the counts: 7 to 37
    over seeds 1-6 under these three hyperpriors (5 to 35 when each gap had its own
    curvature bound)."""
    N = default_truncation(1e11, 1.0)
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e11, N, seed)
    chain = run_mwg(obs, hyper, HbConfig(iterations=4000, burn_in=1000, seed=seed))
    assert N == 4642
    assert chain.exact_evaluations <= 40


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_enclosure_decides_most_moves_at_the_cap(seed):
    """At the truncation cap (n = 1e15, N = 1e5) a node block holds 4 rows, so each group
    of gaps that shares a curvature bound spans several blocks of falling prefixes; still
    about 2% of the candidates are evaluated, so the enclosure has not slid into
    one-alpha columns.  The bound is set from the counts, 59 to 63 over seeds 1-3 (55 to
    63 when each gap had its own curvature bound), with a quarter of room: the chain
    seed alone moves them, 55 to 83 over seeds 0-7 on seed 1's data."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e15, 100_000, seed)
    chain = run_mwg(obs, HyperPrior.exponential(1.0), HbConfig(iterations=4000, seed=seed))
    assert block_rows(100_000) == 4
    assert chain.exact_evaluations <= 80


@pytest.mark.parametrize("truth, n, N, hyper", [
    (TruthSpec.zero(), 1e15, 5000, HyperPrior.inverse_gamma(2.0, 1.0)),
    (TruthSpec.paper_example(), 2e12, 12600, HyperPrior.exponential(1.3)),
], ids=["falling-prefixes", "8-row-blocks"])
def test_bends_bound_the_curvature_on_every_gap(truth, n, N, hyper):
    """Each gap's bends is at least |ell''| / 2 (`Loglik.slope`) at its ends and inside it,
    though a group of gaps shares one bound read off two rows of the node column.

    Under zero truth and inverse_gamma(2, 1) at n = 1e15, N = 5000 the window runs far
    past alpha_full, so a node block's 16 rows read a prefix that falls from block to
    block, and a group's left end holds coordinates its right end's block drops.  The
    largest ratio there is 0.65; a bound that drops those coordinates reads 1.02.  At
    n = 2e12, N = 12600 a block holds 8 rows, so every group spans blocks."""
    obs = simulate(truth, VOLTERRA, n, N, 1)
    enc = grid_proposal(obs, hyper).enclosure
    ell, knots = Loglik(obs), enc.knots
    for g in range(knots.size - 1):
        for a in np.linspace(knots[g], knots[g + 1], 5):
            assert abs(ell.slope(float(a))[1]) / 2.0 <= enc.bends[g]


def test_proposal_node_values_are_the_node_column():
    """The node column that sets the cells' masses, read block by block for the
    enclosure, has the bits of `Loglik.column` at the nodes."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e11, 4642, 3)
    hyper = HyperPrior.gamma(2.0, 1.5)
    prop = grid_proposal(obs, hyper)
    values = Loglik(obs).column(prop.nodes)
    enc = prop.enclosure
    assert enc.knots.size == prop.nodes.size
    assert enc.values.tobytes() == values.tobytes()
    edges = prop.edges
    lp = hierarchical_bayes._cell_rule(hyper, edges)[1] + hyper.log_density(prop.nodes) + values
    masses = np.exp(lp - lp.max())
    assert (masses / masses.sum()).tobytes() == prop.masses.tobytes()


@pytest.mark.parametrize("truth, n, N, hyper, seed, cells", [
    (TruthSpec.paper_example(), 1e7, 215, HyperPrior.exponential(1.0), 3, None),
    (TruthSpec.paper_example(), 1e7, 215, HyperPrior.gamma(2.0, 1.5), 3, None),
    (TruthSpec.paper_example(), 1e7, 215, HyperPrior.inverse_gamma(2.0, 1.0), 3, None),
    (TruthSpec.paper_example(), 1e3, 40, HyperPrior.gamma(0.1, 1.0), 13, None),
    (TruthSpec.paper_example(), 1e7, 215, HyperPrior.inverse_gamma(1e-3, 1e-3), 6, None),
    (TruthSpec.zero(), 1e15, 2000, HyperPrior.exponential(1.3), 9, None),
    (TruthSpec.power_law(1.0), 1e9, 1000, HyperPrior.exponential(1.0), 8, 4),
    (TruthSpec.paper_example(), 1e7, 215, HyperPrior.exponential(1.0), 9, 16),
], ids=["exponential", "gamma", "inverse_gamma", "gamma-0.1-window-from-0", "vague-inverse_gamma",
        "past-alpha_full", "coarse-4-cells", "coarse-16-cells"])
def test_every_node_lies_in_its_own_cell(monkeypatch, truth, n, N, hyper, seed, cells):
    """edges[g] <= nodes[g] <= edges[g + 1], which `Proposal.bounds` relies on to find an
    alpha's gap between the knots from its cell alone."""
    if cells is not None:
        monkeypatch.setattr(hierarchical_bayes, "GRID_CELLS", cells)
    prop = grid_proposal(simulate(truth, VOLTERRA, n, N, seed), hyper)
    assert prop.nodes.size == (cells or 256)
    if n == 1e3:  # gamma(0.1, 1): the window starts at 0
        assert prop.edges[0] == 0.0
    assert np.all(prop.edges[:-1] <= prop.nodes) and np.all(prop.nodes <= prop.edges[1:])


def test_coarse_proposal_chain_matches_quadrature(monkeypatch):
    """Criterion 6's chain and TV bar, with a 4-cell proposal grid.

    The 256-cell proposal is nearly the quadrature the oracle uses, so
    criterion 6 alone would pass on the proposal's draws, whatever the
    accept rule did.  The 4-cell proposal's own draws miss the bar three
    times over, so only the Metropolis-Hastings correction brings the
    chain to its target.
    """
    monkeypatch.setattr(hierarchical_bayes, "GRID_CELLS", 4)
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 10.0, 3, seed=3)
    hyper = HyperPrior.exponential(1.0)
    chain = run_mwg(obs, hyper, HbConfig(iterations=10**6, burn_in=10**5, seed=7))
    assert chain.proposal.masses.size == 4

    grid = np.linspace(1e-6, 15.0, 30001)
    logpost = np.array([hyper.log_density(a) + log_likelihood(a, obs) for a in grid])
    dens = np.exp(logpost - logpost.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    edges = np.linspace(0.0, 5.0, 21)
    target = np.diff(np.interp(edges, grid, cdf))

    def tv(draws):
        empirical = np.histogram(draws, bins=edges)[0] / draws.size
        return 0.5 * (np.abs(empirical - target).sum()
                      + abs(np.mean(draws > 5.0) - (1.0 - np.interp(5.0, grid, cdf))))

    assert tv(chain.proposal.draw(np.random.default_rng(1), chain.alphas.size)) > 0.15
    assert tv(chain.alphas) <= 0.05


def test_effective_sample_size_matches_benchmark():
    """The library's Geyer estimate is the benchmark's, on three chains of different mixing."""
    rng = np.random.default_rng(21)
    ar = np.zeros(5000)
    for t in range(1, ar.size):
        ar[t] = 0.9 * ar[t - 1] + rng.standard_normal()
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e7, 215, 2)
    hb = run_mwg(obs, HyperPrior.exponential(1.0), HbConfig(iterations=3000, seed=4)).alphas
    for draws in (rng.standard_normal(4001), ar, hb):
        assert math.isclose(effective_sample_size(draws), _effective_sample_size()(draws),
                            rel_tol=1e-12)
    assert effective_sample_size(np.full(10, 0.7)) == 1.0


def test_burn_in_default_is_tenth():
    cfg = HbConfig(iterations=1000)
    assert cfg.resolved_burn_in() == 100
    assert HbConfig(iterations=1000, burn_in=17).resolved_burn_in() == 17


def test_chain_summary_and_files(tmp_path):
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 8, 4)
    chain = run_mwg(obs, HyperPrior.exponential(1.0),
                    HbConfig(iterations=600, burn_in=100, seed=7))
    s = chain.summary()
    assert set(s) == {"acceptance_rate", "alpha_mean", "alpha_quantiles", "alpha_mode",
                      "alpha_ess", "mu_mean", "mu_var", "burn_in", "proposal"}
    q = s["alpha_quantiles"]
    assert q[0] <= q[1] <= q[2]
    assert s["burn_in"] == 100
    assert s["alpha_ess"] == effective_sample_size(chain.alphas)
    assert s["proposal"] == {"window": [float(chain.proposal.edges[0]), float(chain.proposal.edges[-1])],
                             "cells": 256, "prior_share": PRIOR_SHARE}

    # hb-run on the same observation and settings writes this chain
    obs_path = tmp_path / "obs.json"
    obs_path.write_text(obs.to_json())
    out = tmp_path / "hb"
    assert main(["hb-run", "--obs", str(obs_path), "--iterations", "600", "--burn-in", "100",
                 "--seed", "7", "--out", str(out)]) == 0
    with open(out / "alpha.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha"]
    assert len(rows) == 501
    assert [float(r[0]) for r in rows[1:]] == list(chain.alphas)
    with open(out / "hb_summary.json") as fh:
        assert json.load(fh) == s
