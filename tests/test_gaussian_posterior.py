from __future__ import annotations

import math

import numpy as np
import pytest

from invseq import (
    ModelSpec,
    Observation,
    TruthSpec,
    posterior,
    posterior_mean_function,
    posterior_risk,
    simulate,
    synthesize_function,
)
from invseq.errors import ConfigError
from invseq.gaussian_posterior import mixture
from invseq.sequence_model import block_rows, design

FLAT = ModelSpec.exact_power(0.0)
VOLTERRA = ModelSpec.volterra()


def _obs(n, y, model=FLAT, seed=0):
    y = np.asarray(y, dtype=float)
    return Observation(n=float(n), N=y.size, y=y, seed=seed, model=model)


def test_first_coordinate_alpha_free():
    # i = 1 kills the i^(1+2a) factor: var = 1/(1 + n kappa^2)
    for alpha in (0.0, 0.7, 3.0):
        post = posterior(alpha, _obs(1.0, [0.0]))
        assert post.means[0] == 0.0
        assert math.isclose(post.variances[0], 0.5, rel_tol=1e-15)


def test_hand_value_second_coordinate():
    post = posterior(1.0, _obs(100.0, [0.0, 0.5]))
    assert math.isclose(post.means[1], 50.0 / 108.0, rel_tol=1e-14)
    assert math.isclose(post.variances[1], 1.0 / 108.0, rel_tol=1e-14)
    assert post.means[0] == 0.0


def test_prior_limit_small_n():
    alpha = 0.8
    post = posterior(alpha, _obs(1e-12, [2.0, -1.0, 0.5, 3.0, -0.2]))
    i = np.arange(1, 6, dtype=float)
    np.testing.assert_allclose(post.variances, i ** (-1.0 - 2.0 * alpha), rtol=1e-9)
    assert np.max(np.abs(post.means)) < 1e-11


def test_negative_alpha_rejected():
    with pytest.raises(ConfigError):
        posterior(-0.1, _obs(10.0, [1.0]))


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_non_finite_alpha_rejected(alpha):
    with pytest.raises(ConfigError, match="alpha must be finite"):
        posterior(alpha, _obs(10.0, [1.0, 0.5]))


def _mixture_oracle(obs, alphas, weights):
    """posterior() at each alpha, combined by total variance under the normalised weights."""
    p = weights / np.sum(weights)
    posts = [posterior(float(a), obs) for a in alphas]
    means = np.array([post.means for post in posts])
    m = p @ means
    return m, p @ np.array([post.variances for post in posts]) + p @ (means - m) ** 2


@pytest.mark.parametrize("n, N, k, rows", [
    (10.0, 3, 40, 512),  # one block
    (1e11, 4642, 37, 16),  # two full blocks and a partial one
    (1e15, 100_000, 6, 4),  # a block of four and one of two
    (1e20, 50, 40, 512),  # the posterior variances are far below the means' squares
])
def test_mixture_matches_per_alpha_oracle(n, N, k, rows):
    """Fractional weights, as a quadrature grid over alpha gives them, on alphas
    clustered as a posterior of alpha clusters: at n = 1e15 their w_i agree to
    many digits, where raw second moments would cancel."""
    assert block_rows(N) == rows
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, N, 11)
    rng = np.random.default_rng(int(math.log10(n)))
    alphas = 1.0 + 0.05 * rng.standard_normal(k)
    weights = rng.uniform(0.0, 1.0, k) ** 2
    mean, var = mixture(obs, design(VOLTERRA, n, N), alphas, weights)
    m, v = _mixture_oracle(obs, alphas, weights)
    assert np.all(np.abs(mean - m) <= 1e-12 * (np.abs(m) + np.sqrt(v)))
    assert np.all(np.abs(var - v) <= 1e-12 * v)


def test_mixture_keeps_its_digits_when_the_heavy_alphas_come_last():
    """Under zero data at n = 1e15, w_i falls by hundreds of decades over alpha in
    [4.5, 50], so the light alphas of small index dominate E[w] while the heavy
    alphas come in later blocks.  Each merge weighs the running mean and the block's
    by their shares, both >= 0, so no digit cancels: the moments match a long-double
    sum over the same w and weights to 1e-14 relative.  Updating the running mean by
    its share of the difference lost 6e-7 here."""
    n, N = 1e15, 2000
    obs = simulate(TruthSpec.zero(), VOLTERRA, n, N, 1)
    d = design(VOLTERRA, n, N)
    alphas = np.geomspace(4.5, 50.0, 256)
    weights = np.exp(alphas - 50.0)  # rising over 20 decades
    mean, var = mixture(obs, d, alphas, weights)
    w = np.empty((alphas.size, N))
    for s, u, u1 in d.blocks(alphas):
        w[s:s + len(u)] = u * (1.0 / u1)
    w, q, ld = w.astype(np.longdouble), weights.astype(np.longdouble), np.longdouble
    ew = q @ w / q.sum()
    y_over_k = obs.y.astype(ld) / d.kappa.astype(ld)
    m = ew * y_over_k
    v = ew / (ld(n) * d.kappa.astype(ld) ** 2) + q @ (w - ew) ** 2 / q.sum() * y_over_k**2
    assert np.all(np.abs(mean - m) <= 1e-14 * np.abs(m))
    assert np.all(np.abs(var - v) <= 1e-14 * v)


def test_mixture_zero_weight_block_contributes_nothing():
    """A block of 16 alphas (the rows at N = 4642) that all have weight 0, as
    the first block or a later one, leaves every bit of the moments as
    without it."""
    n, N = 1e11, 4642
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, N, 11)
    d = design(VOLTERRA, n, N)
    rng = np.random.default_rng(5)
    alphas, weights = rng.uniform(0.5, 1.5, 21), rng.uniform(0.1, 1.0, 21)
    want = mixture(obs, d, alphas, weights)
    for at in (0, 16):
        got = mixture(obs, d, np.insert(alphas, at, rng.uniform(0.5, 1.5, 16)),
                      np.insert(weights, at, np.zeros(16)))
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_mixture_needs_a_positive_weight():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 10, 11)
    with pytest.raises(ValueError, match="weight > 0"):
        mixture(obs, design(VOLTERRA, 1e3, 10), np.array([0.5, 1.0]), np.zeros(2))


def test_mixture_of_one_alpha_is_the_posterior():
    """One alpha, at any weight, gives the conjugate posterior bit for bit."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e11, 4642, 11)
    post = posterior(0.8, obs)
    for weight in (1.0, 0.3, 7.0):
        mean, var = mixture(obs, design(VOLTERRA, 1e11, 4642), np.array([0.8]),
                            np.array([weight]))
        np.testing.assert_array_equal(mean, post.means)
        np.testing.assert_array_equal(var, post.variances)


def test_shrinkage_bound():
    """|kappa_i * mean_i| never exceeds |y_i|."""
    rng = np.random.default_rng(7)
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 50.0, 200, 4)
    kap = VOLTERRA.kappa_vector(200)
    for alpha in rng.uniform(0.0, 4.0, size=5):
        post = posterior(float(alpha), obs)
        assert np.all(np.abs(kap * post.means) <= np.abs(obs.y) + 1e-15)


def test_variance_decreasing_in_alpha():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 30, 2)
    v_lo = posterior(0.5, obs).variances
    v_hi = posterior(1.5, obs).variances
    assert np.all(v_hi[1:] < v_lo[1:])
    assert math.isclose(v_hi[0], v_lo[0], rel_tol=1e-15)


def test_risk_hand_value():
    # N=1, kappa=1, alpha=0, n=1, y=2, mu0=1: (1-1)^2 + 1/2
    assert math.isclose(posterior_risk(posterior(0.0, _obs(1.0, [2.0])), np.array([1.0])),
                        0.5, rel_tol=1e-15)


def test_risk_pure_spread_at_zero():
    obs = _obs(30.0, np.zeros(12), model=VOLTERRA)
    post = posterior(1.2, obs)
    assert posterior_risk(post, np.zeros(12)) == float(np.sum(post.variances))


def test_risk_noiseless_consistency():
    N = 1000
    mu0 = TruthSpec.paper_example().coefficients(N)
    kap = VOLTERRA.kappa_vector(N)
    small = posterior_risk(posterior(1.0, Observation(n=1e12, N=N, y=kap * mu0, seed=0,
                                                      model=VOLTERRA)), mu0)
    big = posterior_risk(posterior(1.0, Observation(n=1e3, N=N, y=kap * mu0, seed=0,
                                                    model=VOLTERRA)), mu0)
    assert small < 1e-3
    assert small < big / 100.0


def test_risk_matches_monte_carlo():
    """The closed form equals the sampled mean of ||draw - mu0||^2."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 100.0, 20, 5)
    mu0 = TruthSpec.paper_example().coefficients(20)
    post = posterior(0.9, obs)
    r = 4000

    def draw(seed):  # one exact draw of the coordinate vector from the posterior
        return post.means + np.sqrt(post.variances) * np.random.default_rng(seed).standard_normal(20)

    sq = np.array([float(np.sum((draw(40_000 + k) - mu0) ** 2)) for k in range(r)])
    want = posterior_risk(post, mu0)
    assert abs(sq.mean() - want) <= 4.0 * sq.std(ddof=1) / math.sqrt(r)


def test_risk_short_mu0_padded():
    obs = _obs(10.0, [0.4, -0.2, 0.1])
    post = posterior(0.5, obs)
    assert math.isclose(posterior_risk(post, np.array([0.4])),
                        posterior_risk(post, np.array([0.4, 0.0, 0.0])),
                        rel_tol=1e-15)


def test_risk_finite_on_dense_grid():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e6, 1000, 8)
    mu0 = TruthSpec.paper_example().coefficients(1000)
    vals = [posterior_risk(posterior(a, obs), mu0)
            for a in np.linspace(0.0, math.log(1e6), 200)]
    assert np.all(np.isfinite(vals))


def test_mean_function_definitional():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e4, 100, 3)
    post = posterior(1.0, obs)
    t = np.linspace(0.0, 1.0, 65)
    np.testing.assert_array_equal(posterior_mean_function(post, t),
                                  synthesize_function(post.means, t))
    zero = posterior(1.0, _obs(5.0, np.zeros(4)))
    assert not posterior_mean_function(zero, t).any()


def test_mean_function_improves_down_the_ladder():
    """Same seed, fixed alpha: more data brings the curve closer to the truth."""
    t = np.linspace(0.0, 1.0, 512)

    def grid_err(n):
        N = 4642
        obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, N, 42)
        mu0 = TruthSpec.paper_example().coefficients(N)
        f_true = synthesize_function(mu0, t)
        f_hat = posterior_mean_function(posterior(1.0, obs), t)
        return math.sqrt(float(np.mean((f_hat - f_true) ** 2)))

    assert grid_err(1e11) < grid_err(1e3)
