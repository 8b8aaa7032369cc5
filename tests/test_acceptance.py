"""End-to-end acceptance checks.

Each test exercises one acceptance criterion against an independently
coded oracle or a frozen calibration, and prints a single PASS/FAIL
line (echoed after the pytest summary by conftest).
"""
from __future__ import annotations

import math

import numpy as np
from scipy import stats
from scipy.integrate import cumulative_trapezoid, simpson, trapezoid

import conftest
from invseq import (
    ExperimentConfig,
    HbConfig,
    HyperPrior,
    ModelSpec,
    Observation,
    TruthSpec,
    bracket,
    default_truncation,
    fit,
    log_likelihood,
    posterior,
    run_mwg,
    run_rate_sweep,
    score,
    simulate,
    synthesize_function,
)
from invseq.hierarchical_bayes import grid_proposal
from oracles import grid_log_q, volterra_forward

VOLTERRA = ModelSpec.volterra()


def _check(num: int, label: str, ok: bool) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {label}"
    print(line)
    conftest.record(line)
    assert ok, line


def test_posterior_matches_independent_oracle():
    rng = np.random.default_rng(101)
    ok = True
    for k in range(100):
        N = int(rng.integers(1, 51))
        alpha = float(rng.uniform(0.0, 5.0))
        n = float(10.0 ** rng.uniform(0.0, 8.0))
        if k % 3 == 0:
            model = ModelSpec.exact_power(float(rng.uniform(0.0, 2.0)))
        elif k % 3 == 1:
            model = VOLTERRA
        else:
            model = ModelSpec.explicit(rng.uniform(0.5, 2.0, N), p=0.0, C=2.0)
        y = 3.0 * rng.standard_normal(N)
        obs = Observation(n=n, N=N, y=y, seed=0, model=model)
        post = posterior(alpha, obs)
        kap = model.kappa_vector(N)
        for i in range(1, N + 1):
            k2 = kap[i - 1] ** 2
            denom = math.pow(i, 1.0 + 2.0 * alpha) / k2 + n
            mean_i = n * y[i - 1] / (kap[i - 1] * denom)
            var_i = (1.0 / k2) / denom
            ok &= abs(post.means[i - 1] - mean_i) <= 1e-12 * max(abs(mean_i), 1e-300)
            ok &= abs(post.variances[i - 1] - var_i) <= 1e-12 * var_i
    _check(1, "coordinate posterior matches closed-form oracle to 1e-12", ok)


def test_score_matches_finite_differences():
    rng = np.random.default_rng(202)
    h = 1e-5
    ok = True
    for _ in range(20):
        n = float(10.0 ** rng.uniform(1.0, 6.0))
        N = int(rng.integers(2, 501))
        alpha = float(rng.uniform(0.01, 3.0))
        obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, N,
                       seed=int(rng.integers(0, 10**6)))
        fd = (log_likelihood(alpha + h, obs) - log_likelihood(alpha - h, obs)) / (2 * h)
        s = score(alpha, obs)
        ok &= abs(s - fd) <= 1e-6 * (1.0 + abs(s))
    _check(2, "likelihood derivative matches central differences", ok)


def test_zero_data_maximizer_hits_grid_endpoint():
    ok = True
    for n in (10.0, 1e3, 1e6):
        obs = Observation(n=n, N=20, y=np.zeros(20), seed=0, model=VOLTERRA)
        res = fit(obs)
        ok &= res.alpha_hat == math.log(n) and not res.refined
    _check(3, "zero data drives the maximizer to log n exactly", ok)


def test_bracket_contains_estimator_across_seeds():
    truth = TruthSpec.power_law(1.0)
    N = 10**4
    n = 1e8
    rep = bracket(truth.coefficients(N), VOLTERRA, n)
    inside = 0
    for seed in range(50):
        obs = simulate(truth, VOLTERRA, n, N, seed=seed)
        a = fit(obs).alpha_hat
        inside += rep.alpha_lower <= a <= rep.alpha_upper
    _check(4, f"bracket holds the maximizer in {inside}/50 seeds (need 48)",
           inside >= 48)


def test_error_decay_slopes_match_theory(tmp_path):
    cases = [
        ("sob-1-volterra", 1.0, VOLTERRA, TruthSpec.power_law(1.0)),
        ("sob-1-direct", 1.0, ModelSpec.exact_power(0.0), TruthSpec.power_law(1.0)),
        ("sob-2-volterra", 2.0, VOLTERRA, TruthSpec.power_law(2.0)),
    ]
    ok = True
    for tag, beta, model, truth in cases:
        out = tmp_path / tag
        out.mkdir()
        cfg = ExperimentConfig(model=model, truth=truth,
                               n_ladder=(1e4, 1e6, 1e8, 1e10, 1e12),
                               replicates=20, seed=1000, output_dir=str(out))
        manifest = run_rate_sweep(cfg, beta)
        ok &= abs(manifest["fitted_slope"] - manifest["theoretical_slope"]) <= 0.15
    _check(5, "log-log error slopes sit within 0.15 of theory", ok)


def test_sampler_marginal_matches_quadrature():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 10.0, 3, seed=3)
    hyper = HyperPrior.exponential(1.0)
    chain = run_mwg(obs, hyper, HbConfig(iterations=10**6,
                                         burn_in=10**5, seed=7))

    grid = np.linspace(1e-6, 15.0, 30001)
    logpost = np.array([hyper.log_density(a) + log_likelihood(a, obs)
                        for a in grid])
    dens = np.exp(logpost - logpost.max())
    dens /= trapezoid(dens, grid)
    cdf = cumulative_trapezoid(dens, grid, initial=0.0)

    edges = np.linspace(0.0, 5.0, 21)
    target = np.diff(np.interp(edges, grid, cdf))
    target_over = 1.0 - np.interp(5.0, grid, cdf)
    empirical = np.histogram(chain.alphas, bins=edges)[0] / chain.alphas.size
    empirical_over = np.mean(chain.alphas > 5.0)
    tv = 0.5 * (np.abs(empirical - target).sum()
                + abs(empirical_over - target_over))
    ok = tv <= 0.05

    # the chain's moments of mu are those of its hierarchical posterior: the conjugate
    # posteriors integrated against the same density, within what 1e4 iid draws would meet
    posts = [posterior(float(a), obs) for a in grid]
    means = np.array([p.means for p in posts])
    m = trapezoid(dens[:, None] * means, grid, axis=0)
    second = trapezoid(dens[:, None] * (np.array([p.variances for p in posts]) + means**2),
                       grid, axis=0)
    v, M = second - m**2, 10**4
    se_mean = np.sqrt(v / M)
    se_second = np.sqrt((2.0 * v**2 + 4.0 * v * m**2) / M)
    ok &= bool(np.all(np.abs(chain.mu_mean - m) <= 4.0 * se_mean))
    ok &= bool(np.all(np.abs(chain.mu_var + chain.mu_mean**2 - second) <= 4.0 * se_second))
    _check(6, f"chain marginal within TV {tv:.4f} of quadrature (cap 0.05)", ok)


def test_mh_acceptance_matches_oracle_and_balances():
    rng = np.random.default_rng(303)
    hypers = [HyperPrior.exponential(1.0), HyperPrior.gamma(2.0, 1.5),
              HyperPrior.inverse_gamma(2.0, 1.0)]
    dists = [stats.expon(scale=1.0), stats.gamma(2.0, scale=1.0 / 1.5),
             stats.invgamma(2.0, scale=1.0)]
    ok = True
    for k in range(100):
        a1 = float(np.exp(rng.uniform(math.log(0.05), math.log(8.0))))
        a2 = float(np.exp(rng.uniform(math.log(0.05), math.log(8.0))))
        J = int(rng.integers(1, 21))
        # an observation of J coordinates at n log-uniform in [10, 1e4]
        z = rng.standard_normal(J)
        n = float(10.0 ** rng.uniform(1.0, 4.0))
        rng.uniform(0.1, 1.0)  # a step size once; drawn still, so the 100 cases stay the same
        kap = VOLTERRA.kappa_vector(J)
        y = kap * TruthSpec.paper_example().coefficients(J) + z / math.sqrt(n)
        obs = Observation(n=n, N=J, y=y, seed=k, model=VOLTERRA)
        hyper, dist = hypers[k % 3], dists[k % 3]

        # what run_mwg evaluates: log weights log pi - log q, whose difference is the ratio
        prop = grid_proposal(obs, hyper)
        w = prop.log_weights(np.array([a1, a2]))
        impl = w[1] - w[0]
        j = np.arange(1, J + 1, dtype=float)

        def logtarget(a):
            # y_j ~ N(0, kappa_j^2 j^(-1-2a) + 1/n) with mu integrated out
            return float(dist.logpdf(a) + np.sum(stats.norm.logpdf(
                y, scale=np.sqrt(kap**2 * j ** (-1.0 - 2.0 * a) + 1.0 / n))))

        oracle = (logtarget(a2) - logtarget(a1)
                  + grid_log_q(prop, dist, a1) - grid_log_q(prop, dist, a2))
        ok &= abs(impl - oracle) <= 1e-10 * (1.0 + abs(impl))

    # empirical detailed balance of the accept rule on a 3-point target
    pi = np.array([0.5, 0.3, 0.2])
    others = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    rng2 = np.random.default_rng(11)
    picks = rng2.integers(0, 2, size=10**6)
    coins = rng2.random(10**6)
    visits = np.zeros(3)
    moves = np.zeros((3, 3))
    state = 0
    for pick, coin in zip(picks, coins):
        cand = others[state][pick]
        visits[state] += 1
        if coin < min(1.0, pi[cand] / pi[state]):
            moves[state, cand] += 1
            state = cand
    for i in range(3):
        for jj in others[i]:
            p = 0.5 * min(1.0, pi[jj] / pi[i])
            se = math.sqrt(p * (1.0 - p) / visits[i])
            ok &= abs(moves[i, jj] / visits[i] - p) <= 3.0 * se
    _check(7, "acceptance ratio matches oracle; empirical balance holds", ok)


def test_diagnostic_bracket_three_regimes():
    rep_a = bracket(np.array([1.0]), VOLTERRA, 1e6)
    ok = (math.isinf(rep_a.alpha_upper)
          and rep_a.upper_status == "identically-zero"
          and math.isclose(rep_a.alpha_lower, math.sqrt(math.log(1e6)),
                           rel_tol=1e-12))

    truth = TruthSpec.paper_example()
    for n in (1e6, 1e8, 1e10):
        N = default_truncation(n, 1.0)
        rep_b = bracket(truth.coefficients(N), VOLTERRA, n)
        cap = math.log(n) / (2.0 * math.log(2.0)) - 0.5 - 1.0
        ok &= rep_b.upper_status == "crossed" and rep_b.alpha_upper <= cap

    mu0 = TruthSpec.analytic_decay(1.0).coefficients(400)
    rep_c = bracket(mu0, ModelSpec.exact_power(0.0), 1e8)
    floor = math.sqrt(math.log(1e8)) / math.log(math.log(1e8))
    ok &= rep_c.alpha_lower >= floor
    _check(8, "diagnostic bracket: flat, capped, and analytic regimes", ok)


def test_regularity_recovered_at_large_n():
    truth = TruthSpec.paper_example()
    n, N = 1e11, 4642
    hyper = HyperPrior.exponential(1.0)
    hits_eb = hits_hb = 0
    for r in range(50):
        obs = simulate(truth, VOLTERRA, n, N, seed=9000 + r)
        eb = fit(obs)
        hits_eb += 0.5 <= eb.alpha_hat <= 1.5
        chain = run_mwg(obs, hyper,
                        HbConfig(iterations=4000, burn_in=1000,
                                 seed=20000 + r,
                                 alpha_init=max(eb.alpha_hat, 1e-3)))
        hits_hb += 0.5 <= chain.summary()["alpha_mode"] <= 1.5
    _check(9, f"regularity level 1 recovered (EB {hits_eb}/50, HB {hits_hb}/50,"
              " need 45)", hits_eb >= 45 and hits_hb >= 45)


def test_forward_map_matches_quadrature():
    mu = TruthSpec.paper_example().coefficients(2000)
    kap = VOLTERRA.kappa_vector(2000)
    grid = np.linspace(0.0, 1.0, 163841)
    f = synthesize_function(mu, grid)
    g_one = simpson((1.0 - grid) * f, x=grid)
    ok = True
    for jj in range(10):
        t = jj / 10.0
        idx = jj * 16384
        g_t = simpson((t - grid[:idx + 1]) * f[:idx + 1], x=grid[:idx + 1]) if idx else 0.0
        # weighting applied twice integrates the synthesized signal
        ok &= abs(volterra_forward(kap * mu, t) - (g_one - g_t)) <= 1e-6
    _check(10, "operator forward map agrees with double-primitive quadrature", ok)
