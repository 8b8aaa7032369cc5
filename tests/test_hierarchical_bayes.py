from __future__ import annotations

import csv
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad, trapezoid
from scipy.special import log_ndtr

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
from invseq.cli import main
from invseq.empirical_bayes import Loglik
from invseq.errors import ConfigError
from invseq.hierarchical_bayes import _log_ndtr, histogram_mode, mh_log_acceptance
from invseq.sequence_model import fields_dict, read_fields

VOLTERRA = ModelSpec.volterra()


def _effective_sample_size():
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
    with pytest.raises(ConfigError):
        HyperPrior.fixed(-1.0)
    for hyper, _ in KINDS:
        assert read_fields(HyperPrior, fields_dict(hyper)) == hyper
    hook = HyperPrior.fixed(0.7)
    assert read_fields(HyperPrior, fields_dict(hook)) == hook


@pytest.mark.parametrize("make, name", [
    (HyperPrior.exponential, "rate"),
    (lambda v: HyperPrior.gamma(v, 1.0), "shape"),
    (lambda v: HyperPrior.gamma(2.0, v), "rate"),
    (lambda v: HyperPrior.inverse_gamma(2.0, v), "scale"),
    (HyperPrior.fixed, "alpha_star"),
])
@pytest.mark.parametrize("v", [math.nan, math.inf])
def test_hyperprior_rejects_non_finite(make, name, v):
    with pytest.raises(ConfigError, match=f"hyperprior {name} must be positive and finite"):
        make(v)


def test_mh_acceptance_no_move_is_unit():
    assert mh_log_acceptance(1.0, 1.0, -3.2, -3.2, 0.5) == 0.0


def test_mh_acceptance_hand_value():
    """Far from the boundary the ratio collapses to the target difference."""
    got = mh_log_acceptance(5.0, 6.0, -2.5, -3.5, 0.5)
    assert math.isclose(math.exp(got), math.exp(-1.0), rel_tol=1e-12)


def test_mh_acceptance_boundary_correction_sign():
    # with equal targets, moving toward the boundary picks up a positive Phi correction
    down = mh_log_acceptance(0.5, 0.1, 0.0, 0.0, 0.5)
    up = mh_log_acceptance(0.1, 0.5, 0.0, 0.0, 0.5)
    assert down > 0.0 > up


def test_acceptance_ratio_matches_oracle_at_large_n():
    """Criterion 7's oracle and cases, with n log-uniform in [10, 1e12] instead of [10, 1e4].

    The targets come from the evaluator run_mwg uses.  Were ell carried with
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
        sd = float(rng.uniform(0.1, 1.0))
        kap = VOLTERRA.kappa_vector(J)
        y = kap * TruthSpec.paper_example().coefficients(J) + z / math.sqrt(n)
        obs = Observation(n=n, N=J, y=y, seed=k, model=VOLTERRA)
        hyper, dist = hypers[k % 3], dists[k % 3]
        ell = Loglik(obs)
        impl = mh_log_acceptance(a1, a2, hyper.log_density(a1) + ell(a1),
                                 hyper.log_density(a2) + ell(a2), sd)
        j = np.arange(1, J + 1, dtype=float)

        def logtarget(a):
            return float(dist.logpdf(a) + np.sum(stats.norm.logpdf(
                y, scale=np.sqrt(kap**2 * j ** (-1.0 - 2.0 * a) + 1.0 / n))))

        oracle = (logtarget(a2) - logtarget(a1)
                  + stats.norm.logpdf(a1, loc=a2, scale=sd) - stats.norm.logcdf(a2 / sd)
                  - stats.norm.logpdf(a2, loc=a1, scale=sd) + stats.norm.logcdf(a1 / sd))
        worst = max(worst, abs(impl - oracle) / (1.0 + abs(impl)))
    assert worst <= 1e-10


def test_log_ndtr_matches_scipy():
    x = np.linspace(-30.0, 40.0, 70_001)
    got = np.array([_log_ndtr(float(v)) for v in x])
    ref = log_ndtr(x)
    # the sampler's half, x >= 0, where |log Phi| <= log 2
    pos = x >= 0.0
    assert np.max(np.abs(got[pos] - ref[pos])) <= 1e-15
    # below 0, |log Phi| reaches 454 at x = -30, where one ulp is 5.7e-14
    neg = ~pos
    assert np.all(np.abs(got[neg] - ref[neg])
                  <= 1e-15 + 4.0 * np.finfo(float).eps * np.abs(ref[neg]))


def test_step_is_fisher_information_rule():
    # J = 2, kappa = 1, n = 8, alpha = 1: w_2 = 8/(2^3 + 8) = 1/2 and log 1 = 0,
    # so I = 2*(log(2)/2)^2 and the step is 2.4/sqrt(I + 1)
    obs = Observation(n=8.0, N=2, y=np.array([0.3, -0.2]), seed=0, model=ModelSpec.exact_power(0.0))
    chain = run_mwg(obs, HyperPrior.exponential(1.0),
                    HbConfig(iterations=10, seed=1, alpha_init=1.0))
    fisher = 2.0 * (math.log(2.0) / 2.0) ** 2
    assert math.isclose(chain.proposal_sd, 2.4 / math.sqrt(fisher + 1.0), rel_tol=1e-14)


def test_histogram_mode():
    draws = np.concatenate([np.full(90, 1.1), np.full(10, 3.3)])
    assert histogram_mode(draws) == 1.125
    assert histogram_mode(np.full(5, 3.3)) == 3.375
    # the bins reach past the largest draw, so no draw is dropped
    assert histogram_mode(np.full(5, 7.0)) == 7.125
    draws = np.concatenate([np.full(90, 6.1), np.full(10, 1.1)])
    assert histogram_mode(draws) == 6.125


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


def test_fixed_hyperprior_rejects_another_start():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 100.0, 5, 0)
    hook = HyperPrior.fixed(0.7)
    with pytest.raises(ConfigError):
        run_mwg(obs, hook, HbConfig(iterations=10, alpha_init=2.0))
    for start in (None, 0.7):
        chain = run_mwg(obs, hook, HbConfig(iterations=10, alpha_init=start))
        assert np.all(chain.alphas == 0.7)


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


def test_run_mwg_fixed_hook_matches_conjugate():
    """With alpha pinned the moments are those of the fixed-alpha posterior.

    The bounds are those a Monte Carlo estimate from as many iid draws as
    kept sweeps would meet.
    """
    alpha_star = 0.7
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 50.0, 4, 2)
    chain = run_mwg(obs, HyperPrior.fixed(alpha_star),
                    HbConfig(iterations=4000, burn_in=0, seed=9))
    assert np.all(chain.alphas == alpha_star)
    assert chain.acceptance_rate == 0.0
    ref = posterior(alpha_star, obs)
    m = chain.alphas.size
    se_mean = np.sqrt(ref.variances / m)
    assert np.all(np.abs(chain.mu_mean - ref.means) <= 4.0 * se_mean)
    want_second = ref.variances + ref.means ** 2
    se_second = np.sqrt((2.0 * ref.variances ** 2
                         + 4.0 * ref.variances * ref.means ** 2) / m)
    second_moment = chain.mu_var + chain.mu_mean ** 2
    assert np.all(np.abs(second_moment - want_second) <= 4.0 * se_second)


def test_run_mwg_fixed_hook_reads_every_coordinate_past_the_prefix():
    """At alpha = 5 and n = 1e15 the likelihood evaluates only the first k = 293 of
    the N = 2000 coordinates, yet the posterior of mu needs the data weight
    of all N.

    The checks are those of the test above; with 2000 coordinates and two
    checks each, a 5-sd bound keeps the chance of a false alarm near 0.2%.
    """
    alpha_star = 5.0
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e15, 2000, 2)
    chain = run_mwg(obs, HyperPrior.fixed(alpha_star),
                    HbConfig(iterations=4000, burn_in=0, seed=9))
    assert np.all(np.isfinite(chain.mu_mean)) and np.all(np.isfinite(chain.mu_var))
    ref = posterior(alpha_star, obs)
    m = chain.alphas.size
    se_mean = np.sqrt(ref.variances / m)
    assert np.all(np.abs(chain.mu_mean - ref.means) <= 5.0 * se_mean)
    want_second = ref.variances + ref.means ** 2
    se_second = np.sqrt((2.0 * ref.variances ** 2
                         + 4.0 * ref.variances * ref.means ** 2) / m)
    second_moment = chain.mu_var + chain.mu_mean ** 2
    assert np.all(np.abs(second_moment - want_second) <= 5.0 * se_second)


@pytest.mark.parametrize("n", [1e15, 1e20])
def test_mu_var_matches_conjugate_at_large_n(n):
    """Posterior means spread far less than their size; the variance must not cancel away."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, 50, 4)
    chain = run_mwg(obs, HyperPrior.fixed(1.0),
                    HbConfig(iterations=20_000, burn_in=0, seed=8))
    m = chain.alphas.size
    ratio = chain.mu_var / posterior(1.0, obs).variances
    # the bound a sample variance of m iid normal draws meets: relative sd sqrt(2/(m-1))
    assert np.all(np.abs(ratio - 1.0) <= 5.0 * math.sqrt(2.0 / (m - 1)))


@pytest.mark.parametrize("n, N, hyper", [
    (1e3, 10, HyperPrior.exponential(1.0)),
    (1e11, 4642, HyperPrior.exponential(1.0)),
    (1e15, 2000, HyperPrior.exponential(1.0)),
    (1e3, 10, HyperPrior.fixed(0.7)),
], ids=["exponential-1e3", "exponential-1e11", "exponential-1e15", "fixed-1e3"])
def test_chain_moments_are_the_mixture_over_kept_alphas(n, N, hyper):
    """mu_mean and mu_var are the moments of the conjugate posteriors at the kept alphas.

    The oracle forms posterior(a, obs) at every kept alpha, repeats included,
    and combines them by the law of total variance.
    """
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, N, 5)
    warm = None if hyper.kind == "fixed" else max(fit(obs).alpha_hat, 1e-3)
    chain = run_mwg(obs, hyper, HbConfig(iterations=2000, seed=6, alpha_init=warm))
    posts = [posterior(float(a), obs) for a in chain.alphas]
    means = np.array([p.means for p in posts])
    m = np.mean(means, axis=0)
    v = np.mean([p.variances for p in posts], axis=0) + np.var(means, axis=0)
    assert np.all(np.abs(chain.mu_mean - m) <= 1e-12 * (np.abs(m) + np.sqrt(v)))
    assert np.all(np.abs(chain.mu_var - v) <= 1e-12 * v)
    if hyper.kind == "fixed":  # one alpha: the moments are the conjugate posterior's own
        np.testing.assert_array_equal(chain.mu_mean, posts[0].means)
        np.testing.assert_array_equal(chain.mu_var, posts[0].variances)


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


def test_burn_in_default_is_tenth():
    cfg = HbConfig(iterations=1000)
    assert cfg.resolved_burn_in() == 100
    assert HbConfig(iterations=1000, burn_in=17).resolved_burn_in() == 17


def test_chain_summary_and_files(tmp_path):
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 8, 4)
    chain = run_mwg(obs, HyperPrior.exponential(1.0),
                    HbConfig(iterations=600, burn_in=100, seed=7))
    s = chain.summary()
    for key in ("acceptance_rate", "alpha_mean", "alpha_quantiles", "alpha_mode",
                "mu_mean", "mu_var", "burn_in", "proposal_sd"):
        assert key in s
    q = s["alpha_quantiles"]
    assert q[0] <= q[1] <= q[2]
    assert s["burn_in"] == 100

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
