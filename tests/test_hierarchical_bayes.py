from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from invseq import (
    HbConfig,
    HyperPrior,
    ModelSpec,
    TruthSpec,
    default_proposal_sd,
    histogram_mode,
    log_conditional_mu_density,
    mh_alpha_step,
    mh_log_acceptance,
    posterior,
    run_mwg,
    simulate,
)
from invseq.errors import ConfigError

VOLTERRA = ModelSpec.volterra()

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
        assert HyperPrior.from_dict(hyper.to_dict()) == hyper
    hook = HyperPrior.fixed(0.7)
    assert HyperPrior.from_dict(hook.to_dict()) == hook


def test_conditional_density_single_coordinate():
    for alpha in (0.3, 1.0, 5.0):
        got = log_conditional_mu_density(np.array([0.8]), alpha)
        assert math.isclose(got, -0.32, rel_tol=1e-15)


def test_conditional_density_hand_value():
    # J=2, mu=(0,1), alpha=0.5: (1)*log 2 - 2^2/2
    got = log_conditional_mu_density(np.array([0.0, 1.0]), 0.5)
    assert math.isclose(got, math.log(2.0) - 2.0, rel_tol=1e-15)


def test_conditional_density_monotone_at_zero():
    mu = np.zeros(5)
    vals = [log_conditional_mu_density(mu, a) for a in (0.2, 0.8, 2.0)]
    assert vals[0] < vals[1] < vals[2]


def test_conditional_density_overflow_guard():
    # 3^(1+2*400) dwarfs the float range; want -inf, not an exception
    got = log_conditional_mu_density(np.array([0.0, 1.0, 1.0]), 400.0)
    assert got == -math.inf


def test_mh_acceptance_no_move_is_unit():
    hyper = HyperPrior.exponential(1.0)
    mu = np.array([0.4, -0.1])
    assert mh_log_acceptance(1.0, 1.0, mu, hyper, 0.5) == 0.0


def test_mh_acceptance_hand_value():
    """Far from the boundary the ratio collapses to the hyperprior move e^-1."""
    got = mh_log_acceptance(5.0, 6.0, np.array([0.3]), HyperPrior.exponential(1.0), 0.5)
    assert math.isclose(math.exp(got), math.exp(-1.0), rel_tol=1e-12)


def test_mh_acceptance_boundary_correction_sign():
    # moving toward the boundary picks up a positive Phi correction
    mu = np.zeros(1)
    flat = HyperPrior.gamma(1.0, 1e-9)  # nearly flat on the range probed
    down = mh_log_acceptance(0.5, 0.1, mu, flat, 0.5)
    up = mh_log_acceptance(0.1, 0.5, mu, flat, 0.5)
    assert down > 0.0 > up


def test_mh_step_determinism_and_positivity():
    hyper = HyperPrior.exponential(1.0)
    mu = np.array([0.2, 0.4])
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    a1, acc1 = mh_alpha_step(0.05, mu, hyper, 2.0, rng1)
    a2, acc2 = mh_alpha_step(0.05, mu, hyper, 2.0, rng2)
    assert (a1, acc1) == (a2, acc2)
    rng = np.random.default_rng(6)
    alpha = 0.05
    for _ in range(500):
        alpha, _ = mh_alpha_step(alpha, mu, hyper, 2.0, rng)
        assert alpha > 0.0


def test_mh_step_rejects_bad_sd():
    with pytest.raises(ConfigError):
        mh_alpha_step(1.0, np.zeros(1), HyperPrior.exponential(1.0), 0.0,
                      np.random.default_rng(0))


def test_default_proposal_sd_regimes():
    base = 0.3 * max(1.0, math.log(math.log(1e3)))
    assert math.isclose(default_proposal_sd(1e3, 2), base, rel_tol=1e-12)
    # large J: the curvature cap takes over
    j = np.arange(1, 4643, dtype=float)
    cap = 2.4 / math.sqrt(2.0 * float(np.sum(np.log(j) ** 2)))
    assert math.isclose(default_proposal_sd(1e11, 4642), cap, rel_tol=1e-12)
    assert default_proposal_sd(math.e, 1) == 0.3


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
        run_mwg(obs, hyper, HbConfig(J=6, iterations=10))
    with pytest.raises(ConfigError):
        run_mwg(obs, hyper, HbConfig(J=5, iterations=10, burn_in=10))
    with pytest.raises(ConfigError):
        run_mwg(obs, hyper, HbConfig(J=5, iterations=10, thin=0))
    with pytest.raises(ConfigError):
        run_mwg(obs, hyper, HbConfig(J=5, iterations=10, proposal_sd=-1.0))
    with pytest.raises(ConfigError):
        run_mwg(obs, hyper, HbConfig(J=5, iterations=10, alpha_init=0.0))


def test_run_mwg_deterministic():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 10, 1)
    cfg = HbConfig(J=10, iterations=400, burn_in=100, seed=3, thin=50)
    hyper = HyperPrior.exponential(1.0)
    a = run_mwg(obs, hyper, cfg)
    b = run_mwg(obs, hyper, cfg)
    np.testing.assert_array_equal(a.alphas, b.alphas)
    np.testing.assert_array_equal(a.mu_draws, b.mu_draws)
    assert a.acceptance_rate == b.acceptance_rate


def test_run_mwg_basic_chain_properties():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 10, 1)
    chain = run_mwg(obs, HyperPrior.exponential(1.0),
                    HbConfig(J=10, iterations=2000, burn_in=200, seed=3))
    assert chain.alphas.size == 1800
    assert np.all(chain.alphas > 0.0)
    assert 0.0 < chain.acceptance_rate < 1.0
    assert chain.mu_draws.shape == (math.ceil(1800 / 100), 10)
    assert np.all(chain.mu_var >= 0.0)


def test_run_mwg_fixed_hook_matches_conjugate():
    """With alpha pinned the sweeps draw iid from the fixed-alpha posterior."""
    alpha_star = 0.7
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 50.0, 4, 2)
    chain = run_mwg(obs, HyperPrior.fixed(alpha_star),
                    HbConfig(J=4, iterations=4000, burn_in=0, seed=9))
    assert np.all(chain.alphas == alpha_star)
    assert chain.acceptance_rate == 0.0
    ref = posterior(alpha_star, obs)
    m = chain.alphas.size
    se_mean = np.sqrt(ref.variances / m)
    assert np.all(np.abs(chain.mu_mean - ref.means) <= 4.0 * se_mean)
    want_second = ref.variances + ref.means ** 2
    se_second = np.sqrt((2.0 * ref.variances ** 2
                         + 4.0 * ref.variances * ref.means ** 2) / m)
    assert np.all(np.abs(chain.mu_second_moment - want_second) <= 4.0 * se_second)


@pytest.mark.parametrize("n", [1e15, 1e20])
def test_mu_var_matches_conjugate_at_large_n(n):
    """Draws spread far less than their size; the variance must not cancel away."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, 50, 4)
    chain = run_mwg(obs, HyperPrior.fixed(1.0),
                    HbConfig(J=50, iterations=20_000, burn_in=0, seed=8))
    m = chain.alphas.size
    ratio = chain.mu_var / posterior(1.0, obs).variances
    # the sample variance of m iid normal draws has relative sd sqrt(2/(m-1))
    assert np.all(np.abs(ratio - 1.0) <= 5.0 * math.sqrt(2.0 / (m - 1)))


def test_burn_in_default_is_tenth():
    cfg = HbConfig(J=3, iterations=1000)
    assert cfg.resolved_burn_in() == 100
    assert HbConfig(J=3, iterations=1000, burn_in=17).resolved_burn_in() == 17


def test_chain_summary_and_files(tmp_path):
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 8, 4)
    chain = run_mwg(obs, HyperPrior.exponential(1.0),
                    HbConfig(J=8, iterations=600, burn_in=100, seed=7, thin=50))
    s = chain.summary()
    for key in ("acceptance_rate", "alpha_mean", "alpha_quantiles", "alpha_mode",
                "mu_mean", "mu_var", "burn_in", "thin", "proposal_sd"):
        assert key in s
    q = s["alpha_quantiles"]
    assert q[0] <= q[1] <= q[2]
    assert s["burn_in"] == 100 and s["thin"] == 50

    alpha_path = tmp_path / "alpha.csv"
    chain.write_alpha_csv(alpha_path)
    with open(alpha_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha"]
    assert len(rows) == 501
    assert float(rows[1][0]) == chain.alphas[0]

    summary_path = tmp_path / "summary.json"
    chain.write_summary_json(summary_path)
    with open(summary_path) as fh:
        assert json.load(fh) == s
