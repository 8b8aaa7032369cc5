from __future__ import annotations

import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from invseq import (
    ModelSpec,
    Observation,
    TruthSpec,
    eb_posterior,
    fit,
    log_likelihood,
    posterior,
    posterior_mean_function,
    score,
    simulate,
    synthesize_function,
)
from invseq.cli import main
from invseq.empirical_bayes import GOLDEN_TOL, GRID_SIZE, Loglik, _golden_max
from invseq.errors import ConfigError, NumericalError
from invseq.sequence_model import block_rows, default_truncation

FLAT = ModelSpec.exact_power(0.0)
VOLTERRA = ModelSpec.volterra()


def _obs(n, y, model=FLAT):
    y = np.asarray(y, dtype=float)
    return Observation(n=float(n), N=y.size, y=y, seed=0, model=model)


def test_single_coordinate_constant_in_alpha():
    obs = _obs(1.0, [0.0])
    want = -0.5 * math.log(2.0)
    for alpha in (0.0, 1.0, 7.0):
        assert math.isclose(log_likelihood(alpha, obs), want, rel_tol=1e-15)


def test_two_coordinate_hand_value():
    # -(1/2) [log 2 + log(1 + 2^-3)] with kappa = 1, n = 1, zero data
    got = log_likelihood(1.0, _obs(1.0, [0.0, 0.0]))
    want = -0.5 * math.fsum([math.log(2.0), math.log1p(0.125)])
    assert math.isclose(got, want, rel_tol=1e-15)
    assert math.isclose(got, -0.4054651081081644, rel_tol=1e-14)


def test_zero_data_increasing():
    obs = _obs(50.0, np.zeros(40), model=VOLTERRA)
    vals = [log_likelihood(a, obs) for a in (0.0, 0.5, 1.0, 2.0, 3.5)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_negative_alpha_rejected():
    with pytest.raises(ConfigError):
        log_likelihood(-0.5, _obs(2.0, [0.1]))
    with pytest.raises(ConfigError):
        score(-0.5, _obs(2.0, [0.1]))


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_log_likelihood_rejects_non_finite_alpha(alpha):
    with pytest.raises(ConfigError, match="alpha must be finite"):
        log_likelihood(alpha, _obs(2.0, [0.1, 0.3]))


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_score_rejects_non_finite_alpha(alpha):
    with pytest.raises(ConfigError, match="alpha must be finite"):
        score(alpha, _obs(2.0, [0.1, 0.3]))


def test_score_single_coordinate_zero():
    obs = _obs(3.0, [1.7])
    for alpha in (0.0, 0.9, 4.0):
        assert score(alpha, obs) == 0.0


def test_score_positive_for_zero_data():
    obs = _obs(10.0, np.zeros(5))
    assert score(1.0, obs) > 0.0


def test_score_matches_central_difference():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e4, 300, 17)
    h = 1e-5
    for alpha in (0.3, 1.0, 2.4):
        fd = (log_likelihood(alpha + h, obs) - log_likelihood(alpha - h, obs)) / (2 * h)
        s = score(alpha, obs)
        assert abs(s - fd) <= 1e-6 * (1.0 + abs(s))


@pytest.mark.parametrize("model", [ModelSpec.exact_power(1.0), VOLTERRA,
                                   ModelSpec.explicit(np.arange(1, 5001) ** -1.0
                                                      * 2.0 ** np.sin(np.arange(5000)),
                                                      p=1.0, C=2.0)])
def test_score_matches_central_difference_past_the_prefix(model):
    """Where the likelihood evaluates only its first k < N coordinates, score still
    sums over all N.  The data are pure noise, so the term sum n*y_i^2 that
    log_likelihood carries is about N/2 and the differences stay accurate."""
    n, N = 1e15, 5000
    obs = simulate(TruthSpec.zero(), model, n, N, 23)
    ell = Loglik(obs)
    h = 1e-5
    for alpha in (3.0, 10.0, math.log(n)):
        assert ell._active(alpha) < N
        fd = (log_likelihood(alpha + h, obs) - log_likelihood(alpha - h, obs)) / (2 * h)
        s = score(alpha, obs)
        assert abs(s - fd) <= 1e-6 * (1.0 + abs(s))


def test_data_scaling_identity():
    """ell(a; cY) - ell(a; Y) = (c^2-1)/2 * sum n^2 Y_i^2/(i^(1+2a)/k_i^2 + n)."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 200.0, 60, 9)
    c = 1.7
    scaled = Observation(n=obs.n, N=obs.N, y=c * obs.y, seed=obs.seed, model=obs.model)
    kap = VOLTERRA.kappa_vector(obs.N)
    for alpha in (0.2, 1.1, 3.0):
        got = log_likelihood(alpha, scaled) - log_likelihood(alpha, obs)
        want = (c ** 2 - 1.0) / 2.0 * math.fsum(
            obs.n ** 2 * obs.y[i - 1] ** 2
            / (math.exp((1.0 + 2.0 * alpha) * math.log(i)) / kap[i - 1] ** 2 + obs.n)
            for i in range(1, obs.N + 1))
        assert math.isclose(got, want, rel_tol=1e-12)
        assert want > 0.0


def test_summation_order_stability():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e5, 2000, 13)
    kap = VOLTERRA.kappa_vector(obs.N)
    alpha = 0.8
    terms = []
    for i in range(1, obs.N + 1):
        ratio = obs.n / (math.exp((1.0 + 2.0 * alpha) * math.log(i)) / kap[i - 1] ** 2 + obs.n)
        terms.append(math.log1p(obs.n * kap[i - 1] ** 2
                                / math.exp((1.0 + 2.0 * alpha) * math.log(i)))
                     - ratio * obs.n * obs.y[i - 1] ** 2)
    want = -0.5 * math.fsum(terms)
    assert math.isclose(log_likelihood(alpha, obs), want, rel_tol=1e-12)


def test_curve_structure():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 50, 1)
    curve = fit(obs).curve
    assert curve.alphas[0] == 0.0
    assert curve.alphas[-1] == math.log(1e3)
    assert curve.alphas.size == 200
    assert np.all(np.diff(curve.alphas) > 0)
    assert np.all(np.isfinite(curve.values))
    assert curve.values[curve.argmax_index] == curve.values.max()


def test_curve_csv(tmp_path):
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 50, 1)
    obs_path = tmp_path / "obs.json"
    obs_path.write_text(obs.to_json())
    assert main(["eb-fit", "--obs", str(obs_path), "--out", str(tmp_path / "fit")]) == 0
    with open(tmp_path / "fit" / "likelihood.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "loglik", "normalized"]
    assert len(rows) == 201
    assert [float(r[1]) for r in rows[1:]] == list(fit(obs).curve.values)
    norm = [float(r[2]) for r in rows[1:]]
    assert max(norm) == 1.0 and min(norm) >= 0.0


def test_fit_zero_data_hits_endpoint():
    for n in (10.0, 1e3, 1e6):
        obs = _obs(n, np.zeros(30), model=VOLTERRA)
        eb = fit(obs)
        assert eb.alpha_hat == math.log(n)
        assert not eb.refined


def test_fit_single_coordinate_tie_break():
    eb = fit(_obs(5.0, [0.3]))
    assert eb.alpha_hat == 0.0


def test_fit_needs_informative_n():
    with pytest.raises(ConfigError):
        fit(_obs(1.0, [0.1, 0.2]))


def test_fit_matches_bounded_scalar_minimizer():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e5, 465, 2)
    eb = fit(obs)
    res = minimize_scalar(lambda a: -log_likelihood(float(a), obs),
                          bounds=(0.0, math.log(obs.n)), method="bounded",
                          options={"xatol": 1e-8})
    assert abs(eb.alpha_hat - res.x) <= 5e-4
    k = eb.curve.argmax_index
    assert log_likelihood(eb.alpha_hat, obs) >= eb.curve.values[k]


def test_fit_within_range():
    obs = simulate(TruthSpec.power_law(2.0), VOLTERRA, 1e6, 100, 31)
    eb = fit(obs)
    assert 0.0 <= eb.alpha_hat <= math.log(obs.n)


def test_non_finite_likelihood_raises():
    obs = _obs(1e6, [1e200, 0.1])
    with pytest.raises(NumericalError):
        fit(obs)


def test_eb_posterior_definitional():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e4, 100, 5)
    eb = fit(obs)
    plug = eb_posterior(obs, eb)
    direct = posterior(eb.alpha_hat, obs)
    np.testing.assert_array_equal(plug.means, direct.means)
    np.testing.assert_array_equal(plug.variances, direct.variances)
    assert plug.alpha == eb.alpha_hat


def test_eb_posterior_zero_data():
    obs = _obs(100.0, np.zeros(15), model=VOLTERRA)
    assert not eb_posterior(obs, fit(obs)).means.any()


def test_adaptive_beats_mismatched_alpha():
    """At n = 1e11 the fitted alpha reconstructs far better than alpha = 0.1."""
    n, N = 1e11, 4642
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, N, 42)
    t = np.linspace(0.0, 1.0, 512)
    f_true = synthesize_function(TruthSpec.paper_example().coefficients(N), t)

    def grid_err(post):
        return math.sqrt(float(np.mean((posterior_mean_function(post, t) - f_true) ** 2)))

    assert grid_err(eb_posterior(obs, fit(obs))) < grid_err(posterior(0.1, obs))


def _long_double_centred(obs):
    """ell - 1/2 sum n y^2 in np.longdouble, from the model's kappa and the data alone."""
    ld = np.longdouble
    i = np.arange(1, obs.N + 1, dtype=ld)
    kap = obs.model.kappa_vector(obs.N).astype(ld)
    ny2 = ld(obs.n) * obs.y.astype(ld) ** 2
    log_nk2 = np.log(ld(obs.n) * kap ** 2)

    def ell(alpha):
        u = np.exp(log_nk2 - (1 + 2 * ld(alpha)) * np.log(i))
        return -np.sum(np.log1p(u) + ny2 / (1 + u)) / 2

    return ell


@pytest.mark.parametrize("n, N", [(1e12, 10**4), (1e15, 10**5)])
def test_fit_matches_long_double_search(n, N):
    """alpha_hat is the maximizer of ell, not of its float64 rounding noise.

    At n = 1e15 the alpha-free part of ell is about 1.5e14; carried along, it
    moved alpha_hat by 2e-3 from this long-double run of the same search.
    """
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, N, 2)
    ell = _long_double_centred(obs)
    alphas = np.linspace(0.0, math.log(n), GRID_SIZE)
    values = [ell(a) for a in alphas]
    # the whole curve, up to alpha = log n where most u_i are below e^-700
    np.testing.assert_allclose([Loglik(obs)(a) for a in alphas], np.array(values, dtype=float),
                               rtol=1e-12)
    k = int(np.argmax(values))
    cand, cand_val = _golden_max(ell, alphas[max(k - 1, 0)], alphas[min(k + 1, alphas.size - 1)],
                                 GOLDEN_TOL)
    want = float(cand) if cand_val > values[k] else float(alphas[k])
    assert abs(fit(obs).alpha_hat - want) <= 1e-6


def _column_peak(ell, alphas):
    tracemalloc.start()
    try:
        ell.column(alphas)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loglik_column_footprint():
    """A column holds one Design.blocks buffer, a log(1 + u) and an r half of
    block_rows(N) rows each, and its output, and no second coordinate-sized
    buffer: a prefix's coefficients are views.  Just past alpha_full a
    prefix is nearly all N, so a copy of its 2k coefficients would add
    almost 2N floats."""
    N = 10**5
    ell = Loglik(simulate(TruthSpec.paper_example(), VOLTERRA, 1e15, N, 2))
    grid = np.linspace(0.0, math.log(1e15), GRID_SIZE)
    assert _column_peak(ell, grid) < 8 * (2 * block_rows(N) + 1) * N
    past = np.full(block_rows(N), ell.alpha_full + 0.01)
    assert ell._active(past[0]) > 0.95 * N
    assert _column_peak(ell, past) < 8 * (2 * block_rows(N) + 0.25) * N


def test_loglik_column_of_no_alphas_is_empty():
    ell = Loglik(simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 10, 2))
    assert ell.column(np.array([])).shape == (0,)


def test_reported_values_add_the_dropped_term_back():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e6, 100, 4)
    ell = Loglik(obs)
    assert ell.offset == 0.5 * float(np.sum(obs.n * obs.y ** 2))
    curve = fit(obs).curve
    np.testing.assert_array_equal(curve.values, ell.column(curve.alphas) + ell.offset)
    for a in curve.alphas[::40]:
        assert ell(a) + ell.offset == log_likelihood(a, obs)


def test_loglik_nan_alpha_gives_nan():
    """A nan alpha is no prefix length: the call gives nan and raises nothing."""
    ell = Loglik(simulate(TruthSpec.paper_example(), VOLTERRA, 1e15, 2000, 2))
    assert ell.alpha_full < math.log(1e15)
    assert math.isnan(ell(math.nan))


@pytest.mark.parametrize("p", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("n", [1.5, 1e20])
def test_loglik_finite_across_domain(n, p):
    model = ModelSpec.exact_power(p)
    obs = simulate(TruthSpec.paper_example(), model, n, default_truncation(n, p), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.0, math.log(n)):
            assert math.isfinite(log_likelihood(alpha, obs))


def test_exp_overflow_is_named():
    """n*kappa_1^2 past the float range: exp(s_1) would be inf at every alpha."""
    y = np.array([1e-153, 1e-154])

    def obs(k1):
        return _obs(1e307, y, model=ModelSpec.explicit([k1, 1.0], p=0.0, C=k1))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(log_likelihood(0.0, obs(4.0)))  # n*kappa_1^2 = 1.6e308
        for call in (lambda o: log_likelihood(0.0, o), fit,
                     lambda o: posterior(0.0, o), lambda o: score(0.0, o)):
            with pytest.raises(NumericalError, match="overflows"):
                call(obs(8.0))  # n*kappa_1^2 = 6.4e309
