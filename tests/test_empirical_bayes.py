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
from invseq.empirical_bayes import GRID_SIZE, SUFFIX_CHUNK, Loglik
from invseq.errors import ConfigError, NumericalError
from invseq.sequence_model import Design, block_rows, default_truncation

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
    """log 1 = 0 multiplies every term of both derivatives."""
    obs = _obs(3.0, [1.7])
    for alpha in (0.0, 0.9, 4.0):
        assert score(alpha, obs) == 0.0
        assert Loglik(obs).slope(alpha) == (0.0, 0.0)


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
    """Where the likelihood evaluates only its first k < N coordinates, score reads
    the same prefix.  The data are pure noise, so the term sum n*y_i^2 that
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
    """At n = 1e15 and N = 5000 the endpoint lies far past alpha_full."""
    for n, N in ((10.0, 30), (1e3, 30), (1e6, 30), (1e15, 5000)):
        obs = _obs(n, np.zeros(N), model=VOLTERRA)
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


def _long_double_terms(obs):
    """log i, n y^2 and log(n kappa_i^2) in np.longdouble, from the model's kappa and the data."""
    ld = np.longdouble
    kap = obs.model.kappa_vector(obs.N).astype(ld)
    return (np.log(np.arange(1, obs.N + 1, dtype=ld)), ld(obs.n) * obs.y.astype(ld) ** 2,
            np.log(ld(obs.n) * kap ** 2))


def _long_double_centred(obs):
    """ell - 1/2 sum n y^2 in np.longdouble, over all N coordinates."""
    log_i, ny2, log_nk2 = _long_double_terms(obs)

    def ell(alpha):
        u = np.exp(log_nk2 - (1 + 2 * np.longdouble(alpha)) * log_i)
        return -np.sum(np.log1p(u) + ny2 / (1 + u)) / 2

    return ell


def _long_double_slope(obs):
    """d ell / d alpha in np.longdouble, over all N coordinates: with du/dalpha = -2 u log i,
    sum_i log i * u/(1 + u) * (1 - n y_i^2/(1 + u))."""
    log_i, ny2, log_nk2 = _long_double_terms(obs)

    def slope(alpha):
        u = np.exp(log_nk2 - (1 + 2 * np.longdouble(alpha)) * log_i)
        return np.sum(log_i * u / (1 + u) * (1 - ny2 / (1 + u)))

    return slope


@pytest.mark.parametrize("n", [1e3, 1e12, 1e20])
@pytest.mark.parametrize("model", [VOLTERRA, ModelSpec.exact_power(0.0),
                                   ModelSpec.exact_power(3.0)], ids=["volterra", "p0", "p3"])
def test_slope_matches_long_double_differences(model, n):
    """Loglik.slope's d1 and d2 against five-point central differences of the
    long-double centred value, below alpha_full where a block covers all N and
    past it where it covers a prefix.  Each bound is relative to the sum of the
    magnitudes of the terms, which is what float64 rounding scales with."""
    N = 2000
    obs = simulate(TruthSpec.paper_example(), model, n, N, 7)
    ell = Loglik(obs)
    centred = _long_double_centred(obs)
    log_i, ny2, log_nk2 = _long_double_terms(obs)
    alphas = [f * math.log(n) for f in (0.01, 0.05, 0.15, 0.4, 0.8)] + [ell.alpha_full + 0.05]
    alphas = [a for a in alphas if a > 0]
    assert any(ell._active(a) < N for a in alphas)
    if ell.alpha_full > 0.01 * math.log(n):
        assert any(ell._active(a) == N for a in alphas)
    for a in alphas:
        # h = 2e-4 for d1 and 1e-3 for d2, whose long-double rounding grows as h^-2;
        # the differences themselves then err by at most 3.8e-12 and 1.5e-9 of the scale
        e = [centred(a + j * 2e-4) for j in (-2, -1, 1, 2)]
        fd1 = float((e[0] - 8 * e[1] + 8 * e[2] - e[3]) / (12 * 2e-4))
        e = [centred(a + j * 1e-3) for j in (-2, -1, 0, 1, 2)]
        fd2 = float((-e[0] + 16 * e[1] - 30 * e[2] + 16 * e[3] - e[4]) / (12 * 1e-3 ** 2))
        u = np.exp(log_nk2 - (1 + 2 * np.longdouble(a)) * log_i)
        w, r = u / (1 + u), 1 / (1 + u)
        mag1 = float(np.sum(log_i * w * (1 + ny2 * r)))
        mag2 = float(np.sum(2 * log_i ** 2 * w * r * (1 + ny2 * abs(r - w))))
        d1, d2 = ell.slope(a)
        assert abs(d1 - fd1) <= 1e-10 * (1.0 + mag1), (a, d1, fd1)
        assert abs(d2 - fd2) <= 1e-8 * (1.0 + mag2), (a, d2, fd2)


@pytest.mark.parametrize("n, N", [(1e12, 10**4), (1e15, 10**5)])
def test_fit_matches_long_double_search(n, N):
    """alpha_hat is the maximizer of ell, not of its float64 rounding noise.

    At n = 1e15 the alpha-free part of ell is about 1.5e14; carried along, it
    moved alpha_hat by 2e-3.  The reference is a long-double grid scan and a
    bisection on the sign of the long-double slope, between the best grid
    point's neighbours, down to 1e-10.
    """
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, N, 2)
    ell = _long_double_centred(obs)
    slope = _long_double_slope(obs)
    alphas = np.linspace(0.0, math.log(n), GRID_SIZE)
    values = [ell(a) for a in alphas]
    # the whole curve, up to alpha = log n where most u_i are below e^-700
    np.testing.assert_allclose([Loglik(obs)(a) for a in alphas], np.array(values, dtype=float),
                               rtol=1e-12)
    k = int(np.argmax(values))
    lo, hi = float(alphas[max(k - 1, 0)]), float(alphas[min(k + 1, alphas.size - 1)])
    assert slope(lo) > 0 > slope(hi)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
    top = 0.5 * (lo + hi)
    # the long-double values agree that it is the maximizer
    assert ell(top) > max(ell(top - 1e-6), ell(top + 1e-6))
    want = top if ell(top) > values[k] else float(alphas[k])
    assert abs(fit(obs).alpha_hat - want) <= 1e-6


@pytest.mark.parametrize("n", [1e3, 1e12, 1e15])
def test_fit_refinement_budget(n, monkeypatch):
    """After its scan, fit fills at most 6 one-alpha derivative blocks and 1 value block."""
    filled, slopes = [], []
    blocks, slope = Design.blocks, Loglik.slope

    def counting_blocks(self, alphas, width=None):
        for item in blocks(self, alphas, width):
            filled.append(alphas.size)
            yield item

    def counting_slope(self, alpha):
        slopes.append(alpha)
        return slope(self, alpha)

    monkeypatch.setattr(Design, "blocks", counting_blocks)
    monkeypatch.setattr(Loglik, "slope", counting_slope)
    N = default_truncation(n, VOLTERRA.p)
    eb = fit(simulate(TruthSpec.paper_example(), VOLTERRA, n, N, 2))
    scan = -(-GRID_SIZE // block_rows(N))
    assert filled[:scan] == [GRID_SIZE] * scan
    after = filled[scan:]
    assert after == [1] * len(after)
    assert 1 <= len(slopes) <= 6
    assert len(slopes) + eb.refined <= len(after) <= len(slopes) + 1


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


@pytest.mark.parametrize("N", [SUFFIX_CHUNK - 1, SUFFIX_CHUNK, SUFFIX_CHUNK + 1, 10**5])
def test_suffix_table_has_the_bits_of_one_long_double_cumsum(N):
    """The chunked suffix table adds the terms in the order of one long-double
    cumsum of the reversed n*y^2, so every entry rounds to the same float."""
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e15, N, 6)
    ny2 = obs.n * obs.y**2
    want = np.zeros(N + 1)
    want[:N] = np.cumsum(ny2[::-1], dtype=np.longdouble)[::-1]
    assert Loglik(obs)._suffix.tobytes() == want.tobytes()
