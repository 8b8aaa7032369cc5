from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import expit

from invseq import (
    ModelSpec,
    Observation,
    TruthSpec,
    default_truncation,
    log_likelihood,
    posterior,
    score,
    simulate,
    synthesize_function,
)
from invseq.errors import ConfigError
from invseq.sequence_model import S_FLOOR, Design, block_rows, design, fields_dict, read_fields
from invseq.theory import COARSE_COLUMN, STRIDE, bracket_diagnostic
from oracles import sandwich_constant, volterra_forward

VOLTERRA = ModelSpec.volterra()
FLAT = ModelSpec.exact_power(0.0)
EPS = np.finfo(float).eps


def test_blocks_match_expit():
    """u*r, r and u*r*r from a Design.blocks row against expit(s), expit(-s) and their product.

    Over s in [-800, 700], with design terms chosen so that s(0) is the grid;
    below S_FLOOR the weight and its product are e^-700 exactly.
    """
    s = np.linspace(-800.0, 700.0, 150_001)
    d = Design(kappa=np.ones(s.size), log_i=np.zeros(s.size), log_nk2=s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [(_, (u,), (r,))] = d.blocks(np.zeros(1))
        np.reciprocal(r, r)
        w = u * r
        wp = w * r
    floor = math.exp(S_FLOOR)
    for got, ref in ((w, expit(s)), (r, expit(-s)), (wp, expit(s) * expit(-s))):
        big = ref > floor
        # numpy's exp against libm's, with the rounding of 1 + u, 1/(1 + u) and the products
        assert np.max(np.abs(got[big] - ref[big]) / ref[big]) <= 4.0 * EPS
    assert np.all(w[s < S_FLOOR] == floor) and np.all(wp[s < S_FLOOR] == floor)


@pytest.mark.parametrize("N", [3, 215, 4642])
def test_blocks_cover_the_column(N):
    """Blocks of block_rows(N) alphas, each over the width of its smallest alpha.

    Every alpha of the column lands in one block, in order; both halves are
    contiguous (m, k) arrays with u1 = 1 + u exactly; and each row holds the
    same bits as a block of that one alpha.
    """
    d = design(VOLTERRA, 1e11, N)
    rows = block_rows(N)
    rng = np.random.default_rng(N)
    for size in (0, 1, rows, rows + 1, 3 * rows - 1):
        alphas = rng.uniform(0.0, 4.0, size)
        seen = []

        def width(a):
            seen.append(a)
            return max(1, N >> int(a))

        starts = []
        for start, u, u1 in d.blocks(alphas, width):
            a = alphas[start:start + rows]
            assert seen[-1] == a.min()
            assert u.shape == u1.shape == (a.size, max(1, N >> int(a.min())))
            assert u.flags.c_contiguous and u1.flags.c_contiguous
            assert np.array_equal(u1, 1.0 + u)
            for j, alpha in enumerate(a):
                [(_, (u_one,), (u1_one,))] = d.blocks(np.array([alpha]), lambda _: u.shape[1])
                assert u_one.tobytes() == u[j].tobytes() and u1_one.tobytes() == u1[j].tobytes()
            starts.append(start)
        assert starts == list(range(0, size, rows))
        assert len(seen) == len(starts)
    [(_, u, _)] = d.blocks(np.ones(1))
    assert u.shape == (1, N)


@pytest.mark.parametrize("N", [3, 215, 4642])
def test_tail_blocks_complete_the_prefix_blocks(N):
    """With tail, each block covers the coordinates past its width, in step with the
    prefix blocks of the same column: together they hold, bit for bit, the block of
    all N coordinates.  The alphas ascend, so the first block's width is N and its tail
    empty, and the last block's is not."""
    d = design(VOLTERRA, 1e11, N)
    rows = block_rows(N)
    alphas = np.sort(np.random.default_rng(N).uniform(0.0, 4.0, 3 * rows - 1))

    def width(a):
        return N if a < 1.0 else max(1, N >> int(a))

    tails = []
    both = zip(d.blocks(alphas, width), d.blocks(alphas, width, tail=True), d.blocks(alphas))
    for (start, u, u1), (tail_start, tail, tail1), (full_start, full, full1) in both:
        assert start == tail_start == full_start
        k = u.shape[1]
        assert tail.shape == tail1.shape == (u.shape[0], N - k)
        assert tail.flags.c_contiguous and tail1.flags.c_contiguous
        assert np.concatenate([u, tail], axis=1).tobytes() == full.tobytes()
        assert np.concatenate([u1, tail1], axis=1).tobytes() == full1.tobytes()
        tails.append(N - k)
    assert tails[0] == 0 and tails[-1] > 0


def test_block_rows_rule():
    """Rows per alpha-column block: 512 up to N = 256, then the largest power
    of two with rows * N <= 2^17, but never below 4.  The bracket scan's
    columns, COARSE_COLUMN coarse points or STRIDE consecutive alphas, hold
    a multiple of 4 rows, so every block cut from them does too, and BLAS
    sums each of its rows four at a time."""
    assert STRIDE % 4 == 0 and COARSE_COLUMN % 4 == 0
    for N in (1, 3, 10, 255, 256):
        assert block_rows(N) == 512
    assert block_rows(257) == 256
    assert block_rows(4642) == 16
    assert block_rows(32768) == 4
    assert block_rows(100_000) == 4
    for N in range(1, 100_001, 37):
        rows = block_rows(N)
        assert 4 <= rows <= 512 and rows & (rows - 1) == 0
        for size in (STRIDE, COARSE_COLUMN):
            block = min(rows, size)
            assert block % 4 == 0 and size % block % 4 == 0
        assert rows * N <= 2**17 or rows == 4


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -1.0])
def test_one_alpha_functions_reject_bad_alpha(alpha):
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e4, 20, 1)
    mu0 = np.array([0.0, 1.0, 0.5])
    for call in (lambda: log_likelihood(alpha, obs), lambda: score(alpha, obs),
                 lambda: posterior(alpha, obs), lambda: bracket_diagnostic(alpha, mu0, VOLTERRA, 1e4)):
        with pytest.raises(ConfigError, match="alpha must be finite and >= 0"):
            call()


@pytest.mark.parametrize("model", [VOLTERRA, FLAT, ModelSpec.exact_power(2.5)])
def test_huge_finite_alpha_is_the_limit(model):
    """Past alpha = LOG_FLOAT_MAX - S_FLOOR every s_i with i >= 2 is below S_FLOOR,
    so the likelihood, score and posterior no longer move: 1 + 2 alpha
    overflowing near the float max must not make log 1 * (1 + 2 alpha) nan."""
    obs = simulate(TruthSpec.paper_example(), model, 1e6, 30, 2)

    def at(alpha):
        post = posterior(alpha, obs)
        return [log_likelihood(alpha, obs), score(alpha, obs), *post.means, *post.variances]

    limit = at(1e300)
    assert np.all(np.isfinite(limit))
    for alpha in (1e308, sys.float_info.max):
        assert at(alpha) == limit


def test_kappa_flat_model():
    np.testing.assert_array_equal(FLAT.kappa_vector(7), np.ones(7))


def test_kappa_volterra_first():
    assert math.isclose(VOLTERRA.kappa_vector(1)[0], 2.0 / math.pi, rel_tol=1e-15)


def test_kappa_inverse_power():
    assert ModelSpec.exact_power(1.0).kappa_vector(4)[3] == 0.25


def test_kappa_explicit_table_and_range():
    m = ModelSpec.explicit([1.0, 0.4, 0.35], p=0.5, C=2.0)
    assert m.kappa_vector(2)[1] == 0.4
    with pytest.raises(ConfigError):
        m.kappa_vector(4)
    with pytest.raises(ConfigError):
        m.kappa_vector(10)


def test_explicit_table_validation():
    with pytest.raises(ConfigError):
        ModelSpec.explicit([1.0, -0.5], p=0.0, C=2.0)
    # kappa_2 = 10 breaks C^-1 i^-p <= kappa_i <= C i^-p at C = 1
    with pytest.raises(ConfigError):
        ModelSpec.explicit([1.0, 10.0], p=0.0, C=1.0)


@pytest.mark.parametrize("make, name", [
    (ModelSpec.exact_power, "p"),
    (lambda v: ModelSpec(kind="exact_power", p=1.0, C=v), "C"),
    (TruthSpec.power_law, "beta"),
    (lambda v: TruthSpec.power_law(1.0, v), "c"),
    (TruthSpec.analytic_decay, "gamma"),
    (lambda v: TruthSpec.explicit([1.0, v]), "coeffs"),
])
@pytest.mark.parametrize("v", [math.nan, math.inf])
def test_specs_reject_non_finite(make, name, v):
    with pytest.raises(ConfigError, match=f"{name} must be"):
        make(v)


def test_volterra_sandwich_order_one():
    """1/((i-1/2)pi) stays within a constant of 1/i, the declared order."""
    c = sandwich_constant(VOLTERRA, 100_000)
    assert 1.0 <= c <= math.pi


def test_model_round_trip():
    for m in (VOLTERRA, ModelSpec.exact_power(1.5),
              ModelSpec.explicit([0.9, 0.5, 0.3], p=0.5, C=3.0)):
        assert read_fields(ModelSpec, fields_dict(m)) == m


def test_truth_coefficients():
    mu = TruthSpec.paper_example().coefficients(5)
    want = [i ** -1.5 * math.sin(i) for i in range(1, 6)]
    np.testing.assert_allclose(mu, want, rtol=1e-15)

    mu = TruthSpec.power_law(1.0, c=2.0).coefficients(4)
    np.testing.assert_allclose(mu, [2.0 * i ** -1.5 for i in range(1, 5)], rtol=1e-15)

    mu = TruthSpec.analytic_decay(0.5, c=1.0).coefficients(3)
    np.testing.assert_allclose(mu, [math.exp(-0.5 * i) for i in range(1, 4)], rtol=1e-15)

    assert not TruthSpec.zero().coefficients(6).any()

    mu = TruthSpec.explicit([1.0, -2.0]).coefficients(5)
    np.testing.assert_array_equal(mu, [1.0, -2.0, 0.0, 0.0, 0.0])


def test_truth_coefficients_finite():
    for truth in (TruthSpec.paper_example(), TruthSpec.power_law(0.25),
                  TruthSpec.analytic_decay(2.0)):
        assert np.all(np.isfinite(truth.coefficients(1000)))


def test_simulate_zero_truth_is_pure_noise():
    n, N, seed = 25.0, 64, 3
    obs = simulate(TruthSpec.zero(), VOLTERRA, n, N, seed)
    z = np.random.default_rng(seed).standard_normal(N)
    np.testing.assert_array_equal(obs.y, z / math.sqrt(n))


def test_simulate_deterministic():
    a = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 50, 11)
    b = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 50, 11)
    c = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 50, 12)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_simulate_replicate_mean_first_coordinate():
    """Mean of y_1 over many replicates recovers kappa_1 * mu_01."""
    n, N, reps = 1e3, 10_000, 10_000
    target = (2.0 / math.pi) * math.sin(1.0)
    vals = np.empty(reps)
    for r in range(reps):
        vals[r] = simulate(TruthSpec.paper_example(), VOLTERRA, n, N, 5000 + r).y[0]
    se = 1.0 / math.sqrt(n * reps)
    assert abs(vals.mean() - target) <= 3.0 * se


def test_simulate_noise_scale():
    n, N = 1e12, 10_000
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, n, N, 21)
    mu = TruthSpec.paper_example().coefficients(N)
    resid = (obs.y - VOLTERRA.kappa_vector(N) * mu) * math.sqrt(n)
    assert abs(np.std(resid) - 1.0) < 0.05


def test_simulate_zero_truth_lln():
    n, N = 4.0, 2500
    obs = simulate(TruthSpec.zero(), FLAT, n, N, 0)
    assert abs(obs.y.mean()) <= 4.0 / math.sqrt(N * n)


def test_simulate_validation():
    with pytest.raises(ConfigError):
        simulate(TruthSpec.zero(), FLAT, 0.0, 5, 0)
    with pytest.raises(ConfigError):
        simulate(TruthSpec.zero(), FLAT, 10.0, 0, 0)


def test_synthesize_trivial():
    t = np.linspace(0.0, 1.0, 7)
    assert not synthesize_function(np.zeros(4), t).any()
    f0 = synthesize_function(np.array([1.0]), np.array([0.0]))
    assert math.isclose(f0[0], math.sqrt(2.0), rel_tol=1e-15)


def test_synthesize_small_against_plain_loop():
    mu = TruthSpec.paper_example().coefficients(50)
    t = np.linspace(0.0, 1.0, 16)
    got = synthesize_function(mu, t)
    for k, tk in enumerate(t):
        want = math.fsum(mu[i - 1] * math.sqrt(2.0) * math.cos((i - 0.5) * math.pi * tk)
                         for i in range(1, 51))
        assert math.isclose(got[k], want, rel_tol=0.0, abs_tol=1e-12)


def test_synthesize_large_against_matrix_oracle():
    mu = TruthSpec.paper_example().coefficients(10_000)
    t = np.linspace(0.0, 1.0, 512)
    got = synthesize_function(mu, t)
    i = np.arange(1, 10_001, dtype=float)
    basis = math.sqrt(2.0) * np.cos(np.outer((i - 0.5) * math.pi, t))
    want = basis.T @ mu
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def _direct_sum_long_double(mu, t):
    ld = np.longdouble
    pi = ld("3.14159265358979323846264338327950288")
    i = np.arange(1, mu.size + 1, dtype=ld)
    return np.sqrt(ld(2)) * (np.cos(np.outer(t.astype(ld), (i - ld(0.5)) * pi)) @ mu.astype(ld))


@pytest.mark.parametrize("N", [1, 2, 10, 4642, 10_000])
def test_synthesize_against_long_double_direct_sum(N):
    # an unsorted, non-uniform grid holding both ends of [0, 1]
    t = np.random.default_rng(N).permutation(np.concatenate(
        [[0.0, 1.0], np.random.default_rng(5).uniform(0.0, 1.0, 62) ** 2]))
    mu = TruthSpec.paper_example().coefficients(N)
    want = _direct_sum_long_double(mu, t)
    got = synthesize_function(mu, t)
    assert np.max(np.abs(got - want)) <= 1e-14 * float(np.max(np.abs(want)))


# N around one 1022-point period of the 512-point grid: the fold's padding and row edges
@pytest.mark.parametrize("T", [2, 3, 17, 512])
@pytest.mark.parametrize("N", [1, 2, 1021, 1022, 1023, 4642])
def test_synthesize_unit_grid_against_long_double_and_angle_addition(T, N):
    """linspace(0, 1, T) takes the FFT path; the same grid reversed takes angle addition."""
    t = np.linspace(0.0, 1.0, T)
    mu = TruthSpec.paper_example().coefficients(N)
    want = _direct_sum_long_double(mu, t)
    got = synthesize_function(mu, t)
    general = synthesize_function(mu, t[::-1])[::-1]
    bound = 1e-14 * float(np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= bound
    assert np.max(np.abs(got - general)) <= bound


def test_synthesize_unit_grid_folds_many_periods():
    t = np.linspace(0.0, 1.0, 3)
    mu = TruthSpec.paper_example().coefficients(100_000)
    want = _direct_sum_long_double(mu, t)
    bound = 1e-14 * float(np.max(np.abs(want)))
    assert np.max(np.abs(synthesize_function(mu, t) - want)) <= bound
    assert np.max(np.abs(synthesize_function(mu, t[::-1])[::-1] - want)) <= bound


def test_synthesize_output_shapes():
    assert synthesize_function(np.array([]), np.linspace(0.0, 1.0, 5)).tolist() == [0.0] * 5
    assert synthesize_function(np.array([1.0, 0.5]), 0.25).shape == (1,)
    assert synthesize_function(np.array([]), 0.25).shape == (1,)


def test_parseval():
    """Coefficient energy equals the integrated squared synthesis."""
    mu = TruthSpec.paper_example().coefficients(64)
    t = np.linspace(0.0, 1.0, 2 ** 14 + 1)  # >= 16 N points
    f = synthesize_function(mu, t)
    lhs = float(np.sum(mu ** 2))
    rhs = float(simpson(f ** 2, x=t))
    assert math.isclose(lhs, rhs, rel_tol=1e-6)


def test_volterra_forward_trivial():
    assert volterra_forward(np.zeros(5), 0.3) == 0.0
    # e_1(1) = sqrt(2) cos(pi/2) = 0
    assert abs(volterra_forward(np.array([1.0]), 1.0)) < 1e-15
    got = volterra_forward(np.array([1.0]), 0.0)
    assert math.isclose(got, (2.0 / math.pi) * math.sqrt(2.0), rel_tol=1e-14)


def test_default_truncation():
    assert default_truncation(1000.0, 1.0) == 10
    assert default_truncation(1e6, 0.0) == 100_000  # capped
    assert default_truncation(1e8, 1.0) == 465
    for n in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="positive and finite"):
            default_truncation(n, 1.0)


def test_observation_json_round_trip():
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e3, 20, 9)
    back = Observation.from_json(obs.to_json())
    assert back.n == obs.n and back.N == obs.N and back.seed == obs.seed
    assert back.model == obs.model
    np.testing.assert_array_equal(back.y, obs.y)

