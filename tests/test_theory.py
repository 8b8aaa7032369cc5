from __future__ import annotations

import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invseq import ModelSpec, TruthSpec, bracket, default_truncation
from invseq.cli import main
from invseq.errors import ConfigError, NumericalError
from invseq.theory import (LOWER_THRESHOLD, REFINE_TOL, SCAN_STEP, STRIDE, _crossing, _Diagnostic,
                           bracket_diagnostic, minimax_rate_analytic, minimax_rate_sobolev)

VOLTERRA = ModelSpec.volterra()
FLAT = ModelSpec.exact_power(0.0)


def test_diagnostic_vanishes_on_first_coordinate():
    for alpha in (0.2, 1.0, 4.0):
        assert bracket_diagnostic(alpha, np.array([1.0]), FLAT, 100.0) == 0.0
        assert bracket_diagnostic(alpha, np.array([3.0]), VOLTERRA, 1e4) == 0.0


def test_diagnostic_vanishes_on_zero_truth():
    assert bracket_diagnostic(1.0, np.zeros(50), VOLTERRA, 1e4) == 0.0


def test_diagnostic_hand_value():
    """Unit mass on coordinate 2, kappa = 1, n = 100, alpha = 1/2."""
    got = bracket_diagnostic(0.5, np.array([0.0, 1.0]), FLAT, 100.0)
    pref = 2.0 / (math.sqrt(100.0) * math.log(100.0))
    term = 100.0 ** 2 * 4.0 * math.log(2.0) / (4.0 + 100.0) ** 2
    assert math.isclose(got, pref * term, rel_tol=1e-13)
    assert math.isclose(got, 0.11132766111833615, rel_tol=1e-12)


def test_diagnostic_nonnegative_random():
    rng = np.random.default_rng(3)
    mu = rng.standard_normal(30)
    for alpha in (0.1, 0.9, 2.5):
        assert bracket_diagnostic(alpha, mu, VOLTERRA, 1e5) >= 0.0


def test_diagnostic_tends_to_zero_at_large_alpha():
    """Past the alpha where every s_i with i >= 2 sits at S_FLOOR the diagnostic
    is exactly 0, and 1 + 2 alpha + 2p must not overflow near the float max."""
    mu = np.array([0.0, 1.0, 0.5])
    alphas = (100.0, 1e4, 1e100, 1e303, 1e308, sys.float_info.max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [bracket_diagnostic(a, mu, VOLTERRA, 1e4) for a in alphas]
    assert all(math.isfinite(v) and v >= 0.0 for v in got)
    assert all(a >= b for a, b in zip(got, got[1:]))
    assert 0.0 < got[0] and got[3:] == [0.0, 0.0, 0.0]
    diag = _Diagnostic(mu, VOLTERRA, 1e4)
    floor = diag.alpha_floor
    assert math.log(1e4) / (2.0 * math.log(2.0)) < floor < 1e4
    assert diag(floor) == 0.0 < diag(math.nextafter(floor, 0.0))


def test_diagnostic_domain():
    for n in (2.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            bracket_diagnostic(1.0, np.array([0.0, 1.0]), FLAT, n)
        with pytest.raises(ConfigError):
            bracket(np.array([0.0, 1.0]), FLAT, n)


def test_bracket_identically_zero_truth():
    n = 1e4
    report = bracket(np.array([1.0]), FLAT, n)
    assert report.upper_status == "identically-zero"
    assert math.isinf(report.alpha_upper)
    # no lower crossing either, so the sqrt(log n) truncation binds
    assert math.isclose(report.alpha_lower, math.sqrt(math.log(n)), rel_tol=1e-12)
    d = json.loads(report.to_json())
    assert d["alpha_upper"] is None
    assert d["upper_status"] == "identically-zero"


def test_bracket_ordering_and_status():
    mu0 = TruthSpec.paper_example().coefficients(100)
    report = bracket(mu0, VOLTERRA, 1e6)
    assert report.upper_status == "crossed"
    assert 0.0 < report.alpha_lower <= report.alpha_upper
    assert np.all(np.isfinite(report.curve_values))
    assert np.all(report.curve_values >= 0.0)


def test_bracket_second_coordinate_cap():
    """A non-zero second coordinate forces a crossing below the cap bound."""
    truth = TruthSpec.paper_example()
    model = VOLTERRA
    for n, N in ((1e6, 100), (1e8, 465)):
        report = bracket(truth.coefficients(N), model, n)
        bound = math.log(n) / (2.0 * math.log(2.0)) - 0.5 - model.p
        assert report.upper_status == "crossed"
        assert report.alpha_upper <= bound


@pytest.mark.parametrize("n", [1e6, 1e8, 1e11])
def test_bracket_curve_is_the_diagnostic(n):
    """The scanned curve is bracket_diagnostic at the curve's alphas.

    Both evaluate the same terms by a matrix-vector product, the scan a
    block of alphas at a time, a single alpha as a block of one row.  BLAS
    sums a lone row in another order than the rows of a block, so the sums
    of N nonnegative terms agree to about sqrt(N) eps (measured: 3.0, 5.0
    and 14.5 eps at N = 100, 465, 4642).
    """
    N = default_truncation(n, 1.0)
    for truth in (TruthSpec.paper_example(), TruthSpec.power_law(1.0), TruthSpec.analytic_decay(1.0)):
        mu0 = truth.coefficients(N)
        report = bracket(mu0, VOLTERRA, n)
        want = [bracket_diagnostic(a, mu0, VOLTERRA, n) for a in report.curve_alphas]
        np.testing.assert_allclose(report.curve_values, want,
                                   rtol=math.sqrt(N) * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("truth, lower, upper", [
    (TruthSpec.paper_example(), 0.5358857421875001, 4.0569091796875),
    (TruthSpec.power_law(1.0), 0.4376318359375, 3.578486328125),
    (TruthSpec.analytic_decay(1.0), 1.5242939453125002, 7.503478515625002),
])
def test_bracket_pinned_crossings(truth, lower, upper):
    """Crossings at n = 1e8 (N = 465), as the scan with 512-alpha blocks found them."""
    report = bracket(truth.coefficients(default_truncation(1e8, 1.0)), VOLTERRA, 1e8)
    assert report.upper_status == "crossed"
    assert abs(report.alpha_lower - lower) <= REFINE_TOL
    assert abs(report.alpha_upper - upper) <= REFINE_TOL


def _whole_grid_scan(mu0, model, n):
    """What a scan of the whole grid, in one column, finds.

    Each crossing bisects from the grid's first value above its threshold,
    the upper one only at or below the cap.  The lower search ends there or
    at the first grid alpha at or past sqrt(log n), the upper one there or
    at the last at or below the cap.  The curve is every STRIDE-th value up
    to the first at or past the later end.  Returns the grid, its values
    and a report of what the scan found.
    """
    diag = _Diagnostic(mu0, model, n)
    logn = math.log(n)
    cap = logn / (2.0 * math.log(2.0))
    alphas = np.arange(SCAN_STEP, max(cap, math.sqrt(logn)) + SCAN_STEP, SCAN_STEP)
    full = diag.column(alphas)
    crossings, ends = [], []
    for threshold, limit, stop in (
            (LOWER_THRESHOLD, math.inf, min(np.searchsorted(alphas, math.sqrt(logn)), alphas.size - 1)),
            (logn**2, cap, np.searchsorted(alphas, cap, side="right") - 1)):
        above = np.flatnonzero(full > threshold)
        k = above[0] if above.size else None
        crossings.append(None if k is None or alphas[k] > limit else _crossing(diag, alphas, k, threshold))
        ends.append(stop if k is None else min(k, stop))
    lower, upper = crossings
    last = min(-(-max(ends) // STRIDE), alphas[::STRIDE].size - 1)
    return alphas, full, dict(
        alpha_lower=min(math.sqrt(logn), math.inf if lower is None else lower),
        alpha_upper=math.inf if upper is None else upper,
        upper_status="crossed" if upper is not None else "no-crossing-below-cap",
        curve_alphas=alphas[::STRIDE][:last + 1].tobytes(),
        curve_values=full[::STRIDE][:last + 1].tobytes())


# an explicit truth on coordinates 2, 41 and 301, whose terms are 0 between them and past 301
SPARSE = TruthSpec.explicit([1.0 if i in (2, 41, 301) else 0.0 for i in range(1, 302)])


@pytest.mark.parametrize("model", [VOLTERRA, FLAT, ModelSpec.exact_power(2.5)])
@pytest.mark.parametrize("truth", [TruthSpec.paper_example(), TruthSpec.power_law(1.0),
                                   TruthSpec.analytic_decay(1.0), TruthSpec.explicit([0.0, 1.0])])
def test_bracket_stops_where_a_full_scan_agrees(model, truth):
    """The scan evaluates a few alphas of the grid, yet finds what a scan of the whole grid finds.

    For n < 6.8, sqrt(log n) lies past the cap (at n = 5, 1.269 against
    1.161), and at n = 3 the lower limit alone keeps a scan without a lower
    crossing going to the grid's end.  At n = 10^6.65 (N = 165), under paper
    truth and the Volterra model, the curve reaches a coarse point past the
    last column the searches evaluated, so the scan extends it.  N is held
    to 2000 to keep the whole-grid column small.
    """
    for n in (3.0, 5.0, 20.0, 1e3, 1e6, 10**6.65, 1e8):
        mu0 = truth.coefficients(min(default_truncation(n, model.p), 2000))
        report = bracket(mu0, model, n)
        want = _whole_grid_scan(mu0, model, n)[2]
        got = {k: getattr(report, k) for k in want}
        got["curve_alphas"], got["curve_values"] = got["curve_alphas"].tobytes(), got["curve_values"].tobytes()
        assert got == want


@pytest.mark.parametrize("truth, model, n, reads_last", [
    (TruthSpec.paper_example(), VOLTERRA, 1e6, False),
    # no crossing below the cap: the curve ends in the whole column's last block, of 238 rows
    (TruthSpec.analytic_decay(1.0), VOLTERRA, 1e6, True),
    # nor here, where the last coarse column holds 30 points, padded to 32 rows
    (TruthSpec.analytic_decay(1.0), VOLTERRA, 10**2.75, False),
    (TruthSpec.paper_example(), VOLTERRA, 5.0, True),
    # every term past i = 372 underflows to 0
    (TruthSpec.analytic_decay(1.0), FLAT, 1e8, False),
    (SPARSE, VOLTERRA, 1e8, False),
    (TruthSpec.power_law(1.0), ModelSpec.exact_power(2.5), 1e12, False),
])
def test_scan_reads_the_whole_grid_bits(monkeypatch, truth, model, n, reads_last):
    """Every value the scan reads from `_Diagnostic.column` is bit-equal to the
    whole-grid column's at that alpha, so the two find the same crossings.
    Only the bisection reads alphas off the grid, one at a time."""
    mu0 = truth.coefficients(min(default_truncation(n, model.p), 2000))
    alphas, full, want = _whole_grid_scan(mu0, model, n)
    reads = []
    column = _Diagnostic.column
    monkeypatch.setattr(_Diagnostic, "column", lambda self, a: reads.append((a, column(self, a))) or reads[-1][1])
    report = bracket(mu0, model, n)
    on_grid = 0
    for a, values in reads:
        idx = np.rint(a / SCAN_STEP).astype(int) - 1
        if np.all((0 <= idx) & (idx < alphas.size)) and np.array_equal(alphas[idx], a):
            assert values.tobytes() == full[idx].tobytes()
            on_grid += a.size
        else:
            assert a.size == 1
    assert 0 < on_grid < alphas.size
    assert any(a[-1] == alphas[-1] for a, _ in reads) == reads_last
    assert (report.alpha_lower, report.alpha_upper) == (want["alpha_lower"], want["alpha_upper"])


def test_growth_rate_reads_the_last_nonzero_term():
    """The bound's rate takes log i of the last non-zero term, not log N: an
    analytic truth's terms underflow to 0 near i = 372 at gamma = 1."""
    mu0 = TruthSpec.analytic_decay(1.0).coefficients(2000)
    last = np.flatnonzero(mu0**2)[-1] + 1
    assert 300 < last < 400
    assert _Diagnostic(mu0, FLAT, 1e8).log_i_max == math.log(last)
    assert _Diagnostic(SPARSE.coefficients(465), VOLTERRA, 1e8).log_i_max == math.log(301)
    assert _Diagnostic(np.array([5.0]), VOLTERRA, 1e8).log_i_max == 0.0


truths = st.one_of(
    st.lists(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)), min_size=2, max_size=400).map(TruthSpec.explicit),
    st.floats(0.05, 3.0).map(TruthSpec.power_law),
    st.floats(0.05, 3.0).map(TruthSpec.analytic_decay),
)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(truth=truths, model=st.sampled_from([VOLTERRA, FLAT, ModelSpec.exact_power(2.5)]),
       log10_n=st.floats(math.log10(3.0), 10.0))
def test_scan_bound_holds_on_the_whole_grid(truth, model, log10_n):
    """Every whole-grid value from a coarse point up to the next lies at or
    below the bound the scan uses there: the point's value times
    `_Diagnostic.growth` over the interval's width.  So no interval the
    scan skips holds a value above the threshold it skipped it for."""
    n = 10.0**log10_n
    mu0 = truth.coefficients(min(default_truncation(n, model.p), 2000))
    diag = _Diagnostic(mu0, model, n)
    logn = math.log(n)
    alphas = np.arange(SCAN_STEP, max(logn / (2.0 * math.log(2.0)), math.sqrt(logn)) + SCAN_STEP, SCAN_STEP)
    full = diag.column(alphas)
    starts = np.arange(0, alphas.size, STRIDE)
    ends = np.minimum(starts + STRIDE, alphas.size)
    bound = full[starts] * diag.growth(alphas[starts], alphas[ends - 1] - alphas[starts])
    peak = np.maximum.reduceat(full, starts)
    assert np.all(peak <= bound)


def test_bracket_cap_call_pinned(monkeypatch):
    """Paper truth at n = 1e15 (N = 1e5, the truncation cap) keeps the
    crossings of a whole-grid scan, from at most 600 alphas evaluated, bisection
    included; a scan of 512-alpha chunks evaluated 2560 of the grid's 24 915."""
    evaluated = []
    column = _Diagnostic.column
    monkeypatch.setattr(_Diagnostic, "column", lambda self, a: evaluated.append(a.size) or column(self, a))
    report = bracket(TruthSpec.paper_example().coefficients(default_truncation(1e15, 1.0)), VOLTERRA, 1e15)
    assert report.alpha_lower == 0.750083984375
    assert report.alpha_upper == 2.0622246093749994
    assert sum(evaluated) <= 600


@pytest.mark.parametrize("mu0", [[0.0, 1e200, 1.0], [0.0, math.nan, 1.0], [0.0, math.inf]])
def test_diagnostic_rejects_non_finite_terms(mu0):
    """mu_2^2 overflows, or is not a number: no crossing or curve can be read off
    such terms, so neither function returns one, and no warning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            bracket(np.array(mu0), VOLTERRA, 1e6)
        with pytest.raises(NumericalError):
            bracket_diagnostic(1.0, np.array(mu0), VOLTERRA, 1e6)


def test_bracket_curve_csv(tmp_path):
    out = tmp_path / "br"
    assert main(["bracket", "--n", "1e4", "--N", "50", "--out", str(out)]) == 0
    rows = (out / "diagnostic_curve.csv").read_text().splitlines()
    assert rows[0] == "alpha,diagnostic"
    report = bracket(TruthSpec.paper_example().coefficients(50), VOLTERRA, 1e4)
    assert [float(r.split(",")[1]) for r in rows[1:]] == list(report.curve_values)


def test_polynomial_truth_brackets_track_regularity():
    """Fit the slack constants once at n = 1e6, then hold them fixed.

    For coefficients decaying like i^(-1/2-beta) the lower crossing
    approaches beta from below at speed c0/log n and the upper crossing
    approaches from above at speed C0*loglog n/log n.  The 1.25 margin
    absorbs the slow drift of the effective constants between rungs.
    """
    beta, N = 1.0, 10_000
    mu0 = TruthSpec.power_law(beta).coefficients(N)
    reports = {n: bracket(mu0, VOLTERRA, n) for n in (1e6, 1e8, 1e10)}
    for rep in reports.values():
        assert rep.upper_status == "crossed"

    c0 = 1.25 * (beta - reports[1e6].alpha_lower) * math.log(1e6)
    C0 = (1.25 * (reports[1e6].alpha_upper - beta) * math.log(1e6)
          / math.log(math.log(1e6)))
    assert c0 > 0 and C0 > 0
    for n in (1e8, 1e10):
        logn = math.log(n)
        assert reports[n].alpha_lower >= beta - c0 / logn
        assert reports[n].alpha_upper <= beta + C0 * math.log(logn) / logn


def test_minimax_sobolev_examples():
    assert math.isclose(minimax_rate_sobolev(1.0, 1.0, 1e5), 0.1, rel_tol=1e-12)
    assert math.isclose(minimax_rate_sobolev(1.0, 0.0, 1e3), 0.1, rel_tol=1e-12)
    assert math.isclose(minimax_rate_sobolev(2.0, 1.0, 1e7), 0.01, rel_tol=1e-12)


def test_minimax_analytic_examples():
    got = minimax_rate_analytic(0.0, math.e ** 2)
    assert math.isclose(got, math.sqrt(2.0) / math.e, rel_tol=1e-12)
    ns = [math.e ** 3 * 10 ** k for k in range(4)]
    vals = [minimax_rate_analytic(0.0, n) for n in ns]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # analytic truths are strictly easier than any Sobolev ball
    ratios = [minimax_rate_analytic(1.0, n) / minimax_rate_sobolev(1.0, 1.0, n)
              for n in (1e6, 1e10, 1e14)]
    assert ratios[0] > ratios[1] > ratios[2]


def test_minimax_analytic_domain():
    with pytest.raises(ConfigError):
        minimax_rate_analytic(0.0, 1.0)


def test_bracket_scan_peak_memory():
    """The scan holds one pair of row blocks of about sequence_model.BLOCK floats
    (at least four rows each), not a pair of 512 x N blocks: at N = 4642
    and 1e5 those held 36.6 and 785 MiB.

    The curve runs over the coarse points, every STRIDE-th alpha, up to the
    first at or past the upper crossing (2.689 and 2.062).
    """
    for n, bound_mib, points, last in ((1e11, 4, 170, 2.705), (1e15, 16, 130, 2.065)):
        N = default_truncation(n, 1.0)
        mu0 = TruthSpec.paper_example().coefficients(N)
        tracemalloc.start()
        try:
            report = bracket(mu0, VOLTERRA, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, (n, peak)
        assert report.curve_alphas.size == report.curve_values.size == points
        assert math.isclose(report.curve_alphas[-1], last, rel_tol=1e-12)


def test_bracket_zero_truth_is_not_scanned(monkeypatch):
    """An identically-zero diagnostic evaluates no block, and reports the
    curve a full scan gives: zero at every coarse point of the whole grid."""
    calls = []
    column = _Diagnostic.column
    monkeypatch.setattr(_Diagnostic, "column", lambda self, a: calls.append(1) or column(self, a))
    n = 1e11
    report = bracket(np.zeros(4642), VOLTERRA, n)
    assert not calls
    bracket(TruthSpec.power_law(1.0).coefficients(10), VOLTERRA, n)
    assert calls  # the scan does go through the patched evaluator
    logn = math.log(n)
    grid = np.arange(SCAN_STEP, max(logn / (2.0 * math.log(2.0)), math.sqrt(logn)) + SCAN_STEP,
                     SCAN_STEP)
    grid = grid[::STRIDE]
    assert report.curve_alphas.tobytes() == grid.tobytes()
    assert report.curve_values.tobytes() == np.zeros(grid.size).tobytes()
    assert report.alpha_lower == math.sqrt(logn)
    assert math.isinf(report.alpha_upper)
    assert report.upper_status == "identically-zero"
