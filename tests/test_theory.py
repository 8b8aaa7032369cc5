from __future__ import annotations

import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from invseq import ModelSpec, TruthSpec, bracket, default_truncation
from invseq.cli import main
from invseq.errors import ConfigError
from invseq.theory import (CHUNK, LOWER_THRESHOLD, REFINE_TOL, SCAN_STEP, _crossing, _Diagnostic,
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


@pytest.mark.parametrize("model", [VOLTERRA, FLAT, ModelSpec.exact_power(2.5)])
@pytest.mark.parametrize("truth", [TruthSpec.paper_example(), TruthSpec.power_law(1.0),
                                   TruthSpec.analytic_decay(1.0), TruthSpec.explicit([0.0, 1.0])])
def test_bracket_stops_where_a_full_scan_agrees(model, truth):
    """The scan stops early, at a chunk end, yet finds what a scan of the whole grid finds.

    The reference takes diag over the whole grid in one column and bisects
    from its first value above each threshold (the upper one only at or
    below the cap).  Its curve ends at the first chunk end where each
    threshold is exceeded or past its limit.  For n < 6.8, sqrt(log n) lies
    past the cap (at n = 5, 1.269 against 1.161), and at n = 3 the lower
    limit alone keeps a scan without a lower crossing going to the grid's
    end.  N is held to 2000 to keep the whole-grid column small.
    """
    for n in (3.0, 5.0, 20.0, 1e3, 1e6, 1e8):
        mu0 = truth.coefficients(min(default_truncation(n, model.p), 2000))
        report = bracket(mu0, model, n)
        diag = _Diagnostic(mu0, model, n)
        logn = math.log(n)
        cap = logn / (2.0 * math.log(2.0))
        alphas = np.arange(SCAN_STEP, max(cap, math.sqrt(logn)) + SCAN_STEP, SCAN_STEP)
        full = diag.column(alphas)
        lower = _crossing(diag, alphas, full, LOWER_THRESHOLD, math.inf)
        upper = _crossing(diag, alphas, full, logn**2, cap)
        assert report.alpha_lower == min(math.sqrt(logn), math.inf if lower is None else lower)
        assert report.alpha_upper == (math.inf if upper is None else upper)
        assert report.upper_status == ("crossed" if upper is not None else "no-crossing-below-cap")
        ends = np.minimum(np.arange(CHUNK, alphas.size + CHUNK, CHUNK), alphas.size)
        peak, last = np.maximum.accumulate(full)[ends - 1], alphas[ends - 1]
        done = (((peak > LOWER_THRESHOLD) | (last >= math.sqrt(logn)))
                & ((peak > logn**2) | (last >= cap)))
        size = ends[np.argmax(done)] if done.any() else alphas.size
        step = max(1, size // 1024)
        assert report.curve_alphas.tobytes() == alphas[:size:step].tobytes()
        assert report.curve_values.tobytes() == full[:size:step].tobytes()


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

    The curve keeps its extent, set by the 512-alpha chunks the scan checks:
    every step-th point up to the end of the chunk where both crossings are
    found.
    """
    for n, bound_mib, points, last in ((1e11, 4, 1024, 3.07), (1e15, 16, 1280, 2.559)):
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
    curve a full scan gives: zero over the whole grid, every step-th point."""
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
    grid = grid[::max(1, grid.size // 1024)]
    assert report.curve_alphas.tobytes() == grid.tobytes()
    assert report.curve_values.tobytes() == np.zeros(grid.size).tobytes()
    assert report.alpha_lower == math.sqrt(logn)
    assert math.isinf(report.alpha_upper)
    assert report.upper_status == "identically-zero"
