"""A rung's replicates share one likelihood scan: `empirical_bayes.columns` and
`scans` give every observation the bits it gets alone, and the drivers that
use them write the bytes of a fit made one replicate at a time."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from invseq import (ExperimentConfig, ModelSpec, TruthSpec, default_truncation, eb_posterior, fit,
                    posterior_mean_function, posterior_risk, run_figure1, run_figure2,
                    run_rate_sweep, simulate, synthesize_function)
from invseq import empirical_bayes, experiments
from invseq.empirical_bayes import GRID_SIZE, Loglik, columns, scans
from invseq.experiments import CURVE_GRID, rung_tag, write_csv
from invseq.sequence_model import truncation

VOLTERRA = ModelSpec.volterra()
PAPER = TruthSpec.paper_example()


def _one_observation_column(ell: Loglik, alphas: np.ndarray) -> np.ndarray:
    """The block loop of a Loglik evaluated on its own, written out."""
    out = np.empty(alphas.size)
    for s, log1p_u, r in ell.design.blocks(alphas, ell._active):
        k = r.shape[1]
        np.log(r, log1p_u)
        np.reciprocal(r, r)
        out[s:s + len(r)] = log1p_u @ np.ones(k) + r @ ell.ny2[:k] + ell._suffix[k]
    return -0.5 * out


def _grid(n: float) -> np.ndarray:
    """The EB search grid, and a few alphas past it where the prefixes are short."""
    return np.concatenate([np.linspace(0.0, math.log(n), GRID_SIZE), [40.0, 300.0, math.nan]])


@pytest.mark.parametrize("n", [1e3, 1e11, 1e12, 1e15])  # N = 10, 4642, 1e4, 1e5
def test_columns_equal_each_observations_own_column(n):
    N = default_truncation(n, VOLTERRA.p)
    ells = [Loglik(simulate(PAPER, VOLTERRA, n, N, seed)) for seed in range(4)]
    alphas = _grid(n)
    shared = columns(ells, alphas)
    assert shared.shape == (len(ells), alphas.size)
    for row, ell in zip(shared, ells):
        alone = ell.column(alphas)
        assert row.tobytes() == alone.tobytes()
        assert alone.tobytes() == _one_observation_column(ell, alphas).tobytes()


@pytest.mark.parametrize("n", [1e3, 1e11, 1e15])  # N = 10, 4642, 1e5
def test_visitor_sees_each_block_and_changes_no_bit(n):
    """A visitor that overwrites every array of every block leaves the rows' bits as they
    are without one, and the blocks it sees are the rows' own: their log sums and r give
    back each row, and their values are the rows.  Asked for, w is u * (1/(1 + u)) of the
    `Design.blocks` fill of the block's alphas over its prefix, bit for bit; not asked
    for, it is None."""
    N = default_truncation(n, VOLTERRA.p)
    ells = [Loglik(simulate(PAPER, VOLTERRA, n, N, seed)) for seed in range(2)]
    alphas = _grid(n)
    plain = columns(ells, alphas)
    for data_weights in (False, True):
        seen = []

        def visit(block):
            log1p_u, r = block.log1p_u, block.r
            k = r.shape[1]
            assert log1p_u.shape == r.shape == (block.log_sum.size, k)
            assert block.values.shape == (len(ells), block.log_sum.size)
            assert block.log_sum.tobytes() == (log1p_u @ np.ones(k)).tobytes()
            rows = [-0.5 * (block.log_sum + r @ ell.ny2[:k] + ell._suffix[k]) for ell in ells]
            assert np.array(rows).tobytes() == block.values.tobytes()
            if data_weights:
                span = alphas[block.start:block.start + len(r)]
                [(_, u, u1)] = ells[0].design.blocks(span, lambda _: k)
                assert block.w.shape == r.shape
                assert block.w.tobytes() == (u * (1.0 / u1)).tobytes()
                block.w.fill(math.nan)
            else:
                assert block.w is None
            seen.append((block.start, np.array(rows)))
            log1p_u.fill(math.nan)
            r.fill(math.nan)

        visited = columns(ells, alphas, visit, data_weights=data_weights)
        assert visited.tobytes() == plain.tobytes()
        assert columns(ells, alphas, data_weights=data_weights).tobytes() == plain.tobytes()
        assert [start for start, _ in seen] == list(range(0, alphas.size, len(seen[0][1][0])))
        np.testing.assert_array_equal(np.concatenate([rows for _, rows in seen], axis=1), visited)


def test_columns_need_one_model_n_and_N():
    a = Loglik(simulate(PAPER, VOLTERRA, 1e3, 10, 1))
    for other in (Loglik(simulate(PAPER, VOLTERRA, 1e4, 10, 1)),
                  Loglik(simulate(PAPER, VOLTERRA, 1e3, 11, 1)),
                  Loglik(simulate(PAPER, ModelSpec.exact_power(1.0), 1e3, 10, 1))):
        with pytest.raises(ValueError, match="one model, n and N"):
            columns([a, other], _grid(1e3))


def _fields(eb):
    return (eb.alpha_hat, eb.refined, eb.curve.argmax_index, eb.curve.alphas.tobytes(),
            eb.curve.values.tobytes())


@pytest.mark.parametrize("n", [1e3, 1e15])
def test_scans_cross_group_boundaries_lazily(n, monkeypatch):
    """With groups of 2, five observations make three groups; each is simulated
    only when its group is reached, and each fit has the bits of a lone fit."""
    N = default_truncation(n, VOLTERRA.p)
    monkeypatch.setattr(empirical_bayes, "SCAN_GROUP", 2 * (N + GRID_SIZE) + 1)
    drawn = []

    def observations():
        for seed in range(5):
            drawn.append(seed)
            yield simulate(PAPER, VOLTERRA, n, N, seed)

    pairs = scans(observations())
    for seed, (obs, scan) in enumerate(pairs):
        assert obs.seed == seed
        assert len(drawn) == min(2 * (seed // 2 + 1), 5)
        assert _fields(fit(obs, scan)) == _fields(fit(obs))
    assert drawn == list(range(5))


def test_scans_group_size_is_bounded():
    """At the cap N = 1e5 the 3 replicates of a rung fall in one group, and a
    long run of replicates is split into groups of at most
    SCAN_GROUP // (N + GRID_SIZE) observations."""
    N = 10**5
    per = empirical_bayes.SCAN_GROUP // (N + GRID_SIZE)
    assert 3 <= per
    drawn = []

    def observations(count):
        for seed in range(count):
            drawn.append(seed)
            yield simulate(PAPER, VOLTERRA, 1e15, N, seed)

    next(scans(observations(per + 5)))
    assert len(drawn) == per


def _tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _config(out: Path, replicates: int) -> ExperimentConfig:
    return ExperimentConfig(model=VOLTERRA, truth=PAPER, n_ladder=(1e3, 1e12, 1e15),
                            replicates=replicates, seed=3, output_dir=str(out))


@pytest.mark.parametrize("group", [None, 2], ids=["one-group", "groups-of-2"])
def test_eb_drivers_write_the_bytes_of_lone_fits(tmp_path, monkeypatch, group):
    """run_figure1 and run_rate_sweep against a reference that fits each
    replicate alone through the public API, on a 4-replicate ladder that ends
    at n = 1e15 (N = 1e5)."""
    if group is not None:
        monkeypatch.setattr(empirical_bayes, "SCAN_GROUP", group * (10**5 + GRID_SIZE))
    cfg = _config(tmp_path / "run", replicates=4)
    fig1 = run_figure1(cfg)
    rate = run_rate_sweep(cfg, beta=1.0)

    ref = tmp_path / "ref"
    ref.mkdir()
    alpha_hats, rows = [], []
    for n in cfg.n_ladder:
        N = truncation(n, VOLTERRA, None)
        mu0 = PAPER.coefficients(N)
        fits, sq_errs, risks = [], [], []
        for r in range(cfg.replicates):
            obs = simulate(PAPER, VOLTERRA, n, N, cfg.seed + r)
            eb = fit(obs)
            post = eb_posterior(obs, eb)
            fits.append(eb.alpha_hat)
            sq_errs.append(float(np.sum((post.means - mu0) ** 2)))
            risks.append(posterior_risk(post, mu0))
            if r == 0:
                tag = rung_tag(n)
                write_csv(ref / f"fig1_{tag}_curve.csv",
                          {"t": CURVE_GRID, "true_f": synthesize_function(mu0, CURVE_GRID),
                           "eb_mean_f": posterior_mean_function(post, CURVE_GRID)})
                write_csv(ref / f"fig1_{tag}_likelihood.csv", eb.curve.columns())
        alpha_hats.append(fits)
        rows.append({"n": n, "N": N, "mean_sq_error": float(np.mean(sq_errs)),
                     "mean_posterior_risk": float(np.mean(risks))})
    write_csv(ref / "rate_sweep.csv", {key: [row[key] for row in rows]
                                       for key in ("n", "mean_sq_error", "mean_posterior_risk")})

    assert [rung["alpha_hat"] for rung in fig1["rungs"]] == alpha_hats
    assert rate["rows"] == rows
    written = _tree(tmp_path / "run")
    for name, blob in _tree(ref).items():
        assert written[name] == blob, name


def test_figure1_fits_each_replicate_once_in_order(tmp_path, monkeypatch):
    """`experiments.fit` is called once per replicate, in replicate order,
    with that replicate's observation first, and its result is what lands in
    the manifest."""
    seen = []
    inner = experiments.fit

    def recording_fit(obs, *args, **kwargs):
        eb = inner(obs, *args, **kwargs)
        seen.append((obs.n, obs.seed, eb.alpha_hat))
        return eb

    monkeypatch.setattr(experiments, "fit", recording_fit)
    cfg = _config(tmp_path, replicates=3)
    manifest = run_figure1(cfg)
    assert seen == [(rung["n"], seed, a) for rung in manifest["rungs"]
                    for seed, a in zip(rung["seeds"], rung["alpha_hat"])]


def test_figure2_simulates_just_before_each_chain(tmp_path, monkeypatch):
    """figure2 takes its observations one at a time: each replicate is
    simulated, fitted and sampled before the next is simulated."""
    events = []
    for name in ("simulate", "fit", "run_mwg"):
        def hooked(*args, _inner=getattr(experiments, name), _name=name, **kwargs):
            events.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(experiments, name, hooked)
    cfg = ExperimentConfig(model=VOLTERRA, truth=PAPER, n_ladder=(1e3, 1e4), replicates=3,
                           output_dir=str(tmp_path), hb_iterations=50)
    run_figure2(cfg)
    assert events == ["simulate", "fit", "run_mwg"] * 6
