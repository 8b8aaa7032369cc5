from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from invseq import (ExperimentConfig, HbConfig, HyperPrior, ModelSpec, Observation, TruthSpec,
                    default_truncation, run_mwg, simulate)
from invseq.cli import main, parse_hyper, parse_model, parse_truth
from invseq.errors import ConfigError
from invseq.experiments import run_rate_sweep, write_csv, write_json
from invseq.sequence_model import TRUNCATION_CAP, fields_dict, read_fields
from invseq.theory import bracket, minimax_rate_sobolev


def test_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, invseq.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_parse_model():
    assert parse_model("volterra") == ModelSpec.volterra()
    assert parse_model("power:1.5") == ModelSpec.exact_power(1.5)
    with pytest.raises(ConfigError):
        parse_model("fourier")


def test_parse_truth():
    assert parse_truth("paper") == TruthSpec.paper_example()
    assert parse_truth("zero") == TruthSpec.zero()
    assert parse_truth("power:1") == TruthSpec.power_law(1.0)
    assert parse_truth("power:2:0.5") == TruthSpec.power_law(2.0, 0.5)
    assert parse_truth("analytic:0.5") == TruthSpec.analytic_decay(0.5)
    assert parse_truth("explicit:1,0,-2") == TruthSpec.explicit([1.0, 0.0, -2.0])
    for spec in ("spline:3", "power:1:2:3", "analytic:1:2:3"):
        with pytest.raises(ConfigError, match="power:B\\[:C\\]"):
            parse_truth(spec)


def test_parse_hyper():
    assert parse_hyper("exponential") == HyperPrior.exponential(1.0)
    assert parse_hyper("exponential:2.5") == HyperPrior.exponential(2.5)
    assert parse_hyper("gamma:2:1.5") == HyperPrior.gamma(2.0, 1.5)
    assert parse_hyper("inverse_gamma:2:1") == HyperPrior.inverse_gamma(2.0, 1.0)
    for spec in ("uniform:0:5", "exponential:1:2", "fixed:0.7"):
        with pytest.raises(ConfigError, match="exponential\\[:RATE\\]"):
            parse_hyper(spec)


def test_simulate_round_trip(tmp_path):
    out = tmp_path / "obs.json"
    rc = main(["simulate", "--n", "1000", "--N", "50", "--seed", "4",
               "--out", str(out)])
    assert rc == 0
    obs = Observation.from_json(out.read_text())
    assert obs.n == 1000.0 and obs.N == 50 and obs.seed == 4
    # same invocation, same bytes
    out2 = tmp_path / "obs2.json"
    main(["simulate", "--n", "1000", "--N", "50", "--seed", "4", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_eb_fit_command(tmp_path):
    obs_path = tmp_path / "obs.json"
    main(["simulate", "--n", "1000", "--N", "50", "--seed", "4", "--out", str(obs_path)])
    out = tmp_path / "fit"
    rc = main(["eb-fit", "--obs", str(obs_path), "--out", str(out)])
    assert rc == 0
    with open(out / "fit.json") as fh:
        d = json.load(fh)
    assert 0.0 <= d["alpha_hat"] <= math.log(1000.0)
    assert (out / "likelihood.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "bracket"])
@pytest.mark.parametrize("n", ["inf", "nan"])
@pytest.mark.parametrize("N", [[], ["--N", "5"]])
def test_non_finite_n_exits_two(tmp_path, capsys, command, n, N):
    out = tmp_path / "out"
    assert main([command, "--n", n, *N, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, spec, name", [
    ("--truth", "power:nan", "beta"), ("--truth", "analytic:nan", "gamma"),
    ("--truth", "power:1:nan", "c"), ("--model", "power:nan", "p"),
])
def test_non_finite_spec_exits_two(tmp_path, capsys, flag, spec, name):
    out = tmp_path / "obs.json"
    assert main(["simulate", flag, spec, "--n", "1000", "--out", str(out)]) == 2
    assert f"{name} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("hyper, name", [
    ("exponential:nan", "rate"), ("exponential:inf", "rate"), ("gamma:nan:1", "shape"),
    ("inverse_gamma:2:inf", "scale"),
])
def test_non_finite_hyperprior_exits_two(tmp_path, capsys, hyper, name):
    obs_path = tmp_path / "obs.json"
    main(["simulate", "--n", "1000", "--N", "5", "--seed", "4", "--out", str(obs_path)])
    out = tmp_path / "hb"
    assert main(["hb-run", "--obs", str(obs_path), "--hyper", hyper, "--out", str(out)]) == 2
    assert f"hyperprior {name} must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, spec", [
    ("simulate", "--truth", "power:1:2:3"), ("simulate", "--truth", "analytic:1:2:x"),
    ("hb-run", "--hyper", "exponential:1:2"),
])
def test_extra_spec_fields_exit_two(tmp_path, capsys, command, flag, spec):
    source = ["--n", "1000"]
    if command == "hb-run":
        obs_path = tmp_path / "obs.json"
        main(["simulate", "--n", "1000", "--N", "5", "--seed", "4", "--out", str(obs_path)])
        source = ["--obs", str(obs_path)]
    out = tmp_path / "out"
    assert main([command, *source, flag, spec, "--out", str(out)]) == 2
    assert "cannot parse" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "bracket"])
def test_truncation_over_cap_exits_two(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--n", "1e4", "--N", str(TRUNCATION_CAP + 1), "--out", str(out)]) == 2
    assert f"N must be in [1, {TRUNCATION_CAP}]" in capsys.readouterr().err
    assert not out.exists()


def test_hb_run_command(tmp_path, capsys):
    obs_path = tmp_path / "obs.json"
    main(["simulate", "--n", "1000", "--N", "10", "--seed", "4", "--out", str(obs_path)])
    out = tmp_path / "hb"
    capsys.readouterr()
    rc = main(["hb-run", "--obs", str(obs_path), "--iterations", "400",
               "--burn-in", "100", "--seed", "2", "--out", str(out)])
    assert rc == 0
    with open(out / "hb_summary.json") as fh:
        s = json.load(fh)
    assert 0.0 < s["acceptance_rate"] < 1.0
    assert s["burn_in"] == 100
    # below ENCLOSE_MIN_N coordinates every candidate and the start point are evaluated
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split("alpha_mean = ")[1] == f"{s['alpha_mean']:.4f}"
    assert printed[1:] == ["likelihood evaluations = 401 of 401"]


def test_hb_run_prints_the_chains_likelihood_evaluations(tmp_path, capsys):
    """hb-run reports how many alphas the chain evaluated, on a line of its own,
    and writes the count into no file."""
    obs_path = tmp_path / "obs.json"
    obs = simulate(TruthSpec.paper_example(), ModelSpec.volterra(), 1e11, 4642, 3)
    obs_path.write_text(obs.to_json())
    out = tmp_path / "hb"
    capsys.readouterr()
    assert main(["hb-run", "--obs", str(obs_path), "--hyper", "inverse_gamma:2:1", "--iterations",
                 "4000", "--seed", "5", "--out", str(out)]) == 0
    chain = run_mwg(obs, HyperPrior.inverse_gamma(2.0, 1.0), HbConfig(iterations=4000, seed=5))
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"likelihood evaluations = {chain.exact_evaluations} of 4001"
    assert 0 < chain.exact_evaluations <= 40
    for path in out.iterdir():
        assert "evaluations" not in path.read_text()


def test_bracket_command(tmp_path):
    out = tmp_path / "br"
    rc = main(["bracket", "--truth", "explicit:1", "--model", "power:0",
               "--n", "10000", "--out", str(out)])
    assert rc == 0
    with open(out / "bracket.json") as fh:
        d = json.load(fh)
    assert d["alpha_upper"] is None
    assert d["upper_status"] == "identically-zero"


def test_bracket_prints_the_diagnostic_evaluations(tmp_path, capsys):
    """bracket reports how many alphas it evaluated, bisection included, on a
    line of its own after the crossings, and writes the count into no file;
    a zero truth is not scanned."""
    for truth, n in (("paper", 1e8), ("zero", 1e6)):
        out = tmp_path / truth
        capsys.readouterr()
        assert main(["bracket", "--truth", truth, "--n", str(n), "--out", str(out)]) == 0
        report = bracket(parse_truth(truth).coefficients(default_truncation(n, 1.0)), ModelSpec.volterra(), n)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("alpha_lower = ")
        assert lines[1:] == [f"diagnostic evaluations = {report.evaluated}"]
        assert (report.evaluated > 0) == (truth == "paper")
        for path in out.iterdir():
            assert "evaluated" not in path.read_text()


def _write_config(path, **overrides):
    cfg = {
        "model": fields_dict(ModelSpec.volterra()),
        "truth": fields_dict(TruthSpec.paper_example()),
        "n_ladder": [100.0, 1000.0],
        "replicates": 2,
        "seed": 0,
        "hb_iterations": 300,
        "hb_burn_in": 50,
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_figure1_zero_truth_endpoint(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", truth=fields_dict(TruthSpec.zero()))
    out = tmp_path / "fig1"
    rc = main(["figure1", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    with open(out / "fig1_manifest.json") as fh:
        manifest = json.load(fh)
    for rung in manifest["rungs"]:
        for ah in rung["alpha_hat"]:
            assert ah == math.log(rung["n"])


REPLAY_CASES = {  # command: (extra arguments, config overrides, files expected)
    "figure1": ([], {}, ["fig1_1e2_curve.csv", "fig1_manifest.json"]),
    "figure2": ([], {}, ["fig2_1e3_alpha.csv", "fig2_manifest.json"]),
    "rate-sweep": (["--beta", "1"], {"n_ladder": [1e2, 1e3, 1e4]},
                   ["rate_sweep.csv", "rate_manifest.json"]),
}


@pytest.mark.parametrize("command", list(REPLAY_CASES))
def test_replay_byte_identical(tmp_path, command):
    extra, overrides, expected = REPLAY_CASES[command]
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
    first = {f: (out / f).read_bytes() for f in os.listdir(out)}
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
    second = {f: (out / f).read_bytes() for f in os.listdir(out)}
    assert first == second
    assert all(name in first for name in expected)


@pytest.mark.parametrize("command, prefix, per_rung", [
    ("figure1", "fig1", ["curve.csv", "likelihood.csv"]),
    ("figure2", "fig2", ["alpha.csv", "summary.json", "curve.csv"]),
], ids=["figure1", "figure2"])
def test_rungs_sharing_a_leading_digit_keep_their_own_files(tmp_path, command, prefix, per_rung):
    cfg = _write_config(tmp_path / "cfg.json", replicates=1, n_ladder=[1e3, 1.5e3, 2e3])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / f"{prefix}_manifest.json") as fh:
        files = json.load(fh)["files"]
    want = [f"{prefix}_{tag}_{kind}" for tag in ("1e3", "1.5e3", "2e3") for kind in per_rung]
    assert files == want
    assert sorted(os.listdir(out)) == sorted([*want, f"{prefix}_manifest.json"])


def test_figure2_rejects_a_point_mass_hyperprior(tmp_path, capsys):
    # a point mass at alpha is no hyperprior; the posterior at one alpha is posterior(alpha, obs)
    cfg = _write_config(tmp_path / "cfg.json", replicates=1,
                        hyper={"kind": "fixed", "alpha_star": 0.7})
    out = tmp_path / "fig2"
    assert main(["figure2", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown hyperprior kind" in capsys.readouterr().err
    assert not out.exists()


def test_hyperprior_ignores_a_stale_alpha_star():
    # configs written while "fixed" was a kind carry alpha_star in every hyper; they must load
    stale = {**fields_dict(HyperPrior.exponential(1.0)), "alpha_star": 1.0}
    assert read_fields(HyperPrior, stale) == HyperPrior.exponential(1.0)
    with_it = ExperimentConfig.from_dict({"model": fields_dict(ModelSpec.volterra()),
                                          "truth": fields_dict(TruthSpec.paper_example()),
                                          "hyper": stale})
    assert with_it.hyper == HyperPrior.exponential(1.0)
    assert "alpha_star" not in with_it.to_dict()["hyper"]


def test_figure2_acceptance_rate_band(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", replicates=1, n_ladder=[1000.0],
                        hb_iterations=1000, hb_burn_in=200)
    out = tmp_path / "fig2"
    assert main(["figure2", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "fig2_manifest.json") as fh:
        manifest = json.load(fh)
    # the independence proposal fits its target, so nearly every move is taken, but not all
    rate = manifest["rungs"][0]["replicates"][0]["acceptance_rate"]
    assert 0.8 <= rate < 1.0


def test_rate_sweep_needs_three_rungs(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json",
                        truth=fields_dict(TruthSpec.power_law(1.0)))
    out = tmp_path / "sweep"
    rc = main(["rate-sweep", "--config", str(cfg), "--beta", "1",
               "--out", str(out)])
    assert rc == 2


def test_rate_sweep_small_ladder(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json",
                        truth=fields_dict(TruthSpec.power_law(1.0)),
                        n_ladder=[1e3, 1e4, 1e5])
    out = tmp_path / "sweep"
    rc = main(["rate-sweep", "--config", str(cfg), "--beta", "1", "--out", str(out)])
    assert rc == 0
    with open(out / "rate_manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["theoretical_slope"] == -2.0 / 5.0
    assert math.isfinite(manifest["fitted_slope"])
    text = (out / "rate_sweep.csv").read_text().splitlines()
    assert text[0] == "n,mean_sq_error,mean_posterior_risk"
    assert len(text) == 4


def test_rate_sweep_beta_mismatch(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json",
                        truth=fields_dict(TruthSpec.power_law(1.0)),
                        n_ladder=[1e3, 1e4, 1e5])
    rc = main(["rate-sweep", "--config", str(cfg), "--beta", "2",
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_exit_code_config_error(tmp_path):
    rc = main(["simulate", "--model", "nosuch", "--n", "100",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"model\": {\"kind\": \"volterra\"}}")
    assert main(["figure1", "--config", str(bad)]) == 2
    bad.write_text("[]")
    assert main(["figure1", "--config", str(bad), "--seed", "1"]) == 2


@pytest.mark.parametrize("rung", [math.inf, math.nan])
def test_non_finite_rung_is_config_error(tmp_path, rung):
    with pytest.raises(ConfigError, match="finite"):
        ExperimentConfig(model=ModelSpec.volterra(), truth=TruthSpec.paper_example(),
                         n_ladder=(1e3, rung))
    # through the command line: exit 2 before the first rung writes anything
    cfg = _write_config(tmp_path / "cfg.json", n_ladder=[1e3, rung])
    out = tmp_path / "fig1"
    assert main(["figure1", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["figure1", "figure2", "rate-sweep"])
@pytest.mark.parametrize("overrides, message", [
    # an explicit model with p = 0 needs 1e5 coordinates at the top rung
    ({"model": fields_dict(ModelSpec.explicit([1.0] * 3, p=0.0, C=1.0))},
     "kappa table must be at least N = 100000 entries long, has 3"),
    ({"N": TRUNCATION_CAP + 1}, f"N must be in [1, {TRUNCATION_CAP}]"),
], ids=["short-table", "N-over-cap"])
def test_config_truncation_errors_exit_two(tmp_path, capsys, command, overrides, message):
    cfg = _write_config(tmp_path / "cfg.json", n_ladder=[1e3, 1e4, 1e5], **overrides)
    out = tmp_path / "out"
    beta = ["--beta", "1"] if command == "rate-sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *beta]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["figure1", "figure2", "rate-sweep"])
@pytest.mark.parametrize("overrides, message", [
    ({"hb_iterations": 10, "hb_burn_in": 10}, "burn_in must be in [0, iterations)"),
    ({"hb_iterations": 0}, "need at least one iteration"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"seed": math.inf}, "seed must be an integer, got inf"),
    ({"hb_burn_in": -math.inf}, "hb_burn_in must be an integer, got -inf"),
], ids=["burn-in-not-below-iterations", "no-iterations", "negative-seed", "infinite-seed",
        "infinite-burn-in"])
def test_config_errors_exit_two_before_writing(tmp_path, capsys, command, overrides, message):
    # figure1 and rate-sweep run no sampler, but reject the sampler settings figure2 would
    cfg = _write_config(tmp_path / "cfg.json", n_ladder=[1e3, 1e4, 1e5], **overrides)
    out = tmp_path / "out"
    beta = ["--beta", "1"] if command == "rate-sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *beta]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_writers_pin_bytes(tmp_path):
    path = tmp_path / "columns.csv"
    write_csv(path, {"a": [np.float64(0.1), 3], "b": [-0.0, 1e-300]})
    assert path.read_bytes() == b"a,b\r\n0.1,-0.0\r\n3.0,1e-300\r\n"
    with pytest.raises(ValueError):
        write_csv(path, {"a": [1.0, 2.0], "b": [1.0]})
    path = tmp_path / "object.json"
    write_json(path, {"b": [np.float64(0.1), 2], "a": None})
    assert path.read_bytes() == b'{\n "a": null,\n "b": [\n  0.1,\n  2\n ]\n}'


def _csv_row_by_row(path, columns: dict) -> None:
    """write_csv's earlier body: one joined row at a time."""
    cols = [np.asarray(c, dtype=float) for c in columns.values()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(columns)
        reprs = [map(repr, c.tolist()) for c in cols]
        fh.writelines(",".join(row) + "\r\n" for row in zip(*reprs))


@pytest.mark.parametrize("columns", [
    {"alpha": []},
    {"a": [], "b": [], "c": []},
    {"alpha": [0.5]},
    {"alpha": np.linspace(0.0, 3.0, 9000)},
    {"t": np.linspace(0.0, 1.0, 512), "f": np.sin(np.arange(512.0)), "g": np.arange(512.0) * 1e16},
    {"x": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-5], "y": [0.1, 2, 3, 4, 5, 6]},
], ids=["header-only", "header-only-3", "one-value", "one-column", "three-columns", "specials"])
def test_write_csv_keeps_the_bytes_of_row_by_row_writing(tmp_path, columns):
    write_csv(tmp_path / "fast.csv", columns)
    _csv_row_by_row(tmp_path / "slow.csv", columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def test_config_ignores_unknown_keys(tmp_path):
    # "mode", "hb_proposal_sd" and "hb_thin" were config fields once; old configs that still carry them must load
    with open(_write_config(tmp_path / "cfg.json", mode="eb", hb_proposal_sd=0.3, hb_thin=50)) as fh:
        cfg = ExperimentConfig.from_dict(json.load(fh))
    assert not {"mode", "hb_proposal_sd", "hb_thin"} & set(cfg.to_dict())


@pytest.mark.parametrize("command", ["figure1", "figure2", "rate-sweep"])
def test_mistyped_config_exits_two_before_writing(tmp_path, capsys, command):
    # read with float() and int(), this ran a ladder at n = 5 and 9 with seed 2 and 1 replicate
    cfg = _write_config(tmp_path / "cfg.json", n_ladder="59", seed=2.9, replicates=True)
    out = tmp_path / "out"
    beta = ["--beta", "1"] if command == "rate-sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *beta]) == 2
    assert "n_ladder must be a list of numbers" in capsys.readouterr().err
    assert not out.exists()


READERS = {  # reader: (a JSON object it reads, the reader)
    "model": ({"kind": "explicit", "p": 0.5, "C": 2.0, "table": [1.0, 0.7]},
              partial(read_fields, ModelSpec)),
    "truth": ({"kind": "power_law", "beta": 1.0, "c": 1.0}, partial(read_fields, TruthSpec)),
    "hyper": ({"kind": "gamma", "shape": 2.0, "rate": 1.0}, partial(read_fields, HyperPrior)),
    "config": ({"model": fields_dict(ModelSpec.volterra()), "truth": {"kind": "paper_example"},
                "n_ladder": [100.0, 1000.0], "replicates": 2, "seed": 0, "N": 5},
               ExperimentConfig.from_dict),
    "observation": ({"n": 1e3, "N": 2, "y": [0.1, 0.2], "seed": 0,
                     "model": fields_dict(ModelSpec.volterra())},
                    lambda d: Observation.from_json(json.dumps(d))),
}


@pytest.mark.parametrize("reader, field, value", [
    ("model", "p", True), ("model", "C", "1"), ("model", "table", "59"), ("model", "p", None),
    ("truth", "beta", True), ("truth", "c", "1"), ("truth", "coeffs", "59"),
    ("truth", "kind", None),
    ("hyper", "rate", True), ("hyper", "shape", "1"), ("hyper", "kind", None),
    ("config", "n_ladder", "59"), ("config", "seed", 2.9), ("config", "replicates", True),
    ("config", "hb_iterations", "1"), ("config", "N", 2.9), ("config", "model", None),
    ("config", "hyper", None),
    ("observation", "N", True), ("observation", "n", "1"), ("observation", "y", "59"),
    ("observation", "seed", 2.9), ("observation", "model", None),
])
def test_readers_reject_wrong_json_types(reader, field, value):
    d, read = READERS[reader]
    read(d)
    with pytest.raises(ConfigError, match=rf"\b{field} must be "):
        read({**d, field: value})


def _config(**overrides):
    fields = {"model": ModelSpec.volterra(), "truth": TruthSpec.paper_example(), "n_ladder": (1e3, 1e4, 1e5)}
    return ExperimentConfig(**{**fields, **overrides})


REFUSALS = {  # id: (a call that must refuse its input, what the error says)
    "empty-ladder": (lambda: _config(n_ladder=()), "n_ladder must not be empty"),
    "falling-ladder": (lambda: _config(n_ladder=(1e4, 1e3)), "n_ladder must be strictly increasing"),
    "repeated-rung": (lambda: _config(n_ladder=(1e3, 1e3)), "n_ladder must be strictly increasing"),
    "paper-truth-beta-2": (lambda: run_rate_sweep(_config(), 2.0),
                           "the running-example truth has effective beta = 1"),
    "analytic-truth-sweep": (lambda: run_rate_sweep(_config(truth=TruthSpec.analytic_decay(1.0)), 1.0),
                             "rate sweep needs a power_law or paper_example truth"),
    "explicit-empty-table": (lambda: ModelSpec.explicit([], p=1.0, C=2.0),
                             "explicit model needs a non-empty kappa table"),
    "explicit-no-table": (lambda: ModelSpec(kind="explicit", p=1.0), "explicit model needs a non-empty kappa table"),
    "table-on-volterra": (lambda: ModelSpec(kind="volterra", p=1.0, C=math.pi, table=(0.3,)),
                          "kappa table only makes sense for the explicit kind"),
    "unknown-truth": (lambda: TruthSpec(kind="sobolev"), "unknown truth kind 'sobolev'"),
    "power-beta-0": (lambda: TruthSpec.power_law(0.0), "power_law truth needs beta > 0"),
    "power-beta-negative": (lambda: TruthSpec.power_law(-1.0), "power_law truth needs beta > 0"),
    "power-no-beta": (lambda: TruthSpec(kind="power_law"), "power_law truth needs beta > 0"),
    "analytic-gamma-0": (lambda: TruthSpec.analytic_decay(0.0), "analytic_decay truth needs gamma > 0"),
    "analytic-no-gamma": (lambda: TruthSpec(kind="analytic_decay"), "analytic_decay truth needs gamma > 0"),
    "explicit-no-coeffs": (lambda: TruthSpec(kind="explicit"), "explicit truth needs a coefficient table"),
    "kappa-no-coordinate": (lambda: ModelSpec.volterra().kappa_vector(0), "need at least one coordinate"),
    "truth-no-coordinate": (lambda: TruthSpec.paper_example().coefficients(0),
                            "need at least one coordinate"),
    "integer-past-float": (lambda: read_fields(TruthSpec, {"kind": "power_law", "beta": 10**400}),
                           "beta must fit in a float"),
    "ladder-past-float": (lambda: ExperimentConfig.from_dict({
        "model": fields_dict(ModelSpec.volterra()), "truth": {"kind": "paper_example"},
        "n_ladder": [1e3, 10**400]}), "n_ladder must fit in a float"),
    "bracket-no-coefficient": (lambda: bracket([], ModelSpec.volterra(), 1e6),
                               "need at least one coefficient"),
    "sobolev-beta-0": (lambda: minimax_rate_sobolev(0.0, 1.0, 1e3), "need beta > 0, p >= 0, n > 0"),
    "sobolev-negative-p": (lambda: minimax_rate_sobolev(1.0, -0.5, 1e3), "need beta > 0, p >= 0, n > 0"),
    "sobolev-n-0": (lambda: minimax_rate_sobolev(1.0, 1.0, 0.0), "need beta > 0, p >= 0, n > 0"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_boundary_refusals_raise_config_error(case):
    call, message = REFUSALS[case]
    with pytest.raises(ConfigError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("command, overrides, message", [
    ("figure1", {"n_ladder": []}, "n_ladder must not be empty"),
    ("figure2", {"n_ladder": [1e4, 1e3]}, "n_ladder must be strictly increasing"),
    ("rate-sweep --beta 2", {"n_ladder": [1e3, 1e4, 1e5]},
     "the running-example truth has effective beta = 1"),
    ("rate-sweep --beta 1", {"n_ladder": [1e3, 1e4, 1e5], "truth": {"kind": "analytic_decay", "gamma": 1.0}},
     "rate sweep needs a power_law or paper_example truth"),
    ("figure1", {"model": {"kind": "explicit", "p": 1.0, "C": 2.0, "table": []}},
     "explicit model needs a non-empty kappa table"),
    ("figure1", {"model": {"kind": "volterra", "p": 1.0, "C": math.pi, "table": [0.3]}},
     "kappa table only makes sense for the explicit kind"),
    ("figure2", {"truth": {"kind": "sobolev"}}, "unknown truth kind 'sobolev'"),
    ("figure1", {"truth": {"kind": "power_law", "beta": 0.0}}, "power_law truth needs beta > 0"),
    ("figure1", {"truth": {"kind": "analytic_decay", "gamma": -1.0}}, "analytic_decay truth needs gamma > 0"),
    ("figure1", {"truth": {"kind": "explicit"}}, "explicit truth needs a coefficient table"),
    ("figure1", {"n_ladder": [1e3, 10**400]}, "n_ladder must fit in a float"),
], ids=["empty-ladder", "falling-ladder", "paper-truth-beta-2", "analytic-truth-sweep",
        "explicit-empty-table", "table-on-volterra", "unknown-truth", "power-beta-0",
        "analytic-gamma-negative", "explicit-no-coeffs", "ladder-past-float"])
def test_boundary_refusals_exit_two_before_writing(tmp_path, capsys, command, overrides, message):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "out"
    assert main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eb-fit", "hb-run"])
@pytest.mark.parametrize("field, value", [("n", -1.0), ("n", 0.0), ("n", math.nan),
                                          ("y", math.nan), ("y", math.inf),
                                          ("table", [1.0, 1.0])])
def test_bad_observation_file_is_config_error(tmp_path, capsys, command, field, value):
    d = json.loads(Observation(n=1e3, N=3, y=np.array([0.1, 0.2, 0.3]), seed=0,
                               model=ModelSpec.volterra()).to_json())
    if field == "n":
        d["n"] = value
    elif field == "y":
        d["y"][1] = value
    else:  # an explicit model whose kappa table is shorter than N
        d["model"] = {"kind": "explicit", "p": 0.0, "C": 1.0, "table": value}
    obs_path = tmp_path / "obs.json"
    obs_path.write_text(json.dumps(d))
    out = tmp_path / "x"
    assert main([command, "--obs", str(obs_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{field} must be" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eb-fit", "hb-run"])
@pytest.mark.parametrize("field", ["n", "seed", "model", "N", None])
def test_mistyped_observation_file_is_config_error(tmp_path, capsys, command, field):
    d = json.loads(Observation(n=1e3, N=3, y=np.array([0.1, 0.2, 0.3]), seed=0,
                               model=ModelSpec.volterra()).to_json())
    if field is None:
        d = [d]  # a list at the top level
    else:
        d[field] = None
    obs_path = tmp_path / "obs.json"
    obs_path.write_text(json.dumps(d))
    out = tmp_path / "x"
    assert main([command, "--obs", str(obs_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: bad observation file")
    assert not out.exists()


def test_observation_over_cap_is_config_error(tmp_path, capsys):
    N = TRUNCATION_CAP + 1
    obs_path = tmp_path / "obs.json"
    obs_path.write_text(Observation(n=1e3, N=N, y=np.zeros(N), seed=0,
                                    model=ModelSpec.volterra()).to_json())
    out = tmp_path / "fit"
    assert main(["eb-fit", "--obs", str(obs_path), "--out", str(out)]) == 2
    assert f"N must be in [1, {TRUNCATION_CAP}]" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_numerical_error(tmp_path):
    # n*y^2 overflows: both commands stop before any work, without a warning
    obs = Observation(n=1e6, N=2, y=np.array([1e200, 0.1]), seed=0,
                      model=ModelSpec.exact_power(0.0))
    obs_path = tmp_path / "obs.json"
    obs_path.write_text(obs.to_json())
    for command in ("eb-fit", "hb-run"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--obs", str(obs_path), "--out", str(tmp_path / command)])
        assert rc == 3


def test_bracket_non_finite_terms_exit_three(tmp_path):
    # mu_2^2 overflows, so the diagnostic's terms are not finite: no crossing is reported
    out = tmp_path / "br"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["bracket", "--truth", "explicit:0,1e200,1", "--n", "1e6", "--out", str(out)])
    assert rc == 3
    assert not out.exists()


def test_exit_code_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    rc = main(["simulate", "--n", "100", "--N", "5",
               "--out", str(blocker / "obs.json")])
    assert rc == 4


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
