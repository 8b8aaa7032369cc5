"""Property tests over the model domain: n in [1, 1e20], p in [0, 3] and N up
to the 1e5 cap, on all three model kinds.

The posterior means and variances stay finite, the variances do not grow
with alpha, and the marginal log likelihood stays finite on the search
interval [0, log n], where its prefix evaluation agrees with a long-double
one.  On a malformed observation file, spec or experiment
config the command line returns one of its documented exit codes and
writes nothing on a configuration error.  Where the empirical-Bayes fit
lands on an end of its search interval, the score points outside it.
Every spec and config reads back what it writes, and the CSV writer gives
the bytes of its reference encoding.  The sampler's enclosure of the
likelihood between its grid nodes holds every value a column gives there,
and the bounds its window scan sets hold every value outside them; the
bounds on the log weights it reads off both, one cell lookup per alpha,
are those of three searches.
The examples are derandomized, so every run draws the same ones.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invseq import (ExperimentConfig, HyperPrior, ModelSpec, Observation, TruthSpec, fit,
                    hierarchical_bayes, posterior, score, simulate)
from invseq.cli import main
from invseq.empirical_bayes import Loglik
from invseq.experiments import write_csv
from invseq.hierarchical_bayes import ALPHA_MAX, ENCLOSE_MIN_N, grid_proposal
from invseq.sequence_model import (LOG_FLOAT_MAX, S_FLOOR, TRUNCATION_CAP, default_truncation,
                                   fields_dict, read_fields)
from oracles import enclosure_bounds, reference_bounds, weights_at
from test_empirical_bayes import _long_double_centred

EPS = np.finfo(float).eps
SETTINGS = settings(derandomize=True, deadline=None, max_examples=100, database=None)

cases = st.fixed_dictionaries({
    "log10_n": st.floats(0.0, 20.0),
    "N": st.integers(1, TRUNCATION_CAP),
    "kind": st.sampled_from(["exact_power", "volterra", "explicit"]),
    "p": st.floats(0.0, 3.0),
    "C": st.floats(1.0, 10.0),
    "seed": st.integers(0, 2**32 - 1),
})


def corners(**args):
    """Every model kind at N = 1e5 and the corners of (n, p) as explicit examples."""
    def add(test):
        for kind in ("exact_power", "volterra", "explicit"):
            for log10_n, p, C in ((20.0, 3.0, 10.0), (0.0, 0.0, 1.0)):
                case = {"log10_n": log10_n, "N": TRUNCATION_CAP, "kind": kind, "p": p, "C": C,
                        "seed": 1}
                test = example(case=case, **args)(test)
        return test
    return add


def _observation(case, edge=False, truth=TruthSpec.paper_example()):
    """The truth, the paper's by default, observed through the drawn model; an
    explicit table is kappa_i = i^-p times a factor drawn log-uniformly from
    [1/C, C].  With edge set, the model is an explicit table on its sandwich's
    upper edge, kappa_i = C * i^-p, whatever the drawn kind."""
    N, p, C = case["N"], case["p"], case["C"]
    if edge:
        model = ModelSpec.explicit(C * np.arange(1, N + 1) ** -p, p=p, C=C)
    elif case["kind"] == "exact_power":
        model = ModelSpec.exact_power(p)
    elif case["kind"] == "volterra":
        model = ModelSpec.volterra()
    else:
        factor = C ** np.random.default_rng(case["seed"]).uniform(-1.0, 1.0, N)
        model = ModelSpec.explicit(np.arange(1, N + 1) ** -p * factor, p=p, C=C)
    return simulate(truth, model, 10.0 ** case["log10_n"], N, case["seed"])


@SETTINGS
@corners(fractions=[0.0, 0.5, 1.0])
@given(case=cases, fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4))
def test_posterior_finite_and_variance_falls_in_alpha(case, fractions):
    obs = _observation(case)
    prev = None
    for alpha in sorted(f * math.log(obs.n) for f in fractions):
        post = posterior(alpha, obs)
        assert np.all(np.isfinite(post.means)) and np.all(np.isfinite(post.variances))
        # w = u*r is not monotone under rounding, hence the 4 eps
        if prev is not None:
            assert np.all(post.variances <= prev * (1.0 + 4.0 * EPS))
        prev = post.variances


@SETTINGS
@corners()
@given(case=cases)
def test_loglik_finite_on_search_interval(case):
    obs = _observation(case)
    ell = Loglik(obs)
    for alpha in np.linspace(0.0, math.log(obs.n), 7):
        assert math.isfinite(ell(alpha) + ell.offset)


def test_loglik_prefix_matches_long_double():
    """The likelihood over its active prefix plus the stored suffix sum stays
    within 64 eps of a long-double evaluation over all N coordinates, and every
    coordinate it skips has s_i(alpha) below -53 log 2, where 1 + u_i is 1.
    Half the draws are tables on the edge kappa_i = C i^-p of their sandwich,
    where the prefix length has the least room; so are the explicit examples
    at n = 1e15, where k(alpha) runs from N = 1e5 down to a few."""
    skipped = []
    edge_case = {"log10_n": 15.0, "N": TRUNCATION_CAP, "kind": "explicit", "p": 1.0, "C": 10.0,
                 "seed": 1}

    @SETTINGS
    @corners(edge=True, fraction=1.0)
    @example(case=edge_case, edge=True, fraction=0.05)
    @example(case=edge_case, edge=True, fraction=0.1)
    @example(case=edge_case, edge=True, fraction=0.3)
    @given(case=cases, edge=st.booleans(), fraction=st.floats(0.0, 1.0))
    def check(case, edge, fraction):
        obs = _observation(case, edge)
        alpha = fraction * math.log(obs.n)
        ell = Loglik(obs)
        got = ell(alpha)
        want = _long_double_centred(obs)(alpha)
        assert abs(got - want) <= 64 * EPS * abs(want)
        d = ell.design
        s = d.log_nk2 - (1.0 + 2.0 * alpha) * d.log_i
        k = ell._active(alpha)
        assert np.all(s[k:] < -53.0 * math.log(2.0))
        skipped.append(k < obs.N)

    check()
    assert sum(skipped) >= 10


endpoint_truths = st.one_of(st.just(TruthSpec.zero()), st.just(TruthSpec.paper_example()),
                            st.floats(0.05, 3.0).map(TruthSpec.power_law),
                            st.floats(0.05, 2.0).map(TruthSpec.analytic_decay))


def test_score_sign_agrees_with_fit_endpoint():
    """Where fit lands on an end of [0, log n], the likelihood does not rise
    into the interval: score(log n) >= 0 when alpha_hat is exactly log n, and
    score(0) <= 0 when it is exactly 0.  Draws run at the default truncation
    for n in [3, 1e15]; some must land on each end, so the check is not vacuous."""
    ends = []

    @SETTINGS
    @given(case=cases, truth=endpoint_truths, log10_n=st.floats(math.log10(3.0), 15.0))
    def check(case, truth, log10_n):
        p = 1.0 if case["kind"] == "volterra" else case["p"]
        N = default_truncation(10.0 ** log10_n, p)
        obs = _observation({**case, "log10_n": log10_n, "N": N}, truth=truth)
        top = math.log(obs.n)
        alpha_hat = fit(obs).alpha_hat
        if alpha_hat == top:
            assert score(top, obs) >= 0.0
        elif alpha_hat == 0.0:
            assert score(0.0, obs) <= 0.0
        ends.append(alpha_hat / top)

    check()
    assert ends.count(1.0) >= 5 and ends.count(0.0) >= 5


hyper_kinds = st.sampled_from([HyperPrior.exponential(1.3), HyperPrior.gamma(2.0, 1.5),
                                HyperPrior.inverse_gamma(2.0, 1.0)])
enclosure_truths = st.sampled_from([TruthSpec.paper_example(), TruthSpec.power_law(1.0),
                                    TruthSpec.zero(), TruthSpec.explicit([1.0, -0.5, 0.25, 0.0, 0.1])])


@SETTINGS
@example(truth=TruthSpec.zero(), hyper=HyperPrior.exponential(1.3), log10_n=15.0, N=2000, seed=2,
         fractions=[0.0, 0.3, 0.5, 0.99, 1.0])
@example(truth=TruthSpec.paper_example(), hyper=HyperPrior.exponential(1.3), log10_n=12.301029995663981,
         N=12600, seed=1, fractions=[0.053375861776247195, 0.024880754336570998, 0.06859173193403076,
                                     0.9314472573886895, 0.9792928349250538])
@example(truth=TruthSpec.zero(), hyper=HyperPrior.inverse_gamma(2.0, 1.0), log10_n=1.0, N=100, seed=1,
         fractions=[0.4155712152801787, 0.6175603611674062, 0.8389433062090198, 0.957969417112104])
@given(truth=enclosure_truths, hyper=hyper_kinds, log10_n=st.floats(1.0, 15.0),
       N=st.integers(ENCLOSE_MIN_N, 2000), seed=st.integers(0, 2**32 - 1),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_enclosure_holds_every_column(truth, hyper, log10_n, N, seed, fractions):
    """`Loglik.column` lies inside the sampler's enclosure anywhere in the nodes' hull.

    The alphas are evaluated as one column, alone, and in a column with the
    hull's ends, so their blocks' prefixes and BLAS's grouping of rows
    differ; each value must lie within the half-width of the chord, and
    its log weight within `Proposal.bounds`.  The explicit examples are:
    - a window past alpha_full: zero truth at n = 1e15, N = 2000, where
      every node's block reads a prefix;
    - n = 2e12, N = 12600, where a node block holds 8 rows, so a group of
      16 gaps spans three blocks.  The fractions hit
      knots 16 and 240 (group ends) and the middles of gaps 7 (across a
      block boundary inside a group), 20 and 250 (in the last group);
    - zero truth at n = 10, N = 100 under inverse_gamma(2, 1), whose window
      runs past where `Design.blocks` clamps alpha, so 107 of the 256 nodes
      are knots and the last group, from knot 96, holds 10 gaps.  The
      fractions hit knot 96, knot 104 inside that group and the middles of
      gaps 100 and 105, the last.
    Hypothesis draws N <= 2000, where a block holds 64 rows or more.
    """
    obs = simulate(truth, ModelSpec.volterra(), 10.0 ** log10_n, N, seed)
    ell = Loglik(obs)
    prop = grid_proposal(obs, hyper)
    enc = prop.enclosure
    assert enc.knots.size >= 2
    x0, x1 = float(enc.knots[0]), float(enc.knots[-1])
    alphas = np.clip(x0 + np.array(fractions) * (x1 - x0), x0, x1)
    lo, hi = enclosure_bounds(enc, alphas)
    assert np.all(lo < hi)
    w_lo, w_hi = prop.bounds(alphas)
    for values in (ell.column(alphas), np.array([ell(a) for a in alphas]),
                   ell.column(np.concatenate([[x0], alphas, [x1]]))[1:-1]):
        assert np.all((lo <= values) & (values <= hi))
        w = weights_at(prop, alphas, values)
        assert np.all((w_lo <= w) & (w <= w_hi))


@SETTINGS
@example(truth=TruthSpec.zero(), hyper=HyperPrior.exponential(1.3), log10_n=15.0, N=2000, seed=2,
         fractions=[0.0, 0.3, 0.5, 0.99, 1.0])
@given(truth=enclosure_truths, hyper=hyper_kinds, log10_n=st.floats(1.0, 15.0),
       N=st.integers(ENCLOSE_MIN_N, 2000), seed=st.integers(0, 2**32 - 1),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_window_scan_bounds_every_column_outside_the_hull(truth, hyper, log10_n, N, seed, fractions):
    """`Loglik.column` lies between the window scan's floor and ceiling anywhere outside the nodes' hull.

    For each fraction f the alphas are: f of the way to the first scan point;
    f of the way across a scan interval left of the hull and one right of it,
    both picked by f; f of the way to twice the last scan point past it; and
    past LOG_FLOAT_MAX - S_FLOOR, where `Design.blocks` clamps alpha.  They are
    evaluated as one column, alone, and in a column with the hull's ends.
    """
    obs = simulate(truth, ModelSpec.volterra(), 10.0 ** log10_n, N, seed)
    ell = Loglik(obs)
    prop = grid_proposal(obs, hyper)
    enc = prop.enclosure
    x0, x1 = float(enc.knots[0]), float(enc.knots[-1])
    scan = enc.scan
    left, right = scan[scan < x0], scan[scan > x1]
    alphas = []
    for f in fractions:
        alphas.append(f * scan[0])
        for side in (left, right):
            if side.size >= 2:
                j = min(int(f * (side.size - 1)), side.size - 2)
                alphas.append(side[j] + f * (side[j + 1] - side[j]))
        alphas += [scan[-1] * (1.0 + f), (LOG_FLOAT_MAX - S_FLOOR) * (1.0 + f)]
    alphas = np.array(alphas)
    alphas = alphas[(alphas < x0) | (alphas > x1)]
    floor, ceiling = enclosure_bounds(enc, alphas)
    assert np.all(floor < ceiling) and np.all(np.isfinite(floor)) and np.all(np.isfinite(ceiling))
    w_lo, w_hi = prop.bounds(alphas)
    for values in (ell.column(alphas), np.array([ell(a) for a in alphas]),
                   ell.column(np.concatenate([[x0], alphas, [x1]]))[1:-1]):
        assert np.all((floor <= values) & (values <= ceiling))
        w = weights_at(prop, alphas, values)
        assert np.all((w_lo <= w) & (w <= w_hi))


@SETTINGS
@example(truth=TruthSpec.paper_example(), hyper=HyperPrior.gamma(0.1, 1.0), log10_n=3.0, N=ENCLOSE_MIN_N,
         seed=13, cells=256, fractions=[0.0, 0.5, 1.0])
@example(truth=TruthSpec.paper_example(), hyper=HyperPrior.inverse_gamma(1e-3, 1e-3), log10_n=7.0, N=215,
         seed=6, cells=256, fractions=[0.0, 0.5, 1.0])
@example(truth=TruthSpec.zero(), hyper=HyperPrior.exponential(1.3), log10_n=15.0, N=2000, seed=2,
         cells=256, fractions=[0.0, 0.5, 1.0])
@example(truth=TruthSpec.zero(), hyper=HyperPrior.inverse_gamma(2.0, 1e6), log10_n=3.0, N=50, seed=1,
         cells=256, fractions=[0.0, 0.5, 1.0])
@given(truth=enclosure_truths,
       hyper=st.sampled_from([HyperPrior.exponential(1.3), HyperPrior.gamma(2.0, 1.5), HyperPrior.gamma(0.5, 1.0),
                              HyperPrior.inverse_gamma(2.0, 1.0)]),
       log10_n=st.floats(1.0, 15.0), N=st.integers(ENCLOSE_MIN_N, 2000), seed=st.integers(0, 2**32 - 1),
       cells=st.sampled_from([4, 16, 256]), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32))
def test_bounds_are_the_three_lookup_bounds(truth, hyper, log10_n, N, seed, cells, fractions):
    """`Proposal.bounds`, which looks up each alpha's cell once, gives the bits of
    `oracles.reference_bounds`, which searches the edges, the window scan and the knots.

    The alphas are every edge and node and the floats next to them on both sides,
    the last knot, every scan point, 0, ALPHA_MAX, inf, and fractions of the window
    and of twice the scan's reach.  The explicit examples are a window from 0
    (gamma(0.1, 1) at n = 1e3), the vague inverse gamma's tail, a window past
    alpha_full, and one wholly past the clamp of `Design.blocks`, where there are
    no knots and the scan bounds every alpha.
    """
    obs = simulate(truth, ModelSpec.volterra(), 10.0 ** log10_n, N, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hierarchical_bayes, "GRID_CELLS", cells)
        prop = grid_proposal(obs, hyper)
    enc = prop.enclosure
    if truth.kind == "zero" and hyper.scale == 1e6:
        assert enc.knots.size == 0
    f = np.array(fractions)
    points = np.concatenate([prop.edges, prop.nodes])
    alphas = np.concatenate([points, np.nextafter(points, -math.inf), np.nextafter(points, math.inf),
                             enc.knots[-1:], enc.scan, [0.0, ALPHA_MAX, math.inf],
                             prop.edges[0] + f * (prop.edges[-1] - prop.edges[0]), 2.0 * f * enc.scan[-1]])
    got, want = prop.bounds(alphas), reference_bounds(prop, alphas)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


MISSING = object()
OBS = json.loads(Observation(n=1e3, N=3, y=np.array([0.1, 0.2, 0.3]), seed=0,
                             model=ModelSpec.volterra()).to_json())
bad_values = st.sampled_from([MISSING, None, [1.0], "x", math.nan, math.inf, -math.inf,
                              0, -1, TRUNCATION_CAP + 1])


@st.composite
def observation_files(draw):
    """OBS with one or two fields, top-level or in its model, missing or replaced."""
    d = json.loads(json.dumps(OBS))
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(["n", "N", "seed", "y", "model", "model.kind", "model.p",
                                    "model.C", "model.table"]))
        value = draw(bad_values)
        target = d
        if key.startswith("model."):
            target, key = d["model"], key[len("model."):]
            if not isinstance(target, dict):
                continue
        if value is MISSING:
            target.pop(key, None)
        else:
            target[key] = value
    return d


observation_texts = st.one_of(
    observation_files().map(json.dumps),
    st.sampled_from([[], [OBS], "x", None, 3.0]).map(json.dumps),  # not an object
)

specs = st.builds(
    lambda head, sep, fields: head + "".join(sep + f for f in fields),
    st.sampled_from(["power", "analytic", "explicit", "paper", "zero", "volterra",
                     "exponential", "gamma", "inverse_gamma", "fixed"]),
    st.sampled_from([":", ","]),
    st.lists(st.sampled_from(["1", "0.5", "0", "", "nan", "inf", "-inf"]), max_size=3),
)

spec_commands = st.one_of(
    st.tuples(st.sampled_from(["simulate", "bracket"]), st.sampled_from(["--truth", "--model"]),
              specs, st.sampled_from(["5", "0", "-1", str(TRUNCATION_CAP + 1)])),
    st.tuples(st.just("hb-run"), st.just("--hyper"), specs, st.just(None)),
)


def _exit_code_and_output(argv, out):
    rc = main([*argv, "--out", out])
    assert rc in (0, 2, 3, 4)
    if rc == 2:
        assert not os.path.exists(out)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(text=observation_texts, command=st.sampled_from(["eb-fit", "hb-run"]))
def test_cli_exit_codes_on_malformed_observation_files(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        obs_path = os.path.join(tmp, "obs.json")
        with open(obs_path, "w") as fh:
            fh.write(text)
        iterations = ["--iterations", "20"] if command == "hb-run" else []
        _exit_code_and_output([command, "--obs", obs_path, *iterations], os.path.join(tmp, "out"))


CONFIG = {"model": fields_dict(ModelSpec.volterra()), "truth": fields_dict(TruthSpec.paper_example()),
          "n_ladder": [100.0], "replicates": 1, "seed": 0, "hb_iterations": 50, "hb_burn_in": 10}


@st.composite
def config_files(draw):
    """CONFIG with one or two fields replaced by a malformed value."""
    d = dict(CONFIG)
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(["model", "truth", "n_ladder", "replicates", "seed", "N",
                                    "hyper", "hb_iterations", "hb_burn_in"]))
        d[key] = draw(st.sampled_from([None, [1.0], "x", math.nan, math.inf, -math.inf, 0, -1]))
    return json.dumps(d)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(text=config_files(), command=st.sampled_from(["figure1", "figure2", "rate-sweep"]))
def test_cli_exit_codes_on_malformed_experiment_configs(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            fh.write(text)
        beta = ["--beta", "1"] if command == "rate-sweep" else []
        _exit_code_and_output([command, "--config", cfg_path, *beta], os.path.join(tmp, "out"))


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(case=spec_commands)
def test_cli_exit_codes_on_malformed_specs(case):
    command, flag, spec, N = case
    with tempfile.TemporaryDirectory() as tmp:
        if command == "hb-run":
            obs_path = os.path.join(tmp, "obs.json")
            with open(obs_path, "w") as fh:
                fh.write(json.dumps(OBS))
            source = ["--obs", obs_path, "--iterations", "20"]
        else:
            source = ["--n", "1e4", f"--N={N}"]
        _exit_code_and_output([command, *source, f"{flag}={spec}"], os.path.join(tmp, "out"))


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def model_specs(draw, N=None):
    """A model of any kind.  An explicit table, at least N long, is kappa_i = i^-p * C^u_i
    with u_i in [-1, 1]."""
    kind = draw(st.sampled_from(["exact_power", "volterra", "explicit"]))
    p = 1.0 if kind == "volterra" else draw(st.floats(0.0, 3.0))
    C = draw(st.floats(1.0, 10.0))
    if kind != "explicit":
        return ModelSpec(kind=kind, p=p, C=C)
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=N or 1, max_size=(N or 1) + 5)))
    return ModelSpec.explicit(np.arange(1, u.size + 1) ** -p * C**u, p=p, C=C)


@st.composite
def truth_specs(draw):
    kind = draw(st.sampled_from(["explicit", "power_law", "paper_example", "analytic_decay", "zero"]))
    return TruthSpec(kind=kind,
                     beta=draw(positive if kind == "power_law" else st.none() | finite),
                     gamma=draw(positive if kind == "analytic_decay" else st.none() | finite),
                     c=draw(finite),
                     coeffs=draw(st.lists(finite).map(tuple) if kind == "explicit"
                                 else st.none() | st.lists(finite).map(tuple)))


hyper_priors = st.builds(HyperPrior, kind=st.sampled_from(["exponential", "gamma", "inverse_gamma"]),
                         shape=positive, rate=positive, scale=positive)


@st.composite
def experiment_configs(draw):
    """A config with nested specs; an explicit model's table covers its given N."""
    N = draw(st.integers(1, 30))
    model = draw(model_specs(N))
    iterations = draw(st.integers(1, 10_000))
    return ExperimentConfig(
        model=model, truth=draw(truth_specs()),
        n_ladder=tuple(sorted(draw(st.sets(st.floats(1.0, 1e20, exclude_min=True), min_size=1,
                                           max_size=5)))),
        replicates=draw(st.integers(1, 100)), seed=draw(st.integers(0, 2**63)),
        N=N if model.table is not None else draw(st.none() | st.just(N)),
        output_dir=draw(st.text()), hyper=draw(hyper_priors), hb_iterations=iterations,
        hb_burn_in=draw(st.none() | st.integers(0, iterations - 1)))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(spec=st.one_of(model_specs(), truth_specs(), hyper_priors, experiment_configs()))
def test_specs_read_back_what_they_write(spec):
    if isinstance(spec, ExperimentConfig):
        write, read = ExperimentConfig.to_dict, ExperimentConfig.from_dict
    else:
        write, read = fields_dict, partial(read_fields, type(spec))
    d = write(spec)
    back = read(json.loads(json.dumps(d)))
    assert back == spec
    assert write(back) == d


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(data=st.data(), N=st.integers(1, 30))
def test_observation_reads_back_what_it_writes(data, N):
    y = np.array(data.draw(st.lists(finite, min_size=N, max_size=N)))
    obs = Observation(n=data.draw(positive), N=N, y=y, seed=data.draw(st.integers(0, 2**63)),
                      model=data.draw(model_specs(N)))
    text = obs.to_json()
    back = Observation.from_json(text)
    assert (back.n, back.N, back.seed, back.model) == (obs.n, obs.N, obs.seed, obs.model)
    np.testing.assert_array_equal(back.y, obs.y)
    assert back.to_json() == text


def _reference_csv(path, columns):
    """The writer's contract as the csv module writes it: one row per index, each value repr(float(v))."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in zip(*columns.values(), strict=True):
            w.writerow([repr(float(v)) for v in row])


csv_floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.225073858507201e-308,
                     1e16, 1e16 + 2.0, 9007199254740993.0, 1e-5, 1.0000000000000002e-5, 0.1]),
    st.floats(), st.floats(1e15, 1e17), st.floats(-1e-4, -1e-6), st.floats(-1e-307, 1e-307))


def csv_columns(rows):
    """A column of the given length: float64, float32 or int64 arrays, or lists of Python floats or ints."""
    def of(elements):
        return st.lists(elements, min_size=rows, max_size=rows)
    return st.one_of(of(csv_floats).map(np.array), of(csv_floats),
                     of(st.floats(width=32)).map(lambda v: np.array(v, dtype=np.float32)),
                     of(st.integers(-2**63, 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
                     of(st.integers(-2**70, 2**70)))


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(columns=st.integers(0, 20).flatmap(
    lambda rows: st.lists(csv_columns(rows), min_size=1, max_size=4)),
    names=st.lists(st.sampled_from(["alpha", "a,b", 'q"uote', " x"]), min_size=4, max_size=4))
@example(columns=[np.array([]), []], names=["alpha", "a,b", "alpha", "alpha"])  # a header alone
def test_write_csv_matches_reference_encoding(columns, names):
    columns = {f"{name}{k}": col for k, (name, col) in enumerate(zip(names, columns))}
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write_csv(got, columns)
        _reference_csv(want, columns)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("columns", [
    {"a": [1.0, 2.0], "b": [1.0]},
    {"a": [], "b": [0.5]},
    {"a": np.zeros((2, 2))},
    {"a": [1.0, 2.0], "b": np.zeros((2, 1))},
    {"a": 1.0},
], ids=["shorter", "empty-beside-one", "2-D", "column-vector", "0-D"])
def test_write_csv_rejects_misshapen_columns_before_opening(tmp_path, columns):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        write_csv(path, columns)
    assert not path.exists()
