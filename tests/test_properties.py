"""Property tests over the model domain: n in [1, 1e20], p in [0, 3] and N up
to the 1e5 cap, on all three model kinds.

The posterior means and variances stay finite, the variances do not grow
with alpha, and the marginal log likelihood stays finite on the search
interval [0, log n].  The examples are derandomized, so every run draws the
same ones.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invseq import ModelSpec, TruthSpec, posterior, simulate
from invseq.empirical_bayes import Loglik
from invseq.sequence_model import TRUNCATION_CAP

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


def _observation(case):
    """The paper's truth observed through the drawn model; an explicit table is
    kappa_i = i^-p times a factor drawn log-uniformly from [1/C, C]."""
    N, p, C = case["N"], case["p"], case["C"]
    if case["kind"] == "exact_power":
        model = ModelSpec.exact_power(p)
    elif case["kind"] == "volterra":
        model = ModelSpec.volterra()
    else:
        factor = C ** np.random.default_rng(case["seed"]).uniform(-1.0, 1.0, N)
        model = ModelSpec.explicit(np.arange(1, N + 1) ** -p * factor, p=p, C=C)
    return simulate(TruthSpec.paper_example(), model, 10.0 ** case["log10_n"], N, case["seed"])


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
