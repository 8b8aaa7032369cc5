"""Checks of the benchmark's own estimators on cases with known answers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import types

import numpy as np
import pytest
from scipy.signal import lfilter

from benchstats import (effective_sample_size, integrated_autocorrelation_time,
                        pit_total_variation, self_times, tail_percentile)
from tracing import Recorder


def ar1(rho: float, n: int, seed: int) -> np.ndarray:
    e = np.random.default_rng(seed).standard_normal(n + 2000)
    return lfilter([1.0], [1.0, -rho], e)[2000:]  # drop the start-up transient


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_iat_matches_ar1(rho):
    # an AR(1) chain has integrated autocorrelation time (1 + rho) / (1 - rho)
    exact = (1.0 + rho) / (1.0 - rho)
    x = ar1(rho, 200_000, seed=11)
    assert integrated_autocorrelation_time(x) == pytest.approx(exact, rel=0.08)
    assert effective_sample_size(x) == pytest.approx(x.size / exact, rel=0.08)


def test_chain_that_never_moves_has_one_effective_draw():
    assert effective_sample_size(np.full(3000, 0.7)) == pytest.approx(1.0)


def test_self_times_on_hand_built_tree():
    def span(i, parent, layer, start, end):
        return {"id": i, "parent": parent, "layer": layer, "start": start, "end": end}

    spans = [
        span(0, None, "experiments", 0.0, 10.0),
        span(1, 0, "empirical_bayes", 1.0, 4.0),
        span(2, 1, "gaussian_posterior", 2.0, 3.0),
        span(3, 0, "sequence_model", 5.0, 7.0),
        span(4, None, "theory", 11.0, 12.5),
        span(5, None, "gaussian_posterior", 20.0, 24.0),  # same-layer child below
        span(6, 5, "gaussian_posterior", 21.0, 23.0),
    ]
    assert self_times(spans) == pytest.approx({
        "experiments": 10.0 - 3.0 - 2.0,
        "empirical_bayes": 3.0 - 1.0,
        "gaussian_posterior": 1.0 + 2.0 + 2.0,
        "sequence_model": 2.0,
        "theory": 1.5,
    })


def test_recorder_links_nested_calls_and_restores_names():
    host = types.SimpleNamespace(__name__="pkg.host")
    host.inner = lambda: "done"
    host.outer = lambda: host.inner()
    originals = (host.inner, host.outer)
    rec = Recorder()
    rec.wrap(host, "inner", "low")
    rec.wrap(host, "outer", "high")
    assert host.outer() == "done"
    assert rec.spans == []  # spans only while recording
    rec.recording = True
    assert host.outer() == "done"
    outer, inner = sorted(rec.spans, key=lambda s: s["start"])
    assert (outer["name"], outer["parent"]) == ("host.outer", None)
    assert (inner["name"], inner["parent"]) == ("host.inner", outer["id"])
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    rec.uninstall()
    assert (host.inner, host.outer) == originals


def test_tail_percentile_keeps_ten_ops_beyond_it():
    assert tail_percentile(20) == 50
    assert tail_percentile(42) == 76
    assert tail_percentile(1000) == 99
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_pit_total_variation_extremes():
    assert pit_total_variation(np.linspace(0.0, 1.0, 20_000, endpoint=False) + 2.5e-5, 20) < 1e-9
    assert pit_total_variation(np.full(100, 0.01), 20) == pytest.approx(19 / 20)
