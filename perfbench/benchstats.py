"""Statistics the benchmark computes from its own measurements.

Nothing here imports invseq: these are the estimators that turn latencies,
chains and spans into the reported metrics, and the tests next to this file
check them against cases with known answers.
"""

from __future__ import annotations

import math

import numpy as np


def tail_percentile(ops_in_smallest_run: int) -> int:
    """Highest whole percentile with at least ten ops beyond it.

    The percentile is fixed from the op count a workload guarantees (its
    minimum number of passes times the ops in a pass), so that it does not
    move when a faster program fits more passes into the same run.
    """
    if ops_in_smallest_run < 20:
        raise ValueError("need at least 20 ops for a tail above the median")
    return int(math.floor(100.0 * (1.0 - 10.0 / ops_in_smallest_run)))


def autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance at every lag, by FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    d = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(d, size)
    return np.fft.irfft(f * np.conj(f), size)[:n] / n


def integrated_autocorrelation_time(x: np.ndarray) -> float:
    """Geyer's (1992) initial monotone positive sequence estimate of the IAT.

    Sums of adjacent autocovariance pairs are taken while they stay
    positive, each capped at its predecessor.  A chain that never moves
    carries one effective draw, so its IAT is its length.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError("need at least four draws")
    gamma = autocovariance(x)
    if gamma[0] <= 0.0:
        return float(n)
    pairs = gamma[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    total = 0.0
    prev = math.inf
    for g in pairs:
        if g <= 0.0:
            break
        prev = min(prev, g)
        total += prev
    tau = (2.0 * total - gamma[0]) / gamma[0]
    return float(min(max(tau, 1.0 / n), n))


def effective_sample_size(x: np.ndarray) -> float:
    return float(np.asarray(x).size / integrated_autocorrelation_time(x))


def pit_total_variation(pits: np.ndarray, bins: int) -> float:
    """TV distance between probability-integral transforms and uniform.

    Each draw is mapped through the exact CDF of its own chain's target;
    on `bins` equal-mass cells of that target this is the TV distance
    between the pooled draws and the pooled exact marginals.
    """
    counts = np.histogram(np.clip(pits, 0.0, 1.0), bins=bins, range=(0.0, 1.0))[0]
    return float(0.5 * np.abs(counts / counts.sum() - 1.0 / bins).sum())


def self_times(spans) -> dict:
    """Self time per layer: span duration minus the time its children cover.

    `spans` holds dicts with keys id, parent, layer, start and end.
    Children of one span never overlap (calls are nested, single thread),
    so the covered time is the sum of the children's durations.
    """
    child_time: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (s["end"] - s["start"])
    out: dict = {}
    for s in spans:
        own = (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
        out[s["layer"]] = out.get(s["layer"], 0.0) + own
    return out
