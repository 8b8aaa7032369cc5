"""The memoized data-free arrays of sequence_model: read-only, bit-identical to a
fresh build, bounded in number, and transparent to every error and output."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from invseq import ExperimentConfig, ModelSpec, TruthSpec, simulate
from invseq.errors import ConfigError, NumericalError
from invseq.experiments import run_figure1, run_rate_sweep
from invseq.sequence_model import _coefficients, _ones, _signal, design, fields_dict

VOLTERRA = ModelSpec.volterra()
MODELS = [VOLTERRA, ModelSpec.exact_power(1.5),
          ModelSpec.explicit([(1.0 + 0.5 * math.sin(i)) / i for i in range(1, 301)], p=1.0, C=2.0)]
TRUTHS = [TruthSpec.paper_example(), TruthSpec.power_law(1.0, c=2.0), TruthSpec.analytic_decay(0.3),
          TruthSpec.explicit([1.0, -0.5, 0.25]), TruthSpec.zero()]
CACHES = (design, _ones, _coefficients, _signal)


def _clear():
    for cache in CACHES:
        cache.cache_clear()


def _bits(a: np.ndarray) -> bytes:
    return a.dtype.str.encode() + a.tobytes()


def test_memoized_arrays_are_read_only():
    d = design(VOLTERRA, 1e6, 50)
    cached = [d.kappa, d.log_i, d.log_nk2, _ones(50),
              _coefficients(TruthSpec.paper_example(), 50),
              _signal(TruthSpec.paper_example(), VOLTERRA, 50)]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
    obs = simulate(TruthSpec.paper_example(), VOLTERRA, 1e6, 50, 4)
    assert obs.y.flags.writeable
    assert not any(np.shares_memory(obs.y, a) for a in cached)
    obs.y[0] = 0.0  # the observation's own array
    # the public builders still hand out fresh, writeable arrays
    for a in (VOLTERRA.kappa_vector(50), TruthSpec.paper_example().coefficients(50)):
        a[0] = 0.0


@pytest.mark.parametrize("model", MODELS)
def test_design_cache_keeps_bits(model):
    _clear()
    for n in (10.0, 1e6, 1e15):
        for N in (1, 7, 300):
            want = design.__wrapped__(model, n, N)
            for got in (design(model, n, N), design(model, n, N)):  # a miss, then a hit
                for name in ("kappa", "log_i", "log_nk2"):
                    assert _bits(getattr(got, name)) == _bits(getattr(want, name))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("truth", TRUTHS)
def test_simulate_is_signal_plus_noise_by_hand(model, truth):
    """y = kappa * mu0 + z / sqrt(n), bit for bit, cold and warm."""
    n, N = 1e5, 300
    _clear()
    for seed in (3, 3, 4):
        z = np.random.default_rng(seed).standard_normal(N)
        want = model.kappa_vector(N) * truth.coefficients(N) + z / math.sqrt(n)
        assert _bits(simulate(truth, model, n, N, seed).y) == _bits(want)


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_drivers_write_the_same_bytes_cold_and_warm(tmp_path):
    """run_figure1 and run_rate_sweep on eb_ladder's ladder (N = 10, 1e4, 1e5).

    Both runs write into the same directory, which the manifests record.
    """
    cfg = ExperimentConfig(model=VOLTERRA, truth=TruthSpec.paper_example(),
                           n_ladder=(1e3, 1e12, 1e15), replicates=3, seed=1,
                           output_dir=str(tmp_path / "run"))
    trees = []
    for cold in (True, False):
        if cold:
            _clear()
        run_figure1(cfg)
        run_rate_sweep(cfg, beta=1.0)
        trees.append(_tree(tmp_path / "run"))
        (tmp_path / "run").rename(tmp_path / f"run{len(trees)}")
    assert len(trees[0]) == 9  # 3 rungs x 2 curve CSVs, 2 manifests, rate_sweep.csv
    assert trees[0] == trees[1]


def test_errors_raise_on_every_call():
    """lru_cache does not cache exceptions, so each call raises again."""
    huge = ModelSpec.explicit([8.0, 1.0], p=0.0, C=8.0)  # n * kappa_1^2 = 6.4e309
    short = ModelSpec.explicit([1.0, 0.4, 0.35], p=0.5, C=2.0)
    truth = TruthSpec.paper_example()
    for _ in range(3):
        with pytest.raises(NumericalError, match="overflows"):
            design(huge, 1e307, 2)
        with pytest.raises(ConfigError, match="3 entries"):
            design(short, 1e3, 10)
        with pytest.raises(ConfigError, match="3 entries"):
            simulate(truth, short, 1e3, 10, 0)


def test_caches_stay_within_their_bound(tmp_path):
    cfg = ExperimentConfig(model=VOLTERRA, truth=TruthSpec.paper_example(),
                           n_ladder=(1e2, 1e3, 1e4, 1e5, 1e6, 1e7), replicates=2,
                           output_dir=str(tmp_path))
    run_figure1(cfg)
    for cache in CACHES:
        info = cache.cache_info()
        assert info.maxsize == 4 and info.currsize <= 4


def test_spec_built_from_a_list_is_a_cache_key():
    """A table given to the constructor as a list or an array is kept as a tuple of
    floats, so the spec hashes, keys the caches and equals the classmethod's spec."""
    table = [(1.0 + 0.5 * math.sin(i)) / i for i in range(1, 301)]
    want_model, want_truth = ModelSpec.explicit(table, p=1.0, C=2.0), TruthSpec.explicit([1, -0.5, 0])
    for seq in (list, np.array):
        model = ModelSpec(kind="explicit", p=1.0, C=2.0, table=seq(table))
        truth = TruthSpec(kind="explicit", coeffs=seq([1, -0.5, 0]))
        assert model == want_model and hash(model) == hash(want_model)
        assert truth == want_truth and hash(truth) == hash(want_truth)
        assert fields_dict(model) == fields_dict(want_model)
        assert fields_dict(truth) == fields_dict(want_truth)
        _clear()
        got = simulate(truth, model, 1e5, 300, 3).y
        _clear()
        assert _bits(got) == _bits(simulate(want_truth, want_model, 1e5, 300, 3).y)
    with pytest.raises(ConfigError, match="kappa table must be a sequence of numbers"):
        ModelSpec(kind="explicit", p=1.0, C=2.0, table=[1.0, None])
    with pytest.raises(ConfigError, match="truth coeffs must be a sequence of numbers"):
        TruthSpec(kind="explicit", coeffs=1.0)
