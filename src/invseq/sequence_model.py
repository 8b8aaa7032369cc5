"""Mildly ill-posed Gaussian sequence model.

Data are coordinatewise observations

    y_i = kappa_i * mu_i + n^(-1/2) * z_i,   z_i iid standard normal,

where the multipliers kappa_i decay polynomially, kappa_i ~ i^(-p).
This module owns the model/truth descriptions, simulation and synthesis
back to functions on [0, 1] in the shifted cosine basis
e_i(t) = sqrt(2) * cos((i - 1/2) * pi * t).  Synthesis on the uniform grid
np.linspace(0, 1, T), the figures' curve grid, is one real FFT of the
coefficients folded over one period of the basis on that grid; any other
grid is summed by angle addition.

It also owns the per-coordinate algebra every inference layer shares.
All alpha-dependent quantities are functions of the log-odds of the data
weight,

    s_i(alpha) = log(n * kappa_i^2) - (1 + 2*alpha) * log i,
    w_i = n*kappa_i^2 / (i^(1+2*alpha) + n*kappa_i^2) = 1 / (1 + exp(-s_i)),

so powers are taken in log space (i^(1+2a) is exactly 1 at i = 1) and a
large alpha never overflows.  Every layer works on an alpha column, an
array of alphas, and `Design.blocks` is the one place s is exponentiated:
it fills the column `block_rows(N)` alphas at a time with u = exp(s) and
1 + u, from which, with r = 1/(1 + u), every layer reads w = u*r,
1 - w = r and w*(1 - w) = u*r*r.  A single alpha is a column of one.

The arrays free of the data are built once and memoized, at most 4 of
each, by functools.lru_cache: `design` on (model, n, N), the truth vector
`_coefficients` on (truth, N), the signal `_signal` = kappa * mu_0 on
(truth, model, N) and the gemv's vector of ones `_ones` on N.  At
N = 1e5 a design holds 2.4 MB and each of the others 0.8 MB, so the
caches stay below about 20 MB.  Every memoized array is read-only, so a
caller that writes to one fails loudly; `simulate` adds the noise into a
fresh array, and `TruthSpec.coefficients` and `ModelSpec.kappa_vector`
still return new arrays.  A spec is a cache key, so a spec keeps an
explicit table as a tuple of floats, whatever sequence it was given.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

TRUNCATION_CAP = 100_000
LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp overflows past this
# Below about s = -707, numpy's vector exp hands each element to a scalar path
# 15-200 times slower, while 1 + e^s rounds to exactly 1 once e^s <= 2^-53, that
# is from s = -53 log 2 = -36.737 down.
S_FLOOR = -700.0
# A log-odds below this is past that threshold with room for the rounding of s,
# so its coordinate's 1 + u is exactly 1 (empirical_bayes skips such coordinates).
S_NEGLIGIBLE = -37.0
BLOCK = 2**17  # floats per row block of an alpha column (see block_rows)
# Floats a group of observations that share one likelihood scan may hold in their n*y^2
# vectors and scan rows (see empirical_bayes.scans), so a rung's memory does not grow
# with its replicates.
SCAN_GROUP = 2**20


def _float_tuple(name: str, values) -> tuple[float, ...]:
    """values as a tuple of floats: the hashable form a spec keeps its table in."""
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a sequence of numbers") from None


@dataclass(frozen=True)
class ModelSpec:
    """Decay law of the multipliers kappa_i.

    kind is one of "exact_power" (kappa_i = i^-p), "volterra"
    (kappa_i = 1/((i - 1/2)*pi), decay order p = 1) or "explicit"
    (tabulated kappa values with a declared order p and sandwich
    constant C, i.e. i^-p / C <= kappa_i <= C * i^-p).
    """

    kind: str
    p: float
    C: float = 1.0
    table: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.table is not None:
            object.__setattr__(self, "table", _float_tuple("kappa table", self.table))
        if self.kind not in ("exact_power", "volterra", "explicit"):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if not 0.0 <= self.p < math.inf:
            raise ConfigError(f"decay order p must be finite and >= 0, got {self.p}")
        if not 1.0 <= self.C < math.inf:
            raise ConfigError(f"sandwich constant C must be finite and >= 1, got {self.C}")
        if self.kind == "volterra" and self.p != 1.0:
            raise ConfigError(f"volterra multipliers decay at order p = 1, got p = {self.p}")
        if self.kind == "explicit":
            if not self.table:
                raise ConfigError("explicit model needs a non-empty kappa table")
            t = np.asarray(self.table, dtype=float)
            if not np.all(np.isfinite(t)) or np.any(t <= 0):
                raise ConfigError("tabulated kappa values must be positive and finite")
            i = np.arange(1, t.size + 1, dtype=float)
            ratio = t * i**self.p
            if ratio.max() > self.C * (1 + 1e-12) or ratio.min() < (1 - 1e-12) / self.C:
                raise ConfigError("kappa table violates the declared i^-p sandwich")
        elif self.table is not None:
            raise ConfigError("kappa table only makes sense for the explicit kind")

    @classmethod
    def exact_power(cls, p: float) -> "ModelSpec":
        return cls(kind="exact_power", p=float(p))

    @classmethod
    def volterra(cls) -> "ModelSpec":
        # C = pi covers both ends: i^-1/pi <= 1/((i-1/2)*pi) <= (2/pi)*i^-1.
        return cls(kind="volterra", p=1.0, C=math.pi)

    @classmethod
    def explicit(cls, table, p: float, C: float) -> "ModelSpec":
        return cls(kind="explicit", p=float(p), C=float(C), table=table)

    def kappa_vector(self, N: int) -> np.ndarray:
        """kappa_1..kappa_N as a float array."""
        if N < 1:
            raise ConfigError("need at least one coordinate")
        i = np.arange(1, N + 1, dtype=float)
        if self.kind == "exact_power":
            return i**-self.p
        if self.kind == "volterra":
            return 1.0 / ((i - 0.5) * math.pi)
        if N > len(self.table):
            raise ConfigError(f"kappa table has {len(self.table)} entries, coordinate {N} requested")
        return np.asarray(self.table[:N], dtype=float)


@dataclass(frozen=True)
class Design:
    """The alpha-free per-coordinate terms of the first N coordinates at noise level n."""

    kappa: np.ndarray
    log_i: np.ndarray
    log_nk2: np.ndarray  # log(n * kappa_i^2)

    def blocks(self, alphas: np.ndarray, width=None, tail=False):
        """Fill an alpha column block by block: yield (start, u, u1) for each.

        alphas is a 1-D array.  Each block takes the next block_rows(N)
        alphas or fewer, m of them from alphas[start], and the first
        k = width(smallest alpha of the block) coordinates, or all N without
        width; with tail, the N - k coordinates past those instead, so that
        a column filled both ways covers each block's N coordinates once
        (width must then not rise with alpha).  u and u1 are the two
        contiguous halves, m rows each, of one buffer held for the whole
        column: u = exp(max(s(alpha), S_FLOOR)), one row
        per alpha, and u1 = 1 + u.  A caller may overwrite both before it
        takes the next block.  This is the one place s is exponentiated.
        The clamp leaves 1 + u exactly as it was and puts u*r (r = 1/u1) at
        e^-700 = 1e-304 wherever w was smaller.  design() has checked that
        no alpha >= 0 overflows exp.  That check also puts every s_i with
        i >= 2 below S_FLOOR once alpha passes LOG_FLOAT_MAX - S_FLOOR, so
        the alphas are clamped there, which changes no bit of a block and
        keeps 1 + 2*alpha from overflowing (at i = 1, 0 * inf is nan).  An
        empty column yields nothing.
        """
        N = self.log_i.size
        rows = min(block_rows(N), max(alphas.size, 1))
        span = N  # the widest block
        if tail:
            span = N - width(float(alphas.max())) if alphas.size else 0
        buf = np.empty(2 * rows * span)
        for start in range(0, alphas.size, rows):
            a = np.minimum(alphas[start:start + rows, None], LOG_FLOAT_MAX - S_FLOOR)
            k = N if width is None else width(float(a.min()))
            lo, hi = (k, N) if tail else (0, k)
            u, u1 = buf[:2 * a.size * (hi - lo)].reshape(2, a.size, hi - lo)
            np.multiply(self.log_i[lo:hi], 1.0 + 2.0 * a, u)
            np.subtract(self.log_nk2[lo:hi], u, u)
            np.maximum(u, S_FLOOR, out=u)
            np.exp(u, u)
            np.add(u, 1.0, u1)
            yield start, u, u1


def block_rows(N: int) -> int:
    """Alphas per block of an alpha column over N coordinates.

    The largest power of two in [4, 512] with rows * N <= BLOCK, so a
    `Design.blocks` pair of u and 1 + u stays cache-sized.  BLAS gemv sums
    four rows at a time, so every block cut from a column of 4k alphas,
    as the bracket scan's columns are, holds 4k rows, and each alpha's
    row sums to the same bits as in one column over the whole grid.
    """
    return min(512, 1 << (max(4, BLOCK // N).bit_length() - 1))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=4)
def design(model: ModelSpec, n: float, N: int) -> Design:
    """Design of the first N coordinates of the model at noise level n (memoized, read-only)."""
    kap = model.kappa_vector(N)
    log_i = np.log(np.arange(1, N + 1, dtype=float))
    log_nk2 = math.log(n) + 2.0 * np.log(kap)
    # s(alpha) is largest at alpha = 0 (log i >= 0), so no alpha >= 0 can overflow exp
    top = float(np.max(log_nk2 - log_i))
    if top > LOG_FLOAT_MAX:
        raise NumericalError(f"exp(s_i) overflows the float range: s_i(0) reaches {top:.6g}")
    return Design(kappa=_read_only(kap), log_i=_read_only(log_i), log_nk2=_read_only(log_nk2))


@functools.lru_cache(maxsize=4)
def _ones(N: int) -> np.ndarray:
    """N ones (memoized, read-only)."""
    return _read_only(np.ones(N))


@dataclass(frozen=True)
class TruthSpec:
    """Generator for the true coefficient sequence mu_0.

    Kinds: "explicit" (a finite table, zero-padded), "power_law"
    (mu_i = c * i^(-1/2 - beta), Sobolev-regular of order beta),
    "paper_example" (mu_i = i^(-3/2) * sin(i), effective order 1),
    "analytic_decay" (mu_i = c * exp(-gamma * i)) and "zero".
    """

    kind: str
    beta: float | None = None
    gamma: float | None = None
    c: float = 1.0
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs", _float_tuple("truth coeffs", self.coeffs))
        if self.kind not in ("explicit", "power_law", "paper_example", "analytic_decay", "zero"):
            raise ConfigError(f"unknown truth kind {self.kind!r}")
        for name in ("beta", "gamma", "c", "coeffs"):
            if getattr(self, name) is not None and not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"truth {name} must be finite")
        if self.kind == "power_law" and (self.beta is None or self.beta <= 0):
            raise ConfigError("power_law truth needs beta > 0")
        if self.kind == "analytic_decay" and (self.gamma is None or self.gamma <= 0):
            raise ConfigError("analytic_decay truth needs gamma > 0")
        if self.kind == "explicit" and self.coeffs is None:
            raise ConfigError("explicit truth needs a coefficient table")

    @classmethod
    def explicit(cls, coeffs) -> "TruthSpec":
        return cls(kind="explicit", coeffs=coeffs)

    @classmethod
    def power_law(cls, beta: float, c: float = 1.0) -> "TruthSpec":
        return cls(kind="power_law", beta=float(beta), c=float(c))

    @classmethod
    def paper_example(cls) -> "TruthSpec":
        return cls(kind="paper_example")

    @classmethod
    def analytic_decay(cls, gamma: float, c: float = 1.0) -> "TruthSpec":
        return cls(kind="analytic_decay", gamma=float(gamma), c=float(c))

    @classmethod
    def zero(cls) -> "TruthSpec":
        return cls(kind="zero")

    def coefficients(self, N: int) -> np.ndarray:
        """mu_0,1..mu_0,N.  Explicit tables are zero-padded past their end."""
        if N < 1:
            raise ConfigError("need at least one coordinate")
        i = np.arange(1, N + 1, dtype=float)
        if self.kind == "zero":
            return np.zeros(N)
        if self.kind == "explicit":
            out = np.zeros(N)
            k = min(N, len(self.coeffs))
            out[:k] = self.coeffs[:k]
            return out
        if self.kind == "power_law":
            return self.c * i ** (-0.5 - self.beta)
        if self.kind == "analytic_decay":
            return self.c * np.exp(-self.gamma * i)
        return i**-1.5 * np.sin(i)


@dataclass(frozen=True)
class Observation:
    """A simulated (or loaded) dataset: first N noisy coordinates at noise level n."""

    n: float
    N: int
    y: np.ndarray
    seed: int
    model: ModelSpec

    def to_json(self) -> str:
        return json.dumps(fields_dict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Observation":
        """The observation a JSON object of to_json's layout holds.

        A missing field, one of the wrong type or one out of range is a
        ConfigError that begins "bad observation file".
        """
        try:
            obs = read_fields(cls, json.loads(text))
            N = truncation(obs.n, obs.model, obs.N)
            if obs.y.shape != (N,):
                raise ConfigError("y must be a list of N values")
            if not np.all(np.isfinite(obs.y)):
                raise ConfigError("y must be finite")
            _checked_noise_scale(obs.n)
            return obs
        except ConfigError as err:
            raise ConfigError(f"bad observation file: {err}") from err


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


_READERS = {  # annotated type: (test of the JSON value, what the value must be, conversion)
    float: (_is_number, "a number", float),
    int: (lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()), "an integer", int),
    str: (lambda v: isinstance(v, str), "a string", str),
    tuple[float, ...]: (_is_numbers, "a list of numbers", lambda v: tuple(map(float, v))),
    np.ndarray: (_is_numbers, "a list of numbers", lambda v: np.array(v, dtype=float)),
}


def read_fields(cls, d):
    """The dataclass cls built from the keys of the JSON object d that name its fields.

    Each value is read as its field's annotated type: a float takes a JSON
    number but not a bool or a string; an int takes an integer, or a float
    with an integer value such as 4e3; a tuple of floats or an array takes a
    list of numbers; a nested spec takes an object, read the same way.  Only
    a field whose type allows None takes null.  Other keys are ignored and
    missing ones left to the dataclass defaults.  A wrong value, or a missing
    field that has no default, is a ConfigError that names the field.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {d!r:.80}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in dataclasses.fields(cls):
        if f.name in d:
            values[f.name] = _read_value(hints[f.name], d[f.name], f.name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{cls.__name__} needs a {f.name} field")
    return cls(**values)


def _read_value(tp, v, name: str):
    """The JSON value v of the field name, read as its annotated type tp."""
    options = typing.get_args(tp)
    if type(None) in options:  # X | None
        if v is None:
            return None
        tp = options[0]
    test, what, convert = _READERS.get(
        tp, (lambda v: isinstance(v, dict), "a JSON object", lambda v: read_fields(tp, v)))
    if not test(v):
        raise ConfigError(f"{name} must be {what}, got {v!r:.80}")
    try:
        return convert(v)
    except OverflowError as err:
        raise ConfigError(f"{name} must fit in a float: {err}") from err


def fields_dict(obj) -> dict:
    """The fields of the dataclass obj that are not None, as JSON values.

    Tuples and arrays become lists of floats and nested specs are written
    the same way, so read_fields reads the result back.
    """
    return {f.name: _json_value(v) for f in dataclasses.fields(obj)
            if (v := getattr(obj, f.name)) is not None}


def _json_value(v):
    if dataclasses.is_dataclass(v):
        return fields_dict(v)
    if isinstance(v, (tuple, np.ndarray)):
        return [float(x) for x in v]
    return v


def _checked_noise_scale(n: float) -> None:
    if n <= 0 or not math.isfinite(n):
        raise ConfigError("noise scale n must be positive and finite")


def _checked_alpha(alpha: float) -> None:
    if not 0 <= alpha < math.inf:
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")


def truncation(n: float, model: ModelSpec, N: int | None) -> int:
    """Coordinates retained at noise level n: N if given, else default_truncation(n, model.p).

    A given N outside [1, TRUNCATION_CAP], or an explicit model whose kappa
    table is shorter than the result, is a ConfigError; callers check before
    anything N long is allocated.
    """
    if N is None:
        N = default_truncation(n, model.p)
    elif not 1 <= N <= TRUNCATION_CAP:
        raise ConfigError(f"N must be in [1, {TRUNCATION_CAP}], got {N}")
    if model.table is not None and len(model.table) < N:
        raise ConfigError(f"kappa table must be at least N = {N} entries long, "
                          f"has {len(model.table)}")
    return N


def default_truncation(n: float, p: float) -> int:
    """Default number of retained coordinates, ceil(n^(1/(1+2p))) capped at 1e5.

    Past that index the signal-to-noise ratio of a coordinate is too small
    to matter for either estimation or likelihood evaluation.
    """
    _checked_noise_scale(n)
    return min(math.ceil(n ** (1.0 / (1.0 + 2.0 * p))), TRUNCATION_CAP)


def simulate(truth: TruthSpec, model: ModelSpec, n: float, N: int, seed: int) -> Observation:
    """Draw y_i = kappa_i*mu_i + n^(-1/2)*z_i for i = 1..N.

    The same (truth, model, n, N, seed) always produces bit-identical
    output; replicate seeds are conventionally seed + replicate index.
    """
    _checked_noise_scale(n)
    if N < 1:
        raise ConfigError("need at least one coordinate")
    signal = _signal(truth, model, N)
    z = np.random.default_rng(seed).standard_normal(N)
    y = signal + z / math.sqrt(n)
    return Observation(n=float(n), N=int(N), y=y, seed=int(seed), model=model)


@functools.lru_cache(maxsize=4)
def _coefficients(truth: TruthSpec, N: int) -> np.ndarray:
    """truth.coefficients(N) (memoized, read-only)."""
    return _read_only(truth.coefficients(N))


@functools.lru_cache(maxsize=4)
def _signal(truth: TruthSpec, model: ModelSpec, N: int) -> np.ndarray:
    """kappa_i * mu_0,i for i = 1..N (memoized, read-only)."""
    return _read_only(model.kappa_vector(N) * _coefficients(truth, N))


def synthesize_function(mu: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Evaluate sum_i mu_i * sqrt(2)*cos((i-1/2)*pi*t) on t_grid (flattened).

    Two paths, taken by the grid alone.  A grid equal to
    np.linspace(0, 1, T) with T >= 2, such as the figures' curve grid, is
    summed by one real FFT: with t_j = j/M and M = T - 1,
    cos((i - 1/2)*pi*j/M) has period 2M in i, so mu is folded into 2M bins
    by (i - 1) mod 2M, and with F the rfft of the bins,

        f(t_j) = sqrt(2) * (cos(pi*j/(2M)) * Re F_j + sin(pi*j/(2M)) * Im F_j),

    at a cost of O(N + M log M).  Any other grid, uniform or not, is summed
    by angle addition: with the N coefficients in blocks of B = ceil(sqrt N),
    index i - 1 = lo + j with 0 <= j < B, and A = (lo + 1/2)*pi*t,

        cos((lo + j + 1/2)*pi*t) = cos(A)*cos(j*pi*t) - sin(A)*sin(j*pi*t),

    so two T x B tables of cos(j*pi*t) and sin(j*pi*t), two matrix products
    with the zero-padded (N/B) x B coefficient matrix and the T x (N/B) block
    offsets need about 2*T*sqrt(N) trigonometric evaluations instead of T*N.
    """
    mu = np.asarray(mu, dtype=float)
    t = np.asarray(t_grid, dtype=float).ravel()
    if mu.size == 0:
        return np.zeros(t.size)
    if t.size >= 2 and np.array_equal(t, np.linspace(0.0, 1.0, t.size)):
        return _synthesize_unit_grid(mu, t.size - 1)
    B = math.isqrt(mu.size - 1) + 1  # ceil(sqrt N)
    blocks = -(-mu.size // B)
    coef = np.zeros(blocks * B)
    coef[:mu.size] = mu
    coef = coef.reshape(blocks, B)
    inner = np.outer(t, np.arange(B) * math.pi)
    offset = np.outer(t, (np.arange(blocks) * B + 0.5) * math.pi)
    out = np.einsum("tb,tb->t", np.cos(offset), np.cos(inner) @ coef.T)
    out -= np.einsum("tb,tb->t", np.sin(offset), np.sin(inner) @ coef.T)
    return math.sqrt(2.0) * out


def _synthesize_unit_grid(mu: np.ndarray, M: int) -> np.ndarray:
    """synthesize_function on t_j = j/M, j = 0..M, by one rfft of length 2M."""
    period = 2 * M
    whole = mu.size - mu.size % period
    bins = mu[:whole].reshape(-1, period).sum(axis=0)
    bins[:mu.size - whole] += mu[whole:]
    # np.fft is read here, not imported at module load: numpy loads it lazily
    F = np.fft.rfft(bins)
    half = np.arange(M + 1) * (math.pi / period)
    return math.sqrt(2.0) * (np.cos(half) * F.real + np.sin(half) * F.imag)
