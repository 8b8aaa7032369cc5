"""Hooks around calls into invseq, from outside the package.

The benchmark swaps a wrapper in for a function under the name its caller
looks it up by (for example `invseq.experiments.fit`, the name
`run_figure1` calls), so no file of the package changes.  The wrappers
stay in place for the whole run.  They always keep what the timing and
the output checks need; spans are recorded only while `recording` is set.
Spans stay in memory and are written out once, when the run ends.

Every time the benchmark reports is process CPU time (`clock`).  The
benchmark is one thread with BLAS pinned to one thread, so an op's CPU
time is its wall time on a core of its own; on a shared VM it leaves out
the time the host gives the core to other guests.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

clock = time.process_time


def _fit_work(obs, *args, **kwargs):
    return obs.N


def _synthesize_work(mu, t_grid):
    return int(np.size(mu) * np.size(t_grid))


def _mwg_work(obs, hyper, cfg):
    return cfg.iterations


# (module, attribute, layer, work): every public name through which a driver
# or the benchmark calls into a layer.  A name is wrapped in each module that
# looks it up, so nested calls (eb_posterior -> posterior) become child spans.
# `work` maps the call's arguments to a count of work done: coordinates for
# fit, cosine evaluations for synthesize_function, sweeps for run_mwg.
TRACED = (
    ("invseq.experiments", "run_figure1", "experiments", None),
    ("invseq.experiments", "run_figure2", "experiments", None),
    ("invseq.experiments", "run_rate_sweep", "experiments", None),
    ("invseq.experiments", "simulate", "sequence_model", None),
    ("invseq.experiments", "synthesize_function", "sequence_model", _synthesize_work),
    ("invseq.experiments", "fit", "empirical_bayes", _fit_work),
    ("invseq.experiments", "eb_posterior", "empirical_bayes", None),
    ("invseq.experiments", "posterior_mean_function", "gaussian_posterior", None),
    ("invseq.experiments", "posterior_risk", "gaussian_posterior", None),
    ("invseq.experiments", "run_mwg", "hierarchical_bayes", _mwg_work),
    ("invseq.empirical_bayes", "posterior", "gaussian_posterior", None),
    ("invseq.gaussian_posterior", "posterior", "gaussian_posterior", None),
    ("invseq.gaussian_posterior", "synthesize_function", "sequence_model", _synthesize_work),
    ("invseq.theory", "bracket", "theory", None),
)

LAYERS = ("cli", "sequence_model", "gaussian_posterior", "empirical_bayes",
          "hierarchical_bayes", "theory", "experiments")


class Recorder:
    """Wrappers that keep op starts, fits and chains, and spans when recording.

    A span holds id, name, layer, parent, op, start, end and work.  An op
    starts at each `experiments.simulate` call (`op_starts`); each
    `experiments.fit` keeps (observation, result) in `fits` and each
    `experiments.run_mwg` keeps (observation, hyperprior, chain, seconds)
    in `chains`, for the output checks.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.recording = False
        self.op_of = lambda: None  # the op id stamped on each span
        self.op_starts: list[float] = []
        self.fits: list = []
        self.chains: list = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        """Forget the op starts, fits and chains of the previous call."""
        self.op_starts.clear()
        self.fits.clear()
        self.chains.clear()

    def wrap(self, module, attr: str, layer: str, work=None) -> None:
        inner = getattr(module, attr)
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"

        @functools.wraps(inner)
        def hooked(*args, **kwargs):
            if name == "experiments.simulate":
                self.op_starts.append(clock())
            span = None
            if self.recording:
                span = {"id": len(self.spans), "name": name, "layer": layer,
                        "parent": self._stack[-1] if self._stack else None,
                        "op": self.op_of(), "work": work(*args, **kwargs) if work else None}
                self.spans.append(span)
                self._stack.append(span["id"])
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = clock()
                if span is not None:
                    self._stack.pop()
                    span["start"], span["end"] = start, end
            if name == "experiments.fit":
                self.fits.append((args[0], result))
            elif name == "experiments.run_mwg":
                self.chains.append((args[0], args[1], result, end - start))
            return result

        setattr(module, attr, hooked)
        self._undo.append((module, attr, inner))

    def install(self, modules: dict) -> None:
        for mod_name, attr, layer, work in TRACED:
            self.wrap(modules[mod_name], attr, layer, work)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, inner = self._undo.pop()
            setattr(module, attr, inner)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
