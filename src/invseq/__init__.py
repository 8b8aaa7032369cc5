"""Adaptive Bayesian inference for mildly ill-posed Gaussian sequence models."""

__version__ = "0.1.0"

from .empirical_bayes import EbFit, LikelihoodCurve, eb_posterior, fit, log_likelihood, score
from .errors import ConfigError, InvseqError, NumericalError
from .experiments import ExperimentConfig, run_figure1, run_figure2, run_rate_sweep
from .gaussian_posterior import (CoordinatePosterior, posterior, posterior_mean_function,
                                 posterior_risk)
from .hierarchical_bayes import HbChain, HbConfig, HyperPrior, run_mwg
from .sequence_model import (ModelSpec, Observation, TruthSpec, default_truncation, simulate,
                             synthesize_function)
from .theory import BracketReport, bracket

__all__ = [
    "__version__",
    "BracketReport", "ConfigError", "CoordinatePosterior", "EbFit", "ExperimentConfig",
    "HbChain", "HbConfig", "HyperPrior", "InvseqError", "LikelihoodCurve", "ModelSpec",
    "NumericalError", "Observation", "TruthSpec",
    "bracket", "default_truncation", "eb_posterior", "fit", "log_likelihood",
    "posterior", "posterior_mean_function", "posterior_risk",
    "run_figure1", "run_figure2", "run_mwg", "run_rate_sweep",
    "score", "simulate", "synthesize_function",
]
