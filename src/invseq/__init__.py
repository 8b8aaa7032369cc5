"""Adaptive Bayesian inference for mildly ill-posed Gaussian sequence models."""

__version__ = "0.1.0"

from .empirical_bayes import EbFit, LikelihoodCurve, eb_posterior, fit, log_likelihood, score
from .errors import ConfigError, InvseqError, NumericalError, OutOfRangeError
from .experiments import ExperimentConfig, run_figure1, run_figure2, run_rate_sweep
from .gaussian_posterior import (CoordinatePosterior, posterior, posterior_mean_function,
                                 posterior_risk)
from .hierarchical_bayes import HbChain, HbConfig, HyperPrior, histogram_mode, mh_log_acceptance, run_mwg
from .sequence_model import (ModelSpec, Observation, TruthSpec, analytic_norm_sq,
                             default_truncation, simulate, sobolev_norm_sq, synthesize_function)
from .theory import (BracketReport, bracket, bracket_diagnostic, minimax_rate_analytic,
                     minimax_rate_sobolev, slowly_varying_factor)

__all__ = [
    "__version__",
    "BracketReport", "ConfigError", "CoordinatePosterior", "EbFit", "ExperimentConfig",
    "HbChain", "HbConfig", "HyperPrior", "InvseqError", "LikelihoodCurve", "ModelSpec",
    "NumericalError", "Observation", "OutOfRangeError", "TruthSpec",
    "analytic_norm_sq", "bracket", "bracket_diagnostic",
    "default_truncation", "eb_posterior", "fit", "histogram_mode",
    "log_likelihood", "mh_log_acceptance", "minimax_rate_analytic",
    "minimax_rate_sobolev", "posterior", "posterior_mean_function", "posterior_risk",
    "run_figure1", "run_figure2", "run_mwg", "run_rate_sweep",
    "score", "simulate", "slowly_varying_factor", "sobolev_norm_sq", "synthesize_function",
]
