"""Command line front end.

Exit codes: 0 success, 2 bad configuration or arguments, 3 numerical
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .empirical_bayes import fit
from .errors import ConfigError, NumericalError
from .experiments import (ExperimentConfig, run_figure1, run_figure2, run_rate_sweep, write_csv,
                          write_json)
from .hierarchical_bayes import HbConfig, HyperPrior, run_mwg
from .sequence_model import ModelSpec, Observation, TruthSpec, simulate, truncation
from .theory import bracket


def parse_model(text: str) -> ModelSpec:
    if text == "volterra":
        return ModelSpec.volterra()
    if text.startswith("power:"):
        return ModelSpec.exact_power(float(text.split(":", 1)[1]))
    raise ConfigError(f"cannot parse model {text!r} (volterra | power:P)")


def parse_truth(text: str) -> TruthSpec:
    if text == "paper":
        return TruthSpec.paper_example()
    if text == "zero":
        return TruthSpec.zero()
    head, _, rest = text.partition(":")
    parts = rest.split(":")
    if head == "power" and len(parts) <= 2:
        return TruthSpec.power_law(*map(float, parts))
    if head == "analytic" and len(parts) <= 2:
        return TruthSpec.analytic_decay(*map(float, parts))
    if head == "explicit":
        return TruthSpec.explicit([float(v) for v in rest.split(",")])
    raise ConfigError(
        f"cannot parse truth {text!r} (paper | zero | power:B[:C] | analytic:G[:C] | explicit:v1,v2,...)")


def parse_hyper(text: str) -> HyperPrior:
    head, _, rest = text.partition(":")
    parts = [float(v) for v in rest.split(":")] if rest else []
    if head == "exponential" and len(parts) <= 1:
        return HyperPrior.exponential(*parts)
    if head == "gamma" and len(parts) == 2:
        return HyperPrior.gamma(parts[0], parts[1])
    if head == "inverse_gamma" and len(parts) == 2:
        return HyperPrior.inverse_gamma(parts[0], parts[1])
    raise ConfigError(
        f"cannot parse hyperprior {text!r} "
        "(exponential[:RATE] | gamma:SHAPE:RATE | inverse_gamma:SHAPE:SCALE)")


def _load_config(path: str, seed: int | None, out: str | None) -> ExperimentConfig:
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ConfigError("an experiment config must be a JSON object")
    if seed is not None:
        d["seed"] = seed
    if out is not None:
        d["output_dir"] = out
    return ExperimentConfig.from_dict(d)


def _cmd_simulate(args) -> None:
    model = parse_model(args.model)
    truth = parse_truth(args.truth)
    N = truncation(args.n, model, args.N)
    obs = simulate(truth, model, args.n, N, args.seed)
    with open(args.out, "w") as fh:
        fh.write(obs.to_json())
    print(f"wrote {args.out} (n={args.n:g}, N={N})")


def _cmd_eb_fit(args) -> None:
    with open(args.obs) as fh:
        obs = Observation.from_json(fh.read())
    eb = fit(obs)
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "likelihood.csv"), eb.curve.columns())
    write_json(os.path.join(args.out, "fit.json"),
               {"alpha_hat": eb.alpha_hat, "refined": eb.refined, "n": obs.n, "N": obs.N})
    print(f"alpha_hat = {eb.alpha_hat:.6f}")


def _cmd_hb_run(args) -> None:
    with open(args.obs) as fh:
        obs = Observation.from_json(fh.read())
    hyper = parse_hyper(args.hyper)
    cfg = HbConfig(iterations=args.iterations, burn_in=args.burn_in, seed=args.seed)
    chain = run_mwg(obs, hyper, cfg)
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "alpha.csv"), {"alpha": chain.alphas})
    summary = chain.summary()
    write_json(os.path.join(args.out, "hb_summary.json"), summary)
    print(f"acceptance_rate = {summary['acceptance_rate']:.3f}, "
          f"alpha_mean = {summary['alpha_mean']:.4f}")
    # the start point and each candidate are the alphas the chain could have evaluated
    print(f"likelihood evaluations = {chain.exact_evaluations} of {cfg.iterations + 1}")


def _cmd_bracket(args) -> None:
    model = parse_model(args.model)
    truth = parse_truth(args.truth)
    report = bracket(truth.coefficients(truncation(args.n, model, args.N)), model, args.n)
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "diagnostic_curve.csv"),
              {"alpha": report.curve_alphas, "diagnostic": report.curve_values})
    with open(os.path.join(args.out, "bracket.json"), "w") as fh:
        fh.write(report.to_json())
    print(f"alpha_lower = {report.alpha_lower:.4f}, alpha_upper = {report.alpha_upper:.4f} "
          f"({report.upper_status})")


def _cmd_figure1(args) -> None:
    manifest = run_figure1(_load_config(args.config, args.seed, args.out))
    print(f"figure1: {len(manifest['rungs'])} rungs -> {manifest['config']['output_dir']}")


def _cmd_figure2(args) -> None:
    manifest = run_figure2(_load_config(args.config, args.seed, args.out))
    print(f"figure2: {len(manifest['rungs'])} rungs -> {manifest['config']['output_dir']}")


def _cmd_rate_sweep(args) -> None:
    manifest = run_rate_sweep(_load_config(args.config, args.seed, args.out), args.beta)
    print(f"fitted slope {manifest['fitted_slope']:.4f} "
          f"(theory {manifest['theoretical_slope']:.4f})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="invseq")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate an observation and write it as JSON")
    p.add_argument("--model", default="volterra")
    p.add_argument("--truth", default="paper")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("eb-fit", help="empirical Bayes fit of a stored observation")
    p.add_argument("--obs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eb_fit)

    p = sub.add_parser("hb-run", help="hierarchical Bayes chain on a stored observation")
    p.add_argument("--obs", required=True)
    p.add_argument("--hyper", default="exponential:1")
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hb_run)

    p = sub.add_parser("bracket", help="threshold crossings of the location diagnostic")
    p.add_argument("--model", default="volterra")
    p.add_argument("--truth", default="paper")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bracket)

    for name, func in (("figure1", _cmd_figure1), ("figure2", _cmd_figure2)):
        p = sub.add_parser(name, help=f"run the {name} experiment from a JSON config")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("rate-sweep", help="squared-error decay across the ladder")
    p.add_argument("--config", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rate_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, KeyError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
