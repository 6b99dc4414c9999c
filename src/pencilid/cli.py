"""Command-line interface.

Each subcommand wraps one stage of the identification workflow so stages can
be chained through files:

* ``simulate``   run a model on an input record, write the noise-free dataset
* ``generate``   draw a white-noise experiment with output noise
* ``estimate``   impulse-response coefficients from a dataset (ls | smm)
* ``fft``        bridge impulse coefficients to unit-circle frequency samples
* ``svd``        singular values of the Hankel or Loewner matrix
* ``reduce``     reduced-order model from coefficients or samples
* ``run``        one full pipeline on a dataset
* ``benchmark``  Monte-Carlo campaign over one or more pipelines

Exit codes: 0 success, 2 bad input or file format, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dataio import Dataset, generate_experiment, load_dataset, save_dataset
from .errors import NumericalError, PencilIdError
from .estimation import TuningConfig
from .lti import (
    SignalSequence,
    discretize_zoh,
    load_markov,
    load_model,
    save_markov,
    save_model,
    simulate,
)
from .pencils import reduce, save_singular_values
from .pipeline import (
    METHODS,
    PipelineConfig,
    build_pencil,
    building_surrogate,
    estimate,
    hint_stage,
    run_benchmark,
    run_method,
)
from .spectral import load_frequency_samples, markov_to_frequency, save_frequency_samples

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _out_dir(args) -> Path:
    out = Path(args.out if args.out else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model_arg(args, require_discrete: bool = True):
    """Resolve --model (file path or 'surrogate'), discretizing if --ts given."""
    if args.model is None or args.model == "surrogate":
        model = building_surrogate(ts=args.ts if args.ts else 0.015)
    else:
        model = load_model(args.model)
        if not model.is_discrete:
            if not args.ts:
                raise PencilIdError(
                    "continuous-time model: pass --ts to discretize with ZOH"
                )
            model = discretize_zoh(model, args.ts)
    if require_discrete and not model.is_discrete:
        raise PencilIdError("a discrete-time model is required here")
    return model


def _tuning_from_args(args) -> TuningConfig:
    return TuningConfig(
        alpha=args.alpha,
        L0=getattr(args, "L0", None),
        N=getattr(args, "N", None),
        sigma2=getattr(args, "sigma2_known", None),
    )


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    model = _load_model_arg(args)
    if args.dataset:
        u = load_dataset(args.dataset).u
    else:
        rng = np.random.default_rng(args.seed)
        u = SignalSequence(rng.normal(0.0, 1.0, size=(args.ns, model.nu)),
                           ts=model.ts)
    y = simulate(model, u)
    dataset = Dataset(u=u, y=y, y_clean=y, sigma2_true=0.0, seed=args.seed)
    out = _out_dir(args)
    save_dataset(dataset, out / "dataset.csv")
    print(f"simulated {dataset.ns} samples -> {out / 'dataset.csv'}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    model = _load_model_arg(args)
    dataset = generate_experiment(model, args.ns, args.sigma2, seed=args.seed)
    out = _out_dir(args)
    save_dataset(dataset, out / "dataset.csv")
    print(f"generated {dataset.ns} samples (sigma2={args.sigma2:g}, "
          f"seed={args.seed}) -> {out / 'dataset.csv'}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    dataset = load_dataset(args.dataset)
    h, tune = estimate(dataset, _tuning_from_args(args), args.estimator)
    out = _out_dir(args)
    save_markov(h, out / "impulse.csv")
    with open(out / "tuning.json", "w") as f:
        json.dump({"estimator": args.estimator, "L0": tune["L0"], "N": tune["N"],
                   "sigma2_hat": tune["sigma2_hat"]}, f, indent=1)
        f.write("\n")
    print(f"{args.estimator} estimate: L0={tune['L0']} N={tune['N']} "
          f"sigma2_hat={tune['sigma2_hat']:.3e} -> {out / 'impulse.csv'}")
    return EXIT_OK


def _cmd_fft(args) -> int:
    h = load_markov(args.markov)
    samples = markov_to_frequency(h)
    out = _out_dir(args)
    save_frequency_samples(samples, out / "frequency.csv")
    print(f"{len(samples)} unit-circle samples -> {out / 'frequency.csv'}")
    return EXIT_OK


def _cmd_svd(args) -> int:
    if args.markov and args.frequency:
        raise PencilIdError("pass either --markov or --frequency, not both")
    if args.markov:
        data, kind = load_markov(args.markov), "hankel"
    elif args.frequency:
        data, kind = load_frequency_samples(args.frequency), "loewner"
    else:
        raise PencilIdError("pass --markov (Hankel) or --frequency (Loewner)")
    _, report = hint_stage(data, args.partition)
    out = _out_dir(args)
    save_singular_values(report.singular_values, out / "singular_values.csv")
    print(f"{kind} matrix: {len(report.singular_values)} singular values, "
          f"suggested order {report.order_gap} (gap rule), "
          f"{report.order_threshold} (threshold rule) "
          f"-> {out / 'singular_values.csv'}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    if args.pencil == "hankel":
        if not args.markov:
            raise PencilIdError("reduce hankel needs --markov")
        data = load_markov(args.markov)
    else:
        if not args.frequency:
            raise PencilIdError("reduce loewner needs --frequency")
        data = load_frequency_samples(args.frequency)
    r = (hint_stage(data, args.partition)[1].order_gap if args.order == "auto"
         else int(args.order))
    model = reduce(build_pencil(data, args.partition), r)
    out = _out_dir(args)
    save_model(model, out / "model.json")
    print(f"order-{model.n} model -> {out / 'model.json'}")
    return EXIT_OK


def _cmd_run(args) -> int:
    dataset = load_dataset(args.dataset)
    cfg = PipelineConfig(
        method=args.method,
        tuning=_tuning_from_args(args),
        partition_scheme=args.partition,
        order=args.order if args.order == "auto" else int(args.order),
    )
    model, report = run_method(dataset, cfg, args.method)
    out = _out_dir(args)
    save_model(model, out / "model.json")
    doc = {
        "method": report["method"],
        "L0": report["L0"],
        "N": report["N"],
        "sigma2_hat": report["sigma2_hat"],
        "order": report["order"],
        "singular_values": report["singular_values"],
    }
    with open(out / "report.json", "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")
    for name, sv in report["singular_values"].items():
        save_singular_values(np.asarray(sv), out / f"singular_values_{name}.csv")
    print(f"{args.method}: L0={report['L0']} N={report['N']} "
          f"r={report['order']} -> {out / 'model.json'}")
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    model = _load_model_arg(args)
    methods = tuple(args.methods) if args.methods else (args.method,)
    sweep = tuple(int(v) for v in args.sweep.split(",")) if args.sweep else ()
    cfg = PipelineConfig(
        method=methods[0],
        methods=methods,
        tuning=_tuning_from_args(args),
        partition_scheme=args.partition,
        order=args.order if args.order == "auto" else int(args.order),
        realizations=args.realizations,
        base_seed=args.seed,
        ns=args.ns,
        sigma2=args.sigma2,
        order_sweep=sweep,
    )
    out = _out_dir(args)
    report = run_benchmark(model, cfg, out_dir=out)
    for method, m in report["methods"].items():
        agg = m["aggregate"]
        parts = [f"{k}: median={v['median']:.4g}" for k, v in agg.items()]
        print(f"{method}: " + "; ".join(parts) + f" ({m['failed']} failed)")
    print(f"artifacts -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    flags = {
        "model": lambda: p.add_argument(
            "--model", help="model JSON file, or 'surrogate' for the built-in "
            "48th-order benchmark model (default when omitted)"),
        "dataset": lambda: p.add_argument("--dataset", help="dataset CSV file"),
        "ns": lambda: p.add_argument("--ns", type=int, default=1000,
                                     help="number of samples (default 1000)"),
        "ts": lambda: p.add_argument("--ts", type=float, default=None,
                                     help="sample period for ZOH discretization"),
        "sigma2": lambda: p.add_argument("--sigma2", type=float, default=0.0,
                                         help="output-noise variance"),
        "alpha": lambda: p.add_argument("--alpha", type=float, default=0.4,
                                        help="correlation threshold margin "
                                        "(default 0.4)"),
        "order": lambda: p.add_argument("--order", default="auto",
                                        help="reduction order, or 'auto'"),
        "partition": lambda: p.add_argument(
            "--partition", default="combined",
            choices=("alternate", "half-half", "combined"),
            help="frequency-sample split for the Loewner pencil"),
        "seed": lambda: p.add_argument("--seed", type=int, default=0,
                                       help="base RNG seed (default 0)"),
        "realizations": lambda: p.add_argument(
            "--realizations", type=int, default=1,
            help="number of Monte-Carlo repetitions (default 1)"),
        "out": lambda: p.add_argument("--out", default=None,
                                      help="output directory (default '.')"),
        "tuning": lambda: (
            p.add_argument("--L0", type=int, default=None,
                           help="past-window length override"),
            p.add_argument("--N", type=int, default=None,
                           help="horizon length override"),
            p.add_argument("--sigma2-known", type=float, default=None,
                           dest="sigma2_known",
                           help="skip variance estimation, use this value"),
        ),
    }
    for name in names:
        flags[name]()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencilid",
        description="Reduced-order LTI models from noisy input-output data "
                    "via Hankel and Loewner pencils.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="noise-free simulation of a model")
    _add_common(p, "model", "dataset", "ns", "ts", "seed", "out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("generate", help="white-noise experiment with output noise")
    _add_common(p, "model", "ns", "ts", "sigma2", "seed", "out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("estimate", help="impulse-response coefficients from data")
    p.add_argument("estimator", choices=("ls", "smm"))
    _add_common(p, "dataset", "alpha", "tuning", "out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("fft", help="impulse coefficients to frequency samples")
    p.add_argument("--markov", required=True, help="impulse CSV from 'estimate'")
    _add_common(p, "out")
    p.set_defaults(func=_cmd_fft)

    p = sub.add_parser("svd", help="singular values of the Hankel/Loewner matrix")
    p.add_argument("--markov", help="impulse CSV (Hankel matrix)")
    p.add_argument("--frequency", help="frequency CSV (Loewner matrix)")
    _add_common(p, "partition", "out")
    p.set_defaults(func=_cmd_svd)

    p = sub.add_parser("reduce", help="reduced-order model from a pencil")
    p.add_argument("pencil", choices=("hankel", "loewner"))
    p.add_argument("--markov", help="impulse CSV (Hankel)")
    p.add_argument("--frequency", help="frequency CSV (Loewner)")
    _add_common(p, "order", "partition", "out")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("run", help="one full identification pipeline")
    p.add_argument("method", choices=METHODS)
    _add_common(p, "dataset", "alpha", "tuning", "order", "partition", "out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("benchmark", help="Monte-Carlo campaign")
    p.add_argument("method", nargs="?", default="smm-hf", choices=METHODS,
                   help="single method (or use --methods)")
    p.add_argument("--methods", nargs="+", choices=METHODS, default=None,
                   help="several methods to compare in one report")
    p.add_argument("--sweep", default=None,
                   help="comma-separated reduction orders for the order sweep")
    _add_common(p, "model", "ns", "ts", "sigma2", "alpha", "tuning", "order",
                "partition", "seed", "realizations", "out")
    p.set_defaults(func=_cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (PencilIdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
