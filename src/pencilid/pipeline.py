"""End-to-end identification pipelines and the Monte-Carlo benchmark runner.

Four methods are wired up:

* ``smm-hf``   signal-matrix impulse estimate, Hankel-pencil realization
* ``smm-lf``   signal-matrix estimate, FFT bridge, Loewner-pencil realization
* ``ls-hf``    least-squares impulse estimate, Hankel-pencil realization
* ``noisy-lf`` spectral-ratio frequency estimate, Loewner-pencil realization

Each run shares the same tuning stage: past-window length from the averaged
cross-correlation, horizon from the persistency bound, noise variance from
the residual of a least-squares fit that spans the correlation support.
"""

from __future__ import annotations

import contextlib
import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .dataio import Dataset, generate_experiment
from .errors import MethodUnsupported, PencilIdError
from .estimation import (
    TuningConfig,
    cross_correlation,
    estimate_markov_ls,
    estimate_markov_smm,
    estimate_noise_variance,
    select_L0,
    select_N,
)
from .lti import (
    DescriptorModel,
    MarkovSequence,
    discretize_zoh,
    frequency_response,
    impulse_response,
    save_model,
)
from .metrics import eval_grid_logspace, fit_percentage, h2_freq_error, h2_impulse_error
from .pencils import (
    SCHEMES,
    HankelPencil,
    LoewnerPencil,
    SvdReport,
    build_hankel,
    build_loewner,
    hankel_reduce,
    loewner_reduce,
    partition,
    save_singular_values,
    svd_order,
)
from .spectral import FrequencySamples, estimate_frf_spectral, markov_to_frequency

METHODS = ("smm-hf", "smm-lf", "ls-hf", "noisy-lf")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run or benchmark campaign needs."""

    method: str = "smm-hf"
    tuning: TuningConfig = field(default_factory=TuningConfig)
    partition_scheme: str = "combined"   # combined | alternate | half-half
    order: Union[int, str] = "auto"
    realizations: int = 1
    base_seed: int = 0
    ns: int = 1000
    sigma2: float = 0.0
    input_std: float = 1.0
    grid_wmin: float = 1.0
    grid_wmax: float = 100.0
    grid_count: int = 200
    averaged_correlation: bool = True
    order_sweep: tuple = ()
    methods: tuple = ()   # benchmark: methods to compare; empty = (method,)

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        for m in (self.method, *self.methods):
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; use one of {METHODS}")
        if self.partition_scheme not in ("combined", *SCHEMES):
            raise ValueError(f"unknown partition scheme {self.partition_scheme!r}")


@contextlib.contextmanager
def _step(label: str):
    """Annotate propagated pipeline errors with the step that raised them."""
    try:
        yield
    except PencilIdError as exc:
        exc.args = (f"[{label}] {exc}",)
        raise


def _tune(dataset: Dataset, tuning: TuningConfig,
          corr: Optional[np.ndarray] = None) -> dict:
    """Shared tuning stage: L0, N, the LS estimate and the variance estimate."""
    out = {}
    with _step("step 1a: past-window length"):
        if tuning.L0 is not None:
            out["L0"] = tuning.L0
        else:
            if corr is None:
                corr = cross_correlation(dataset)
            out["L0"] = select_L0(corr, tuning.alpha)
    with _step("step 1b: horizon length"):
        out["N"] = tuning.N if tuning.N is not None else select_N(
            dataset, out["L0"], tuning.rank_rtol
        )
    with _step("step 1c: least-squares estimate"):
        out["h_ls"] = estimate_markov_ls(dataset, out["N"], tuning.rank_rtol)
        out["sigma2_hat"] = (
            tuning.sigma2 if tuning.sigma2 is not None
            else estimate_noise_variance(dataset, out["h_ls"], out["N"], out["L0"])
        )
    return out


def _estimate(dataset: Dataset, tuning: TuningConfig, estimator: str,
              corr: Optional[np.ndarray] = None) -> tuple[MarkovSequence, dict]:
    """Tuning stage, then the impulse estimate of ``estimator`` ("ls" or
    "smm").  Returns the estimate and the tuning results."""
    tune = _tune(dataset, tuning, corr)
    if estimator == "ls":
        return tune["h_ls"], tune
    with _step("step 2: signal-matrix estimate"):
        h = estimate_markov_smm(dataset, tune["L0"], tune["N"],
                                tune["sigma2_hat"], tuning.rank_rtol)
    return h, tune


def _pencil_stage(data: Union[MarkovSequence, FrequencySamples], scheme: str,
                  svd_threshold: float) -> tuple[Union[HankelPencil, LoewnerPencil],
                                                 SvdReport, dict]:
    """Pencil of the data and the SVD report whose gap gives the order hint.

    Impulse coefficients give the Hankel pencil; frequency samples give the
    Loewner pencil of the partition ``scheme``, where ``combined`` takes the
    alternate pencil and the half-half decay.  Also returns every decay the
    stage computed, by name, for the run report.
    """
    if isinstance(data, MarkovSequence):
        with _step("step 3a: Hankel pencil"):
            pencil = build_hankel(data)
        with _step("step 3b: Hankel SVD"):
            sv = svd_order(pencil, svd_threshold)
        return pencil, sv, {"hankel": sv.singular_values.tolist()}
    model_scheme, hint_scheme = (("alternate", "half-half") if scheme == "combined"
                                 else (scheme, scheme))
    pencils, svs = {}, {}
    for name, label in (("half-half", "step 3b: half-half Loewner"),
                        ("alternate", "step 3d: alternate Loewner")):
        if name in (model_scheme, hint_scheme):
            with _step(label):
                pencils[name] = build_loewner(*partition(data, name), scheme=name)
                svs[name] = svd_order(pencils[name], svd_threshold)
    decays = {f"loewner_{name.replace('-', '_')}": sv.singular_values.tolist()
              for name, sv in svs.items()}
    return pencils[model_scheme], svs[hint_scheme], decays


def _fit(dataset: Dataset, cfg: PipelineConfig, method: str,
         corr: Optional[np.ndarray] = None):
    """Everything of a run that does not depend on the reduction order:
    returns the pencil to truncate, its order hint, and the run report."""
    h, tune = _estimate(dataset, cfg.tuning,
                        "smm" if method.startswith("smm") else "ls", corr)
    report = {"method": method, "L0": tune["L0"], "N": tune["N"],
              "sigma2_hat": tune["sigma2_hat"],
              "h_estimate": h if method != "noisy-lf" else None}
    data = h
    if method == "smm-lf":
        with _step("step 3a: FFT bridge"):
            data = markov_to_frequency(h)
    elif method == "noisy-lf":
        if dataset.nu != 1 or dataset.ny != 1:
            raise MethodUnsupported("noisy-lf requires single-input single-output data")
        with _step("spectral-ratio estimate"):
            data = estimate_frf_spectral(dataset, tune["N"])
    pencil, sv, report["singular_values"] = _pencil_stage(
        data, cfg.partition_scheme, cfg.tuning.svd_threshold)
    return pencil, sv.order_gap, report


def _reduce(pencil: Union[HankelPencil, LoewnerPencil], order: Union[int, str],
            hint: int) -> tuple[DescriptorModel, int]:
    """Truncate a fitted pencil to ``order`` ("auto": the hint), capped at
    the pencil's size.  Returns the model and the order used."""
    if isinstance(pencil, HankelPencil):
        label, reduce, M = "step 3c: Hankel realization", hankel_reduce, pencil.H
    else:
        label, reduce, M = "step 3e: Loewner realization", loewner_reduce, pencil.L
    r = min(hint if order == "auto" else int(order), min(M.shape))
    with _step(label):
        return reduce(pencil, r), r


def _run_one(dataset: Dataset, cfg: PipelineConfig, method: str,
             corr: Optional[np.ndarray] = None) -> tuple[DescriptorModel, dict]:
    pencil, hint, report = _fit(dataset, cfg, method, corr)
    model, report["order"] = _reduce(pencil, cfg.order, hint)
    return model, report


def run_smm_hf(dataset: Dataset, cfg: PipelineConfig) -> tuple[DescriptorModel, dict]:
    """Signal-matrix impulse estimation followed by Hankel realization."""
    return _run_one(dataset, cfg, "smm-hf")


def run_smm_lf(dataset: Dataset, cfg: PipelineConfig) -> tuple[DescriptorModel, dict]:
    """Signal-matrix estimation, FFT bridge, Loewner realization."""
    return _run_one(dataset, cfg, "smm-lf")


def run_baseline(dataset: Dataset, cfg: PipelineConfig) -> tuple[DescriptorModel, dict]:
    """The two comparison pipelines: ``ls-hf`` and ``noisy-lf``."""
    if cfg.method not in ("ls-hf", "noisy-lf"):
        raise MethodUnsupported(f"{cfg.method!r} is not a baseline method")
    return _run_one(dataset, cfg, cfg.method)


# ---------------------------------------------------------------------------
# Built-in 48th-order benchmark surrogate
# ---------------------------------------------------------------------------

# Calibrated so that unit-variance white-noise excitation at ts = 15 ms with
# output-noise variance 1e-7 puts the estimators in the same signal-to-noise
# regime as the reference building benchmark.
_SURROGATE_ORDER = 48
_SURROGATE_DAMPING = 0.011
_SURROGATE_WMIN = 5.0
_SURROGATE_WMAX = 70.0
_SURROGATE_SCALE = 2.8e-3
_SURROGATE_WEIGHT_EXP = 3.0
_SURROGATE_SEED = 20240815


def building_surrogate(ts: Optional[float] = None) -> DescriptorModel:
    """Synthetic 48th-order SISO stand-in for the building benchmark.

    24 lightly damped second-order sections with log-spaced resonances in
    [5, 70] rad/s and randomly signed residues whose magnitude grows with
    resonance frequency, so the fast modes dominate the response magnitude
    (low 1e-3 range) while the slow modes supply a long, low-level tail.
    Continuous-time by default; pass ``ts`` to get the zero-order-hold
    discretization.
    """
    npairs = _SURROGATE_ORDER // 2
    rng = np.random.default_rng(_SURROGATE_SEED)
    omegas = np.logspace(np.log10(_SURROGATE_WMIN), np.log10(_SURROGATE_WMAX), npairs)
    signs = rng.choice([-1.0, 1.0], size=npairs)
    zeta = _SURROGATE_DAMPING
    A = np.zeros((2 * npairs, 2 * npairs))
    B = np.zeros((2 * npairs, 1))
    C = np.zeros((1, 2 * npairs))
    for i, w in enumerate(omegas):
        wd = w * np.sqrt(1.0 - zeta**2)
        k = 2 * i
        A[k, k] = A[k + 1, k + 1] = -zeta * w
        A[k, k + 1] = wd
        A[k + 1, k] = -wd
        B[k + 1, 0] = 1.0
        C[0, k] = (
            _SURROGATE_SCALE * signs[i]
            * (w / _SURROGATE_WMAX) ** _SURROGATE_WEIGHT_EXP * np.sqrt(w)
        )
    model = DescriptorModel(A=A, B=B, C=C, ts="continuous")
    if ts is not None:
        model = discretize_zoh(model, ts)
    return model


# ---------------------------------------------------------------------------
# Monte-Carlo benchmark
# ---------------------------------------------------------------------------

def _quantiles(values: Sequence[float]) -> dict:
    v = np.sort(np.asarray(values, dtype=float))
    q25, q50, q75 = np.percentile(v, [25, 50, 75])
    iqr = q75 - q25
    lo, hi = q25 - 1.5 * iqr, q75 + 1.5 * iqr
    inside = v[(v >= lo) & (v <= hi)]
    outliers = v[(v < lo) | (v > hi)]
    return {
        "min": float(inside.min()) if inside.size else float(v.min()),
        "q25": float(q25),
        "median": float(q50),
        "q75": float(q75),
        "max": float(inside.max()) if inside.size else float(v.max()),
        "outliers": [float(x) for x in outliers],
    }


def _model_metrics(model: DescriptorModel, h_true: MarkovSequence,
                   H_true: np.ndarray, grid_z: np.ndarray):
    """W_h and W_H of a model against the truth's responses, with the
    model's impulse and frequency responses."""
    h_model = impulse_response(model, len(h_true))
    H_model = frequency_response(model, grid_z)
    metrics = {
        "W_h": h2_impulse_error(h_model, h_true),
        "W_H": h2_freq_error(H_model, H_true),
    }
    return metrics, h_model, H_model


def run_benchmark(model: DescriptorModel, cfg: PipelineConfig,
                  out_dir: Optional[Union[str, Path]] = None) -> dict:
    """Repeated-noise campaign over one or more methods.

    Generates ``cfg.realizations`` datasets with consecutive seeds, fits every
    configured method once per dataset, reduces each fit to the configured
    order and to every order of the sweep, and aggregates fit/error metrics,
    singular value decays, the order sweep, and boxplot quantiles.  Results
    are merged in seed order so the report is deterministic for a fixed
    configuration.
    """
    t0 = time.monotonic()
    if not model.is_discrete:
        raise MethodUnsupported("benchmark needs a discrete model (apply ZOH first)")
    methods = cfg.methods or (cfg.method,)
    R = cfg.realizations
    datasets = [
        generate_experiment(model, cfg.ns, cfg.sigma2, seed=cfg.base_seed + i,
                            input_std=cfg.input_std)
        for i in range(R)
    ]

    corr = None
    if cfg.averaged_correlation and cfg.tuning.L0 is None:
        corr = np.mean([cross_correlation(d) for d in datasets], axis=0)

    grid_omega, grid_z = eval_grid_logspace(
        cfg.grid_wmin, cfg.grid_wmax, cfg.grid_count, model.ts
    )
    H_true_grid = frequency_response(model, grid_z)

    report = {
        "config": {
            "methods": list(methods),
            "realizations": R,
            "base_seed": cfg.base_seed,
            "ns": cfg.ns,
            "sigma2": cfg.sigma2,
            "ts": model.ts,
            "alpha": cfg.tuning.alpha,
            "order": cfg.order,
            "partition_scheme": cfg.partition_scheme,
            "grid": [cfg.grid_wmin, cfg.grid_wmax, cfg.grid_count],
        },
        "methods": {},
    }
    emitted_model = None

    for method in methods:
        rows = []
        sv_acc: dict[str, list] = {}
        h_acc = None
        frf_acc = None
        # per sweep order: W_h and W_H of every record it reduced
        sweep_acc = {r: ([], []) for r in cfg.order_sweep}
        for dataset in datasets:
            try:
                pencil, hint, run_report = _fit(dataset, cfg, method, corr)
            except PencilIdError as exc:
                rows.append({"seed": dataset.seed, "failed": str(exc)})
                continue
            N = run_report["N"]
            h_true = impulse_response(model, N)
            for r in cfg.order_sweep:
                try:
                    swept, _ = _reduce(pencil, int(r), hint)
                    errors, _, _ = _model_metrics(swept, h_true, H_true_grid, grid_z)
                except PencilIdError:
                    continue
                sweep_acc[r][0].append(errors["W_h"])
                sweep_acc[r][1].append(errors["W_H"])
            try:
                est_model, order = _reduce(pencil, cfg.order, hint)
                errors, h_model, H_model = _model_metrics(est_model, h_true,
                                                          H_true_grid, grid_z)
            except PencilIdError as exc:
                rows.append({"seed": dataset.seed, "failed": str(exc)})
                continue
            row = {
                "seed": dataset.seed,
                "L0": run_report["L0"],
                "N": N,
                "sigma2_hat": run_report["sigma2_hat"],
                "r": order,
                **errors,
            }
            if run_report["h_estimate"] is not None:
                row["W"] = fit_percentage(run_report["h_estimate"], h_true)
            rows.append(row)
            for name, sv in run_report["singular_values"].items():
                sv = np.asarray(sv)
                sv_acc.setdefault(name, []).append(sv / sv[0])
            h_acc = (h_model.blocks if h_acc is None else h_acc + h_model.blocks)
            frf_acc = H_model if frf_acc is None else frf_acc + H_model
            if emitted_model is None:
                emitted_model = est_model
        ok = [r for r in rows if "failed" not in r]
        method_report = {
            "realizations": rows,
            "failed": len(rows) - len(ok),
            "aggregate": {},
            "boxplot": {},
        }
        for metric in ("W", "W_h", "W_H"):
            vals = [r[metric] for r in ok if metric in r]
            if vals:
                method_report["aggregate"][metric] = {
                    "mean": float(np.mean(vals)),
                    "median": float(np.median(vals)),
                }
                method_report["boxplot"][metric] = _quantiles(vals)
        if sv_acc:
            method_report["singular_values_mean"] = {
                name: np.mean(np.array(curves), axis=0).tolist()
                for name, curves in sv_acc.items()
            }
        if ok:
            method_report["mean_impulse"] = (h_acc / len(ok)).tolist()
            mean_frf = frf_acc / len(ok)
            method_report["mean_frf"] = {
                "omega_rad_s": grid_omega.tolist(),
                "re": mean_frf.real.tolist(),
                "im": mean_frf.imag.tolist(),
            }
        if cfg.order_sweep and ok:
            method_report["order_sweep"] = {
                "orders": list(cfg.order_sweep),
                "mean_W_h": [_mean_or_none(sweep_acc[r][0]) for r in cfg.order_sweep],
                "mean_W_H": [_mean_or_none(sweep_acc[r][1]) for r in cfg.order_sweep],
            }
        report["methods"][method] = method_report

    report["true_frf"] = {
        "omega_rad_s": grid_omega.tolist(),
        "re": H_true_grid.real.tolist(),
        "im": H_true_grid.imag.tolist(),
    }
    report["wall_time_s"] = time.monotonic() - t0
    if out_dir is not None:
        _emit_artifacts(report, emitted_model, model, Path(out_dir))
    return report


def _mean_or_none(values: list) -> Optional[float]:
    return float(np.mean(values)) if values else None


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------

def report_json(report: dict) -> str:
    """Stable JSON rendition of a benchmark report (sorted keys)."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def _emit_artifacts(report: dict, emitted_model, truth: DescriptorModel,
                    out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w") as f:
        f.write(report_json(report))
    if emitted_model is not None:
        save_model(emitted_model, out_dir / "model.json")

    first = next(iter(report["methods"].values()))
    svs = first.get("singular_values_mean", {})
    if svs:
        name = sorted(svs)[0]
        save_singular_values(np.asarray(svs[name]), out_dir / "singular_values.csv")

    with open(out_dir / "boxplot.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "metric", "min", "q25", "median", "q75",
                         "max", "outliers"])
        for method, m in report["methods"].items():
            for metric, q in m.get("boxplot", {}).items():
                writer.writerow([
                    method, metric, repr(q["min"]), repr(q["q25"]),
                    repr(q["median"]), repr(q["q75"]), repr(q["max"]),
                    ";".join(repr(v) for v in q["outliers"]),
                ])

    with open(out_dir / "impulse.csv", "w", newline="") as f:
        writer = csv.writer(f)
        methods = [m for m in report["methods"] if "mean_impulse" in report["methods"][m]]
        writer.writerow(["k"] + [f"h_{m}" for m in methods] + ["h_true"])
        if methods:
            mean_h = {m: np.asarray(report["methods"][m]["mean_impulse"]) for m in methods}
            n = min(len(v) for v in mean_h.values())
            h_true = impulse_response(truth, n)
            for k in range(n):
                row = [k] + [repr(float(mean_h[m][k, 0, 0])) for m in methods]
                row.append(repr(float(h_true.blocks[k, 0, 0])))
                writer.writerow(row)

    with open(out_dir / "frf.csv", "w", newline="") as f:
        writer = csv.writer(f)
        methods = [m for m in report["methods"] if "mean_frf" in report["methods"][m]]
        writer.writerow(
            ["omega"]
            + [c for m in methods for c in (f"re(H_{m})", f"im(H_{m})")]
            + ["re(H_true)", "im(H_true)"]
        )
        omega = report["true_frf"]["omega_rad_s"]
        for k in range(len(omega)):
            row = [repr(float(omega[k]))]
            for m in methods:
                frf = report["methods"][m]["mean_frf"]
                row += [repr(float(frf["re"][k][0][0])), repr(float(frf["im"][k][0][0]))]
            row += [
                repr(float(report["true_frf"]["re"][k][0][0])),
                repr(float(report["true_frf"]["im"][k][0][0])),
            ]
            writer.writerow(row)

    with open(out_dir / "order_sweep.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "r", "mean_W_h", "mean_W_H"])
        for method, m in report["methods"].items():
            sweep = m.get("order_sweep")
            if not sweep:
                continue
            for i, r in enumerate(sweep["orders"]):
                writer.writerow([
                    method, r,
                    repr(sweep["mean_W_h"][i]) if sweep["mean_W_h"][i] is not None else "",
                    repr(sweep["mean_W_H"][i]) if sweep["mean_W_H"][i] is not None else "",
                ])
