"""Pipelines, the built-in benchmark model, and report determinism."""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from pencilid import (
    MethodUnsupported,
    PipelineConfig,
    building_surrogate,
    frequency_response,
    generate_experiment,
    impulse_response,
    is_stable,
    run_baseline,
    run_benchmark,
    run_smm_hf,
    run_smm_lf,
)
from pencilid import estimation
from pencilid.estimation import build_behavioral, check_persistency, n_max_bound
from pencilid.lti import load_model
from pencilid.metrics import eval_grid_logspace, h2_freq_error, h2_impulse_error
from pencilid.pipeline import report_json
from conftest import noise_free_dataset, random_stable_model


def test_surrogate_properties():
    ct = building_surrogate()
    assert ct.n == 48 and ct.nu == 1 and ct.ny == 1
    assert not ct.is_discrete
    dt = building_surrogate(ts=0.015)
    ok, radius = is_stable(dt)
    assert ok and radius < 1.0
    assert dt.ts == 0.015
    # Deterministic construction.
    dt2 = building_surrogate(ts=0.015)
    assert np.array_equal(dt.A, dt2.A) and np.array_equal(dt.C, dt2.C)


def test_pipelines_noise_free_recovery():
    rng = np.random.default_rng(0)
    model = random_stable_model(rng, 4, rho=0.8)
    ds = noise_free_dataset(model, 400, seed=1)
    cfg = PipelineConfig(order=4)
    for runner, method in ((run_smm_hf, "smm-hf"), (run_smm_lf, "smm-lf")):
        got, report = runner(ds, PipelineConfig(method=method, order=4))
        h_true = impulse_response(model, report["N"]).blocks
        h_got = impulse_response(got, report["N"]).blocks
        scale = np.abs(h_true).max()
        assert np.max(np.abs(h_got - h_true)) <= 1e-5 * scale, method
    got, report = run_baseline(ds, PipelineConfig(method="ls-hf", order=4))
    h_true = impulse_response(model, report["N"]).blocks
    h_got = impulse_response(got, report["N"]).blocks
    assert np.max(np.abs(h_got - h_true)) <= 1e-6 * np.abs(h_true).max()


def test_smm_fit_decides_the_input_window_once(monkeypatch):
    # select_N and the SMM check the rank of the same depth-(L0 + N) input
    # window; the fit decides it once.  On white noise the window is well
    # conditioned, so one Cholesky of its Gram decides it without an SVD.
    rng = np.random.default_rng(0)
    ds = generate_experiment(random_stable_model(rng, 4, rho=0.8), 400, 1e-6, seed=1)
    certified, svd_shapes, cholesky_shapes = [], [], []
    certificate, svd, cho_factor = (estimation.gram_sigma_min_exceeds, np.linalg.svd,
                                    scipy.linalg.cho_factor)

    def recording_certificate(G, rel, m):
        cholesky_shapes.clear()
        verdict = certificate(G, rel, m)
        certified.append((np.shape(G), verdict, list(cholesky_shapes)))
        return verdict

    def recording_svd(a, *args, **kwargs):
        svd_shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def recording_cho_factor(a, *args, **kwargs):
        cholesky_shapes.append(np.shape(a))
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(estimation, "gram_sigma_min_exceeds", recording_certificate)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(scipy.linalg, "cho_factor", recording_cho_factor)
    _, report = run_smm_hf(ds, PipelineConfig(method="smm-hf"))
    depth = report["L0"] + report["N"]
    window = (depth * ds.nu, ds.ns - depth + 1)
    gram = (depth * ds.nu,) * 2
    assert ([c for c in certified if c[0] == gram]
            == [(gram, True, [(depth * ds.nu,) * 2])])
    assert window not in svd_shapes


def test_baseline_rejects_non_baseline_method():
    rng = np.random.default_rng(0)
    ds = noise_free_dataset(random_stable_model(rng, 2), 100)
    with pytest.raises(MethodUnsupported):
        run_baseline(ds, PipelineConfig(method="smm-hf"))


def test_noisy_lf_rejects_mimo():
    rng = np.random.default_rng(0)
    model = random_stable_model(rng, 3, nu=2, ny=1)
    ds = noise_free_dataset(model, 200)
    with pytest.raises(MethodUnsupported):
        run_baseline(ds, PipelineConfig(method="noisy-lf", order=3))


def _small_cfg(**kw):
    base = dict(
        methods=("smm-hf", "ls-hf"),
        realizations=3,
        base_seed=7,
        ns=300,
        sigma2=1e-7,
        grid_wmin=0.05,
        grid_wmax=2.0,
        grid_count=40,
        order="auto",
    )
    base.update(kw)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def small_benchmark(tmp_path_factory):
    rng = np.random.default_rng(5)
    model = random_stable_model(rng, 4, rho=0.85)
    out = tmp_path_factory.mktemp("bench")
    cfg = _small_cfg()
    report = run_benchmark(model, cfg, out_dir=out)
    return model, cfg, report, out


def test_benchmark_report_structure(small_benchmark):
    model, cfg, report, out = small_benchmark
    assert set(report["methods"]) == {"smm-hf", "ls-hf"}
    for m in report["methods"].values():
        assert len(m["realizations"]) == 3
        assert "W_h" in m["aggregate"]
        assert "boxplot" in m
    for name in ("report.json", "model.json", "singular_values.csv",
                 "impulse.csv", "frf.csv", "boxplot.csv", "order_sweep.csv"):
        assert (out / name).exists(), name


def test_benchmark_seeds_are_consecutive(small_benchmark):
    _, cfg, report, _ = small_benchmark
    for m in report["methods"].values():
        seeds = [row["seed"] for row in m["realizations"]]
        assert seeds == [cfg.base_seed + i for i in range(cfg.realizations)]


def test_benchmark_hyperparameters_satisfy_bounds(small_benchmark):
    model, cfg, report, _ = small_benchmark
    datasets = {
        cfg.base_seed + i: generate_experiment(model, cfg.ns, cfg.sigma2,
                                               seed=cfg.base_seed + i)
        for i in range(cfg.realizations)
    }
    for m in report["methods"].values():
        for row in m["realizations"]:
            L0, N = row["L0"], row["N"]
            assert N <= n_max_bound(cfg.ns, model.nu, L0)
            bm = build_behavioral(datasets[row["seed"]], L0, N)
            full, _ = check_persistency(bm.U)
            assert full


def test_benchmark_deterministic_rerun(small_benchmark):
    model, cfg, report, _ = small_benchmark
    report2 = run_benchmark(model, cfg)
    a, b = copy.deepcopy(report), copy.deepcopy(report2)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert report_json(a) == report_json(b)


def test_emitted_model_reproduces_metrics(small_benchmark):
    model, cfg, report, out = small_benchmark
    emitted = load_model(out / "model.json")
    first_method = next(iter(report["methods"]))
    row = report["methods"][first_method]["realizations"][0]
    N = row["N"]
    _, grid_z = eval_grid_logspace(cfg.grid_wmin, cfg.grid_wmax,
                                   cfg.grid_count, model.ts)
    W_h = h2_impulse_error(impulse_response(emitted, N),
                           impulse_response(model, N))
    W_H = h2_freq_error(frequency_response(emitted, grid_z),
                        frequency_response(model, grid_z))
    assert W_h == pytest.approx(row["W_h"], abs=1e-12)
    assert W_H == pytest.approx(row["W_H"], abs=1e-12)


def test_benchmark_order_sweep(small_benchmark):
    model, _, _, _ = small_benchmark
    cfg = _small_cfg(methods=("ls-hf",), realizations=2, order_sweep=(2, 4))
    report = run_benchmark(model, cfg)
    sweep = report["methods"]["ls-hf"]["order_sweep"]
    assert sweep["orders"] == [2, 4]
    assert all(v is None or v >= 0 for v in sweep["mean_W_h"])
    # Each sweep entry equals an independent fit of every record at that
    # order, tuned to the same past window the campaign chose.
    rows = report["methods"]["ls-hf"]["realizations"]
    for r, mean_W_h in zip(sweep["orders"], sweep["mean_W_h"]):
        W_h = []
        for row in rows:
            ds = generate_experiment(model, cfg.ns, cfg.sigma2, seed=row["seed"])
            run_cfg = replace(cfg, method="ls-hf", order=r,
                              tuning=replace(cfg.tuning, L0=row["L0"]))
            fitted, fit_report = run_baseline(ds, run_cfg)
            N = fit_report["N"]
            W_h.append(h2_impulse_error(impulse_response(fitted, N),
                                        impulse_response(model, N)))
        assert mean_W_h == np.mean(W_h)


def test_benchmark_records_ill_conditioned_e():
    # Order 48 of these records gives a reduced E with cond(E) > 1e12: a
    # sweep order skips the records, the configured order fails their rows,
    # and the campaign completes either way.
    model = building_surrogate(ts=0.015)
    cfg = PipelineConfig(methods=("smm-lf",), partition_scheme="half-half",
                         realizations=2, base_seed=3, ns=600, sigma2=1e-7,
                         order_sweep=(48,))
    m = run_benchmark(model, cfg)["methods"]["smm-lf"]
    assert m["failed"] == 0
    assert m["order_sweep"]["mean_W_h"] == m["order_sweep"]["mean_W_H"] == [None]
    m = run_benchmark(model, replace(cfg, order=48))["methods"]["smm-lf"]
    assert m["failed"] == 2
    assert all(row["failed"].startswith("[step 4: model evaluation] cond(E)")
               for row in m["realizations"])


def test_benchmark_requires_discrete_model():
    with pytest.raises(MethodUnsupported):
        run_benchmark(building_surrogate(), _small_cfg())


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(method="nope")
    with pytest.raises(ValueError):
        PipelineConfig(realizations=0)
    with pytest.raises(ValueError):
        PipelineConfig(partition_scheme="nope")
