"""Noise robustness of the signal-matrix estimator vs plain least squares.

Repeats the benchmark experiment over many noise realizations and compares
the fit of the two impulse-response estimates to the true response.  The
signal-matrix estimator constrains the estimate to be a system trajectory of
the observed record, which suppresses the truncation bias a finite-horizon
least-squares fit picks up from the response tail - at a modest variance
cost.  Expect its median fit to sit a few points above least squares.

Run:  python demos/noise_robustness.py [realizations]
"""

import sys

import numpy as np

from pencilid import (
    TuningConfig,
    building_surrogate,
    fit_percentage,
    generate_experiment,
    impulse_response,
)
from pencilid.estimation import cross_correlation
from pencilid.pipeline import estimate

R = int(sys.argv[1]) if len(sys.argv) > 1 else 20
NS, TS, SIGMA2, ALPHA = 1000, 0.015, 1e-7, 0.4

model = building_surrogate(ts=TS)
print(f"true model: order {model.n}, sampled at {TS * 1e3:.0f} ms")
print(f"{R} realizations of {NS} samples, output-noise variance {SIGMA2:g}\n")

datasets = [generate_experiment(model, NS, SIGMA2, seed=i) for i in range(R)]

# One past-window length for the whole campaign, from the averaged
# cross-correlation (individual records are too noisy to threshold).
corr = np.mean([cross_correlation(d) for d in datasets], axis=0)
tuning = TuningConfig(alpha=ALPHA)

w_ls, w_smm, sigma2s = [], [], []
for ds in datasets:
    h_ls, tune = estimate(ds, tuning, "ls", corr)
    h_smm, _ = estimate(ds, tuning, "smm", corr)
    h_true = impulse_response(model, tune["N"])
    w_ls.append(fit_percentage(h_ls, h_true))
    w_smm.append(fit_percentage(h_smm, h_true))
    sigma2s.append(tune["sigma2_hat"])

print(f"past window L0 = {tune['L0']} (threshold margin alpha = {ALPHA})")
print(f"horizon N = {tune['N']}, median sigma2_hat = {np.median(sigma2s):.2e}\n")

for name, w in (("least squares ", w_ls), ("signal matrix ", w_smm)):
    q25, q50, q75 = np.percentile(w, [25, 50, 75])
    print(f"{name}: fit W median {q50:6.2f}  (q25 {q25:6.2f}, q75 {q75:6.2f})")
print(f"\nmedian margin: {np.median(w_smm) - np.median(w_ls):+.2f} points")
