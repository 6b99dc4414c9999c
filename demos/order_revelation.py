"""How the data partition decides whether the Loewner matrix reveals order.

Frequency samples split into left/right sets in two ways feed two Loewner
matrices.  Interleaving the sets ("alternate") keeps the matrix well
conditioned but nearly full rank; splitting the grid in half ("half-half")
makes the singular values collapse right at the true system order.  The demo
prints both decays side by side for the 48th-order benchmark model.

Run:  python demos/order_revelation.py
"""

import numpy as np

from pencilid import (
    TuningConfig,
    build_loewner,
    building_surrogate,
    generate_experiment,
    markov_to_frequency,
    partition,
    svd_order,
)
from pencilid.pipeline import estimate

NS, TS, SIGMA2 = 1000, 0.015, 1e-7

model = building_surrogate(ts=TS)
ds = generate_experiment(model, NS, SIGMA2, seed=0)

h, tune = estimate(ds, TuningConfig(alpha=0.4), "smm")
L0, N = tune["L0"], tune["N"]
samples = markov_to_frequency(h)
print(f"L0 = {L0}, N = {N}: {len(samples)} frequency samples\n")

decays = {}
for scheme in ("half-half", "alternate"):
    pencil = build_loewner(*partition(samples, scheme), scheme=scheme, ts=TS)
    rep = svd_order(pencil)
    decays[scheme] = rep.normalized
    print(f"{scheme:10s}: suggested order {rep.order_gap} (largest gap), "
          f"{rep.order_threshold} (threshold)")

print(f"\ntrue order: {model.n}")
print("\nnormalized singular values (log10):")
print(f"{'k':>4s} {'half-half':>10s} {'alternate':>10s}")
hh, alt = decays["half-half"], decays["alternate"]
for k in range(0, min(len(hh), len(alt)), 4):
    print(f"{k + 1:4d} {np.log10(hh[k]):10.2f} {np.log10(alt[k]):10.2f}")

drop = np.log10(hh[39] / hh[55])
print(f"\nhalf-half drop across indices 40..56: {drop:.1f} decades")
