"""Shared helpers: random stable systems and compact datasets."""

import numpy as np

from pencilid import DescriptorModel, SignalSequence, impulse_response, simulate
from pencilid.dataio import Dataset


def random_stable_model(rng, n, nu=1, ny=1, rho=0.9, with_d=False):
    """Random standard-form discrete model with spectral radius <= rho."""
    A = rng.normal(size=(n, n))
    radius = np.max(np.abs(np.linalg.eigvals(A)))
    if radius > 0:
        A = A * (rho / radius)
    B = rng.normal(size=(n, nu))
    C = rng.normal(size=(ny, n))
    D = rng.normal(size=(ny, nu)) if with_d else None
    return DescriptorModel(A=A, B=B, C=C, D=D, ts=1.0)


def noise_free_dataset(model, ns, seed=0, input_std=1.0):
    """White-noise experiment without output noise (exact data)."""
    rng = np.random.default_rng(seed)
    u = SignalSequence(
        rng.normal(0.0, input_std, size=(ns, model.nu)), ts=model.ts
    )
    y = simulate(model, u)
    return Dataset(u=u, y=y, y_clean=y, sigma2_true=0.0, seed=seed)


def fir_model(coeffs, nu=1, ny=1):
    """FIR system whose Markov parameters are exactly ``coeffs`` (h_0 first)."""
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, ny, nu)
    taps = len(coeffs) - 1
    n = taps * nu
    A = np.zeros((n, n))
    for i in range(taps - 1):
        A[(i + 1) * nu : (i + 2) * nu, i * nu : (i + 1) * nu] = np.eye(nu)
    B = np.zeros((n, nu))
    B[:nu, :] = np.eye(nu)
    C = np.zeros((ny, n))
    for k in range(1, taps + 1):
        C[:, (k - 1) * nu : k * nu] = coeffs[k]
    return DescriptorModel(A=A, B=B, C=C, D=coeffs[0], ts=1.0)


def exact_markov(model, N):
    return impulse_response(model, N)


def count_svd_calls(monkeypatch):
    """Count every ``np.linalg.svd`` call from now on; returns the list the
    calls append to."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls
