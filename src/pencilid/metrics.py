"""Error and fit measures for estimated impulse and frequency responses."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateReference, DimensionError, GridError
from .lti import MarkovSequence


def fit_percentage(h_hat: MarkovSequence, h_true: MarkovSequence) -> float:
    """Fit of an estimated impulse response to the reference, in percent.

    100 * (1 - rmse / rms deviation of the reference from its mean); 100 is a
    perfect fit, 0 matches the trivial constant-at-the-mean predictor.
    Multichannel blocks contribute entrywise.
    """
    a, b = np.asarray(h_hat.blocks), np.asarray(h_true.blocks)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    ref = np.sum((b - b.mean()) ** 2)
    if ref == 0.0:
        raise DegenerateReference("reference impulse response is constant")
    return float(100.0 * (1.0 - np.sqrt(np.sum((b - a) ** 2) / ref)))


def _normalized_error(a, b, kind: str) -> float:
    """sqrt(sum |a - b|^2 / sum |b|^2) over every entry."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    ref = np.sum(np.abs(b) ** 2)
    if ref == 0.0:
        raise DegenerateReference(f"reference {kind} response is zero")
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) / ref))


def h2_impulse_error(h_hat: MarkovSequence, h_true: MarkovSequence) -> float:
    """Normalized 2-norm error between impulse responses."""
    return _normalized_error(h_hat.blocks, h_true.blocks, "impulse")


def h2_freq_error(H_hat: np.ndarray, H_true: np.ndarray) -> float:
    """Normalized 2-norm error between frequency responses on a shared grid.

    Arguments are (N, ny, nu) complex arrays of samples; each grid point
    contributes its Frobenius norm.
    """
    return _normalized_error(H_hat, H_true, "frequency")


def eval_grid_logspace(w_min: float, w_max: float, count: int,
                       ts: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced evaluation grid in rad/s, mapped onto the unit circle.

    Returns (omega, z) with z_k = exp(i * omega_k * ts).  The top frequency
    must stay below Nyquist.
    """
    if not 0 < w_min < w_max:
        raise GridError(f"need 0 < w_min < w_max, got [{w_min}, {w_max}]")
    if w_max * ts >= np.pi:
        raise GridError(
            f"w_max*ts = {w_max * ts:.4g} violates the Nyquist bound pi"
        )
    if count < 2:
        raise GridError("count must be >= 2")
    omega = np.logspace(np.log10(w_min), np.log10(w_max), count)
    return omega, np.exp(1j * omega * ts)
