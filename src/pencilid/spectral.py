"""Frequency-domain bridges: Markov coefficients to unit-circle samples, and
the plain spectral-ratio frequency-response estimator used as a baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .errors import DimensionError, FormatError, MethodUnsupported, SpectralDivisionError
from .lti import MarkovSequence
from .tables import channel_header, read_table, write_table


@dataclass(frozen=True)
class FrequencySamples:
    """Transfer-function samples on unit-circle points.

    ``points`` are the complex z_k, ``values`` the (ny, nu) sample matrices,
    ``omega`` the angles in rad/sample, ``ts`` the sample period of the
    system they describe.
    """

    points: np.ndarray   # (N,) complex, |z| = 1
    values: np.ndarray   # (N, ny, nu) complex
    omega: np.ndarray    # (N,) rad/sample
    ts: float = 1.0

    def __post_init__(self):
        points = np.asarray(self.points, dtype=complex)
        values = np.asarray(self.values, dtype=complex)
        omega = np.asarray(self.omega, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1, 1)
        if not (len(points) == len(values) == len(omega)):
            raise DimensionError("points, values and omega lengths differ")
        if np.max(np.abs(np.abs(points) - 1.0)) > 1e-12:
            raise DimensionError("points must lie on the unit circle")
        if len(np.unique(np.round(points, 13))) != len(points):
            raise DimensionError("points must be pairwise distinct")
        for arr in (points, values, omega):
            arr.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "omega", omega)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def nu(self) -> int:
        return self.values.shape[2]


def markov_to_frequency(h: MarkovSequence) -> FrequencySamples:
    """DFT of the coefficient blocks onto the full grid omega_i = 2*pi*i/N.

    The grid keeps the conjugate-redundant upper half; downstream pencil
    construction uses all N points.  The samples equal the transfer function
    H(e^{j omega_i}) only if h has decayed by N: this is the DFT of the
    truncated FIR, so a response that outlasts N leaves its tail aliased
    into every sample.
    """
    N = len(h)
    if N < 2:
        raise DimensionError("need at least 2 coefficients")
    values = np.fft.fft(h.blocks, axis=0)
    omega = 2.0 * np.pi * np.arange(N) / N
    points = np.exp(1j * omega)
    return FrequencySamples(points=points, values=values, omega=omega, ts=h.ts)


def estimate_frf_spectral(dataset: Dataset, n_grid: int) -> FrequencySamples:
    """Spectral-ratio frequency-response estimate on an N-point grid.

    Computes the ratio of the cross power spectral density of output and
    input to the input auto-spectrum, both from plain (unwindowed, unaveraged)
    periodograms of the full record evaluated at omega_i = 2*pi*i/N.  Noise is
    not accounted for; this is the naive comparator.  Single-channel only.
    """
    if dataset.nu != 1 or dataset.ny != 1:
        raise MethodUnsupported("spectral-ratio estimator is single-channel only")
    if n_grid < 2:
        raise DimensionError("grid needs at least 2 points")
    # The z-transform of the full record on the grid, sum_n x_n e^{-2 pi i k n/N},
    # depends on n only modulo N: fold the record onto N samples, take one FFT.
    uy = np.hstack([dataset.u.samples, dataset.y.samples])
    uy = np.pad(uy, ((0, -dataset.ns % n_grid), (0, 0)))
    U, Y = np.fft.fft(uy.reshape(-1, n_grid, 2).sum(axis=0), axis=0).T
    Suu = (U * np.conj(U)).real / dataset.ns
    Syu = Y * np.conj(U) / dataset.ns
    bad = Suu <= 1e-14 * np.max(Suu)
    if np.any(bad):
        raise SpectralDivisionError(
            f"input auto-spectrum vanishes at bins {np.nonzero(bad)[0].tolist()}"
        )
    H = Syu / Suu
    omega = 2.0 * np.pi * np.arange(n_grid) / n_grid
    return FrequencySamples(points=np.exp(1j * omega),
                            values=H.reshape(-1, 1, 1), omega=omega, ts=dataset.ts)


def save_frequency_samples(samples: FrequencySamples, path) -> None:
    """CSV export: one row per grid point, re/im columns per channel pair
    (``re(H_i_j)``, ``im(H_i_j)``), and the sample period in a trailing
    ``ts`` column of the first row."""
    values = samples.values.reshape(len(samples), -1)
    reim = np.stack([values.real, values.imag], axis=-1).reshape(len(samples), -1)
    write_table(path, channel_header("frequency", samples.ny, samples.nu),
                ([w, *row] for w, row in zip(samples.omega.tolist(), reim.tolist())),
                ts=samples.ts)


def load_frequency_samples(path) -> FrequencySamples:
    """Read unit-circle samples written by :func:`save_frequency_samples`."""
    (ny, nu), table, ts = read_table(path, "frequency")
    omega = table[:, 0].copy()
    values = (table[:, 1::2] + 1j * table[:, 2::2]).reshape(len(table), ny, nu)
    try:
        return FrequencySamples(points=np.exp(1j * omega), values=values, omega=omega,
                                ts=ts if ts is not None else 1.0)
    except DimensionError as exc:
        raise FormatError(f"{path}: {exc}") from None
