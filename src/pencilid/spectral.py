"""Frequency-domain bridges: Markov coefficients to unit-circle samples, and
the plain spectral-ratio frequency-response estimator used as a baseline."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.signal

from .dataio import Dataset
from .errors import DimensionError, MethodUnsupported, SpectralDivisionError
from .lti import MarkovSequence


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
    u = dataset.u.samples[:, 0]
    y = dataset.y.samples[:, 0]
    if n_grid == dataset.ns:
        U = np.fft.fft(u)
        Y = np.fft.fft(y)
    else:
        # z-transform of the full record on an arbitrary N-point circle grid
        w = np.exp(-2j * np.pi / n_grid)
        U = scipy.signal.czt(u, m=n_grid, w=w)
        Y = scipy.signal.czt(y, m=n_grid, w=w)
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
    header = ["omega"]
    for i in range(samples.ny):
        for j in range(samples.nu):
            header += [f"re(H_{i + 1}_{j + 1})", f"im(H_{i + 1}_{j + 1})"]
    header.append("ts")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for k in range(len(samples)):
            row = [repr(float(samples.omega[k]))]
            for i in range(samples.ny):
                for j in range(samples.nu):
                    v = samples.values[k, i, j]
                    row += [repr(float(v.real)), repr(float(v.imag))]
            row.append(repr(float(samples.ts)) if k == 0 else "")
            writer.writerow(row)


def load_frequency_samples(path) -> FrequencySamples:
    """Read unit-circle samples written by :func:`save_frequency_samples`."""
    from .errors import FormatError

    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        labels = [c[5:-1].split("_") for c in header if c.startswith("re(H_")]
        if not labels or header[0] != "omega" or header[-1] != "ts":
            raise FormatError(
                f"{path}: header must be omega,re(H_1_1),im(H_1_1),...,ts")
        ny = max(int(i) for i, _ in labels)
        nu = max(int(j) for _, j in labels)
        omega, values, ts = [], [], None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 + 2 * ny * nu:
                raise FormatError(
                    f"{path}: line {lineno}: expected {2 + 2 * ny * nu} columns"
                )
            try:
                omega.append(float(row[0]))
                flat = [float(v) for v in row[1:-1]]
                if row[-1]:
                    ts = float(row[-1])
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from None
            re = np.asarray(flat[0::2]).reshape(ny, nu)
            im = np.asarray(flat[1::2]).reshape(ny, nu)
            values.append(re + 1j * im)
    if not omega:
        raise FormatError(f"{path}: no sample rows")
    omega = np.asarray(omega)
    try:
        return FrequencySamples(points=np.exp(1j * omega),
                                values=np.asarray(values), omega=omega,
                                ts=ts if ts is not None else 1.0)
    except DimensionError as exc:
        raise FormatError(f"{path}: {exc}") from None
