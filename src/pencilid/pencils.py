"""Loewner and Hankel pencils: construction, order selection, projection.

The Loewner pencil lives in complex arithmetic (its data sit on the unit
circle); Hankel pencils of real coefficient data stay real.  Reduction is a
two-sided projection with the dominant singular subspaces of the unshifted
matrix alone, so no polynomial (D-term) behavior is forced into the model.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DimensionError, OrderError, PointCollision
from .lti import DescriptorModel, MarkovSequence
from .spectral import FrequencySamples
from .tables import write_table

SCHEMES = ("alternate", "half-half")


@dataclass(frozen=True)
class LoewnerPencil:
    L: np.ndarray        # (k_right*ny, k_left*nu) complex
    Ls: np.ndarray
    V: np.ndarray        # (k_right*ny, nu), stacked right-side samples
    W: np.ndarray        # (ny, k_left*nu), stacked left-side samples
    left_points: np.ndarray
    right_points: np.ndarray
    ny: int
    nu: int
    scheme: str = ""
    ts: float = 1.0

    @functools.cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full SVD of ``L``, computed once and shared by every order."""
        return np.linalg.svd(self.L)


@dataclass(frozen=True)
class HankelPencil:
    H: np.ndarray        # (m*ny, m*nu), block (i, j) is h_{i+j+1}
    Hs: np.ndarray
    h0: np.ndarray       # (ny, nu)
    ts: float = 1.0

    @property
    def ny(self) -> int:
        return self.h0.shape[0]

    @property
    def nu(self) -> int:
        return self.h0.shape[1]

    @functools.cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full SVD of ``H``, computed once and shared by every order."""
        return np.linalg.svd(self.H)


@dataclass(frozen=True)
class SvdReport:
    singular_values: np.ndarray
    normalized: np.ndarray
    order_threshold: int
    order_gap: int


def _subset(samples: FrequencySamples, idx: np.ndarray) -> FrequencySamples:
    return FrequencySamples(
        points=samples.points[idx],
        values=samples.values[idx],
        omega=samples.omega[idx],
        ts=samples.ts,
    )


def partition(samples: FrequencySamples,
              scheme: str) -> tuple[FrequencySamples, FrequencySamples]:
    """Split samples into disjoint left/right interpolation sets.

    ``alternate`` sends points 1, 3, 5, ... (1-based) left and the rest
    right; ``half-half`` sends the first ceil(N/2) points left.  Odd counts
    give the extra point to the left set in both schemes.
    """
    n = len(samples)
    if n < 2:
        raise DimensionError("need at least 2 points to partition")
    idx = np.arange(n)
    if scheme == "alternate":
        left, right = idx[0::2], idx[1::2]
    elif scheme == "half-half":
        split = (n + 1) // 2
        left, right = idx[:split], idx[split:]
    else:
        raise ValueError(f"unknown partition scheme {scheme!r}; use one of {SCHEMES}")
    return _subset(samples, left), _subset(samples, right)


def build_loewner(left: FrequencySamples, right: FrequencySamples,
                  scheme: str = "", ts: Optional[float] = None) -> LoewnerPencil:
    """Divided-difference pencil from two disjoint sample sets.

    Rows follow the right set (whose samples stack into V), columns the left
    set (stacking into W); multichannel samples enter as blocks.  The sample
    period defaults to that of the samples.
    """
    zl, zr = left.points, right.points
    if left.ny != right.ny or left.nu != right.nu:
        raise DimensionError("left/right sample dimensions differ")
    ny, nu = left.ny, left.nu
    diff = zr[:, None] - zl[None, :]
    collisions = np.argwhere(np.abs(diff) <= 1e-14)
    if collisions.size:
        i, j = collisions[0]
        raise PointCollision(int(i), int(j))
    kr, kl = len(zr), len(zl)
    # (kr, kl, ny, nu) divided differences, laid out as (kr*ny, kl*nu) blocks
    zr4, zl4 = zr[:, None, None, None], zl[None, :, None, None]
    vr, vl = right.values[:, None], left.values[None, :]
    L, Ls = ((num / (zr4 - zl4)).transpose(0, 2, 1, 3).reshape(kr * ny, kl * nu)
             for num in (vr - vl, zr4 * vr - zl4 * vl))
    V = right.values.reshape(kr * ny, nu)
    W = left.values.transpose(1, 0, 2).reshape(ny, kl * nu)
    return LoewnerPencil(L=L, Ls=Ls, V=V, W=W, left_points=zl.copy(),
                         right_points=zr.copy(), ny=ny, nu=nu, scheme=scheme,
                         ts=left.ts if ts is None else ts)


def svd_order(obj: Union[np.ndarray, LoewnerPencil, HankelPencil],
              svd_threshold: float = 1e-8) -> SvdReport:
    """Singular-value decay of a pencil's unshifted matrix with two order hints.

    The threshold hint counts normalized values above ``svd_threshold``; the
    gap hint is the index of the largest log10 drop between consecutive
    values (the full dimension when the decay is flat).
    """
    if isinstance(obj, LoewnerPencil):
        M = obj.L
    elif isinstance(obj, HankelPencil):
        M = obj.H
    else:
        M = np.asarray(obj)
    if M.size == 0 or not np.any(M):
        raise DimensionError("matrix is zero; no order to reveal")
    # A values-only SVD rather than the pencil's cached full one: the full
    # (divide-and-conquer) values are accurate only to about eps * s[0], and
    # a decay is read below that (acceptance criterion 5's half-half drop).
    s = np.linalg.svd(M, compute_uv=False)
    normalized = s / s[0]
    order_threshold = max(1, int(np.count_nonzero(normalized >= svd_threshold)))
    kmax = min(len(s) - 1, 100)
    if kmax < 1:
        order_gap = len(s)
    else:
        # Values below numerical noise are all "zero"; clip them to one
        # common floor so the largest gap lands at the noise edge instead of
        # between two meaningless round-off values.
        floor = s[0] * np.finfo(s.dtype).eps * max(M.shape)
        gaps = np.log10(np.maximum(s[:kmax], floor) /
                        np.maximum(s[1:kmax + 1], floor))
        if np.max(gaps) <= 1e-12:
            order_gap = len(s)
        else:
            order_gap = int(np.argmax(gaps)) + 1
    return SvdReport(singular_values=s, normalized=normalized,
                     order_threshold=order_threshold, order_gap=order_gap)


def loewner_reduce(pencil: LoewnerPencil, r: int) -> DescriptorModel:
    """Project the pencil onto its dominant-r singular subspaces.

    Returns a complex-entry descriptor model interpolating the stored data
    (exactly when r equals the pencil rank).
    """
    if not 1 <= r <= min(pencil.L.shape):
        raise OrderError(f"order {r} outside [1, {min(pencil.L.shape)}]")
    X, _, Vh = pencil.svd
    Xr = X[:, :r]
    Yr = Vh[:r].conj().T
    E = -(Xr.conj().T @ pencil.L @ Yr)
    A = -(Xr.conj().T @ pencil.Ls @ Yr)
    B = Xr.conj().T @ pencil.V
    C = pencil.W @ Yr
    return DescriptorModel(A=A, B=B, C=C, D=None, E=E, ts=pencil.ts)


def build_hankel(h: MarkovSequence) -> HankelPencil:
    """Square block-Hankel pencil from coefficients h_1 .. h_{2m}.

    The block depth m = floor((N-1)/2) is the largest for which both the
    matrix and its shift index only available coefficients.
    """
    N = len(h)
    if N < 3:
        raise DimensionError("need at least 3 coefficients (N >= 3)")
    m = (N - 1) // 2
    ny, nu = h.ny, h.nu
    idx = np.arange(m)[:, None] + np.arange(m)[None, :]
    # block (i, j) of H is h_{i+j+1}, of Hs h_{i+j+2}
    H, Hs = (h.blocks[idx + k].transpose(0, 2, 1, 3).reshape(m * ny, m * nu)
             for k in (1, 2))
    return HankelPencil(H=H, Hs=Hs, h0=h.blocks[0].copy(), ts=h.ts)


def hankel_reduce(pencil: HankelPencil, r: int) -> DescriptorModel:
    """Projected partial realization of order r from the Hankel pencil.

    Exact (reproduces the used coefficient window) when r equals the
    numerical rank of the Hankel matrix.
    """
    if not 1 <= r <= min(pencil.H.shape):
        raise OrderError(f"order {r} outside [1, {min(pencil.H.shape)}]")
    X, _, Vh = pencil.svd
    Xr = X[:, :r]
    Yr = Vh[:r].T
    E = Xr.T @ pencil.H @ Yr
    A = Xr.T @ pencil.Hs @ Yr
    # h_1 .. h_m: H's first block row gives C, its first block column B
    C = pencil.H[: pencil.ny] @ Yr
    B = Xr.T @ np.ascontiguousarray(pencil.H[:, : pencil.nu])
    return DescriptorModel(A=A, B=B, C=C, D=pencil.h0, E=E, ts=pencil.ts)


def save_singular_values(s: np.ndarray, path) -> None:
    """CSV export of a singular-value decay: index, sigma, sigma/sigma_1."""
    s = np.asarray(s, dtype=float)
    write_table(path, ["index", "sigma", "sigma_normalized"],
                ([i, v, v / s[0]] for i, v in enumerate(s.tolist(), start=1)))
