"""Loewner and Hankel pencils: construction, order selection, projection.

Both frameworks give one full-order realization of the data, a
:class:`Pencil` (E, A, B, C, D).  The Hankel pencil is Kung's shift
realization (H, Hs, first block column, first block row, h_0); the Loewner
pencil is the descriptor realization (L, Ls, -V, W), whose data sit on the
unit circle, so it lives in complex arithmetic.  One :func:`reduce` truncates
either: a two-sided projection with the dominant singular subspaces of E
alone, so no polynomial (D-term) behavior is forced into the model, and the
reduced E is the diagonal of the leading singular values.
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
class Pencil:
    """Full-order realization read off the data: C (zE - A)^-1 B + D.

    ``E`` is the unshifted matrix (Hankel H or Loewner L), ``A`` its shifted
    partner; ``B`` and ``C`` carry the data into and out of the pencil.
    """

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: Optional[np.ndarray] = None
    ts: float = 1.0
    scheme: str = ""

    @functools.cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full SVD of ``E``, computed once and shared by every order."""
        return np.linalg.svd(self.E)


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
                  scheme: str = "", ts: Optional[float] = None) -> Pencil:
    """Divided-difference pencil from two disjoint sample sets.

    Rows follow the right set (whose samples stack into V), columns the left
    set (stacking into W); multichannel samples enter as blocks.  The
    realization is (E, A, B, C) = (L, Ls, -V, W), so that
    C (zE - A)^-1 B = W (Ls - zL)^-1 V.  The sample period defaults to that
    of the samples.
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
    return Pencil(E=L, A=Ls, B=-V, C=W, scheme=scheme,
                  ts=left.ts if ts is None else ts)


def svd_order(obj: Union[np.ndarray, Pencil],
              svd_threshold: float = 1e-8) -> SvdReport:
    """Singular-value decay of a pencil's unshifted matrix with two order hints.

    The threshold hint counts normalized values above ``svd_threshold``; the
    gap hint is the index of the largest log10 drop between consecutive
    values (the full dimension when the decay is flat).
    """
    M = np.asarray(getattr(obj, "E", obj))
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


def build_hankel(h: MarkovSequence) -> Pencil:
    """Square block-Hankel pencil from coefficients h_1 .. h_{2m}.

    The block depth m = floor((N-1)/2) is the largest for which both the
    matrix and its shift index only available coefficients.  The realization
    is Kung's: E = H, A = its shift, B and C the first block column and row
    (h_1 .. h_m), D = h_0.
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
    return Pencil(E=H, A=Hs, B=np.ascontiguousarray(H[:, :nu]), C=H[:ny],
                  D=h.blocks[0].copy(), ts=h.ts, scheme="hankel")


def reduce(pencil: Pencil, r: int) -> DescriptorModel:
    """Project the pencil onto the dominant-r singular subspaces of ``E``.

    With E = X diag(s) Y^H (the pencil's one SVD), the model is
    (E, A, B, C, D) = (diag(s_1 .. s_r), X_r^H A Y_r, X_r^H B, C Y_r, D): the
    projection X_r^H E Y_r equals diag(s_1 .. s_r) in exact arithmetic, so it
    is read off the SVD instead of formed.  The model keeps its E, so cond(E)
    is judged where the model is evaluated.  Exact (reproduces the data the
    pencil holds) when r equals the numerical rank of ``E``.  Raises
    :class:`DimensionError` when ``E`` is zero.
    """
    if not 1 <= r <= min(pencil.E.shape):
        raise OrderError(f"order {r} outside [1, {min(pencil.E.shape)}]")
    X, s, Vh = pencil.svd
    if s[0] == 0:
        raise DimensionError("matrix is zero; no order to reveal")
    Xh = X[:, :r].conj().T
    Yr = Vh[:r].conj().T
    return DescriptorModel(A=Xh @ pencil.A @ Yr, B=Xh @ pencil.B, C=pencil.C @ Yr,
                           D=pencil.D, E=np.diag(s[:r]), ts=pencil.ts)


# Names kept for callers that name the pencil kind.
hankel_reduce = loewner_reduce = reduce


def save_singular_values(s: np.ndarray, path) -> None:
    """CSV export of a singular-value decay: index, sigma, sigma/sigma_1."""
    s = np.asarray(s, dtype=float)
    write_table(path, ["index", "sigma", "sigma_normalized"],
                ([i, v, v / s[0]] for i, v in enumerate(s.tolist(), start=1)))
