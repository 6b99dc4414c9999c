"""Markov-parameter estimation from input-output records.

Two estimators are provided: the classical least-squares FIR fit, and the
regularized signal-matrix (behavioral) estimator that stays unbiased when the
impulse-response truncation error is not negligible.  The hyper-parameter
rules (past-window length from the input-output cross-correlation, horizon
from the persistency bound, noise variance from the residual of an LS fit
that spans the correlation support) live here too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.signal
from numpy.lib.stride_tricks import sliding_window_view

from .dataio import Dataset
from .errors import (
    DegenerateDenominator,
    IllConditionedSaddle,
    InsufficientLags,
    NotPersistentlyExciting,
    NoValidN,
    OutOfRange,
    RankDeficientRegressor,
)
from .lti import MarkovSequence, SignalSequence


@dataclass(frozen=True)
class TuningConfig:
    """Knobs for the hyper-parameter rules; explicit values override the rules."""

    alpha: float = 0.4              # margin on the negative-lag correlation level
    svd_threshold: float = 1e-8     # relative singular-value cut for order hints
    rank_rtol: float = 1e-10        # relative tolerance for numerical rank
    L0: Optional[int] = None
    N: Optional[int] = None
    sigma2: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.svd_threshold <= 0 or self.rank_rtol <= 0:
            raise ValueError("thresholds must be positive")


@dataclass(frozen=True)
class BehavioralMatrices:
    """Past/future input and output data matrices sharing M' columns."""

    Up: np.ndarray
    Uf: np.ndarray
    Yp: np.ndarray
    Yf: np.ndarray
    L0: int
    N: int

    @property
    def U(self) -> np.ndarray:
        return np.vstack([self.Up, self.Uf])

    @property
    def L_total(self) -> int:
        return self.L0 + self.N

    @property
    def cols(self) -> int:
        return self.Up.shape[1]


def block_hankel(signal: SignalSequence, depth: int, start: int = 0,
                 cols: Optional[int] = None) -> np.ndarray:
    """Block-Hankel matrix of a signal window.

    Block row i, column j holds the sample at time ``start + i + j``; the
    channels of one sample are stacked consecutively, so the row ordering for
    a 2-channel signal of depth 2 is [ch1(k); ch2(k); ch1(k+1); ch2(k+1)].
    """
    K = len(signal)
    if cols is None:
        cols = K - start - depth + 1
    if depth < 1 or cols < 1 or start < 0:
        raise OutOfRange(f"invalid window: depth={depth}, start={start}, cols={cols}")
    if start + depth + cols - 1 > K:
        raise OutOfRange(
            f"window needs {start + depth + cols - 1} samples, signal has {K}"
        )
    # (cols, nch, depth) view: [j, c, i] is channel c at time start + i + j
    window = sliding_window_view(signal.samples[start : start + depth + cols - 1],
                                 depth, axis=0)
    return window.transpose(2, 1, 0).reshape(-1, cols).copy()


def build_behavioral(dataset: Dataset, L0: int, N: int) -> BehavioralMatrices:
    """Split the record's depth-(L0 + N) windows into past/future rows."""
    L_total = L0 + N
    M = dataset.ns - L_total + 1
    if M < 1:
        raise OutOfRange(
            f"N_s={dataset.ns} too short for L0={L0}, N={N} (M'={M})"
        )
    U = block_hankel(dataset.u, L_total, 0, M)
    Y = block_hankel(dataset.y, L_total, 0, M)
    nu, ny = dataset.nu, dataset.ny
    return BehavioralMatrices(Up=U[: L0 * nu], Uf=U[L0 * nu :],
                              Yp=Y[: L0 * ny], Yf=Y[L0 * ny :], L0=L0, N=N)


def check_persistency(U: np.ndarray, rank_rtol: float = 1e-10) -> tuple[bool, int]:
    """Numerical row rank of a data matrix via SVD.

    Returns (full_row_rank, numerical_rank).  The cutoff is
    ``rank_rtol * sigma_max * max(shape)``.
    """
    if U.size == 0:
        return U.shape[0] == 0, 0
    s = np.linalg.svd(U, compute_uv=False)
    tol = rank_rtol * s[0] * max(U.shape)
    rank = int(np.count_nonzero(s > tol))
    return rank == U.shape[0], rank


def _ls_regression(dataset: Dataset, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Regression pair (U_reg, Y_reg) for the FIR fit y_t = sum_k h_k u_{t-k}.

    Row t (t = N-1 .. N_s-1) of U_reg holds [u_t, u_{t-1}, ..., u_{t-N+1}]:
    the depth-N input window with its block rows reversed, transposed.
    """
    nu = dataset.nu
    window = block_hankel(dataset.u, N).reshape(N, nu, -1)[::-1]
    U_reg = np.ascontiguousarray(window.reshape(N * nu, -1).T)
    return U_reg, dataset.y.samples[N - 1 :]


def estimate_markov_ls(dataset: Dataset, N: int,
                       rank_rtol: float = 1e-10) -> MarkovSequence:
    """Least-squares FIR estimate of the first N Markov parameter blocks.

    Solved with an SVD-based minimum-norm solver; the regression matrix must
    have full column rank.
    """
    if N < 1:
        raise OutOfRange("N must be >= 1")
    if N >= (dataset.ns + 1) / 2:
        raise OutOfRange(
            f"N={N} too large for N_s={dataset.ns} (need N < (N_s+1)/2)"
        )
    U_reg, Y_reg = _ls_regression(dataset, N)
    full, rank = check_persistency(U_reg.T, rank_rtol)
    if not full:
        raise RankDeficientRegressor(
            f"regression matrix rank {rank} < {N * dataset.nu}"
        )
    H_stack, *_ = np.linalg.lstsq(U_reg, Y_reg, rcond=None)
    # row k * nu + j of H_stack is input j of h_k
    blocks = H_stack.reshape(N, dataset.nu, dataset.ny).transpose(0, 2, 1)
    return MarkovSequence(np.ascontiguousarray(blocks), ts=dataset.ts)


def estimate_noise_variance(dataset: Dataset, h_ls: MarkovSequence, N: int,
                            L0: Optional[int] = None) -> float:
    """Noise-variance estimate from an LS residual, ||U h - Y||^2 / (N_s - N_var).

    The residual is that of the LS fit over N_var = max(N, L0 + 1) taps,
    capped below the LS bound (N_s + 1) / 2 but never below N; without
    ``L0``, N_var = N.  The fit must span the support of the response, which
    the past window L0 measures (past that lag the cross-correlation is
    noise): a shorter fit leaves the tail of h in the residual and inflates
    the estimate.  When N_var = N the N-tap estimate ``h_ls`` is reused;
    otherwise the wider fit is solved here, minimum-norm, so its residual is
    defined even where the regressor is rank deficient.
    """
    N_var = N if L0 is None else max(N, min(L0 + 1, dataset.ns // 2))
    if N_var >= dataset.ns:
        raise DegenerateDenominator(f"N={N_var} >= N_s={dataset.ns}")
    U_reg, Y_reg = _ls_regression(dataset, N_var)
    if N_var == N:
        H_stack = np.ascontiguousarray(
            h_ls.blocks.transpose(0, 2, 1).reshape(N * dataset.nu, dataset.ny))
    else:
        H_stack, *_ = np.linalg.lstsq(U_reg, Y_reg, rcond=None)
    resid = U_reg @ H_stack - Y_reg
    return float(np.sum(resid**2) / (dataset.ns - N_var))


def cross_correlation(dataset: Dataset) -> np.ndarray:
    """Biased input-output cross-correlation over lags -(N_s-1) .. N_s-1.

    R(tau) = sum_k y_{k+tau} u_k / N_s; the zero lag sits at index N_s-1.
    For multichannel data the maximum absolute value over all channel pairs
    is returned per lag.
    """
    ns = dataset.ns
    u, y = dataset.u.samples, dataset.y.samples
    if dataset.nu == 1 and dataset.ny == 1:
        return scipy.signal.correlate(y[:, 0], u[:, 0], mode="full") / ns
    out = np.zeros(2 * ns - 1)
    for i in range(dataset.ny):
        for j in range(dataset.nu):
            r = scipy.signal.correlate(y[:, i], u[:, j], mode="full") / ns
            out = np.maximum(out, np.abs(r))
    return out


def select_L0(R: np.ndarray, alpha: float = 0.4) -> int:
    """Past-window length from the decay of the cross-correlation.

    The threshold is (1+alpha) times the largest magnitude on the negative
    lags (pure estimation noise for a causal system); the returned lag is the
    smallest L0 such that every lag beyond it stays below the threshold.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 1 or len(R) % 2 != 1 or len(R) < 3:
        raise InsufficientLags("R must be an odd-length centered lag sequence")
    center = len(R) // 2
    neg = R[:center]
    if neg.size == 0:
        raise InsufficientLags("no negative lags available")
    eps = (1.0 + alpha) * float(np.max(np.abs(neg)))
    pos = np.abs(R[center + 1 :])
    over = np.nonzero(pos > eps)[0]
    if over.size == 0:
        return 1
    L0 = int(over[-1]) + 1
    if L0 == pos.size:
        warnings.warn(
            "cross-correlation never settles below the threshold; "
            "using the maximum available lag", stacklevel=2,
        )
    return L0


def n_max_bound(ns: int, nu: int, L0: int) -> int:
    """Upper bound on the estimable horizon from the persistency condition."""
    return int(np.floor((ns + 1) / (nu + 1) - L0))


def select_N(dataset: Dataset, L0: int, rank_rtol: float = 1e-10) -> int:
    """Horizon length: half the persistency bound, decremented until the
    depth-(L0 + N) input window [Up; Uf] has full row rank."""
    n_max = n_max_bound(dataset.ns, dataset.nu, L0)
    if n_max < 2:
        raise NoValidN(f"N_max={n_max} < 2 for N_s={dataset.ns}, L0={L0}")
    N = n_max // 2
    while N >= 1:
        full, _ = check_persistency(block_hankel(dataset.u, L0 + N), rank_rtol)
        if full:
            return N
        N -= 1
    raise NoValidN("no horizon yields a full-row-rank input data matrix")


# ---------------------------------------------------------------------------
# Signal-matrix (behavioral) estimator
# ---------------------------------------------------------------------------

_SIGMA2_FLOOR_REL = 1e-12  # times ||Yp||_2^2, keeps the Gram matrix invertible


def _smm_solver(bm: BehavioralMatrices, sigma2: float, rank_rtol: float = 1e-10):
    """Factorized pieces of the saddle-point solution.

    Returns (solve_F, FiUt, solve_S, U) where solve_F applies F^{-1} with
    F = Yp'Yp + L' sigma2 I, and solve_S applies (U F^{-1} U')^{-1}.
    """
    U = bm.U
    full, rank = check_persistency(U, rank_rtol)
    if not full:
        raise NotPersistentlyExciting(
            f"input data matrix rank {rank} < {U.shape[0]} rows"
        )
    yp_norm = np.linalg.norm(bm.Yp, 2) if bm.Yp.size else 0.0
    floor = max(_SIGMA2_FLOOR_REL * yp_norm**2, np.finfo(float).tiny)
    floored = sigma2 < floor
    if floored:
        sigma2 = floor
    M = bm.cols
    cF = None
    while cF is None:
        F = bm.Yp.T @ bm.Yp + bm.L_total * sigma2 * np.eye(M)
        try:
            cF = scipy.linalg.cho_factor(F)
        except scipy.linalg.LinAlgError:
            # The floor exists to keep F invertible; escalate it (a few
            # orders at most) before giving up.  User-supplied variances are
            # never overridden.
            if floored and sigma2 < _SIGMA2_FLOOR_REL * 1e6 * yp_norm**2:
                sigma2 *= 100.0
                continue
            raise IllConditionedSaddle(
                "Gram matrix not positive definite; increase sigma2"
            ) from None
    FiUt = scipy.linalg.cho_solve(cF, U.T)
    S = U @ FiUt
    S = 0.5 * (S + S.T)
    try:
        cS = scipy.linalg.cho_factor(S)
    except scipy.linalg.LinAlgError:
        raise IllConditionedSaddle(
            "saddle system U F^{-1} U' numerically singular; increase sigma2"
        ) from None

    def solve_F(x):
        return scipy.linalg.cho_solve(cF, x)

    def solve_S(x):
        return scipy.linalg.cho_solve(cS, x)

    return solve_F, FiUt, solve_S


def _smm_g(bm: BehavioralMatrices, solve_F, FiUt, solve_S,
           u_ini: np.ndarray, y_ini: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Trajectory selector g for one right-hand side [u_ini; u] and y_ini."""
    rhs_u = np.concatenate([u_ini, u])
    g = FiUt @ solve_S(rhs_u)
    if np.any(y_ini):
        v = bm.Yp.T @ y_ini
        Fv = solve_F(v)
        g = g + Fv - FiUt @ solve_S(FiUt.T @ Fv)
    return g


def estimate_markov_smm(dataset: Dataset, L0: int, N: int,
                        sigma2: float, rank_rtol: float = 1e-10) -> MarkovSequence:
    """Signal-matrix estimate of the first N Markov parameter blocks.

    The impulse response is recovered as the data-driven trajectory for zero
    initial windows and a unit impulse input; multi-input systems are handled
    with one impulse per input channel, filling the block columns.
    """
    bm = build_behavioral(dataset, L0, N)
    solve_F, FiUt, solve_S = _smm_solver(bm, sigma2, rank_rtol)
    nu, ny = dataset.nu, dataset.ny
    u_ini = np.zeros(L0 * nu)
    y_ini = np.zeros(L0 * ny)
    blocks = np.empty((N, ny, nu))
    for j in range(nu):
        u = np.zeros(N * nu)
        u[j] = 1.0
        g = _smm_g(bm, solve_F, FiUt, solve_S, u_ini, y_ini, u)
        yhat = bm.Yf @ g
        blocks[:, :, j] = yhat.reshape(N, ny)
    return MarkovSequence(blocks, ts=dataset.ts)


def data_driven_response(dataset: Dataset, u_ini, y_ini, u,
                         sigma2: float, rank_rtol: float = 1e-10) -> np.ndarray:
    """Predict the output trajectory for an input window and initial windows.

    ``u_ini``/``y_ini`` fix the initial conditions over the past window and
    ``u`` drives the future window; lengths (in samples) set L0 and N.
    Returns the predicted outputs with shape (N, ny).
    """
    nu, ny = dataset.nu, dataset.ny
    u_ini = np.asarray(u_ini, dtype=float).reshape(-1)
    y_ini = np.asarray(y_ini, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if u_ini.size % nu or u.size % nu or y_ini.size % ny:
        raise OutOfRange("window lengths must be whole numbers of samples")
    L0 = u_ini.size // nu
    if y_ini.size // ny != L0:
        raise OutOfRange("u_ini and y_ini must cover the same past window")
    N = u.size // nu
    bm = build_behavioral(dataset, L0, N)
    solve_F, FiUt, solve_S = _smm_solver(bm, sigma2, rank_rtol)
    g = _smm_g(bm, solve_F, FiUt, solve_S, u_ini, y_ini, u)
    return (bm.Yf @ g).reshape(N, ny)
