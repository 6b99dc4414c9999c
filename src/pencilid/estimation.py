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
from .lti import MarkovSequence, SignalSequence, sigma_min_exceeds


@dataclass(frozen=True)
class TuningConfig:
    """Knobs for the hyper-parameter rules; explicit values override the rules."""

    alpha: float = 0.4              # margin on the negative-lag correlation level
    L0: Optional[int] = None
    N: Optional[int] = None
    sigma2: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


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
    """Numerical row rank of a data matrix.

    Returns (full_row_rank, numerical_rank): the number of singular values
    above ``rank_rtol * sigma_max * max(shape)``.  A Cholesky certificate
    (``lti.sigma_min_exceeds``) proves full row rank of a well-conditioned
    U without an SVD; otherwise the singular values are counted.
    """
    if U.size == 0:
        return U.shape[0] == 0, 0
    if sigma_min_exceeds(U, rank_rtol * max(U.shape)):
        return True, U.shape[0]
    rank = _numerical_rank(np.linalg.svd(U, compute_uv=False), rank_rtol, max(U.shape))
    return rank == U.shape[0], rank


def _numerical_rank(s: np.ndarray, rank_rtol: float, size: int) -> int:
    """Number of singular values ``s`` (descending) above
    ``rank_rtol * s[0] * size``."""
    return int(np.count_nonzero(s > rank_rtol * s[0] * size))


def _input_window_rank(dataset: Dataset, depth: int,
                       rank_rtol: float) -> tuple[bool, int]:
    """``check_persistency`` of the depth-``depth`` input window, taken once
    per input signal: ``select_N`` and the SMM check the same window."""
    memo = dataset.u.window_ranks
    if (depth, rank_rtol) not in memo:
        memo[depth, rank_rtol] = check_persistency(block_hankel(dataset.u, depth),
                                                   rank_rtol)
    return memo[depth, rank_rtol]


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

    One QR factorization of [U_reg | Y_reg] serves both steps: its leading
    N nu triangular block R11 has the singular values of U_reg, which must
    have full column rank (the ``check_persistency`` cutoff), and the
    coefficients follow from a triangular solve.  A Cholesky certificate on
    R11 clears a well-conditioned regressor; otherwise the singular values
    of R11 are counted.
    """
    if N < 1:
        raise OutOfRange("N must be >= 1")
    if N >= (dataset.ns + 1) / 2:
        raise OutOfRange(
            f"N={N} too large for N_s={dataset.ns} (need N < (N_s+1)/2)"
        )
    U_reg, Y_reg = _ls_regression(dataset, N)
    n = N * dataset.nu
    R = scipy.linalg.qr(np.hstack([U_reg, Y_reg]), mode="r", overwrite_a=True)[0]
    # Full column rank of R11 is full row rank of its transpose.
    if not sigma_min_exceeds(R[:n, :n].T, rank_rtol * max(U_reg.shape)):
        rank = _numerical_rank(np.linalg.svd(R[:n, :n], compute_uv=False),
                               rank_rtol, max(U_reg.shape))
        if rank < n:
            raise RankDeficientRegressor(f"regression matrix rank {rank} < {n}")
    H_stack = scipy.linalg.solve_triangular(R[:n, :n], R[:n, n:])
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
        full, _ = _input_window_rank(dataset, L0 + N, rank_rtol)
        if full:
            return N
        N -= 1
    raise NoValidN("no horizon yields a full-row-rank input data matrix")


# ---------------------------------------------------------------------------
# Signal-matrix (behavioral) estimator
# ---------------------------------------------------------------------------

_SIGMA2_FLOOR_REL = 1e-12  # times ||Yp||_2^2, keeps the Gram matrix invertible


def _behavioral_checked(dataset: Dataset, L0: int, N: int,
                        rank_rtol: float) -> BehavioralMatrices:
    """``build_behavioral``, after checking that the input rows [Up; Uf] have
    full row rank."""
    bm = build_behavioral(dataset, L0, N)
    full, rank = _input_window_rank(dataset, L0 + N, rank_rtol)
    if not full:
        raise NotPersistentlyExciting(
            f"input data matrix rank {rank} < {(L0 + N) * dataset.nu} rows"
        )
    return bm


def _smm_solver(bm: BehavioralMatrices, sigma2: float):
    """Factorized pieces of the saddle-point solution.

    Returns (solve_FYp, FiUt, solve_S) for F = Yp'Yp + c I, c = L' sigma2:
    solve_FYp applies F^{-1} Yp', FiUt = F^{-1} U', and solve_S applies
    (U F^{-1} U')^{-1}.  The M' x M' matrix F is never formed.  With the
    L0 ny square K = c I + Yp Yp', the Woodbury identity gives
    F^{-1} = (I - Yp' K^{-1} Yp) / c, and F^{-1} Yp' = Yp' K^{-1}; the
    factorizations are of K and of the (L0 + N) nu square U F^{-1} U'.
    U must have full row rank.
    """
    Yp, U = bm.Yp, bm.U
    G = Yp @ Yp.T
    yp_norm2 = np.linalg.eigvalsh(G)[-1] if G.size else 0.0  # ||Yp||_2^2
    floor = max(_SIGMA2_FLOOR_REL * yp_norm2, np.finfo(float).tiny)
    floored = sigma2 < floor
    if floored:
        sigma2 = floor
    cK = None
    while cK is None:
        c = bm.L_total * sigma2
        try:
            cK = scipy.linalg.cho_factor(G + c * np.eye(len(G)))
        except scipy.linalg.LinAlgError:
            # The floor exists to keep K and F invertible; escalate it (a few
            # orders at most) before giving up.  User-supplied variances are
            # never overridden.
            if floored and sigma2 < _SIGMA2_FLOOR_REL * 1e6 * yp_norm2:
                sigma2 *= 100.0
                continue
            raise IllConditionedSaddle(
                "Gram matrix not positive definite; increase sigma2"
            ) from None

    def solve_FYp(y):
        return Yp.T @ scipy.linalg.cho_solve(cK, y)

    FiUt = (U.T - Yp.T @ scipy.linalg.cho_solve(cK, Yp @ U.T)) / c
    S = U @ FiUt
    S = 0.5 * (S + S.T)
    try:
        cS = scipy.linalg.cho_factor(S)
    except scipy.linalg.LinAlgError:
        raise IllConditionedSaddle(
            "saddle system U F^{-1} U' numerically singular; increase sigma2"
        ) from None

    def solve_S(x):
        return scipy.linalg.cho_solve(cS, x)

    return solve_FYp, FiUt, solve_S


def _smm_g(bm: BehavioralMatrices, solve_FYp, FiUt, solve_S,
           u_ini: np.ndarray, y_ini: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Trajectory selector g = argmin g'Fg - 2 y_ini' Yp g subject to
    U g = [u_ini; u]."""
    rhs_u = np.concatenate([u_ini, u])
    g = FiUt @ solve_S(rhs_u)
    if np.any(y_ini):
        Fv = solve_FYp(y_ini)
        g = g + Fv - FiUt @ solve_S(bm.U @ Fv)
    return g


def estimate_markov_smm(dataset: Dataset, L0: int, N: int,
                        sigma2: float, rank_rtol: float = 1e-10) -> MarkovSequence:
    """Signal-matrix estimate of the first N Markov parameter blocks.

    The impulse response is the data-driven trajectory for zero initial
    windows and a unit impulse input; one solve takes the impulses of all
    input channels at once, each filling one block column.
    """
    bm = _behavioral_checked(dataset, L0, N, rank_rtol)
    _, FiUt, solve_S = _smm_solver(bm, sigma2)
    nu = dataset.nu
    impulses = np.zeros(((L0 + N) * nu, nu))
    impulses[L0 * nu:(L0 + 1) * nu] = np.eye(nu)
    yhat = bm.Yf @ (FiUt @ solve_S(impulses))
    return MarkovSequence(yhat.reshape(N, dataset.ny, nu), ts=dataset.ts)


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
    bm = _behavioral_checked(dataset, L0, N, rank_rtol)
    solve_FYp, FiUt, solve_S = _smm_solver(bm, sigma2)
    g = _smm_g(bm, solve_FYp, FiUt, solve_S, u_ini, y_ini, u)
    return (bm.Yf @ g).reshape(N, ny)
