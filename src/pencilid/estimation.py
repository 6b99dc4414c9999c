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
from .lti import (MarkovSequence, SignalSequence, gram_sigma_min_exceeds,
                  sigma_min_exceeds)


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


def _window_cols(signal: SignalSequence, depth: int, start: int,
                 cols: Optional[int]) -> int:
    """Column count of a valid window; raises OutOfRange otherwise."""
    K = len(signal)
    if cols is None:
        cols = K - start - depth + 1
    if depth < 1 or cols < 1 or start < 0:
        raise OutOfRange(f"invalid window: depth={depth}, start={start}, cols={cols}")
    if start + depth + cols - 1 > K:
        raise OutOfRange(
            f"window needs {start + depth + cols - 1} samples, signal has {K}"
        )
    return cols


def block_hankel(signal: SignalSequence, depth: int, start: int = 0,
                 cols: Optional[int] = None) -> np.ndarray:
    """Block-Hankel matrix of a signal window.

    Block row i, column j holds the sample at time ``start + i + j``; the
    channels of one sample are stacked consecutively, so the row ordering for
    a 2-channel signal of depth 2 is [ch1(k); ch2(k); ch1(k+1); ch2(k+1)].
    """
    cols = _window_cols(signal, depth, start, cols)
    # (cols, nch, depth) view: [j, c, i] is channel c at time start + i + j
    window = sliding_window_view(signal.samples[start : start + depth + cols - 1],
                                 depth, axis=0)
    return window.transpose(2, 1, 0).reshape(-1, cols).copy()


def _correlations(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """C[k, i, j] = sum_n a[n + k, i] v[n, j] for k = 0 .. len(a) - len(v),
    one direct correlation per channel pair."""
    return np.stack([[np.correlate(a[:, i], v[:, j], mode="valid")
                      for j in range(v.shape[1])]
                     for i in range(a.shape[1])]).transpose(2, 0, 1)


def _window_gram(signal: SignalSequence, depth: int, start: int = 0,
                 cols: Optional[int] = None) -> np.ndarray:
    """W W' for W = ``block_hankel(signal, depth, start, cols)``, without W.

    With x_s the sample at time start + s, block (i, k) of the Gram is
    sum_j x_{i+j} x_{k+j}' over the M = cols columns, so
    block (i + 1, k + 1) = block (i, k) - x_i x_k' + x_{i+M} x_{k+M}'.  The
    first block row takes one correlation per channel pair, the first block
    column is its transpose, and the recurrence fills the rest one block row
    at a time: O(M depth c^2 + (depth c)^2) for c channels, against
    O(M (depth c)^2) for the product.  The result is exactly symmetric;
    non-finite samples give a non-finite Gram without a warning.

    Rounding.  Entry (r, q) in block (i, k) is a sum of M + 2 min(i, k)
    products, so its error is at most gamma_{M + 2 depth} S_rq, where S is
    |W_e| |W_e|' + |W_p| |W_p|' for the window W_e extended to the left to
    the segment's first sample (zeros where a row has no earlier sample)
    and W_p its columns before W's.  Hence
    |error_rq| <= 2 gamma_{M + 2 depth} sqrt(e_r e_q), e_r the energy of row
    r's channel from the segment's start to row r's last sample, and
    ||error||_2 <= gamma_{M + 2 depth} (t + 2 p), t = trace(W W') and
    p = ||W_p||_F^2.
    """
    cols = _window_cols(signal, depth, start, cols)
    x = signal.samples[start : start + depth + cols - 1]
    c = x.shape[1]
    n = depth * c
    G = np.empty((n, n))
    G[:c] = _correlations(x, x[:cols]).transpose(2, 0, 1).reshape(c, n)
    G[c:, :c] = G[:c, c:].T
    head, tail = x[: depth - 1].ravel(), x[cols : cols + depth - 1].ravel()
    step, drop = np.empty((c, n - c)), np.empty((c, n - c))
    with np.errstate(invalid="ignore", over="ignore"):
        for r in range(c, n, c):
            np.multiply(tail[r - c : r, None], tail, out=step)
            np.multiply(head[r - c : r, None], head, out=drop)
            step -= drop
            np.add(G[r - c : r, :-c], step, out=G[r : r + c, c:])
    return G


def _window_certified(signal: SignalSequence, G: np.ndarray, depth: int,
                      rel: float) -> bool:
    """``lti.gram_sigma_min_exceeds`` for G = ``_window_gram(signal, depth)``:
    True only when sigma_min(W) > rel ||W||_F for the full window W.  The
    fill's error bound gamma_{M + 2 depth} (t + 2 p) enters as the error
    count m = (M + 2 depth)(1 + 2 p / t)."""
    cols = len(signal) - depth + 1
    if len(G) > cols:
        return False
    energy = np.sum(signal.samples[: depth - 1] ** 2, axis=1)
    p = float(np.dot(np.arange(depth - 1, 0, -1), energy))
    t = float(np.trace(G))
    m = (cols + 2 * depth) * (1 + 2 * p / t) if t > 0 else np.inf
    return gram_sigma_min_exceeds(G, rel, m)


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
    return _svd_rank(U, rank_rtol)


def _svd_rank(U: np.ndarray, rank_rtol: float) -> tuple[bool, int]:
    """``check_persistency``'s verdict from the singular values of U."""
    rank = _numerical_rank(np.linalg.svd(U, compute_uv=False), rank_rtol, max(U.shape))
    return rank == U.shape[0], rank


def _numerical_rank(s: np.ndarray, rank_rtol: float, size: int) -> int:
    """Number of singular values ``s`` (descending) above
    ``rank_rtol * s[0] * size``."""
    return int(np.count_nonzero(s > rank_rtol * s[0] * size))


def _input_window_rank(dataset: Dataset, depth: int,
                       rank_rtol: float) -> tuple[bool, int]:
    """``check_persistency`` of the depth-``depth`` input window, taken once
    per input signal: ``select_N`` and the SMM check the same window.  The
    certificate runs on the window's structured Gram; the SVD of the window
    itself runs only when it fails."""
    memo = dataset.u.window_ranks
    if (depth, rank_rtol) not in memo:
        rows, cols = depth * dataset.nu, dataset.ns - depth + 1
        G = _window_gram(dataset.u, depth)
        if _window_certified(dataset.u, G, depth, rank_rtol * max(rows, cols)):
            memo[depth, rank_rtol] = (True, rows)
        else:
            memo[depth, rank_rtol] = _svd_rank(block_hankel(dataset.u, depth),
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


# The normal equations square cond(U_reg); they are solved only for a
# regressor certified to have sigma_min > this times ||U_reg||_F.
_NORMAL_EQUATIONS_REL = 1e-3


def estimate_markov_ls(dataset: Dataset, N: int,
                       rank_rtol: float = 1e-10) -> MarkovSequence:
    """Least-squares FIR estimate of the first N Markov parameter blocks.

    The regressor U_reg must have full column rank (the ``check_persistency``
    cutoff).  When the Cholesky certificate on the structured Gram
    U_reg' U_reg (``_window_gram``) proves that, with cond(U_reg) small
    enough for the normal equations (``_NORMAL_EQUATIONS_REL``), a Cholesky
    solve of the normal equations, whose right side is one correlation of u
    and y, gives the coefficients.  Otherwise one QR factorization of
    [U_reg | Y_reg] serves both steps: its leading N nu triangular block R11
    has the singular values of U_reg, which a Cholesky certificate on R11
    clears or the SVD of R11 counts, and a triangular solve follows.
    """
    if N < 1:
        raise OutOfRange("N must be >= 1")
    if N >= (dataset.ns + 1) / 2:
        raise OutOfRange(
            f"N={N} too large for N_s={dataset.ns} (need N < (N_s+1)/2)"
        )
    n = N * dataset.nu
    rel = rank_rtol * max(dataset.ns - N + 1, n)
    G = _window_gram(dataset.u, N)
    if _window_certified(dataset.u, G, N, max(rel, _NORMAL_EQUATIONS_REL)):
        # U_reg' is the depth-N input window with its block rows reversed:
        # solve in window order and read the taps back reversed.
        r = _correlations(dataset.u.samples, dataset.y.samples[N - 1 :])
        H = scipy.linalg.cho_solve(scipy.linalg.cho_factor(G), r.reshape(n, -1))
        # row i * nu + j of H is input j of h_{N-1-i}
        blocks = H.reshape(N, dataset.nu, dataset.ny)[::-1].transpose(0, 2, 1)
    else:
        U_reg, Y_reg = _ls_regression(dataset, N)
        R = scipy.linalg.qr(np.hstack([U_reg, Y_reg]), mode="r", overwrite_a=True)[0]
        # Full column rank of R11 is full row rank of its transpose.
        if not sigma_min_exceeds(R[:n, :n].T, rel):
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
    defined even where the regressor is rank deficient.  The residual is
    taken from the data, by filtering u with the fit (direct convolution,
    O(N_s N_var)), not from a Gram, whose ||y||^2 - h'r would cancel digits.
    """
    N_var = N if L0 is None else max(N, min(L0 + 1, dataset.ns // 2))
    if N_var >= dataset.ns:
        raise DegenerateDenominator(f"N={N_var} >= N_s={dataset.ns}")
    if N_var == N:
        blocks = h_ls.blocks
    else:
        U_reg, Y_reg = _ls_regression(dataset, N_var)
        H_stack, *_ = np.linalg.lstsq(U_reg, Y_reg, rcond=None)
        blocks = H_stack.reshape(N_var, dataset.nu, dataset.ny).transpose(0, 2, 1)
    u = dataset.u.samples
    # sum_k h_k u_{t-k} for t = N_var - 1 .. N_s - 1
    fit = np.stack([sum(np.convolve(u[:, j], blocks[:, i, j], mode="valid")
                        for j in range(dataset.nu))
                    for i in range(dataset.ny)], axis=1)
    return float(np.sum((dataset.y.samples[N_var - 1 :] - fit) ** 2)
                 / (dataset.ns - N_var))


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


def _smm_solver(G: np.ndarray, L0: int, nu: int, ny: int, sigma2: float):
    """Predictor of the saddle-point solution from the window's Gram.

    G is the Gram of the depth-(L0 + N) window of the stacked signal
    [u | y] (``_window_gram``), so it holds the blocks UU', UYp', YpYp',
    YfU' and YfYp' of the data matrices U = [Up; Uf], Yp and Yf, which share
    M' columns.  Returns predict(rhs_u, y_ini=None) -> Yf g for
    g = argmin g'Fg - 2 y_ini' Yp g subject to U g = rhs_u, with
    F = Yp'Yp + c I and c = (L0 + N) sigma2.  With the L0 ny square
    K = c I + Yp Yp', the Woodbury identity gives
    F^{-1} = (I - Yp' K^{-1} Yp) / c and F^{-1} Yp' = Yp' K^{-1}, so
    Yf g = YfU' v + YfYp' (K^{-1} y_ini - K^{-1} YpU' v) for
    v = S^{-1} (rhs_u - UYp' K^{-1} y_ini) and
    S = c U F^{-1} U' = UU' - UYp' K^{-1} YpU'.  The factorizations are of
    K and of the (L0 + N) nu square S; no M'-wide matrix is formed.  U must
    have full row rank.
    """
    ch = nu + ny
    L = len(G) // ch
    G4 = G.reshape(L, ch, L, ch)
    UU = G4[:, :nu, :, :nu].reshape(L * nu, L * nu)
    YpYp = G4[:L0, nu:, :L0, nu:].reshape(L0 * ny, L0 * ny)
    YpU = G4[:L0, nu:, :, :nu].reshape(L0 * ny, L * nu)
    YfU = G4[L0:, nu:, :, :nu].reshape(-1, L * nu)
    YfYp = G4[L0:, nu:, :L0, nu:].reshape(-1, L0 * ny)
    yp_norm2 = np.linalg.eigvalsh(YpYp)[-1] if YpYp.size else 0.0  # ||Yp||_2^2
    floor = max(_SIGMA2_FLOOR_REL * yp_norm2, np.finfo(float).tiny)
    floored = sigma2 < floor
    if floored:
        sigma2 = floor
    cK = None
    while cK is None:
        c = L * sigma2
        try:
            cK = scipy.linalg.cho_factor(YpYp + c * np.eye(len(YpYp)))
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

    KYpU = scipy.linalg.cho_solve(cK, YpU)
    S = UU - YpU.T @ KYpU
    S = 0.5 * (S + S.T)
    try:
        cS = scipy.linalg.cho_factor(S)
    except scipy.linalg.LinAlgError:
        raise IllConditionedSaddle(
            "saddle system U F^{-1} U' numerically singular; increase sigma2"
        ) from None

    def predict(rhs_u, y_ini=None):
        Ky = (np.zeros((len(YpYp),) + np.shape(rhs_u)[1:]) if y_ini is None
              else scipy.linalg.cho_solve(cK, y_ini))
        v = scipy.linalg.cho_solve(cS, rhs_u - YpU.T @ Ky)
        return YfU @ v + YfYp @ (Ky - KYpU @ v)

    return predict


def _smm_predictor(dataset: Dataset, L0: int, N: int, sigma2: float,
                   rank_rtol: float):
    """``_smm_solver`` on the record's depth-(L0 + N) [u | y] window Gram,
    after checking that the input rows [Up; Uf] have full row rank."""
    M = dataset.ns - L0 - N + 1
    if M < 1:
        raise OutOfRange(
            f"N_s={dataset.ns} too short for L0={L0}, N={N} (M'={M})"
        )
    full, rank = _input_window_rank(dataset, L0 + N, rank_rtol)
    if not full:
        raise NotPersistentlyExciting(
            f"input data matrix rank {rank} < {(L0 + N) * dataset.nu} rows"
        )
    stacked = SignalSequence(np.hstack([dataset.u.samples, dataset.y.samples]),
                             ts=dataset.ts)
    return _smm_solver(_window_gram(stacked, L0 + N), L0, dataset.nu, dataset.ny,
                       sigma2)


def estimate_markov_smm(dataset: Dataset, L0: int, N: int,
                        sigma2: float, rank_rtol: float = 1e-10) -> MarkovSequence:
    """Signal-matrix estimate of the first N Markov parameter blocks.

    The impulse response is the data-driven trajectory for zero initial
    windows and a unit impulse input; one solve takes the impulses of all
    input channels at once, each filling one block column.
    """
    predict = _smm_predictor(dataset, L0, N, sigma2, rank_rtol)
    nu = dataset.nu
    impulses = np.zeros(((L0 + N) * nu, nu))
    impulses[L0 * nu:(L0 + 1) * nu] = np.eye(nu)
    yhat = predict(impulses)
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
    predict = _smm_predictor(dataset, L0, N, sigma2, rank_rtol)
    return predict(np.concatenate([u_ini, u]), y_ini).reshape(N, ny)
