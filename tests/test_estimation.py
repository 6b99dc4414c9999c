"""Impulse-response estimators and the hyper-parameter selection rules."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilid import (
    NoValidN,
    NotPersistentlyExciting,
    OutOfRange,
    RankDeficientRegressor,
    SignalSequence,
    cross_correlation,
    data_driven_response,
    estimate_markov_ls,
    estimate_markov_smm,
    estimate_noise_variance,
    select_L0,
    select_N,
    simulate,
)
from pencilid.dataio import Dataset, generate_experiment
from pencilid.errors import InsufficientLags
from pencilid.estimation import (
    _SIGMA2_FLOOR_REL,
    BehavioralMatrices,
    _ls_regression,
    _numerical_rank,
    _smm_solver,
    _window_certified,
    _window_gram,
    block_hankel,
    build_behavioral,
    check_persistency,
    n_max_bound,
)
from pencilid.lti import gram_sigma_min_exceeds, sigma_min_exceeds
from conftest import exact_markov, fir_model, noise_free_dataset, random_stable_model


# --- block Hankel and behavioral matrices -----------------------------------

def test_block_hankel_oracle():
    sig = SignalSequence(np.arange(6.0).reshape(-1, 1), ts=1.0)
    H = block_hankel(sig, depth=3)
    assert np.array_equal(H, [[0, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5]])
    H2 = block_hankel(sig, depth=2, start=1, cols=3)
    assert np.array_equal(H2, [[1, 2, 3], [2, 3, 4]])
    with pytest.raises(OutOfRange):
        block_hankel(sig, depth=4, start=3)


def test_block_hankel_multichannel_order():
    sig = SignalSequence(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]), ts=1.0)
    H = block_hankel(sig, depth=2)
    # Channel-major within a time step: [ch1(k); ch2(k); ch1(k+1); ch2(k+1)].
    assert np.array_equal(H, [[1, 2], [10, 20], [2, 3], [20, 30]])


def _gamma(k):
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(1, 1), (2, 3)]),
       depth=st.integers(1, 16), start=st.integers(0, 6), cols=st.integers(1, 60),
       burst=st.booleans())
def test_window_gram_is_the_window_product(seed, shape, depth, start, cols, burst):
    # The structured Gram of a stacked [u | y] window equals W W' of the
    # explicit block_hankel window within the bound its docstring states
    # (plus the product's own rounding).  Channels sit on different scales,
    # and a burst at the segment's start loads the recurrence's extension.
    rng = np.random.default_rng(seed)
    nu, ny = shape
    ch = nu + ny
    x = rng.normal(size=(start + depth + cols - 1 + rng.integers(0, 3), ch))
    x *= np.logspace(-2, 2, ch)
    if burst:
        x[start : start + depth] *= 1e4
    sig = SignalSequence(x)
    G = _window_gram(sig, depth, start, cols)
    W = block_hankel(sig, depth, start, cols)
    assert G.shape == (depth * ch,) * 2 and np.array_equal(G, G.T)
    # W_e: W extended to the left to the segment's first sample, zeros
    # where a row has no earlier sample; W_p: its columns before W's.
    seg = np.vstack([np.zeros((depth - 1, ch)), x[start : start + depth + cols - 1]])
    W_e = block_hankel(SignalSequence(seg), depth, 0, cols + depth - 1)
    W_p = W_e[:, : depth - 1]
    S = np.abs(W_e) @ np.abs(W_e).T + np.abs(W_p) @ np.abs(W_p).T
    bound = _gamma(cols + 2 * depth) * S + _gamma(cols) * (np.abs(W) @ np.abs(W).T)
    assert np.all(np.abs(G - W @ W.T) <= bound)
    # The certificate on the structured Gram clears only full-rank windows.
    for rel in (1e-8, 1e-2, 0.3):
        if _window_certified(SignalSequence(x[start:]), _window_gram(
                SignalSequence(x[start:]), depth), depth, rel):
            full = block_hankel(SignalSequence(x[start:]), depth)
            assert np.linalg.svd(full, compute_uv=False)[-1] > rel * np.linalg.norm(full)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ns=st.integers(20, 60),
       L0=st.integers(1, 4), N=st.integers(2, 6),
       shape=st.sampled_from([(1, 1), (2, 2), (1, 2)]))
def test_behavioral_shapes(seed, ns, L0, N, shape):
    rng = np.random.default_rng(0)
    ny, nu = shape
    model = random_stable_model(rng, 2, nu=nu, ny=ny)
    ds = noise_free_dataset(model, ns, seed=seed)
    bm = build_behavioral(ds, L0, N)
    M = ns - (L0 + N) + 1
    assert bm.Up.shape == (L0 * nu, M) and bm.Yp.shape == (L0 * ny, M)
    assert bm.Uf.shape == (N * nu, M) and bm.Yf.shape == (N * ny, M)
    assert bm.U.shape == ((L0 + N) * nu, M)
    # Every column is a contiguous record window, channels stacked per sample.
    j = min(2, M - 1)
    for past, future, sig in ((bm.Up, bm.Uf, ds.u), (bm.Yp, bm.Yf, ds.y)):
        assert np.array_equal(past[:, j], sig.samples[j : j + L0].reshape(-1))
        assert np.array_equal(future[:, j],
                              sig.samples[j + L0 : j + L0 + N].reshape(-1))


# --- least squares -----------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), taps=st.integers(1, 6),
       N=st.integers(7, 12), shape=st.sampled_from([(1, 1), (2, 3)]))
def test_ls_recovers_fir_exactly(seed, taps, N, shape):
    rng = np.random.default_rng(seed)
    ny, nu = shape
    coeffs = rng.normal(size=(taps + 1) * ny * nu)
    model = fir_model(coeffs, nu=nu, ny=ny)
    ds = noise_free_dataset(model, 80, seed=seed)
    h = estimate_markov_ls(ds, N)
    h_true = exact_markov(model, N)
    scale = max(np.abs(h_true.blocks).max(), 1e-30)
    assert np.max(np.abs(h.blocks - h_true.blocks)) <= 1e-10 * scale


def test_ls_regression_is_reversed_block_hankel():
    # Loop reference: row t of U_reg is [u_{t+N-1}, ..., u_t], channels
    # stacked per sample.
    rng = np.random.default_rng(5)
    for nu in (1, 3):
        ds = noise_free_dataset(random_stable_model(rng, 2, nu=nu), 300)
        u = ds.u.samples
        for N in (5, 40, 116):
            U_reg, Y_reg = _ls_regression(ds, N)
            ref = np.empty((ds.ns - N + 1, N * nu))
            for k in range(N):
                ref[:, k * nu : (k + 1) * nu] = u[N - 1 - k : ds.ns - k]
            assert np.array_equal(U_reg, ref) and U_reg.flags.c_contiguous
            assert np.array_equal(Y_reg, ds.y.samples[N - 1 :])


def _periodic_input_dataset(period, ns):
    """Record driven by a repeated pattern: every input window has rank
    ``period`` at most."""
    rng = np.random.default_rng(0)
    u = SignalSequence(np.tile(rng.normal(size=period), ns // period + 1)[:ns],
                       ts=1.0)
    y = simulate(random_stable_model(rng, 2), u)
    return Dataset(u=u, y=y)


def test_rank_deficient_input_is_rejected():
    ds = _periodic_input_dataset(3, 200)
    with pytest.raises(RankDeficientRegressor, match=r"regression matrix rank 3 < 10$"):
        estimate_markov_ls(ds, 10)
    with pytest.raises(NotPersistentlyExciting,
                       match=r"input data matrix rank 3 < 14 rows$"):
        estimate_markov_smm(ds, 4, 10, 1e-4)
    with pytest.raises(NotPersistentlyExciting,
                       match=r"input data matrix rank 3 < 14 rows$"):
        data_driven_response(ds, np.zeros(4), np.zeros(4), np.zeros(10), 1e-4)


def test_periodic_input_has_no_valid_horizon():
    # Every window deeper than the period is rank deficient: select_N walks
    # N down to 1 and gives up with the same error as the SVD rule.
    ds = _periodic_input_dataset(3, 200)
    with pytest.raises(NoValidN,
                       match=r"^no horizon yields a full-row-rank input data matrix$"):
        select_N(ds, L0=3)
    assert select_N(ds, L0=1) == 2


def test_rank_deficient_mimo_regressor_is_rejected():
    # The second input repeats the first, so the regressor has rank N of 2 N.
    rng = np.random.default_rng(1)
    u0 = rng.normal(size=200)
    u = SignalSequence(np.column_stack([u0, u0]), ts=1.0)
    ds = Dataset(u=u, y=simulate(random_stable_model(rng, 2, nu=2), u))
    with pytest.raises(RankDeficientRegressor, match=r"regression matrix rank 8 < 16$"):
        estimate_markov_ls(ds, 8)
    with pytest.raises(NotPersistentlyExciting,
                       match=r"input data matrix rank 10 < 20 rows$"):
        estimate_markov_smm(ds, 2, 8, 1e-4)


def test_ls_rank_cutoff_is_check_persistency_cutoff():
    # The fit is refused exactly when rank_rtol * s_max * max(U_reg.shape)
    # passes the regressor's smallest singular value.
    rng = np.random.default_rng(3)
    ds = noise_free_dataset(random_stable_model(rng, 2), 60)
    N = 8
    U_reg, _ = _ls_regression(ds, N)
    s = np.linalg.svd(U_reg, compute_uv=False)
    edge = s[-1] / (s[0] * max(U_reg.shape))
    assert check_persistency(U_reg.T, 0.9 * edge)[0]
    estimate_markov_ls(ds, N, rank_rtol=0.9 * edge)
    assert not check_persistency(U_reg.T, 1.1 * edge)[0]
    with pytest.raises(RankDeficientRegressor, match=r"< 8$"):
        estimate_markov_ls(ds, N, rank_rtol=1.1 * edge)


def test_ls_white_noise_regressor_takes_no_svd(monkeypatch):
    # A well-conditioned regressor is cleared by the Cholesky certificate.
    rng = np.random.default_rng(2)
    ds = generate_experiment(random_stable_model(rng, 4, rho=0.8), 400, 1e-6, seed=1)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    estimate_markov_ls(ds, 60)
    assert shapes == []


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), extra=st.integers(0, 12),
       complex_entries=st.booleans(), log_rel=st.floats(-7.0, -1.0),
       log_offset=st.floats(-0.5, 0.5))
def test_rank_certificate_agrees_with_svd_rule(seed, n, extra, complex_entries,
                                               log_rel, log_offset):
    # M = U diag(s) V^H with s_max = 1 and s_min at 10**log_offset times the
    # SVD rule's cutoff rank_rtol * s_max * max(shape): check_persistency
    # returns the rule's verdict and rank, and the certificate never clears
    # a matrix the rule calls deficient.
    rng = np.random.default_rng(seed)
    m = n + extra
    draw = ((lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape))
            if complex_entries else (lambda *shape: rng.normal(size=shape)))
    rel = 10.0 ** log_rel
    rank_rtol = rel / m
    s = np.sort(np.exp(rng.uniform(np.log(rel), 0.0, size=n)))[::-1]
    s[0], s[-1] = 1.0, rel * 10.0 ** log_offset
    U, _ = np.linalg.qr(draw(n, n))
    V, _ = np.linalg.qr(draw(m, n))
    M = (U * s) @ V.conj().T
    sv = np.linalg.svd(M, compute_uv=False)
    rank = _numerical_rank(sv, rank_rtol, m)
    assert check_persistency(M, rank_rtol) == (rank == n, rank)
    certified = sigma_min_exceeds(M, rel)
    if certified:
        assert rank == n
    # The proof's margin is the only slack: a clear case is certified.
    t = np.sum(sv**2)
    if sv[-1] ** 2 > (2 * rel**2 + 4 * (n + m + 6) * np.finfo(float).eps) * t:
        assert certified
    # A tall matrix, the transpose of a wide one, is never certified.
    assert extra == 0 or not sigma_min_exceeds(M.T, rel)
    # The Gram-taking core decides the same on the computed product, and on
    # a Gram moved toward singularity along the weakest direction by what
    # its error count k allows beyond the product's own rounding, it still
    # certifies only a matrix the rule calls full rank.
    G = M @ M.conj().T
    assert gram_sigma_min_exceeds(G, rel, m) == certified
    k = 3 * m + 40
    weakest = np.linalg.svd(M)[0][:, -1:]
    G_moved = G - _gamma(k - m - 2) * t * (weakest @ weakest.conj().T)
    if gram_sigma_min_exceeds(G_moved, rel, k):
        assert rank == n
    if sv[-1] ** 2 > (2 * rel**2 + 4 * (n + k + 6) * np.finfo(float).eps) * t:
        assert gram_sigma_min_exceeds(G_moved, rel, k)


def test_check_persistency_non_finite():
    # The certificate declines non-finite data; the SVD rule answers as
    # before: NaN makes the SVD fail, inf reads as rank 0.
    U = np.random.default_rng(0).normal(size=(4, 9))
    U[1, 2] = np.nan
    assert not sigma_min_exceeds(U, 1e-9)
    with pytest.raises(np.linalg.LinAlgError):
        check_persistency(U)
    U[1, 2] = np.inf
    assert not sigma_min_exceeds(U, 1e-9)
    assert check_persistency(U) == (False, 0)


def test_ls_rejects_oversized_horizon():
    rng = np.random.default_rng(0)
    ds = noise_free_dataset(random_stable_model(rng, 2), 40)
    with pytest.raises(OutOfRange):
        estimate_markov_ls(ds, 21)


# --- noise-variance estimate --------------------------------------------------

def test_noise_variance_zero_iff_zero_residual():
    rng = np.random.default_rng(4)
    for ny, nu in ((1, 1), (2, 3)):
        model = fir_model(rng.normal(size=4 * ny * nu), nu=nu, ny=ny)
        ds = noise_free_dataset(model, 100, seed=1)
        h = estimate_markov_ls(ds, 10)
        # N_var = N reuses h; L0 = 20 solves a wider 21-tap fit
        for L0 in (None, 20):
            assert estimate_noise_variance(ds, h, 10, L0) == pytest.approx(
                0.0, abs=1e-22)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sigma2=st.floats(1e-8, 1e-2))
def test_noise_variance_nonnegative_and_consistent(seed, sigma2):
    rng = np.random.default_rng(0)
    model = random_stable_model(rng, 2)
    ds = generate_experiment(model, 120, sigma2, seed=seed)
    h = estimate_markov_ls(ds, 12)
    v = estimate_noise_variance(ds, h, 12)
    assert v >= 0.0


def test_noise_variance_statistics():
    rng = np.random.default_rng(0)
    model = random_stable_model(rng, 3, rho=0.7)
    sigma2 = 1e-4
    vals = [
        estimate_noise_variance(
            ds := generate_experiment(model, 2000, sigma2, seed=s),
            estimate_markov_ls(ds, 40), 40)
        for s in range(10)
    ]
    assert np.median(vals) == pytest.approx(sigma2, rel=0.25)


def test_noise_variance_fit_spans_correlation_support():
    # 30 taps outlast the horizon N = 10 but not L0 + 1 = 41: the N-tap
    # residual holds the unmodelled tail, the (L0+1)-tap one only noise.
    rng = np.random.default_rng(7)
    model = fir_model(rng.normal(size=30))
    sigma2 = 1e-3
    ds = generate_experiment(model, 2000, sigma2, seed=3)
    h = estimate_markov_ls(ds, 10)
    assert estimate_noise_variance(ds, h, 10) > 100 * sigma2
    assert estimate_noise_variance(ds, h, 10, L0=40) == pytest.approx(
        sigma2, rel=0.25)


# --- correlation-based L0 ------------------------------------------------------

def test_cross_correlation_oracle():
    u = np.array([[1.0], [0.0], [0.0], [0.0]])
    y = np.array([[0.0], [2.0], [1.0], [0.5]])
    ds_u = SignalSequence(u, ts=1.0)
    ds_y = SignalSequence(y, ts=1.0)
    from pencilid.dataio import Dataset
    ds = Dataset(u=ds_u, y=ds_y)
    R = cross_correlation(ds)
    # R(tau) = sum_k y_{k+tau} u_k / ns with zero lag at index ns-1 = 3.
    assert len(R) == 7
    assert R[3] == pytest.approx(0.0)
    assert R[4] == pytest.approx(2.0 / 4)
    assert R[5] == pytest.approx(1.0 / 4)
    assert R[6] == pytest.approx(0.5 / 4)


def test_select_l0_oracle():
    # Zero lag at the center index; noise floor 0.1 on the negative lags
    # gives threshold 0.14 at alpha = 0.4.  Positive lags: 0.2, 0.13, ...
    R = np.array([0.1, -0.1, 0.05, 0.0, 0.5, 0.2, 0.13, 0.05, 0.01])
    assert select_L0(R, alpha=0.4) == 1  # last violation at positive lag 1
    assert select_L0(R, alpha=0.0) == 2  # threshold 0.1: lag 2 (0.13) violates
    R_quiet = np.array([0.1, 0.1, 0.0, 0.05, 0.05])
    assert select_L0(R_quiet, alpha=0.4) == 1


def test_select_l0_never_settles_warns():
    R = np.array([0.01, 0.01, 0.0, 1.0, 1.0])
    with pytest.warns(UserWarning):
        assert select_L0(R, alpha=0.4) == 2


def test_select_l0_rejects_bad_input():
    with pytest.raises(InsufficientLags):
        select_L0(np.array([1.0, 2.0]))  # even length


# --- horizon selection ----------------------------------------------------------

def test_n_max_bound_formula():
    assert n_max_bound(1000, 1, 66) == int(np.floor(1001 / 2 - 66))
    assert n_max_bound(999, 2, 10) == int(np.floor(1000 / 3 - 10))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ns=st.integers(40, 120),
       L0=st.integers(1, 8))
def test_select_n_respects_row_bound(seed, ns, L0):
    rng = np.random.default_rng(0)
    model = random_stable_model(rng, 2)
    ds = noise_free_dataset(model, ns, seed=seed)
    try:
        N = select_N(ds, L0)
    except NoValidN:
        return
    M = ns - (L0 + N) + 1
    # Stacked input rows must fit under the column count (full row rank).
    assert (N + L0) * ds.nu <= M
    assert N <= n_max_bound(ns, ds.nu, L0)
    bm = build_behavioral(ds, L0, N)
    full, _ = check_persistency(bm.U)
    assert full


def test_select_n_raises_when_impossible():
    rng = np.random.default_rng(0)
    ds = noise_free_dataset(random_stable_model(rng, 2), 30)
    with pytest.raises(NoValidN):
        select_N(ds, L0=20)


# --- signal-matrix estimator ------------------------------------------------------

def test_smm_noise_free_consistency():
    rng = np.random.default_rng(9)
    model = random_stable_model(rng, 5, rho=0.8)
    ds = noise_free_dataset(model, 400, seed=0)
    h = estimate_markov_smm(ds, L0=8, N=60, sigma2=0.0)
    h_true = exact_markov(model, 60)
    scale = np.abs(h_true.blocks).max()
    assert np.max(np.abs(h.blocks - h_true.blocks)) <= 1e-6 * scale


def test_smm_beats_ls_is_well_posed_mimo():
    rng = np.random.default_rng(2)
    model = random_stable_model(rng, 4, nu=2, ny=2, rho=0.7)
    ds = generate_experiment(model, 300, 1e-6, seed=3)
    h = estimate_markov_smm(ds, L0=4, N=12, sigma2=1e-6)
    assert h.blocks.shape == (12, 2, 2)
    h_true = exact_markov(model, 12)
    scale = np.abs(h_true.blocks).max()
    assert np.max(np.abs(h.blocks - h_true.blocks)) <= 0.05 * scale


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_smm_invariant_under_column_permutation(seed):
    rng = np.random.default_rng(seed)
    model = random_stable_model(rng, 2, rho=0.7)
    ds = generate_experiment(model, 80, 1e-6, seed=seed)
    L0, N = 3, 8
    bm = build_behavioral(ds, L0, N)
    perm = rng.permutation(bm.cols)
    bm_p = BehavioralMatrices(
        Up=bm.Up[:, perm], Uf=bm.Uf[:, perm],
        Yp=bm.Yp[:, perm], Yf=bm.Yf[:, perm], L0=L0, N=N,
    )
    u_ini = np.zeros(L0)
    y_ini = rng.normal(size=L0)
    u = rng.normal(size=N)
    y_hat = []
    for b in (bm, bm_p):
        # The stacked [u | y] window interleaves the rows of U and Y.
        W = np.empty((2 * (L0 + N), b.cols))
        W[0::2], W[1::2] = b.U, np.vstack([b.Yp, b.Yf])
        predict = _smm_solver(W @ W.T, L0, 1, 1, 1e-2)
        y_hat.append(predict(np.concatenate([u_ini, u]), y_ini))
    scale = max(np.abs(y_hat[0]).max(), 1e-30)
    assert np.max(np.abs(y_hat[0] - y_hat[1])) <= 1e-10 * scale


def test_smm_continuous_in_sigma2():
    rng = np.random.default_rng(6)
    model = random_stable_model(rng, 3, rho=0.7)
    ds = generate_experiment(model, 200, 1e-5, seed=2)
    sigmas = np.logspace(-7, -3, 10)
    estimates = [
        estimate_markov_smm(ds, 4, 20, s).blocks for s in sigmas
    ]
    diffs = [
        np.max(np.abs(estimates[i + 1] - estimates[i]))
        for i in range(len(estimates) - 1)
    ]
    scale = np.abs(estimates[0]).max()
    # No discontinuities: neighboring estimates stay close on a log sweep.
    assert max(diffs) <= 0.2 * scale


def _dense_smm_prediction(ds, L0, N, sigma2, u_ini, y_ini, u):
    """Yf g for g = argmin g'Fg - 2 y_ini' Yp g subject to U g = [u_ini; u],
    with F = Yp'Yp + L' sigma2 I formed and factored explicitly.

    In the floor regime F's smallest eigenvalue is ~1e-12 of its largest, so
    rounding F alone moves the solution by ~1e-9; two steps of iterative
    refinement against the unformed operator Yp'(Yp g) + c g remove that
    for y_ini = 0.
    """
    bm = build_behavioral(ds, L0, N)
    Yp, U = bm.Yp, bm.U
    c = (L0 + N) * max(sigma2, _SIGMA2_FLOOR_REL * np.linalg.norm(Yp, 2) ** 2)
    cF = scipy.linalg.cho_factor(Yp.T @ Yp + c * np.eye(bm.cols))
    FiUt = scipy.linalg.cho_solve(cF, U.T)
    cS = scipy.linalg.cho_factor(U @ FiUt)

    def solve(r_g, r_u):
        # [F -U'; U 0] [g; mu] = [r_g; r_u], by the Schur complement U F^-1 U'
        Fr = scipy.linalg.cho_solve(cF, r_g)
        mu = scipy.linalg.cho_solve(cS, r_u - U @ Fr)
        return Fr + FiUt @ mu, mu

    b_g, b_u = Yp.T @ y_ini, np.concatenate([u_ini, u])
    g, mu = solve(b_g, b_u)
    for _ in range(2):
        dg, dmu = solve(b_g - (Yp.T @ (Yp @ g) + c * g - U.T @ mu), b_u - U @ g)
        g, mu = g + dg, mu + dmu
    return (bm.Yf @ g).reshape(N, ds.ny)


@pytest.mark.parametrize("ny, nu", [(1, 1), (2, 3)])
def test_smm_matches_dense_saddle_reference(ny, nu):
    rng = np.random.default_rng(4)
    model = random_stable_model(rng, 4, nu=nu, ny=ny, rho=0.8)
    ds = generate_experiment(model, 300, 1e-4, seed=1)
    L0, N = 5, 12

    def assert_close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    for sigma2 in (1e-4, 0.0):  # the noise level, and the floor regime
        ref = [_dense_smm_prediction(ds, L0, N, sigma2, np.zeros(L0 * nu),
                                     np.zeros(L0 * ny), np.eye(N * nu)[j])
               for j in range(nu)]
        assert_close(estimate_markov_smm(ds, L0, N, sigma2).blocks,
                     np.stack(ref, axis=2))
    # Initial windows from a second run of the system.  In the floor regime
    # a nonzero y_ini is left out: there F's rounding moves the dense
    # reference itself by ~1e-8.
    run = generate_experiment(model, L0 + N, 1e-4, seed=2)
    u_ini, y_ini = run.u.samples[:L0].ravel(), run.y.samples[:L0].ravel()
    u = run.u.samples[L0:].ravel()
    assert_close(data_driven_response(ds, u_ini, y_ini, u, 1e-4),
                 _dense_smm_prediction(ds, L0, N, 1e-4, u_ini, y_ini, u))
