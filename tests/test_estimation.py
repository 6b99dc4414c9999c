"""Impulse-response estimators and the hyper-parameter selection rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilid import (
    NoValidN,
    OutOfRange,
    SignalSequence,
    cross_correlation,
    estimate_markov_ls,
    estimate_markov_smm,
    estimate_noise_variance,
    select_L0,
    select_N,
)
from pencilid.dataio import generate_experiment
from pencilid.errors import InsufficientLags
from pencilid.estimation import (
    BehavioralMatrices,
    _ls_regression,
    _smm_g,
    _smm_solver,
    block_hankel,
    build_behavioral,
    check_persistency,
    n_max_bound,
)
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
        solve_F, FiUt, solve_S = _smm_solver(b, 1e-2)
        g = _smm_g(b, solve_F, FiUt, solve_S, u_ini, y_ini, u)
        y_hat.append(b.Yf @ g)
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
