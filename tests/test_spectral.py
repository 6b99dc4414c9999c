"""FFT bridge and the spectral-ratio frequency-response baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilid import (
    MarkovSequence,
    MethodUnsupported,
    estimate_frf_spectral,
    load_frequency_samples,
    markov_to_frequency,
)
from pencilid.errors import SpectralDivisionError
from pencilid.spectral import save_frequency_samples
from conftest import noise_free_dataset, random_stable_model


def test_fft_bridge_matches_numpy_fft():
    rng = np.random.default_rng(0)
    h = rng.normal(size=16)
    samples = markov_to_frequency(MarkovSequence(h, ts=1.0))
    ref = np.fft.fft(h)
    assert np.allclose(samples.values[:, 0, 0], ref, atol=1e-12)
    assert np.allclose(samples.omega, 2 * np.pi * np.arange(16) / 16)
    # Grid points are z_i = exp(i 2 pi k / N) on the unit circle.
    assert np.allclose(samples.points, np.exp(1j * samples.omega))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(4, 40))
def test_fft_bridge_conjugate_symmetry(seed, N):
    rng = np.random.default_rng(seed)
    h = MarkovSequence(rng.normal(size=N), ts=1.0)
    s = markov_to_frequency(h)
    v = s.values[:, 0, 0]
    scale = max(np.abs(v).max(), 1e-30)
    for i in range(1, N):
        assert abs(v[N - i] - np.conj(v[i])) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(3, 40))
def test_fft_bridge_invertible(seed, N):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(N, 2, 1))
    s = markov_to_frequency(MarkovSequence(h, ts=1.0))
    back = np.fft.ifft(s.values, axis=0).real
    scale = max(np.abs(h).max(), 1e-30)
    assert np.max(np.abs(back - h)) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(3, 40))
def test_fft_bridge_parseval(seed, N):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=N)
    s = markov_to_frequency(MarkovSequence(h, ts=1.0))
    lhs = np.sum(np.abs(s.values[:, 0, 0]) ** 2) / N
    rhs = np.sum(h**2)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_spectral_ratio_oracle():
    rng = np.random.default_rng(1)
    model = random_stable_model(rng, 3, rho=0.7)
    ds = noise_free_dataset(model, 512, seed=0)
    # a grid that divides the record, the record length itself, and one that
    # does not divide it
    for n_grid in (64, 512, 100):
        samples = estimate_frf_spectral(ds, n_grid)
        # Independent recomputation: direct z-transform sums of the full
        # record on the grid, then the cross/auto spectral ratio.
        n = np.arange(ds.ns)
        got = samples.values[:, 0, 0]
        ref = np.empty(n_grid, dtype=complex)
        for k in range(n_grid):
            zk = np.exp(-2j * np.pi * k / n_grid)
            U = np.sum(ds.u.samples[:, 0] * zk**n)
            Y = np.sum(ds.y.samples[:, 0] * zk**n)
            ref[k] = Y * np.conj(U) / (np.abs(U) ** 2)
        assert len(samples) == n_grid
        assert np.allclose(got, ref, atol=1e-8 * np.abs(ref).max())


def test_spectral_ratio_rejects_mimo_and_zero_input():
    rng = np.random.default_rng(1)
    mimo = random_stable_model(rng, 3, nu=2, ny=1)
    ds = noise_free_dataset(mimo, 128, seed=0)
    with pytest.raises(MethodUnsupported):
        estimate_frf_spectral(ds, 16)

    siso = random_stable_model(rng, 2)
    from pencilid import SignalSequence
    from pencilid.dataio import Dataset
    zero = Dataset(
        u=SignalSequence(np.zeros((64, 1)), ts=1.0),
        y=SignalSequence(np.zeros((64, 1)), ts=1.0),
    )
    with pytest.raises(SpectralDivisionError):
        estimate_frf_spectral(zero, 16)


def test_frequency_samples_roundtrip(tmp_path):
    # Channel counts of 10 or more need delimited labels (re(H_1_10)).
    rng = np.random.default_rng(3)
    for ny, nu in ((2, 2), (1, 10), (10, 1)):
        h = rng.normal(size=(12, ny, nu))
        s = markov_to_frequency(MarkovSequence(h, ts=0.25))
        path = tmp_path / f"f{ny}x{nu}.csv"
        save_frequency_samples(s, path)
        back = load_frequency_samples(path)
        assert np.array_equal(back.omega, s.omega)
        assert np.array_equal(back.values, s.values)
        assert back.ny == ny and back.nu == nu
        assert back.ts == 0.25
