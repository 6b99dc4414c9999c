"""Loewner/Hankel construction, order selection, and reduction oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilid import (
    MarkovSequence,
    OrderError,
    build_hankel,
    build_loewner,
    frequency_response,
    hankel_reduce,
    impulse_response,
    loewner_reduce,
    partition,
    reduce,
    svd_order,
)
from pencilid.errors import PointCollision
from pencilid.pencils import save_singular_values
from pencilid.spectral import FrequencySamples, markov_to_frequency
from conftest import count_svd_calls, exact_markov, random_stable_model


def _samples_of_model(model, count, offset=0.05):
    """Exact unit-circle samples of a model on distinct angles."""
    omega = offset + np.linspace(0.0, 2.4, count)
    z = np.exp(1j * omega)
    values = frequency_response(model, z)
    return FrequencySamples(points=z, values=values, omega=omega)


# --- partition ----------------------------------------------------------------

def test_partition_oracles():
    rng = np.random.default_rng(0)
    s = _samples_of_model(random_stable_model(rng, 2), 4)
    left, right = partition(s, "alternate")
    assert np.array_equal(left.points, s.points[[0, 2]])
    assert np.array_equal(right.points, s.points[[1, 3]])
    left, right = partition(s, "half-half")
    assert np.array_equal(left.points, s.points[:2])
    assert np.array_equal(right.points, s.points[2:])
    s5 = _samples_of_model(random_stable_model(rng, 2), 5)
    left, right = partition(s5, "half-half")
    assert len(left) == 3 and len(right) == 2  # odd count: extra point left


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 30),
       scheme=st.sampled_from(["alternate", "half-half"]))
def test_partition_disjoint_union(seed, count, scheme):
    rng = np.random.default_rng(seed)
    s = _samples_of_model(random_stable_model(rng, 2), count)
    left, right = partition(s, scheme)
    lp, rp = set(left.points.tolist()), set(right.points.tolist())
    assert lp.isdisjoint(rp)
    assert lp | rp == set(s.points.tolist())
    assert len(left) + len(right) == count


# --- Loewner construction -------------------------------------------------------

def test_loewner_first_order_oracle():
    # H(z) = 1/(z - 0.5), left point 2, right point 1.
    def H(z):
        return 1.0 / (z - 0.5)

    z1, z2 = np.exp(0.3j), np.exp(1.1j)
    s = FrequencySamples(points=np.array([z2, z1]),
                         values=np.array([H(z2), H(z1)]).reshape(-1, 1, 1),
                         omega=np.angle(np.array([z2, z1])))
    l, r = partition(s, "half-half")
    p = build_loewner(l, r)
    assert p.E[0, 0] == pytest.approx((H(z1) - H(z2)) / (z1 - z2))
    assert p.A[0, 0] == pytest.approx((z1 * H(z1) - z2 * H(z2)) / (z1 - z2))
    assert -p.B[0, 0] == pytest.approx(H(z1))   # right-set data
    assert p.C[0, 0] == pytest.approx(H(z2))    # left-set data


def test_build_loewner_mimo_elementwise_oracle():
    # ny=2, nu=3: entry (a, b) of block (i, j) is the divided difference of
    # channel (a, b) between right point i and left point j.
    rng = np.random.default_rng(4)
    ny, nu = 2, 3
    omega = np.linspace(0.1, 2.9, 7)
    values = rng.normal(size=(7, ny, nu)) + 1j * rng.normal(size=(7, ny, nu))
    s = FrequencySamples(points=np.exp(1j * omega), values=values, omega=omega)
    left, right = partition(s, "alternate")
    p = build_loewner(left, right)
    zl, zr, vl, vr = left.points, right.points, left.values, right.values
    assert p.E.shape == p.A.shape == (len(zr) * ny, len(zl) * nu)
    for i in range(len(zr)):
        for j in range(len(zl)):
            for a in range(ny):
                for b in range(nu):
                    d = zr[i] - zl[j]
                    assert p.E[i * ny + a, j * nu + b] == pytest.approx(
                        (vr[i, a, b] - vl[j, a, b]) / d, rel=1e-14)
                    assert p.A[i * ny + a, j * nu + b] == pytest.approx(
                        (zr[i] * vr[i, a, b] - zl[j] * vl[j, a, b]) / d, rel=1e-14)
    for i in range(len(zr)):
        for a in range(ny):
            for b in range(nu):
                assert -p.B[i * ny + a, b] == vr[i, a, b]
    for j in range(len(zl)):
        for a in range(ny):
            for b in range(nu):
                assert p.C[a, j * nu + b] == vl[j, a, b]


def test_loewner_constant_samples():
    c = 3.0
    omega = np.array([0.2, 0.9, 1.7, 2.5])
    s = FrequencySamples(points=np.exp(1j * omega),
                         values=np.full((4, 1, 1), c, dtype=complex),
                         omega=omega)
    left, right = partition(s, "alternate")
    p = build_loewner(left, right)
    assert np.allclose(p.E, 0.0, atol=1e-14)
    z_r = right.points.reshape(-1, 1)
    z_l = left.points.reshape(1, -1)
    assert np.allclose(p.A, c * (z_r - z_l) / (z_r - z_l), atol=1e-13)


def test_loewner_point_collision():
    omega = np.array([0.2, 0.9])
    s = FrequencySamples(points=np.exp(1j * omega),
                         values=np.zeros((2, 1, 1), dtype=complex),
                         omega=omega)
    left, right = partition(s, "half-half")
    with pytest.raises(PointCollision):
        build_loewner(left, left)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(4, 24),
       scheme=st.sampled_from(["alternate", "half-half"]))
def test_loewner_sylvester_identities(seed, count, scheme):
    rng = np.random.default_rng(seed)
    model = random_stable_model(rng, 3, rho=0.8, with_d=True)
    s = _samples_of_model(model, count)
    left, right = partition(s, scheme)
    p = build_loewner(left, right)
    z_r = right.points.reshape(-1, 1)
    z_l = left.points.reshape(1, -1)
    ones_r = np.ones((len(right), 1))
    ones_l = np.ones((1, len(left)))
    scale = max(np.abs(p.A).max(), 1.0)
    # With E = L, A = Ls, B = -V, C = W:
    # Ls - diag(z_right) L = ones * W   and   Ls - L diag(z_left) = V * ones'.
    assert np.allclose(p.A - z_r * p.E, ones_r @ p.C, atol=1e-12 * scale)
    assert np.allclose(p.A - p.E * z_l, -p.B @ ones_l, atol=1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       scheme=st.sampled_from(["alternate", "half-half"]))
def test_loewner_rank_reveals_order(seed, n, scheme):
    rng = np.random.default_rng(seed)
    # Diagonal system with well-separated poles and nonzero residues, so all
    # n modes are genuinely visible in the samples.
    poles = np.linspace(-0.75, 0.75, n) + rng.uniform(-0.05, 0.05, n)
    from pencilid import DescriptorModel
    model = DescriptorModel(
        A=np.diag(poles), B=np.ones((n, 1)),
        C=rng.choice([-1.0, 1.0], size=(1, n)), ts=1.0,
    )
    s = _samples_of_model(model, 2 * n + 4)
    p = build_loewner(*partition(s, scheme))
    sv = np.linalg.svd(p.E, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    assert rank == n


# --- Loewner reduction ------------------------------------------------------------

def test_loewner_reduce_first_order_transfer():
    def H(z):
        return 1.0 / (z - 0.5)

    omega = np.array([0.4, 1.2])
    z = np.exp(1j * omega)
    s = FrequencySamples(points=z, values=H(z).reshape(-1, 1, 1), omega=omega)
    p = build_loewner(*partition(s, "half-half"))
    model = loewner_reduce(p, 1)
    # Transfer function evaluated off the data: H(e^{2i}).
    probe = np.exp(2.0j)
    got = frequency_response(model, [probe])[0, 0, 0]
    assert got == pytest.approx(H(probe), abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_loewner_interpolation(seed, n):
    rng = np.random.default_rng(seed)
    model = random_stable_model(rng, n, rho=0.8)
    s = _samples_of_model(model, 2 * n)
    p = build_loewner(*partition(s, "alternate"))
    red = loewner_reduce(p, n)
    got = frequency_response(red, s.points)
    scale = np.abs(s.values).max()
    assert np.max(np.abs(got - s.values)) <= 1e-8 * scale


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_loewner_real_data_gives_real_impulse(seed, n):
    rng = np.random.default_rng(seed)
    model = random_stable_model(rng, n, rho=0.7)
    h = impulse_response(model, 4 * n + 8)
    s = markov_to_frequency(h)  # conjugate-symmetric full-grid data
    p = build_loewner(*partition(s, "alternate"))
    red = loewner_reduce(p, n)
    hr = impulse_response(red, 12)
    # Imaginary leakage is recorded as a diagnostic on the result.
    assert hr.max_imag <= 1e-6 * max(np.abs(hr.blocks).max(), 1e-30)


# --- Hankel -------------------------------------------------------------------------

def test_build_hankel_oracle():
    h = MarkovSequence(np.array([0.0, 1.0, 0.5, 0.25, 0.125]), ts=1.0)
    p = build_hankel(h)
    assert np.array_equal(p.E, [[1.0, 0.5], [0.5, 0.25]])
    assert np.array_equal(p.A, [[0.5, 0.25], [0.25, 0.125]])
    assert p.D[0, 0] == 0.0


def test_build_hankel_block_structure_mimo():
    rng = np.random.default_rng(0)
    for ny, nu in ((2, 1), (2, 3)):
        blocks = rng.normal(size=(7, ny, nu))  # m=3
        p = build_hankel(MarkovSequence(blocks, ts=1.0))
        m = 3
        assert p.E.shape == p.A.shape == (m * ny, m * nu)
        for i in range(m):
            for j in range(m):
                rows, cols = slice(i * ny, (i + 1) * ny), slice(j * nu, (j + 1) * nu)
                assert np.array_equal(p.E[rows, cols], blocks[i + j + 1])
                assert np.array_equal(p.A[rows, cols], blocks[i + j + 2])


def test_hankel_reduce_scalar_oracle():
    h = MarkovSequence(np.array([0.0, 1.0, 0.5, 0.25, 0.125]), ts=1.0)
    model = hankel_reduce(build_hankel(h), 1)
    back = impulse_response(model, 5)
    assert np.allclose(back.blocks[:, 0, 0], h.blocks[:, 0, 0], atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       shape=st.sampled_from([(1, 1), (2, 3)]))
def test_hankel_exact_realization(seed, n, shape):
    rng = np.random.default_rng(seed)
    ny, nu = shape
    model = random_stable_model(rng, n, nu=nu, ny=ny, rho=0.85, with_d=True)
    N = 2 * n + 4
    h = exact_markov(model, N)
    red = hankel_reduce(build_hankel(h), n)
    back = impulse_response(red, N)
    scale = max(np.abs(h.blocks).max(), 1e-30)
    assert np.max(np.abs(back.blocks - h.blocks)) <= 1e-8 * scale


def test_hankel_truncation_error_bound():
    rng = np.random.default_rng(12)
    model = random_stable_model(rng, 2, rho=0.8)
    h = exact_markov(model, 12)
    p = build_hankel(h)
    sv = np.linalg.svd(p.E, compute_uv=False)
    red = hankel_reduce(p, 1)
    back = impulse_response(red, 12)
    err = np.sqrt(np.sum((back.blocks - h.blocks) ** 2))
    assert err <= 10 * np.sqrt(np.sum(sv[1:] ** 2)) + 1e-12


# --- one reduce, one SVD per pencil ---------------------------------------------------

def _hankel_of(model):
    return build_hankel(exact_markov(model, 16))


def _loewner_of(model):
    return build_loewner(*partition(_samples_of_model(model, 12), "alternate"))


@pytest.mark.parametrize("build", [pytest.param(_hankel_of, id="hankel"),
                                   pytest.param(_loewner_of, id="loewner")])
def test_reduce_shares_one_svd(monkeypatch, build):
    rng = np.random.default_rng(6)
    p = build(random_stable_model(rng, 4, rho=0.8))
    calls = count_svd_calls(monkeypatch)
    models = [reduce(p, r) for r in (1, 3, 4)]
    assert len(calls) == 1
    assert [m.n for m in models] == [1, 3, 4]


@pytest.mark.parametrize("build", [pytest.param(_hankel_of, id="hankel"),
                                   pytest.param(_loewner_of, id="loewner")])
def test_reduced_e_is_leading_singular_values(build):
    p = build(random_stable_model(np.random.default_rng(7), 4, rho=0.8))
    for r in (1, 3, 4):
        assert np.array_equal(reduce(p, r).E, np.diag(p.svd[1][:r]))


def test_loewner_interpolation_with_ill_conditioned_e():
    # A draw of test_loewner_interpolation whose reduced E has
    # cond = s_1 / s_8 above 1e12: the descriptor model still interpolates,
    # so reduce must not turn such an E into an error.
    rng = np.random.default_rng(310)
    model = random_stable_model(rng, 8, rho=0.8)
    s = _samples_of_model(model, 16)
    p = build_loewner(*partition(s, "alternate"))
    sv = p.svd[1]
    assert sv[7] / sv[0] < 1e-12
    got = frequency_response(reduce(p, 8), s.points)
    assert np.max(np.abs(got - s.values)) <= 1e-8 * np.abs(s.values).max()


@pytest.mark.parametrize("pencil, too_high", [
    pytest.param(lambda: build_hankel(MarkovSequence(np.arange(7.0), ts=1.0)), 4,
                 id="hankel"),
    pytest.param(lambda: build_loewner(*partition(_samples_of_model(
        random_stable_model(np.random.default_rng(1), 3), 8), "alternate")), 5,
                 id="loewner"),
])
def test_reduce_order_errors(pencil, too_high):
    p = pencil()
    with pytest.raises(OrderError):
        reduce(p, 0)
    with pytest.raises(OrderError):
        reduce(p, too_high)


# --- SVD order selection ---------------------------------------------------------------

def test_svd_order_rank_one_hankel():
    h = MarkovSequence(np.array([0.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]),
                       ts=1.0)
    rep = svd_order(build_hankel(h))
    assert rep.order_threshold == 1
    assert rep.order_gap == 1


def test_svd_order_identity():
    rep = svd_order(np.eye(6))
    assert rep.order_threshold == 6
    assert rep.order_gap == 6


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 10),
       cols=st.integers(2, 10))
def test_svd_report_invariants(seed, rows, cols):
    rng = np.random.default_rng(seed)
    rep = svd_order(rng.normal(size=(rows, cols)))
    s = rep.singular_values
    assert np.all(np.diff(s) <= 1e-12 * s[0])
    assert np.all(s >= 0)
    assert rep.normalized[0] == pytest.approx(1.0)
    assert rep.order_threshold >= 1
    assert rep.order_gap >= 1


def test_save_singular_values_format(tmp_path):
    path = tmp_path / "sv.csv"
    save_singular_values(np.array([4.0, 2.0, 1.0]), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,sigma,sigma_normalized"
    index, sigma, norm = lines[2].split(",")
    assert int(index) == 2 and float(sigma) == 2.0 and float(norm) == 0.5
