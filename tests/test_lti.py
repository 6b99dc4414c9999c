"""Model simulation and response evaluation against independent oracles."""

import json
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilid import (
    DescriptorModel,
    DimensionError,
    FormatError,
    MarkovSequence,
    PoleHit,
    SignalSequence,
    SingularE,
    descriptor_to_standard,
    discretize_zoh,
    frequency_response,
    impulse_response,
    is_stable,
    load_markov,
    load_model,
    save_markov,
    save_model,
    simulate,
)
from pencilid.lti import _realify
from conftest import random_stable_model


def _hand_simulate(A, B, C, D, u):
    """Reference loop: x_{k+1} = A x_k + B u_k, y_k = C x_k + D u_k."""
    n = A.shape[0]
    x = np.zeros(n)
    ys = []
    for uk in u:
        ys.append(C @ x + D @ uk)
        x = A @ x + B @ uk
    return np.asarray(ys)


def test_imaginary_leakage_warning_reports_the_ratio():
    # Peak |Im| 6e-6 against ||Re|| = 5: the warning prints the ratio 1.2e-6
    # that it compares with the limit, not the absolute peak.
    with pytest.warns(UserWarning) as caught:
        real, max_imag = _realify(np.array([3.0 + 6e-6j, 4.0]))
    assert [str(w.message) for w in caught] == [
        "imaginary leakage 1.200e-06 of the response norm exceeds 1e-06"]
    assert np.array_equal(real, [3.0, 4.0]) and max_imag == 6e-6
    # A peak of 4e-6 is 8e-7 of the norm: below the limit, no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _realify(np.array([3.0 + 4e-6j, 4.0]))


def test_simulate_matches_reference_loop():
    rng = np.random.default_rng(7)
    model = random_stable_model(rng, 4, nu=2, ny=3, with_d=True)
    u = rng.normal(size=(40, 2))
    y = simulate(model, SignalSequence(u, ts=1.0))
    y_ref = _hand_simulate(model.A, model.B, model.C, model.D, u)
    assert np.allclose(y.samples, y_ref, atol=1e-12)


def test_impulse_response_formula():
    rng = np.random.default_rng(3)
    model = random_stable_model(rng, 5, nu=2, ny=2, with_d=True)
    h = impulse_response(model, 12)
    assert np.allclose(h.blocks[0], model.D)
    Ak = np.eye(5)
    for k in range(1, 12):
        assert np.allclose(h.blocks[k], model.C @ Ak @ model.B, atol=1e-12)
        Ak = model.A @ Ak


def _per_point_response(model, z):
    """Reference: H(z) = C (zE - A)^{-1} B + D solved at each point."""
    E = model.E if model.E is not None else np.eye(model.n)
    return np.array([model.C @ np.linalg.solve(zk * E - model.A, model.B)
                     + model.d_matrix() for zk in z])


def _count_solves(monkeypatch):
    """Record every linear solve made through numpy or scipy."""
    calls = []
    for module, name in ((np.linalg, "solve"), (scipy.linalg, "solve"),
                         (scipy.linalg, "lu_solve")):
        def counting(*args, _solve=getattr(module, name), **kwargs):
            calls.append(name)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


def _well_conditioned_e(rng, n, spread=2.0):
    """Symmetric E with eigenvalues in [e^-spread, e^spread]."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q @ np.diag(np.exp(rng.uniform(-spread, spread, size=n))) @ Q.T


def test_frequency_response_formula(monkeypatch):
    # The modal form serves well-conditioned models; a defective A and a
    # singular E are solved point by point (one solve per point).
    rng = np.random.default_rng(11)
    E = _well_conditioned_e(rng, 4)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    loewner_like = DescriptorModel(
        A=E @ A, B=E @ (rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))),
        C=rng.normal(size=(2, 4)) - 1j * rng.normal(size=(2, 4)),
        D=rng.normal(size=(2, 3)), E=E, ts=1.0)
    cases = [
        (random_stable_model(rng, 4, with_d=True), False),
        (DescriptorModel(A=[[0.5, 1.0], [0.0, 0.5]], B=[[0.0], [1.0]],
                         C=[[1.0, 0.0]], ts=1.0), True),
        (DescriptorModel(A=[[0.5, 0], [0, 0.5]], B=[[1.0], [1.0]],
                         C=[[1.0, 1.0]], E=[[1.0, 0.0], [0.0, 0.0]], ts=1.0), True),
        (loewner_like, False),
    ]
    z = np.exp(1j * np.linspace(0.1, 3.0, 7))
    calls = _count_solves(monkeypatch)
    for model, per_point in cases:
        calls.clear()
        H = frequency_response(model, z)
        solves = len(calls)
        assert H.shape == (len(z), model.ny, model.nu)
        assert solves == len(z) if per_point else solves <= 2
        ref = _per_point_response(model, z)
        assert np.allclose(H, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))


def test_frequency_response_pole_hit():
    # A point on a pole raises, naming the point as the caller passed it.
    for model in (DescriptorModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], ts=1.0),
                  DescriptorModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], E=[[2.0]], ts=1.0)):
        with pytest.raises(PoleHit, match=r"evaluation point 0\.5 hits a pole"):
            frequency_response(model, [1j, 0.5])


def test_frequency_response_solves_once(monkeypatch):
    # One eigendecomposition serves every point: the solves do not grow
    # with the grid.
    rng = np.random.default_rng(30)
    model = random_stable_model(rng, 30, with_d=True)
    E = _well_conditioned_e(rng, 30, spread=1.0)
    desc = DescriptorModel(A=E @ model.A, B=E @ model.B, C=model.C, D=model.D,
                           E=E, ts=1.0)
    calls = _count_solves(monkeypatch)
    counts = []
    for K in (200, 7):
        calls.clear()
        frequency_response(desc, np.exp(1j * np.linspace(0.0, np.pi, K)))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


def test_discretize_zoh_matches_scipy():
    import scipy.signal

    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3)) - 2.0 * np.eye(3)
    B = rng.normal(size=(3, 1))
    C = rng.normal(size=(1, 3))
    D = np.zeros((1, 1))
    ct = DescriptorModel(A=A, B=B, C=C, D=D, ts="continuous")
    dt = discretize_zoh(ct, 0.1)
    Ad, Bd, Cd, Dd, _ = scipy.signal.cont2discrete((A, B, C, D), 0.1, "zoh")
    assert np.allclose(dt.A, Ad, atol=1e-12)
    assert np.allclose(dt.B, Bd, atol=1e-12)
    assert dt.ts == 0.1


def test_is_stable():
    stable = DescriptorModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], ts=1.0)
    unstable = DescriptorModel(A=[[1.5]], B=[[1.0]], C=[[1.0]], ts=1.0)
    ok, radius = is_stable(stable)
    assert ok and radius == pytest.approx(0.5)
    ok, radius = is_stable(unstable)
    assert not ok and radius == pytest.approx(1.5)


def test_singular_e_rejected():
    model = DescriptorModel(
        A=[[0.5, 0], [0, 0.5]], B=[[1.0], [1.0]], C=[[1.0, 0.0]],
        E=[[1.0, 0.0], [0.0, 0.0]], ts=1.0,
    )
    with pytest.raises(SingularE):
        impulse_response(model, 5)


def test_cond_e_limit_boundary(monkeypatch):
    # E is singular beyond cond(E) = 1e12 and not below it.  The SVD's
    # cond(E) is taken only where the Cholesky certificate cannot clear E.
    rng = np.random.default_rng(12)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    calls = []
    cond = np.linalg.cond

    def counting_cond(*args, **kwargs):
        calls.append(1)
        return cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    for c, singular, svd_taken in ((2e12, True, True), (5e11, False, True),
                                   (10.0, False, False)):
        E = Q @ np.diag([1.0, 0.5, 1.0 / c]) @ Q.T
        model = DescriptorModel(A=0.5 * E, B=[[1.0], [0.0], [1.0]],
                                C=[[1.0, 1.0, 0.0]], E=E, ts=1.0)
        calls.clear()
        if singular:
            with pytest.raises(SingularE, match=r"^cond\(E\) exceeds 1e\+12$"):
                descriptor_to_standard(model)
        else:
            assert descriptor_to_standard(model).E is None
        assert len(calls) == int(svd_taken)


def test_frequency_response_non_finite():
    # A NaN in A or E gives NaN responses, silently, through the fallback.
    z = np.exp(1j * np.linspace(0.1, 3.0, 4))
    for A, E in ((np.array([[0.5, np.nan], [0.0, 0.2]]), None),
                 (np.diag([0.5, 0.2]), np.array([[1.0, np.nan], [0.0, 1.0]]))):
        model = DescriptorModel(A=A, B=np.ones((2, 1)), C=np.ones((1, 2)), E=E, ts=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = frequency_response(model, z)
        assert H.shape == (4, 1, 1) and np.isnan(H).all()


# --- invariants (randomized, >= 100 cases each) ----------------------------

@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       N=st.integers(2, 20))
def test_simulate_impulse_equivalence(seed, n, N):
    rng = np.random.default_rng(seed)
    model = random_stable_model(rng, n, with_d=True)
    pulse = np.zeros((N, 1))
    pulse[0, 0] = 1.0
    y = simulate(model, SignalSequence(pulse, ts=1.0))
    h = impulse_response(model, N)
    scale = max(np.abs(h.blocks).max(), 1.0)
    assert np.allclose(y.samples[:, 0], h.blocks[:, 0, 0],
                       atol=1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       theta=st.floats(0.01, 3.1))
def test_conjugate_symmetry(seed, n, theta):
    rng = np.random.default_rng(seed)
    model = random_stable_model(rng, n, nu=2, ny=2, with_d=True)
    z = np.exp(1j * theta)
    H = frequency_response(model, [z, np.conj(z)])
    assert np.allclose(H[1], np.conj(H[0]), atol=1e-12 * max(1, np.abs(H[0]).max()))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_descriptor_to_standard_preserves_impulse(seed, n):
    rng = np.random.default_rng(seed)
    model = random_stable_model(rng, n, with_d=True)
    E = _well_conditioned_e(rng, n)
    desc = DescriptorModel(A=E @ model.A, B=E @ model.B, C=model.C,
                           D=model.D, E=E, ts=1.0)
    std = descriptor_to_standard(desc)
    assert std.E is None
    h1 = impulse_response(desc, 10).blocks
    h2 = impulse_response(std, 10).blocks
    scale = max(np.abs(h1).max(), 1e-30)
    assert np.allclose(h1, h2, atol=1e-10 * scale)
    # desc disguises model; its impulse response is the reference.
    h0 = impulse_response(model, 10).blocks
    assert np.allclose(h1, h0, atol=1e-10 * max(np.abs(h0).max(), 1e-30))


def test_impulse_response_solves_with_e_once(monkeypatch):
    # E is folded into A and B once, not solved with at every step.
    rng = np.random.default_rng(4)
    model = random_stable_model(rng, 10)
    E = _well_conditioned_e(rng, 10, spread=1.0)
    desc = DescriptorModel(A=E @ model.A, B=E @ model.B, C=model.C, E=E, ts=1.0)
    calls = _count_solves(monkeypatch)
    impulse_response(desc, 50)
    assert len(calls) == 1


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       complex_entries=st.booleans(), with_e=st.booleans(),
       log_split=st.floats(-8.0, 0.0))
def test_frequency_response_matches_per_point_solve(seed, n, complex_entries,
                                                    with_e, log_split):
    # Two eigenvalues lie 10**log_split apart, so cond(V) spans both sides
    # of the modal form's guard.
    rng = np.random.default_rng(seed)
    draw = ((lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape))
            if complex_entries else (lambda *shape: rng.normal(size=shape)))
    lam = rng.uniform(-0.6, 0.6, size=n)
    if complex_entries:
        lam = lam + 1j * rng.uniform(-0.6, 0.6, size=n)
    if n > 1:
        lam[1] = lam[0] + 10.0 ** log_split
    Q, _ = np.linalg.qr(draw(n, n))
    A = Q @ (np.diag(lam) + np.triu(draw(n, n), 1)) @ Q.conj().T
    B, C, D = draw(n, 2), draw(2, n), draw(2, 2)
    E = _well_conditioned_e(rng, n) if with_e else None
    model = DescriptorModel(A=A if E is None else E @ A, B=B if E is None else E @ B,
                            C=C, D=D, E=E, ts=1.0)
    z = np.exp(1j * np.linspace(-3.1, 3.1, 16))
    H = frequency_response(model, z)
    ref = _per_point_response(model, z)
    assert np.abs(H - ref).max() <= 1e-10 * np.abs(ref).max()


# --- persistence ------------------------------------------------------------

def test_model_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    model = random_stable_model(rng, 4, nu=2, ny=3, with_d=True)
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    for attr in ("A", "B", "C", "D"):
        assert np.array_equal(getattr(model, attr), getattr(back, attr))
    assert back.ts == model.ts


def test_model_roundtrip_complex(tmp_path):
    model = DescriptorModel(
        A=np.array([[0.5 + 0.1j]]), B=np.array([[1.0 - 2.0j]]),
        C=np.array([[1.0j]]), E=np.array([[2.0 + 0.0j]]), ts=0.5,
    )
    path = tmp_path / "c.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.A, model.A)
    assert np.array_equal(back.E, model.E)


def test_load_model_format_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_model(path)
    path.write_text(json.dumps({"A": [[0.5]], "B": [[1.0]]}))
    with pytest.raises(FormatError):
        load_model(path)
    path.write_text(json.dumps(
        {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "n": 7}))
    with pytest.raises(FormatError):
        load_model(path)


def test_markov_roundtrip(tmp_path):
    # Channel counts of 10 or more need delimited labels (h_1_10).
    rng = np.random.default_rng(2)
    for ny, nu in ((2, 3), (1, 10), (10, 1)):
        h = MarkovSequence(rng.normal(size=(9, ny, nu)), ts=0.25)
        path = tmp_path / f"h{ny}x{nu}.csv"
        save_markov(h, path)
        back = load_markov(path)
        assert np.array_equal(back.blocks, h.blocks)
        assert back.ts == 0.25


def test_dimension_errors():
    with pytest.raises(DimensionError):
        DescriptorModel(A=[[0.5, 0.1]], B=[[1.0]], C=[[1.0]], ts=1.0)
