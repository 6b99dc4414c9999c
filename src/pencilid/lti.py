"""Discrete-time LTI descriptor models: simulation and response evaluation.

A model is the 5-tuple (E, A, B, C, D) with sample period ``ts``; ``E`` may be
absent (identity) and ``D`` may be absent (zero).  Continuous-time models are
supported only as an ingestion format, to be discretized with a zero-order
hold before any time-domain use.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import scipy.linalg

from .errors import DimensionError, FormatError, PoleHit, SingularE
from .tables import channel_header, read_table, write_table

CONTINUOUS = "continuous"

# Relative condition number of E beyond which it is treated as singular.
_E_COND_LIMIT = 1e12

# Condition number of the eigenvectors of E^{-1}A beyond which frequency
# responses are not taken from the modal form.  Its error grows as
# eps * cond(V) (a few tens of times that on nearly defective models), so this
# limit keeps eps * cond(V) at or below 2.2e-12 of the response.
_V_COND_LIMIT = 1e4

# Imaginary leakage above this fraction of the response norm triggers a warning.
_IMAG_WARN_RATIO = 1e-6


def _as_2d(M, name: str) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M))
    if M.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D matrix, got ndim={M.ndim}")
    return M


@dataclass(frozen=True)
class DescriptorModel:
    """State-space model E x_{k+1} = A x_k + B u_k,  y_k = C x_k + D u_k.

    ``E is None`` means identity (standard form); ``D is None`` means zero.
    ``ts`` is the sample period in seconds, or the string ``"continuous"``.
    Entries may be complex (pencil-based realizations on unit-circle data
    produce complex matrices); responses are then returned as real parts with
    the imaginary leakage recorded.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: Optional[np.ndarray] = None
    E: Optional[np.ndarray] = None
    ts: Union[float, str] = 1.0

    def __post_init__(self):
        object.__setattr__(self, "A", _as_2d(self.A, "A"))
        object.__setattr__(self, "B", _as_2d(self.B, "B"))
        object.__setattr__(self, "C", _as_2d(self.C, "C"))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise DimensionError(f"B has {self.B.shape[0]} rows, expected {n}")
        if self.C.shape[1] != n:
            raise DimensionError(f"C has {self.C.shape[1]} cols, expected {n}")
        if self.D is not None:
            object.__setattr__(self, "D", _as_2d(self.D, "D"))
            if self.D.shape != (self.ny, self.nu):
                raise DimensionError(
                    f"D must be {self.ny}x{self.nu}, got {self.D.shape}"
                )
        if self.E is not None:
            object.__setattr__(self, "E", _as_2d(self.E, "E"))
            if self.E.shape != (n, n):
                raise DimensionError(f"E must be {n}x{n}, got {self.E.shape}")
        if not (self.ts == CONTINUOUS or (np.isscalar(self.ts) and self.ts > 0)):
            raise DimensionError(f"ts must be positive or 'continuous', got {self.ts!r}")
        for M in (self.A, self.B, self.C, self.D, self.E):
            if M is not None:
                M.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def nu(self) -> int:
        return self.B.shape[1]

    @property
    def ny(self) -> int:
        return self.C.shape[0]

    @property
    def is_discrete(self) -> bool:
        return self.ts != CONTINUOUS

    @property
    def is_complex(self) -> bool:
        return any(
            M is not None and np.iscomplexobj(M)
            for M in (self.A, self.B, self.C, self.D, self.E)
        )

    def d_matrix(self) -> np.ndarray:
        if self.D is None:
            return np.zeros((self.ny, self.nu))
        return self.D


@dataclass(frozen=True)
class SignalSequence:
    """Vector-valued samples indexed by time step, with a common period."""

    samples: np.ndarray  # (K, channels)
    ts: float = 1.0

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if s.shape[0] == 1 and s.shape[1] > 1 and np.asarray(self.samples).ndim == 1:
            s = s.T  # 1-D input is a single-channel signal
        if s.shape[0] < 1:
            raise DimensionError("signal must contain at least one sample")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def channels(self) -> int:
        return self.samples.shape[1]

    @functools.cached_property
    def window_ranks(self) -> dict:
        """Memo of the rank checks of this signal's data windows, keyed by
        (depth, rank_rtol).  The samples are frozen at construction, so an
        entry holds unless the caller writes to them through another view."""
        return {}


@dataclass(frozen=True)
class MarkovSequence:
    """Impulse-response coefficient blocks h_0 .. h_{N-1}."""

    blocks: np.ndarray  # (N, ny, nu)
    ts: float = 1.0
    max_imag: float = 0.0  # diagnostic from complex-model evaluation

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=float)
        if b.ndim == 1:
            b = b.reshape(-1, 1, 1)
        if b.ndim != 3 or b.shape[0] < 1:
            raise DimensionError(f"blocks must be (N, ny, nu) with N >= 1, got {b.shape}")
        b.setflags(write=False)
        object.__setattr__(self, "blocks", b)

    def __len__(self) -> int:
        return self.blocks.shape[0]

    @property
    def ny(self) -> int:
        return self.blocks.shape[1]

    @property
    def nu(self) -> int:
        return self.blocks.shape[2]


def _realify(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Split a complex response into its real part and the peak imaginary
    magnitude; warn when the leakage is large relative to the response."""
    if not np.iscomplexobj(x):
        return np.asarray(x, dtype=float), 0.0
    max_imag = float(np.max(np.abs(x.imag))) if x.size else 0.0
    scale = float(np.linalg.norm(x.real))
    if scale > 0 and max_imag > _IMAG_WARN_RATIO * scale:
        warnings.warn(
            f"imaginary leakage {max_imag / scale:.3e} of the response norm "
            f"exceeds {_IMAG_WARN_RATIO:g}", stacklevel=3,
        )
    return np.ascontiguousarray(x.real), max_imag


def simulate(model: DescriptorModel, input: SignalSequence) -> SignalSequence:
    """Run the state recursion from a zero state and return the outputs.

    A descriptor model runs as its standard form (:func:`descriptor_to_standard`),
    so E is inverted once, not at every step.  Complex-entry models are
    simulated in complex arithmetic and the real part is returned.
    """
    if not model.is_discrete:
        raise DimensionError("simulate requires a discrete-time model")
    if input.channels != model.nu:
        raise DimensionError(
            f"input has {input.channels} channels, model expects {model.nu}"
        )
    model = descriptor_to_standard(model)
    dtype = complex if model.is_complex else float
    K = len(input)
    u = input.samples
    x = np.zeros(model.n, dtype=dtype)
    D = model.d_matrix()
    y = np.empty((K, model.ny), dtype=dtype)
    for k in range(K):
        y[k] = model.C @ x + D @ u[k]
        x = model.A @ x + model.B @ u[k]
    y_real, _ = _realify(y)
    return SignalSequence(y_real, ts=input.ts)


def impulse_response(model: DescriptorModel, N: int) -> MarkovSequence:
    """First N impulse-response coefficient blocks [D, CB, CAB, ...].

    For descriptor models these are the blocks of the standard form
    (:func:`descriptor_to_standard`), which folds E in once.
    """
    if not model.is_discrete:
        raise DimensionError("impulse_response requires a discrete-time model")
    if N < 1:
        raise DimensionError("N must be >= 1")
    model = descriptor_to_standard(model)
    dtype = complex if model.is_complex else float
    blocks = np.empty((N, model.ny, model.nu), dtype=dtype)
    blocks[0] = model.d_matrix()
    X = model.B.astype(dtype)
    for k in range(1, N):
        blocks[k] = model.C @ X
        X = model.A @ X
    real_blocks, max_imag = _realify(blocks)
    return MarkovSequence(real_blocks, ts=model.ts, max_imag=max_imag)


def frequency_response(model: DescriptorModel, points: Sequence[complex]) -> np.ndarray:
    """Evaluate H(z) = D + C (zE - A)^{-1} B at each point.

    Returns an array of shape (len(points), ny, nu), complex.  The response
    comes from the modal form of the standard model
    (:func:`descriptor_to_standard`): with E^{-1}A = V diag(lam) V^{-1},
    H(z) = D + sum_i r_i / (z - lam_i) with residues
    r_i = (CV)_i (V^{-1}E^{-1}B)_i, so one eigendecomposition serves every
    point.  Each point is solved on its own instead when cond(E)
    exceeds ``_E_COND_LIMIT`` (E may be singular), when cond(V) exceeds
    ``_V_COND_LIMIT`` (E^{-1}A is defective or nearly so), or when a point
    equals an eigenvalue; :class:`PoleHit` is raised only where (zE - A) is
    singular.
    """
    D = model.d_matrix()
    modal = _modal_form(model)
    if modal is not None:
        lam, residues = modal
        offsets = np.asarray(points, dtype=complex)[:, None] - lam
        if np.all(offsets != 0):
            H = (1.0 / offsets) @ residues
            return D + H.reshape(len(offsets), model.ny, model.nu)
    E = model.E if model.E is not None else np.eye(model.n)
    out = np.empty((len(points), model.ny, model.nu), dtype=complex)
    for i, z in enumerate(points):
        try:
            X = np.linalg.solve(z * E - model.A, model.B)
        except np.linalg.LinAlgError:
            raise PoleHit(z) from None
        out[i] = D + model.C @ X
    return out


def _modal_form(model: DescriptorModel) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Eigenvalues lam of E^{-1}A and the residues r_i = (CV)_i (V^{-1}E^{-1}B)_i
    as an (n, ny*nu) matrix, or None when E or V is too ill-conditioned or
    the decomposition fails (non-finite entries, no states).  cond(V) is
    taken by SVD only when the Cholesky certificate does not clear V."""
    try:
        std = descriptor_to_standard(model)
        lam, V = np.linalg.eig(std.A)
        if (not sigma_min_exceeds(V, 1 / _V_COND_LIMIT)
                and np.linalg.cond(V) > _V_COND_LIMIT):
            return None
        VinvB = np.linalg.solve(V, std.B)
    except (SingularE, np.linalg.LinAlgError):
        return None
    residues = np.einsum("yi,iu->iyu", std.C @ V, VinvB)
    return lam, residues.reshape(model.n, -1)


def descriptor_to_standard(model: DescriptorModel) -> DescriptorModel:
    """Fold E into A and B: the standard form (E^{-1}A, E^{-1}B, C, D).

    The one place a model's E is inverted, by one LU solve of E against
    [A | B]; raises :class:`SingularE` when cond(E) exceeds ``_E_COND_LIMIT``.
    A Cholesky certificate (:func:`sigma_min_exceeds`) clears a
    well-conditioned E; any other E is judged by the SVD's cond(E).
    """
    if model.E is None:
        return model
    if (not sigma_min_exceeds(model.E, 1 / _E_COND_LIMIT)
            and np.linalg.cond(model.E) > _E_COND_LIMIT):
        raise SingularE(f"cond(E) exceeds {_E_COND_LIMIT:g}")
    AB = np.linalg.solve(model.E, np.hstack([model.A, model.B]))
    return DescriptorModel(A=AB[:, :model.n], B=AB[:, model.n:], C=model.C,
                           D=model.D, E=None, ts=model.ts)


def sigma_min_exceeds(M: np.ndarray, rel: float) -> bool:
    """True only when one Cholesky factorization proves
    sigma_min(M) > rel * ||M||_F, and so sigma_min(M) > rel * sigma_max(M):
    M has full row rank and a condition number below 1 / rel.  False proves
    nothing, and the caller then decides by SVD.  False comes at once when
    M has more rows than columns; otherwise the certificate is
    :func:`gram_sigma_min_exceeds` on the computed Gram M M^H, with m the
    column count of M.
    """
    n, m = M.shape
    if n > m:
        return False
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite: not proven
        G = M @ M.conj().T
    return gram_sigma_min_exceeds(G, rel, m)


def gram_sigma_min_exceeds(G: np.ndarray, rel: float, m: float) -> bool:
    """True only when one Cholesky factorization of a shifted G proves
    sigma_min(M) > rel * ||M||_F for the n-row M whose exact Gram M M^H the
    given n x n G approximates within gamma_{m+2} t in the 2-norm, where
    t = trace(G) = ||M||_F^2 and gamma_k = k u / (1 - k u), u = eps / 2.  A
    computed product M M^H meets that with m the column count of M (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sections 3.5
    and 3.6; the + 2 covers complex products).  A Gram filled another way
    passes the m its own error bound gives: a bound gamma_k t' with t' >= t
    is met by m = k t' / t.  False proves nothing.  False comes without a
    factorization when t is not finite or lies outside [1e-150, 1e150]
    (inside that range the Gram neither overflows nor loses accuracy to
    underflow).  G is not modified.

    The proof.  The diagonal shift adds at most u t, and a Cholesky
    factorization that runs to the end is exact for a matrix within
    gamma_{n+1} ||R||_F^2 ~ gamma_{n+1} t of the one it was given
    (Theorem 10.3).  Success on G - tau I thus proves
    lambda_min(M M^H) > tau - (n + m + 6) u t to first order.  With
    tau = (2 rel^2 + 2 (n + m + 6) eps) t, four times that margin, what is
    left covers the higher-order terms and the rounding of t, and
    sigma_min(M)^2 > 2 rel^2 t.  The factor 2 keeps the SVD's own rounding
    at its cutoff from contradicting the proof.
    """
    n = len(G)
    t = np.trace(G).real
    if not 1e-150 <= t <= 1e150:
        return False
    tau = (2 * rel**2 + 2 * (n + m + 6) * np.finfo(float).eps) * t
    shifted = G.copy()
    shifted[np.diag_indices(n)] -= tau
    try:
        scipy.linalg.cho_factor(shifted, overwrite_a=True)
    except (scipy.linalg.LinAlgError, ValueError):  # not definite, or not finite
        return False
    return True


def discretize_zoh(model: DescriptorModel, ts: float) -> DescriptorModel:
    """Zero-order-hold discretization of a continuous standard-form model.

    Uses the augmented-matrix exponential
    exp([[A, B], [0, 0]] * ts) = [[A_d, B_d], [0, I]].
    """
    if model.is_discrete:
        raise DimensionError("model is already discrete")
    if model.E is not None:
        model = descriptor_to_standard(model)
    if ts <= 0:
        raise DimensionError("ts must be positive")
    n, nu = model.n, model.nu
    aug = np.zeros((n + nu, n + nu))
    aug[:n, :n] = model.A
    aug[:n, n:] = model.B
    expm = scipy.linalg.expm(aug * ts)
    return DescriptorModel(
        A=expm[:n, :n], B=expm[:n, n:], C=model.C, D=model.D, E=None, ts=ts
    )


def is_stable(model: DescriptorModel) -> tuple[bool, float]:
    """Stability of E^{-1}A; returns (stable, spectral radius or abscissa)."""
    eig = np.linalg.eigvals(descriptor_to_standard(model).A)
    if model.is_discrete:
        radius = float(np.max(np.abs(eig))) if eig.size else 0.0
        return radius < 1.0, radius
    abscissa = float(np.max(eig.real)) if eig.size else -np.inf
    return abscissa < 0.0, abscissa


# ---------------------------------------------------------------------------
# Model persistence (JSON; complex entries become [re, im] pairs)
# ---------------------------------------------------------------------------

def _encode_matrix(M: Optional[np.ndarray]):
    if M is None:
        return None
    if np.iscomplexobj(M):
        return [[[float(v.real), float(v.imag)] for v in row] for row in M]
    return [[float(v) for v in row] for row in M]


def _decode_matrix(data, name: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"matrix {name} is not numeric: {exc}") from None
    if arr.ndim == 2:
        return arr
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    raise FormatError(f"matrix {name} has unexpected shape {arr.shape}")


def save_model(model: DescriptorModel, path) -> None:
    doc = {
        "n": model.n,
        "nu": model.nu,
        "ny": model.ny,
        "ts": model.ts,
        "A": _encode_matrix(model.A),
        "B": _encode_matrix(model.B),
        "C": _encode_matrix(model.C),
    }
    if model.D is not None:
        doc["D"] = _encode_matrix(model.D)
    if model.E is not None:
        doc["E"] = _encode_matrix(model.E)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_model(path) -> DescriptorModel:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {exc.lineno}, col {exc.colno}: {exc.msg}")
    for key in ("A", "B", "C"):
        if key not in doc:
            raise FormatError(f"{path}: missing matrix {key!r}")
    A = _decode_matrix(doc["A"], "A")
    B = _decode_matrix(doc["B"], "B")
    C = _decode_matrix(doc["C"], "C")
    D = _decode_matrix(doc["D"], "D") if doc.get("D") is not None else None
    E = _decode_matrix(doc["E"], "E") if doc.get("E") is not None else None
    ts = doc.get("ts", 1.0)
    try:
        model = DescriptorModel(A=A, B=B, C=C, D=D, E=E, ts=ts)
    except DimensionError as exc:
        raise FormatError(f"{path}: {exc}") from None
    for key, expected in (("n", model.n), ("nu", model.nu), ("ny", model.ny)):
        if key in doc and doc[key] != expected:
            raise FormatError(f"{path}: declared {key}={doc[key]} but matrices give {expected}")
    return model


def save_markov(h: MarkovSequence, path) -> None:
    """CSV export of impulse-response blocks: one row per step k, the
    channels ``h_i_j`` row by row, the sample period in the ``ts`` column."""
    write_table(path, channel_header("markov", h.ny, h.nu),
                ([k, *row] for k, row in enumerate(h.blocks.reshape(len(h), -1).tolist())),
                ts=h.ts)


def load_markov(path) -> MarkovSequence:
    """Read impulse-response blocks written by :func:`save_markov`.

    Channel dimensions are recovered from the ``h_i_j`` column labels.
    """
    (ny, nu), table, ts = read_table(path, "markov")
    blocks = table[:, 1:].reshape(len(table), ny, nu)
    return MarkovSequence(blocks=blocks, ts=ts if ts is not None else 1.0)
