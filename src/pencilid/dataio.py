"""Dataset generation and persistence.

Random-excitation experiments use numpy's PCG64 generator seeded explicitly,
so a dataset is a pure function of (model, N_s, sigma2, seed) and replays
bit-identically across runs.  Datasets persist as a :mod:`.tables` CSV plus a
``.meta.json`` sidecar, so save/load is lossless.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DimensionError, FormatError
from .lti import DescriptorModel, SignalSequence, simulate
from .tables import channel_header, read_table, write_table


@dataclass(frozen=True)
class Dataset:
    """An input-output record, optionally with the noise-free output kept."""

    u: SignalSequence
    y: SignalSequence
    y_clean: Optional[SignalSequence] = None
    sigma2_true: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if len(self.u) != len(self.y):
            raise DimensionError(
                f"u has {len(self.u)} samples, y has {len(self.y)}"
            )
        if len(self.u) < 2:
            raise DimensionError("a dataset needs at least 2 samples")
        if self.u.ts != self.y.ts:
            raise DimensionError("u and y sample periods differ")
        if self.y_clean is not None and len(self.y_clean) != len(self.y):
            raise DimensionError("y_clean length differs from y")

    @property
    def ns(self) -> int:
        return len(self.u)

    @property
    def nu(self) -> int:
        return self.u.channels

    @property
    def ny(self) -> int:
        return self.y.channels

    @property
    def ts(self) -> float:
        return self.u.ts


def generate_experiment(
    model: DescriptorModel,
    ns: int,
    sigma2: float = 0.0,
    seed: int = 0,
    input_std: float = 1.0,
) -> Dataset:
    """Simulate the model under i.i.d. Gaussian input and add output noise.

    The input is standard normal per channel (scaled by ``input_std``); the
    noise is i.i.d. N(0, sigma2) on every output channel.  Both streams are
    drawn from a single PCG64 generator seeded with ``seed``, input first.
    """
    if not model.is_discrete:
        raise DimensionError("generate_experiment requires a discrete-time model")
    if sigma2 < 0:
        raise DimensionError("sigma2 must be nonnegative")
    rng = np.random.default_rng(seed)
    u = SignalSequence(input_std * rng.standard_normal((ns, model.nu)), ts=model.ts)
    y_clean = simulate(model, u)
    if sigma2 > 0:
        w = np.sqrt(sigma2) * rng.standard_normal((ns, model.ny))
        y = SignalSequence(y_clean.samples + w, ts=model.ts)
    else:
        y = y_clean
    return Dataset(u=u, y=y, y_clean=y_clean, sigma2_true=sigma2, seed=seed)


# ---------------------------------------------------------------------------
# Persistence: CSV body + JSON sidecar
# ---------------------------------------------------------------------------

def _meta_path(path) -> Path:
    p = Path(path)
    return p.with_suffix(".meta.json")


def save_dataset(dataset: Dataset, path) -> None:
    path = Path(path)
    samples = np.hstack([dataset.u.samples, dataset.y.samples]).tolist()
    write_table(path, channel_header("dataset", dataset.ny, dataset.nu),
                ([k, *row] for k, row in enumerate(samples)))
    meta = {
        "ts": dataset.ts,
        "sigma2_true": dataset.sigma2_true,
        "seed": dataset.seed,
        "nu": dataset.nu,
        "ny": dataset.ny,
    }
    with open(_meta_path(path), "w") as f:
        json.dump(meta, f, indent=1)
        f.write("\n")


def load_dataset(path) -> Dataset:
    path = Path(path)
    meta_path = _meta_path(path)
    try:
        with open(meta_path) as f:
            meta = json.load(f)
    except FileNotFoundError:
        meta = {}
    except json.JSONDecodeError as exc:
        raise FormatError(f"{meta_path}: line {exc.lineno}, col {exc.colno}: {exc.msg}")
    (ny, nu), table, _ = read_table(path, "dataset")
    for key, count in (("nu", nu), ("ny", ny)):
        if meta.get(key, count) != count:
            raise FormatError(f"{meta_path}: declares {key}={meta[key]} "
                              f"but {path.name} has {count}")
    ts = float(meta.get("ts", 1.0))
    u = SignalSequence(table[:, 1:1 + nu].copy(), ts=ts)
    y = SignalSequence(table[:, 1 + nu:].copy(), ts=ts)
    try:
        return Dataset(
            u=u,
            y=y,
            sigma2_true=meta.get("sigma2_true"),
            seed=meta.get("seed"),
        )
    except DimensionError as exc:
        raise FormatError(f"{path}: {exc}") from None
