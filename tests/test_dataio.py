"""Experiment generation determinism and dataset persistence."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pencilid
from pencilid import (FormatError, generate_experiment, load_dataset,
                      load_frequency_samples, load_markov, save_dataset)
from conftest import random_stable_model


def test_generation_is_deterministic():
    rng = np.random.default_rng(0)
    model = random_stable_model(rng, 3)
    a = generate_experiment(model, 200, 1e-4, seed=42)
    b = generate_experiment(model, 200, 1e-4, seed=42)
    assert np.array_equal(a.u.samples, b.u.samples)
    assert np.array_equal(a.y.samples, b.y.samples)
    c = generate_experiment(model, 200, 1e-4, seed=43)
    assert not np.array_equal(a.y.samples, c.y.samples)


def test_noise_statistics():
    rng = np.random.default_rng(0)
    model = random_stable_model(rng, 3)
    sigma2 = 1e-3
    ds = generate_experiment(model, 50_000, sigma2, seed=1)
    noise = ds.y.samples - ds.y_clean.samples
    assert np.var(noise) == pytest.approx(sigma2, rel=0.05)
    assert abs(np.mean(noise)) < 5 * np.sqrt(sigma2 / ds.ns)
    assert ds.sigma2_true == sigma2
    assert ds.seed == 1


def test_clean_output_is_simulation():
    rng = np.random.default_rng(0)
    model = random_stable_model(rng, 3)
    a = generate_experiment(model, 300, 0.0, seed=5)
    b = generate_experiment(model, 300, 1e-2, seed=5)
    # Same seed: same input; noise applied on top of the same clean output.
    assert np.array_equal(a.u.samples, b.u.samples)
    assert np.array_equal(a.y.samples, b.y_clean.samples)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ns=st.integers(10, 60),
       sigma2=st.floats(0.0, 1.0))
def test_determinism_property(seed, ns, sigma2):
    rng = np.random.default_rng(0)
    model = random_stable_model(rng, 2, nu=2, ny=2)
    a = generate_experiment(model, ns, sigma2, seed=seed)
    b = generate_experiment(model, ns, sigma2, seed=seed)
    assert np.array_equal(a.u.samples, b.u.samples)
    assert np.array_equal(a.y.samples, b.y.samples)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ns=st.integers(5, 40),
       shape=st.sampled_from([(3, 2), (3, 3), (2, 4), (4, 2), (1, 1)]))
def test_roundtrip_exact_property(seed, ns, shape, tmp_path_factory):
    # (ny, nu) with ny*nu above the 1 + nu + ny dataset columns included
    rng = np.random.default_rng(0)
    model = random_stable_model(rng, 2, nu=shape[1], ny=shape[0])
    ds = generate_experiment(model, ns, 1e-6, seed=seed)
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.u.samples, ds.u.samples)
    assert np.array_equal(back.y.samples, ds.y.samples)
    assert back.ts == ds.ts
    assert back.sigma2_true == ds.sigma2_true
    assert back.seed == ds.seed


def test_load_errors(tmp_path):
    # Per loader: an empty file, a ragged row, a non-numeric cell, no data
    # rows, a missing ts column, and headers that would load columns into the
    # wrong place (reordered, misnumbered or missing channels).
    cases = {
        load_dataset: [
            "",
            "k,u_1,y_1\n0,1.0\n",
            "k,u_1,y_1\n0,1.0,zap\n",
            "k,u_1,y_1\n",
            "time,u_1,y_1\n0,1.0,2.0\n",
            "k,y_1,u_1\n0,1.0,2.0\n1,3.0,4.0\n",
            "k,u_1,u_2,y_2\n0,1.0,2.0,3.0\n1,4.0,5.0,6.0\n",
            "k,u_1\n0,1.0\n",
        ],
        load_markov: [
            "",
            "k,h_1_1,ts\n0,1.0\n",
            "k,h_1_1,ts\n0,zap,1.0\n",
            "k,h_1_1,ts\n",
            "k,h_1_1\n0,1.0\n",
            "k,h_1_2,h_1_1,ts\n0,1.0,2.0,1.0\n",
            "k,h_1_1,h_1_3,ts\n0,1.0,2.0,1.0\n",
            "k,h_1_1,h_2_2,ts\n0,1.0,2.0,1.0\n",
        ],
        load_frequency_samples: [
            "",
            "omega,re(H_1_1),im(H_1_1),ts\n0.0,1.0\n",
            "omega,re(H_1_1),im(H_1_1),ts\n0.0,1.0,zap,1.0\n",
            "omega,re(H_1_1),im(H_1_1),ts\n",
            "omega,re(H_1_1),im(H_1_1)\n0.0,1.0,0.0\n",
            "omega,im(H_1_1),re(H_1_1),ts\n0.0,1.0,2.0,1.0\n",
            "omega,re(H_1_1),im(H_1_1),re(H_1_1),im(H_1_1),ts\n0.0,1.0,0.0,1.0,0.0,1.0\n",
        ],
    }
    path = tmp_path / "bad.csv"
    for load, texts in cases.items():
        for text in texts:
            path.write_text(text)
            with pytest.raises(FormatError):
                load(path)
    # row errors name their line
    path.write_text("k,u_1,y_1\n0,1.0,2.0\n\n1,1.0,zap\n")
    with pytest.raises(FormatError, match="line 4"):
        load_dataset(path)
    path.write_text("k,h_1_1,ts\n0,1.0,1.0\n1,2.0\n")
    with pytest.raises(FormatError, match="line 3"):
        load_markov(path)
    # a dataset sidecar must declare the header's channel counts, if any
    path.write_text("k,u_1,y_1\n0,1.0,2.0\n1,3.0,4.0\n")
    meta = path.with_suffix(".meta.json")
    meta.write_text('{"ts": 0.5, "nu": 3, "ny": 2}')
    with pytest.raises(FormatError, match="nu=3"):
        load_dataset(path)
    meta.write_text('{"ts": 0.5}')
    assert load_dataset(path).ts == 0.5


def test_only_tables_imports_csv():
    # The CSV format is decided in one module; any other module that imports
    # csv is a second reader or writer.
    importers = set()
    for path in Path(pencilid.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "csv" in names:
                importers.add(path.name)
    assert importers == {"tables.py"}


def test_no_private_imports_across_modules():
    # A name another pencilid module needs is public; an underscore import
    # from a sibling module is a second path into its internals.
    offenders = []
    for path in Path(pencilid.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("pencilid")):
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []
