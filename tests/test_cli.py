"""Command-line interface: subcommand chain, artifacts, exit codes."""

import json
import re

import numpy as np
import pytest

from pencilid import load_model
from pencilid.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    code = run(["generate", "--model", "surrogate", "--ts", 0.015,
                "--ns", 1000, "--sigma2", 1e-7, "--seed", 0,
                "--out", root / "d"])
    assert code == 0
    return root


def test_generate_then_estimate(workdir):
    assert run(["estimate", "smm", "--dataset", workdir / "d" / "dataset.csv",
                "--out", workdir / "e"]) == 0
    assert (workdir / "e" / "impulse.csv").exists()
    tuning = json.loads((workdir / "e" / "tuning.json").read_text())
    assert tuning["L0"] >= 1 and tuning["N"] >= 1
    assert tuning["sigma2_hat"] > 0
    assert run(["estimate", "ls", "--dataset", workdir / "d" / "dataset.csv",
                "--out", workdir / "els"]) == 0


def test_fft_svd_reduce_chain(workdir):
    e = workdir / "e"
    assert run(["fft", "--markov", e / "impulse.csv",
                "--out", workdir / "f"]) == 0
    assert run(["svd", "--frequency", workdir / "f" / "frequency.csv",
                "--partition", "half-half", "--out", workdir / "s"]) == 0
    sv_lines = (workdir / "s" / "singular_values.csv").read_text().splitlines()
    assert sv_lines[0] == "index,sigma,sigma_normalized"
    assert run(["svd", "--markov", e / "impulse.csv",
                "--out", workdir / "sh"]) == 0
    assert run(["reduce", "loewner", "--frequency",
                workdir / "f" / "frequency.csv", "--order", 48,
                "--partition", "combined", "--out", workdir / "rl"]) == 0
    rl = load_model(workdir / "rl" / "model.json")
    assert rl.n == 48
    assert rl.ts == 0.015   # the sample period travels through frequency.csv
    assert run(["reduce", "hankel", "--markov", e / "impulse.csv",
                "--order", 48, "--out", workdir / "rh"]) == 0
    assert load_model(workdir / "rh" / "model.json").n == 48


def test_svd_combined_writes_half_half_decay(workdir):
    f = workdir / "f" / "frequency.csv"
    for part in ("combined", "half-half"):
        assert run(["svd", "--frequency", f, "--partition", part,
                    "--out", workdir / f"s-{part}"]) == 0
    assert ((workdir / "s-combined" / "singular_values.csv").read_bytes()
            == (workdir / "s-half-half" / "singular_values.csv").read_bytes())


def test_svd_gap_order_is_reduce_auto_order(workdir, capsys):
    f = workdir / "f" / "frequency.csv"
    capsys.readouterr()
    assert run(["svd", "--frequency", f, "--partition", "combined",
                "--out", workdir / "sg"]) == 0
    gap = re.search(r"suggested order (\d+) \(gap rule\)", capsys.readouterr().out)
    assert run(["reduce", "loewner", "--frequency", f, "--partition", "combined",
                "--order", "auto", "--out", workdir / "rla"]) == 0
    assert load_model(workdir / "rla" / "model.json").n == int(gap.group(1))


def test_run_pipeline(workdir):
    assert run(["run", "smm-hf", "--dataset", workdir / "d" / "dataset.csv",
                "--order", 48, "--out", workdir / "r"]) == 0
    report = json.loads((workdir / "r" / "report.json").read_text())
    assert report["method"] == "smm-hf"
    assert report["order"] == 48
    assert load_model(workdir / "r" / "model.json").n == 48


def test_simulate(workdir):
    assert run(["simulate", "--model", workdir / "rh" / "model.json",
                "--ns", 100, "--seed", 3, "--out", workdir / "sim"]) == 0
    assert (workdir / "sim" / "dataset.csv").exists()


def test_benchmark_artifacts(tmp_path):
    out = tmp_path / "b"
    code = run(["benchmark", "--model", "surrogate", "--ts", 0.015,
                "--ns", 400, "--sigma2", 1e-7, "--seed", 0,
                "--realizations", 2, "--methods", "ls-hf",
                "--sweep", "2,4", "--out", out])
    assert code == 0
    for name in ("report.json", "model.json", "singular_values.csv",
                 "impulse.csv", "frf.csv", "boxplot.csv", "order_sweep.csv"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["realizations"] == 2
    assert "ls-hf" in report["methods"]


def test_exit_code_input_errors(tmp_path, workdir):
    assert run(["estimate", "ls", "--dataset", tmp_path / "missing.csv",
                "--out", tmp_path]) == 2
    assert run(["reduce", "hankel", "--markov",
                workdir / "e" / "impulse.csv", "--order", 100000,
                "--out", tmp_path]) == 2
    assert run(["reduce", "hankel", "--out", tmp_path]) == 2  # no input file


def test_exit_code_numerical_error(tmp_path, workdir):
    # Past window too long for the record: no feasible horizon exists.
    assert run(["estimate", "smm", "--dataset",
                workdir / "d" / "dataset.csv", "--L0", 900,
                "--out", tmp_path]) == 3


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        run(["frobnicate"])
    assert e.value.code == 2
