#!/usr/bin/env python3
"""Time the stages of ``pencilid reduce --order r`` on estimate files.

    python3 bench/realize_stages.py --label change --out BENCH_x.json
    python3 bench/realize_stages.py --src ../base/src --label base --out BENCH_x.json

Setup (untimed): for each dataset seed (default 0, 1, 2) a record of
``--ns`` samples (default 2000) of the building surrogate with output-noise
variance 1e-7, its SMM estimate written to ``impulse.csv`` and that
estimate's DFT bridge written to ``frequency.csv``, as ``pencilid estimate``
and ``pencilid fft`` write them.  Each repeat then runs, for both pencil
kinds and every order 10, 20, 30, 40 and 48, the work of one
``reduce hankel --markov impulse.csv --order r`` or
``reduce loewner --frequency frequency.csv --partition combined --order r``
command in five timed stages:

* ``load``: read the file;
* ``build``: the pencil the command builds; a tree without
  ``pipeline.build_pencil`` builds through ``pipeline.pencil_stage``, so
  there this stage also holds the order-hint SVDs;
* ``svd``: the pencil's full SVD;
* ``projection``: ``reduce`` on the factored pencil;
* ``save``: write ``model.json``.

Every operation is timed through perfbench's calibrated stopwatch
(``perfbench/calibrate.py``), which scales it to the reference machine
speed; raw wall times are kept beside.  A stage's time is the median over
repeats of its calibrated time summed over the records and orders.  The
``np.linalg.svd`` calls per command are counted in the untimed warm-up
pass.  The labelled result is merged into ``--out`` under its record length,
so two source trees measured in turn share one file.  BLAS is pinned to one
thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("load", "build", "svd", "projection", "save")
KINDS = ("hankel", "loewner")
ORDERS = (10, 20, 30, 40, 48)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="source tree holding the pencilid package")
    ap.add_argument("--label", required=True, help="name of this measurement")
    ap.add_argument("--out", required=True, help="JSON file to merge into")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--ns", type=int, default=2000, help="record length")
    args = ap.parse_args()
    if args.repeats < 3:
        ap.error("--repeats must be at least 3")

    sys.path.insert(0, args.src)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import scipy
    from calibrate import Stopwatch

    from pencilid import pipeline
    from pencilid.dataio import generate_experiment
    from pencilid.estimation import TuningConfig
    from pencilid.lti import load_markov, save_markov, save_model
    from pencilid.pencils import reduce
    from pencilid.spectral import (load_frequency_samples, markov_to_frequency,
                                   save_frequency_samples)

    build = getattr(pipeline, "build_pencil",
                    lambda data, scheme: pipeline.pencil_stage(data, scheme)[0])
    load = {"hankel": load_markov, "loewner": load_frequency_samples}
    model = pipeline.building_surrogate(ts=0.015)

    svd_calls = []
    numpy_svd = np.linalg.svd

    def counting_svd(*a, **kw):
        svd_calls.append(1)
        return numpy_svd(*a, **kw)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files, sizes = [], []
        for seed in args.seeds:
            d = generate_experiment(model, args.ns, 1e-7, seed=seed)
            h, tune = pipeline.estimate(d, TuningConfig(), "smm")
            paths = {"hankel": tmp / f"impulse-{seed}.csv",
                     "loewner": tmp / f"frequency-{seed}.csv"}
            save_markov(h, paths["hankel"])
            save_frequency_samples(markov_to_frequency(h), paths["loewner"])
            files.append(paths)
            sizes.append({"seed": seed, "L0": tune["L0"], "N": tune["N"]})

        def command(sw, path, kind, r):
            with sw.measure() as t_load:
                data = load[kind](path)
            with sw.measure() as t_build:
                pencil = build(data, "combined")
            with sw.measure() as t_svd:
                pencil.svd
            with sw.measure() as t_proj:
                reduced = reduce(pencil, r)
            with sw.measure() as t_save:
                save_model(reduced, tmp / "model.json")
            return dict(zip(STAGES, (t_load, t_build, t_svd, t_proj, t_save)))

        runs = {kind: {stage: [] for stage in STAGES} for kind in KINDS}
        raw = {kind: {stage: [] for stage in STAGES} for kind in KINDS}
        calls = {}
        for rep in range(args.repeats + 1):   # the first pass warms up, untimed
            sw = Stopwatch()
            if rep == 0:
                np.linalg.svd = counting_svd
            timings = []
            for kind in KINDS:
                for paths in files:
                    for r in ORDERS:
                        before = len(svd_calls)
                        timings.append((kind, command(sw, paths[kind], kind, r)))
                        if rep == 0:
                            calls.setdefault(kind, set()).add(
                                len(svd_calls) - before)
            np.linalg.svd = numpy_svd
            sw.finish()
            if rep == 0:
                continue
            for kind in KINDS:
                for stage in STAGES:
                    runs[kind][stage].append(sum(
                        t[stage].cal for k, t in timings if k == kind))
                    raw[kind][stage].append(sum(
                        t[stage].raw for k, t in timings if k == kind))

    result = {"ns": args.ns, "repeats": args.repeats}
    for kind in KINDS:
        stages = {s: statistics.median(v) for s, v in runs[kind].items()}
        result[kind] = {
            "stages_s": stages,
            "total_s": statistics.median(map(sum, zip(*runs[kind].values()))),
            "svd_calls_per_command": sorted(calls[kind]),
            "runs_s": runs[kind],
            "raw_runs_s": raw[kind],
        }
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["what"] = (
        "median over repeats of each stage's calibrated time (seconds at the "
        "reference speed of perfbench/calibrate.py), summed over the records "
        f"and the orders {', '.join(map(str, ORDERS))}: the work of one "
        "`pencilid reduce --order r` command per record, kind and order")
    doc.setdefault("records", {})[str(args.ns)] = sizes
    doc["environment"] = {
        "nproc": os.cpu_count(), "blas_threads": 1,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }
    doc.setdefault("results", {}).setdefault(args.label, {})[str(args.ns)] = result
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for kind in KINDS:
        print(json.dumps({args.label: {"kind": kind, **result[kind]["stages_s"],
                                       "total_s": result[kind]["total_s"],
                                       "svd_calls": result[kind]["svd_calls_per_command"]}}))


if __name__ == "__main__":
    main()
