#!/usr/bin/env python3
"""Time the stages of one SMM fit and of its reduced models on long records.

    python3 bench/estimation_stages.py --label change --out BENCH_x.json
    python3 bench/estimation_stages.py --src ../base/src --label base --out BENCH_x.json
    python3 bench/estimation_stages.py --ns 2000 5000 10000 --label change --out BENCH_x.json

For each record length given by ``--ns`` (default 2000), each repeat takes a
fresh copy of every record (the building surrogate, output-noise variance
1e-7) and runs the stages in pipeline
order: ``select_L0`` (untimed), ``select_N``, the LS estimate, the noise
variance and the SMM estimate.  The SMM estimate's Hankel pencil (smm-hf)
is then reduced to orders 10, 20, 30, 40 and 48 (untimed), and each model's
N impulse-response blocks and its frequency response on the pipeline's
200-point grid are timed as two more stages.  A stage's time is the median
over repeats of its summed time over the records.  Every operation is
timed through perfbench's calibrated stopwatch (``perfbench/calibrate.py``),
which scales it to the reference machine speed, so stage times taken in
fast and slow phases of a shared host compare; raw wall times are kept
beside.  The labelled result is merged into ``--out`` under its record
length, so two source trees measured in turn share one file.  BLAS is
pinned to one thread.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("select_N", "estimate_markov_ls", "estimate_noise_variance",
          "estimate_markov_smm", "impulse_response", "frequency_response")
ORDERS = (10, 20, 30, 40, 48)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="source tree holding the pencilid package")
    ap.add_argument("--label", required=True, help="name of this measurement")
    ap.add_argument("--out", required=True, help="JSON file to merge into")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--ns", type=int, nargs="+", default=[2000],
                    help="record lengths to measure, one after the other")
    args = ap.parse_args()
    if args.repeats < 3:
        ap.error("--repeats must be at least 3")

    sys.path.insert(0, args.src)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import scipy
    from calibrate import Stopwatch

    from pencilid import estimation as est
    from pencilid.dataio import Dataset, generate_experiment
    from pencilid.lti import SignalSequence, frequency_response, impulse_response
    from pencilid.metrics import eval_grid_logspace
    from pencilid.pencils import build_hankel, reduce
    from pencilid.pipeline import PipelineConfig, building_surrogate

    model = building_surrogate(ts=0.015)
    cfg = PipelineConfig()
    _, grid_z = eval_grid_logspace(cfg.grid_wmin, cfg.grid_wmax, cfg.grid_count,
                                   model.ts)

    def fresh(d):
        # New signal objects: nothing computed by an earlier repeat is reused.
        return Dataset(u=SignalSequence(d.u.samples, d.u.ts),
                       y=SignalSequence(d.y.samples, d.y.ts))

    def measure(ns):
        records = [generate_experiment(model, ns, 1e-7, seed=s) for s in args.seeds]
        L0s = [est.select_L0(est.cross_correlation(d)) for d in records]
        totals = {name: [] for name in STAGES}
        raw = {name: [] for name in STAGES}
        sizes = []
        for rep in range(args.repeats + 1):  # the first pass warms up, untimed
            sw = Stopwatch()
            timings = []

            def timed(fn, *fn_args):
                with sw.measure() as t:
                    value = fn(*fn_args)
                timings.append((fn.__name__, t))
                return value

            for record, L0 in zip(records, L0s):
                d = fresh(record)
                N = timed(est.select_N, d, L0)
                h_ls = timed(est.estimate_markov_ls, d, N)
                s2 = timed(est.estimate_noise_variance, d, h_ls, N, L0)
                h_smm = timed(est.estimate_markov_smm, d, L0, N, s2)
                pencil = build_hankel(h_smm)
                for r in ORDERS:
                    reduced = reduce(pencil, r)
                    timed(impulse_response, reduced, N)
                    timed(frequency_response, reduced, grid_z)
                if rep == 0:
                    sizes.append({"seed": record.seed, "L0": L0, "N": N,
                                  "M'": d.ns - L0 - N + 1})
            sw.finish()
            if rep:
                for name in STAGES:
                    totals[name].append(sum(t.cal for n, t in timings if n == name))
                    raw[name].append(sum(t.raw for n, t in timings if n == name))
        return sizes, {
            "repeats": args.repeats,
            "stages_s": {name: statistics.median(v) for name, v in totals.items()},
            "total_s": statistics.median(map(sum, zip(*totals.values()))),
            "runs_s": totals,
            "raw_runs_s": raw,
        }

    measured = {str(ns): measure(ns) for ns in args.ns}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["what"] = ("median over repeats of each stage's calibrated time "
                   "(seconds at the reference speed of perfbench/calibrate.py), "
                   "summed over the records: the estimation stages of one SMM fit, then "
                   "impulse_response (N blocks) and frequency_response (the "
                   f"{cfg.grid_count}-point pipeline grid) of its Hankel "
                   f"reductions at orders {', '.join(map(str, ORDERS))}")
    doc.setdefault("records", {}).update(
        {ns: sizes for ns, (sizes, _) in measured.items()})
    doc["environment"] = {
        "nproc": os.cpu_count(), "blas_threads": 1,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }
    doc.setdefault("results", {}).setdefault(args.label, {}).update(
        {ns: result for ns, (_, result) in measured.items()})
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for ns, (_, result) in measured.items():
        print(json.dumps({args.label: {"ns": int(ns), **result["stages_s"],
                                       "total_s": result["total_s"]}}))


if __name__ == "__main__":
    main()
