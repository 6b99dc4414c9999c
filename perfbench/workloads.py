"""The three benchmark workloads and the measurement loop that drives them.

Every workload draws its records from a fixed pool of dataset seeds.  The
``--seed`` of a run picks the order in which pool items are used, so the same
seed gives the same inputs, and every record processed has accuracy values
recorded at the seed commit (``reference.json``) to be checked against.

All calls into pencilid go through module attributes looked up at call time
(``pipeline.run_smm_hf``, ``cli.main``), so that a tracer installed by
rebinding those attributes sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import shutil
import statistics
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pencilid.cli as cli
import pencilid.dataio as dataio
import pencilid.lti as lti
import pencilid.metrics as metrics
import pencilid.pencils as pencils
import pencilid.pipeline as pipeline
import pencilid.spectral as spectral
from pencilid.errors import PencilIdError

from calibrate import Stopwatch

METHODS = ("smm-hf", "smm-lf", "ls-hf", "noisy-lf")
TS = 0.015
SIGMA2 = 1e-7
GRID = (1.0, 100.0, 200)   # rad/s, the pipeline's default evaluation grid

# (name, method, key): the accuracy guards.  Each guards an error, so lower is
# better; for the impulse fit W (%) the error is the misfit 100 - W, so that a
# tolerance is the same share of error for every guard.
ACCURACY = (
    ("W.smm.misfit", "smm-hf", "W"),
    ("W.ls.misfit", "ls-hf", "W"),
    ("W_h.smm-hf", "smm-hf", "W_h"),
    ("W_h.ls-hf", "ls-hf", "W_h"),
    ("W_H.smm-lf", "smm-lf", "W_H"),
    ("W_H.noisy-lf", "noisy-lf", "W_H"),
)
# Per record, a guard's error over its seed-commit error may exceed 1 by at
# most this share at the 90th percentile over a run's records, so that damage
# to a tenth of the records already makes the run incorrect.
ACCURACY_TOL = 0.05
ACCURACY_QUANTILE = 0.9
# CLI-reduced and library-reduced models must agree this closely on the grid.
AGREEMENT_TOL = 1e-9


def guard_error(key: str, value: float) -> float:
    """The error an accuracy guard compares: 100 - W for the fit W (%)."""
    return 100.0 - value if key == "W" else value


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``SMOKE`` its self-test."""

    ns_campaign: int = 1000
    ns_long: int = 2000          # long-record and realize-files
    sweep: tuple = (10, 20, 30, 40, 48)   # realize-files reports the largest
    pool: int = 24               # dataset seeds 0 .. pool-1
    realize_records: int = 3     # distinct records one realize-files run sets up


FULL = Sizes()
SMOKE = Sizes(ns_campaign=300, ns_long=300, sweep=(2, 4), pool=3,
              realize_records=2)


class SetupError(RuntimeError):
    """Set-up could not produce a workload's inputs."""


@dataclass
class UnitResult:
    latencies: dict          # method -> per-model latencies (Timing, then
                             # calibrated seconds once the unit is done)
    attempted: int
    failed: dict             # method -> failed operations
    cal_s: float = 0.0       # calibrated seconds of all timed operations
    raw_s: float = 0.0       # their wall-clock seconds
    horizon: int = 0         # the record's horizon N, set by ``evaluate``
    accuracy: dict = field(default_factory=dict)   # method -> {W, W_h, W_H}
    checks: dict = field(default_factory=dict)     # name -> (ok, detail)
    probes: dict = field(default_factory=dict)     # name -> (present, detail)

    @property
    def fits(self) -> int:
        return sum(len(v) for v in self.latencies.values())


def _grid_z(ts: float) -> np.ndarray:
    return metrics.eval_grid_logspace(GRID[0], GRID[1], GRID[2], ts)[1]


def _model_accuracy(model, truth, N: int, grid_z, h_estimate=None) -> dict:
    """W (of the impulse estimate), W_h and W_H of one model, as in the
    pipeline's benchmark rows."""
    h_true = lti.impulse_response(truth, N)
    out = {}
    if h_estimate is not None:
        out["W"] = metrics.fit_percentage(h_estimate, h_true)
    out["W_h"] = metrics.h2_impulse_error(lti.impulse_response(model, N), h_true)
    out["W_H"] = metrics.h2_freq_error(lti.frequency_response(model, grid_z),
                                       lti.frequency_response(truth, grid_z))
    return out


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def _cli(argv) -> int:
    """Run ``pencilid.cli.main`` in-process with its progress lines dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


class Workload:
    name = ""
    min_units = 3            # units every run completes; guards use these
    max_records = None       # distinct records per run; None = one per unit

    def __init__(self, sizes: Sizes, workdir: Path):
        self.sizes = sizes
        self.workdir = workdir

    def setup(self, item: int):
        raise NotImplementedError

    def run(self, inputs, sw: Stopwatch) -> UnitResult:
        """The timed work of one unit; every operation is timed with ``sw``."""
        raise NotImplementedError

    def evaluate(self, inputs, result: UnitResult, first: bool) -> None:
        """Fill ``result.accuracy``, ``checks`` and ``probes`` (untimed)."""
        raise NotImplementedError


class CampaignSweep(Workload):
    """``run_benchmark`` over the four methods with a five-order sweep."""

    name = "campaign-sweep"
    min_units = 3

    def setup(self, item: int):
        truth = pipeline.building_surrogate(ts=TS)
        d = self.workdir / f"campaign-{item}"
        d.mkdir(parents=True, exist_ok=True)
        # One record per call, so each call's time is one fit's latency.
        cfgs = {m: pipeline.PipelineConfig(
                    method=m, methods=(m,), realizations=1, base_seed=item,
                    ns=self.sizes.ns_campaign, sigma2=SIGMA2,
                    order_sweep=self.sizes.sweep)
                for m in METHODS}
        return {"item": item, "truth": truth, "dir": d, "cfgs": cfgs}

    def run(self, inputs, sw: Stopwatch) -> UnitResult:
        lat, failed, reports = {}, {}, {}
        for m in METHODS:
            with sw.measure() as t:
                report = pipeline.run_benchmark(inputs["truth"], inputs["cfgs"][m],
                                                out_dir=inputs["dir"] / m)
            failed[m] = report["methods"][m]["failed"]
            lat[m] = [] if failed[m] else [t]
            reports[m] = report
        inputs["reports"] = reports
        return UnitResult(latencies=lat, attempted=len(METHODS), failed=failed)

    def evaluate(self, inputs, result: UnitResult, first: bool) -> None:
        for m in METHODS:
            rows = [r for r in inputs["reports"][m]["methods"][m]["realizations"]
                    if "failed" not in r]
            result.accuracy[m] = {k: float(np.median([r[k] for r in rows]))
                                  for k in ("W", "W_h", "W_H") if rows and k in rows[0]}
            out = inputs["dir"] / m
            report = json.loads((out / "report.json").read_bytes())
            report.pop("wall_time_s", None)
            chunks = [json.dumps(report, sort_keys=True).encode()]
            chunks += [(out / f).read_bytes() for f in sorted(
                p.name for p in out.iterdir() if p.suffix == ".csv")]
            result.accuracy[m]["digest"] = _digest(*chunks)
            result.horizon = rows[0]["N"] if rows else result.horizon
        inputs.pop("reports")


class LongRecord(Workload):
    """The single-record entry points on a long record, order auto."""

    name = "long-record"
    min_units = 4

    def setup(self, item: int):
        truth = pipeline.building_surrogate(ts=TS)
        data = dataio.generate_experiment(truth, self.sizes.ns_long, SIGMA2, seed=item)
        return {"item": item, "truth": truth, "data": data}

    def run(self, inputs, sw: Stopwatch) -> UnitResult:
        calls = {
            "smm-hf": pipeline.run_smm_hf,
            "smm-lf": pipeline.run_smm_lf,
            "ls-hf": pipeline.run_baseline,
            "noisy-lf": pipeline.run_baseline,
        }
        lat, failed, fitted = {}, {}, {}
        for m in METHODS:
            cfg = pipeline.PipelineConfig(method=m)
            try:
                with sw.measure() as t:
                    fitted[m] = calls[m](inputs["data"], cfg)
            except PencilIdError:
                lat[m], failed[m] = [], 1
                continue
            lat[m], failed[m] = [t], 0
        inputs["fitted"] = fitted
        return UnitResult(latencies=lat, attempted=len(METHODS), failed=failed)

    def evaluate(self, inputs, result: UnitResult, first: bool) -> None:
        truth = inputs["truth"]
        grid_z = _grid_z(truth.ts)
        for m, (model, report) in inputs.pop("fitted").items():
            result.accuracy[m] = _model_accuracy(model, truth, report["N"], grid_z,
                                                 report["h_estimate"])
            result.horizon = report["N"]


class RealizeFiles(Workload):
    """The CLI chain on estimates written to files: fft, svd, reduce."""

    name = "realize-files"
    min_units = 3

    def __init__(self, sizes: Sizes, workdir: Path):
        super().__init__(sizes, workdir)
        self.max_records = sizes.realize_records
        self._first_outputs: dict = {}

    def setup(self, item: int):
        truth = pipeline.building_surrogate(ts=TS)
        d = self.workdir / f"realize-{item}"
        steps = [
            ["generate", "--model", "surrogate", "--ts", TS, "--ns",
             self.sizes.ns_long, "--sigma2", SIGMA2, "--seed", item,
             "--out", d / "data"],
            ["estimate", "smm", "--dataset", d / "data" / "dataset.csv",
             "--out", d / "smm"],
            ["estimate", "ls", "--dataset", d / "data" / "dataset.csv",
             "--out", d / "ls"],
        ]
        for argv in steps:
            if _cli(argv) != 0:
                raise SetupError(f"pencilid {' '.join(map(str, argv))} failed")
        # The CLI has no spectral-ratio command; write its samples with the
        # library, on the same horizon the estimates chose.
        data = dataio.load_dataset(d / "data" / "dataset.csv")
        N = json.loads((d / "smm" / "tuning.json").read_text())["N"]
        (d / "noisy").mkdir(exist_ok=True)
        spectral.save_frequency_samples(spectral.estimate_frf_spectral(data, N),
                                        d / "noisy" / "frequency.csv")
        return {"item": item, "truth": truth, "dir": d}

    def _commands(self, d: Path):
        """(method or None, argv, output directory) for every timed command."""
        out = d / "out"
        freq = {"smm-lf": out / "fft" / "frequency.csv",
                "noisy-lf": d / "noisy" / "frequency.csv"}
        markov = {"smm-hf": d / "smm" / "impulse.csv",
                  "ls-hf": d / "ls" / "impulse.csv"}
        cmds = [(None, ["fft", "--markov", markov["smm-hf"], "--out", out / "fft"], None),
                (None, ["svd", "--frequency", freq["smm-lf"], "--partition",
                        "half-half", "--out", out / "svd"], None)]
        for r in self.sizes.sweep:
            for m in METHODS:
                o = out / f"{m}-r{r}"
                if m in markov:
                    argv = ["reduce", "hankel", "--markov", markov[m]]
                else:
                    argv = ["reduce", "loewner", "--frequency", freq[m],
                            "--partition", "combined"]
                cmds.append((m, argv + ["--order", r, "--out", o], o))
        return cmds

    def run(self, inputs, sw: Stopwatch) -> UnitResult:
        lat = {m: [] for m in METHODS}
        failed = {m: 0 for m in METHODS}
        cmds = self._commands(inputs["dir"])
        for m, argv, _ in cmds:
            with sw.measure() as t:
                code = _cli(argv)
            if m is None:   # fft and svd serve the smm-lf chain
                if code != 0:
                    failed["smm-lf"] += 1
            elif code == 0:
                lat[m].append(t)
            else:
                failed[m] += 1
        return UnitResult(latencies=lat, attempted=len(cmds), failed=failed)

    def evaluate(self, inputs, result: UnitResult, first: bool) -> None:
        d, truth, item = inputs["dir"], inputs["truth"], inputs["item"]
        outputs = {}
        for m, _, o in self._commands(d):
            if o is not None and (o / "model.json").exists():
                outputs[o.name] = (o / "model.json").read_bytes()
        if not first:
            same = outputs == self._first_outputs[item]
            result.checks["realize.repeat_outputs_identical"] = (
                same, "model.json files equal those of the first pass")
            return
        self._first_outputs[item] = outputs

        grid_z = _grid_z(truth.ts)
        h = {"smm-hf": lti.load_markov(d / "smm" / "impulse.csv"),
             "ls-hf": lti.load_markov(d / "ls" / "impulse.csv")}
        samples = {"smm-lf": spectral.load_frequency_samples(
                       d / "out" / "fft" / "frequency.csv"),
                   "noisy-lf": spectral.load_frequency_samples(
                       d / "noisy" / "frequency.csv")}
        lib_pencils = {}
        for m, hm in h.items():
            lib_pencils[m] = pencils.build_hankel(hm)
        for m, s in samples.items():
            left, right = pencils.partition(s, "alternate")
            lib_pencils[m] = pencils.build_loewner(left, right, scheme="alternate",
                                                   ts=TS)
        N = result.horizon = len(h["smm-hf"])
        h_true = lti.impulse_response(truth, N)
        worst = 0.0
        ts_seen = {}
        for m, _, o in self._commands(d):
            if o is None or o.name not in outputs:
                continue
            r = int(o.name.rsplit("-r", 1)[1])
            model = lti.load_model(o / "model.json")
            ts_seen[m] = model.ts
            reduce = pencils.hankel_reduce if m in h else pencils.loewner_reduce
            ref = reduce(lib_pencils[m], r)
            H_cli = lti.frequency_response(model, grid_z)
            H_lib = lti.frequency_response(ref, grid_z)
            worst = max(worst, float(np.linalg.norm(H_cli - H_lib)
                                     / np.linalg.norm(H_lib)))
            if r == max(self.sizes.sweep):
                result.accuracy[m] = _model_accuracy(
                    model, truth, N, grid_z, h.get("smm-hf" if m == "smm-lf" else m))
        result.checks["realize.cli_matches_library"] = (
            worst <= AGREEMENT_TOL,
            f"max relative difference {worst:.3e} on the grid (limit {AGREEMENT_TOL:g})")
        lw_ts = ts_seen.get("smm-lf")
        result.probes["defect.cli_loewner_model_ts"] = (
            lw_ts != TS,
            f"reduce loewner wrote ts={lw_ts!r} for ts={TS} data "
            f"(reduce hankel wrote ts={ts_seen.get('smm-hf')!r})")
        for m in ("smm-hf", "ls-hf"):
            result.accuracy.setdefault(m, {})["W"] = metrics.fit_percentage(h[m], h_true)


WORKLOADS = {w.name: w for w in (CampaignSweep, LongRecord, RealizeFiles)}


# ---------------------------------------------------------------------------
# Measurement loop
# ---------------------------------------------------------------------------

@dataclass
class Measurement:
    items: list = field(default_factory=list)     # pool item of each unit
    units: list = field(default_factory=list)     # UnitResult of each unit
    setup_s: list = field(default_factory=list)   # calibrated s per record set-up
    imag_warnings: int = 0
    trace_overhead: dict = field(default_factory=dict)

    @property
    def raw_s(self) -> float:
        return sum(u.raw_s for u in self.units)

    @property
    def cal_s(self) -> float:
        return sum(u.cal_s for u in self.units)

    @property
    def fits(self) -> int:
        return sum(u.fits for u in self.units)


STRATA = 3


def plan(seed: int, horizons: dict) -> list:
    """Pool items in the order a run with this seed uses them.

    ``horizons`` maps each item to its horizon N at the seed commit, which
    sets the size of every matrix a fit builds and so its cost.  Items are
    split into ``STRATA`` equal groups by N; each round of the plan takes one
    item of every group, in a seed-dependent order.  Any run then holds a
    similar mix of cheap and costly records, and differs from another seed's
    run in which records those are, not in how costly they are.
    """
    rng = np.random.default_rng(seed)
    ranked = sorted(horizons, key=lambda i: (horizons[i], i))
    groups = [list(rng.permutation(g)) for g in np.array_split(ranked, STRATA)]
    order = []
    for r in range(max(len(g) for g in groups)):
        for s in rng.permutation(len(groups)):
            if r < len(groups[s]):
                order.append(int(groups[s][r]))
    return order


def _timed_unit(workload: Workload, inputs, tracer):
    """One unit of timed work; imaginary-leakage warnings are counted."""
    sw = Stopwatch()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.enabled = True
        try:
            result = workload.run(inputs, sw)
        finally:
            if tracer is not None:
                tracer.enabled = False
    sw.finish()
    result.latencies = {m: [t.cal for t in ts] for m, ts in result.latencies.items()}
    result.cal_s, result.raw_s = sw.cal_s, sw.raw_s
    leaks = sum(1 for w in caught if "imaginary leakage" in str(w.message))
    return result, leaks


def measure(workload: Workload, seed: int, seconds: float, horizons: dict,
            tracer=None) -> Measurement:
    """Run units until ``seconds`` of timed wall-clock work (untraced), or a
    fixed number of units (traced, so that counts repeat exactly).

    Untraced runs start no unit expected to end more than half a unit past
    the budget, and always complete ``workload.min_units``.
    """
    order = plan(seed, horizons)
    n_records = min(workload.max_records or len(order), len(order))
    meas = Measurement()
    cache = {}

    def set_up(item):
        sw = Stopwatch()
        with sw.measure():
            inputs = workload.setup(item)
        sw.finish()
        meas.setup_s.append(sw.cal_s)
        return inputs

    for k in itertools.count():
        if k >= workload.min_units:
            if tracer is not None:
                break
            typical = statistics.median(u.raw_s for u in meas.units)
            if meas.raw_s + 0.5 * typical > seconds:
                break
        item = order[k % n_records]
        first = item not in cache
        if first:
            cache[item] = set_up(item)
        result, leaks = _timed_unit(workload, cache[item], tracer)
        with warnings.catch_warnings():
            # accuracy evaluation re-evaluates complex models; only the
            # warnings of the timed work are counted
            warnings.simplefilter("ignore")
            workload.evaluate(cache[item], result, first)
        meas.items.append(item)
        meas.units.append(result)
        meas.imag_warnings += leaks
    # set-up time is a median over at least three set-ups
    spare = [i for i in order if i not in cache] + order
    while len(meas.setup_s) < 3:
        set_up(spare.pop(0))
    if tracer is not None:
        # Replay the last unit untraced: the difference is the tracing cost.
        traced = meas.units[-1]
        plain, _ = _timed_unit(workload, cache[meas.items[-1]], None)
        meas.trace_overhead = {
            "traced_s": traced.cal_s, "untraced_s": plain.cal_s,
            "overhead_s": (traced.cal_s - plain.cal_s) / (traced.fits or 1),
            "overhead_ratio": traced.cal_s / plain.cal_s - 1.0}
    return meas


def cleanup(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
