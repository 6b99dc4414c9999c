#!/usr/bin/env python3
"""Run one pencilid benchmark workload and print its metrics.

    python3 perfbench/run.py --workload long-record --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` installs span wrappers around every public pencilid function
and the numpy/scipy linear-algebra calls, runs a fixed number of units and
reports per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it give each metric with its unit,
direction and sample count, the correctness checks, the known-defect probes
and the environment.  A full record (and, traced, the raw spans) is written
under ``perfbench/out/``.  Exit status: 0 correct, 1 a correctness check
failed, 2 the program could not be found or the arguments are wrong.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads its BLAS library.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# Keep the checkout's source tree free of bytecode caches; every run then
# compiles the same sources, so import time does not depend on earlier runs.
sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

METHODS = ("smm-hf", "smm-lf", "ls-hf", "noisy-lf")

# name -> (unit, better).  BENCHMARK.json lists the same names and units.
E2E = {
    "setup_s": ("s", "lower"),
    "fits_per_s": ("1/s", "higher"),
    **{f"fit_s_p50.{m}": ("s", "lower") for m in METHODS},
    "peak_rss_mb": ("MB", "lower"),
    # accuracy guards: per record, the error over its seed-commit error
    "W.smm.misfit.vs_seed": ("ratio", "lower"),
    "W.ls.misfit.vs_seed": ("ratio", "lower"),
    "W_h.smm-hf.vs_seed": ("ratio", "lower"),
    "W_h.ls-hf.vs_seed": ("ratio", "lower"),
    "W_H.smm-lf.vs_seed": ("ratio", "lower"),
    "W_H.noisy-lf.vs_seed": ("ratio", "lower"),
}

# Functions whose calls and inclusive time per fit are reported.
LAYER_FUNCS = {
    "estimation": ("select_N", "estimate_markov_ls", "estimate_noise_variance",
                   "estimate_markov_smm", "cross_correlation"),
    "spectral": ("markov_to_frequency", "estimate_frf_spectral"),
    "pencils": ("build_hankel", "build_loewner", "svd_order", "hankel_reduce",
                "loewner_reduce"),
    "lti": ("impulse_response", "frequency_response"),
    "dataio": ("generate_experiment", "save_dataset", "load_dataset"),
}
SELF_LAYERS = tracing.LAYERS + ("linalg",)

PER_LAYER = {
    **{f"{layer}.self_s": ("s/fit", "lower") for layer in SELF_LAYERS},
    "metrics.s": ("s/fit", "lower"),
    "pipeline.smm_calls_per_fit": ("count", "lower"),
    "pipeline.pencil_builds_per_fit": ("count", "lower"),
    **{f"{layer}.{fn}.{kind}": (unit, "lower")
       for layer, fns in LAYER_FUNCS.items() for fn in fns
       for kind, unit in (("calls", "count/fit"), ("s", "s/fit"))},
    "estimation.check_persistency.per_select_N": ("count", "lower"),
    "lti.frequency_response.points": ("count/fit", "lower"),
    "lti.imag_warnings": ("count/fit", "lower"),
    "io.save_s": ("s/fit", "lower"),
    "io.load_s": ("s/fit", "lower"),
    "io.bytes_written": ("B/fit", "lower"),
    "io.bytes_read": ("B/fit", "lower"),
    "linalg.svd.calls": ("count/fit", "lower"),
    "linalg.svd.s": ("s/fit", "lower"),
    "linalg.svd.gflop_computed": ("Gflop/fit", "lower"),
    "linalg.cho_factor.calls": ("count/fit", "lower"),
    "linalg.cho_factor.failed": ("count/fit", "lower"),
    "linalg.cho_factor.gflop_computed": ("Gflop/fit", "lower"),
    "linalg.solve.calls": ("count/fit", "lower"),
    "linalg.solve.s": ("s/fit", "lower"),
    "linalg.lstsq.calls": ("count/fit", "lower"),
    "linalg.lstsq.s": ("s/fit", "lower"),
    "trace.overhead_s": ("s/fit", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Largest relative deviation from the seed commit that still counts as the
# same result (round-off from a reordered BLAS call, not a changed algorithm).
IDENTICAL_TOL = 1e-9


class ProgramMissing(RuntimeError):
    pass


def import_program() -> float:
    """Import pencilid from this checkout's ``src``; return the seconds taken."""
    if not (SRC / "pencilid" / "__init__.py").is_file():
        raise ProgramMissing(f"{SRC / 'pencilid'} not found; run from a "
                             "checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.signal  # noqa: F401

    import pencilid
    import pencilid.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(pencilid.__file__).resolve().parent != SRC / "pencilid":
        raise ProgramMissing(f"pencilid imported from {pencilid.__file__}, "
                             f"not from {SRC}")
    return elapsed


# Imports the program in a fresh interpreter and prints the seconds taken.
_IMPORT_CHILD = (
    "import sys, time; sys.dont_write_bytecode = True; sys.path.insert(0, sys.argv[1]); "
    "t0 = time.perf_counter(); import numpy, scipy.linalg, scipy.signal, pencilid, "
    "pencilid.cli; print(time.perf_counter() - t0)")


def import_samples(first: float, n: int = 3) -> list:
    """Calibrated import times: ``first`` (this process) plus fresh
    interpreters, ``n`` samples in all."""
    from calibrate import KERNEL_REF_S, kernel

    out = [first * KERNEL_REF_S / kernel()]
    for _ in range(n - 1):
        before = kernel()
        proc = subprocess.run([sys.executable, "-c", _IMPORT_CHILD, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        k = 0.5 * (before + kernel())
        out.append(float(proc.stdout.strip().splitlines()[-1]) * KERNEL_REF_S / k)
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def _accuracy_pairs(meas, reference, method: str, key: str, units=None):
    """(error, seed-commit error) per evaluated record, in unit order."""
    import workloads as wl

    n = len(meas.units) if units is None else units
    return [(wl.guard_error(key, u.accuracy[method][key]),
             wl.guard_error(key, reference[str(item)][method][key]))
            for item, u in zip(meas.items[:n], meas.units[:n])
            if key in u.accuracy.get(method, {})]


def _ratios(pairs) -> list:
    return [v / r for v, r in pairs]


def _quantile(values, q: float) -> float:
    """The q-quantile, interpolated linearly between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def e2e_metrics(meas, workload, import_s: list, reference) -> tuple[dict, dict]:
    """End-to-end metrics and the sample count behind each.

    The accuracy guards use the records of the first ``min_units`` units,
    a fixed number per seed, so they repeat exactly.  Each is the median over
    those records of the record's error divided by its seed-commit error:
    record-to-record spread of the errors themselves (W_h of one record can
    be 1e6 times another's) would otherwise swamp any change of the program.
    """
    import workloads as wl

    values, counts = {}, {}
    values["setup_s"] = _median(import_s) + _median(meas.setup_s)
    counts["setup_s"] = min(len(import_s), len(meas.setup_s))
    values["fits_per_s"] = meas.fits / meas.cal_s
    counts["fits_per_s"] = meas.fits
    for m in METHODS:
        lat = [x for u in meas.units for x in u.latencies.get(m, [])]
        values[f"fit_s_p50.{m}"] = _median(lat)
        counts[f"fit_s_p50.{m}"] = len(lat)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts["peak_rss_mb"] = 1
    for name, method, key in wl.ACCURACY:
        pairs = (_accuracy_pairs(meas, reference, method, key, workload.min_units)
                 if reference is not None else [])
        values[f"{name}.vs_seed"] = _median(_ratios(pairs))
        counts[f"{name}.vs_seed"] = len(pairs)
        values[name] = _median([v for v, _ in pairs])
    return values, counts


def layer_metrics(meas, summary: dict) -> dict:
    """Per-layer metrics, per fit.  Span times are wall-clock scaled by the
    traced units' calibration factor (calibrated / wall seconds)."""
    funcs = summary["functions"]
    fits = meas.fits or 1
    speed = meas.cal_s / meas.raw_s

    def f(key, field="calls"):
        value = funcs.get(key, {}).get(field, 0)
        return value * speed if field == "s" else value

    smm_fits = sum(len(u.latencies.get(m, [])) for u in meas.units
                   for m in ("smm-hf", "smm-lf"))
    out = {f"{layer}.self_s": summary["layer_self_s"].get(layer, 0.0) * speed / fits
           for layer in SELF_LAYERS}
    out["metrics.s"] = summary["layer_s"].get("metrics", 0.0) * speed / fits
    out["pipeline.smm_calls_per_fit"] = (
        f("estimation.estimate_markov_smm") / smm_fits if smm_fits else 0.0)
    out["pipeline.pencil_builds_per_fit"] = (
        f("pencils.build_hankel") + f("pencils.build_loewner")) / fits
    for layer, fns in LAYER_FUNCS.items():
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = f(f"{layer}.{fn}") / fits
            out[f"{layer}.{fn}.s"] = f(f"{layer}.{fn}", "s") / fits
    select_n = f("estimation.select_N")
    nested = summary["nested_calls"].get(
        ("estimation.select_N", "estimation.check_persistency"), 0)
    out["estimation.check_persistency.per_select_N"] = (
        nested / select_n if select_n else 0.0)
    out["lti.frequency_response.points"] = f("lti.frequency_response", "points") / fits
    out["lti.imag_warnings"] = meas.imag_warnings / fits
    for key, value in summary["io"].items():
        out[f"io.{key}"] = value * (speed if key.endswith("_s") else 1.0) / fits
    for name in ("svd", "cho_factor", "solve", "lstsq"):
        out[f"linalg.{name}.calls"] = f(f"linalg.{name}") / fits
    out["linalg.svd.s"] = f("linalg.svd", "s") / fits
    out["linalg.solve.s"] = f("linalg.solve", "s") / fits
    out["linalg.lstsq.s"] = f("linalg.lstsq", "s") / fits
    out["linalg.svd.gflop_computed"] = f("linalg.svd", "gflop") / fits
    out["linalg.cho_factor.gflop_computed"] = f("linalg.cho_factor", "gflop") / fits
    out["linalg.cho_factor.failed"] = f("linalg.cho_factor", "failed") / fits
    out["trace.overhead_s"] = meas.trace_overhead["overhead_s"]
    out["trace.overhead_ratio"] = meas.trace_overhead["overhead_ratio"]
    return out


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def check(meas, reference) -> tuple[dict, dict]:
    """Gating checks and informational ones; each is name -> (ok, detail).

    Gating: every record has seed-commit values; no fit fails that passed at
    the seed commit; for every accuracy guard, the ``ACCURACY_QUANTILE``
    over all processed records of error / seed-commit error is at most
    ``ACCURACY_TOL`` above 1; workload-specific checks (CLI against library,
    repeatability).
    Informational: whether results are identical to the seed commit, and
    whether campaign artifacts are byte-identical to it.
    """
    import workloads as wl

    gating, info = {}, {}
    for u in meas.units:
        for name, (ok, detail) in u.checks.items():
            if gating.get(name, (True,))[0]:   # keep the first failure's detail
                gating[name] = (ok, detail)

    missing = sorted({item for item in meas.items
                      if reference is None or str(item) not in reference})
    gating["reference.covers_records"] = (
        not missing, f"seed-commit values missing for items {missing}" if missing
        else "every record has seed-commit values")
    if missing:
        return gating, info

    new_failures = []
    for item, u in zip(meas.items, meas.units):
        for m, n in u.failed.items():
            if n > reference[str(item)][m]["failed"]:
                new_failures.append(f"{m}@{item}")
    gating["no_new_failures"] = (not new_failures,
                                 "failed fits: " + (", ".join(new_failures) or "none"))

    worst_dev = 0.0
    q = wl.ACCURACY_QUANTILE
    for name, method, key in wl.ACCURACY:
        pairs = _accuracy_pairs(meas, reference, method, key)
        if not pairs:
            gating[f"accuracy.{name}"] = (False, "no value")
            continue
        worst_dev = max([worst_dev] + [abs(v - r) / abs(r) for v, r in pairs])
        ratios = _ratios(pairs)
        worse = _quantile(ratios, q) - 1.0
        gating[f"accuracy.{name}"] = (
            worse <= wl.ACCURACY_TOL,
            f"median {_median([v for v, _ in pairs]):.6g} (seed commit "
            f"{_median([r for _, r in pairs]):.6g}) over {len(pairs)} records; "
            f"error / seed-commit error: median {_median(ratios):.6g}, "
            f"{100 * q:g}th percentile {100 * worse:+.3f}% (limit "
            f"+{100 * wl.ACCURACY_TOL:g}%), worst {max(ratios):.6g}")
    info["accuracy.identical_to_seed_commit"] = (
        worst_dev <= IDENTICAL_TOL,
        f"largest relative deviation of any record's guard error: {worst_dev:.3e}")

    digests = [(u.accuracy[m]["digest"], reference[str(item)][m]["digest"])
               for item, u in zip(meas.items, meas.units) for m in METHODS
               if "digest" in u.accuracy.get(m, {})]
    if digests:
        same = sum(a == b for a, b in digests)
        info["campaign.artifacts_match_seed_commit"] = (
            same == len(digests),
            f"{same} of {len(digests)} report.json (without wall_time_s) + CSV "
            "digests equal the seed commit's")
    return gating, info


def probes(meas) -> dict:
    """Known defects, reported as present or absent; they do not gate."""
    out = {"defect.imag_leakage_warnings": (
        meas.imag_warnings > 0,
        f"{meas.imag_warnings} imaginary-leakage warnings from complex models "
        f"in {meas.fits} timed fits")}
    for u in meas.units:
        out.update(u.probes)
    return out


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS library."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return out
    for lib in libs:
        name = Path(lib).name
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[name] = fn()
                break
    return out


def source_digest() -> str:
    files = sorted((SRC / "pencilid").glob("*.py"))
    return hashlib.sha256(b"".join(p.name.encode() + p.read_bytes()
                                   for p in files)).hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except Exception:  # show_config layout differs between releases
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def load_reference(name: str):
    path = HERE / "reference.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["workloads"].get(name)


def collect(name: str, seed: int, seconds: float, trace: bool, sizes,
            reference, import_s: list) -> dict:
    """Measure one workload and return the complete result record.

    ``import_s`` holds the program's import times; set-up time is their
    median plus the median time to set up one record."""
    import workloads as wl

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workload = wl.WORKLOADS[name](sizes, workdir)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        horizons = ({int(k): v["N"] for k, v in reference.items()} if reference
                    else {i: 0 for i in range(sizes.pool)})
        meas = wl.measure(workload, seed, seconds, horizons, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.cleanup(workdir)

    e2e, counts = e2e_metrics(meas, workload, import_s, reference)
    if tracer is not None:
        chosen = layer_metrics(meas, tracer.summary())
        spec = PER_LAYER
    else:
        chosen = e2e
        spec = E2E
    gating, info = check(meas, reference)
    failed = sum(n for u in meas.units for n in u.failed.values())
    attempted = sum(u.attempted for u in meas.units)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": all(ok for ok, _ in gating.values()),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {k: {"value": chosen[k], "unit": spec[k][0]} for k in spec},
        "better": {k: spec[k][1] for k in spec},
        "end_to_end": e2e,
        "samples": counts,
        "checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in gating.items()},
        "info": {k: {"ok": ok, "detail": d} for k, (ok, d) in info.items()},
        "probes": {k: {"present": p, "detail": d} for k, (p, d) in probes(meas).items()},
        "items": meas.items,
        "unit_s": [u.cal_s for u in meas.units],
        "unit_raw_s": [u.raw_s for u in meas.units],
        "setup_runs_s": meas.setup_s,
        "import_s": import_s,
        "timed_s": meas.cal_s,
        "timed_raw_s": meas.raw_s,
        "trace_overhead": meas.trace_overhead,
        "accuracy": [u.accuracy for u in meas.units],
        "latencies": [u.latencies for u in meas.units],
        "tracer": tracer,
    }


def print_report(rec: dict, env: dict) -> None:
    import workloads as wl

    print(f"# pencilid benchmark: workload={rec['workload']} seed={rec['seed']} "
          f"trace={rec['trace']} timed={rec['timed_raw_s']:.2f}s wall, "
          f"{rec['timed_s']:.2f}s calibrated; units={len(rec['unit_s'])} "
          f"items={rec['items']}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    for k, m in rec["metrics"].items():
        n = rec["samples"].get(k)
        extra = f" (n={n})" if n is not None else ""
        print(f"{k} = {m['value']:.6g} {m['unit']} [{rec['better'][k]} is better]{extra}")
    print(f"fail_ratio = {rec['fail_ratio']:.6g} ({rec['failed']} of {rec['attempted']})")
    print("# accuracy medians over the guard records: " + ", ".join(
        f"{k}={rec['end_to_end'][k]:.6g}" for k, *_ in wl.ACCURACY))
    if rec["trace"]:
        o = rec["trace_overhead"]
        print(f"# tracing overhead: traced {o['traced_s']:.3f}s vs untraced "
              f"{o['untraced_s']:.3f}s on the same unit "
              f"({100 * o['overhead_ratio']:+.1f}%)")
    for k, c in rec["checks"].items():
        print(f"check {k}: {'PASS' if c['ok'] else 'FAIL'} - {c['detail']}")
    for k, c in rec["info"].items():
        print(f"info {k}: {'yes' if c['ok'] else 'no'} - {c['detail']}")
    for k, p in rec["probes"].items():
        print(f"probe {k}: {'DEFECT PRESENT' if p['present'] else 'absent'} - {p['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign-sweep", "long-record", "realize-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_s = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads as wl

    rec = collect(args.workload, args.seed, args.seconds, bool(args.trace),
                  wl.FULL, load_reference(args.workload), import_samples(import_s))
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = rec.pop("tracer")
    if tracer is not None:
        tracer.dump(OUT / f"{tag}-spans.json")
    with open(OUT / f"{tag}.json", "w") as f:
        json.dump(dict(rec, environment=env), f, indent=1, sort_keys=True)
        f.write("\n")
    print_report(rec, env)
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
