#!/usr/bin/env python3
"""Record the reference values the benchmark checks its results against.

    python3 perfbench/reference.py [--workload NAME ...]

Runs every pool item of each workload once, with the benchmark's own code,
and writes ``perfbench/reference.json``: per item and method the accuracy
values (W, W_h, W_H), the number of failed fits and, for campaign-sweep, the
digest of ``report.json`` (without ``wall_time_s``) and the CSV artifacts;
per item the horizon N, by which runs mix cheap and costly records.
Run it only at a commit whose results are meant to become the new reference;
the file records which source tree it came from.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

import run


def record(name: str, sizes, workdir, log=None) -> dict:
    """Reference values of every pool item of one workload."""
    import workloads as wl
    from calibrate import Stopwatch

    workload = wl.WORKLOADS[name](sizes, workdir)
    items = {}
    try:
        for item in range(sizes.pool):
            t0 = time.perf_counter()
            inputs = workload.setup(item)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = workload.run(inputs, Stopwatch())
                workload.evaluate(inputs, result, True)
            items[str(item)] = {
                m: dict(result.accuracy.get(m, {}), failed=result.failed.get(m, 0))
                for m in wl.METHODS}
            items[str(item)]["N"] = result.horizon
            if log is not None:
                print(f"{name} item {item}: {time.perf_counter() - t0:.1f}s "
                      f"failed={result.failed}", file=log, flush=True)
    finally:
        wl.cleanup(workdir)
    return items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+",
                        default=["campaign-sweep", "long-record", "realize-files"])
    args = parser.parse_args(argv)
    run.import_program()
    import workloads as wl

    path = run.HERE / "reference.json"
    doc = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    doc["environment"] = run.environment()
    for name in args.workload:
        doc["workloads"][name] = record(name, wl.FULL, run.OUT / f"reference-{name}",
                                        sys.stderr)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
