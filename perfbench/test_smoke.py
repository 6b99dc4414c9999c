"""Self-test of the benchmark at tiny problem sizes (a few seconds).

    python3 perfbench/test_smoke.py
    python3 -m pytest perfbench/test_smoke.py

Checks that BENCHMARK.json and the code name the same metrics with the same
units and directions, that every workload emits every metric in both passes,
and that the traced pass computes exactly the accuracy values of the untraced
pass, which shows the tracing wrappers do not change results.
"""

from __future__ import annotations

import json
import math

import reference
import run

IMPORT_S = run.import_program()

import workloads as wl  # noqa: E402  (needs the program on sys.path)

SEED = 3
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _collect(name: str, trace: bool, ref: dict) -> dict:
    rec = run.collect(name, SEED, 0.5, trace, wl.SMOKE, ref, [IMPORT_S])
    rec.pop("tracer")
    return rec


def test_benchmark_json_matches_code():
    for section, table in (("end_to_end", run.E2E), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}
        assert declared == table, section
    assert {w["name"] for w in SPEC["workloads"]} == set(wl.WORKLOADS)


def test_workloads_emit_every_metric_and_tracing_keeps_results():
    for name in wl.WORKLOADS:
        ref = reference.record(name, wl.SMOKE, run.OUT / f"smoke-reference-{name}")
        plain, traced = _collect(name, False, ref), _collect(name, True, ref)
        for rec, table in ((plain, run.E2E), (traced, run.PER_LAYER)):
            assert rec["correct"], (name, rec["checks"])
            assert rec["attempted"] >= 1 and rec["failed"] == 0, name
            assert set(rec["metrics"]) == set(table), name
            for key, m in rec["metrics"].items():
                assert m["unit"] == table[key][0], (name, key)
                assert rec["better"][key] in ("higher", "lower"), (name, key)
                assert isinstance(m["value"], float) and math.isfinite(m["value"]), \
                    (name, key, m["value"])
        n = min(len(plain["accuracy"]), len(traced["accuracy"]))
        assert n >= 1
        assert plain["accuracy"][:n] == traced["accuracy"][:n], name
        assert plain["items"][:n] == traced["items"][:n], name


if __name__ == "__main__":
    test_benchmark_json_matches_code()
    test_workloads_emit_every_metric_and_tracing_keeps_results()
    print("smoke test passed")
