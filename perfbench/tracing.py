"""Span tracing installed from outside the program.

The pencilid modules import each other's functions by name, so a wrapper has
to replace every binding of a function, not only the attribute of the module
that defines it.  :func:`install` does that for the public functions of each
pencilid module and for the numpy/scipy linear-algebra entry points the
package calls.  Spans are kept in memory as lists and summarised (or dumped)
only after the measured work is done.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# pencilid modules whose public functions form one layer each.
LAYERS = ("pipeline", "estimation", "spectral", "pencils", "lti", "metrics",
          "dataio", "cli")

# Files written or read by these functions count towards the io.* metrics.
SAVE_FUNCS = {"save_dataset", "save_model", "save_markov",
              "save_frequency_samples", "save_singular_values"}
LOAD_FUNCS = {"load_dataset", "load_model", "load_markov",
              "load_frequency_samples"}

# Span record layout: [layer, name, parent index, start, end, extra].
_LAYER, _NAME, _PARENT, _START, _END, _EXTRA = range(6)


def _svd_gflop(a, full_matrices=True, compute_uv=True, *args, **kwargs):
    """Flop count of an SVD from its shape (Golub & Van Loan, R-SVD table)."""
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0.0
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = 1
    for d in shape[:-2]:
        batch *= d
    if not compute_uv:
        flops = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    elif full_matrices:
        flops = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
    else:
        flops = 6.0 * m * n * n + 11.0 * n ** 3
    if getattr(getattr(a, "dtype", None), "kind", "f") == "c":
        flops *= 4.0
    return batch * flops / 1e9


def _cholesky_gflop(a, *args, **kwargs):
    shape = getattr(a, "shape", ())
    if len(shape) != 2:
        return 0.0
    flops = shape[0] ** 3 / 3.0
    if getattr(getattr(a, "dtype", None), "kind", "f") == "c":
        flops *= 4.0
    return flops / 1e9


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Records one span per wrapped call while ``enabled`` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = False
        self._restore: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, extra=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [layer, name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            failed = False
            rec[_START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                rec[_END] = clock()
                stack.pop()
                if extra is not None:
                    rec[_EXTRA] = extra(failed, args, kwargs)
                elif failed:
                    rec[_EXTRA] = {"failed": 1}

        return wrapper

    def _rebind(self, original, wrapper, namespaces) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._restore.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def install(self) -> None:
        """Wrap every public pencilid function and the linalg entry points."""
        import numpy as np
        import numpy.linalg._linalg as np_linalg_impl
        import scipy.linalg

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pencilid"
                                         or name.startswith("pencilid."))]
        for layer in LAYERS:
            mod = sys.modules[f"pencilid.{layer}"]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                self._rebind(fn, self._wrap(layer, name, fn,
                                            self._extra_for(name)), modules)

        # numpy.linalg.norm(., 2) and cond() call the module-level svd of the
        # implementation module, so that binding is replaced as well.
        np_namespaces = [np.linalg, np_linalg_impl]
        linalg = {
            "svd": (np.linalg.svd, np_namespaces, _svd_gflop),
            "solve": (np.linalg.solve, np_namespaces, None),
            "lstsq": (np.linalg.lstsq, np_namespaces, None),
            "cho_factor": (scipy.linalg.cho_factor, [scipy.linalg], _cholesky_gflop),
            "cho_solve": (scipy.linalg.cho_solve, [scipy.linalg], None),
            "lu_factor": (scipy.linalg.lu_factor, [scipy.linalg], None),
            "lu_solve": (scipy.linalg.lu_solve, [scipy.linalg], None),
        }
        for name, (fn, namespaces, gflop) in linalg.items():
            extra = None
            if gflop is not None:
                def extra(failed, args, kwargs, gflop=gflop):
                    return {"gflop": gflop(*args, **kwargs), "failed": int(failed)}
            self._rebind(fn, self._wrap("linalg", name, fn, extra), namespaces)

    @staticmethod
    def _extra_for(name: str):
        """Per-call details kept beside the span: file sizes, grid points."""
        if name in SAVE_FUNCS:
            def extra(failed, args, kwargs):
                path = kwargs.get("path", args[1] if len(args) > 1 else None)
                return {"bytes_written": _file_size(path), "failed": int(failed)}
            return extra
        if name in LOAD_FUNCS:
            def extra(failed, args, kwargs):
                path = kwargs.get("path", args[0] if args else None)
                return {"bytes_read": _file_size(path), "failed": int(failed)}
            return extra
        if name == "frequency_response":
            def extra(failed, args, kwargs):
                points = kwargs.get("points", args[1] if len(args) > 1 else ())
                return {"points": len(points), "failed": int(failed)}
            return extra
        return None

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-function and per-layer totals over all recorded spans.

        ``self_s`` of a layer is the time its spans cover minus the time
        covered by their direct child spans (of any layer); ``layer_s`` is
        the inclusive time of its spans not called from the same layer.  A
        function's ``s`` is inclusive time.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child_time[rec[_PARENT]] += rec[_END] - rec[_START]
        funcs: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "gflop": 0.0,
                                           "failed": 0, "points": 0})
        layers: dict = defaultdict(float)
        layer_total: dict = defaultdict(float)
        io = {"save_s": 0.0, "load_s": 0.0, "bytes_written": 0, "bytes_read": 0}
        nested = defaultdict(int)   # (parent name, child name) -> calls
        for i, rec in enumerate(spans):
            dur = rec[_END] - rec[_START]
            key = f"{rec[_LAYER]}.{rec[_NAME]}"
            f = funcs[key]
            f["calls"] += 1
            f["s"] += dur
            layers[rec[_LAYER]] += dur - child_time[i]
            if rec[_PARENT] < 0 or spans[rec[_PARENT]][_LAYER] != rec[_LAYER]:
                layer_total[rec[_LAYER]] += dur
            extra = rec[_EXTRA]
            if extra:
                f["gflop"] += extra.get("gflop", 0.0)
                f["failed"] += extra.get("failed", 0)
                f["points"] += extra.get("points", 0)
                if "bytes_written" in extra:
                    io["save_s"] += dur
                    io["bytes_written"] += extra["bytes_written"]
                if "bytes_read" in extra:
                    io["load_s"] += dur
                    io["bytes_read"] += extra["bytes_read"]
            if rec[_PARENT] >= 0:
                parent = spans[rec[_PARENT]]
                nested[(f"{parent[_LAYER]}.{parent[_NAME]}", key)] += 1
        return {"functions": dict(funcs), "layer_self_s": dict(layers),
                "layer_s": dict(layer_total),
                "io": io, "nested_calls": dict(nested)}

    def dump(self, path) -> None:
        """Write the raw spans (layer, name, parent, start, end, extra)."""
        with open(path, "w") as f:
            json.dump({"fields": ["layer", "name", "parent", "start", "end",
                                  "extra"], "spans": self.spans}, f,
                      separators=(",", ":"))
