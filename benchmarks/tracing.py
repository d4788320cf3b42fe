"""Per-layer tracing of scprune from outside the program.

`Tracer` swaps the public functions of scprune's modules for timing wrappers
and puts the originals back afterwards. Each wrapper records a span; a
function's self time is its span minus the time covered by wrapped child
spans. Work counters are read from arguments and return values, so nothing
under `src/` has to know it is being traced.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
import tracemalloc
from collections import defaultdict

from scprune import baselines, cli, io, linalg, nn, pruner, ssc
from scprune.errors import DegenerateDataError

TRACED = {
    cli: ("main",),
    io: ("load_model", "load_calibration", "save_model", "save_report"),
    pruner: (
        "prune_model",
        "prune_layer_pair",
        "reconstruct",
        "cluster_upper_filters",
        "cluster_lower_channels",
    ),
    baselines: ("compare_selectors", "prune_with_selector"),
    ssc: ("build_data_matrix", "solve_self_expressive", "spectral_cluster", "kmeans"),
    linalg: ("sym_eigen", "ridge_least_squares"),
    nn: ("forward", "conv2d", "im2col"),
}

MIB = 1024.0 * 1024.0


def _label(module, name):
    return f"{module.__name__.rsplit('.', 1)[-1]}.{name}"


def _file_bytes(paths):
    return sum(os.path.getsize(p) for p in paths)


class Tracer:
    """Spans and counters for the functions in `TRACED`, summed over calls."""

    def __init__(self):
        self.originals = {
            (module, name): getattr(module, name)
            for module, names in TRACED.items()
            for name in names
        }
        self.labels = [_label(m, n) for m, n in self.originals]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.reconstruct_peak_mb = 0.0
        self._child_s = []  # one accumulator per open span
        self._solver_signature = inspect.signature(ssc.solve_self_expressive)
        self._hooks = {
            "io.load_model": lambda a, kw, r: self._count("io.bytes_read", _file_bytes(a[:1])),
            "io.load_calibration": lambda a, kw, r: self._count(
                "io.bytes_read", _file_bytes(os.path.join(a[0], n) for n in r[0])
            ),
            "io.save_model": lambda a, kw, r: self._count("io.bytes_written", _file_bytes(a[1:2])),
            "io.save_report": lambda a, kw, r: self._count(
                "io.bytes_written", _file_bytes(a[1:2])
            ),
            "nn.im2col": lambda a, kw, r: self._count("nn.im2col.bytes", r.nbytes),
            "linalg.ridge_least_squares": lambda a, kw, r: self._count(
                "linalg.ridge_least_squares.bytes", a[0].nbytes
            ),
            "ssc.solve_self_expressive": self._solver_counters,
        }

    def _count(self, key, amount):
        self.counters[key] += amount

    def _solver_counters(self, args, kwargs, result):
        bound = self._solver_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self._count("ssc.solve_self_expressive.iters", result.iterations_run)
        at_cap = result.iterations_run >= bound.arguments["max_iter"]
        self._count("ssc.solve_self_expressive.at_cap", int(at_cap))

    def _wrap(self, label, fn):
        hook = self._hooks.get(label)
        watch_memory = label == "pruner.reconstruct"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if watch_memory:
                tracemalloc.start()
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except DegenerateDataError:
                if label == "ssc.solve_self_expressive":
                    self._count("ssc.solve_self_expressive.degenerate", 1)
                raise
            finally:
                span = time.perf_counter() - start
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += span
                self.calls[label] += 1
                self.self_s[label] += span - child
                if watch_memory:
                    peak = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                    self.reconstruct_peak_mb = max(self.reconstruct_peak_mb, peak)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced module attribute for its wrapper, then restore."""
        try:
            for (module, name), fn in self.originals.items():
                setattr(module, name, self._wrap(_label(module, name), fn))
            yield self
        finally:
            for (module, name), fn in self.originals.items():
                setattr(module, name, fn)

    def originals_in_place(self) -> bool:
        """True when every traced module attribute is the program's own function."""
        return all(getattr(m, n) is fn for (m, n), fn in self.originals.items())

    def metrics(self, cli_calls: int) -> dict:
        """Per-layer metrics as means per traced CLI call."""
        out = {}
        for label in self.labels:
            out[f"{label}.calls"] = (self.calls[label] / cli_calls, "count")
            out[f"{label}.self_s"] = (self.self_s[label] / cli_calls, "s")
        for key, unit in (
            ("ssc.solve_self_expressive.iters", "count"),
            ("ssc.solve_self_expressive.at_cap", "count"),
            ("ssc.solve_self_expressive.degenerate", "count"),
            ("io.bytes_read", "B"),
            ("io.bytes_written", "B"),
            ("nn.im2col.bytes", "B"),
            ("linalg.ridge_least_squares.bytes", "B"),
        ):
            out[key] = (self.counters[key] / cli_calls, unit)
        out["pruner.reconstruct.peak_mb"] = (self.reconstruct_peak_mb, "MiB")
        return out
