"""Per-layer tracing of qglattice from outside the package.

Each module's public functions are wrapped at every name their callers
look up (a module global such as ``qglattice.bands.lambda_arrays`` as well
as the defining module's own attribute), so calls made inside the library
are seen too.  A wrapper records one span: layer, function, start, end,
thread and the span that called it on the same thread.  Spans stay in
memory; the metrics are computed from them when a traced round ends.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np

#: Layer -> (module, public functions wrapped).  "roots" holds the scipy
#: root solvers as the bands module binds them.
LAYERS = {
    "kernels": ("qglattice.kernels", ("lambda_arrays", "tri_bracket_pos", "tri_bracket_neg",
                                      "kagome_equilateral_F", "tri_G", "tri_G_tilde")),
    "bands": ("qglattice.bands", ("scan_bands", "scan_negative_bands", "in_band", "flat_bands",
                                  "negative_flat_bands", "detect_gap_closings", "spectral_threshold",
                                  "kagome_collapse_function", "kagome_collapse_roots",
                                  "bracket_theta_gradient")),
    "roots": ("qglattice.bands", ("brentq", "root")),
    "secular": ("qglattice.secular", ("oracle_in_spectrum", "kagome_secular_matrix", "kagome_secular_det",
                                      "triangular_secular_matrix", "triangular_secular_det",
                                      "normalized_bracket")),
    "probability": ("qglattice.probability", ("finite_scan_probability", "band_measure", "torus_probability",
                                              "torus_indicator", "closed_form_probability",
                                              "probability_sweep")),
    "asymptotics": ("qglattice.asymptotics", ("equilateral_narrow_band", "triangular_narrow_band",
                                              "kagome_negative_large_d", "equilateral_negative_widths",
                                              "triangular_star_collapse_function", "triangular_negative_large_d",
                                              "measure_narrow_pair", "measure_negative_collapse",
                                              "comparison_rows")),
    "cli": ("qglattice.cli", ("main",)),
    "vertex": ("qglattice.vertex", ("build_circulant_u", "scattering_matrix", "scattering_matrix_resolvent",
                                    "high_energy_limit", "star_negative_eigenvalues")),
}

SCANS = ("scan_bands", "scan_negative_bands")

#: Per-layer metric -> (unit, better).  Counts and times are per round.
METRICS = {
    "setup.import_s": ("s", "lower"),
    "setup.scipy_import_s": ("s", "lower"),
    "kernels.calls": ("count", "lower"),
    "kernels.points": ("count", "lower"),
    "kernels.busy_s": ("s", "lower"),
    "kernels.ns_per_point": ("ns", "lower"),
    "kernels.parallelism": ("ratio", "higher"),
    "bands.scan_calls": ("count", "lower"),
    "bands.scan_self_s": ("s", "lower"),
    "bands.flat_bands_calls": ("count", "lower"),
    "bands.flat_bands_s": ("s", "lower"),
    "bands.in_band_calls": ("count", "lower"),
    "bands.root_solves": ("count", "lower"),
    "bands.intervals": ("count", "lower"),
    "bands.runtime_warnings": ("count", "lower"),
    "secular.oracle_calls": ("count", "lower"),
    "secular.ms_per_momentum": ("ms", "lower"),
    "secular.dets": ("count", "lower"),
    "secular.dets_per_momentum": ("count", "lower"),
    "secular.kernel_calls": ("count", "lower"),
    "probability.calls": ("count", "lower"),
    "probability.self_s": ("s", "lower"),
    "probability.torus_s": ("s", "lower"),
    "asymptotics.calls": ("count", "lower"),
    "asymptotics.self_s": ("s", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "vertex.calls": ("count", "lower"),
    "vertex.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: Totals, reported per round; the other metrics are ratios.
TOTALS = {name for name, (unit, _) in METRICS.items()
          if unit in ("count", "bytes", "s") and "_per_" not in name}


class Span:
    __slots__ = ("layer", "name", "parent", "thread", "t0", "t1", "points", "intervals")

    def __init__(self, layer, name, parent, thread):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.thread = thread
        self.points = 0
        self.intervals = 0

    def ancestors(self):
        s = self.parent
        while s is not None:
            yield s
            s = s.parent


class Tracer:
    """Wraps the library's public functions; records spans while enabled."""

    def __init__(self):
        self.spans = []
        self.counters = {"dets": 0, "runtime_warnings": 0, "bytes_written": 0}
        self.enabled = False
        self._local = threading.local()
        self._patches = []

    # ---- installation

    def install(self) -> None:
        targets = {}
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(modname)
            for name in names:
                targets[id(inspect.unwrap(getattr(mod, name)))] = (layer, name)
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qglattice" or modname.startswith("qglattice.")):
                continue
            for attr, value in list(vars(mod).items()):
                if not callable(value):
                    continue
                hit = targets.get(id(inspect.unwrap(value)))
                if hit is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(*hit, value)
                self._patches.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
        det = np.linalg.det
        self._patches.append((np.linalg, "det", det))
        np.linalg.det = self._wrap_det(det)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, name, fn):
        tracer = self
        points = layer == "kernels"
        scan = name in SCANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(layer, name, stack[-1] if stack else None, threading.get_ident())
            if points and args:
                span.points = int(np.size(args[0]))
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if scan:
                span.intervals = len(result.intervals)
            return result

        return wrapper

    def _wrap_det(self, det):
        tracer = self

        @functools.wraps(det)
        def wrapper(a):
            if tracer.enabled and sys._getframe(1).f_globals.get("__name__") == "qglattice.secular":
                shape = np.shape(a)
                tracer.counters["dets"] += int(np.prod(shape[:-2], dtype=np.int64))
            return det(a)

        return wrapper

    # ---- metrics

    def metrics(self, rounds: int, overhead_s: float) -> dict:
        """Per-layer metrics per round, from the spans recorded so far."""
        spans = self.spans
        by_layer = {}
        for s in spans:
            by_layer.setdefault(s.layer, []).append(s)

        def outermost(layer):
            return [s for s in by_layer.get(layer, ()) if all(a.layer != layer for a in s.ancestors())]

        def self_time(tops, exclude):
            covered = _Union([(s.t0, s.t1) for s in exclude])
            return sum((s.t1 - s.t0) - covered.overlap(s.t0, s.t1) for s in tops)

        def below(tops, layer):
            """Spans of other layers that the tops called (on any thread)."""
            callers = {id(a) for s in tops for a in s.ancestors()}
            return [s for s in spans if s.layer != layer and id(s) not in callers]

        out = {}
        kern = outermost("kernels")
        busy = sum(s.t1 - s.t0 for s in kern)
        points = sum(s.points for s in kern)
        wall = _Union([(s.t0, s.t1) for s in kern]).length
        out["kernels.calls"] = len(kern)
        out["kernels.points"] = points
        out["kernels.busy_s"] = busy
        out["kernels.ns_per_point"] = 1e9 * busy / points if points else 0.0
        out["kernels.parallelism"] = busy / wall if wall else 0.0

        bands = by_layer.get("bands", [])
        scans = [s for s in bands if s.name in SCANS and all(a.name not in SCANS for a in s.ancestors())]
        flats = [s for s in bands if s.name == "flat_bands"]
        out["bands.scan_calls"] = len(scans)
        out["bands.scan_self_s"] = self_time(scans, kern + flats)
        out["bands.flat_bands_calls"] = len(flats)
        out["bands.flat_bands_s"] = sum(s.t1 - s.t0 for s in flats)
        out["bands.in_band_calls"] = sum(1 for s in bands if s.name == "in_band")
        out["bands.root_solves"] = len(by_layer.get("roots", []))
        out["bands.intervals"] = sum(s.intervals for s in scans)
        out["bands.runtime_warnings"] = self.counters["runtime_warnings"]

        oracle = [s for s in by_layer.get("secular", []) if s.name == "oracle_in_spectrum"]
        dets = self.counters["dets"]
        out["secular.oracle_calls"] = len(oracle)
        out["secular.ms_per_momentum"] = 1e3 * sum(s.t1 - s.t0 for s in oracle) / len(oracle) if oracle else 0.0
        out["secular.dets"] = dets
        out["secular.dets_per_momentum"] = dets / len(oracle) if oracle else 0.0
        out["secular.kernel_calls"] = sum(1 for s in kern if any(a.layer == "secular" for a in s.ancestors()))

        for layer in ("probability", "asymptotics", "cli", "vertex"):
            tops = outermost(layer)
            out[f"{layer}.calls"] = len(tops)
            out[f"{layer}.self_s"] = self_time(tops, below(tops, layer)) if tops else 0.0
        out["probability.torus_s"] = sum(s.t1 - s.t0 for s in by_layer.get("probability", [])
                                         if s.name == "torus_probability")
        out["cli.bytes_written"] = self.counters["bytes_written"]

        per_round = {name: value / rounds if name in TOTALS else value for name, value in out.items()}
        per_round["trace.overhead_s"] = overhead_s
        return per_round


class _Union:
    """Union of closed intervals, for overlap queries."""

    def __init__(self, intervals):
        merged = []
        for a, b in sorted(intervals):
            if merged and a <= merged[-1][1]:
                if b > merged[-1][1]:
                    merged[-1][1] = b
            else:
                merged.append([a, b])
        self.starts = [a for a, _ in merged]
        self.ends = [b for _, b in merged]
        self.prefix = [0.0]
        for a, b in merged:
            self.prefix.append(self.prefix[-1] + (b - a))
        self.length = self.prefix[-1]

    def _upto(self, t):
        """Covered length in (-inf, t]."""
        i = bisect.bisect_right(self.starts, t)
        if i == 0:
            return 0.0
        return self.prefix[i - 1] + min(t, self.ends[i - 1]) - self.starts[i - 1]

    def overlap(self, a, b):
        return self._upto(b) - self._upto(a)
