"""Spans and counts around the public functions of the geonets layers.

The traced run installs wrappers from the benchmark's side: every public
function named in :data:`LAYER_METRICS` is replaced in each module
namespace that holds it, and every listed ``Surface``, ``GammaNet`` and
``BumpSystem`` method is replaced on each class that defines it.  A
wrapper records a span (name, start, end, parent span, operation id) and
the counts read at the public boundary: calls, rows of point arrays,
``SolveResult.iterations``, ``ShortenResult.sweeps``, Hessian columns
and the denominator ``rationalize`` settled on.

A call nested directly inside a span of the same name (a derived surface
delegating to its base) is not a span of its own, so points are counted
once per evaluation.  Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

#: per-layer metrics reported by the traced run, in report order
LAYER_METRICS = [
    "solver.solve_stationary.s", "solver.solve_stationary.iterations",
    "nets.resample.calls",
    "surfaces.metric.points", "surfaces.metric.s",
    "surfaces.metric_deriv.calls", "surfaces.metric_deriv.s",
    "solver.stationary_tracker.s", "solver.stationary_tracker.columns",
    "solver.second_variation_spectrum.s", "solver.second_variation_spectrum.columns",
    "variation.first_variation.s", "variation.fd_length_derivative.s",
    "solver.stationarity_residual.s",
    "surfaces.quadrature.points", "surfaces.volume.s", "surfaces.surface_integral.s",
    "equidist.psi_values.points", "equidist.psi_values.s",
    "equidist.discrepancy.s", "equidist.build_partition.s",
    "equidist.rationalize.s", "equidist.rationalize.denominator",
    "equidist.convex_gradient_search.s", "equidist.running_ratio.s",
    "equidist.merged_block_ratios.s",
    "minmax.weyl_ratio_probe.s", "minmax.minmax_upper_bound.s",
    "nets.length.calls", "nets.integrate.s",
    "minmax.birkhoff_shorten.s", "minmax.birkhoff_shorten.sweeps",
    "surfaces.geodesic_midpoint.calls", "surfaces.geodesic_midpoint.s",
    "surfaces.christoffel.points",
    "solver.embeddedness_certificate.s",
    "surfaces.distance.calls", "surfaces.distance.s",
]

#: spans kept for the trace file; aggregation goes on past this cap
MAX_SPANS = 1_000_000


def _rows(x):
    return int(np.prod(np.shape(x)[:-1], dtype=np.int64))


def _point_rows(args, kwargs):
    # Surface methods and BumpSystem.psi_values take (self, chart, x)
    return _rows(kwargs["x"] if "x" in kwargs else args[2])


def _net_dofs(net):
    return 2 * len(net.vertex_points) + 2 * sum(p.shape[0] - 2 for _, p in net.edge_paths)


# name -> counter(args, kwargs, result) -> {counter: amount}
_COUNTERS = {
    "surfaces.metric": lambda a, k, r: {"points": _point_rows(a, k)},
    "surfaces.christoffel": lambda a, k, r: {"points": _point_rows(a, k)},
    "surfaces.quadrature": lambda a, k, r: {"points": sum(len(pts) for _, pts, _ in r)},
    "equidist.psi_values": lambda a, k, r: {"points": _point_rows(a, k)},
    "solver.solve_stationary": lambda a, k, r: {"iterations": int(r.iterations)},
    "minmax.birkhoff_shorten": lambda a, k, r: {"sweeps": int(r.sweeps)},
    "solver.stationary_tracker": lambda a, k, r: {
        "columns": _net_dofs(k["init"] if "init" in k else a[0])},
    "solver.second_variation_spectrum": lambda a, k, r: {"columns": int(len(r))},
    "equidist.rationalize": lambda a, k, r: {"denominator": int(r[1])},
}

_FUNCTIONS = {
    "surfaces": ["volume", "surface_integral"],
    "solver": ["solve_stationary", "stationary_tracker", "second_variation_spectrum",
               "stationarity_residual", "embeddedness_certificate"],
    "variation": ["first_variation", "fd_length_derivative"],
    "minmax": ["weyl_ratio_probe", "minmax_upper_bound", "birkhoff_shorten"],
    "equidist": ["discrepancy", "build_partition", "rationalize",
                 "convex_gradient_search", "running_ratio", "merged_block_ratios"],
}

_SURFACE_METHODS = ["metric", "metric_deriv", "christoffel", "quadrature",
                    "geodesic_midpoint", "distance"]
_NET_METHODS = ["length", "integrate", "resample"]


class Tracer:
    """In-memory span store and per-layer aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.op_id = -1
        self._stack = []          # open spans: [name id, span index, child seconds]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        counter = _COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            idx = -1
            t0 = perf_counter()
            if len(self.span_start) < MAX_SPANS:
                idx = len(self.span_start)
                self.span_name.append(nid)
                self.span_parent.append(stack[-1][1] if stack else -1)
                self.span_op.append(self.op_id)
                self.span_start.append(t0)
                self.span_end.append(t0)
            else:
                self.spans_dropped += 1
            frame = [nid, idx, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = perf_counter() - t0
                if idx >= 0:
                    self.span_end[idx] = t0 + dur
                self.self_seconds[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            self.counts[name + ".calls"] += 1
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += amount
            return result

        return traced

    def install(self):
        """Wrap the layer functions and methods in every geonets namespace."""
        import geonets
        from geonets import equidist, nets, surfaces

        spaces = [geonets] + [sys.modules[m] for m in list(sys.modules)
                              if m.startswith("geonets.")]
        for mod_name, fn_names in _FUNCTIONS.items():
            module = sys.modules[f"geonets.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                traced = self.wrap(f"{mod_name}.{fn_name}", original)
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is original:
                            setattr(space, attr, traced)

        surface_classes, todo = [], [surfaces.Surface]
        while todo:
            cls = todo.pop()
            surface_classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in surface_classes:
            for meth in _SURFACE_METHODS:
                if meth in cls.__dict__:
                    setattr(cls, meth, self.wrap(f"surfaces.{meth}", cls.__dict__[meth]))
        for meth in _NET_METHODS:
            setattr(nets.GammaNet, meth, self.wrap(f"nets.{meth}", nets.GammaNet.__dict__[meth]))
        equidist.BumpSystem.psi_values = self.wrap(
            "equidist.psi_values", equidist.BumpSystem.__dict__["psi_values"])

    def layer_metrics(self, rounds):
        """Every per-layer metric as a per-round figure.

        Every round repeats the same operations on the same inputs, so
        counts per round repeat exactly from run to run.
        """
        out = {}
        for key in LAYER_METRICS:
            layer, kind = key.rsplit(".", 1)
            if kind == "s":
                out[key] = {"value": self.self_seconds.get(layer, 0.0) / rounds, "unit": "s"}
            else:
                out[key] = {"value": self.counts.get(key, 0) / rounds, "unit": "count"}
        return out

    def save(self, path):
        """Write the spans and the name table as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            dropped=np.array(self.spans_dropped))
