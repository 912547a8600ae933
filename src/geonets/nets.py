"""Weighted multigraphs and nets of curves on a surface.

A net maps a weighted multigraph into a surface: each edge carries a
polyline of chart points, each vertex a chart point, and every length or
line-integral is weighted by the edge multiplicity.  On the periodic
charts (torus, dumbbell angle) polylines are stored unwrapped, so a
closed geodesic of class (a, b) runs from a vertex image to a lattice
translate of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .surfaces import Surface, _chart, midpoint_rule


class DegenerateNetError(ValueError):
    """An edge collapsed below the length floor (or has zero length)."""


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    """Edge with endpoint map (v0, v1) and a positive integer multiplicity."""
    v0: str
    v1: str
    mult: int = 1

    def endpoint(self, i):
        return self.v0 if i == 0 else self.v1


class WeightedMultigraph:
    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.edges = [e if isinstance(e, Edge) else Edge(*e) for e in edges]
        vs = set(self.vertices)
        for e in self.edges:
            if e.v0 not in vs or e.v1 not in vs:
                raise ValueError(f"edge {e} references an unknown vertex")
            if e.mult < 1:
                raise ValueError("edge multiplicity must be a positive integer")

    def degree(self, v):
        """Vertex degree; a loop at v counts twice."""
        return sum((e.v0 == v) + (e.v1 == v) for e in self.edges)

    def components(self):
        """Connected components as lists of edge indices (isolated vertices
        form vertex-only components and are ignored here)."""
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in self.edges:
            a, b = find(e.v0), find(e.v1)
            if a != b:
                parent[a] = b
        comps = {}
        for i, e in enumerate(self.edges):
            comps.setdefault(find(e.v0), []).append(i)
        return list(comps.values())

    def is_good(self):
        """Per-component goodness flags, in :meth:`components` order.

        A component is good if it is a single closed loop (with any
        multiplicity) or if every vertex in it has degree at least three.
        """
        flags = []
        for comp in self.components():
            edges = [self.edges[i] for i in comp]
            verts = {e.v0 for e in edges} | {e.v1 for e in edges}
            flags.append((len(edges) == 1 and edges[0].v0 == edges[0].v1)
                         or all(self.degree(v) >= 3 for v in verts))
        return flags


def loop_graph(mult=1):
    """Single vertex with one loop edge (a closed curve)."""
    return WeightedMultigraph(["v"], [Edge("v", "v", mult)])


def theta_graph():
    return WeightedMultigraph(["a", "b"], [Edge("a", "b") for _ in range(3)])


# ---------------------------------------------------------------------------
# nets
# ---------------------------------------------------------------------------

def _net_length(mults, edge_segments):
    """Multiplicity-weighted length from each edge's midpoint-rule segment
    lengths: an edge's segments summed by ``np.sum`` over the last axis, the
    weighted edges added in order from 0.0.  Segment arrays ``(G, m-1)``
    give the lengths of G nets at once, as for a sweepout grid."""
    return sum((mult * np.sum(seg, axis=-1) for mult, seg in zip(mults, edge_segments)), 0.0)


class GammaNet:
    """Polyline realization of a multigraph on a surface.

    Parameters
    ----------
    graph : WeightedMultigraph
    vertex_points : dict vertex -> (chart, (2,) coords)
    edge_paths : list of (chart, (m, 2) array), one per edge, m >= 2,
        sample 0 at the edge's v0 and sample m-1 at v1 (possibly an
        unwrapped representative of the vertex point).
    """

    def __init__(self, graph, vertex_points, edge_paths):
        self.graph = graph
        self.vertex_points = {v: (c, np.asarray(x, dtype=float)) for v, (c, x) in vertex_points.items()}
        self.edge_paths = [(c, np.asarray(p, dtype=float).copy()) for c, p in edge_paths]
        if len(self.edge_paths) != len(graph.edges):
            raise ValueError("one polyline per edge required")
        for c, p in self.edge_paths:
            if p.ndim != 2 or p.shape[0] < 2 or p.shape[1] != 2:
                raise ValueError("edge polylines need at least two 2-d samples")

    def copy(self):
        return GammaNet(self.graph,
                        {v: (c, x.copy()) for v, (c, x) in self.vertex_points.items()},
                        [(c, p.copy()) for c, p in self.edge_paths])

    # -- per-edge geometry -------------------------------------------------

    def edge_lengths(self, metric: Surface):
        """Length of every edge polyline, in edge order, by the
        :func:`~geonets.surfaces.midpoint_rule` (one call per edge)."""
        return [float(np.sum(midpoint_rule(metric, chart, pts[:-1], pts[1:])[0]))
                for chart, pts in self.edge_paths]

    def length(self, metric: Surface):
        """Multiplicity-weighted total length."""
        return float(_net_length((e.mult for e in self.graph.edges),
                                 (midpoint_rule(metric, chart, pts[:-1], pts[1:])[0]
                                  for chart, pts in self.edge_paths)))

    def integrate(self, h, metric: Surface):
        """Weighted line integral of a field, trapezoid on samples.

        ``h`` is a ScalarField or a callable ``h(chart, pts)``; values of
        shape ``(K, m)`` on m samples, such as K fields, give K integrals.
        """
        return self._length_and_integral(h, metric)[1]

    def average_integral(self, h, metric: Surface):
        L, total = self._length_and_integral(h, metric)
        if L <= 0.0:
            raise DegenerateNetError("average integral undefined on a zero-length net")
        return total / L

    def _length_and_integral(self, h, metric):
        """:meth:`length` and :meth:`integrate` from one midpoint rule pass per edge."""
        value = h.value if hasattr(h, "value") else h
        segs, total = [], 0.0
        for e, (chart, pts) in zip(self.graph.edges, self.edge_paths):
            seg = midpoint_rule(metric, chart, pts[:-1], pts[1:])[0]
            hv = np.asarray(value(chart, _chart(metric, chart).wrap(pts)))
            segs.append(seg)
            total += e.mult * np.sum(0.5 * (hv[..., :-1] + hv[..., 1:]) * seg, axis=-1)
        length = float(_net_length((e.mult for e in self.graph.edges), segs))
        return length, total if np.ndim(total) else float(total)

    def segment_trace_integral(self, tensor, metric: Surface):
        """Weighted integral of trace_T along the net with the segment
        midpoint rule.

        This rule is exactly the metric-derivative of the discrete length
        (see the variation module), which makes the analytic first
        variation agree with finite differences to solver precision.
        """
        total = 0.0
        for e, (chart, pts) in zip(self.graph.edges, self.edge_paths):
            seg, delta, mids, gd = midpoint_rule(metric, chart, pts[:-1], pts[1:])
            num = np.einsum("si,sij,sj->s", delta, np.asarray(tensor(chart, mids)), delta)
            total += e.mult * float(np.sum(num / np.einsum("si,si->s", delta, gd) * seg))
        return total

    # -- reparametrization -------------------------------------------------

    def resample(self, metric: Surface, samples):
        """Arclength-uniform resampling of every edge polyline to ``samples`` points."""
        new_paths = []
        for chart, pts in self.edge_paths:
            seg = midpoint_rule(metric, chart, pts[:-1], pts[1:])[0]
            s = np.concatenate([[0.0], np.cumsum(seg)])
            if s[-1] == 0.0:
                raise DegenerateNetError("cannot resample a zero-length edge")
            target = np.linspace(0.0, s[-1], samples)
            new = np.stack([np.interp(target, s, pts[:, k]) for k in range(2)], axis=-1)
            new_paths.append((chart, new))
        return GammaNet(self.graph, self.vertex_points, new_paths)

    def reversed_edge(self, i):
        net = self.copy()
        chart, pts = net.edge_paths[i]
        e = net.graph.edges[i]
        edges = list(net.graph.edges)
        edges[i] = Edge(e.v1, e.v0, e.mult)
        net.graph = WeightedMultigraph(net.graph.vertices, edges)
        net.edge_paths[i] = (chart, pts[::-1].copy())
        return net

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return json.dumps({
            "vertices": self.graph.vertices,
            "edges": [[e.v0, e.v1, e.mult] for e in self.graph.edges],
            "vertex_points": {v: [c, list(map(float, x))] for v, (c, x) in self.vertex_points.items()},
            "edge_paths": [[c, p.tolist()] for c, p in self.edge_paths],
        })

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        graph = WeightedMultigraph(doc["vertices"], [Edge(*e) for e in doc["edges"]])
        vp = {v: (c, np.array(x)) for v, (c, x) in doc["vertex_points"].items()}
        ep = [(c, np.array(p)) for c, p in doc["edge_paths"]]
        return cls(graph, vp, ep)


# ---------------------------------------------------------------------------
# model net constructors
# ---------------------------------------------------------------------------

def _torus_point(offset):
    """``offset`` as a torus chart point, which must have shape (2,)."""
    point = np.asarray(offset, dtype=float)
    if point.shape != (2,):
        raise ValueError(f"offset must be a point (x, y), got {offset!r}")
    return point


def torus_geodesic(klass, offset=(0.0, 0.0), samples=128, mult=1):
    """Straight closed curve of homotopy class (a, b) on the flat torus."""
    a, b = klass
    t = np.linspace(0.0, 1.0, samples)
    base = _torus_point(offset)
    pts = base + np.outer(t, [float(a), float(b)])
    return GammaNet(loop_graph(mult), {"v": ("main", base)}, [("main", pts)])


def _latitude_points(colats, samples):
    """Charts ``(G,)`` and samples ``(G, samples, 2)`` of the latitude
    circles at the colatitudes ``colats``, each in the chart of the nearer
    pole."""
    colats = np.asarray(colats, dtype=float)
    north = colats <= np.pi / 2
    rho = np.tan(np.where(north, colats, np.pi - colats) / 2.0)
    t = np.linspace(0.0, 2 * np.pi, samples)
    return (np.where(north, "north", "south"),
            rho[:, None, None] * np.stack([np.cos(t), np.sin(t)], axis=-1))


def sphere_latitude(sphere, colat, samples=256):
    """Latitude circle at colatitude ``colat``, in the chart of the nearer pole."""
    (chart,), (pts,) = _latitude_points([colat], samples)
    chart = str(chart)
    return GammaNet(loop_graph(), {"v": (chart, pts[0].copy())}, [(chart, pts)])


def _coordinate_circles(levels, axis, period, samples):
    """Closed coordinate lines, ``(*levels.shape, samples, 2)``: coordinate
    ``axis`` held at each level, the other running over [0, period]."""
    pts = np.empty(levels.shape + (samples, 2))
    pts[..., axis] = levels[..., None]
    pts[..., 1 - axis] = np.linspace(0.0, period, samples)
    return pts


def dumbbell_circle(dumbbell, u, samples=256):
    """Parallel circle u = const on the dumbbell."""
    pts = _coordinate_circles(np.array(float(u)), 0, 2 * np.pi, samples)
    return GammaNet(loop_graph(), {"v": ("main", pts[0].copy())}, [("main", pts)])


def torus_theta_net(shifts, offset=(0.0, 0.0), samples=48):
    """Theta-type net on the torus: two vertices, ``a`` at ``offset`` and
    ``b`` at ``a + (1/4, 1/4)``, joined by three edges.

    Edge j runs straight from vertex ``a`` to the representative
    ``b + shifts[j]`` of vertex ``b``; distinct lattice shifts place the
    edges in distinct homotopy classes.
    """
    a = _torus_point(offset)
    b, t = a + 0.25, np.linspace(0.0, 1.0, samples)[:, None]
    paths = [("main", a + t * (b + np.asarray(s, dtype=float) - a)) for s in shifts]
    return GammaNet(theta_graph(), {"a": ("main", a), "b": ("main", b)}, paths)
