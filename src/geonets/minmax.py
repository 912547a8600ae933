"""Sweepout upper bounds for small-p widths, and curve shortening.

True widths are never computed here: every width this module emits is
the maximum of a cycle length over an explicit sweepout family, labeled
``upper_bound``.  :func:`birkhoff_shorten` shortens a cycle to a nearby
closed geodesic, or reports that it collapsed or stalled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nets import Edge, GammaNet, WeightedMultigraph, dumbbell_circle, sphere_latitude
from .solver import solve_stationary
from .surfaces import (Dumbbell, DumbbellWidthFamily, FlatTorus, Sphere, Surface,
                       _root_surface, midpoint_rule, volume)


@dataclass
class Sweepout:
    p: int
    grid: np.ndarray
    cycle_fn: object            # parameter -> GammaNet


@dataclass
class WidthEstimate:
    p: int
    upper_bound: float
    maximizer: float


@dataclass
class ShortenResult:
    net: GammaNet
    length: float
    collapsed: bool
    sweeps: int
    stalled: bool = False       # Newton did not reach the gradient tolerance


# ---------------------------------------------------------------------------
# sweepout recipes
# ---------------------------------------------------------------------------

def _torus_circles(k, c, axis):
    """k parallel 64-sample coordinate circles at offsets c + j/k on the unit torus."""
    verts = [f"v{j}" for j in range(k)]
    graph = WeightedMultigraph(verts, [Edge(v, v, 1) for v in verts])
    t = np.linspace(0.0, 1.0, 64)
    vp = {}
    paths = []
    for j, v in enumerate(verts):
        level = c + j / k
        if axis == "x":
            pts = np.stack([np.full_like(t, level), t], axis=-1)
        else:
            pts = np.stack([t, np.full_like(t, level)], axis=-1)
        vp[v] = ("main", pts[0].copy())
        paths.append(("main", pts))
    return GammaNet(graph, vp, paths)


def build_sweepout(surface: Surface, p, recipe) -> Sweepout:
    """Level-set sweepout families on the three model surfaces.

    Recipes: ``x-levels`` / ``y-levels`` (torus; for p > 1 the slice is
    ceil(sqrt(p)) parallel circles), ``latitude`` (sphere, p = 1; the
    poles are zero-length latitudes) and ``profile`` (dumbbell parallel
    circles, p = 1).
    """
    root = _root_surface(surface)
    if recipe in ("x-levels", "y-levels"):
        if not isinstance(root, FlatTorus):
            raise ValueError(f"recipe {recipe!r} needs a torus surface")
        k = math.ceil(math.sqrt(p))
        axis = "x" if recipe == "x-levels" else "y"
        grid = np.linspace(0.0, 1.0 / k, 33)
        return Sweepout(p, grid, lambda c, k=k, axis=axis: _torus_circles(k, c, axis))
    if recipe == "latitude":
        if not isinstance(root, Sphere) or p != 1:
            raise ValueError("recipe 'latitude' needs a sphere surface and p = 1")
        return Sweepout(1, np.linspace(0.0, np.pi, 65), lambda colat: sphere_latitude(root, colat))
    if recipe == "profile":
        if not isinstance(root, Dumbbell) or p != 1:
            raise ValueError("recipe 'profile' needs a dumbbell surface and p = 1")
        grid = np.linspace(root.u_margin, 1.0 - root.u_margin, 201)
        return Sweepout(1, grid, lambda u: dumbbell_circle(root, u))
    raise ValueError(f"unsupported recipe/surface pair: {recipe!r} on {root.name}")


def minmax_upper_bound(sweepout: Sweepout, metric: Surface) -> WidthEstimate:
    """Maximize cycle length over the sweepout grid; an upper bound only.

    An interior grid maximum is refined by bounded scalar maximization of
    the slice length.  ``maximizer`` is the sweepout parameter of the
    longest slice.
    """

    def slice_length(c):
        return sweepout.cycle_fn(c).length(metric)

    lengths = np.array([slice_length(c) for c in sweepout.grid])
    i = int(np.argmax(lengths))
    best_c, best = float(sweepout.grid[i]), float(lengths[i])
    if 0 < i < len(sweepout.grid) - 1:
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(lambda c: -slice_length(c), method="bounded",
                              bounds=(sweepout.grid[i - 1], sweepout.grid[i + 1]),
                              options={"xatol": 1e-10})
        if -res.fun > best:
            best_c, best = float(res.x), float(-res.fun)
    return WidthEstimate(p=sweepout.p, upper_bound=best, maximizer=best_c)


# ---------------------------------------------------------------------------
# curve shortening
# ---------------------------------------------------------------------------

def _half_sweeps(m):
    """Index blocks, in update order, of one red-black sweep over m points."""
    if m % 2 == 0:
        return [np.arange(0, m, 2), np.arange(1, m, 2)]
    blocks = [np.arange(0, m - 1, 2), np.array([m - 1]), np.arange(1, m, 2)]
    return [b for b in blocks if b.size]


def _birkhoff_sweep(metric: Surface, chart, y, offset):
    """One red-black Gauss-Seidel sweep, in place, over the open loop ``y``
    closed by ``offset``: each point moves half way to the geodesic
    midpoint of its neighbours.  A parity class reads only the other
    class, except that on an odd loop the last point neighbours point 0
    and so moves after the rest of its class."""
    for idx in _half_sweeps(y.shape[0]):
        ext = np.vstack([y[-1] - offset, y, y[0] + offset])
        mid = metric.geodesic_midpoint(chart, ext[idx], ext[idx + 2])
        y[idx] = 0.5 * y[idx] + 0.5 * mid


#: Birkhoff sweeps go on while one lowers the total length by at least
#: this share of it; then Newton finishes
_HANDOFF_DROP = 1e-4


def birkhoff_shorten(cycle: GammaNet, metric: Surface) -> ShortenResult:
    """Shorten the loop edges of a cycle: Birkhoff sweeps to get close,
    trust-region Newton to finish.

    Every edge must be a loop; closure offsets (lattice shifts on
    periodic charts) are preserved.  Up to 4000 midpoint-geodesic sweeps
    (:func:`_birkhoff_sweep`) run while a sweep lowers the total length by
    at least :data:`_HANDOFF_DROP` of it, and flag a collapse as soon as
    any loop drops below 1e-3 x the injectivity bound.  The loops then go
    to :func:`~geonets.solver.solve_stationary` at its default tolerance
    with an edge floor of half the shortest loop.  Should Newton trip
    that floor (it slides off a saddle such as the sphere's equator), the Birkhoff loops are returned with
    ``stalled`` set; otherwise Newton's net is, and ``stalled`` says it
    did not converge.  ``sweeps`` counts the Birkhoff sweeps.
    """
    for e in cycle.graph.edges:
        if e.v0 != e.v1:
            raise ValueError("birkhoff_shorten expects a union of loop edges")

    loops = [(chart, pts[:-1].copy(), pts[-1] - pts[0]) for chart, pts in cycle.edge_paths]

    def loop_length(chart, y, offset):
        return float(np.sum(midpoint_rule(metric, chart, y, np.vstack([y[1:], y[0] + offset]))[0]))

    lengths = [loop_length(*lp) for lp in loops]
    prev, sweeps, collapsed = sum(lengths), 0, False
    for sweeps in range(1, 4001):
        for lp in loops:
            _birkhoff_sweep(metric, *lp)
        lengths = [loop_length(*lp) for lp in loops]
        cur = sum(lengths)
        if min(lengths) < 1e-3 * metric.injectivity_lower_bound:
            collapsed = True
        if collapsed or prev - cur < _HANDOFF_DROP * cur:
            break
        prev = cur

    net = cycle.copy()
    for j, (e, (chart, y, offset)) in enumerate(zip(net.graph.edges, loops)):
        net.edge_paths[j] = (chart, np.vstack([y, y[0] + offset]))
        net.vertex_points[e.v0] = (chart, y[0].copy())
    if collapsed:
        return ShortenResult(net=net, length=sum(lengths), collapsed=True, sweeps=sweeps)
    res = solve_stationary(net, metric, length_floor=0.5 * min(lengths))
    if res.status == "collapsed":
        return ShortenResult(net=net, length=sum(lengths), collapsed=False, sweeps=sweeps,
                             stalled=True)
    return ShortenResult(net=res.net, length=res.length, collapsed=False, sweeps=sweeps,
                         stalled=res.status != "converged")


# ---------------------------------------------------------------------------
# analytic dumbbell model
# ---------------------------------------------------------------------------

def dumbbell_width(t, scale):
    """Model one-width c(1 + |t|) of the bell-scaled dumbbell family."""
    if not -1.0 < t < 1.0:
        raise ValueError("dumbbell family parameter must lie in (-1, 1)")
    return scale * (1.0 + abs(t))


def dumbbell_realizer(t):
    """Which bell equator attains the model width: S1, S2, or both at 0."""
    if t > 0:
        return "S1"
    if t < 0:
        return "S2"
    return "both"


#: family parameters of the dumbbell width table, and the one-sided step at t = 0
KINK_T_GRID = np.arange(-0.3, 0.3001, 0.05)
KINK_STEP = 0.05


def dumbbell_kink(base: Dumbbell):
    """``(rows, slope_plus, slope_minus)`` of the bell-scaled family of
    ``base``: per t of :data:`KINK_T_GRID` the profile-sweepout width upper
    bound against the model c(1 + |t|), and the one-sided difference
    quotients of the width at t = 0 over :data:`KINK_STEP`."""
    family = DumbbellWidthFamily(base)

    def width(t):
        metric = family.at(t)
        sw = build_sweepout(metric, 1, "profile")
        return minmax_upper_bound(sw, metric).upper_bound

    rows = []
    for t in KINK_T_GRID:
        est = width(t)
        model = dumbbell_width(t, base.great_circle_length)
        rows.append({"t": float(t), "upper_bound": est, "model": model,
                     "rel_error": abs(est - model) / model,
                     "realizer": dumbbell_realizer(float(t))})
    w0 = width(0.0)
    return rows, (width(KINK_STEP) - w0) / KINK_STEP, (w0 - width(-KINK_STEP)) / KINK_STEP


# ---------------------------------------------------------------------------
# Weyl-ratio probes
# ---------------------------------------------------------------------------

@dataclass
class WeylTable:
    rows: list = field(default_factory=list)       # dicts: p, t, upper_bound, h_p

    def column(self, p, key):
        return [r[key] for r in self.rows if r["p"] == p]


def weyl_ratio_probe(family, p_list, t_grid) -> WeylTable:
    """h_p(t) = p^{-1/2} x (x-levels width upper bound) / Vol^{1/2} over a t-grid."""
    rows = [[] for _ in p_list]            # per p, so the table stays p-major
    for t in t_grid:
        metric = family.at(t)
        vol = volume(metric)
        for p, p_rows in zip(p_list, rows):
            est = minmax_upper_bound(build_sweepout(metric, p, "x-levels"), metric)
            p_rows.append({"p": p, "t": float(t), "upper_bound": est.upper_bound,
                           "h_p": est.upper_bound / (math.sqrt(p) * math.sqrt(vol))})
    return WeylTable([r for p_rows in rows for r in p_rows])
