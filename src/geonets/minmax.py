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

from .nets import (Edge, GammaNet, WeightedMultigraph, _coordinate_circles, _latitude_points,
                   _net_length)
from .solver import solve_stationary
from .surfaces import (Dumbbell, DumbbellWidthFamily, FlatTorus, Sphere, Surface,
                       _chart_rows, _positive_int, _root_surface, midpoint_rule, volume)


@dataclass
class Sweepout:
    """A sweepout family over ``grid``, its slices unions of closed loops.

    ``slices(cs)`` gives, for an array of G parameters, the chart of each
    slice, shape ``(G,)``, and the samples of its k loops, ``(G, k, m, 2)``.
    :meth:`lengths` measures a whole grid in one :func:`midpoint_rule` call
    per chart, so one metric call per grid on a one-chart surface.
    """

    p: int
    grid: np.ndarray
    slices: object

    def cycle_fn(self, c):
        """The slice at parameter ``c`` as a net: loop j from vertex ``v{j}``."""
        (chart,), (loops,) = self.slices(np.array([c], dtype=float))
        chart = str(chart)
        verts = [f"v{j}" for j in range(len(loops))]
        graph = WeightedMultigraph(verts, [Edge(v, v) for v in verts])
        return GammaNet(graph, {v: (chart, pts[0].copy()) for v, pts in zip(verts, loops)},
                        [(chart, pts) for pts in loops])

    def lengths(self, cs, metric: Surface):
        """Length of the slice at every parameter of ``cs``, by the length
        rule of :meth:`GammaNet.length`, so each length equals
        ``cycle_fn(c).length(metric)`` bit for bit."""
        charts, loops = self.slices(np.asarray(cs, dtype=float))
        k, m = loops.shape[1:3]
        out = np.empty(len(charts))
        for chart, sel in _chart_rows(charts):
            pts = loops[sel]
            seg = midpoint_rule(metric, chart, pts[:, :, :-1].reshape(-1, 2),
                                pts[:, :, 1:].reshape(-1, 2))[0]
            out[sel] = _net_length([1] * k, np.moveaxis(seg.reshape(-1, k, m - 1), 1, 0))
        return out


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

def build_sweepout(surface: Surface, p, recipe) -> Sweepout:
    """Level-set sweepout families on the three model surfaces.

    Recipes: ``x-levels`` / ``y-levels`` (torus; for p > 1 the slice is
    ceil(sqrt(p)) parallel 64-sample circles at offsets c + j/k),
    ``latitude`` (sphere, p = 1; the poles are zero-length latitudes, and
    each latitude lies in the chart of the nearer pole) and ``profile``
    (dumbbell parallel circles, p = 1).  ``p`` must be a positive int.
    The grid's slices are sample arrays that :meth:`Sweepout.lengths`
    measures in one call.
    """
    _positive_int("p", p)
    root = _root_surface(surface)
    if recipe in ("x-levels", "y-levels"):
        if not isinstance(root, FlatTorus):
            raise ValueError(f"recipe {recipe!r} needs a torus surface")
        k = math.ceil(math.sqrt(p))
        axis = 0 if recipe == "x-levels" else 1

        def levels(cs):
            return (np.full(len(cs), "main"),
                    _coordinate_circles(cs[:, None] + np.arange(k) / k, axis, 1.0, 64))

        return Sweepout(p, np.linspace(0.0, 1.0 / k, 33), levels)
    if recipe == "latitude":
        if not isinstance(root, Sphere) or p != 1:
            raise ValueError("recipe 'latitude' needs a sphere surface and p = 1")

        def latitudes(cs):
            charts, pts = _latitude_points(cs, 256)
            return charts, pts[:, None]

        return Sweepout(1, np.linspace(0.0, np.pi, 65), latitudes)
    if recipe == "profile":
        if not isinstance(root, Dumbbell) or p != 1:
            raise ValueError("recipe 'profile' needs a dumbbell surface and p = 1")
        grid = np.linspace(root.u_margin, 1.0 - root.u_margin, 201)
        return Sweepout(1, grid, lambda cs: (np.full(len(cs), "main"),
                                             _coordinate_circles(cs[:, None], 0, 2 * np.pi, 256)))
    raise ValueError(f"unsupported recipe/surface pair: {recipe!r} on {root.name}")


#: absolute tolerance in x, and cap on evaluations, of :func:`_bounded_minimize`
_XATOL = 1e-10
_MAXFUN = 500


def _bounded_minimize(f, a, b):
    """``(x, f(x))`` at a local minimum of ``f`` on [a, b] by Brent's bounded
    minimiser (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 5): parabolic steps through the three best points,
    golden-section steps where a parabola is not trusted.  A step-for-step
    port of scipy's ``minimize_scalar(method="bounded")`` with ``xatol``
    :data:`_XATOL` and ``maxiter`` :data:`_MAXFUN`."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return xf, fx


def minmax_upper_bound(sweepout: Sweepout, metric: Surface) -> WidthEstimate:
    """Maximize cycle length over the sweepout grid; an upper bound only.

    The grid is measured in one :meth:`Sweepout.lengths` call.  An
    interior grid maximum is refined by :func:`_bounded_minimize` of minus
    the slice length between its grid neighbours.  ``maximizer`` is the
    sweepout parameter of the longest slice.
    """
    lengths = sweepout.lengths(sweepout.grid, metric)
    i = int(np.argmax(lengths))
    best_c, best = float(sweepout.grid[i]), float(lengths[i])
    if 0 < i < len(sweepout.grid) - 1:
        x, fun = _bounded_minimize(lambda c: -float(sweepout.lengths([c], metric)[0]),
                                   float(sweepout.grid[i - 1]), float(sweepout.grid[i + 1]))
        if -fun > best:
            best_c, best = x, -fun
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
