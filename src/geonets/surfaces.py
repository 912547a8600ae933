"""Chart-based surfaces, Riemannian metrics, conformal families and volume.

Three built-in model surfaces are provided:

- :class:`FlatTorus` -- single periodic chart, identity metric;
- :class:`Sphere` -- round sphere in two stereographic charts;
- :class:`Dumbbell` -- surface of revolution with two bells joined by a
  thin neck, driven by an analytic radius profile.

All metric evaluators are vectorized over trailing point axes and carry
analytic coordinate derivatives, so Christoffel symbols and geodesic
residuals are free of finite-difference noise.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Point or parameter lies outside the valid chart/box domain."""


# ---------------------------------------------------------------------------
# scalar fields on a surface
# ---------------------------------------------------------------------------

class ScalarField:
    """Scalar function on a surface, evaluated in chart coordinates.

    ``value(chart, x)`` accepts ``x`` of shape ``(..., 2)``.  The default
    gradient is a central difference of ``value``; analytic subclasses
    override :meth:`grad`.
    """

    def __init__(self, fn, grad_fn=None, name=""):
        self._fn = fn
        self._grad_fn = grad_fn
        self.name = name

    def value(self, chart, x):
        return np.asarray(self._fn(chart, np.asarray(x, dtype=float)))

    def grad(self, chart, x):
        if self._grad_fn is not None:
            return np.asarray(self._grad_fn(chart, np.asarray(x, dtype=float)))
        x = np.asarray(x, dtype=float)
        cols = []
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = 1e-6
            cols.append((self.value(chart, x + dx) - self.value(chart, x - dx)) / 2e-6)
        return np.stack(cols, axis=-1)


def constant_field(c):
    return ScalarField(lambda chart, x: np.full(np.shape(x)[:-1], float(c)),
                       grad_fn=lambda chart, x: np.zeros(np.shape(x)),
                       name=f"const({c})")


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

@dataclass
class Chart:
    """The coordinate box from ``lo`` to ``hi``; a periodic axis closes up."""

    name: str
    lo: np.ndarray
    hi: np.ndarray
    periodic: tuple = (False, False)

    def wrap(self, x):
        """``x`` with each periodic coordinate reduced into [lo, hi)."""
        x = np.array(x, dtype=float)
        for k, per in enumerate(self.periodic):
            if per:
                x[..., k] = self.lo[k] + np.mod(x[..., k] - self.lo[k], self.hi[k] - self.lo[k])
        return x


def _chart(surface, name):
    """The chart ``name`` of ``surface``, or DomainError naming both: no
    metric reads its chart argument, so this is the one chart check."""
    if name not in surface.charts:
        raise DomainError(f"chart {name!r} is not a chart of {surface.name}")
    return surface.charts[name]


def _chart_rows(charts):
    """``(chart, rows)`` for each distinct name of the list or 1-D array
    ``charts``: the indices of its entries, ``slice(None)`` for one chart."""
    charts = np.asarray(charts)
    names = list(dict.fromkeys(charts.tolist()))
    return [(c, np.flatnonzero(charts == c) if len(names) > 1 else slice(None)) for c in names]


def midpoint_rule(surface, chart, a, b, deriv=False):
    """The one discrete length rule: the chart segments from the rows of
    ``a`` to those of ``b``, each measured by the metric at its midpoint.
    Returns ``(lengths, b - a, midpoints, g (b - a))``, and with ``deriv``
    also ``q[s, k] = d_k g(b - a, b - a)`` at the midpoints.  DomainError
    unless ``chart`` is a chart of ``surface``."""
    _chart(surface, chart)
    delta, mids = b - a, 0.5 * (a + b)
    gd = np.einsum("sij,sj->si", surface.metric(chart, mids), delta)
    out = np.sqrt(np.einsum("si,si->s", delta, gd)), delta, mids, gd
    if deriv:
        out += (np.einsum("skij,si,sj->sk", surface.metric_deriv(chart, mids), delta, delta),)
    return out


class Surface:
    """Base class: a 2-surface given by charts with SPD tensor evaluators."""

    name = "surface"

    def __init__(self):
        self.charts: dict[str, Chart] = {}
        self._mesh_cache = {}

    # -- tensor field ------------------------------------------------------

    def metric(self, chart, x):
        """Metric tensor g_ij(x), shape ``(..., 2, 2)``."""
        raise NotImplementedError

    def metric_deriv(self, chart, x):
        """Coordinate derivatives ``d_k g_ij``, shape ``(..., 2, 2, 2)``
        indexed ``[..., k, i, j]``."""
        raise NotImplementedError

    def area_density(self, chart, x):
        """Riemannian area density sqrt(det g) at ``x``, shape ``(...)``;
        surfaces with a closed form override it."""
        return np.sqrt(_det2(self.metric(chart, x)))

    def christoffel(self, chart, x):
        """Christoffel symbols of the second kind, ``(..., 2, 2, 2)``
        indexed ``[..., k, i, j]`` for Gamma^k_ij."""
        g = self.metric(chart, x)
        dg = self.metric_deriv(chart, x)
        ginv = np.stack([g[..., 1, 1], -g[..., 0, 1], -g[..., 1, 0], g[..., 0, 0]],
                        axis=-1).reshape(g.shape) / _det2(g)[..., None, None]
        # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij);
        # dg carries [..., a, i, j] = d_a g_ij
        d_i_gjl = dg                                  # [..., i, j, l]
        d_j_gil = np.swapaxes(dg, -3, -2)             # [..., i, j, l] = d_j g_il
        d_l_gij = np.moveaxis(dg, -3, -1)             # [..., i, j, l] = d_l g_ij
        bracket = d_i_gjl + d_j_gil - d_l_gij
        return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, bracket)

    # -- quadrature --------------------------------------------------------

    def quadrature(self, n):
        """Midpoint quadrature covering the surface once.

        Returns a list of ``(chart, points, coord_weights)``; the weights
        carry the coordinate measure of the grid parametrization, so the
        Riemannian area element is ``w * area_density(chart, points)``
        (:meth:`area_density`).  Constant weights may come as a read-only
        broadcast of one number.
        """
        raise NotImplementedError

    # -- distances ---------------------------------------------------------

    def distance(self, chart_p, p, chart_q, q):
        """Geodesic distance between two points."""
        return float(self.distances(chart_p, np.reshape(p, (1, 2)),
                                    chart_q, np.reshape(q, (1, 2)))[0, 0])

    #: :meth:`distances` is a closed form, so ``limit`` saves no work
    closed_form_distances = False

    def distances(self, chart_p, P, chart_q, Q, limit=np.inf):
        """Geodesic distances between the rows of ``P`` and of ``Q``,
        shape ``(len(P), len(Q))``.

        Mesh fallback on the 97 x 97 grid of :meth:`_mesh`, whose nodes
        and edges every surface on one chart box shares and whose edge
        weights are this surface's: every point snaps to its nearest node,
        rounded per axis and wrapped on periodic axes (so theta = 2 pi
        snaps to theta = 0); one Dijkstra runs per distinct node of ``P``,
        and a pair snapped to one node is measured along the short chart
        segment between its points.  Dijkstra stops at ``limit``: a pair
        of nodes farther apart reads ``inf``, every other distance is the
        same as without a limit.  Only the mesh takes ``limit``.  Foreign
        charts raise DomainError, as in every :meth:`distances`."""
        from scipy.sparse.csgraph import dijkstra

        n = 97
        box, h, graph = self._mesh(n)
        _chart(self, chart_p), _chart(self, chart_q)      # the box is the one chart
        modes = ["wrap" if per else "clip" for per in box.periodic]
        ip, iq = (np.ravel_multi_index(np.rint((X - box.lo) / h).astype(int).T, (n, n),
                                       mode=modes) for X in (P, Q))
        sources, row = np.unique(ip, return_inverse=True)
        out = dijkstra(graph, directed=False, indices=sources, limit=limit)[row[:, None], iq]
        a, b = np.nonzero(ip[:, None] == iq)
        if a.size:
            d, span = Q[b] - P[a], box.hi - box.lo
            d = np.where(box.periodic, d - span * np.round(d / span), d)
            out[a, b] = midpoint_rule(self, box.name, P[a], P[a] + d)[0]
        return out

    def geodesic_midpoint(self, chart, p, q):
        """Midpoint of the short geodesic from p to q in one chart.

        Second-order accurate Christoffel-corrected chart midpoint; exact
        on flat charts, overridden analytically on the sphere.
        """
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        mid = 0.5 * (p + q)
        delta = q - p
        gam = self.christoffel(chart, mid)
        corr = np.einsum("...kij,...i,...j->...k", gam, delta, delta)
        return mid - 0.125 * corr

    def _mesh(self, n):
        """The cached ``(box, h, graph)`` of the n x n distance grid on the
        box of the only chart: the nodes and edges of :func:`_mesh_grid`,
        shared by every surface on that box, each edge weighted by this
        surface's metric length of its short step.  One
        :func:`midpoint_rule` call measures every step at its midpoint,
        even where that lies past ``hi`` on a periodic axis, and its
        lengths are the CSR data as they come."""
        if n not in self._mesh_cache:
            if len(self.charts) != 1:
                raise DomainError(f"no geodesic distance on {self.name}: "
                                  "no closed form and more than one chart")
            from scipy.sparse import csr_matrix

            (box,) = self.charts.values()
            h, a, b, indices, indptr = _mesh_grid(n, tuple(box.lo.tolist()), tuple(box.hi.tolist()),
                                                  tuple(box.periodic))
            w = midpoint_rule(self, box.name, a, b)[0]
            self._mesh_cache[n] = box, h, csr_matrix((w, indices, indptr), shape=(n * n, n * n))
        return self._mesh_cache[n]


@functools.lru_cache(maxsize=4)
def _mesh_grid(n, lo, hi, periodic):
    """The metric-free part of the n x n distance grid on the chart box from
    ``lo`` to ``hi`` (tuples), built once per box: ``(h, a, b, indices,
    indptr)``, all read-only.  Node ``(i, j)`` sits at ``lo + (i, j) * h``
    with flat index ``i * n + j``.

    A periodic axis has n nodes without its endpoint and wraps mod n; a
    closed one has n nodes from lo to hi, so an odd n puts a node row on
    its midline.  Every node links to its king and knight neighbours.
    Edge e runs from node ``a[e]`` along its short step to ``b[e]``, which
    lies past ``hi`` on a periodic axis where the edge wraps; the edges are
    in CSR order (by source node, then target node), so ``indices`` and
    ``indptr`` take the edge weights as they are.
    """
    lo, hi = np.array(lo), np.array(hi)
    h = (hi - lo) / np.where(periodic, n, n - 1)
    steps = np.array([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1)])
    ij = np.indices((n, n)).reshape(2, -1).T
    to = ij[:, None] + steps
    src, k = np.nonzero(np.all(np.asarray(periodic) | ((to >= 0) & (to < n)), axis=-1))
    dst = np.ravel_multi_index(to[src, k].T, (n, n), mode="wrap")
    order = np.argsort(src * n * n + dst, kind="stable")      # nearly sorted already
    src, k, dst = src[order], k[order], dst[order]
    a = lo + ij[src] * h
    indptr = np.zeros(n * n + 1, dtype=np.int32)
    np.cumsum(np.bincount(src, minlength=n * n), out=indptr[1:])
    grid = h, a, a + steps[k] * h, dst.astype(np.int32), indptr
    for arr in grid:
        arr.setflags(write=False)
    return grid


# ---------------------------------------------------------------------------
# flat torus
# ---------------------------------------------------------------------------

class FlatTorus(Surface):
    """Unit square flat torus; one periodic chart, identity tensor.

    Chart coordinates may be given unwrapped (outside [0,1)^2): the
    metric is translation invariant and the chart's :meth:`Chart.wrap`
    reduces modulo the lattice.
    """

    name = "torus"

    def __init__(self):
        super().__init__()
        self.charts = {"main": Chart("main", np.zeros(2), np.ones(2), (True, True))}
        self.injectivity_lower_bound = 0.5

    def metric(self, chart, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        return out

    def metric_deriv(self, chart, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 2, 2))

    def area_density(self, chart, x):
        return np.ones(np.shape(x)[:-1])

    def geodesic_midpoint(self, chart, p, q):
        return 0.5 * (np.asarray(p, dtype=float) + np.asarray(q, dtype=float))

    def quadrature(self, n):
        t = (np.arange(n) + 0.5) / n
        pts = np.empty((n, n, 2))                   # filled in place: no meshgrid copies
        pts[..., 0], pts[..., 1] = t[:, None], t
        return [("main", pts.reshape(-1, 2), np.broadcast_to(1.0 / (n * n), (n * n,)))]

    closed_form_distances = True

    def distances(self, chart_p, P, chart_q, Q):
        """Flat distances by the per-axis minimum image: each coordinate
        difference d becomes d - rint(d), in [-1/2, 1/2], so every pair has
        one candidate and unwrapped points need no :meth:`Chart.wrap`."""
        _chart(self, chart_p), _chart(self, chart_q)
        P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
        d = [Q[None, :, k] - P[:, None, k] for k in range(2)]
        for dk in d:
            dk -= np.rint(dk)
        return np.hypot(*d)


# ---------------------------------------------------------------------------
# round sphere
# ---------------------------------------------------------------------------

class Sphere(Surface):
    """Round sphere of radius R in two stereographic charts.

    Chart ``north`` projects from the south pole (origin = north pole),
    chart ``south`` from the north pole; the change of chart is the inversion
    ``x -> (x1, -x2)/|x|^2``.  In either chart
    ``g = 4 R^2 / (1 + |x|^2)^2 * I``.
    """

    name = "sphere"

    def __init__(self, radius=1.0):
        super().__init__()
        self.radius = surface_parameter("radius", radius)
        lo, hi = np.full(2, -3.0), np.full(2, 3.0)
        self.charts = {"north": Chart("north", lo, hi), "south": Chart("south", lo, hi)}
        self.injectivity_lower_bound = np.pi * self.radius

    def _factor(self, x):
        r2 = np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
        return 4.0 * self.radius**2 / (1.0 + r2) ** 2

    def metric(self, chart, x):
        x = np.asarray(x, dtype=float)
        lam = self._factor(x)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = lam
        out[..., 1, 1] = lam
        return out

    def area_density(self, chart, x):
        """The conformal factor itself: sqrt(lam^2) is lam in binary64."""
        return self._factor(x)

    def metric_deriv(self, chart, x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        # d_k lam = -16 R^2 x_k / (1+r2)^3
        dlam = -16.0 * self.radius**2 * x / (1.0 + r2[..., None]) ** 3
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = dlam[..., 0]
        out[..., 0, 1, 1] = dlam[..., 0]
        out[..., 1, 0, 0] = dlam[..., 1]
        out[..., 1, 1, 1] = dlam[..., 1]
        return out

    # embedding helpers ----------------------------------------------------

    def embed(self, chart, x):
        """Map chart points to the sphere of radius R in R^3."""
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        denom = 1.0 + r2
        u = np.empty(x.shape[:-1] + (3,))
        u[..., 0] = 2 * x[..., 0] / denom
        u[..., 1] = 2 * x[..., 1] / denom
        u[..., 2] = (1.0 - r2) / denom
        if chart == "south":
            u[..., 1] = -u[..., 1]
            u[..., 2] = -u[..., 2]
        return self.radius * u

    def unembed(self, chart, u):
        u = np.asarray(u, dtype=float) / self.radius
        if chart == "south":
            u = u * np.array([1.0, -1.0, -1.0])
        denom = 1.0 + u[..., 2]
        return np.stack([u[..., 0] / denom, u[..., 1] / denom], axis=-1)

    closed_form_distances = True

    def distances(self, chart_p, P, chart_q, Q):
        """Great-circle distances between the embedded points."""
        _chart(self, chart_p), _chart(self, chart_q)
        up = self.embed(chart_p, P) / self.radius
        uq = self.embed(chart_q, Q) / self.radius
        return self.radius * np.arccos(np.clip(up @ uq.T, -1.0, 1.0))

    def geodesic_midpoint(self, chart, p, q):
        up = self.embed(chart, p)
        uq = self.embed(chart, q)
        m = up + uq
        nrm = np.linalg.norm(m, axis=-1, keepdims=True)
        m = self.radius * m / nrm
        return self.unembed(chart, m)

    def quadrature(self, n):
        """Polar midpoint grids on the unit disk of each chart.

        The two closed unit disks cover each hemisphere once and overlap
        only along the equator (measure zero), which plays the role of a
        partition of unity without double counting.
        """
        out = []
        nr, nphi = n, 2 * n
        rho = (np.arange(nr) + 0.5) / nr
        phi = 2 * np.pi * (np.arange(nphi) + 0.5) / nphi
        rr, pp = np.meshgrid(rho, phi, indexing="ij")
        pts = np.stack([(rr * np.cos(pp)).ravel(), (rr * np.sin(pp)).ravel()], axis=-1)
        w = (rr.ravel() / nr) * (2 * np.pi / nphi)
        for chart in ("north", "south"):
            out.append((chart, pts, w))
        return out


# ---------------------------------------------------------------------------
# dumbbell surface of revolution
# ---------------------------------------------------------------------------

class Dumbbell(Surface):
    """Two bells joined by a thin neck, as a surface of revolution.

    Radius profile on u in [0, 1]:

        r(u) = neck * sin(pi u)^2 + bell * sin(2 pi u)^2

    which pinches to points at u = 0, 1 (the poles), peaks near
    u = 1/4, 3/4 (the bell equators) and thins to ``neck`` at u = 1/2.
    Chart coordinates are (u, theta) with theta 2*pi-periodic and the
    embedding (r cos t, r sin t, u), giving the diagonal metric
    diag(1 + r'^2, r^2).
    """

    name = "dumbbell"
    #: the quadrature and the profile sweepout keep this far from the poles
    u_margin = 0.02

    def __init__(self, neck=0.2, bell=1.0):
        super().__init__()
        self.neck = surface_parameter("neck", neck)
        self.bell = surface_parameter("bell", bell)
        self.charts = {"main": Chart("main", np.zeros(2), np.array([1.0, 2 * np.pi]),
                                     (False, True))}
        self.injectivity_lower_bound = self.neck
        #: circumference of the longest parallel circle on one bell
        self.great_circle_length = 2 * np.pi * float(np.max(self.profile(np.linspace(0.0, 0.5, 4001))))

    def profile(self, u):
        u = np.asarray(u, dtype=float)
        return self.neck * np.sin(np.pi * u) ** 2 + self.bell * np.sin(2 * np.pi * u) ** 2

    def profile_deriv(self, u):
        u = np.asarray(u, dtype=float)
        return (self.neck * np.pi * np.sin(2 * np.pi * u)
                + 2 * np.pi * self.bell * np.sin(4 * np.pi * u))

    def profile_deriv2(self, u):
        u = np.asarray(u, dtype=float)
        return (2 * np.pi**2 * self.neck * np.cos(2 * np.pi * u)
                + 8 * np.pi**2 * self.bell * np.cos(4 * np.pi * u))

    def metric(self, chart, x):
        x = np.asarray(x, dtype=float)
        u = x[..., 0]
        r = self.profile(u)
        rp = self.profile_deriv(u)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + rp * rp
        out[..., 1, 1] = r * r
        return out

    def metric_deriv(self, chart, x):
        x = np.asarray(x, dtype=float)
        u = x[..., 0]
        r = self.profile(u)
        rp = self.profile_deriv(u)
        rpp = self.profile_deriv2(u)
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = 2.0 * rp * rpp
        out[..., 0, 1, 1] = 2.0 * r * rp
        return out

    def quadrature(self, n):
        m = self.u_margin
        nu, nth = n, n
        u = m + (1.0 - 2 * m) * (np.arange(nu) + 0.5) / nu
        th = 2 * np.pi * (np.arange(nth) + 0.5) / nth
        uu, tt = np.meshgrid(u, th, indexing="ij")
        pts = np.stack([uu.ravel(), tt.ravel()], axis=-1)
        w = np.full(len(pts), (1.0 - 2 * m) / nu * 2 * np.pi / nth)
        return [("main", pts, w)]


# ---------------------------------------------------------------------------
# conformal families
# ---------------------------------------------------------------------------

class DerivedSurface(Surface):
    """A tensor of its own on the charts of ``base`` (so their boxes and
    wrapping), with the base's injectivity bound and quadrature."""

    def __init__(self, base: Surface, name):
        super().__init__()
        self.base = base
        self.charts = base.charts
        self.injectivity_lower_bound = base.injectivity_lower_bound
        self.name = name

    def quadrature(self, n):
        return self.base.quadrature(n)


class _ScaledSurface(DerivedSurface):
    """Base surface with the tensor multiplied by a positive factor field.

    The factor is ``e^{2 phi}`` for :class:`ConformalFamily` and
    ``s(u, t)^2`` for :class:`DumbbellWidthFamily`; subclass-supplied
    callables give the log-factor and its gradient.
    """

    def __init__(self, base: Surface, log_factor, log_factor_grad, name):
        super().__init__(base, name)
        self._phi = log_factor
        self._dphi = log_factor_grad

    def metric(self, chart, x):
        g = self.base.metric(chart, x)
        fac = np.exp(2.0 * self._phi(chart, x))
        return fac[..., None, None] * g

    def area_density(self, chart, x):
        """sqrt det(e^{2 phi} g) = e^{2 phi} sqrt det g on a 2-surface."""
        return np.exp(2.0 * self._phi(chart, x)) * self.base.area_density(chart, x)

    def metric_deriv(self, chart, x):
        g = self.base.metric(chart, x)
        dg = self.base.metric_deriv(chart, x)
        phi = self._phi(chart, x)
        dphi = self._dphi(chart, x)
        fac = np.exp(2.0 * phi)
        term = 2.0 * dphi[..., :, None, None] * g[..., None, :, :]
        return fac[..., None, None, None] * (dg + term)


def _root_surface(surface: Surface) -> Surface:
    """The model surface under any chain of derived surfaces."""
    while isinstance(surface, DerivedSurface):
        surface = surface.base
    return surface


class ConformalFamily:
    """K-parameter conformal family ``ghat(t) = e^{2 sum_k t_k psi_k} g``."""

    def __init__(self, base: Surface, weights: list[ScalarField]):
        self.base = base
        self.weights = list(weights)

    @property
    def K(self):
        return len(self.weights)

    def _check(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.shape != (self.K,):
            raise DomainError(f"parameter must have {self.K} components")
        if not np.all(np.abs(t) < 1.0):
            raise DomainError("parameter outside the (-1, 1)^K box")
        return t

    def at(self, t) -> Surface:
        t = self._check(t)

        def phi(chart, x):
            acc = 0.0
            for tk, psi in zip(t, self.weights):
                if tk != 0.0:
                    acc = acc + tk * psi.value(chart, x)
            return acc if np.ndim(acc) else np.full(np.shape(x)[:-1], float(acc))

        def dphi(chart, x):
            acc = np.zeros(np.shape(np.asarray(x, dtype=float)))
            for tk, psi in zip(t, self.weights):
                if tk != 0.0:
                    acc = acc + tk * psi.grad(chart, x)
            return acc

        return _ScaledSurface(self.base, phi, dphi, name=f"{self.base.name}@t={t.tolist()}")

    def deriv_tensor(self, t, k):
        """The symmetric 2-tensor d ghat / d t_k = 2 psi_k ghat(t), 0 <= k < K."""
        if not 0 <= k < self.K:
            raise ValueError(f"family coordinate k = {k!r} is not in [0, {self.K})")
        surf = self.at(t)
        psi = self.weights[k]

        def tensor(chart, x):
            return 2.0 * psi.value(chart, x)[..., None, None] * surf.metric(chart, x)

        return tensor


def _smoothstep(s):
    """Quintic plateau ramp: 0 -> 1 on [0, 1] with two vanishing derivatives."""
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)


def _smoothstep_deriv(s):
    inside = (s > 0.0) & (s < 1.0)
    sc = np.clip(s, 0.0, 1.0)
    return np.where(inside, 30.0 * sc * sc * (1.0 - sc) ** 2, 0.0)


class DumbbellWidthFamily:
    """Dumbbell family scaled by (1+t) on one bell and (1-t) on the other.

    The scale factor s(u, t) = 1 + t * beta(u) with beta a smooth odd
    ramp from +1 (bell one) to -1 (bell two) across the neck band, so
    parallel-circle lengths on the bells scale exactly by 1 +/- t and
    the one-width picks up the kink  c * (1 + |t|)  at t = 0.
    """

    #: half-width of the neck band the ramp crosses
    band = 0.1

    def __init__(self, base: Dumbbell):
        self.base = base

    def ramp(self, u):
        """beta(u): +1 for u < 1/2 - band, -1 for u > 1/2 + band."""
        s = (np.asarray(u, dtype=float) - (0.5 - self.band)) / (2 * self.band)
        return 1.0 - 2.0 * _smoothstep(s)

    def ramp_deriv(self, u):
        s = (np.asarray(u, dtype=float) - (0.5 - self.band)) / (2 * self.band)
        return -_smoothstep_deriv(s) / self.band

    def at(self, t) -> Surface:
        t = float(np.squeeze(t))
        if not -1.0 < t < 1.0:
            raise DomainError("dumbbell family parameter must lie in (-1, 1)")

        def phi(chart, x):
            u = np.asarray(x, dtype=float)[..., 0]
            return np.log(1.0 + t * self.ramp(u))

        def dphi(chart, x):
            x = np.asarray(x, dtype=float)
            u = x[..., 0]
            out = np.zeros(x.shape)
            out[..., 0] = t * self.ramp_deriv(u) / (1.0 + t * self.ramp(u))
            return out

        return _ScaledSurface(self.base, phi, dphi, name=f"dumbbell@t={t}")

    def deriv_tensor(self, t, k):
        """d ghat/dt = 2 (beta / s) ghat(t), a conformal-type direction; the
        family has one coordinate, so ``k`` must be 0."""
        if k != 0:
            raise ValueError(f"family coordinate k = {k!r} is not 0, the one coordinate")
        t = float(np.squeeze(t))
        surf = self.at(t)

        def tensor(chart, x):
            u = np.asarray(x, dtype=float)[..., 0]
            w = self.ramp(u) / (1.0 + t * self.ramp(u))
            return 2.0 * w[..., None, None] * surf.metric(chart, x)

        return tensor


# ---------------------------------------------------------------------------
# volume and field integrals
# ---------------------------------------------------------------------------

def _det2(g):
    """Determinants of a stack of 2x2 matrices ``(..., 2, 2)``, in closed form."""
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


#: quadrature points per block of an area or bump integral: the metric,
#: density and field arrays of one block stay in cache
_QUAD_BLOCK = 8192


def _area_integrals(surface: Surface, n, fld: ScalarField | None):
    """``[area, integral of fld]`` on the n-grid, one
    :meth:`Surface.area_density` evaluation per block of
    :data:`_QUAD_BLOCK` points, the block sums added by ``math.fsum``; the
    integral reads 0 without a field."""
    parts = []
    for chart, pts, w in surface.quadrature(n):
        for start in range(0, len(pts), _QUAD_BLOCK):
            x, wb = pts[start:start + _QUAD_BLOCK], w[start:start + _QUAD_BLOCK]
            dens = surface.area_density(chart, x)
            parts.append((np.sum(wb * dens),
                          0.0 if fld is None else np.sum(wb * (dens * fld.value(chart, x)))))
    return np.array([math.fsum(col) for col in zip(*parts)])


def _richardson(coarse, fine):
    """Richardson extrapolation of an h^2-accurate estimate from its values
    at steps h (``coarse``) and h/2 (``fine``): the h^2 term cancels."""
    return (4.0 * fine - coarse) / 3.0


def _positive_int(name, value):
    """Raise ``ValueError`` naming the parameter unless ``value`` is a
    positive int (a bool is not): the one check of a quadrature resolution
    and of a sweepout's p."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive int, got {value!r}")


def _extrapolated_integrals(surface: Surface, n, fld):
    """:func:`_area_integrals` on the n- and 2n-grids, Richardson-extrapolated."""
    _positive_int("n", n)
    return _richardson(_area_integrals(surface, n, fld), _area_integrals(surface, 2 * n, fld))


def volume(surface: Surface, n=256):
    """Total Riemannian area by composite midpoint quadrature on the n-grid,
    its h^2 error term cancelled by a second evaluation at twice the
    resolution; deterministic for a fixed ``n``.
    """
    return float(_extrapolated_integrals(surface, n, None)[0])


def surface_integral(surface: Surface, fld: ScalarField, n=256):
    """Integral of a scalar field over the surface (same rule as volume)."""
    return float(_extrapolated_integrals(surface, n, fld)[1])


def surface_average(surface: Surface, fld: ScalarField, n=256):
    area, integral = _extrapolated_integrals(surface, n, fld)
    return float(integral / area)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def surface_parameter(key, value):
    """``value`` as a finite positive float: the one check of every numeric
    surface parameter, in the surface constructors."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise DomainError(f"surface {key} must be finite and positive, got {value!r}")
    return value


#: each surface kind of :func:`load_surface` and the keys besides ``kind`` it reads
_SURFACE_KINDS = {"torus": (FlatTorus, ()), "sphere": (Sphere, ("radius",)),
                  "dumbbell": (Dumbbell, ("neck", "bell"))}


def load_surface(config) -> Surface:
    """The surface a mapping such as a config's [surface] section names:
    ``kind`` (torus, sphere or dumbbell; torus by default) and only the keys
    that kind reads (:data:`_SURFACE_KINDS`); any other key is a DomainError."""
    kind = str(config.get("kind", "torus")).lower()
    if kind not in _SURFACE_KINDS:
        raise DomainError(f"unknown surface kind {kind!r}")
    cls, keys = _SURFACE_KINDS[kind]
    unread = [k for k in config if k != "kind" and k not in keys]
    if unread:
        raise DomainError(f"unknown key {unread[0]!r} for surface kind {kind!r}")
    return cls(**{k: config[k] for k in keys if k in config})
