"""Stationary nets: residuals, length minimization, spectra, certificates.

The solver minimizes total (multiplicity-weighted) length over vertex
positions and edge interior samples with an analytic gradient and
L-BFGS line search; stationarity is reported as a discrete geodesic
curvature per edge, a weighted inward-tangent balance per vertex and the
l2 norm of the full length gradient.  One sparse central-difference
Hessian of the discrete length serves the Newton polish, the branch
tracker and the second-variation spectrum.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import count
from typing import NamedTuple

import numpy as np

from .nets import DegenerateNetError, GammaNet
from .surfaces import DomainError, Surface


@dataclass
class StationarityReport:
    edge_residual: float
    vertex_residual: float
    total_first_variation_norm: float

    def max_residual(self):
        return max(self.edge_residual, self.vertex_residual)


@dataclass
class SolveResult:
    net: GammaNet
    report: StationarityReport
    converged: bool
    iterations: int
    length: float
    trace: list = field(default_factory=list)
    message: str = ""


@dataclass
class EmbeddednessCertificate:
    F1: float
    F2_values: dict
    dE_min: dict
    dEE_min: dict
    C3_norm: float
    M: int
    satisfied: dict

    def all_satisfied(self):
        return all(self.satisfied.values())


@dataclass
class ClosedGeodesicResult:
    ok: bool
    reason: str
    circles: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# dof packing
# ---------------------------------------------------------------------------

class _Dofs:
    """Flat parametrization: vertex positions plus edge interior samples.

    Point p (a vertex or interior sample, in dof order) owns dofs 2p and
    2p + 1.  Polyline sample k is point ``pidx[k]`` plus offset row
    ``off[k]``: zero inside an edge, a lattice shift on periodic charts at
    its ends, so moving a vertex moves every incident end consistently.
    Segment j runs from sample ``seg[j]`` to ``seg[j] + 1`` with weight
    ``mult[j]``; ``chart_segments`` selects the segments of each chart.
    """

    def __init__(self, net: GammaNet, surface: Surface):
        self.net = net
        self.vorder = list(net.vertex_points.keys())
        self.vindex = {v: i for i, v in enumerate(self.vorder)}
        self.nv = len(self.vorder)
        self.interior_counts = [pts.shape[0] - 2 for _, pts in net.edge_paths]
        self.size = 2 * self.nv + 2 * sum(self.interior_counts)
        pidx, ofs = [], self.nv
        for e, (chart, _), m in zip(net.graph.edges, net.edge_paths, self.interior_counts):
            if chart != net.vertex_points[e.v0][0] or chart != net.vertex_points[e.v1][0]:
                raise ValueError("edge endpoints must share the chart of their vertices")
            if chart not in surface.charts:
                raise DomainError(f"net chart {chart!r} is not a chart of {surface.name}")
            pidx += [self.vindex[e.v0], *range(ofs, ofs + m), self.vindex[e.v1]]
            ofs += m
        self.pidx = np.asarray(pidx)
        self.off = (np.concatenate([pts for _, pts in net.edge_paths])
                    - self.pack().reshape(-1, 2)[self.pidx])
        ends = np.cumsum([pts.shape[0] for _, pts in net.edge_paths])
        self.bounds, self.seg = ends[:-1], np.delete(np.arange(ends[-1]), ends - 1)
        runs = np.diff(ends, prepend=0) - 1
        self.mult = np.repeat([float(e.mult) for e in net.graph.edges], runs)
        charts = np.repeat([c for c, _ in net.edge_paths], runs)
        names = list(dict.fromkeys(charts))
        self.chart_segments = [(c, np.flatnonzero(charts == c) if len(names) > 1 else slice(None))
                               for c in names]
        # the dof of each (segment end, coordinate): every segment's end, then its start
        tips = np.concatenate([self.pidx[self.seg + 1], self.pidx[self.seg]])
        self.scatter = (2 * tips[:, None] + np.arange(2)).ravel()

    def pack(self):
        x = np.empty((self.size // 2, 2))
        x[self.pidx] = np.concatenate([pts for _, pts in self.net.edge_paths])
        x[:self.nv] = [self.net.vertex_points[v][1] for v in self.vorder]
        return x.ravel()

    def samples(self, x):
        """Every polyline sample of the net at ``x``, edge after edge."""
        return x.reshape(-1, 2)[self.pidx] + self.off

    def unpack(self, x):
        verts = {v: (self.net.vertex_points[v][0], x[2 * i:2 * i + 2].copy())
                 for i, v in enumerate(self.vorder)}
        paths = zip((c for c, _ in self.net.edge_paths), np.split(self.samples(x), self.bounds))
        return GammaNet(self.net.graph, verts, list(paths))

    @cached_property
    def hessian_groups(self):
        """Column groups of a distance-2 colouring of the sample chains.

        A point's gradient rows depend only on the point and its
        neighbours along the chain v0, samples, v1 of each edge.  Points
        at least 3 apart therefore touch disjoint rows and share one
        central difference.  Per group: the perturbed dofs and the
        (row, column) pairs that difference fills.
        """
        nbrs = [set() for _ in range(self.size // 2)]
        for a, b in zip(self.pidx[self.seg], self.pidx[self.seg + 1]):
            nbrs[a].add(b)
            nbrs[b].add(a)
        colour = []
        for p, near in enumerate(nbrs):
            taken = {colour[r] for q in near for r in (q, *nbrs[q]) if r < p}
            colour.append(next(c for c in count() if c not in taken))
        colour = np.asarray(colour)
        groups = []
        for c in range(int(colour.max()) + 1):
            points = np.flatnonzero(colour == c)
            for k in (0, 1):
                rows, cols = [], []
                for p in points:
                    for q in nbrs[p] | {p}:
                        rows += [2 * q, 2 * q + 1]
                        cols += [2 * p + k] * 2
                groups.append((2 * points + k, np.asarray(rows), np.asarray(cols)))
        return groups


def _length_and_dof_grad(dofs: _Dofs, metric: Surface, x):
    """Discrete length and its gradient at the dof vector ``x``: one
    ``metric`` and one ``metric_deriv`` call per chart on the segment
    midpoints, segment-end gradients summed onto points by ``bincount``."""
    pts = dofs.samples(x)
    a, b = pts[dofs.seg], pts[dofs.seg + 1]
    delta, mids = b - a, 0.5 * (a + b)
    g, dg = np.empty((len(delta), 2, 2)), np.empty((len(delta), 2, 2, 2))
    for chart, sel in dofs.chart_segments:
        g[sel] = metric.metric(chart, mids[sel])
        dg[sel] = metric.metric_deriv(chart, mids[sel])
    gd = np.einsum("sij,sj->si", g, delta)
    seg = np.sqrt(np.einsum("si,si->s", delta, gd))
    q = np.einsum("skij,si,sj->sk", dg, delta, delta)
    # coincident samples contribute zero length (delta = 0); dividing by 1
    # there gives their undefined direction a zero subgradient
    safe, m = np.where(seg > 0.0, seg, 1.0)[:, None], dofs.mult[:, None]
    push = np.concatenate([(gd + 0.25 * q) / safe * m, (-gd + 0.25 * q) / safe * m])
    return float(dofs.mult @ seg), np.bincount(dofs.scatter, push.ravel(), dofs.size)


#: central-difference step of the length Hessian; its O(h^2) truncation
#: stays far below the 1e-6 Jacobi-field threshold of is_nondegenerate
_FD_STEP = 1e-6
#: relative eigenvalue cutoff of the Newton pseudo-inverse
_PINV_RCOND = 1e-7


def _length_hessian(dofs: _Dofs, metric: Surface, x):
    """Symmetrised central-difference Hessian of the discrete length at ``x``.

    Columns of one colour group are perturbed together (two gradient
    evaluations per group, see :attr:`_Dofs.hessian_groups`); each entry
    equals the one-column central difference at the same step.
    """
    H = np.zeros((dofs.size, dofs.size))
    for cols, rows, at in dofs.hessian_groups:
        step = np.zeros(dofs.size)
        step[cols] = _FD_STEP
        diff = (_length_and_dof_grad(dofs, metric, x + step)[1]
                - _length_and_dof_grad(dofs, metric, x - step)[1]) / (2 * _FD_STEP)
        H[rows, at] = diff[rows]
    return 0.5 * (H + H.T)


def _pseudo_inverse(H):
    """Symmetric pseudo-inverse dropping |lambda| <= _PINV_RCOND * max|lambda|."""
    lam, V = np.linalg.eigh(H)
    keep = np.abs(lam) > _PINV_RCOND * np.max(np.abs(lam))
    return (V[:, keep] / lam[keep]) @ V[:, keep].T


def length_gradient_norm(net: GammaNet, metric: Surface):
    dofs = _Dofs(net, metric)
    return float(np.linalg.norm(_length_and_dof_grad(dofs, metric, dofs.pack())[1]))


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _inward_tangents(net: GammaNet, metric: Surface):
    """Per vertex: list of (edge index, endpoint, g-unit inward tangent,
    chart point of the incident polyline end)."""
    out = {v: [] for v in net.graph.vertices}
    for i, e in enumerate(net.graph.edges):
        chart, pts = net.edge_paths[i]
        for endpoint, vec, at in ((0, pts[1] - pts[0], pts[0]),
                                  (1, pts[-2] - pts[-1], pts[-1])):
            g = metric.metric(chart, at)
            nrm = float(np.sqrt(vec @ g @ vec))
            if nrm == 0.0:
                raise DegenerateNetError("zero tangent at a vertex")
            out[e.endpoint(endpoint)].append((i, endpoint, vec / nrm, (chart, at)))
    return out

def stationarity_residual(net: GammaNet, metric: Surface) -> StationarityReport:
    """Discrete geodesic curvature, vertex balance defect and gradient norm."""
    edge_res = 0.0
    for i, _ in enumerate(net.graph.edges):
        chart, pts = net.edge_paths[i]
        if pts.shape[0] < 3:
            continue
        m = pts.shape[0] - 1
        du = 1.0 / m
        x = pts[1:-1]
        acc = (pts[2:] - 2 * pts[1:-1] + pts[:-2]) / du**2
        vel = (pts[2:] - pts[:-2]) / (2 * du)
        gam = metric.christoffel(chart, x)
        a = acc + np.einsum("skij,si,sj->sk", gam, vel, vel)
        g = metric.metric(chart, x)
        vv = np.einsum("si,sij,sj->s", vel, g, vel)
        if np.any(vv == 0.0):
            raise DegenerateNetError("zero velocity along an edge")
        av = np.einsum("si,sij,sj->s", a, g, vel)
        a_normal = a - (av / vv)[:, None] * vel
        kappa = np.sqrt(np.einsum("si,sij,sj->s", a_normal, g, a_normal)) / vv
        edge_res = max(edge_res, float(np.max(kappa)) if len(kappa) else 0.0)

    vertex_res = 0.0
    for v, incid in _inward_tangents(net, metric).items():
        if not incid:
            continue
        chart, at = incid[0][3]
        g = metric.metric(chart, at)
        s = np.zeros(2)
        for i, _endpoint, unit, _ in incid:
            s = s + net.graph.edges[i].mult * unit
        vertex_res = max(vertex_res, float(np.sqrt(s @ g @ s)))

    return StationarityReport(edge_res, vertex_res, length_gradient_norm(net, metric))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

class _Run(NamedTuple):
    """End state of one optimizer phase."""
    x: np.ndarray
    f: float
    g: np.ndarray
    nit: int
    n_grad: int
    message: str = ""


#: L-BFGS memory, Armijo constant and trial steps per line search
_LBFGS_MEMORY, _ARMIJO, _MAX_BACKTRACKS = 10, 1e-4, 30


def _lbfgs(fg, x, maxiter, ftol, gtol):
    """Limited-memory BFGS (two-loop recursion) with a backtracking Armijo
    search whose steps shrink by safeguarded quadratic interpolation.

    ``fg(x)`` returns the value and the gradient.  Stops as L-BFGS-B does:
    max |g| <= gtol, or a relative reduction (f - f+) / max(|f|, |f+|, 1)
    <= ftol; otherwise when a line search fails or after ``maxiter``
    iterations.  Curvature pairs with s.y <= 0 are not stored.
    """
    f, g = fg(x)
    n_grad, pairs = 1, deque(maxlen=_LBFGS_MEMORY)
    for nit in range(maxiter):
        if np.max(np.abs(g)) <= gtol:
            return _Run(x, f, g, nit, n_grad, "gradient below gtol")
        d, alphas = -g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d = d - alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            d = d / (rho * (y @ y))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d = d + (alpha - rho * (y @ d)) * s
        slope = g @ d
        if slope >= 0.0:            # rounding lost descent: restart from -g
            pairs.clear()
            d, slope = -g, -(g @ g)
        # a fresh memory moves x by at most one unit on its first step
        step = 1.0 if pairs else min(1.0, 1.0 / np.linalg.norm(d))
        for _ in range(_MAX_BACKTRACKS):
            f_new, g_new = fg(x + step * d)
            n_grad += 1
            if f_new <= f + _ARMIJO * step * slope:
                break
            # minimiser of the quadratic through f, slope and f_new, safeguarded
            quad = -slope * step**2 / (2.0 * (f_new - f - slope * step))
            step = min(max(0.1 * step, quad), 0.5 * step)
        else:
            return _Run(x, f, g, nit, n_grad, "line search failed")
        s, y = step * d, g_new - g
        if s @ y > 0.0:
            pairs.append((s, y, 1.0 / (s @ y)))
        x, f_old, f, g = x + s, f, f_new, g_new
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            return _Run(x, f, g, nit + 1, n_grad, "reduction below ftol")
    return _Run(x, f, g, maxiter, n_grad, "iteration limit")


def _trace_entry(phase, run: _Run, t0):
    return {"phase": phase, "nit": run.nit, "n_grad": run.n_grad,
            "grad_norm": float(np.linalg.norm(run.g)), "length": float(run.f),
            "seconds": time.perf_counter() - t0}


def solve_stationary(init: GammaNet, metric: Surface, tol=1e-8, max_iter=2000,
                     length_floor=None, require_good=True) -> SolveResult:
    """Minimize total length from an initial net.

    Deterministic: L-BFGS with the analytic discrete-length gradient,
    then a Newton polish.  ``trace`` records one entry per phase.  When
    an edge collapses below the floor (default 1e-4 times the metric's
    injectivity lower bound) the result is flagged as not converged with
    a collapse message; a degenerate *initial* net raises
    DegenerateNetError, and a net on charts the metric lacks DomainError.
    """
    if require_good and not all(init.graph.is_good()):
        raise ValueError("initial graph is not good on every component")
    if length_floor is None:
        length_floor = 1e-4 * metric.injectivity_lower_bound
    _Dofs(init, metric)             # DomainError on a chart the metric lacks
    if init.min_edge_length(metric) <= length_floor:
        raise DegenerateNetError("initial net already below the edge length floor")

    net, trace, total_iters, message = init.copy(), [], 0, ""
    samples = [pts.shape[0] for _, pts in net.edge_paths]
    # Length is reparametrization-invariant, so pure descent lets samples
    # drift tangentially and bunch up; interleave short L-BFGS rounds
    # with arclength-uniform resampling to keep the polylines immersed.
    while total_iters < max_iter:
        dofs, t0 = _Dofs(net, metric), time.perf_counter()
        run = _lbfgs(partial(_length_and_dof_grad, dofs, metric), dofs.pack(),
                     min(200, max_iter - total_iters), 1e-16, 1e-14)
        trace.append(_trace_entry("lbfgs", run, t0))
        total_iters, message = total_iters + run.nit, run.message
        net = dofs.unpack(run.x)
        if net.min_edge_length(metric) <= length_floor:
            report = StationarityReport(*[float("inf")] * 3)
            return SolveResult(net=net, report=report, converged=False,
                               iterations=total_iters, length=net.length(metric),
                               trace=trace, message="an edge collapsed below the length floor")
        net = net.resample(metric, samples)
        if length_gradient_norm(net, metric) <= tol:
            break
        if run.nit <= 1 and len(trace) >= 2 and abs(trace[-2]["length"] - run.f) < 1e-15:
            break
    # final polish without resampling: from a near-stationary state the
    # tangential drift is negligible and L-BFGS can reach the tolerance
    if length_gradient_norm(net, metric) > tol:
        dofs, t0 = _Dofs(net, metric), time.perf_counter()
        run = _lbfgs(partial(_length_and_dof_grad, dofs, metric), dofs.pack(), 500, 1e-18, 1e-14)
        trace.append(_trace_entry("lbfgs-polish", run, t0))
        total_iters, message = total_iters + run.nit, run.message
        polished = dofs.unpack(run.x)
        if polished.min_edge_length(metric) > length_floor:
            net = polished
    # Newton polish on the gradient: line-search methods bottom out when
    # length changes fall below machine epsilon (gradient ~1e-7); a few
    # pseudo-inverse Newton steps on grad = 0 reach the 1e-8 regime.
    if length_gradient_norm(net, metric) > tol:
        dofs, t0 = _Dofs(net, metric), time.perf_counter()
        run = _newton_polish(dofs, metric, dofs.pack(), tol)
        trace.append(_trace_entry("newton", run, t0))
        net = dofs.unpack(run.x)
    report = stationarity_residual(net, metric)
    return SolveResult(net=net, report=report, converged=report.total_first_variation_norm <= tol,
                       iterations=total_iters, length=net.length(metric),
                       trace=trace, message=message)


def stationary_tracker(init: GammaNet, metric0: Surface):
    """Branch-tracking continuation for perturbed metrics.

    Returns ``track(metric)`` which chord-Newton-iterates the length
    gradient to zero starting from ``init``, reusing the pseudo-inverted
    Hessian computed once at ``metric0``.  The pseudo-inverse suppresses
    motion along the near-null (reparametrization / symmetry) valley, so
    the result follows the stationary branch through ``init`` instead of
    sliding to a distant minimizer of the degenerate family.
    """
    dofs = _Dofs(init, metric0)
    x0 = dofs.pack()
    P = _pseudo_inverse(_length_hessian(dofs, metric0, x0))

    def track(metric, max_steps=40, tol=1e-11):
        x = x0.copy()
        for _ in range(max_steps):
            step = -P @ _length_and_dof_grad(dofs, metric, x)[1]
            x = x + step
            if np.linalg.norm(step) <= tol:
                break
        return dofs.unpack(x)

    return track


def _newton_polish(dofs: _Dofs, metric: Surface, x, tol, max_steps=6) -> _Run:
    """Damped Newton iteration on the length gradient from ``x``.

    The Hessian (coloured central differences of the analytic gradient)
    is singular along reparametrization and symmetry directions; the
    pseudo-inverse step ignores those and corrects only the directions
    that carry gradient.
    """
    f, g = _length_and_dof_grad(dofs, metric, x)
    n_grad, nit = 1, 0
    while nit < max_steps and np.linalg.norm(g) > 0.1 * tol:
        step = -_pseudo_inverse(_length_hessian(dofs, metric, x)) @ g
        n_grad += 2 * len(dofs.hessian_groups)
        for scale in 0.5 ** np.arange(10):         # 1 down to 2^-9
            f_new, g_new = _length_and_dof_grad(dofs, metric, x + scale * step)
            n_grad += 1
            if np.linalg.norm(g_new) < np.linalg.norm(g):
                x, f, g = x + scale * step, f_new, g_new
                break
        else:
            break
        nit += 1
    return _Run(x, f, g, nit, n_grad)


# ---------------------------------------------------------------------------
# second variation
# ---------------------------------------------------------------------------

def second_variation_spectrum(net: GammaNet, metric: Surface, k=None,
                              residual_tol=1e-6):
    """Eigenvalues of the discretized length Hessian.

    Edge interior samples move along their chart-coordinate unit normals
    (one dof each), vertices move freely (two dofs); this normal-only
    parametrization carries no reparametrization null directions, so
    every numerical zero mode corresponds to a Jacobi field.  The matrix
    is N^T H N with H the full length Hessian and N that fixed linear
    dof map.  Flat chart-coordinate inner product throughout.
    """
    resid = length_gradient_norm(net, metric)
    if resid > residual_tol:
        raise ValueError(f"net is not stationary enough for a spectrum "
                         f"(gradient norm {resid:.3e} > {residual_tol:g})")

    dofs = _Dofs(net, metric)
    pts, inner = dofs.samples(dofs.pack()), np.flatnonzero(dofs.pidx >= dofs.nv)
    t = pts[inner + 1] - pts[inner - 1]         # interior samples in dof order
    normals = np.stack([-t[:, 1], t[:, 0]], axis=-1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)

    nv2, ns = 2 * dofs.nv, normals.shape[0]
    N = np.zeros((dofs.size, nv2 + ns))
    N[:nv2, :nv2] = np.eye(nv2)
    i = np.arange(ns)
    N[nv2 + 2 * i, nv2 + i] = normals[:, 0]
    N[nv2 + 2 * i + 1, nv2 + i] = normals[:, 1]
    eig = np.linalg.eigvalsh(N.T @ _length_hessian(dofs, metric, dofs.pack()) @ N)
    order = np.argsort(np.abs(eig))
    eig = eig[order]
    if k is not None:
        eig = eig[:k]
    return np.sort(eig)


def is_nondegenerate(net: GammaNet, metric: Surface, tol):
    """No Jacobi field beyond the reparametrization modes.

    One exact null direction per single-loop component (the tangential
    slide of its base vertex) is excluded before testing min |lambda|.
    """
    eig = second_variation_spectrum(net, metric)
    n_loops = 0
    for comp in net.graph.components():
        edges = [net.graph.edges[i] for i in comp]
        if len(edges) == 1 and edges[0].v0 == edges[0].v1:
            n_loops += 1
    order = np.argsort(np.abs(eig))
    remaining = eig[order][n_loops:]
    return bool(len(remaining) > 0 and np.min(np.abs(remaining)) > tol)


# ---------------------------------------------------------------------------
# embeddedness certificate
# ---------------------------------------------------------------------------

def _circle_dist(a, b):
    d = np.abs(a - b)
    return np.minimum(d, 1.0 - d)


def _least_distance(metric, chart_p, P, chart_q, Q, keep):
    """Least distance over the pairs (P[a], Q[b]) with keep[a, b]."""
    rows = keep.any(axis=1)
    if not rows.any():
        return np.inf
    return float(np.min(metric.distances(chart_p, P[rows], chart_q, Q)[keep[rows]]))


def embeddedness_certificate(net: GammaNet, metric: Surface, M_bound,
                             cert_samples=65) -> EmbeddednessCertificate:
    """Evaluate the separation functionals and the bound conditions.

    Distances are geodesic distances under the metric; the injectivity
    lower bound configured on the metric stands in for inj(g) in the
    separation windows.
    """
    M = int(M_bound)
    net = net.resample(metric, cert_samples)
    inj = metric.injectivity_lower_bound
    edges = net.graph.edges

    lengths = [net.edge_length(i, metric) for i in range(len(edges))]
    F1 = min(lengths)

    incid = _inward_tangents(net, metric)
    F2 = {}
    for v, lst in incid.items():
        for a in range(len(lst)):
            for b in range(a + 1, len(lst)):
                (e1, i1, u1, (chart, at)) = lst[a]
                (e2, i2, u2, _) = lst[b]
                g = metric.metric(chart, at)
                val = float(u1 @ g @ u2)  # inner product of inward unit tangents
                F2[((e1, i1), (e2, i2))] = val
                F2[((e2, i2), (e1, i1))] = val

    params = [np.linspace(0.0, 1.0, pts.shape[0]) for _, pts in net.edge_paths]

    dE_min = {}
    for i, e in enumerate(edges):
        chart, pts = net.edge_paths[i]
        t = params[i]
        sep = _circle_dist(t[:, None], t) if e.v0 == e.v1 else np.abs(t[:, None] - t)
        keep = np.triu(sep >= min(inj / lengths[i], 0.5) - 1e-12, 1)
        dE_min[i] = _least_distance(metric, chart, pts, chart, pts, keep)

    dEE_min = {}
    for i, e in enumerate(edges):
        for j, ep in enumerate(edges):
            if i == j:
                continue
            (chart_i, pts_i), (chart_j, pts_j) = net.edge_paths[i], net.edge_paths[j]
            ti, tj = params[i], params[j]
            # a sample pair near a shared endpoint, within each edge's window
            # from it, is excluded
            keep = np.ones((ti.size, tj.size), dtype=bool)
            for ii in (0, 1):
                for jj in (0, 1):
                    if ep.endpoint(ii) == e.endpoint(jj):
                        keep &= ~((np.abs(ti - jj) <= inj / lengths[i])[:, None]
                                  & (np.abs(tj - ii) < inj / lengths[j]))
            dEE_min[(i, j)] = _least_distance(metric, chart_i, pts_i, chart_j, pts_j, keep)

    C3 = 0.0
    for i, _ in enumerate(edges):
        chart, pts = net.edge_paths[i]
        m = pts.shape[0] - 1
        f = pts
        d1 = np.gradient(f, 1.0 / m, axis=0)
        d2 = np.gradient(d1, 1.0 / m, axis=0)
        d3 = np.gradient(d2, 1.0 / m, axis=0)
        C3 = max(C3, sum(float(np.max(np.linalg.norm(d, axis=1))) for d in (f, d1, d2, d3)))

    satisfied = {
        2: C3 <= M,
        3: F1 >= 1.0 / M,
        4: all(v <= 1.0 - 1.0 / M for v in F2.values()),
        5: all(v >= 1.0 / M for v in dE_min.values()),
        6: all(v >= 1.0 / M for v in dEE_min.values()),
    }
    return EmbeddednessCertificate(F1=float(F1), F2_values=F2, dE_min=dE_min,
                                   dEE_min=dEE_min, C3_norm=float(C3), M=M,
                                   satisfied=satisfied)


# ---------------------------------------------------------------------------
# closed geodesic certificate
# ---------------------------------------------------------------------------

def closed_geodesic_certificate(net: GammaNet, metric: Surface, relations=None,
                                tol=1e-6) -> ClosedGeodesicResult:
    """Check that tangent-matching relations concatenate the net into
    immersed circles with transverse self-intersections.

    ``relations`` is a list of pairs ((edge_index, i1), (edge_index, i2));
    with ``relations=None`` a pairing is searched automatically by
    matching opposite inward tangents.  A supplied relation set that is
    not a perfect pairing of the vertex incidences raises ValueError.
    """
    incid = _inward_tangents(net, metric)

    if relations is None:
        relations = []
        for v, lst in incid.items():
            if len(lst) % 2 != 0:
                return ClosedGeodesicResult(False, f"odd incidence degree at vertex {v!r}")
            used = set()
            for a in range(len(lst)):
                if a in used:
                    continue
                e1, i1, u1, (chart, at) = lst[a]
                g = metric.metric(chart, at)
                found = None
                for b in range(a + 1, len(lst)):
                    if b in used:
                        continue
                    _, _, u2, _ = lst[b]
                    if np.sqrt((u1 + u2) @ g @ (u1 + u2)) <= tol:
                        found = b
                        break
                if found is None:
                    return ClosedGeodesicResult(False, f"no opposite tangent match at vertex {v!r}")
                used.update((a, found))
                e2, i2, _, _ = lst[found]
                relations.append(((e1, i1), (e2, i2)))
    else:
        paired = {}
        for (p1, p2) in relations:
            for p in (p1, p2):
                if p in paired:
                    raise ValueError(f"endpoint {p} appears in two relations")
                paired[p] = True
        for v, lst in incid.items():
            pts = {(e, i) for e, i, _, _ in lst}
            covered = {p for p in paired if p in pts}
            if covered != pts:
                raise ValueError(f"relations are not a perfect pairing at vertex {v!r}")

    # tangent matching on the supplied/constructed relations
    unit = {}
    where = {}
    for v, lst in incid.items():
        for e, i, u, loc in lst:
            unit[(e, i)] = u
            where[(e, i)] = loc
    for (p1, p2) in relations:
        chart, at = where[p1]
        g = metric.metric(chart, at)
        s = unit[p1] + unit[p2]
        if np.sqrt(s @ g @ s) > tol:
            return ClosedGeodesicResult(False, f"tangents do not match through {p1}/{p2}")

    # transversality of all non-matched co-incident pairs
    matched = {frozenset(r) for r in relations}
    for v, lst in incid.items():
        for a in range(len(lst)):
            for b in range(a + 1, len(lst)):
                e1, i1, u1, (chart, at) = lst[a]
                e2, i2, u2, _ = lst[b]
                if frozenset(((e1, i1), (e2, i2))) in matched:
                    continue
                g = metric.metric(chart, at)
                if abs(float(u1 @ g @ u2)) > 1.0 - tol:
                    return ClosedGeodesicResult(False,
                                                f"collinear tangents at vertex {v!r} are not transverse")

    # concatenate edges into circles along the pairing
    succ = {}
    for (p1, p2) in relations:
        succ[p1] = p2
        succ[p2] = p1
    remaining = set(range(len(net.graph.edges)))
    circles = []
    while remaining:
        e = min(remaining)
        start = (e, 0)
        walk = []
        cur_edge, cur_start = e, 0
        while True:
            remaining.discard(cur_edge)
            chart, pts = net.edge_paths[cur_edge]
            path = pts if cur_start == 0 else pts[::-1]
            walk.append((chart, path))
            arrive = (cur_edge, 1 - cur_start)
            nxt = succ[arrive]
            cur_edge, cur_start = nxt
            if (cur_edge, cur_start) == start:
                break
            if cur_edge not in remaining:
                raise ValueError("relations do not close up into circles")
        circles.append(walk)
    return ClosedGeodesicResult(True, "ok", circles)
