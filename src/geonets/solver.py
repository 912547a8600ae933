"""Stationary nets: residuals, length minimization, spectra, certificates.

Everything here works on reduced dofs (:class:`_NormalDofs`): two per
vertex, then one per edge interior sample along its chord normal, with
one Hessian scattered from the closed-form 4 x 4 Hessians of the
segment lengths (the length is partially separable).
The solver minimizes total (multiplicity-weighted) length by trust-region
Newton steps (Steihaug's truncated CG, stopped at the quadratic forcing
term min(0.5, |g|) |g|) whose vertex dofs drag the samples of their edges
by hat weights; each trial point is resampled to uniform arclength per
edge before its one gradient, which an accepted step keeps.  The
second-variation spectrum and the branch tracker move vertices alone.
A net is stationary when its length gradient restricted to the solve's
drag frame, |N^T g|, vanishes: :func:`stationarity_residual` is that one
number, and the solve's stop test, the spectrum's gate and the warning
of ``first_variation`` all read it.  The remaining gradient is
tangential: it moves samples along the curve, not the net.  Every
vertex condition reads one edge-end table (end r is endpoint r % 2 of
edge r // 2: its vertex, unit inward tangent and g): one set of
pairwise cosines gives F2, the closed-geodesic pairing of opposite
tangents and its transversality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .nets import DegenerateNetError, GammaNet
from .surfaces import (_MESH_NODES, DomainError, Surface, _chart, _chart_rows, _positive_int,
                       midpoint_rule)


@dataclass
class SolveResult:
    net: GammaNet
    residual: float             # stationarity_residual of net; inf once collapsed
    converged: bool
    iterations: int
    length: float
    trace: list = field(default_factory=list)
    message: str = ""
    status: str = ""            # converged, collapsed, stalled or max_iter


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

def _edge_charts(net: GammaNet, surface: Surface):
    """The chart of every edge, after the one closure check of a net: each
    edge lies on a chart of ``surface`` (``_chart``) and on that of its two
    vertices (ValueError), has finite samples, and each of its ends sits a
    lattice shift of that chart from its vertex: none on a closed axis,
    whole periods on a periodic one (DomainError; a NaN vertex is none)."""
    charts, edges, at = [c for c, _ in net.edge_paths], net.graph.edges, net.vertex_points
    box = [_chart(surface, c) for c in charts]
    if any(at[e.v0][0] != c or at[e.v1][0] != c for e, c in zip(edges, charts)):
        raise ValueError("edge endpoints must share the chart of their vertices")
    for k, (c, pts) in enumerate(net.edge_paths):
        if not np.isfinite(pts).all():
            raise DomainError(f"edge {k} on chart {c!r} has a non-finite sample")
    tips = np.array([(pts[0], pts[-1], at[e.v0][1], at[e.v1][1])
                     for e, (_, pts) in zip(edges, net.edge_paths)])
    laps = (tips[:, :2] - tips[:, 2:]) / np.array([b.hi - b.lo for b in box])[:, None]
    miss = np.abs(laps - np.array([b.periodic for b in box])[:, None] * np.rint(laps))
    if not miss.max() <= 1e-9:                    # NaN, from a vertex, is no lattice shift
        k = int(np.argmin(miss.max(axis=(1, 2)) <= 1e-9))
        raise DomainError(f"edge {k} on chart {charts[k]!r} is not closed by a lattice shift "
                          f"of {surface.name}")
    return charts


class _Dofs:
    """Flat parametrization: vertex positions plus edge interior samples.

    Point p (a vertex or interior sample, in dof order) owns dofs 2p and
    2p + 1.  Polyline sample k is point ``pidx[k]`` plus offset row
    ``off[k]``: zero inside an edge, a lattice shift on periodic charts at
    its ends, so moving a vertex moves every incident end consistently.
    Segment j runs from sample ``seg[j]`` to ``seg[j] + 1`` with weight
    ``mult[j]``; ``seg_bounds`` splits the segments by edge and
    ``chart_segments`` selects the segments of each chart.
    """

    def __init__(self, net: GammaNet, surface: Surface):
        charts = _edge_charts(net, surface)
        self.net = net
        self.vorder = list(net.vertex_points.keys())
        self.vindex = {v: i for i, v in enumerate(self.vorder)}
        self.nv = len(self.vorder)
        self.interior_counts = [pts.shape[0] - 2 for _, pts in net.edge_paths]
        self.size = 2 * self.nv + 2 * sum(self.interior_counts)
        pidx, ofs = [], self.nv
        for e, m in zip(net.graph.edges, self.interior_counts):
            pidx += [self.vindex[e.v0], *range(ofs, ofs + m), self.vindex[e.v1]]
            ofs += m
        self.pidx = np.asarray(pidx)
        self.off = (np.concatenate([pts for _, pts in net.edge_paths])
                    - self.pack().reshape(-1, 2)[self.pidx])
        ends = np.cumsum([pts.shape[0] for _, pts in net.edge_paths])
        self.bounds, self.seg = ends[:-1], np.delete(np.arange(ends[-1]), ends - 1)
        runs = np.diff(ends, prepend=0) - 1
        self.seg_bounds = np.cumsum(runs)[:-1]
        self.mult = np.repeat([float(e.mult) for e in net.graph.edges], runs)
        self.chart_segments = _chart_rows(np.repeat(charts, runs))
        # the dof of each (segment end, coordinate): every segment's end, then its start
        tips = np.concatenate([self.pidx[self.seg + 1], self.pidx[self.seg]])
        self.scatter = (2 * tips[:, None] + np.arange(2)).ravel()
        # the 4 full dofs of every segment: its end b, then its start a
        self.segment_dofs = self.scatter.reshape(2, -1, 2).transpose(1, 0, 2).reshape(-1, 4)
        self.reduced_size = 2 * self.nv + sum(self.interior_counts)

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
    def hat(self):
        """Per interior point (v0, v1, t) of the vertex drag: interior sample
        k of the m on an edge follows v0 by 1 - t and v1 by t = k/(m+1)."""
        ends = [[self.vindex[e.endpoint(i)] for e in self.net.graph.edges] for i in (0, 1)]
        t = [np.arange(1, m + 1) / (m + 1) for m in self.interior_counts]
        return (*(np.repeat(v, self.interior_counts) for v in ends), np.concatenate(t))

    @cached_property
    def normal_cols(self):
        """The rows of :class:`_NormalDofs`' N, which are the same at every
        x and with or without drag: the three reduced dofs each full dof
        reads, by (point, coordinate).  A vertex coordinate reads its own
        dof (then two zero weights); an interior sample reads its normal
        dof and the same coordinate of its edge's two vertices."""
        (v0, v1, t), nv, xy = self.hat, self.nv, np.arange(2)
        cols = np.zeros((nv + len(t), 2, 3), dtype=int)
        cols[:nv, :, 0] = 2 * np.arange(nv)[:, None] + xy
        cols[nv:, :, 0] = 2 * nv + np.arange(len(t))[:, None]
        cols[nv:, :, 1], cols[nv:, :, 2] = 2 * v0[:, None] + xy, 2 * v1[:, None] + xy
        return cols.reshape(-1, 3)

    @cached_property
    def hessian_index(self):
        """Flat index into the reduced n x n Hessian of every term (s, i, p,
        j, q): segment s, its full dofs i and j, their reduced dofs p and q.
        Stored as int32 to halve what the dofs keep alive; n^2 < 2^31 for
        every dense Hessian that fits in memory.  A solve keeps it across
        its Newton steps; :func:`_free_vertex_hessian`, the one Hessian of
        the spectrum and of the tracker, deletes it after."""
        c, n = self.normal_cols[self.segment_dofs], self.reduced_size
        return (c[:, :, :, None, None] * n + c[:, None, None]).ravel().astype(np.int32)

    def resample(self, x):
        """``x`` with every edge's interior samples moved to uniform chart
        arclength along its polyline; vertices stay."""
        pts, y = self.samples(x), x.reshape(-1, 2).copy()
        for a, b in zip([0, *self.bounds], [*self.bounds, len(self.pidx)]):
            s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts[a:b], axis=0), axis=1))])
            t = np.linspace(0.0, s[-1], b - a)[1:-1]
            y[self.pidx[a + 1:b - 1]] = np.stack([np.interp(t, s, pts[a:b, k]) for k in (0, 1)], -1)
        return y.ravel()


def _chord_normals(dofs: _Dofs, x):
    """Chart-coordinate unit normal of the chord through each interior
    sample's two chain neighbours, in dof order; DegenerateNetError where
    the neighbours coincide."""
    pts, inner = dofs.samples(x), np.flatnonzero(dofs.pidx >= dofs.nv)
    t = pts[inner + 1] - pts[inner - 1]
    normals, norm = np.stack([-t[:, 1], t[:, 0]], axis=-1), np.linalg.norm(t, axis=1, keepdims=True)
    if not norm.all():
        raise DegenerateNetError("the two neighbours of an interior sample coincide")
    return normals / norm


class _NormalDofs:
    """Reduced dofs at ``x``: two per vertex, then one per interior sample
    along its chord normal.  With ``drag`` a vertex dof also drags the
    interior samples of its edges by :attr:`_Dofs.hat`; without it the
    vertex moves alone and N has orthonormal columns.  N is stored row by
    row: full dof f is ``vals[f] @ y[cols[f]]`` (a vertex dof itself, or a
    normal and two hat-weighted vertex dofs).  ``expand`` is N,
    ``restrict`` its transpose and ``hessian`` the reduced N^T H N."""

    def __init__(self, dofs: _Dofs, x, drag):
        self.dofs, self.x, self.cols, self.size = dofs, x, dofs.normal_cols, dofs.reduced_size
        (_, _, t), nv = dofs.hat, dofs.nv
        vals = np.zeros((nv + len(t), 2, 3))
        vals[:nv, :, 0], vals[nv:, :, 0] = 1.0, _chord_normals(dofs, x)
        vals[nv:, :, 1], vals[nv:, :, 2] = drag * (1.0 - t)[:, None], drag * t[:, None]
        self.vals = vals.reshape(-1, 3)

    def expand(self, y):
        return np.einsum("fk,fk->f", self.vals, y[self.cols])

    def restrict(self, g):
        return np.bincount(self.cols.ravel(), (self.vals * g[:, None]).ravel(), self.size)

    def hessian(self, metric: Surface):
        """Dense N^T H N of the length under ``metric``: each block of
        :func:`_segment_hessians` scattered through the rows of N by one
        bincount over :attr:`_Dofs.hessian_index`, then made exactly
        symmetric."""
        v, n = self.vals[self.dofs.segment_dofs], self.size
        blocks = _segment_hessians(self.dofs, metric, self.x)
        H = np.bincount(self.dofs.hessian_index, np.einsum("sip,sij,sjq->sipjq", v, blocks, v).ravel(),
                        n * n).reshape(n, n)
        H += H.T
        H *= 0.5
        return H


def _free_vertex_hessian(dofs: _Dofs, metric: Surface, x):
    """The free-vertex frame at ``x`` and its Hessian under ``metric``, the
    one Hessian its dofs build: :attr:`_Dofs.hessian_index` goes after it."""
    frame = _NormalDofs(dofs, x, drag=False)
    H = frame.hessian(metric)
    del dofs.hessian_index
    return frame, H


def _length_and_dof_grad(dofs: _Dofs, metric: Surface, x):
    """Discrete length, its gradient and the segment lengths at the dof
    vector ``x``: one :func:`~geonets.surfaces.midpoint_rule` call per
    chart, segment-end gradients summed onto points by ``bincount``."""
    pts = dofs.samples(x)
    a, b = pts[dofs.seg], pts[dofs.seg + 1]
    seg, gd, q = np.empty(len(a)), np.empty_like(a), np.empty_like(a)
    for chart, sel in dofs.chart_segments:
        seg[sel], _, _, gd[sel], q[sel] = midpoint_rule(metric, chart, a[sel], b[sel], deriv=True)
    # coincident samples contribute zero length (delta = 0); dividing by 1
    # there gives their undefined direction a zero subgradient
    safe, m = np.where(seg > 0.0, seg, 1.0)[:, None], dofs.mult[:, None]
    push = np.concatenate([(gd + 0.25 * q) / safe * m, (-gd + 0.25 * q) / safe * m])
    return float(dofs.mult @ seg), np.bincount(dofs.scatter, push.ravel(), dofs.size), seg


def _segment_hessians(dofs: _Dofs, metric: Surface, x):
    """The multiplicity-weighted 4 x 4 Hessian of every segment's length
    in its full dofs :attr:`_Dofs.segment_dofs`, L = sqrt(Q),
    Q = D^T g(m) D, D = b - a, m = (a + b)/2: HL = HQ/2L - dQ dQ^T/4L^3
    with the safe L of :func:`_length_and_dof_grad`.  HQ has the blocks
    bb = 2g + P + P^T + S/4, aa = 2g - P - P^T + S/4, ab = -2g - P + P^T
    + S/4, where P[i, k] = d_k g_ij D_j and S[k, l] = d_k d_l g(D, D) is a
    symmetrised central difference of ``metric_deriv`` at m +- _FD_STEP e_l."""
    pts = dofs.samples(x)
    a, b = pts[dofs.seg], pts[dofs.seg + 1]
    delta, mids = b - a, 0.5 * (a + b)
    g, dg = np.empty((len(a), 2, 2)), np.empty((5, len(a), 2, 2, 2))
    shifts = _FD_STEP * np.concatenate([np.zeros((1, 2)), np.eye(2), -np.eye(2)])[:, None]
    for chart, sel in dofs.chart_segments:
        g[sel] = metric.metric(chart, mids[sel])
        dg[:, sel] = metric.metric_deriv(chart, (mids[sel] + shifts).reshape(-1, 2)).reshape(5, -1, 2, 2, 2)
    P, q = np.einsum("skij,sj->sik", dg[0], delta), np.einsum("eskij,si,sj->esk", dg, delta, delta)
    S = np.stack([q[1] - q[3], q[2] - q[4]], -1) / (8 * _FD_STEP)
    g2, S, Pt = 2.0 * g, 0.5 * (S + np.swapaxes(S, 1, 2)), np.swapaxes(P, 1, 2)
    HQ = np.empty((len(a), 4, 4))
    HQ[:, :2, :2], HQ[:, :2, 2:] = g2 + P + Pt + S, -g2 + P - Pt + S
    HQ[:, 2:, :2], HQ[:, 2:, 2:] = -g2 - P + Pt + S, g2 - P - Pt + S
    gd = np.einsum("sij,sj->si", g2, delta)
    dQ = np.concatenate([gd + 0.5 * q[0], -gd + 0.5 * q[0]], -1)
    L = np.sqrt(0.5 * np.einsum("si,si->s", delta, gd))
    L = np.where(L > 0.0, L, 1.0)[:, None, None]
    return (HQ / (2 * L) - dQ[:, :, None] * dQ[:, None, :] / (4 * L**3)) * dofs.mult[:, None, None]


#: central-difference step of the second metric derivatives in the segment
#: Hessians; their O(h^2) truncation is far below every Hessian tolerance
_FD_STEP = 1e-6
#: relative eigenvalue cutoff of the Newton pseudo-inverse
_PINV_RCOND = 1e-7
#: chord steps of the branch tracker and the step norm that ends them
_TRACK_STEPS, _TRACK_TOL = 40, 1e-11
#: the largest stationarity residual a net may have for its spectrum
_SPECTRUM_RESIDUAL = 1e-6


def _pseudo_inverse(H):
    """Symmetric pseudo-inverse dropping |lambda| <= _PINV_RCOND * max|lambda|."""
    lam, V = np.linalg.eigh(H)
    keep = np.abs(lam) > _PINV_RCOND * np.max(np.abs(lam))
    return (V[:, keep] / lam[keep]) @ V[:, keep].T


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _g_dot(u, g, w):
    """g(u, w) row by row over stacks of vectors and metric tensors."""
    return (u[:, None] @ g @ w[:, :, None])[:, 0, 0]


def _edge_ends(net: GammaNet, metric: Surface):
    """The edge-end table every vertex condition reads.  End r is endpoint
    r % 2 of edge r // 2; the table holds its vertex (an index into
    ``net.graph.vertices``), its g-unit inward tangent and g at the end,
    from one ``metric`` call per chart, on a net closed by :func:`_edge_charts`."""
    charts = _edge_charts(net, metric)
    index = {v: k for k, v in enumerate(net.graph.vertices)}
    vertex = np.array([index[v] for e in net.graph.edges for v in (e.v0, e.v1)])
    tips = np.concatenate([pts.take((0, -1, 1, -2), axis=0) for _, pts in net.edge_paths])
    tips = tips.reshape(-1, 2, 2, 2)        # edge, (end samples, their neighbours), endpoint, xy
    at, inward = tips[:, 0].reshape(-1, 2), (tips[:, 1] - tips[:, 0]).reshape(-1, 2)
    g = np.empty((len(at), 2, 2))
    for chart, sel in _chart_rows(np.repeat(charts, 2)):
        g[sel] = metric.metric(chart, at[sel])
    norm = np.sqrt(_g_dot(inward, g, inward))
    if not norm.all():
        raise DegenerateNetError("zero tangent at a vertex")
    return vertex, inward / norm[:, None], g


def _end_cosines(vertex, unit, g):
    """The pairs (a, b), a < b, of ends at one vertex, and the cosines
    cos[a][b] = g(u_a, u_b) of every two inward tangents with g at end a,
    as lists: the F2 junction angles, the opposite tangents of the
    closed-geodesic pairing (for ends at one point |u_a + u_b|_g^2 =
    2 + 2 cos) and its transversality test all read them."""
    vertex = vertex.tolist()
    pairs = [(a, b) for a in range(len(vertex)) for b in range(a + 1, len(vertex)) if vertex[a] == vertex[b]]
    return pairs, ((unit[:, None] @ g)[:, 0] @ unit.T).tolist()


def stationarity_residual(net: GammaNet, metric: Surface) -> float:
    """|N^T g|: the length gradient restricted to the drag frame of the
    solve, zero exactly when neither a normal move of an interior sample
    nor a move of a vertex (dragging its edges) changes the length."""
    dofs = _Dofs(net, metric)
    return _residual(dofs, metric, dofs.pack())


def _residual(dofs: _Dofs, metric: Surface, x):
    """:func:`stationarity_residual` at the dof vector ``x``."""
    return float(np.linalg.norm(_drag_gradient(dofs, metric, x)[3]))


def _drag_gradient(dofs: _Dofs, metric: Surface, x):
    """The length and segment lengths at ``x``, the solve's drag frame
    there and the length gradient restricted to it, whose norm is
    :func:`stationarity_residual`."""
    f, g, seg = _length_and_dof_grad(dofs, metric, x)
    frame = _NormalDofs(dofs, x, drag=True)
    return f, seg, frame, frame.restrict(g)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

#: trust-region ratio bounds (Nocedal-Wright, Algorithm 4.1); below
#: _ROUNDING * length the predicted reduction is rounding noise
_SHRINK_BELOW, _GROW_ABOVE, _ROUNDING = 0.25, 0.75, 1e-12
_MESSAGES = {"converged": "gradient below tolerance", "stalled": "trust radius at rounding level",
             "collapsed": "an edge collapsed below the length floor", "max_iter": "iteration limit"}


def _steihaug(matvec, g, radius, tol):
    """Truncated conjugate gradients on the model g.p + p.Bp / 2 within
    |p| <= radius (Steihaug 1983; Nocedal-Wright, Algorithm 7.2): stops at
    residual ``tol``, or on the boundary at the radius or on meeting
    negative curvature."""
    p, r, d = np.zeros_like(g), g.copy(), -g
    rr = r @ r
    for _ in range(g.size):
        if rr <= tol * tol:
            break
        Bd = matvec(d)
        curv = d @ Bd
        if curv <= 0.0 or (p + rr / curv * d) @ (p + rr / curv * d) >= radius * radius:
            # the root tau >= 0 of |p + tau d| = radius
            a, b, c = d @ d, p @ d, p @ p - radius * radius
            return p + (-b + np.sqrt(b * b - a * c)) / a * d
        p, r, rr_old = p + rr / curv * d, r + rr / curv * Bd, rr
        rr = r @ r
        d = -r + rr / rr_old * d
    return p


def solve_stationary(init: GammaNet, metric: Surface, tol=1e-8, length_floor=None) -> SolveResult:
    """Minimize total length from an initial net by trust-region Newton
    steps on :class:`_NormalDofs`, until :func:`stationarity_residual` is
    at most ``0.1 * tol`` or 2000 steps have run; ``tol`` must be finite
    and positive, and every component of the graph good.  Each trial
    point is resampled to uniform arclength per edge and costs one
    gradient.  ``status`` says why it stopped (a net whose residual is at
    most ``tol`` counts as converged) and ``trace`` holds one entry.  When
    an edge collapses below the floor (default 1e-4 times the metric's
    injectivity lower bound) the result is flagged as not converged with
    a collapse message and an infinite residual; a degenerate *initial*
    net raises DegenerateNetError, and a net on charts the metric lacks
    DomainError.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not all(init.graph.is_good()):
        raise ValueError("initial graph is not good on every component")
    if length_floor is None:
        length_floor = 1e-4 * metric.injectivity_lower_bound
    dofs, t0 = _Dofs(init, metric), time.perf_counter()  # DomainError on a foreign chart
    if min(init.edge_lengths(metric)) <= length_floor:
        raise DegenerateNetError("initial net already below the edge length floor")

    # vertices drag their edges: moving a vertex alone kinks the segments
    # next to it, and long steps then fold the polyline
    x = dofs.pack()
    f, _, frame, gr = _drag_gradient(dofs, metric, x)
    H, n_hess, nit, radius, status = None, 0, 0, 1.0, "max_iter"
    while nit < 2000 and status == "max_iter":
        gnorm = np.linalg.norm(gr)
        if gnorm <= 0.1 * tol:
            status = "converged"
            break
        if H is None:
            H, n_hess = frame.hessian(metric), n_hess + 1
        # forcing term min(0.5, |g|): quadratic local convergence
        # (Nocedal-Wright, Theorem 7.2; Eisenstat-Walker 1996)
        p = _steihaug(H.__matmul__, gr, radius, min(0.5, gnorm) * gnorm)
        x_new = dofs.resample(x + frame.expand(p))
        f_new, seg, frame_new, gr_new = _drag_gradient(dofs, metric, x_new)
        pred = -(gr @ p + 0.5 * p @ H @ p)
        nit += 1
        rho = (f - f_new) / pred if pred > _ROUNDING * f else float(np.linalg.norm(gr_new) < gnorm)
        if rho < _SHRINK_BELOW:
            radius = 0.25 * np.linalg.norm(p)
        elif rho > _GROW_ABOVE and np.linalg.norm(p) >= 0.99 * radius:
            radius *= 2.0
        if rho > 0.0:
            # free the stale Hessian before the next
            x, f, frame, gr, H = x_new, f_new, frame_new, gr_new, None
            if min(map(np.sum, np.split(seg, dofs.seg_bounds))) <= length_floor:
                status = "collapsed"
        elif radius <= np.finfo(float).eps * (1.0 + np.max(np.abs(x))):
            status = "stalled"

    net, grad_norm = dofs.unpack(x), float(np.linalg.norm(gr))
    residual = np.inf if status == "collapsed" else grad_norm
    status = "converged" if residual <= tol else status
    trace = [{"phase": "trust-region", "nit": nit, "n_grad": 1 + nit, "n_hess": n_hess,
              "grad_norm": grad_norm, "length": float(f), "seconds": time.perf_counter() - t0}]
    return SolveResult(net=net, residual=residual, converged=status == "converged", iterations=nit,
                       length=net.length(metric), trace=trace, message=_MESSAGES[status], status=status)


def stationary_tracker(init: GammaNet, metric0: Surface):
    """Branch-tracking continuation for perturbed metrics.

    Returns ``track(metric)`` which chord-Newton-iterates the reduced
    length gradient to zero from ``init`` on its free-vertex reduced dofs,
    reusing the pseudo-inverse of their Hessian computed once at
    ``metric0``.  The pseudo-inverse suppresses motion along the
    near-null (symmetry) valley, so the result follows the stationary
    branch through ``init`` instead of sliding to a distant minimizer of
    the degenerate family.  ``track`` raises ValueError when the chord
    steps have not settled within _TRACK_STEPS.
    """
    dofs = _Dofs(init, metric0)
    frame, H = _free_vertex_hessian(dofs, metric0, dofs.pack())
    P = _pseudo_inverse(H)

    def track(metric):
        y = np.zeros(frame.size)
        for _ in range(_TRACK_STEPS):
            step = -P @ frame.restrict(_length_and_dof_grad(dofs, metric, frame.x + frame.expand(y))[1])
            y = y + step
            if np.linalg.norm(step) <= _TRACK_TOL:
                return dofs.unpack(frame.x + frame.expand(y))
        raise ValueError(f"branch tracking did not converge in {_TRACK_STEPS} chord steps "
                         f"(last step norm {np.linalg.norm(step):.3e})")

    return track


# ---------------------------------------------------------------------------
# second variation
# ---------------------------------------------------------------------------

def second_variation_spectrum(net: GammaNet, metric: Surface):
    """Ascending eigenvalues of the discretized length Hessian.

    The matrix is N^T H N on the free-vertex reduced dofs: vertices move
    alone (two dofs each), edge interior samples along their chart
    unit chord normals (one dof each), so N has orthonormal columns.
    This normal-only parametrization carries no reparametrization null
    directions, so every numerical zero mode corresponds to a Jacobi
    field.  Flat chart-coordinate inner product throughout.  The net's
    :func:`stationarity_residual`, read in the solve's drag frame, must be
    at most ``_SPECTRUM_RESIDUAL``.
    """
    dofs = _Dofs(net, metric)
    x = dofs.pack()
    resid = _residual(dofs, metric, x)
    if resid > _SPECTRUM_RESIDUAL:
        raise ValueError(f"net is not stationary enough for a spectrum "
                         f"(stationarity residual {resid:.3e} > {_SPECTRUM_RESIDUAL:g})")
    return np.linalg.eigvalsh(_free_vertex_hessian(dofs, metric, x)[1])


def is_nondegenerate(net: GammaNet, metric: Surface, tol):
    """No Jacobi field beyond the reparametrization modes.

    One exact null direction per single-loop component (the tangential
    slide of its base vertex) is excluded before testing min |lambda|.
    """
    eig = np.sort(np.abs(second_variation_spectrum(net, metric)))
    n_loops = 0
    for comp in net.graph.components():
        e = net.graph.edges[comp[0]]
        n_loops += len(comp) == 1 and e.v0 == e.v1
    return bool(eig.size > n_loops and eig[n_loops] > tol)


# ---------------------------------------------------------------------------
# embeddedness certificate
# ---------------------------------------------------------------------------

def _least_distance(metric, chart_p, P, chart_q, Q, keep):
    """Least distance over the pairs (P[a], Q[b]) with keep[a, b], from one
    ``distances`` call over the kept rows.  On a mesh its Dijkstra stops at
    1.25 times the least short chart segment of a kept pair, at least one
    mesh step; the limit doubles while the least kept distance lies past
    it, and the fifth call is unbounded.  A distance within the limit is
    the unbounded one bit for bit, so a least one within it is exact."""
    rows = np.flatnonzero(keep.any(axis=1))
    if not rows.size:
        return np.inf
    if metric.closed_form_distances:
        return float(np.min(metric.distances(chart_p, P[rows], chart_q, Q)[keep[rows]]))
    box, h, _ = metric._mesh(_MESH_NODES)
    a, b = np.nonzero(keep)
    seg = midpoint_rule(metric, box.name, P[a], P[a] + box.short_step(Q[b] - P[a]))[0]
    seed = max(1.25 * np.min(seg), np.min(h))
    for limit in (*seed * 2.0 ** np.arange(4), np.inf):
        least = float(np.min(metric.distances(chart_p, P[rows], chart_q, Q, limit=limit)[keep[rows]]))
        if least <= limit:
            return least


def embeddedness_certificate(net: GammaNet, metric: Surface, M_bound,
                             cert_samples=65) -> EmbeddednessCertificate:
    """Evaluate the separation functionals and the bound conditions.

    Distances are geodesic distances under the metric; the injectivity
    lower bound configured on the metric stands in for inj(g) in the
    separation windows.  ``M_bound`` must be a positive integer.
    """
    _positive_int("M_bound", M_bound)
    M = int(M_bound)
    net = net.resample(metric, cert_samples)
    inj = metric.injectivity_lower_bound
    edges = net.graph.edges

    lengths = net.edge_lengths(metric)
    F1 = min(lengths)

    vertex, unit, g = _edge_ends(net, metric)
    F2 = {}
    pairs, cos = _end_cosines(vertex, unit, g)
    for a, b in pairs:
        F2[divmod(a, 2), divmod(b, 2)] = F2[divmod(b, 2), divmod(a, 2)] = cos[a][b]

    params = [np.linspace(0.0, 1.0, pts.shape[0]) for _, pts in net.edge_paths]

    dE_min = {}
    for i, e in enumerate(edges):
        chart, pts = net.edge_paths[i]
        t = params[i]
        sep = np.abs(t[:, None] - t)
        if e.v0 == e.v1:
            sep = np.minimum(sep, 1.0 - sep)      # a loop's parameter is a circle
        keep = np.triu(sep >= min(inj / lengths[i], 0.5) - 1e-12, 1)
        dE_min[i] = _least_distance(metric, chart, pts, chart, pts, keep)

    dEE_min, edge_vertices = {}, vertex.reshape(-1, 2)
    for i in range(len(edges)):
        for j in range(len(edges)):
            if i == j:
                continue
            (chart_i, pts_i), (chart_j, pts_j) = net.edge_paths[i], net.edge_paths[j]
            ti, tj = params[i], params[j]
            # a sample pair near a shared endpoint, within each edge's window
            # from it, is excluded: endpoint ii of edge j is endpoint jj of i
            keep = np.ones((ti.size, tj.size), dtype=bool)
            for ii, jj in zip(*np.nonzero(edge_vertices[j][:, None] == edge_vertices[i])):
                keep &= ~((np.abs(ti - jj) <= inj / lengths[i])[:, None]
                          & (np.abs(tj - ii) < inj / lengths[j]))
            dEE_min[(i, j)] = _least_distance(metric, chart_i, pts_i, chart_j, pts_j, keep)

    C3 = 0.0
    for _, pts in net.edge_paths:
        h = 1.0 / (pts.shape[0] - 1)
        d1 = np.gradient(pts, h, axis=0)
        d2 = np.gradient(d1, h, axis=0)
        d3 = np.gradient(d2, h, axis=0)
        C3 = max(C3, sum(float(np.max(np.linalg.norm(d, axis=1))) for d in (pts, d1, d2, d3)))

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

#: tangent match and transversality tolerance of the closed-geodesic pairing
_MATCH_TOL = 1e-6


def closed_geodesic_certificate(net: GammaNet, metric: Surface) -> ClosedGeodesicResult:
    """Check that pairing opposite inward tangents at each vertex
    concatenates the net into immersed circles with transverse
    self-intersections.

    Each edge end is paired greedily with the first later end at its
    vertex whose g-unit inward tangent is opposite within
    :data:`_MATCH_TOL`; an end left unpaired fails the check.
    """
    vertex, unit, g = _edge_ends(net, metric)
    pairs, cos = _end_cosines(vertex, unit, g)
    vertex, names, partner = vertex.tolist(), net.graph.vertices, [-1] * len(vertex)
    opposite = 0.5 * _MATCH_TOL**2 - 1.0      # cos <= this iff |u_a + u_b|_g <= _MATCH_TOL
    # greedily, each end takes the first later opposite end still free
    for p, q in pairs:
        if cos[p][q] <= opposite and partner[p] < 0 and partner[q] < 0:
            partner[p], partner[q] = q, p
    if -1 in partner:
        k = min(v for v, q in zip(vertex, partner) if q < 0)
        why = "odd incidence degree" if vertex.count(k) % 2 else "no opposite tangent match"
        return ClosedGeodesicResult(False, f"{why} at vertex {names[k]!r}")

    # transversality of all non-matched co-incident pairs
    collinear = [vertex[p] for p, q in pairs if partner[p] != q and abs(cos[p][q]) > 1.0 - _MATCH_TOL]
    if collinear:
        return ClosedGeodesicResult(False, f"collinear tangents at vertex {names[min(collinear)]!r} "
                                           f"are not transverse")

    # concatenate edges into circles along the pairing: leave each edge at
    # its far end and enter the next at that end's partner, until the walk
    # is back on its first edge (a perfect pairing visits each edge once)
    circles, seen = [], set()
    for start in range(0, len(partner), 2):
        r, walk = start, []
        while r // 2 not in seen:
            seen.add(r // 2)
            chart, pts = net.edge_paths[r // 2]
            walk.append((chart, pts[::-1] if r % 2 else pts))
            r = partner[r ^ 1]
        if walk:
            circles.append(walk)
    return ClosedGeodesicResult(True, "ok", circles)
