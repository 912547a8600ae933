"""Partition/bump systems, discrepancy reports, and the averaging pipeline.

The chain implemented here: build a partition of unity out of plateau
bumps on cells of geodesic radius eps1, measure the per-bump gap between
weighted net averages and the volume average (the discrepancy), make the
weights rational with a common denominator, and merge blocks of nets
into one sequence whose running integral ratio converges to the volume
average.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .nets import DegenerateNetError
from .surfaces import (_QUAD_BLOCK, FlatTorus, ScalarField, Sphere, Surface,
                       _positive_int, _root_surface, _smoothstep, _smoothstep_deriv,
                       surface_average)


# ---------------------------------------------------------------------------
# plateau profiles
# ---------------------------------------------------------------------------

def _bump_1d_periodic(x, lo, width, collar, period=1.0):
    """Plateau bump on a circle: 1 on [lo, lo+width], 0 beyond the collars."""
    u = np.mod(np.asarray(x, dtype=float) - lo, period)
    up = _smoothstep((u - (period - collar)) / collar)      # ramp up before lo
    down = 1.0 - _smoothstep((u - width) / collar)           # ramp down after hi
    return np.where(u <= width, 1.0, np.where(u >= period - collar, up, down))


def _bump_1d_periodic_deriv(x, lo, width, collar):
    u = np.mod(np.asarray(x, dtype=float) - lo, 1.0)
    up = _smoothstep_deriv((u - (1.0 - collar)) / collar) / collar
    down = -_smoothstep_deriv((u - width) / collar) / collar
    return np.where(u <= width, 0.0, np.where(u >= 1.0 - collar, up, down))


def _bump_1d(x, lo, hi, collar):
    """Plateau bump on the line: 1 on [lo, hi], 0 outside the collars."""
    x = np.asarray(x, dtype=float)
    up = _smoothstep((x - (lo - collar)) / collar)
    down = 1.0 - _smoothstep((x - hi) / collar)
    return np.where(x < lo, up, np.where(x > hi, down, 1.0))


# ---------------------------------------------------------------------------
# bump systems
# ---------------------------------------------------------------------------

@dataclass
class BumpSystem:
    """Plateau bumps phi_k on K cells and the partition of unity
    psi_k = phi_k / sum_l phi_l.

    A recipe subclass evaluates all K bumps in one broadcast
    (:meth:`phi_values`, shape ``(K, ...)``); the per-bump field
    ``psi[k]`` reads row k of :meth:`psi_values`.
    """

    K: int
    eps1: float
    regions: list                 # per-bump descriptors incl. center (chart, point)
    surface: Surface
    psi: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.psi = [ScalarField(lambda c, x, k=k: self.psi_values(c, x)[k],
                                grad_fn=lambda c, x, k=k: self._psi_grads(c, x)[k],
                                name=f"psi[{k}]") for k in range(self.K)]

    def phi_values(self, chart, x):
        raise NotImplementedError

    def _phi_grads(self, chart, x):
        """Every grad phi_k, ``(K, ..., 2)``, by central differences."""
        return ScalarField(self.phi_values).grad(chart, x)

    def psi_values(self, chart, x):
        vals = self.phi_values(chart, x)
        return vals / np.sum(vals, axis=0)

    def _psi_grads(self, chart, x):
        vals = self.phi_values(chart, x)
        grads = self._phi_grads(chart, x)
        total = np.sum(vals, axis=0)
        total_grad = np.sum(grads, axis=0)
        return (grads * total[..., None] - vals[..., None] * total_grad) / (total ** 2)[..., None]

    def _volume_sums(self, chart, pts, dens):
        """``sum_p psi_k(p) dens(p)`` for every k over one chart's
        quadrature points, in blocks of :data:`_QUAD_BLOCK` points."""
        return sum(self.psi_values(chart, pts[s:s + _QUAD_BLOCK]) @ dens[s:s + _QUAD_BLOCK]
                   for s in range(0, len(pts), _QUAD_BLOCK))


def _outer(a, b):
    """Rows a_i * b_j of two ``(n, ...)`` stacks, in the order i * n + j."""
    return (a[:, None] * b[None]).reshape((-1,) + a.shape[1:])


@dataclass
class _TorusBumps(BumpSystem):
    """n x n square cells: phi_{i n + j}(x) = b_i(x_0) b_j(x_1) with the
    periodic 1-D plateau bump b_i of cell row i."""

    n: int
    collar: float

    def _axes(self, x, profile):
        x = np.asarray(x, dtype=float)
        cell = 1.0 / self.n
        lo = (np.arange(self.n) * cell).reshape((self.n,) + (1,) * (x.ndim - 1))
        return [profile(x[..., a], lo, cell, self.collar) for a in range(2)]

    def phi_values(self, chart, x):
        bx, by = self._axes(x, _bump_1d_periodic)
        return _outer(bx, by)

    def _phi_grads(self, chart, x):
        bx, by = self._axes(x, _bump_1d_periodic)
        dbx, dby = self._axes(x, _bump_1d_periodic_deriv)
        return np.stack([_outer(dbx, by), _outer(bx, dby)], axis=-1)

    def _volume_sums(self, chart, pts, dens):
        """On the m x m torus quadrature grid psi_{i n + j}(x, y) = a_i(x)
        a_j(y) with a_i = b_i / sum_l b_l, so the sums are ``A_x @ D @
        A_y^T`` over the grid's two axes, read off its first column and row."""
        m = math.isqrt(len(pts))
        ax, ay = (b / np.sum(b, axis=0) for b in
                  self._axes(np.stack([pts[::m, 0], pts[:m, 1]], axis=-1), _bump_1d_periodic))
        return (ax @ dens.reshape(m, m) @ ay.T).ravel()


#: collar of a plateau bump, as a share of its cell's side or sector
_COLLAR_FRAC = 0.2


def _torus_partition(surface, eps1, K_min):
    n = max(math.ceil(math.sqrt(2.0) / eps1), math.ceil(math.sqrt(K_min)))
    if n > 64:
        raise ValueError(f"eps1 = {eps1} needs a {n}x{n} grid, beyond the "
                         "resolution budget 64x64")
    cell = 1.0 / n
    collar = _COLLAR_FRAC * cell
    regions = []
    for i in range(n):
        for j in range(n):
            lo = (i * cell, j * cell)
            regions.append({"kind": "torus-cell", "i": i, "j": j, "cell": cell,
                            "collar": collar,
                            "center": ("main", np.array([lo[0] + cell / 2,
                                                         lo[1] + cell / 2]))})
    return _TorusBumps(K=n * n, eps1=eps1, regions=regions, surface=surface, n=n, collar=collar)


def _sphere_angles(sphere, chart, x):
    """Colatitude/longitude of chart points (vectorized)."""
    u = sphere.embed(chart, np.asarray(x, dtype=float))
    r = sphere.radius
    theta = np.arccos(np.clip(u[..., 2] / r, -1.0, 1.0))
    lam = np.mod(np.arctan2(u[..., 1], u[..., 0]), 2 * np.pi)
    return theta, lam


@dataclass
class _SphereBumps(BumpSystem):
    """Colatitude bands cut into longitude sectors: phi_k is the band bump
    of its band times the periodic sector bump.  A polar cap is one
    sector spanning the full period, whose bump is identically 1."""

    sphere: Sphere
    collar_th: float
    bands: np.ndarray             # (bands, 2) colatitude bounds
    band: np.ndarray              # (K,) band of every cell
    sectors: np.ndarray           # (K, 3) longitude start, width and collar

    def phi_values(self, chart, x):
        """Band bump times sector bump, with a band's sectors evaluated
        only where its band bump is nonzero (phi_k is 0 elsewhere)."""
        theta, lam = (a.ravel() for a in _sphere_angles(self.sphere, chart, x))
        out = np.zeros((self.K, theta.size))
        bands = _bump_1d(theta, self.bands[:, :1], self.bands[:, 1:], self.collar_th)
        for b, row in enumerate(bands):
            on, cells = np.flatnonzero(row), np.flatnonzero(self.band == b)
            lam_lo, dlam, collar = (self.sectors[cells, c, None] for c in range(3))
            out[cells[:, None], on] = row[on] * _bump_1d_periodic(lam[on], lam_lo, dlam, collar,
                                                                  period=2 * math.pi)
        return out.reshape((self.K,) + np.shape(x)[:-1])


def _sphere_partition(surface, eps1, K_min):
    sphere = _root_surface(surface)
    R = sphere.radius
    n_theta = max(3, math.ceil(math.sqrt(2.0) * math.pi * R / eps1))
    dth = math.pi / n_theta
    bands, band, sectors, regions = [], [], [], []
    for i in range(n_theta):
        th_lo, th_hi = i * dth, (i + 1) * dth
        bands.append((th_lo, th_hi))
        polar = i == 0 or i == n_theta - 1
        th_mid = 0.5 * (th_lo + th_hi)
        if polar:
            n_sec = 1                        # merged polar cap
        else:
            n_sec = max(1, math.ceil(math.sqrt(2.0) * 2 * math.pi * R
                                     * math.sin(th_mid) / eps1))
        dlam = 2 * math.pi / n_sec
        for j in range(n_sec):
            lam_lo = j * dlam
            band.append(i)
            sectors.append((lam_lo, dlam, _COLLAR_FRAC * dlam))
            lam_mid = lam_lo + dlam / 2
            center3 = R * np.array([math.sin(th_mid) * math.cos(lam_mid),
                                    math.sin(th_mid) * math.sin(lam_mid),
                                    math.cos(th_mid)])
            cchart = "north" if center3[2] >= 0 else "south"
            center = (cchart, sphere.unembed(cchart, center3))
            regions.append({"kind": "sphere-cell", "band": i, "sector": j,
                            "theta": (th_lo, th_hi), "sectors": n_sec,
                            "center": center})
    K = len(regions)
    if K < K_min:
        raise ValueError(f"sphere partition at eps1 = {eps1} yields K = {K} < {K_min}")
    return _SphereBumps(K=K, eps1=eps1, regions=regions, surface=surface,
                        sphere=sphere, collar_th=_COLLAR_FRAC * dth, bands=np.array(bands),
                        band=np.array(band), sectors=np.array(sectors))


def build_partition(metric: Surface, eps1, K_min=1) -> BumpSystem:
    """Cell partition with plateau bumps; every enlarged cell sits inside a
    geodesic ball of radius eps1 around the recorded center; ``eps1`` must
    lie strictly between 0 and the injectivity lower bound."""
    if not 0.0 < eps1 < metric.injectivity_lower_bound:
        raise ValueError(f"eps1 must lie in (0, {metric.injectivity_lower_bound}), got {eps1!r}")
    root = _root_surface(metric)
    if isinstance(root, FlatTorus):
        return _torus_partition(metric, eps1, K_min)
    if isinstance(root, Sphere):
        return _sphere_partition(metric, eps1, K_min)
    raise ValueError(f"no partition recipe for surface {root.name!r}")


# ---------------------------------------------------------------------------
# weighted families and discrepancy
# ---------------------------------------------------------------------------

@dataclass
class WeightedNetFamily:
    nets: list
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.nets) != len(self.weights):
            raise ValueError("one weight per net required")
        if np.any(self.weights < 0) or not abs(self.weights.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must be a convex combination")

    def weighted_average(self, fld, metric):
        """sum_j a_j avg_j fld: K averages for a field of K rows, else a float."""
        total = sum(a * net.average_integral(fld, metric) for a, net in zip(self.weights, self.nets))
        return total if np.ndim(total) else float(total)


@dataclass
class DiscrepancyReport:
    values: np.ndarray
    threshold: float

    @property
    def max_value(self):
        return float(np.max(self.values))

    @property
    def passed(self):
        return bool(self.max_value < self.threshold)


def _volume_psi_averages(bumps: BumpSystem, metric: Surface, n):
    """Volume average of every psi_k with one pass over the quadrature grid
    (:meth:`BumpSystem._volume_sums` per chart).

    Cached on the bump system per metric object (held weakly, so a freed
    metric's entry goes with it) and grid size.
    """
    _positive_int("vol_n", n)
    cache = getattr(bumps, "_avg_cache", None)
    if cache is None:
        cache = bumps._avg_cache = weakref.WeakKeyDictionary()
    per_metric = cache.setdefault(metric, {})
    if n not in per_metric:
        sums = np.zeros(bumps.K)
        total = 0.0
        for chart, pts, w in metric.quadrature(n):
            dens = w * metric.area_density(chart, pts)
            sums += bumps._volume_sums(chart, pts, dens)
            total += float(np.sum(dens))
        per_metric[n] = sums / total
    return per_metric[n]


def discrepancy(family: WeightedNetFamily, metric: Surface,
                bumps: BumpSystem, vol_n=256) -> DiscrepancyReport:
    """Per-bump gap between weighted net averages and volume averages;
    ValueError on a metric over another kind of surface than the bumps'."""
    root, home = _root_surface(metric), _root_surface(bumps.surface)
    if type(root) is not type(home):
        raise ValueError(f"bumps built for the {home.name} cannot measure on {metric.name}")
    net_avgs = family.weighted_average(bumps.psi_values, metric)
    vol_avgs = _volume_psi_averages(bumps, metric, vol_n)
    return DiscrepancyReport(values=np.abs(net_avgs - vol_avgs),
                             threshold=bumps.eps1 / bumps.K)


def discrepancy_transfer(family: WeightedNetFamily, metric: Surface,
                         bumps: BumpSystem, fld: ScalarField,
                         f_sup, f_grad_sup, vol_n=256):
    """Both sides of the transfer bound
    |sum_j a_j avg_j f - avg_M f| <= sup|f| * sum_k D_k + 2 sup|grad f| * eps1.
    """
    report = discrepancy(family, metric, bumps, vol_n=vol_n)
    lhs = abs(family.weighted_average(fld, metric)
              - surface_average(metric, fld, n=vol_n))
    rhs = f_sup * float(np.sum(report.values)) + 2.0 * f_grad_sup * bumps.eps1
    return lhs, rhs, report


# ---------------------------------------------------------------------------
# min-norm point in a convex hull of gradients
# ---------------------------------------------------------------------------

def _affine_min_norm(P):
    """Min-norm point of the affine hull of rows of P (barycentric coords)."""
    m = P.shape[0]
    A = np.zeros((m + 1, m + 1))
    A[:m, :m] = P @ P.T
    A[:m, m] = 1.0
    A[m, :m] = 1.0
    b = np.zeros(m + 1)
    b[m] = 1.0
    sol = np.linalg.lstsq(A, b, rcond=None)[0]
    return sol[:m]


def min_norm_point(P):
    """Wolfe's algorithm: min-norm point of Conv(rows of P).

    Returns (weights over all rows, attained point); ValueError on no rows
    or a non-finite entry.
    """
    P = np.asarray(P, dtype=float)
    m = P.shape[0]
    if not m or not np.isfinite(P).all():
        raise ValueError("min_norm_point needs at least one row, all of them finite")
    j0 = int(np.argmin(np.einsum("ij,ij->i", P, P)))
    support = [j0]
    w = np.array([1.0])
    for _ in range(200):
        x = w @ P[support]
        dots = P @ x
        j = int(np.argmin(dots))
        if x @ x - dots[j] <= 1e-12 * max(1.0, x @ x):
            break
        if j in support:
            break
        support.append(j)
        w = np.append(w, 0.0)
        while True:
            v = _affine_min_norm(P[support])
            if np.all(v > 1e-14):
                w = v
                break
            diff = w - v
            mask = diff > 1e-14
            theta = np.min(w[mask] / diff[mask])
            w = w - theta * diff
            w[w < 1e-14] = 0.0
            keep = w > 0.0
            if not np.any(keep):
                keep[int(np.argmax(v))] = True
                w[keep] = 1.0
            support = [s for s, k in zip(support, keep) if k]
            w = w[keep]
            w = w / w.sum()
    full = np.zeros(m)
    full[support] = w
    return full, full @ P


def _caratheodory(P, w, target_support):
    """Reduce a convex combination to at most ``target_support`` points
    without moving the combination point."""
    w = w.copy()
    while np.count_nonzero(w) > target_support:
        idx = np.flatnonzero(w)
        Q = P[idx]
        # affine dependence among the support points
        A = np.vstack([Q.T, np.ones(len(idx))])
        _, _, Vt = np.linalg.svd(A)
        null = Vt[-1]
        if np.max(np.abs(A @ null)) > 1e-9:
            break
        pos = null > 1e-14
        if not np.any(pos):
            null = -null
            pos = null > 1e-14
        theta = np.min(w[idx][pos] / null[pos])
        w[idx] = w[idx] - theta * null
        w[w < 1e-14] = 0.0
        w = w / w.sum()
    return w


@dataclass
class ConvexSearchResult:
    success: bool
    indices: list = field(default_factory=list)
    weights: np.ndarray | None = None
    norm: float = np.inf
    radius: float = np.nan
    reason: str = ""


def convex_gradient_search(samples, eta) -> ConvexSearchResult:
    """N+1 gradients with a convex combination of norm below eta.

    ``samples`` is a list of (point, gradient in R^N).  Clusters are
    balls around each sample point, tried over the radii 1, 1/2, ...,
    1/16 times the sample spread; the first cluster whose gradient hull
    comes within eta of the origin wins.
    """
    pts = np.array([np.atleast_1d(p) for p, _ in samples], dtype=float)
    grads = np.array([np.atleast_1d(v) for _, v in samples], dtype=float)
    N = grads.shape[1]
    spread = np.max(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)) if len(pts) > 1 else 1.0
    any_cluster = False
    for r in (max(spread, 1e-12) * f for f in (1.0, 0.5, 0.25, 0.125, 0.0625)):
        for i in range(len(pts)):
            members = np.flatnonzero(np.linalg.norm(pts - pts[i], axis=-1) <= r)
            if len(members) < N + 1:
                continue
            any_cluster = True
            w_local, x = min_norm_point(grads[members])
            norm = float(np.linalg.norm(x))
            if norm < eta:
                w_local = _caratheodory(grads[members], w_local, N + 1)
                idx = [int(members[j]) for j in np.flatnonzero(w_local)]
                weights = list(w_local[np.flatnonzero(w_local)])
                # pad with zero-weight cluster members to exactly N+1 entries
                for j in members:
                    if len(idx) >= N + 1:
                        break
                    if int(j) not in idx:
                        idx.append(int(j))
                        weights.append(0.0)
                return ConvexSearchResult(True, idx, np.asarray(weights), norm, r)
    reason = ("no cluster with N+1 samples" if not any_cluster
              else "no cluster hull within eta of the origin")
    return ConvexSearchResult(False, reason=reason)


# ---------------------------------------------------------------------------
# rational weights
# ---------------------------------------------------------------------------

#: the largest common denominator :func:`rationalize` tries
_D_MAX = 10**7


def rationalize(alphas, lengths, m):
    """Smallest common denominator d with |alpha_j/L_j - c_j/d| < 1/(m J L_j).

    The strict bounds are re-verified in exact rational arithmetic on
    the binary expansions of the inputs.
    """
    if not 0 < m < math.inf:
        raise ValueError(f"m must be positive and finite, got m = {m!r}")
    alphas = [float(a) for a in alphas]
    lengths = [float(L) for L in lengths]
    J = len(alphas)
    if any(L <= 0 for L in lengths):
        raise ValueError("net lengths must be positive")
    targets = [Fraction(a) / Fraction(L) for a, L in zip(alphas, lengths)]
    bounds = [1 / (Fraction(m) * J * Fraction(L)) for L in lengths]
    d = 1
    while d <= _D_MAX:
        cs = [max(0, round(t * d)) for t in targets]
        if all(abs(t - Fraction(c, d)) < b for t, c, b in zip(targets, cs, bounds)):
            return [int(c) for c in cs], d
        d += 1
    raise ValueError(f"no common denominator up to {_D_MAX} meets the bounds")


# ---------------------------------------------------------------------------
# sequence merging and running ratios
# ---------------------------------------------------------------------------

def _merge_schedule(blocks, length_fn):
    """Repetition counts R_m of the dominance schedule.

    R_m is the smallest integer making block m's repeated total length at
    least m times everything emitted before it (R = 1 for the first
    block).  Returns (reps, unit lengths) without emitting anything.  The
    emitted totals grow super-exponentially in m, beyond the float range
    near 200 blocks, so the counts are Python integers and the unit
    lengths exact fractions of the float inputs.
    """
    reps, unit_lengths = [], []
    emitted = Fraction(0)
    for nets, (c_list, _d), m in blocks:
        if not nets or all(c == 0 for c in c_list):
            raise ValueError(f"block {m} is empty")
        unit_len = sum(c * Fraction(float(length_fn(net))) for net, c in zip(nets, c_list))
        r = 1 if emitted == 0 else max(1, math.ceil(m * emitted / unit_len))
        reps.append(r)
        unit_lengths.append(unit_len)
        emitted += r * unit_len
    return reps, unit_lengths


def merged_block_ratios(blocks, value_fn, length_fn):
    """Running integral-over-length ratio at the end of every block.

    Closed-form partial sums over the dominance schedule, usable when
    the flat sequence is far too long to materialize.  ``value_fn(net)``
    is the line integral of the test function over one copy of the net.
    """
    reps, unit_lengths = _merge_schedule(blocks, length_fn)
    num = den = Fraction(0)
    out = []
    for (nets, (c_list, _d), _m), r, ul in zip(blocks, reps, unit_lengths):
        num += r * sum(c * Fraction(float(value_fn(net))) for net, c in zip(nets, c_list))
        den += r * ul
        out.append(float(num / den))
    return np.asarray(out)


#: the most entries :func:`merge_sequences` emits
_MAX_EMIT = 10**6


def merge_sequences(blocks, length_fn):
    """Flatten weighted blocks into one sequence with late-block dominance.

    ``blocks`` is a list of (nets, (c_list, d), m) and ``length_fn(net)``
    the length of one copy of a net.  Block m's unit is net j repeated
    c_j times; the unit is emitted R_m times, with R_m from
    :func:`_merge_schedule`.  Returns (sequence, index_map) with
    index_map[i] = (m, j).

    The schedule grows super-exponentially in m; when more than
    :data:`_MAX_EMIT` entries would be emitted a ValueError is raised and
    the closed-form :func:`merged_block_ratios` should be used instead.
    """
    reps, _ = _merge_schedule(blocks, length_fn)
    sequence, index_map = [], []
    for (nets, (c_list, _d), m), r in zip(blocks, reps):
        unit = [(net, (m, j)) for j, (net, c) in enumerate(zip(nets, c_list))
                for _ in range(c)]
        if len(sequence) + r * len(unit) > _MAX_EMIT:
            raise ValueError(
                f"merged sequence exceeds {_MAX_EMIT} entries at block {m}; "
                "use merged_block_ratios for the closed-form running ratio")
        for _ in range(r):
            for net, tag in unit:
                sequence.append(net)
                index_map.append(tag)
    return sequence, index_map


def ratio_series(integrals, lengths):
    """Partial ratios sum(integrals[:k]) / sum(lengths[:k]), k = 1..n."""
    num = np.cumsum(np.asarray(integrals, dtype=float))
    den = np.cumsum(np.asarray(lengths, dtype=float))
    if np.any(den <= 0.0):
        raise DegenerateNetError("running ratio needs positive cumulative length")
    return num / den


def running_ratio(sequence, fld, metric: Surface):
    """Partial ratios of summed line integrals over summed lengths, each
    net measured by one midpoint rule pass per edge."""
    if not sequence:
        raise ValueError("running ratio of an empty sequence")
    lengths, integrals = zip(*(net._length_and_integral(fld, metric) for net in sequence))
    return ratio_series(integrals, lengths)
