"""Reference computations the benchmark checks the library against.

Everything here is worked out with numpy and ``fractions`` alone and never
calls ``geonets``, so that a wrong library result cannot agree with its
own check.  ``test_checks.py`` pins each function to values worked out by
hand.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckError(AssertionError):
    """A library output disagrees with its reference value or property."""


def require(ok, what):
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# Fermat points of lattice-shift triangles (stationary theta nets)
# ---------------------------------------------------------------------------

def triangle_angles(tri):
    """Interior angles in degrees, at each vertex of ``tri`` in order."""
    pts = [np.asarray(p, dtype=float) for p in tri]
    out = []
    for i in range(3):
        u = pts[(i + 1) % 3] - pts[i]
        v = pts[(i + 2) % 3] - pts[i]
        c = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        out.append(math.degrees(math.acos(max(-1.0, min(1.0, c)))))
    return out


def triangle_area(tri):
    p, q, r = [np.asarray(x, dtype=float) for x in tri]
    return 0.5 * abs((q - p)[0] * (r - p)[1] - (q - p)[1] * (r - p)[0])


def fermat_length(tri):
    """Shortest total distance from one point to the three vertices:
    sqrt((a^2 + b^2 + c^2)/2 + 2 sqrt(3) Area), valid when every angle
    is below 120 degrees."""
    pts = [np.asarray(p, dtype=float) for p in tri]
    sq = sum(float(np.sum((pts[i] - pts[(i + 1) % 3]) ** 2)) for i in range(3))
    return math.sqrt(sq / 2.0 + 2.0 * math.sqrt(3.0) * triangle_area(tri))


def fermat_point(tri):
    """First isogonic centre from its barycentric coordinates
    a csc(A + 60) : b csc(B + 60) : c csc(C + 60)."""
    pts = [np.asarray(p, dtype=float) for p in tri]
    angles = triangle_angles(tri)
    w = []
    for i in range(3):
        side = np.linalg.norm(pts[(i + 1) % 3] - pts[(i + 2) % 3])
        w.append(side / math.sin(math.radians(angles[i] + 60.0)))
    w = np.asarray(w) / sum(w)
    return sum(wi * p for wi, p in zip(w, pts))


# ---------------------------------------------------------------------------
# flat torus distances
# ---------------------------------------------------------------------------

def torus_min_image(p, q):
    """Minimum-image distances on the unit flat torus, broadcast over the
    leading axes of ``p`` and ``q`` (shape ``(..., 2)``)."""
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    d = d - np.round(d)
    return np.sqrt(np.sum(d * d, axis=-1))


def certificate_minima(edges, paths, inj):
    """``dE_min`` and ``dEE_min`` of the embeddedness certificate on the
    flat torus, from its separation windows and minimum-image distances.

    ``edges`` is a list of (v0, v1) vertex names, ``paths`` the matching
    (m, 2) sample arrays taken at uniform parameters t = j/(m-1).
    """
    lengths = [float(np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1))) for p in paths]
    dE = {}
    for i, ((v0, v1), pts) in enumerate(zip(edges, paths)):
        m = pts.shape[0]
        t = np.linspace(0.0, 1.0, m)
        sep = np.abs(t[:, None] - t[None, :])
        if v0 == v1:
            sep = np.minimum(sep, 1.0 - sep)
        window = min(inj / lengths[i], 0.5)
        a, b = np.triu_indices(m, 1)
        keep = sep[a, b] >= window - 1e-12
        d = torus_min_image(pts[a[keep]], pts[b[keep]])
        dE[i] = float(np.min(d)) if d.size else math.inf
    dEE = {}
    for i, (ei, pi) in enumerate(zip(edges, paths)):
        for j, (ej, pj) in enumerate(zip(edges, paths)):
            if i == j:
                continue
            ti = np.linspace(0.0, 1.0, pi.shape[0])
            tj = np.linspace(0.0, 1.0, pj.shape[0])
            wi = inj / lengths[i]
            wj = inj / lengths[j]
            # shared ends: (end of edge j, end of edge i) at one vertex
            shared = [(jj, ii) for jj in (0, 1) for ii in (0, 1) if ej[jj] == ei[ii]]
            allowed = np.ones((ti.size, tj.size), dtype=bool)
            for end_j, end_i in shared:
                near_i = np.abs(ti - end_i) <= wi
                near_j = np.abs(tj - end_j) < wj
                allowed &= ~(near_i[:, None] & near_j[None, :])
            d = torus_min_image(pi[:, None, :], pj[None, :, :])[allowed]
            dEE[(i, j)] = float(np.min(d)) if d.size else math.inf
    return dE, dEE


# ---------------------------------------------------------------------------
# exact rationalization re-check
# ---------------------------------------------------------------------------

def rational_bounds_hold(alphas, lengths, m, c, d):
    """|alpha_j / L_j - c_j / d| < 1 / (m J L_j) for every j, in exact
    arithmetic on the binary values of the inputs."""
    J = len(alphas)
    if d < 1 or len(c) != J or any(int(cj) != cj or cj < 0 for cj in c):
        return False
    for a, L, cj in zip(alphas, lengths, c):
        gap = abs(Fraction(float(a)) / Fraction(float(L)) - Fraction(int(cj), int(d)))
        if not gap < Fraction(1) / (m * J * Fraction(float(L))):
            return False
    return True


# ---------------------------------------------------------------------------
# midpoint sums along straight segments (first variation on the flat torus)
# ---------------------------------------------------------------------------

def cosine_midpoint_sum(phi0, omega, n):
    """sum_{i=0}^{n-1} cos(phi0 + omega (i + 1/2)) in closed form."""
    half = 0.5 * omega
    s = math.sin(half)
    if abs(s) < 1e-12:
        # omega is a multiple of 2 pi: every term equals cos(phi0 + half)
        return n * math.cos(phi0 + half)
    return math.cos(phi0 + n * half) * math.sin(n * half) / s


def plane_wave_segment_sum(k, start, delta, n):
    """sum over the n segment midpoints of start + s delta (s = (i+1/2)/n)
    of cos(2 pi k . x)."""
    k = np.asarray(k, dtype=float)
    phi0 = 2.0 * math.pi * float(k @ np.asarray(start, dtype=float))
    omega = 2.0 * math.pi * float(k @ np.asarray(delta, dtype=float)) / n
    return cosine_midpoint_sum(phi0, omega, n)


def cos_mode_segment_sum(a, b, start, delta, n):
    """Midpoint sum of cos(2 pi a x) cos(2 pi b y) along one segment."""
    return 0.5 * (plane_wave_segment_sum((a, b), start, delta, n)
                  + plane_wave_segment_sum((a, -b), start, delta, n))


def straight_first_variation(direction, segments):
    """Analytic first variation of length on the flat torus for straight
    edges.

    ``segments`` holds (start, delta, n, mult): an edge from ``start`` to
    ``start + delta`` sampled at n + 1 equally spaced points.
    ``direction`` is ``("conformal", a, b)`` for the tensor
    2 cos(2 pi a x) cos(2 pi b y) g or ``("dx2",)`` for cos(2 pi y) dx^2.
    The midpoint rule gives 1/2 sum T(d, d) / |d| over the segments d.
    """
    total = 0.0
    for start, delta, n, mult in segments:
        delta = np.asarray(delta, dtype=float)
        length = float(np.linalg.norm(delta))
        if direction[0] == "conformal":
            _, a, b = direction
            total += mult * length / n * cos_mode_segment_sum(a, b, start, delta, n)
        else:
            wave = cos_mode_segment_sum(0, 1, start, delta, n)
            total += mult * 0.5 * delta[0] ** 2 / length / n * wave
    return total


# ---------------------------------------------------------------------------
# line and surface averages of Fourier modes on the flat torus
# ---------------------------------------------------------------------------

def circle_mode_average(klass, offset, mode):
    """Average of cos(2 pi (a x + b y) + phase) along the closed straight
    circle of class (p, q) through ``offset``: the mode survives only when
    a p + b q = 0."""
    p, q = klass
    a, b, phase = mode
    if a * p + b * q != 0:
        return 0.0
    return math.cos(2.0 * math.pi * (a * offset[0] + b * offset[1]) + phase)


def torus_mode_average(mode):
    """Area average of cos(2 pi (a x + b y) + phase) over the unit torus."""
    a, b, phase = mode
    return math.cos(phase) if a == 0 and b == 0 else 0.0


def bump_ratio_series(klasses, offsets):
    """Running ratio of integral over length of
    1/4 (1 + cos 2 pi x)(1 + cos 2 pi y) along straight circles."""
    num = den = 0.0
    out = []
    for (p, q), off in zip(klasses, offsets):
        # 1/4 (1 + cx + cy + (c(x+y) + c(x-y))/2) in plane waves
        modes = [(0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 0.5), (1, -1, 0.5)]
        avg = 0.25 * sum(w * circle_mode_average((p, q), off, (a, b, 0.0))
                         for a, b, w in modes)
        length = math.hypot(p, q)
        num += avg * length
        den += length
        out.append(num / den)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# junction angles, dumbbell distances, merged-sequence envelope
# ---------------------------------------------------------------------------

def junction_angles(paths, vertex_ends):
    """Pairwise angles (degrees) between the flat inward tangents of the
    polylines meeting at one vertex; ``vertex_ends`` lists (edge, end)."""
    units = []
    for e, end in vertex_ends:
        pts = paths[e]
        v = pts[1] - pts[0] if end == 0 else pts[-2] - pts[-1]
        units.append(v / np.linalg.norm(v))
    out = []
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            c = float(np.clip(units[i] @ units[j], -1.0, 1.0))
            out.append(math.degrees(math.acos(c)))
    return out


def neck_distance_bounds(radius, dtheta):
    """(R^3 chord, arc along the circle) between two points of a circle of
    the given radius that differ by the angle ``dtheta``."""
    dtheta = abs(math.remainder(dtheta, 2.0 * math.pi))
    return 2.0 * radius * math.sin(0.5 * dtheta), radius * dtheta


def envelope_holds(ratios, alpha, D):
    """|r_m - alpha| <= 2 D / m for every block m = 1, 2, ..."""
    r = np.asarray(ratios, dtype=float)
    m = np.arange(1, r.size + 1)
    return bool(np.all(np.abs(r - alpha) <= 2.0 * D / m))
