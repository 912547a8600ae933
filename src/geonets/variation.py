"""First variation of length under metric perturbations.

For a net stationary under g(s), the derivative of its length along a
metric family with d g / d s = T is  1/2 * integral of trace T along the
net.  The analytic value here uses the segment-midpoint trace rule of
:meth:`GammaNet.segment_trace_integral`, built on the same
:func:`~geonets.surfaces.midpoint_rule` as every discrete length; it is
algebraically the s-derivative of that length, so finite differences of
re-solved nets reproduce it to solver precision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .nets import GammaNet, torus_geodesic, torus_theta_net
from .solver import solve_stationary, stationarity_residual, stationary_tracker
from .surfaces import ConformalFamily, DerivedSurface, FlatTorus, ScalarField, Surface, _richardson


@dataclass
class PerturbationDirection:
    """Symmetric 2-tensor field dg/dv, as a map (chart, pts) -> (..., 2, 2)."""
    tensor: object
    description: str = ""

    def __call__(self, chart, x):
        return np.asarray(self.tensor(chart, x))


def conformal_direction(surface: Surface, psi: ScalarField):
    """The direction 2 psi g of the conformal family e^{2 s psi} g at s=0:
    :meth:`ConformalFamily.deriv_tensor` of that family."""
    return PerturbationDirection(ConformalFamily(surface, [psi]).deriv_tensor(0.0, 0),
                                 f"conformal({psi.name})")


def family_direction(family, t):
    """Coordinate direction d ghat / d t_0 of a metric family at t."""
    return PerturbationDirection(family.deriv_tensor(t, 0), "family dt_0")


class StationarityWarning(UserWarning):
    pass


def first_variation(net: GammaNet, metric: Surface, direction) -> float:
    """1/2 times the trace of the direction tensor integrated along the net.

    Warns (but still returns the value) when the net is not stationary
    (its :func:`~geonets.solver.stationarity_residual` exceeds 1e-6):
    the formula is the length derivative only on stationary families.
    """
    residual = stationarity_residual(net, metric)
    if residual > 1e-6:
        warnings.warn(f"first variation on a non-stationary net "
                      f"(residual {residual:.3e})", StationarityWarning)
    return 0.5 * net.segment_trace_integral(direction, metric)


def fd_length_derivative(net_family, metric_family, t) -> float:
    """Richardson-extrapolated central difference of s -> length(net(s), g(s))
    at steps 1e-3 and 1e-3 / 2.

    ``net_family(s)`` must return the stationary net under
    ``metric_family(s)`` (typically a re-solve seeded from the net at t).
    """

    def L(s):
        return net_family(s).length(metric_family(s))

    def central(step):
        return (L(t + step) - L(t - step)) / (2 * step)

    return _richardson(central(1e-3), central(1e-3 / 2))


def resolved_family(init: GammaNet, metric_family):
    """net_family(s) that re-solves from ``init`` under metric_family(s)."""

    def net_at(s):
        return solve_stationary(init, metric_family(s)).net

    return net_at


# ---------------------------------------------------------------------------
# rescaled closeness
# ---------------------------------------------------------------------------

def eps_close(f_samples, g_samples, delta, eps):
    """Whether sup |f(delta s) - g(delta s)| / delta < eps on the grid.

    Returns (flag, attained sup); the comparison is strict.
    """
    f = np.asarray(f_samples, dtype=float)
    g = np.asarray(g_samples, dtype=float)
    if f.shape != g.shape:
        raise ValueError("sample grids do not match")
    sup = float(np.max(np.abs(f - g))) / float(delta)
    return sup < eps, sup


# ---------------------------------------------------------------------------
# linearly perturbed metrics (non-conformal FD families)
# ---------------------------------------------------------------------------

class LinearlyPerturbedSurface(DerivedSurface):
    """g + s T for a fixed symmetric tensor field T (small s keeps SPD)."""

    def __init__(self, base: Surface, tensor, tensor_deriv, s):
        super().__init__(base, f"{base.name}+sT")
        self._T = tensor
        self._dT = tensor_deriv
        self.s = float(s)

    def metric(self, chart, x):
        return self.base.metric(chart, x) + self.s * np.asarray(self._T(chart, x))

    def metric_deriv(self, chart, x):
        return self.base.metric_deriv(chart, x) + self.s * np.asarray(self._dT(chart, x))


# ---------------------------------------------------------------------------
# built-in battery: 10 nets x 5 directions on the flat torus
# ---------------------------------------------------------------------------

@dataclass
class BatteryRow:
    net_name: str
    direction: str
    analytic: float
    fd: float

    @property
    def abs_error(self):
        return abs(self.analytic - self.fd)

    @property
    def tolerance(self):
        return max(1e-6, 1e-4 * abs(self.analytic))

    @property
    def passed(self):
        return self.abs_error <= self.tolerance


def _battery_nets(torus):
    """Ten stationary nets at symmetric positions of the unit torus.

    Offsets sit on the half-lattice so that each net stays a critical
    point (by symmetry) under the battery's cosine-mode perturbations,
    keeping the re-solved family continuous through s = 0.
    """
    nets = [
        ("circle(1,0)@y=0", torus_geodesic((1, 0), offset=(0.0, 0.0))),
        ("circle(1,0)@y=0.5", torus_geodesic((1, 0), offset=(0.0, 0.5))),
        ("circle(0,1)@x=0", torus_geodesic((0, 1), offset=(0.0, 0.0))),
        ("circle(0,1)@x=0.5", torus_geodesic((0, 1), offset=(0.5, 0.0))),
        ("circle(1,1)", torus_geodesic((1, 1), offset=(0.0, 0.0))),
        ("circle(1,-1)", torus_geodesic((1, -1), offset=(0.0, 0.0))),
        ("circle(2,1)", torus_geodesic((2, 1), offset=(0.0, 0.0))),
        ("circle(3,4)", torus_geodesic((3, 4), offset=(0.0, 0.0), samples=256)),
        ("circle(1,0)xmult3", torus_geodesic((1, 0), offset=(0.0, 0.0), mult=3)),
    ]
    theta = torus_theta_net([(1, 0), (0, 1), (-1, -1)])
    theta = solve_stationary(theta, torus).net
    nets.append(("theta-junction", theta))
    return nets


def _battery_directions(torus):
    """Four conformal modes cos(2 pi a x) cos(2 pi b y), the constant at
    (a, b) = (0, 0), and one non-conformal tensor mode.

    Each entry is (name, direction at s=0, metric family s -> Surface).
    """

    def cosfield(a, b):
        k = 2 * np.pi * np.array([a, b])

        def fn(chart, x):
            return np.prod(np.cos(k * np.asarray(x, dtype=float)), axis=-1)

        def gfn(chart, x):
            kx = k * np.asarray(x, dtype=float)
            return -k * np.sin(kx) * np.cos(kx)[..., ::-1]

        return ScalarField(fn, grad_fn=gfn, name=f"cos({a}x)cos({b}y)")

    entries = []
    for name, (a, b) in [("2g (global)", (0, 0)), ("2cos(2piy)g", (0, 1)),
                         ("2cos(2pix)g", (1, 0)), ("2cos(2pix)cos(2piy)g", (1, 1))]:
        fld = cosfield(a, b)
        family = ConformalFamily(torus, [fld])
        entries.append((name, conformal_direction(torus, fld),
                        lambda s, fam=family: fam.at([s])))

    def T(chart, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = np.cos(2 * np.pi * x[..., 1])
        return out

    def dT(chart, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 1, 0, 0] = -2 * np.pi * np.sin(2 * np.pi * x[..., 1])
        return out

    entries.append(("cos(2piy)dx^2", PerturbationDirection(T, "cos(2piy)dx^2"),
                    lambda s: LinearlyPerturbedSurface(torus, T, dT, s)))
    return entries


def run_battery():
    """The 10-net x 5-direction agreement table (analytic vs FD).

    Finite differences use branch tracking (one pseudo-inverted Hessian
    per net, shared across directions) so that nets sitting on
    translation-degenerate families stay on the branch through the base
    net instead of sliding to another translate under perturbation.
    """
    torus = FlatTorus()
    rows = []
    for net_name, net in _battery_nets(torus):
        track = stationary_tracker(net, torus)
        for dir_name, direction, metric_family in _battery_directions(torus):
            analytic = first_variation(net, torus, direction)
            fd = fd_length_derivative(lambda s, mf=metric_family: track(mf(s)), metric_family, 0.0)
            rows.append(BatteryRow(net_name, dir_name, float(analytic), float(fd)))
    return rows
