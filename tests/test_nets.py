"""Weighted multigraphs and discrete nets."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonets import (ConformalFamily, DegenerateNetError, Edge, GammaNet, WeightedMultigraph,
                     ScalarField, build_partition, constant_field, dumbbell_circle, loop_graph,
                     sphere_latitude, theta_graph, torus_geodesic, torus_theta_net)
from geonets.solver import _Dofs, _length_and_dof_grad
from geonets.variation import LinearlyPerturbedSurface


def test_graph_degree_and_components():
    g = WeightedMultigraph(["a", "b", "c"],
                           [Edge("a", "b", 1), Edge("b", "c", 2), Edge("c", "a", 1)])
    assert g.degree("b") == 2
    assert len(g.components()) == 1


def test_goodness():
    # a loop with multiplicity is good
    assert all(loop_graph(mult=2).is_good())
    assert all(loop_graph(mult=1).is_good())
    # theta graph: all vertices have degree 3
    assert all(theta_graph().is_good())
    # a bare arc is not good
    arc = WeightedMultigraph(["a", "b"], [Edge("a", "b", 1)])
    assert not all(arc.is_good())


def test_torus_geodesic_length(torus):
    for klass, L in [((1, 0), 1.0), ((0, 1), 1.0), ((3, 4), 5.0), ((1, 1), np.sqrt(2))]:
        net = torus_geodesic(klass)
        assert net.length(torus) == pytest.approx(L, abs=1e-12)


def test_multiplicity_linearity(torus):
    base = torus_geodesic((2, 1))
    tripled = torus_geodesic((2, 1), mult=3)
    assert tripled.length(torus) == 3.0 * base.length(torus)


def test_resample_preserves_length_and_integrals(torus):
    net = torus_geodesic((3, 4), samples=200)
    fld = ScalarField(lambda c, x: np.cos(2 * np.pi * np.asarray(x)[..., 1]))
    re = net.resample(torus, 333)
    assert re.length(torus) == pytest.approx(net.length(torus), rel=1e-9)
    assert re.integrate(fld, torus) == pytest.approx(net.integrate(fld, torus), abs=1e-8)


def test_reversed_edge_keeps_length(torus):
    net = torus_geodesic((2, 3))
    rev = net.reversed_edge(0)
    assert rev.length(torus) == pytest.approx(net.length(torus), abs=1e-12)


def test_fourier_modes_vanish_along_geodesics(torus):
    # trapezoid sums of integer-frequency modes along (k,1) circles are exact
    for k in (1, 2, 5, 17):
        net = torus_geodesic((k, 1), samples=max(64, 4 * k))
        for a, b in [(1, 0), (0, 1), (2, 3)]:
            if a * k + b == 0:
                continue
            fld = ScalarField(lambda c, x, a=a, b=b: np.cos(
                2 * np.pi * (a * np.asarray(x)[..., 0] + b * np.asarray(x)[..., 1])))
            assert abs(net.integrate(fld, torus)) < 1e-10


def test_average_integral_of_constant(torus):
    net = torus_geodesic((3, 4), mult=2)
    fld = ScalarField(lambda c, x: np.full(np.asarray(x).shape[:-1], 7.0))
    assert net.average_integral(fld, torus) == pytest.approx(7.0, rel=1e-12)


def test_average_integral_measures_each_edge_once(torus, monkeypatch):
    net = torus_theta_net([(1, 0), (0, 1), (-1, -1)])
    fld = ScalarField(lambda c, x: np.cos(2 * np.pi * np.asarray(x)[..., 0]))
    length, total, metric, calls = net.length(torus), net.integrate(fld, torus), torus.metric, []
    monkeypatch.setattr(torus, "metric", lambda chart, x: calls.append(chart) or metric(chart, x))
    assert net.average_integral(fld, torus) == total / length
    assert len(calls) == len(net.graph.edges)


def test_json_roundtrip(torus):
    net = torus_theta_net([(1, 0), (0, 1), (-1, -1)])
    back = GammaNet.from_json(net.to_json())
    assert back.length(torus) == pytest.approx(net.length(torus), abs=1e-15)
    assert [e.mult for e in back.graph.edges] == [e.mult for e in net.graph.edges]
    for i in range(len(net.graph.edges)):
        assert np.allclose(back.edge_paths[i][1], net.edge_paths[i][1])


def test_theta_net_structure(torus):
    net = torus_theta_net([(1, 0), (0, 1), (-1, -1)])
    assert len(net.graph.edges) == 3
    assert net.graph.is_good()
    assert net.length(torus) > 0


@pytest.mark.parametrize("offset", [(0.1,), 0.1, (0.1, 0.2, 0.3)])
def test_torus_nets_reject_an_offset_that_is_not_a_point(offset):
    # a 1-vector offset once broadcast to (0.1, 0.1)
    with pytest.raises(ValueError, match="offset"):
        torus_geodesic((1, 0), offset=offset)
    with pytest.raises(ValueError, match="offset"):
        torus_theta_net([(1, 0), (0, 1), (-1, -1)], offset=offset)


def test_sphere_latitude_length(sphere):
    eq = sphere_latitude(sphere, np.pi / 2)
    assert eq.length(sphere) == pytest.approx(2 * np.pi, rel=1e-4)
    small = sphere_latitude(sphere, 0.3)
    assert small.length(sphere) == pytest.approx(2 * np.pi * np.sin(0.3), rel=1e-3)


def test_dumbbell_circle_length(dumbbell):
    waist = dumbbell_circle(dumbbell, 0.5)
    assert waist.length(dumbbell) == pytest.approx(2 * np.pi * dumbbell.neck, rel=1e-4)


def test_min_edge_length(torus):
    net = torus_theta_net([(1, 0), (0, 1), (-1, -1)])
    assert 0 < min(net.edge_lengths(torus)) <= net.length(torus)


def test_zero_length_average_raises(torus):
    graph = loop_graph()
    pts = np.tile(np.array([0.25, 0.25]), (16, 1))
    net = GammaNet(graph, {"v": ("main", pts[0].copy())}, [("main", pts)])
    fld = ScalarField(lambda c, x: np.ones(np.asarray(x).shape[:-1]))
    with pytest.raises(DegenerateNetError):
        net.average_integral(fld, torus)


# ---------------------------------------------------------------------------
# properties of the midpoint rule behind every length and line integral
# ---------------------------------------------------------------------------

CLASSES = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda k: gcd(*k) == 1)
SHIFTS = st.sampled_from([[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (0, 0)],
                          [(1, 0), (0, 0), (1, 1)]])


def _wiggled(net, seed, scale=0.01):
    """``net`` with every interior sample moved by Gaussian noise."""
    rng, out = np.random.default_rng(seed), net.copy()
    for i, (chart, pts) in enumerate(out.edge_paths):
        noise = scale * rng.standard_normal(pts.shape)
        noise[0] = noise[-1] = 0.0
        out.edge_paths[i] = (chart, pts + noise)
    return out


def _off_diagonal_torus(torus, s=0.2):
    """The flat torus plus s T, with T(x, y) = [[cos 2 pi x, sin 2 pi y], [sin 2 pi y, 0]]."""

    def tensor(chart, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = np.cos(2 * np.pi * x[..., 0])
        out[..., 0, 1] = out[..., 1, 0] = np.sin(2 * np.pi * x[..., 1])
        return out

    def tensor_deriv(chart, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = -2 * np.pi * np.sin(2 * np.pi * x[..., 0])
        out[..., 1, 0, 1] = out[..., 1, 1, 0] = 2 * np.pi * np.cos(2 * np.pi * x[..., 1])
        return out

    return LinearlyPerturbedSurface(torus, tensor, tensor_deriv, s)


@pytest.fixture(scope="module")
def torus_bumps(torus):
    return build_partition(torus, 0.3, 4)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(klass=CLASSES, shifts=SHIFTS, c=st.floats(-0.9, 0.9), seed=st.integers(0, 2**16),
       colat=st.floats(0.05, np.pi - 0.05), samples=st.integers(3, 80))
def test_conformal_length_law(torus, sphere, klass, shifts, c, seed, colat, samples):
    cases = [(_wiggled(torus_geodesic(klass, samples=samples), seed), torus),
             (_wiggled(torus_theta_net(shifts, samples=samples), seed), torus),
             (sphere_latitude(sphere, colat, samples=samples), sphere)]
    for net, base in cases:
        scaled = ConformalFamily(base, [constant_field(1.0)]).at([c])
        assert net.length(scaled) == pytest.approx(np.exp(c) * net.length(base), rel=1e-14)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(klass=CLASSES, mult=st.integers(1, 7), seed=st.integers(0, 2**16))
def test_multiplicity_linearity_is_exact(torus, torus_bumps, klass, mult, seed):
    (chart, pts), = _wiggled(torus_geodesic(klass, samples=24), seed).edge_paths
    single, multiple = (GammaNet(loop_graph(m), {"v": (chart, pts[0])}, [(chart, pts)])
                        for m in (1, mult))
    fld = torus_bumps.psi[seed % torus_bumps.K]
    assert multiple.length(torus) == mult * single.length(torus)
    assert multiple.integrate(fld, torus) == mult * single.integrate(fld, torus)
    assert np.array_equal(multiple.integrate(torus_bumps.psi_values, torus),
                          mult * single.integrate(torus_bumps.psi_values, torus))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(shifts=SHIFTS, edge=st.integers(0, 2), seed=st.integers(0, 2**16),
       samples=st.integers(3, 64))
def test_edge_reversal_invariance(torus, torus_bumps, shifts, edge, seed, samples):
    net = _wiggled(torus_theta_net(shifts, samples=samples), seed)
    rev = net.reversed_edge(edge)
    assert rev.length(torus) == pytest.approx(net.length(torus), rel=1e-14)
    assert rev.edge_lengths(torus)[edge] == pytest.approx(net.edge_lengths(torus)[edge], rel=1e-14)
    assert np.allclose(rev.integrate(torus_bumps.psi_values, torus),
                       net.integrate(torus_bumps.psi_values, torus), rtol=1e-14, atol=1e-15)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(shifts=SHIFTS, seed=st.integers(0, 2**16), c=st.floats(-0.5, 0.5))
def test_vector_integrate_rows_are_scalar_integrals(torus, torus_bumps, shifts, seed, c):
    net = _wiggled(torus_theta_net(shifts, samples=20), seed)
    wave = ScalarField(lambda chart, x: np.cos(2 * np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1]))
    metric = ConformalFamily(torus, [wave]).at([c])
    rows = net.integrate(torus_bumps.psi_values, metric)
    averages = net.average_integral(torus_bumps.psi_values, metric)
    assert rows.shape == averages.shape == (torus_bumps.K,)
    for k, psi in enumerate(torus_bumps.psi):
        assert rows[k] == net.integrate(psi, metric)
        assert averages[k] == net.average_integral(psi, metric)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(klass=CLASSES, shifts=SHIFTS, seed=st.integers(0, 2**16), samples=st.integers(3, 64))
def test_net_length_is_the_solver_length(torus, dumbbell, klass, shifts, seed, samples):
    skewed = _off_diagonal_torus(torus)
    cases = [(_wiggled(torus_geodesic(klass, samples=samples), seed), skewed),
             (_wiggled(torus_theta_net(shifts, samples=samples), seed), skewed),
             (_wiggled(torus_theta_net(shifts, samples=samples), seed), torus),
             (_wiggled(dumbbell_circle(dumbbell, 0.3, samples=samples), seed), dumbbell)]
    for net, metric in cases:
        dofs = _Dofs(net, metric)
        L = _length_and_dof_grad(dofs, metric, dofs.pack())[0]
        assert L == pytest.approx(net.length(metric), rel=1e-14)
