"""Sweepouts, curve shortening and width estimates."""

import subprocess
import sys

import numpy as np
import pytest

from geonets import (ConformalFamily, DomainError, Edge, GammaNet, ScalarField,
                     WeightedMultigraph, birkhoff_shorten, build_sweepout, constant_field,
                     dumbbell_circle, dumbbell_realizer, dumbbell_width, minmax_upper_bound,
                     sphere_latitude, weyl_ratio_probe)
from geonets.minmax import _birkhoff_sweep, _bounded_minimize
from geonets.surfaces import Dumbbell, DumbbellWidthFamily


def _wiggly_circle(amplitude=0.1, samples=64):
    t = np.linspace(0.0, 1.0, samples)
    pts = np.stack([t, 0.3 + amplitude * np.sin(2 * np.pi * t)], axis=-1)
    graph = WeightedMultigraph(["v"], [Edge("v", "v", 1)])
    return GammaNet(graph, {"v": ("main", pts[0].copy())}, [("main", pts)])


def test_birkhoff_straightens_torus_circle(torus):
    res = birkhoff_shorten(_wiggly_circle(), torus)
    assert not res.collapsed
    assert res.length == pytest.approx(1.0, abs=1e-8)


def test_birkhoff_collapses_contractible_loop(torus):
    t = np.linspace(0.0, 2 * np.pi, 64)
    pts = 0.5 + 0.05 * np.stack([np.cos(t), np.sin(t)], axis=-1)
    graph = WeightedMultigraph(["v"], [Edge("v", "v", 1)])
    loop = GammaNet(graph, {"v": ("main", pts[0].copy())}, [("main", pts)])
    res = birkhoff_shorten(loop, torus)
    assert res.collapsed


def test_birkhoff_near_equator_converges_to_great_circle(sphere):
    start = sphere_latitude(sphere, np.pi / 2 - 1e-4, samples=2048)
    res = birkhoff_shorten(start, sphere)
    assert not res.collapsed
    assert res.length == pytest.approx(2 * np.pi, abs=1e-4)


def test_birkhoff_reaches_dumbbell_neck():
    # the sweeps alone stopped on a small length drop at 1.2819
    dumbbell = Dumbbell()
    theta = np.linspace(0.0, 2 * np.pi, 65)
    pts = np.stack([0.5 + 0.02 * np.sin(3 * theta), theta], axis=-1)
    graph = WeightedMultigraph(["v"], [Edge("v", "v", 1)])
    loop = GammaNet(graph, {"v": ("main", pts[0].copy())}, [("main", pts)])
    res = birkhoff_shorten(loop, dumbbell)
    assert not res.stalled and not res.collapsed
    assert abs(res.length - 2 * np.pi * 0.2) <= 1e-9


def test_birkhoff_returns_its_loop_when_newton_leaves_a_saddle(sphere):
    # the trust region slides off the equator and trips the edge floor
    start = sphere_latitude(sphere, np.pi / 2 - 1e-4, samples=2048)
    res = birkhoff_shorten(start, sphere)
    assert res.stalled and not res.collapsed
    assert res.length == pytest.approx(2 * np.pi, abs=1e-4)


def _reference_birkhoff(loop, metric, relax=0.5, tol=1e-10, max_sweeps=4000):
    """Point-by-point Gauss-Seidel shortening of one loop: (path, sweeps)."""
    chart, pts = loop.edge_paths[0]
    y, offset, m = pts[:-1].copy(), pts[-1] - pts[0], len(pts) - 1

    def length():
        closed = np.vstack([y, y[0] + offset])
        d, g = np.diff(closed, axis=0), metric.metric(chart, 0.5 * (closed[:-1] + closed[1:]))
        return float(np.sum(np.sqrt(np.einsum("si,sij,sj->s", d, g, d))))

    prev = length()
    for sweeps in range(1, max_sweeps + 1):
        for i in [*range(0, m, 2), *range(1, m, 2)]:
            a = y[i - 1] if i > 0 else y[m - 1] - offset
            b = y[i + 1] if i < m - 1 else y[0] + offset
            y[i] = (1.0 - relax) * y[i] + relax * metric.geodesic_midpoint(chart, a, b)
        cur = length()
        if cur < 1e-3 * metric.injectivity_lower_bound or prev - cur < tol:
            break
        prev = cur
    return np.vstack([y, y[0] + offset]), sweeps


@pytest.mark.parametrize("points", [17, 18])
@pytest.mark.parametrize("kind", ["torus", "sphere", "conformal-torus"])
def test_birkhoff_matches_sequential_sweeps(kind, points, torus, sphere):
    if kind == "sphere":
        metric, loop = sphere, sphere_latitude(sphere, np.pi / 2 - 0.3, samples=points + 1)
    else:
        metric, loop = torus, _wiggly_circle(samples=points + 1)
    if kind == "conformal-torus":
        bump = ScalarField(lambda c, x: np.cos(2 * np.pi * np.asarray(x)[..., 0]))
        metric = ConformalFamily(torus, [bump]).at([0.3])
    if kind == "sphere":
        # a collapsing latitude never reaches Newton: the whole run matches
        ref_path, ref_sweeps = _reference_birkhoff(loop, metric)
        res = birkhoff_shorten(loop, metric)
        assert res.collapsed
        assert res.sweeps == ref_sweeps
        assert np.max(np.abs(res.net.edge_paths[0][1] - ref_path)) <= 1e-13
        return
    # torus loops hand off to Newton, so one red-black sweep is compared
    ref_path, _ = _reference_birkhoff(loop, metric, max_sweeps=1)
    chart, pts = loop.edge_paths[0]
    y, offset = pts[:-1].copy(), pts[-1] - pts[0]
    _birkhoff_sweep(metric, chart, y, offset)
    assert np.max(np.abs(np.vstack([y, y[0] + offset]) - ref_path)) <= 1e-13


def test_torus_width_recipes(torus):
    for recipe in ("x-levels", "y-levels"):
        sw = build_sweepout(torus, 1, recipe)
        est = minmax_upper_bound(sw, torus)
        assert est.upper_bound == pytest.approx(1.0, abs=1e-10)
    # p = 4 uses 2 parallel circles
    sw = build_sweepout(torus, 4, "x-levels")
    est = minmax_upper_bound(sw, torus)
    assert est.upper_bound == pytest.approx(2.0, abs=1e-10)


def test_sphere_latitude_width(sphere):
    sw = build_sweepout(sphere, 1, "latitude")
    est = minmax_upper_bound(sw, sphere)
    assert est.upper_bound == pytest.approx(2 * np.pi, rel=1e-4)
    assert est.maximizer == pytest.approx(np.pi / 2, abs=1e-3)


def test_sphere_latitude_sweepout_ends_in_zero_length_poles(sphere):
    sw = build_sweepout(sphere, 1, "latitude")
    assert [sw.cycle_fn(c).length(sphere) for c in (0.0, np.pi)] == [0.0, 0.0]


def test_width_estimate_reports_a_stalled_shortening(sphere, torus):
    # the maximizing latitude is the equator, a saddle that Newton slides off
    sw = build_sweepout(sphere, 1, "latitude")
    res = birkhoff_shorten(sw.cycle_fn(minmax_upper_bound(sw, sphere).maximizer), sphere)
    assert res.stalled and not res.collapsed
    # a torus level circle is already a stable geodesic
    sw = build_sweepout(torus, 1, "x-levels")
    res = birkhoff_shorten(sw.cycle_fn(minmax_upper_bound(sw, torus).maximizer), torus)
    assert not res.stalled and not res.collapsed


def test_recipe_surface_mismatch(torus, sphere):
    with pytest.raises(ValueError):
        build_sweepout(sphere, 1, "x-levels")
    with pytest.raises(ValueError):
        build_sweepout(torus, 1, "latitude")
    with pytest.raises(ValueError):
        build_sweepout(sphere, 2, "latitude")


def test_sweepout_on_a_foreign_chart_is_domain_error(torus, sphere):
    # the latitudes once measured on the torus as flat chart circles
    sw = build_sweepout(sphere, 1, "latitude")
    with pytest.raises(DomainError, match="chart 'north' is not a chart of torus"):
        sw.lengths(sw.grid, torus)


@pytest.mark.parametrize("p", [0, -1, 2.5, True])
def test_sweepout_p_must_be_a_positive_int(torus, p):
    with pytest.raises(ValueError, match=r"^p must be a positive int"):
        build_sweepout(torus, p, "x-levels")
    family = ConformalFamily(torus, [constant_field(1.0)])
    with pytest.raises(ValueError, match=r"^p must be a positive int"):
        weyl_ratio_probe(family, [1, p], [0.0])


def _sweepout_cases(torus, sphere, dumbbell):
    wave = ScalarField(lambda c, x: np.sin(2 * np.pi * np.asarray(x)[..., 0])
                       * np.cos(2 * np.pi * np.asarray(x)[..., 1]))
    wavy_torus = ConformalFamily(torus, [wave]).at([0.3])
    tilted = ScalarField(lambda c, x: np.asarray(x)[..., 0] + 0.5 * np.asarray(x)[..., 1] ** 2)
    wavy_sphere = ConformalFamily(sphere, [tilted]).at([0.2])
    member = DumbbellWidthFamily(dumbbell).at(0.15)
    cases = [(f"{recipe}-p{p}", build_sweepout(wavy_torus, p, recipe), wavy_torus)
             for recipe in ("x-levels", "y-levels") for p in (1, 4, 9)]
    cases += [("latitude", build_sweepout(sphere, 1, "latitude"), sphere),
              ("latitude-conformal", build_sweepout(wavy_sphere, 1, "latitude"), wavy_sphere),
              ("profile-width-family", build_sweepout(member, 1, "profile"), member)]
    return cases


def test_batched_slice_lengths_match_the_nets_bit_for_bit(torus, sphere, dumbbell, rng):
    for name, sw, metric in _sweepout_cases(torus, sphere, dumbbell):
        ref = np.array([sw.cycle_fn(c).length(metric) for c in sw.grid])
        assert np.array_equal(sw.lengths(sw.grid, metric), ref), name
        # the refinement's single evaluations, off the grid
        for c in rng.uniform(sw.grid[0], sw.grid[-1], size=5):
            assert sw.lengths([c], metric)[0] == sw.cycle_fn(c).length(metric), name
    # the latitude grid switches charts at pi / 2
    sw = build_sweepout(sphere, 1, "latitude")
    charts = sw.slices(sw.grid)[0]
    assert charts[32] == "north" and sw.grid[32] == np.pi / 2 and charts[33] == "south"


def test_recipe_slices_are_the_model_nets(sphere, dumbbell):
    sw = build_sweepout(sphere, 1, "latitude")
    for c in (0.3, np.pi / 2, 2.0):
        ref = sphere_latitude(sphere, c).edge_paths[0]
        got = sw.cycle_fn(c).edge_paths[0]
        assert got[0] == ref[0] and np.array_equal(got[1], ref[1])
    sw = build_sweepout(dumbbell, 1, "profile")
    for u in (0.1, 0.5):
        assert np.array_equal(sw.cycle_fn(u).edge_paths[0][1],
                              dumbbell_circle(dumbbell, u).edge_paths[0][1])


@pytest.mark.parametrize("f, a, b", [
    (lambda x: (x - 0.3) ** 2, -1.0, 2.0),
    (np.cos, 2.0, 5.0),
    (lambda x: abs(x - 0.1) + 0.01 * x * x, -0.5, 0.6),
    (np.exp, 0.0, 1.0),
    (lambda x: -np.sin(3 * x) * np.exp(-x), 0.0, 2.0),
], ids=["parabola", "cos", "kink", "boundary", "damped-sine"])
def test_bounded_minimize_matches_scipy(f, a, b):
    from scipy.optimize import minimize_scalar

    ref = minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": 1e-10})
    x, fun = _bounded_minimize(f, a, b)
    assert abs(x - ref.x) <= 1e-12 and abs(fun - ref.fun) <= 1e-12


def test_profile_width_loads_no_scipy_optimize():
    code = ("import sys, geonets as gn\n"
            "dumbbell = gn.Dumbbell()\n"
            "sw = gn.build_sweepout(dumbbell, 1, 'profile')\n"
            "i = int(sw.lengths(sw.grid, dumbbell).argmax())\n"
            "assert 0 < i < len(sw.grid) - 1\n"
            "est = gn.minmax_upper_bound(sw, dumbbell)\n"
            "assert est.maximizer != sw.grid[i]\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_dumbbell_width_model():
    assert dumbbell_width(0.0, 1.0) == 1.0
    assert dumbbell_width(-0.3, 1.0) == pytest.approx(1.3)
    assert dumbbell_width(0.25, 2.0) == pytest.approx(2.5)
    assert dumbbell_realizer(0.2) == "S1"
    assert dumbbell_realizer(-0.2) == "S2"
    assert dumbbell_realizer(0.0) == "both"


def test_dumbbell_profile_width_tracks_model(dumbbell):
    family = DumbbellWidthFamily(dumbbell)
    c = dumbbell.great_circle_length
    for t in (-0.2, 0.0, 0.15):
        metric = family.at(t)
        sw = build_sweepout(metric, 1, "profile")
        est = minmax_upper_bound(sw, metric)
        assert est.upper_bound == pytest.approx(c * (1 + abs(t)), rel=1e-6)
