"""Sweepouts, curve shortening and width estimates."""

import numpy as np
import pytest

from geonets import (ConformalFamily, Edge, GammaNet, ScalarField, WeightedMultigraph,
                     birkhoff_shorten, build_sweepout, dumbbell_realizer, dumbbell_width,
                     minmax_upper_bound, sphere_latitude)
from geonets.minmax import _birkhoff_sweep
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
