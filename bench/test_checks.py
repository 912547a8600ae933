"""The benchmark's reference computations against values worked out by hand.

Run from the repository root:  python3 -m pytest -q bench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks as ck  # noqa: E402


def test_fermat_length_of_the_battery_theta():
    tri = [(1, 0), (0, 1), (-1, -1)]
    # sides sqrt2, sqrt5, sqrt5: (2 + 5 + 5)/2 = 6, area 3/2, 2 sqrt3 * 3/2 = 3 sqrt3
    assert ck.fermat_length(tri) == pytest.approx(3.3460652149512, abs=1e-12)
    assert ck.fermat_length(tri) == pytest.approx(math.sqrt(6 + 3 * math.sqrt(3)), rel=1e-15)


def test_fermat_length_of_the_right_isosceles_theta():
    # sides 1, 1, sqrt2: (1 + 1 + 2)/2 = 2, area 1/2: sqrt(2 + sqrt3)
    assert ck.fermat_length([(1, 0), (0, 1), (0, 0)]) == pytest.approx(
        1.9318516525781366, abs=1e-13)


@pytest.mark.parametrize("tri", [[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (0, 0)],
                                 [(0, 0), (1, 1), (-1, 1)]])
def test_fermat_point_balances_unit_vectors(tri):
    p = ck.fermat_point(tri)
    vecs = [np.asarray(v, dtype=float) - p for v in tri]
    units = sum(v / np.linalg.norm(v) for v in vecs)
    assert np.linalg.norm(units) < 1e-12
    assert sum(np.linalg.norm(v) for v in vecs) == pytest.approx(ck.fermat_length(tri), rel=1e-14)


def test_fermat_point_of_the_equilateral_triangle_is_its_centre():
    tri = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    assert np.allclose(ck.fermat_point(tri), [0.5, math.sqrt(3) / 6], atol=1e-15)


@pytest.mark.parametrize("p, q, d", [
    ((0.1, 0.1), (0.9, 0.9), math.sqrt(0.08)),
    ((0.0, 0.0), (0.5, 0.5), math.sqrt(0.5)),
    ((0.25, 0.0), (0.75, 0.0), 0.5),
    ((0.95, 0.5), (0.05, 0.5), 0.1),
    ((2.1, -0.3), (0.1, 0.7), 0.0),
    ((0.2, 0.3), (0.5, 0.7), 0.5),
])
def test_torus_min_image(p, q, d):
    assert ck.torus_min_image(p, q) == pytest.approx(d, abs=1e-15)


def test_certificate_minima_of_a_circle_and_of_two_circles():
    t = np.linspace(0.0, 1.0, 5)[:, None]
    low = np.array([0.0, 0.0]) + t * [1.0, 0.0]
    high = np.array([0.0, 0.25]) + t * [1.0, 0.0]
    # window 1/2: only antipodal samples count, half a circle apart
    dE, dEE = ck.certificate_minima([("u", "u")], [low], 0.5)
    assert dE == {0: 0.5} and dEE == {}
    dE, dEE = ck.certificate_minima([("u", "u"), ("v", "v")], [low, high], 0.5)
    assert dEE == {(0, 1): 0.25, (1, 0): 0.25}


def test_certificate_minima_exclude_pairs_near_shared_ends():
    t = np.linspace(0.0, 1.0, 5)[:, None]
    e0 = t * [0.5, 0.0]
    e1 = t * [0.0, 0.5]
    # inj 0.1 over length 0.5: windows 0.2, so only the two corner pairs
    # (both t = 0, both t = 1) are excluded; the closest pair left is
    # x = 0 on one edge and y = 0.125 on the other
    _, dEE = ck.certificate_minima([("a", "b"), ("a", "b")], [e0, e1], 0.1)
    assert dEE[(0, 1)] == pytest.approx(0.125, abs=1e-15)
    assert dEE[(1, 0)] == pytest.approx(0.125, abs=1e-15)


def test_rational_bounds_recheck_is_exact_and_strict():
    # targets 1/2, bounds 1/(m J L) = 1/2
    assert ck.rational_bounds_hold([0.5, 0.5], [1.0, 1.0], 1, [1, 1], 2)
    assert not ck.rational_bounds_hold([0.5, 0.5], [1.0, 1.0], 1, [0, 0], 1)   # gap = bound
    # 0.3 is not 3/10 in binary; 3/10 still meets a bound of 1/(10 * 1 * 1)
    assert ck.rational_bounds_hold([0.3], [1.0], 10, [3], 10)
    assert not ck.rational_bounds_hold([0.3], [1.0], 10, [4], 10)
    assert not ck.rational_bounds_hold([0.3], [1.0], 10, [-1], 10)


def test_cosine_midpoint_sums():
    # cos(pi/4) + cos(3pi/4) + cos(5pi/4) + cos(7pi/4) = 0
    assert ck.cosine_midpoint_sum(0.0, math.pi / 2, 4) == pytest.approx(0.0, abs=1e-15)
    assert ck.cosine_midpoint_sum(0.3, 0.8, 1) == pytest.approx(math.cos(0.7), abs=1e-15)
    # omega = 2 pi: every term is cos(phi0 + pi)
    assert ck.cosine_midpoint_sum(0.3, 2 * math.pi, 7) == pytest.approx(-7 * math.cos(0.3))
    assert ck.cosine_midpoint_sum(0.0, 0.0, 5) == 5.0


def test_first_variation_midpoint_sums_on_straight_circles():
    y0 = 0.2
    horizontal = [((0.0, y0), (1.0, 0.0), 16, 1)]
    # 2g: the length; cos(2 pi y) is cos(0.4 pi) at every midpoint
    assert ck.straight_first_variation(("conformal", 0, 0), horizontal) == pytest.approx(1.0)
    assert ck.straight_first_variation(("conformal", 0, 1), horizontal) == pytest.approx(
        math.cos(0.4 * math.pi), abs=1e-15)
    assert ck.straight_first_variation(("conformal", 1, 0), horizontal) == pytest.approx(
        0.0, abs=1e-15)
    # cos(2 pi y) dx^2 carries half of the conformal trace on a horizontal line
    assert ck.straight_first_variation(("dx2",), horizontal) == pytest.approx(
        0.5 * math.cos(0.4 * math.pi), abs=1e-15)
    vertical = [((0.3, 0.0), (0.0, 1.0), 16, 3)]
    assert ck.straight_first_variation(("dx2",), vertical) == 0.0
    assert ck.straight_first_variation(("conformal", 1, 0), vertical) == pytest.approx(
        3 * math.cos(0.6 * math.pi), abs=1e-15)
    assert ck.straight_first_variation(("conformal", 0, 0), vertical) == pytest.approx(3.0)


def test_fourier_averages_along_circles():
    assert ck.circle_mode_average((1, 0), (0.0, 0.2), (0, 1, 0.0)) == pytest.approx(
        math.cos(0.4 * math.pi))
    assert ck.circle_mode_average((1, 0), (0.0, 0.2), (1, 1, 0.0)) == 0.0
    assert ck.torus_mode_average((0, 0, 0.5)) == pytest.approx(math.cos(0.5))
    assert ck.torus_mode_average((2, -1, 0.5)) == 0.0
    # (1,1) circle through (0.1, 0.3): 1/4 (1 + 1/2 cos 2 pi (0.1 - 0.3))
    series = ck.bump_ratio_series([(1, 1), (2, 1)], [(0.1, 0.3), (0.0, 0.0)])
    first = 0.25 * (1 + 0.5 * math.cos(2 * math.pi * -0.2))
    assert series[0] == pytest.approx(first)
    L1, L2 = math.sqrt(2), math.sqrt(5)
    assert series[1] == pytest.approx((first * L1 + 0.25 * L2) / (L1 + L2))


def test_junction_angles_and_neck_bounds():
    paths = [np.array([[0.0, 0.0], [math.cos(a), math.sin(a)]])
             for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    assert ck.junction_angles(paths, [(0, 0), (1, 0), (2, 0)]) == pytest.approx([120.0] * 3)
    chord, arc = ck.neck_distance_bounds(0.2, math.pi / 2)
    assert chord == pytest.approx(0.2 * math.sqrt(2)) and arc == pytest.approx(0.1 * math.pi)
    assert ck.neck_distance_bounds(0.2, 2 * math.pi - 0.5) == pytest.approx(
        ck.neck_distance_bounds(0.2, 0.5))


def test_envelope():
    # bounds 2D/m = 0.1, 0.05
    assert ck.envelope_holds([0.39, 0.26], 0.3, 0.05)
    assert not ck.envelope_holds([0.3, 0.36], 0.3, 0.05)
