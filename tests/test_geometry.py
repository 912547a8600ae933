"""Charts, metrics, quadrature and the three model surfaces."""

import configparser
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from geonets import (ConformalFamily, DomainError, Dumbbell, FlatTorus,
                     ScalarField, Sphere, constant_field,
                     load_surface, surface_average, surface_integral, volume)
from geonets.surfaces import (_QUAD_BLOCK, DumbbellWidthFamily, _area_integrals, _det2, _mesh_grid,
                              midpoint_rule)
from geonets.variation import LinearlyPerturbedSurface


def test_torus_metric_is_identity(torus, rng):
    x = rng.uniform(0, 1, size=(40, 2))
    g = torus.metric("main", x)
    assert np.allclose(g, np.eye(2))
    assert np.allclose(torus.metric_deriv("main", x), 0.0)


def test_torus_wrap_and_distance(torus):
    assert np.allclose(torus.charts["main"].wrap(np.array([1.25, -0.5])), [0.25, 0.5])
    # distance uses the shortest lattice representative
    d = torus.distance("main", np.array([0.1, 0.1]), "main", np.array([0.9, 0.1]))
    assert d == pytest.approx(0.2, abs=1e-12)
    d = torus.distance("main", np.array([0.0, 0.0]), "main", np.array([0.5, 0.5]))
    assert d == pytest.approx(np.sqrt(0.5), abs=1e-12)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(x=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                            st.floats(allow_nan=False, allow_infinity=False)),
                  min_size=1, max_size=6).map(lambda p: np.array(p, dtype=float)))
def test_chart_wrap_matches_the_surface_wraps_it_replaced(torus, dumbbell, x):
    # once FlatTorus.wrap and Dumbbell.wrap: equal bit for bit, -0.0 included
    assert np.array_equal(_bits(torus.charts["main"].wrap(x)), _bits(np.mod(x, 1.0)))
    theta = x.copy()
    theta[:, 1] = np.mod(theta[:, 1], 2 * np.pi)
    assert np.array_equal(_bits(dumbbell.charts["main"].wrap(x)), _bits(theta))


def test_torus_volume_is_one(torus):
    assert volume(torus) == pytest.approx(1.0, abs=1e-12)


def test_sphere_metric_spd(sphere, rng):
    x = rng.uniform(-1.5, 1.5, size=(60, 2))
    psi = ScalarField(lambda c, x: np.sin(np.asarray(x)[..., 0]) * np.cos(np.asarray(x)[..., 1]))
    for metric in (sphere, ConformalFamily(sphere, [psi]).at([0.4])):
        for chart in ("north", "south"):
            g = metric.metric(chart, x)
            eig = np.linalg.eigvalsh(g)
            assert np.all(eig > 0)


def test_sphere_embed_roundtrip(sphere, rng):
    x = rng.uniform(-1.2, 1.2, size=(30, 2))
    u = sphere.embed("north", x)
    assert np.allclose(np.linalg.norm(u, axis=-1), sphere.radius)
    back = sphere.unembed("north", u)
    assert np.allclose(back, x, atol=1e-12)


def test_sphere_transition_consistency(sphere, rng):
    # a point seen from both charts is the same embedded point; the change
    # of chart is the inversion (x1, -x2) / |x|^2
    x = rng.uniform(0.5, 1.2, size=(20, 2))
    y = x * [1.0, -1.0] / np.sum(x * x, axis=-1, keepdims=True)
    assert np.allclose(sphere.embed("north", x), sphere.embed("south", y), atol=1e-10)


def test_sphere_distance_matches_chord_angle(sphere):
    p = np.array([0.3, -0.2])
    q = np.array([-0.7, 0.5])
    u, v = sphere.embed("north", p), sphere.embed("north", q)
    ang = np.arccos(np.clip(u @ v / sphere.radius**2, -1, 1))
    assert sphere.distance("north", p, "north", q) == pytest.approx(
        sphere.radius * ang, abs=1e-12)


def test_sphere_volume(sphere):
    assert volume(sphere) == pytest.approx(4 * np.pi, rel=1e-6)


def test_sphere_domain_error(sphere):
    # the metric ignores its chart argument: the length rule checks the name
    a = np.zeros((3, 2))
    with pytest.raises(DomainError, match="chart 'main' is not a chart of sphere"):
        midpoint_rule(sphere, "main", a, a + 0.1)


def test_dumbbell_profile_shape(dumbbell):
    # the waist sits at u = 1/2 with radius = neck parameter
    assert dumbbell.profile(0.5) == pytest.approx(dumbbell.neck, abs=1e-12)
    assert dumbbell.profile_deriv(0.5) == pytest.approx(0.0, abs=1e-12)
    # bells are thicker than the waist
    assert dumbbell.profile(0.25) > dumbbell.profile(0.5)
    assert dumbbell.profile(0.75) > dumbbell.profile(0.5)
    # symmetric profile
    assert dumbbell.profile(0.3) == pytest.approx(dumbbell.profile(0.7), abs=1e-12)


def test_dumbbell_metric_deriv_fd(dumbbell, rng):
    # the width-family members' log-factor has a gradient where the ramp
    # moves, in the neck band |u - 1/2| < band
    x = rng.uniform([dumbbell.u_margin + 0.05, 0.0], [1 - dumbbell.u_margin - 0.05, 1.0],
                    size=(15, 2))
    band = DumbbellWidthFamily.band
    x = np.vstack([x, rng.uniform([0.5 - band, 0.0], [0.5 + band, 1.0], size=(15, 2))])
    h = 1e-6
    family = DumbbellWidthFamily(dumbbell)
    for surf in (dumbbell, family.at(0.3), family.at(-0.4)):
        dg = surf.metric_deriv("main", x)
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = h
            fd = (surf.metric("main", x + dx) - surf.metric("main", x - dx)) / (2 * h)
            assert np.allclose(dg[:, k], fd, atol=1e-6)


def test_conformal_family_scaling(torus):
    fam = ConformalFamily(torus, [constant_field(1.0)])
    c = 0.25
    scaled = fam.at([c])
    x = np.array([[0.3, 0.7]])
    assert np.allclose(scaled.metric("main", x), np.exp(2 * c) * np.eye(2))
    assert volume(scaled) == pytest.approx(np.exp(2 * c), rel=1e-12)


def test_conformal_family_deriv_tensor(torus):
    psi = ScalarField(lambda c, x: np.cos(2 * np.pi * np.asarray(x)[..., 1]),
                      name="cos")
    fam = ConformalFamily(torus, [psi])
    x = np.array([[0.2, 0.4]])
    h = 1e-6
    fd = (fam.at([h]).metric("main", x) - fam.at([-h]).metric("main", x)) / (2 * h)
    assert np.allclose(fam.deriv_tensor([0.0], 0)("main", x), fd, atol=1e-8)


def test_conformal_family_rejects_a_nan_parameter(torus):
    # NaN once passed the box test and gave a NaN metric
    with pytest.raises(DomainError, match="box"):
        ConformalFamily(torus, [constant_field(1.0)]).at([np.nan])


def test_dumbbell_width_family_deriv(dumbbell):
    fam = DumbbellWidthFamily(dumbbell)
    x = np.array([[0.5, 0.3], [0.25, 0.8]])
    h = 1e-6
    t = 0.1
    fd = (fam.at(t + h).metric("main", x) - fam.at(t - h).metric("main", x)) / (2 * h)
    assert np.allclose(fam.deriv_tensor(t, 0)("main", x), fd, atol=1e-7)


@pytest.mark.parametrize("k", [1, -1])
def test_dumbbell_width_family_deriv_rejects_other_coordinates(dumbbell, k):
    # the family has one coordinate; any k once returned d ghat/dt
    with pytest.raises(ValueError, match="coordinate"):
        DumbbellWidthFamily(dumbbell).deriv_tensor(0.1, k)


@pytest.mark.parametrize("k", [2, -1])
def test_conformal_family_deriv_rejects_an_index_outside_its_weights(torus, k):
    # k = -1 once returned the last weight's direction
    fam = ConformalFamily(torus, [constant_field(1.0), constant_field(2.0)])
    with pytest.raises(ValueError, match="coordinate"):
        fam.deriv_tensor([0.0, 0.0], k)


def test_surface_average_constant(sphere):
    assert surface_average(sphere, constant_field(3.0)) == pytest.approx(3.0, rel=1e-10)


def test_surface_integral_mode_vanishes(torus):
    fld = ScalarField(lambda c, x: np.sin(2 * np.pi * np.asarray(x)[..., 0]))
    assert abs(surface_integral(torus, fld)) < 1e-12


def _cos_torus(torus):
    fld = ScalarField(lambda c, x: np.cos(2 * np.pi * np.asarray(x)[..., 0]))
    return ConformalFamily(torus, [fld]).at([0.3])


def test_christoffel_matches_inverse_reference(sphere, dumbbell, torus, rng):
    for surf, chart, lo, hi in [(sphere, "north", -2.0, 2.0), (dumbbell, "main", 0.05, 0.95),
                                (_cos_torus(torus), "main", 0.0, 1.0)]:
        x = rng.uniform(lo, hi, size=(300, 2))
        dg = surf.metric_deriv(chart, x)
        bracket = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
        ref = 0.5 * np.einsum("...kl,...ijl->...kij", np.linalg.inv(surf.metric(chart, x)),
                              bracket)
        got = surf.christoffel(chart, x)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), surf.name


def test_quadrature_matches_det_reference(torus, sphere, dumbbell):
    fld = ScalarField(lambda c, x: 2.0 + np.sin(np.asarray(x)[..., 0])
                      * np.cos(np.asarray(x)[..., 1]))

    def raw(surf, n, f):
        tot = 0.0
        for chart, pts, w in surf.quadrature(n):
            dens = np.sqrt(np.linalg.det(surf.metric(chart, pts)))
            tot += float(np.sum(w * dens * (1.0 if f is None else f.value(chart, pts))))
        return tot

    def richardson(surf, n, f=None):
        return (4.0 * raw(surf, 2 * n, f) - raw(surf, n, f)) / 3.0

    for surf in (torus, sphere, _cos_torus(torus), dumbbell):
        vol = richardson(surf, 48)
        assert volume(surf, 48) == pytest.approx(vol, rel=1e-14, abs=0)
        assert _area_integrals(surf, 48, None)[0] == pytest.approx(raw(surf, 48, None),
                                                                   rel=1e-14, abs=0)
        avg = richardson(surf, 48, fld) / vol
        assert surface_average(surf, fld, 48) == pytest.approx(avg, rel=1e-14, abs=0)


def test_blocked_area_integrals_match_one_shot(torus, sphere, dumbbell):
    fld = ScalarField(lambda c, x: 2.0 + np.cos(2 * np.pi * np.asarray(x)[..., 0])
                      * np.sin(4 * np.pi * np.asarray(x)[..., 1]))
    # grids of 32 blocks, 4 per chart, 8, and 11 with a partial last one
    for surf, n in [(torus, 512), (sphere, 128), (dumbbell, 256), (_cos_torus(torus), 300)]:
        area = integral = 0.0
        for chart, pts, w in surf.quadrature(n):
            assert len(pts) > _QUAD_BLOCK
            dens = np.sqrt(_det2(surf.metric(chart, pts)))
            area += np.sum(w * dens)
            integral += np.sum(w * (dens * fld.value(chart, pts)))
        got = _area_integrals(surf, n, fld)
        assert np.allclose(got, [area, integral], rtol=1e-14, atol=0), surf.name
        assert _area_integrals(surf, n, None)[1] == 0.0

    family = ConformalFamily(torus, [constant_field(1.0)])
    for c in (-0.4, -0.1, 0.25, 0.4):
        assert abs(volume(family.at([c])) - np.exp(2 * c)) <= 1e-12


def _tilted_torus():
    """The torus plus 0.2 T for a T with an off-diagonal part: not conformal."""
    def tensor(chart, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = np.cos(2 * np.pi * x[..., 0])
        out[..., 0, 1] = out[..., 1, 0] = np.sin(2 * np.pi * x[..., 1])
        return out

    return LinearlyPerturbedSurface(FlatTorus(), tensor, None, 0.2)


def _density_cases():
    """``(surface, chart, exact)``: ``exact`` where sqrt det g is the
    closed form bit for bit (isotropic bases and the plain dumbbell)."""
    torus, sphere, dumbbell = FlatTorus(), Sphere(), Dumbbell()
    wave = ScalarField(lambda c, x: np.sin(np.asarray(x)[..., 0]) * np.cos(np.asarray(x)[..., 1]))
    conformal_sphere = ConformalFamily(sphere, [wave]).at([0.4])
    return [(torus, "main", True), (sphere, "north", True), (sphere, "south", True),
            (dumbbell, "main", True), (_cos_torus(torus), "main", True),
            (conformal_sphere, "north", True), (conformal_sphere, "south", True),
            (DumbbellWidthFamily(dumbbell).at(0.2), "main", False),
            (_tilted_torus(), "main", True)]


_DENSITY_CASES = _density_cases()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(unit=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                     min_size=1, max_size=8).map(np.array))
def test_area_density_is_sqrt_det(unit):
    for surf, chart, exact in _DENSITY_CASES:
        box = surf.charts[chart]
        x = box.lo + (box.hi - box.lo) * unit
        got, ref = surf.area_density(chart, x), np.sqrt(_det2(surf.metric(chart, x)))
        assert got.shape == ref.shape == (len(unit),)
        if exact:
            assert np.array_equal(got, ref), (surf.name, chart)
        else:
            assert np.allclose(got, ref, rtol=1e-15, atol=0), (surf.name, chart)


def test_area_integrals_match_the_det_path():
    fld = ScalarField(lambda c, x: 2.0 + np.sin(np.asarray(x)[..., 0])
                      * np.cos(np.asarray(x)[..., 1]))
    for surf, chart, exact in _DENSITY_CASES:
        if chart == "south":
            continue
        parts = []
        for ch, pts, w in surf.quadrature(96):
            for s in range(0, len(pts), _QUAD_BLOCK):
                x, wb = pts[s:s + _QUAD_BLOCK], w[s:s + _QUAD_BLOCK]
                dens = np.sqrt(_det2(surf.metric(ch, x)))
                parts.append((np.sum(wb * dens), np.sum(wb * (dens * fld.value(ch, x)))))
        ref = np.array([math.fsum(col) for col in zip(*parts)])
        got = _area_integrals(surf, 96, fld)
        if exact:
            assert np.array_equal(got, ref), surf.name
        else:
            assert np.allclose(got, ref, rtol=1e-14, atol=0), surf.name


_QUADRATURE_CALLS = {
    "volume": lambda surf, n: volume(surf, n),
    "surface_integral": lambda surf, n: surface_integral(surf, constant_field(1.0), n),
    "surface_average": lambda surf, n: surface_average(surf, constant_field(1.0), n),
}


@pytest.mark.parametrize("n", [0, 2.5, -4, True, 64.0])
@pytest.mark.parametrize("call", sorted(_QUADRATURE_CALLS))
def test_quadrature_resolution_must_be_a_positive_int(torus, call, n):
    with pytest.raises(ValueError, match=r"^n must be a positive int"):
        _QUADRATURE_CALLS[call](torus, n)


def test_quadrature_resolution_takes_a_numpy_int(torus):
    assert volume(torus, np.int64(8)) == volume(torus, 8)


@pytest.mark.parametrize("make, key", [(lambda: Sphere(radius=-1.0), "radius"),
                                       (lambda: Sphere(radius=0.0), "radius"),
                                       (lambda: Dumbbell(neck=float("nan")), "neck"),
                                       (lambda: Dumbbell(neck=0.0), "neck"),
                                       (lambda: Dumbbell(bell=-1.0), "bell")],
                         ids=["radius-negative", "radius-0", "neck-nan", "neck-0", "bell-negative"])
def test_surface_constructors_check_their_parameters(make, key):
    with pytest.raises(DomainError, match=f"surface {key} must be finite and positive"):
        make()


def test_pairwise_distances_match_references(torus, dumbbell, rng):
    P = rng.uniform(-1.5, 2.5, size=(7, 2))
    Q = rng.uniform(-1.5, 2.5, size=(5, 2))
    D = torus.distances("main", P, "main", Q)
    for a, b in np.ndindex(D.shape):
        d = np.mod(Q[b], 1.0) - np.mod(P[a], 1.0)
        assert D[a, b] == pytest.approx(np.hypot(*(d - np.round(d))), abs=1e-14)

    sphere = Sphere(radius=2.0)
    D = sphere.distances("north", P, "south", Q)
    for a, b in np.ndindex(D.shape):
        c = sphere.embed("north", P[a]) @ sphere.embed("south", Q[b]) / 4.0
        assert D[a, b] == pytest.approx(2.0 * np.arccos(np.clip(c, -1.0, 1.0)), abs=1e-12)

    # a neck circle with its closing sample theta = 2 pi, off-mesh points,
    # and a point that snaps to the same node as a neck sample
    P = np.stack([np.full(9, 0.5), np.linspace(0.0, 2 * np.pi, 9)], axis=-1)
    Q = np.vstack([rng.uniform([0.02, 0.0], [0.98, 2 * np.pi], size=(4, 2)),
                   P[[0, 5, 8]], P[3] + [-1e-3, 1e-3]])
    D = dumbbell.distances("main", P, "main", Q)
    box, _, graph = dumbbell._mesh(97)
    h = np.array([1 / 96, 2 * np.pi / 97])

    def node(x):
        """Nearest node of the 97 x 97 grid, with theta wrapped mod 97."""
        i, j = np.rint(x / h).astype(int)
        return i * 97 + j % 97

    for a, b in np.ndindex(D.shape):
        ip, iq = node(P[a]), node(Q[b])
        if ip == iq:
            d = Q[b] - P[a]
            d[1] -= 2 * np.pi * np.round(d[1] / (2 * np.pi))
            ref = np.sqrt(d @ dumbbell.metric(box.name, P[a] + 0.5 * d) @ d)
        else:
            ref = dijkstra(graph, directed=False, indices=ip)[iq]
        assert D[a, b] == ref
    assert D[0, 6] == D[8, 4] == 0.0
    assert dumbbell.distance("main", P[6], "main", P[8]) == D[6, 6]


@pytest.mark.parametrize("make, chart", [(FlatTorus, "north"), (FlatTorus, "south"),
                                         (Sphere, "main"), (Dumbbell, "north")])
def test_distances_refuse_a_foreign_chart(make, chart):
    # the torus once measured 'north' points as its own, the sphere read
    # 'main' as its north chart
    surf = make()
    (home, *_), p, q = surf.charts, np.array([0.1, 0.2]), np.array([0.4, 0.3])
    for a, b in ((chart, home), (home, chart)):
        with pytest.raises(DomainError, match=f"chart '{chart}' is not a chart of {surf.name}"):
            surf.distances(a, p[None], b, q[None])
        with pytest.raises(DomainError, match=f"chart '{chart}' is not a chart of {surf.name}"):
            surf.distance(a, p, b, q)


def _nine_shift_distances(P, Q):
    """Torus distances as first computed: both point sets wrapped into the
    unit square, then the least of the nine lattice shifts of each pair."""
    P = np.mod(P, 1.0)[:, None, None]
    Q = np.mod(Q, 1.0)[None, :, None]
    shifts = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
    d = Q + shifts - P
    return np.min(np.sqrt(np.sum(d * d, axis=-1)), axis=-1)


def _points(coordinate):
    return st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6).map(
        lambda p: np.array(p, dtype=float))


_lattice = st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)).map(np.array)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(P=_points(st.floats(-1.5, 2.5)), Q=_points(st.floats(-1.5, 2.5)), k=_lattice, m=_lattice)
def test_torus_minimum_image_matches_nine_shifts(torus, P, Q, k, m):
    D = torus.distances("main", P, "main", Q)
    assert np.max(np.abs(D - _nine_shift_distances(P, Q))) <= 1e-15
    assert np.array_equal(D, torus.distances("main", Q, "main", P).T)
    # a shift of up to 1e3 periods rounds the coordinates to ulp(1e3) = 1.1e-13
    assert np.max(np.abs(D - torus.distances("main", P + k, "main", Q))) <= 1e-12
    assert np.max(np.abs(D - torus.distances("main", P, "main", Q + m))) <= 1e-12
    assert np.all(D <= np.sqrt(2) / 2)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(P=_points(st.integers(-2**12, 2**12).map(lambda i: i / 2**10)), axis=st.integers(0, 1),
       sign=st.sampled_from([-1.0, 1.0]))
def test_torus_distance_is_half_across_half_a_period(torus, P, axis, sign):
    # dyadic coordinates keep Q - P exact
    Q = P + sign * 0.5 * np.eye(2)[axis]
    assert np.all(np.diag(torus.distances("main", P, "main", Q)) == 0.5)


def _embedding_midpoint(sphere, chart, p, q):
    """The sphere midpoint as first computed: embed, normalise, unembed."""
    m = sphere.embed(chart, p) + sphere.embed(chart, q)
    return sphere.unembed(chart, sphere.radius * m / np.linalg.norm(m, axis=-1, keepdims=True))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(*[st.floats(-1.5, 1.5)] * 4), min_size=1, max_size=6).map(
    lambda r: np.array(r, dtype=float).reshape(-1, 2, 2)), chart=st.sampled_from(["north", "south"]))
def test_sphere_midpoint_closed_form_matches_embedding(sphere, pairs, chart):
    # pairs at most a quarter circle apart with |x| <= 1.5; a sweep's
    # neighbours are far nearer, and near antipodes the midpoint is
    # ill-conditioned in either form
    p, q = pairs[:, 0], pairs[:, 1]
    near = ((np.hypot(*p.T) <= 1.5) & (np.hypot(*q.T) <= 1.5)
            & (np.sum(sphere.embed(chart, p) * sphere.embed(chart, q), axis=-1) >= 0.0))
    got = sphere.geodesic_midpoint(chart, p[near], q[near])
    assert np.max(np.abs(got - _embedding_midpoint(sphere, chart, p[near], q[near])), initial=0.0) <= 1e-15


def test_point_maps_refuse_a_foreign_chart(torus, sphere):
    # each once answered: the sphere read 'main' as its north chart, the
    # torus returned (p + q) / 2 on 'north', and the Christoffel midpoint
    # of a derived surface measured any chart as its own
    p, q = np.array([[0.1, 0.2]]), np.array([[0.4, 0.3]])
    conformal = ConformalFamily(torus, [constant_field(1.0)]).at([0.2])
    calls = [(sphere, "main", lambda: sphere.geodesic_midpoint("main", p, q)),
             (torus, "north", lambda: torus.geodesic_midpoint("north", p, q)),
             (conformal, "north", lambda: conformal.geodesic_midpoint("north", p, q)),
             (sphere, "main", lambda: sphere.embed("main", p)),
             (sphere, "main", lambda: sphere.unembed("main", [[0.0, 0.6, 0.8]]))]
    for surf, chart, call in calls:
        with pytest.raises(DomainError, match=f"chart '{chart}' is not a chart of ") as err:
            call()
        assert str(err.value).endswith(surf.name)


def test_torus_distances_allocate_one_candidate_per_pair(torus, rng):
    P, Q = rng.uniform(0, 1, size=(400, 2)), rng.uniform(0, 1, size=(400, 2))
    tracemalloc.start()
    try:
        D = torus.distances("main", P, "main", Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * D.nbytes


def _coo_mesh(surf, n):
    """The distance mesh as first built, per surface: the stencil edges of
    every node, weighted by the midpoint rule over their step, summed into
    CSR through COO."""
    (box,) = surf.charts.values()
    h = (box.hi - box.lo) / np.where(box.periodic, n, n - 1)
    steps = np.array([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1)])
    ij = np.indices((n, n)).reshape(2, -1).T
    to = ij[:, None] + steps
    src, k = np.nonzero(np.all(np.asarray(box.periodic) | ((to >= 0) & (to < n)), axis=-1))
    dst = np.ravel_multi_index(to[src, k].T, (n, n), mode="wrap")
    x = box.lo + ij[src] * h
    w = midpoint_rule(surf, box.name, x, x + steps[k] * h)[0]
    return coo_matrix((w, (src, dst)), shape=(n * n, n * n)).tocsr()


def test_mesh_shares_its_grid_and_keeps_the_coo_weights():
    family = DumbbellWidthFamily(Dumbbell())
    for surf in (Dumbbell(), family.at(0.2)):
        graph, ref = surf._mesh(97)[2].tocoo(), _coo_mesh(surf, 97).tocoo()
        for got, want in [(graph.row, ref.row), (graph.col, ref.col), (graph.data, ref.data)]:
            assert np.array_equal(got, want)
    built = _mesh_grid.cache_info()
    family.at(-0.1)._mesh(97)
    assert _mesh_grid.cache_info().misses == built.misses
    assert _mesh_grid.cache_info().hits == built.hits + 1


def test_dumbbell_mesh_matches_stencil_loop(dumbbell, rng):
    stencil = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1))
    n = 11
    graph = dumbbell._mesh(n)[2].tocoo()
    ref = [(i * n + j, (i + di) * n + (j + dj) % n)
           for i in range(n) for j in range(n) for di, dj in stencil if i + di < n]
    assert sorted(zip(graph.row.tolist(), graph.col.tolist())) == sorted(ref)

    surf = DumbbellWidthFamily(dumbbell).at(0.2)
    n = 97
    box, _, graph = surf._mesh(n)
    graph = graph.tocoo()
    h = np.array([1 / (n - 1), 2 * np.pi / n])
    x = np.stack(np.divmod(graph.row, n), axis=-1) * h
    y = np.stack(np.divmod(graph.col, n), axis=-1) * h
    d = y - x
    seam = np.flatnonzero(np.abs(d[:, 1]) > np.pi)
    d[:, 1] = np.mod(d[:, 1] + np.pi, 2 * np.pi) - np.pi         # the wrapped step
    assert seam.size
    for e in np.concatenate([rng.choice(len(d), 300), seam[:40]]):
        g = surf.metric(box.name, x[e] + 0.5 * d[e])
        assert graph.data[e] == pytest.approx(np.sqrt(d[e] @ g @ d[e]), rel=1e-14)


def test_load_surface_from_config():
    cfg = configparser.ConfigParser()
    cfg.read_dict({"surface": {"kind": "sphere", "radius": "2.0"}})
    surf = load_surface(cfg["surface"])
    assert isinstance(surf, Sphere)
    assert surf.radius == 2.0
    assert isinstance(load_surface({"kind": "torus"}), FlatTorus)
    assert isinstance(load_surface({"kind": "dumbbell", "neck": "0.3"}), Dumbbell)
    with pytest.raises(DomainError):
        load_surface({"kind": "klein-bottle"})


@pytest.mark.parametrize("kind, key", [("torus", "injectivity_bound"), ("sphere", "radius"),
                                       ("sphere", "injectivity_bound"), ("dumbbell", "neck"),
                                       ("dumbbell", "bell"), ("dumbbell", "injectivity_bound")])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.2"])
def test_load_surface_rejects_a_bad_parameter(kind, key, value):
    with pytest.raises(DomainError, match=key):
        load_surface({"kind": kind, key: value})


@pytest.mark.parametrize("kind, key, value", [
    ("sphere", "radus", "2.0"),             # once the unit sphere, K = 284
    ("torus", "radius", "2.0"),             # once the unit torus
    ("torus", "injectivity_bound", "5"),    # once build_partition(torus, 4.0).K == 1
    ("dumbbell", "radius", "2.0"),
    ("sphere", "neck", "0.3"),
])
def test_load_surface_rejects_an_unread_key(kind, key, value):
    with pytest.raises(DomainError, match=f"'{key}' for surface kind '{kind}'"):
        load_surface({"kind": kind, key: value})
