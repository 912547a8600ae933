"""Partitions of unity, discrepancy, convex search and sequence merging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonets import (ConformalFamily, FlatTorus, ScalarField, Sphere, WeightedNetFamily,
                     build_partition, convex_gradient_search, discrepancy,
                     discrepancy_transfer, merge_sequences, merged_block_ratios,
                     min_norm_point, rationalize,
                     ratio_series, running_ratio, sphere_latitude, torus_geodesic)
from geonets import equidist
from geonets.equidist import (BumpSystem, _bump_1d, _bump_1d_periodic, _merge_schedule,
                               _sphere_angles, _volume_psi_averages)
from geonets.surfaces import _QUAD_BLOCK, _det2


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_torus_partition_counts(torus):
    bumps = build_partition(torus, 0.3)
    # ceil(sqrt(2)/0.3) = 5 cells per axis
    assert bumps.K == 25
    bumps = build_partition(torus, 0.3, K_min=40)
    assert bumps.K == 49


def test_partition_normalization(torus, rng):
    bumps = build_partition(torus, 0.3)
    pts = rng.uniform(0, 1, size=(4000, 2))
    total = np.sum(bumps.psi_values("main", pts), axis=0)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_partition_gradients_fd(torus, sphere, rng):
    # torus bumps have analytic gradients, sphere bumps BumpSystem's central differences
    h = 1e-6
    for surface, eps1 in [(torus, 0.3), (sphere, 0.9)]:
        bumps = build_partition(surface, eps1)
        for chart in surface.charts:
            pts = rng.uniform(-1.5, 1.5, size=(50, 2))
            for psi in bumps.psi:
                for axis in range(2):
                    dx = np.zeros(2)
                    dx[axis] = h
                    fd = (psi.value(chart, pts + dx) - psi.value(chart, pts - dx)) / (2 * h)
                    assert np.allclose(psi.grad(chart, pts)[:, axis], fd, atol=1e-6)


def test_sphere_partition_normalizes():
    sphere = Sphere()
    bumps = build_partition(sphere, 0.9)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.9, 0.9, size=(500, 2))
    total = np.sum(bumps.psi_values("north", pts), axis=0)
    assert np.max(np.abs(total - 1.0)) <= 1e-10


def _reference_phi(bumps, chart, x):
    """Every plateau bump evaluated cell by cell from its region."""
    rows = []
    for r in bumps.regions:
        if r["kind"] == "torus-cell":
            cell, collar = r["cell"], r["collar"]
            rows.append(_bump_1d_periodic(x[..., 0], r["i"] * cell, cell, collar)
                        * _bump_1d_periodic(x[..., 1], r["j"] * cell, cell, collar))
            continue
        theta, lam = _sphere_angles(bumps.surface, chart, x)
        n_theta = 1 + max(q["band"] for q in bumps.regions)
        b = _bump_1d(theta, *r["theta"], 0.2 * (math.pi / n_theta))
        if r["sectors"] > 1:
            dlam = 2 * math.pi / r["sectors"]
            b = b * _bump_1d_periodic(lam, r["sector"] * dlam, dlam, 0.2 * dlam,
                                      period=2 * math.pi)
        rows.append(b)
    return np.stack(rows)


@pytest.mark.parametrize("eps1", [0.3, 0.22, 0.15])
def test_torus_phi_values_match_cell_loop(torus, rng, eps1):
    bumps = build_partition(torus, eps1)
    pts = rng.uniform(-1.5, 2.5, size=(7, 60, 2))       # unwrapped, batched
    assert np.array_equal(bumps.phi_values("main", pts), _reference_phi(bumps, "main", pts))


@pytest.mark.parametrize("eps1", [0.9, 0.5])
def test_sphere_phi_values_match_cell_loop(sphere, rng, eps1):
    bumps = build_partition(sphere, eps1)
    pts = rng.uniform(-2.0, 2.0, size=(400, 2))
    batched = rng.uniform(-2.0, 2.0, size=(7, 60, 2))
    polar = rng.uniform(-0.07, 0.07, size=(50, 2))     # colatitude below 0.2: only the cap is on
    for chart in ("north", "south"):
        for x in (pts, batched, polar):
            assert np.array_equal(bumps.phi_values(chart, x), _reference_phi(bumps, chart, x))
        assert np.count_nonzero(np.any(bumps.phi_values(chart, polar) != 0.0, axis=1)) == 1


def test_blocked_volume_averages_match_one_shot(torus, sphere):
    conformal = ConformalFamily(torus, [ScalarField(
        lambda c, x: np.sin(2 * np.pi * np.asarray(x)[..., 1]))]).at([0.2])
    for metric, eps1, n in [(conformal, 0.3, 100), (sphere, 0.9, 70)]:
        bumps = build_partition(metric, eps1)
        sums, total = 0.0, 0.0
        for chart, pts, w in metric.quadrature(n):
            assert len(pts) > _QUAD_BLOCK and len(pts) % _QUAD_BLOCK
            dens = w * np.sqrt(np.linalg.det(metric.metric(chart, pts)))
            sums = sums + bumps.psi_values(chart, pts) @ dens
            total += float(np.sum(dens))
        got = _volume_psi_averages(bumps, metric, n)
        assert np.allclose(got, sums / total, rtol=1e-14, atol=0)


@pytest.mark.parametrize("eps1", [0.3, 0.22])
def test_torus_tensor_grid_sums_match_blocked(torus, monkeypatch, eps1):
    conformal = ConformalFamily(torus, [ScalarField(
        lambda c, x: np.sin(2 * np.pi * np.asarray(x)[..., 1]))]).at([0.2])
    for metric in (torus, conformal):
        bumps = build_partition(metric, eps1)
        psi_calls = []
        monkeypatch.setattr(bumps, "psi_values",
                            lambda c, x, f=bumps.psi_values: psi_calls.append(1) or f(c, x))
        for n in (64, 100, 256):
            ((chart, pts, w),) = metric.quadrature(n)
            dens = w * np.sqrt(_det2(metric.metric(chart, pts)))
            blocked = BumpSystem._volume_sums(bumps, chart, pts, dens)
            psi_calls.clear()
            assert np.allclose(bumps._volume_sums(chart, pts, dens), blocked, rtol=1e-14, atol=0)
            assert not psi_calls                            # the tensor-grid product


@pytest.mark.parametrize("kind, eps_lo, eps_hi, tol", [
    ("torus", 0.03, 0.49, 1e-12),        # below the bound 0.5, within the 64 x 64 budget
    ("sphere", 0.2, 3.1, 1e-10)])        # below the bound pi
@settings(derandomize=True, max_examples=15, deadline=None)
@given(frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_partition_of_unity_property(kind, eps_lo, eps_hi, tol, frac, seed):
    surface = FlatTorus() if kind == "torus" else Sphere()
    bumps = build_partition(surface, eps_lo + (eps_hi - eps_lo) * frac)
    rng = np.random.default_rng(seed)
    chart = rng.choice(list(surface.charts))
    pts = rng.uniform(-3.0, 3.0, size=(200, 2))
    psi = bumps.psi_values(chart, pts)
    assert np.all(psi >= 0.0)
    assert np.max(np.abs(np.sum(psi, axis=0) - 1.0)) <= tol


def test_partition_requires_small_radius(torus, dumbbell):
    with pytest.raises(ValueError):
        build_partition(torus, 0.6)
    with pytest.raises(ValueError):
        build_partition(dumbbell, 1e-3)


# ---------------------------------------------------------------------------
# discrepancy
# ---------------------------------------------------------------------------

def _grid_family(n=5):
    nets, k = [], n * n
    for i in range(n):
        nets.append(torus_geodesic((1, 0), offset=(0.0, (i + 0.5) / n)))
        nets.append(torus_geodesic((0, 1), offset=((i + 0.5) / n, 0.0)))
    return WeightedNetFamily(nets, np.full(2 * n, 1.0 / (2 * n)))


def test_equispaced_family_has_tiny_discrepancy(torus):
    bumps = build_partition(torus, 0.3)
    report = discrepancy(_grid_family(), torus, bumps)
    assert report.passed
    assert report.max_value < 1e-4


def test_single_circle_fails_discrepancy(torus):
    bumps = build_partition(torus, 0.3)
    family = WeightedNetFamily([torus_geodesic((1, 0))], [1.0])
    report = discrepancy(family, torus, bumps)
    assert not report.passed


def test_volume_averages_follow_each_metric(torus):
    # metrics built and dropped in a loop can reuse one object id; the
    # cached volume averages must still be those of the metric passed in
    psi = ScalarField(lambda c, x: np.cos(2 * np.pi * np.asarray(x)[..., 0]))
    conformal = ConformalFamily(torus, [psi])
    family = WeightedNetFamily([torus_geodesic((1, 0)), torus_geodesic((0, 1))],
                               [0.5, 0.5])
    bumps = build_partition(torus, 0.3)
    for t in np.linspace(-0.4, 0.4, 40):
        metric = conformal.at([t])
        cached = discrepancy(family, metric, bumps, vol_n=64).values
        fresh = discrepancy(family, metric, build_partition(metric, 0.3), vol_n=64).values
        assert np.array_equal(cached, fresh), f"stale averages at t = {t:.3f}"


def test_bumps_of_another_surface_kind_are_refused(torus, sphere):
    # torus bumps on the sphere once read a discrepancy of 0.083 and sphere
    # bumps on the torus 0.289: each evaluated at points they were not built for
    torus_family = WeightedNetFamily([torus_geodesic((1, 0))], [1.0])
    sphere_family = WeightedNetFamily([sphere_latitude(sphere, 1.0)], [1.0])
    for family, metric, bumps in [(sphere_family, sphere, build_partition(torus, 0.3)),
                                  (torus_family, torus, build_partition(sphere, 0.9))]:
        with pytest.raises(ValueError, match=f"cannot measure on {metric.name}"):
            discrepancy(family, metric, bumps, vol_n=32)


def test_transfer_bound(torus):
    bumps = build_partition(torus, 0.3)
    fld = ScalarField(lambda c, x: np.sin(2 * np.pi * np.asarray(x)[..., 0])
                      * np.cos(2 * np.pi * np.asarray(x)[..., 1]))
    lhs, rhs, report = discrepancy_transfer(_grid_family(), torus, bumps, fld,
                                            f_sup=1.0, f_grad_sup=2 * np.pi)
    assert lhs <= rhs


@pytest.mark.parametrize("vol_n", [0, 2.5, -4, True, 64.0])
@pytest.mark.parametrize("transfer", [False, True], ids=["discrepancy", "discrepancy_transfer"])
def test_volume_resolution_must_be_a_positive_int(torus, transfer, vol_n):
    bumps = build_partition(torus, 0.3)
    with pytest.raises(ValueError, match=r"^vol_n must be a positive int"):
        if transfer:
            discrepancy_transfer(_grid_family(), torus, bumps, bumps.psi[0], 1.0, 1.0, vol_n=vol_n)
        else:
            discrepancy(_grid_family(), torus, bumps, vol_n=vol_n)


def test_family_weight_validation():
    with pytest.raises(ValueError):
        WeightedNetFamily([torus_geodesic((1, 0))], [0.5])


@pytest.mark.parametrize("weights", [[np.nan], [np.nan, np.nan]])
def test_family_rejects_nan_weights(weights):
    # NaN once passed both the sign and the sum test, and the
    # discrepancy then read NaN
    with pytest.raises(ValueError, match="convex combination"):
        WeightedNetFamily([torus_geodesic((1, 0))] * len(weights), weights)


# ---------------------------------------------------------------------------
# min-norm point / convex search
# ---------------------------------------------------------------------------

def test_min_norm_point_simplex():
    w, x = min_norm_point(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(x, [0.5, 0.5], atol=1e-10)
    assert np.allclose(w, [0.5, 0.5], atol=1e-10)
    # origin inside the hull
    w, x = min_norm_point(np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]]))
    assert np.linalg.norm(x) <= 1e-8
    # origin outside: nearest point on a face
    w, x = min_norm_point(np.array([[2.0, 1.0], [2.0, -1.0]]))
    assert np.allclose(x, [2.0, 0.0], atol=1e-10)


def _hull_min_norm_reference(P):
    """The min-norm point of Conv(rows of P) by nonnegative least squares,
    with sum(w) = 1 as a heavily weighted extra row."""
    from scipy.optimize import nnls

    big = 1e4
    A = np.vstack([P.T, np.full(len(P), big)])
    b = np.zeros(P.shape[1] + 1)
    b[-1] = big
    w = nnls(A, b)[0]
    return (w / w.sum()) @ P


def test_min_norm_point_minor_cycle_matches_nnls(monkeypatch):
    # the minor cycle runs when the affine min-norm point leaves the
    # simplex of the support, which about one random set in six reaches
    minor, affine = [], equidist._affine_min_norm

    def spy(P):
        v = affine(P)
        minor.append(not np.all(v > 1e-14))
        return v

    monkeypatch.setattr(equidist, "_affine_min_norm", spy)
    rng = np.random.default_rng(0)
    entered = 0
    for _ in range(60):
        m, N = rng.integers(3, 12), rng.integers(2, 5)
        P = rng.normal(size=(m, N)) + rng.normal(size=N)
        minor.clear()
        w, x = min_norm_point(P)
        entered += any(minor)
        assert np.all(w >= 0) and w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(w @ P, x, rtol=0, atol=1e-12)
        assert np.allclose(x, _hull_min_norm_reference(P), rtol=0, atol=1e-9)
    assert entered >= 5


def test_convex_search_reduces_a_wide_support():
    # near-duplicate gradients (13 rows in R^4, six copies moved by 1e-16
    # to 1e-9) bring Wolfe back with 6 support points where N + 1 = 5;
    # the Caratheodory step cuts that to 5 without moving the point
    reduced = 0
    for seed in (14, 164, 187, 459, 471):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(7, 4))
        moved = (base[rng.choice(7, 6, replace=False)]
                 + rng.choice([-1, 1], size=(6, 4)) * 10.0 ** rng.uniform(-16, -9, size=(6, 4)))
        grads = np.vstack([base, moved])
        w, x = min_norm_point(grads)
        reduced += np.count_nonzero(w) > 5
        res = convex_gradient_search(list(zip(rng.uniform(size=(13, 2)), grads)), eta=1.0)
        assert res.success and len(res.indices) == len(set(res.indices)) == 5
        assert np.all(res.weights >= 0) and res.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(res.weights @ grads[res.indices], x, rtol=0, atol=1e-12)
    assert reduced


def _zigzag_samples(N, n_pts=9):
    """Symmetric gradients around a valley: hulls reach the origin."""
    rng = np.random.default_rng(N)
    pts = rng.uniform(-1.0, 1.0, size=(n_pts, N))
    # antipodal duplicates make 0 a convex combination within any cluster
    pts = np.concatenate([pts, -pts])
    return [(0.1 * p, p) for p in pts]


def test_convex_search_zigzag():
    for N in (1, 2, 3):
        res = convex_gradient_search(_zigzag_samples(N), eta=0.05)
        assert res.success
        assert len(res.indices) == N + 1
        grads = np.array([_zigzag_samples(N)[i][1] for i in res.indices])
        assert np.linalg.norm(res.weights @ grads) < 0.05
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_convex_search_constant_gradient_fails():
    g = np.array([1.0, 0.0])
    samples = [(np.array([x, 0.0]), g) for x in np.linspace(-1, 1, 12)]
    res = convex_gradient_search(samples, eta=0.05)
    assert not res.success
    assert res.reason


# ---------------------------------------------------------------------------
# rationalization
# ---------------------------------------------------------------------------

def test_rationalize_halves():
    c, d = rationalize([0.5, 0.5], [1.0, 1.0], m=10)
    assert (c, d) == ([1, 1], 2)


def test_rationalize_random_instances():
    rng = np.random.default_rng(7)
    from fractions import Fraction
    for _ in range(25):
        J = int(rng.integers(1, 6))
        m = int(rng.integers(1, 101))
        w = rng.uniform(0.05, 1.0, size=J)
        alphas = w / w.sum()
        lengths = rng.uniform(0.5, 6.0, size=J)
        c, d = rationalize(alphas, lengths, m)
        for a, L, cj in zip(alphas, lengths, c):
            lhs = abs(Fraction(float(a)) / Fraction(float(L)) - Fraction(cj, d))
            assert lhs < Fraction(1) / (m * J * Fraction(float(L)))


def test_rationalize_rejects_bad_lengths():
    with pytest.raises(ValueError):
        rationalize([1.0], [0.0], 5)


def test_rationalize_bounds_are_exact_for_a_float_m():
    # d = 1, c = 0 meets 1/(m J L) in exact arithmetic by under 1e-16; a
    # float m once rounded the bound below it and returned ([1], 2)
    assert rationalize([0.4132919647191354], [0.92854592880299], 2.4195970049395448) == ([0], 1)


@pytest.mark.parametrize("m", [0, -1, float("inf")])
def test_rationalize_rejects_a_bad_m(m):
    # m = 0 divided by zero; m = -1 and m = inf made every bound negative
    # or zero, so the search walked to d_max
    with pytest.raises(ValueError, match=f"m = {m}"):
        rationalize([0.25, 0.75], [1.0, 2.0], m)


# ---------------------------------------------------------------------------
# merging and running ratios
# ---------------------------------------------------------------------------

class _FakeNet:
    def __init__(self, length, value):
        self._length, self._value = length, value

    def length(self, metric=None):
        return self._length


def test_merge_schedule_dominance():
    blocks = [([_FakeNet(2.0, 0)], ([1], 1), 1),
              ([_FakeNet(3.0, 0)], ([2], 1), 2),
              ([_FakeNet(1.0, 0)], ([1], 1), 3)]
    reps, units = _merge_schedule(blocks, lambda n: n.length())
    assert reps[0] == 1
    emitted = units[0]
    for (r, u), m in zip(zip(reps[1:], units[1:]), (2, 3)):
        assert r * u >= m * emitted
        assert (r - 1) * u < m * emitted
        emitted += r * u


def test_merge_sequences_small(torus):
    a, b = torus_geodesic((1, 0)), torus_geodesic((0, 1))
    seq, index_map = merge_sequences([([a], ([1], 1), 1), ([b], ([2], 1), 2)],
                                     length_fn=lambda n: n.length(torus))
    # block 2's unit (b twice, length 2) already dominates 2 x block 1
    assert [id(n) for n in seq] == [id(a), id(b), id(b)]
    assert index_map == [(1, 0), (2, 0), (2, 0)]


def test_merge_sequences_guard():
    blocks = [([_FakeNet(1.0, 0)], ([1], 1), m) for m in range(1, 15)]
    with pytest.raises(ValueError, match="merged_block_ratios"):
        merge_sequences(blocks, length_fn=lambda n: n.length())


def test_merge_envelope():
    alpha = 0.4
    # at 200 blocks the emitted total is far beyond the float range
    for n_blocks, D in ((20, 0.01), (20, 0.05), (20, 0.2), (200, 0.05)):
        blocks = []
        for m in range(1, n_blocks + 1):
            L = 1.0 + 0.07 * m
            value = (alpha + ((-1) ** m) * D / m) * L
            blocks.append(([_FakeNet(L, value)], ([1], 1), m))
        ratios = merged_block_ratios(blocks, value_fn=lambda n: n._value,
                                     length_fn=lambda n: n.length())
        for m in range(1, n_blocks + 1):
            assert abs(ratios[m - 1] - alpha) <= 2 * D / m


def test_ratio_series():
    out = ratio_series([1.0, 3.0], [2.0, 2.0])
    assert np.allclose(out, [0.5, 1.0])
    with pytest.raises(Exception):
        ratio_series([1.0], [0.0])


def test_running_ratio_converges(torus):
    fld = ScalarField(lambda c, x: 0.25
                      * (1 + np.cos(2 * np.pi * np.asarray(x)[..., 0]))
                      * (1 + np.cos(2 * np.pi * np.asarray(x)[..., 1])))
    seq = [torus_geodesic((k, 1), samples=max(64, 4 * k)) for k in range(1, 60)]
    series = running_ratio(seq, fld, torus)
    assert abs(series[-1] - 0.25) < 0.01
    with pytest.raises(ValueError):
        running_ratio([], fld, torus)
