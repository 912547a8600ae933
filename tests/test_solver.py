"""Stationarity solver, second variation and certificates."""

import itertools
import re
import subprocess
import sys
import time
import warnings
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonets import (ConformalFamily, DegenerateNetError, DomainError, DumbbellWidthFamily,
                     ScalarField, closed_geodesic_certificate, conformal_direction,
                     constant_field, dumbbell_circle, embeddedness_certificate, first_variation,
                     is_nondegenerate, second_variation_spectrum, solve_stationary, solver,
                     sphere_latitude, stationarity_residual, torus_geodesic, torus_theta_net)
from geonets.nets import Edge, GammaNet, WeightedMultigraph
from geonets.solver import (_FD_STEP, _Dofs, _edge_ends, _end_cosines, _length_and_dof_grad,
                            _NormalDofs, _steihaug, stationary_tracker)
from geonets.variation import StationarityWarning


# length of the stationary theta net spanned by shifts (1,0), (0,1), (-1,-1)
THETA_LENGTH = 3.3460652149512313


def _perturb(net, rng, scale=0.02):
    out = net.copy()
    for i, (chart, pts) in enumerate(out.edge_paths):
        noise = scale * rng.standard_normal(pts.shape)
        noise[0] = noise[-1] = 0.0
        out.edge_paths[i] = (chart, pts + noise)
    return out


def test_exact_geodesic_is_stationary(torus):
    assert stationarity_residual(torus_geodesic((3, 4)), torus) < 1e-10


def test_solve_recovers_perturbed_geodesics(torus, rng):
    for klass, L in [((1, 0), 1.0), ((3, 4), 5.0)]:
        init = _perturb(torus_geodesic(klass), rng)
        res = solve_stationary(init, torus)
        assert res.converged
        assert res.residual <= 1e-8
        assert res.length == pytest.approx(L, abs=1e-6)


def test_theta_junction_solution(torus):
    res = solve_stationary(torus_theta_net([(1, 0), (0, 1), (-1, -1)]), torus)
    assert res.converged
    assert res.residual <= 1e-8
    assert res.length == pytest.approx(THETA_LENGTH, abs=1e-9)


def _junction_cosines(net, metric):
    """g(u_a, u_b) of every two ends a < b at one vertex."""
    pairs, cos = _end_cosines(*_edge_ends(net, metric))
    return np.array([cos[a][b] for a, b in pairs])


def test_theta_junction_angles(torus):
    res = solve_stationary(torus_theta_net([(1, 0), (0, 1), (-1, -1)]), torus)
    assert np.bincount(_edge_ends(res.net, torus)[0]).tolist() == [3, 3]
    angles = np.degrees(np.arccos(np.clip(_junction_cosines(res.net, torus), -1, 1)))
    assert angles == pytest.approx(np.full(6, 120.0), abs=0.1)


def test_solver_rejects_collapse(torus):
    # a tiny loop on the flat torus shrinks to a point: flagged, not "solved"
    t = np.linspace(0.0, 2 * np.pi, 32)
    pts = 0.5 + 0.01 * np.stack([np.cos(t), np.sin(t)], axis=-1)
    net = GammaNet(WeightedMultigraph(["v"], [Edge("v", "v", 1)]),
                   {"v": ("main", pts[0].copy())}, [("main", pts)])
    res = solve_stationary(net, torus)
    assert not res.converged
    assert "collaps" in res.message or "degenerate" in res.message


def test_coincident_chord_neighbours_are_degenerate(torus):
    # the drag frame has no normal where the two samples around one coincide;
    # the solve once ran 2,000 iterations on such a net before it raised
    net = torus_geodesic((1, 0), samples=9)
    chart, pts = net.edge_paths[0]
    net.edge_paths[0] = (chart, np.concatenate([pts[:3], pts[1:2], pts[4:]]))
    t0 = time.perf_counter()
    with pytest.raises(DegenerateNetError, match="neighbours"):
        solve_stationary(net, torus)
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(DegenerateNetError, match="neighbours"):
        stationarity_residual(net, torus)


def test_solve_says_why_it_stopped(torus):
    # no embedded stationary theta in either class: the first once ran
    # 2,500 iterations and stopped at the iteration limit
    res = solve_stationary(torus_theta_net([(1, 1), (0, 1), (-1, 0)]), torus)
    assert (res.status, res.converged) == ("collapsed", False)
    assert "collaps" in res.message and res.iterations <= 100
    res = solve_stationary(torus_theta_net([(2, 1), (0, 1), (-1, -1)]), torus)
    assert res.status != "max_iter" and res.iterations <= 100
    assert res.converged == (res.status == "converged")


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf")])
def test_solve_rejects_a_bad_tolerance(torus, tol):
    # nan, 0 and -1 once ran all 2,000 iterations and stopped at max_iter
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="tol"):
        solve_stationary(torus_theta_net([(1, 0), (0, 1), (-1, -1)]), torus, tol=tol)
    assert time.perf_counter() - t0 < 0.1


def _noisy_geodesic(klass, samples, seed=3):
    """The geodesic of the class through a seeded offset, with Gaussian
    noise of a quarter of the sample spacing on its interior samples."""
    rng = np.random.default_rng(seed)
    net = torus_geodesic(klass, offset=tuple(rng.uniform(0, 1, 2)), samples=samples)
    chart, pts = net.edge_paths[0]
    noise = 0.25 * np.hypot(*klass) / (samples - 1) * rng.standard_normal(pts.shape)
    noise[0] = noise[-1] = 0.0
    net.edge_paths[0] = (chart, pts + noise)
    return net


def test_newton_steps_converge_quadratically_at_one_gradient_each(torus):
    # Steihaug CG forced to min(0.5, |g|) |g| and one gradient per resampled
    # trial; min(0.5, sqrt|g|) |g| with a second gradient after every
    # accepted step took 9 steps and 19 gradients here
    res = solve_stationary(_noisy_geodesic((2, 1), 64), torus)
    (entry,) = res.trace
    assert res.converged and res.length == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert res.iterations <= 7 and entry["n_grad"] == 1 + res.iterations


def test_solve_calls_no_dense_lapack_routine(torus, rng, monkeypatch):
    # a dense factorisation per Newton step wakes a second OpenBLAS pool
    # thread even at 30 unknowns: a Levenberg-Marquardt prototype took fewer
    # steps but 50 % more CPU time per solve than Steihaug CG
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_stationary called a dense LAPACK routine")

    for name in ("solve", "cholesky", "eigh", "eigvalsh", "lstsq", "inv", "pinv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    theta = solve_stationary(_perturb(torus_theta_net([(1, 0), (0, 1), (-1, -1)]), rng), torus)
    assert theta.converged and theta.length == pytest.approx(THETA_LENGTH, abs=1e-9)
    loop = solve_stationary(_noisy_geodesic((2, 1), 64), torus)
    assert loop.converged and loop.length == pytest.approx(np.sqrt(5.0), abs=1e-12)


#: triangles of lattice shifts from the solve benchmark's Fermat list
FERMAT_TRIANGLES = [[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (0, 0)],
                    [(0, 1), (-1, 0), (1, -1)], [(1, 0), (1, 1), (-1, 1)],
                    [(-1, -1), (0, 0), (1, -1)]]


def _assert_same_solved_length(nets, metric):
    lengths = []
    for net in nets:
        res = solve_stationary(net, metric)
        assert res.converged
        lengths.append(res.length)
    assert np.ptp(lengths) <= 1e-9


def _translated(net, t):
    out = net.copy()
    out.vertex_points = {v: (c, x + t) for v, (c, x) in out.vertex_points.items()}
    out.edge_paths = [(c, pts + t) for c, pts in out.edge_paths]
    return out


@settings(derandomize=True, max_examples=20, deadline=None)
@given(klass=st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda k: gcd(*k) == 1),
       shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       seed=st.integers(0, 2**16))
def test_solved_geodesic_length_is_invariant(torus, klass, shift, seed):
    rng = np.random.default_rng(seed)
    nets = [_perturb(torus_geodesic(klass, samples=n), rng, scale=0.005) for n in (16, 24)]
    nets.append(_translated(nets[0], np.asarray(shift)))
    _assert_same_solved_length(nets, torus)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(shifts=st.sampled_from(FERMAT_TRIANGLES), edge=st.integers(0, 2),
       offset=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_solved_theta_length_is_invariant(torus, shifts, edge, offset, shift):
    net = torus_theta_net(shifts, offset=offset, samples=16)
    nets = [net, _translated(net, np.asarray(shift)), net.reversed_edge(edge),
            torus_theta_net(shifts, offset=offset, samples=24)]
    _assert_same_solved_length(nets, torus)


def test_spectrum_flat_circle(torus):
    eig = second_variation_spectrum(torus_geodesic((1, 0)), torus)
    # translation + reparametrization null modes, then strictly positive
    assert abs(eig[0]) < 1e-8 and abs(eig[1]) < 1e-8
    assert np.sort(eig)[2] > 0.1
    assert not is_nondegenerate(torus_geodesic((1, 0)), torus, 1e-6)


def test_spectrum_diagonal_circles_are_degenerate(torus):
    # the translation Jacobi field must read as zero: an O(h^2) truncation
    # error of 8.8e-6 at h = 1e-5 once lifted it above the 1e-6 threshold
    for klass, samples in (((1, 1), 64), ((2, 1), 96)):
        net = torus_geodesic(klass, samples=samples)
        eig = np.sort(np.abs(second_variation_spectrum(net, torus)))
        assert eig[1] < 1e-6
        assert not is_nondegenerate(net, torus, 1e-6)


def _dense_length_hessian(dofs, metric, x):
    """Reference: one central difference per column at the same step."""
    n = x.size
    H = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = _FD_STEP
        H[:, j] = (_length_and_dof_grad(dofs, metric, x + e)[1]
                   - _length_and_dof_grad(dofs, metric, x - e)[1]) / (2 * _FD_STEP)
    return 0.5 * (H + H.T)


def _dense_normal_map(net, drag):
    """Reference N: with ``drag``, vertex columns drag each interior sample
    k of the m on an edge by 1 - k/(m+1) towards v0 and k/(m+1) towards
    v1; one column per interior sample along its chord normal."""
    verts = list(net.vertex_points)
    nv2, ns = 2 * len(verts), sum(pts.shape[0] - 2 for _, pts in net.edge_paths)
    N = np.zeros((nv2 + 2 * ns, nv2 + ns))
    N[:nv2, :nv2] = np.eye(nv2)
    j = 0
    for e, (_, pts) in zip(net.graph.edges, net.edge_paths):
        m = pts.shape[0] - 2
        for k in range(1, m + 1):
            row = nv2 + 2 * j
            for v, w in ((e.v0, 1 - k / (m + 1)), (e.v1, k / (m + 1))):
                i = verts.index(v)
                N[row, 2 * i] += w * drag
                N[row + 1, 2 * i + 1] += w * drag
            t = pts[k + 1] - pts[k - 1]
            N[row:row + 2, nv2 + j] = np.array([-t[1], t[0]]) / np.hypot(*t)
            j += 1
    return N


def _cos_cos_torus(torus, t):
    """The torus scaled by e^(2 t cos 2 pi x cos 2 pi y), with an analytic gradient."""
    def grad(c, x):
        cx, cy = np.cos(2 * np.pi * x[..., 0]), np.cos(2 * np.pi * x[..., 1])
        sx, sy = np.sin(2 * np.pi * x[..., 0]), np.sin(2 * np.pi * x[..., 1])
        return -2 * np.pi * np.stack([sx * cy, cx * sy], -1)

    psi = ScalarField(lambda c, x: np.cos(2 * np.pi * x[..., 0]) * np.cos(2 * np.pi * x[..., 1]),
                      grad_fn=grad)
    return ConformalFamily(torus, [psi]).at([t])


def test_reduced_hessian_equals_dense(torus, sphere, dumbbell):
    # 2 samples per edge: no interior samples, the vertices couple directly
    cases = [(torus_theta_net([(1, 0), (0, 1), (-1, -1)], samples=s).reversed_edge(1), torus)
             for s in (16, 3, 2)]
    cases += [(torus_geodesic((2, 1), samples=40, mult=2), torus),
              (dumbbell_circle(dumbbell, 0.5, samples=48), dumbbell)]
    cases += [(sphere_latitude(sphere, 1.0, samples=s), sphere) for s in (17, 18, 40)]
    cases.append((torus_theta_net([(1, 0), (0, 1), (-1, -1)], samples=16), _cos_cos_torus(torus, 0.2)))
    for (net, metric), drag in itertools.product(cases, (True, False)):
        dofs = _Dofs(net, metric)
        x, N = dofs.pack(), _dense_normal_map(net, drag)
        frame = _NormalDofs(dofs, x, drag)
        # x itself can be orthogonal to N: the (2,1) line runs through 0
        y, v = np.linspace(-1.0, 1.0, frame.size), np.cos(np.arange(x.size))
        for got, want in ((frame.expand(y), N @ y), (frame.restrict(v), N.T @ v)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

        def grad(z):
            return _length_and_dof_grad(dofs, metric, z)[1]

        def column_differences(h):
            return np.stack([(grad(x + h * c) - grad(x - h * c)) / (2 * h) for c in N.T], axis=1)

        H = frame.hessian(metric)
        assert np.array_equal(H, H.T)
        # central differences per column of N, Richardson-extrapolated
        HN = (4 * column_differences(5e-6) - column_differences(1e-5)) / 3
        ref = 0.5 * (N.T @ HN + HN.T @ N)
        assert np.max(np.abs(H - ref)) <= 1e-9 * np.max(np.abs(ref))
        # against the full Hessian, one central difference per dof: moving
        # one sample alone bends two short segments, whose fourth
        # derivatives put 2e-8 of truncation on the dumbbell's entries
        full = N.T @ _dense_length_hessian(dofs, metric, x) @ N
        assert np.max(np.abs(H - full)) <= 1e-7 * np.max(np.abs(full))


def test_steihaug_stops_on_the_boundary_at_negative_curvature():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    g = rng.standard_normal(20)

    def check(A, radius):
        """The step at most ``radius`` long, and no worse on the model than
        the Cauchy point, CG's first iterate."""
        p = _steihaug(lambda v: A @ v, g, radius, 1e-12)
        gAg, gn = g @ A @ g, np.linalg.norm(g)
        tau = 1.0 if gAg <= 0.0 else min(1.0, gn**3 / (radius * gAg))
        cauchy = -tau * radius / gn * g
        assert np.linalg.norm(p) <= radius * (1 + 1e-12)
        assert g @ p + 0.5 * p @ A @ p <= g @ cauchy + 0.5 * cauchy @ A @ cauchy + 1e-12
        return p

    indefinite = (Q * np.linspace(-1.0, 4.0, 20)) @ Q.T
    for radius in (1e3, 1.0):
        assert np.linalg.norm(check(indefinite, radius)) == pytest.approx(radius, rel=1e-12)
    A = (Q * np.linspace(1.0, 4.0, 20)) @ Q.T            # positive definite: Newton step
    assert np.max(np.abs(check(A, 1e3) + np.linalg.solve(A, g))) <= 1e-10
    assert np.linalg.norm(check(A, 0.1)) == pytest.approx(0.1, rel=1e-12)


def _per_edge_length_and_dof_grad(dofs, metric, x):
    """Reference: the discrete length and its gradient edge by edge."""
    net = dofs.unpack(x)
    total, g = 0.0, np.zeros(dofs.size)
    ofs = 2 * dofs.nv
    for e, (chart, pts), m in zip(net.graph.edges, net.edge_paths, dofs.interior_counts):
        delta = np.diff(pts, axis=0)
        mids = 0.5 * (pts[:-1] + pts[1:])
        gd = np.einsum("sij,sj->si", metric.metric(chart, mids), delta)
        seg = np.sqrt(np.einsum("si,si->s", delta, gd))
        q = np.einsum("skij,si,sj->sk", metric.metric_deriv(chart, mids), delta, delta)
        total += e.mult * float(np.sum(seg))
        gp = np.zeros_like(pts)
        safe = np.where(seg > 0.0, seg, 1.0)[:, None]
        gp[1:] += np.where(seg[:, None] > 0.0, (gd + 0.25 * q) / safe, 0.0)
        gp[:-1] += np.where(seg[:, None] > 0.0, (-gd + 0.25 * q) / safe, 0.0)
        gp *= e.mult
        g[ofs:ofs + 2 * m] += gp[1:-1].ravel()
        ofs += 2 * m
        for v, row in ((e.v0, gp[0]), (e.v1, gp[-1])):
            i = dofs.vindex[v]
            g[2 * i:2 * i + 2] += row
    return total, g


def test_packed_gradient_matches_per_edge_reference(torus, sphere, dumbbell, rng):
    north = sphere_latitude(sphere, 1.0, samples=40)
    south = sphere_latitude(sphere, 2.2, samples=30)
    two_charts = GammaNet(WeightedMultigraph(["n", "s"], [Edge("n", "n"), Edge("s", "s")]),
                          {"n": north.vertex_points["v"], "s": south.vertex_points["v"]},
                          north.edge_paths + south.edge_paths)
    conformal = ConformalFamily(torus, [constant_field(1.0)]).at([0.3])
    cases = [(torus_theta_net([(1, 0), (0, 1), (-1, -1)], samples=16).reversed_edge(1), torus),
             (torus_geodesic((2, 1), samples=40, mult=2), torus),
             (dumbbell_circle(dumbbell, 0.5, samples=48), dumbbell),
             (torus_theta_net([(1, 0), (0, 1), (0, 0)], samples=12), conformal),
             (two_charts, sphere)]
    for net, metric in cases:
        dofs = _Dofs(net, metric)
        x = dofs.pack() + 1e-3 * rng.standard_normal(dofs.size)
        L, g, _ = _length_and_dof_grad(dofs, metric, x)
        L_ref, g_ref = _per_edge_length_and_dof_grad(dofs, metric, x)
        assert abs(L - L_ref) <= 1e-14 * L_ref
        assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref))
    assert [c for c, _ in _Dofs(two_charts, sphere).chart_segments] == ["north", "south"]


def test_solve_trace_records_every_phase(torus):
    res = solve_stationary(torus_theta_net([(1, 0), (0, 1), (-1, -1)]), torus)
    phases = [entry["phase"] for entry in res.trace]
    assert set(phases) <= {"trust-region"} and phases[0] == "trust-region"
    assert sum(e["nit"] for e in res.trace) == res.iterations
    for entry in res.trace:
        assert set(entry) == {"phase", "nit", "n_grad", "n_hess", "grad_norm", "length", "seconds"}
        assert entry["n_grad"] >= entry["nit"] + 1 and entry["seconds"] >= 0.0
    assert res.trace[-1]["grad_norm"] == res.residual
    assert res.residual == pytest.approx(stationarity_residual(res.net, torus), abs=1e-12)
    assert (res.status, res.message) == ("converged", "gradient below tolerance")


def test_solve_trace_counts_gradients_and_hessians(torus, rng, monkeypatch):
    calls = {"grad": 0, "hess": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(solver, "_length_and_dof_grad", counted("grad", solver._length_and_dof_grad))
    monkeypatch.setattr(_NormalDofs, "hessian", counted("hess", _NormalDofs.hessian))
    res = solve_stationary(_perturb(torus_theta_net([(1, 0), (0, 1), (-1, -1)]), rng), torus)
    (entry,) = res.trace
    assert res.converged and 0 < entry["n_hess"] <= res.iterations
    assert (entry["n_grad"], entry["n_hess"]) == (calls["grad"], calls["hess"])
    # the first gradient and one per trial step, which an accepted step
    # keeps; a Hessian at the start and after every accepted step but the last
    assert entry["n_grad"] == 1 + res.iterations


def test_net_on_foreign_charts_is_domain_error(sphere, dumbbell):
    # every metric ignores its chart argument: a torus theta on the sphere
    # once ran 2,500 iterations and returned an edge residual of 41, and on
    # the dumbbell, whose chart is also called 'main', 2,000 iterations to
    # max_iter, although its edge ends are not whole periods apart there
    theta = torus_theta_net([(1, 0), (0, 1), (-1, -1)])
    for net, surface in [(theta, sphere), (theta, dumbbell), (torus_geodesic((0, 1)), dumbbell)]:
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="'main'"):
            solve_stationary(net, surface)
        assert time.perf_counter() - t0 < 0.1
        with pytest.raises(DomainError):
            stationarity_residual(net, surface)


def test_solve_loads_no_scipy_optimize():
    # no scipy module at all: scipy loads a second OpenBLAS thread pool
    code = ("import sys, geonets as gn\n"
            "res = gn.solve_stationary(gn.torus_theta_net([(1, 0), (0, 1), (-1, -1)], samples=16),"
            " gn.FlatTorus())\n"
            "assert res.converged\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_spectrum_sphere_equator(sphere):
    from geonets import sphere_latitude
    net = _polished(sphere_latitude(sphere, np.pi / 2, samples=64), sphere)
    eig = second_variation_spectrum(net, sphere)
    s = np.sort(eig)
    # rotations to nearby great circles give null modes; one unstable mode
    assert s[0] < -0.05
    assert abs(s[1]) < 1e-4 and abs(s[2]) < 1e-4
    assert not is_nondegenerate(net, sphere, 1e-4)


def test_spectrum_dumbbell_neck_stable(dumbbell):
    from geonets import dumbbell_circle
    net = _polished(dumbbell_circle(dumbbell, 0.5, samples=64), dumbbell)
    eig = second_variation_spectrum(net, dumbbell)
    s = np.sort(eig)
    assert s[0] > -1e-6          # no unstable mode
    assert is_nondegenerate(net, dumbbell, 1e-4)


def test_index_one_circle_on_conformal_torus(torus):
    # e^{2 t cos(2 pi y)} g makes y = 0 a length local maximum across levels
    psi = ScalarField(lambda c, x: np.cos(2 * np.pi * np.asarray(x)[..., 1]),
                      grad_fn=lambda c, x: np.stack(
                          [np.zeros(np.asarray(x).shape[:-1]),
                           -2 * np.pi * np.sin(2 * np.pi * np.asarray(x)[..., 1])],
                          axis=-1))
    metric = ConformalFamily(torus, [psi]).at([0.1])
    net = _polished(torus_geodesic((1, 0), samples=64), metric)
    eig = second_variation_spectrum(net, metric)
    assert int(np.sum(np.sort(eig) < -1e-6)) == 1


def _polished(net, metric):
    # pseudo-inverse chord-Newton: unlike solve_stationary, which
    # minimizes, it stays on saddles such as the sphere equator
    out = stationary_tracker(net, metric)(metric)
    dofs = _Dofs(out, metric)
    assert np.linalg.norm(_length_and_dof_grad(dofs, metric, dofs.pack())[1]) <= 1e-8
    return out


def test_tracker_raises_when_chord_steps_do_not_settle(torus):
    # this iteration once ran its 40 chord steps, the last of norm 2.7,
    # and returned the net it had reached
    net = solve_stationary(torus_theta_net([(1, 0), (0, 1), (-1, -1)], samples=24), torus).net
    psi = ScalarField(lambda c, x: np.cos(2 * np.pi * x[..., 0]) * np.cos(2 * np.pi * x[..., 1]))
    family = ConformalFamily(torus, [psi])
    track = stationary_tracker(net, torus)
    assert isinstance(track(family.at([0.1])), GammaNet)
    with pytest.raises(ValueError, match="last step norm"):
        track(family.at([0.3]))


@pytest.fixture(scope="module")
def solved_theta(torus):
    return solve_stationary(torus_theta_net(FERMAT_TRIANGLES[0], samples=16), torus).net


@settings(derandomize=True, max_examples=10, deadline=None)
@given(shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), edge=st.integers(0, 2),
       klass=st.sampled_from([(1, 0), (1, 1), (2, 1)]), mult=st.integers(2, 4))
def test_spectrum_is_invariant(torus, solved_theta, shift, edge, klass, mult):
    def assert_same(a, b):
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))

    eig = second_variation_spectrum(solved_theta, torus)
    assert_same(eig, second_variation_spectrum(_translated(solved_theta, np.asarray(shift)), torus))
    assert_same(eig, second_variation_spectrum(solved_theta.reversed_edge(edge), torus))
    circle = second_variation_spectrum(torus_geodesic(klass, samples=48), torus)
    assert_same(mult * circle,
                second_variation_spectrum(torus_geodesic(klass, samples=48, mult=mult), torus))


def test_spectrum_requires_stationarity(torus, rng):
    bad = _perturb(torus_geodesic((1, 0)), rng, scale=0.05)
    with pytest.raises(ValueError):
        second_variation_spectrum(bad, torus)


def _cos_field(a, b):
    return ScalarField(lambda c, x: np.cos(2 * np.pi * a * x[..., 0]) * np.cos(2 * np.pi * b * x[..., 1]))


# solves on e^{2 t psi} g, psi = cos(2 pi a x) cos(2 pi b y), that once
# ended stalled at a full gradient of 5e-5 to 2e-3 (after 29, 24, 50, 38 and
# 31 steps) although their reduced gradient was 1e-11 to 2e-8; the lengths
# are the ones they stalled at, and the two nets whose lowest eigenvalue is
# given were refused a spectrum
STALLED_SOLVES = {
    "y0-t0.1": (lambda: torus_geodesic((1, 0), samples=64), (1, 1), 0.1, 1.002501562934, None),
    "y0-t0.2": (lambda: torus_geodesic((1, 0), samples=64), (1, 1), 0.2, 1.010025027795, None),
    "off-axis": (lambda: torus_geodesic((1, 0), offset=(0.1, 0.3), samples=48), (1, 1), 0.2,
                 0.990247050741, 2.02e-2),
    "theta": (lambda: torus_theta_net([(1, 0), (0, 1), (-1, -1)]), (1, 1), 0.2, 3.096858132012, 9.43e-2),
    "(1,1)": (lambda: torus_geodesic((1, 1)), (1, 2), 0.1, 1.408164218180, None),
}


@pytest.mark.parametrize("case", STALLED_SOLVES)
def test_solves_on_varying_conformal_tori_converge(torus, case):
    init, (a, b), t, length, lowest = STALLED_SOLVES[case]
    metric = ConformalFamily(torus, [_cos_field(a, b)]).at([t])
    res = solve_stationary(init(), metric)
    assert res.status == "converged" and res.residual <= 1e-8
    assert stationarity_residual(res.net, metric) == pytest.approx(res.residual, abs=1e-12)
    assert res.length == pytest.approx(length, abs=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", StationarityWarning)
        first_variation(res.net, metric, conformal_direction(metric, constant_field(1.0)))
    if lowest is not None:
        assert np.min(second_variation_spectrum(res.net, metric)) == pytest.approx(lowest, rel=5e-3)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(theta=st.booleans(), which=st.integers(0, 4),
       offset=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), c=st.floats(-1.0, 1.0),
       samples=st.integers(3, 33))
def test_stationarity_residual_scales_with_a_constant_conformal_factor(torus, theta, which, offset, c,
                                                                        samples):
    # every segment length, so the gradient, scales by e^c under e^{2c} g,
    # and the drag frame reads chart coordinates alone
    if theta:
        net = torus_theta_net(FERMAT_TRIANGLES[which], offset=offset, samples=samples)
    else:
        net = _translated(_noisy_geodesic([(1, 0), (0, 1), (1, 1), (2, 1), (1, -2)][which], samples),
                          np.asarray(offset))
    scaled = ConformalFamily(torus, [constant_field(1.0)]).at([c])
    residual = stationarity_residual(net, torus)
    assert residual > 1e-3
    assert stationarity_residual(net, scaled) == pytest.approx(np.exp(c) * residual, rel=1e-12)


def test_embeddedness_certificate_circle(torus):
    cert = embeddedness_certificate(torus_geodesic((1, 0)), torus, M_bound=12)
    assert cert.all_satisfied()
    assert cert.F1 == pytest.approx(1.0, abs=1e-9)
    # farthest-window separation on the unit circle is half a period
    assert min(cert.dE_min.values()) == pytest.approx(0.5, abs=1e-9)


def test_embeddedness_certificate_theta(torus):
    res = solve_stationary(torus_theta_net([(1, 0), (0, 1), (0, 0)]), torus)
    assert res.converged
    cert = embeddedness_certificate(res.net, torus, M_bound=12)
    assert cert.all_satisfied()
    # junction angles of a balanced triple: cos(120 deg)
    for v in cert.F2_values.values():
        assert v == pytest.approx(-0.5, abs=2e-3)


@pytest.mark.parametrize("M", [0, -3, 2.9, float("inf")])
def test_certificate_rejects_a_bad_M_bound(torus, M):
    # 0 divided by zero, -3 passed conditions 3-6, 2.9 became 2 and inf overflowed
    with pytest.raises(ValueError, match="M_bound"):
        embeddedness_certificate(torus_geodesic((1, 0)), torus, M_bound=M)


def test_certificate_flags_self_overlap(torus):
    # this theta embedding wraps an edge past a lattice vector: it
    # self-overlaps, and the separation conditions must fail
    res = solve_stationary(torus_theta_net([(1, 0), (0, 1), (-1, -1)]), torus)
    cert = embeddedness_certificate(res.net, torus, M_bound=12)
    assert not (cert.satisfied[5] and cert.satisfied[6])


def _reference_separations(cert_net, metric):
    """dE_min and dEE_min by one distance call per sample pair."""
    inj, edges = metric.injectivity_lower_bound, cert_net.graph.edges
    lengths = cert_net.edge_lengths(metric)
    t = [np.linspace(0.0, 1.0, pts.shape[0]) for _, pts in cert_net.edge_paths]
    dE, dEE = {}, {}
    for i, e in enumerate(edges):
        chart, pts = cert_net.edge_paths[i]
        dE[i] = np.inf
        for a, b in zip(*np.triu_indices(len(pts), 1)):
            sep = abs(t[i][a] - t[i][b])
            sep = min(sep, 1.0 - sep) if e.v0 == e.v1 else sep
            if sep >= min(inj / lengths[i], 0.5) - 1e-12:
                dE[i] = min(dE[i], metric.distance(chart, pts[a], chart, pts[b]))
        for j, ep in enumerate(edges):
            if j == i:
                continue
            chart_j, pts_j = cert_net.edge_paths[j]
            shared = [(ii, jj) for ii in (0, 1) for jj in (0, 1) if ep.endpoint(ii) == e.endpoint(jj)]
            dEE[(i, j)] = np.inf
            for a, b in np.ndindex(len(pts), len(pts_j)):
                if not any(abs(t[i][a] - jj) <= inj / lengths[i] and abs(t[j][b] - ii) < inj / lengths[j]
                           for ii, jj in shared):
                    dEE[(i, j)] = min(dEE[(i, j)], metric.distance(chart, pts[a], chart_j, pts_j[b]))
    return dE, dEE


def test_certificate_separations_match_pairwise_loop(torus, dumbbell):
    # one reversed edge, so shared endpoints pair a start with an end
    theta = solve_stationary(torus_theta_net([(1, 0), (0, 1), (0, 0)]), torus).net.reversed_edge(1)
    for net, metric, samples in ((theta, torus, 17), (dumbbell_circle(dumbbell, 0.5), dumbbell, 9)):
        cert = embeddedness_certificate(net, metric, M_bound=12, cert_samples=samples)
        dE, dEE = _reference_separations(net.resample(metric, samples), metric)
        assert cert.dE_min == dE
        assert cert.dEE_min == dEE


@pytest.mark.parametrize("kind", ["torus", "sphere"])
def test_distance_without_closed_form_or_mesh_is_domain_error(kind, torus, sphere, rng):
    if kind == "torus":
        # one chart: the mesh measures e^c times the flat distance.  Snapping
        # moves each end by up to h / sqrt(2) = 0.0073; of these 40,000
        # pairs, the 35,011 at least 0.2 apart measured at most 7.32 % off
        c = 0.2
        metric = ConformalFamily(torus, [constant_field(1.0)]).at([c])
        P, Q = rng.uniform(-0.5, 1.5, size=(2, 200, 2))
        D = metric.distances("main", P, "main", Q)
        ref = np.exp(c) * torus.distances("main", P, "main", Q)
        far = ref >= 0.2 * np.exp(c)
        assert far.sum() > 10_000
        assert np.max(np.abs(D - ref)[far] / ref[far]) <= 0.08
        return
    net = sphere_latitude(sphere, 1.0)
    bump = ScalarField(lambda c, x: np.cos(np.asarray(x)[..., 0]))
    metric = ConformalFamily(sphere, [bump]).at([0.2])
    chart, pts = net.edge_paths[0]
    with pytest.raises(DomainError, match=re.escape(metric.name)):
        metric.distance(chart, pts[0], chart, pts[3])
    with pytest.raises(DomainError):
        embeddedness_certificate(net, metric, M_bound=12, cert_samples=9)


def test_dumbbell_mesh_closes_the_seam_on_the_waist(dumbbell):
    assert dumbbell.distance("main", [0.5, 0.0], "main", [0.5, 2 * np.pi]) == 0.0
    # 13 samples on the neck circle of radius r: the certificate pairs
    # samples at least 2 of 12 steps apart, an angle of pi / 3
    cert = embeddedness_certificate(dumbbell_circle(dumbbell, 0.5), dumbbell,
                                    M_bound=12, cert_samples=13)
    r = dumbbell.neck
    assert 2 * r * np.sin(np.pi / 6) <= cert.dE_min[0] <= r * np.pi / 3


def _unlimited_least_distance(metric, chart_p, P, chart_q, Q, keep):
    rows = keep.any(axis=1)
    if not rows.any():
        return np.inf
    return float(np.min(metric.distances(chart_p, P[rows], chart_q, Q)[keep[rows]]))


def test_limited_least_distance_is_bit_identical(torus, dumbbell, monkeypatch):
    bump = ScalarField(lambda c, x: np.cos(2 * np.pi * np.asarray(x)[..., 0]))
    conformal = ConformalFamily(torus, [bump]).at([0.2])
    member = DumbbellWidthFamily(dumbbell).at(0.15)
    cases = [(dumbbell_circle(dumbbell, 0.5), dumbbell, n) for n in (9, 13, 33)]
    cases += [(dumbbell_circle(dumbbell, 0.5), member, 9),
              (torus_theta_net([(1, 0), (0, 1), (-1, -1)], samples=24), conformal, 17)]
    limited = [embeddedness_certificate(net, metric, M_bound=12, cert_samples=n)
               for net, metric, n in cases]
    monkeypatch.setattr(solver, "_least_distance", _unlimited_least_distance)
    for cert, (net, metric, n) in zip(limited, cases):
        ref = embeddedness_certificate(net, metric, M_bound=12, cert_samples=n)
        assert cert.dE_min == ref.dE_min
        assert cert.dEE_min == ref.dEE_min


def test_closed_geodesic_certificate_circle(torus):
    res = closed_geodesic_certificate(torus_geodesic((2, 3)), torus)
    assert res.ok
    assert len(res.circles) == 1


def _figure_eight(k1, k2, offset=(0.0, 0.0), samples=65):
    """Straight circles of classes k1 and k2 through one vertex at ``offset``."""
    t, o = np.linspace(0.0, 1.0, samples)[:, None], np.asarray(offset, dtype=float)
    graph = WeightedMultigraph(["o"], [Edge("o", "o", 1), Edge("o", "o", 1)])
    paths = [("main", o + t * np.asarray(k, dtype=float)) for k in (k1, k2)]
    return GammaNet(graph, {"o": ("main", o)}, paths)


def test_figure_eight_pairs_into_two_circles(torus):
    net = _figure_eight((1, 0), (0, 1))
    res = closed_geodesic_certificate(net, torus)
    assert res.ok
    assert len(res.circles) == 2


def test_tripod_has_no_pairing(torus):
    res = solve_stationary(torus_theta_net([(1, 0), (0, 1), (0, 0)]), torus)
    out = closed_geodesic_certificate(res.net, torus)
    assert not out.ok
    assert "odd" in out.reason or "match" in out.reason


def test_tangent_strands_fail_transversality(torus):
    # two copies of the same circle through one vertex: strands collinear
    net = _figure_eight((1, 0), (1, 0))
    # whichever opposite ends pair, the two strands left over at the
    # vertex are collinear, not transverse
    out = closed_geodesic_certificate(net, torus)
    assert not out.ok
    assert "transverse" in out.reason


FIGURE_EIGHTS = [((1, 0), (0, 1)), ((1, 1), (1, -1)), ((2, 1), (0, 1)), ((1, 0), (1, 2))]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(theta=st.booleans(), which=st.integers(0, 3), edge=st.integers(0, 2),
       offset=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), c=st.floats(-0.5, 0.5),
       samples=st.integers(3, 33))
def test_edge_reversal_leaves_the_vertex_conditions(torus, theta, which, edge, offset, c, samples):
    # reversing an edge renumbers its two ends in the edge-end table; the
    # balance, the junction angles and the pairing must not notice
    if theta:
        net = torus_theta_net(FERMAT_TRIANGLES[which], offset=offset, samples=samples)
    else:
        net = _figure_eight(*FIGURE_EIGHTS[which], offset=offset, samples=samples)
    rev = net.reversed_edge(edge % len(net.graph.edges))
    wave = ScalarField(lambda chart, x: np.cos(2 * np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1]))
    for metric in (torus, ConformalFamily(torus, [wave]).at([c])):
        before, after = (stationarity_residual(n, metric) for n in (net, rev))
        assert after == pytest.approx(before, abs=1e-15)
        # the junction cosines F2 reads; the conformal g at the two ends of
        # a loop differs by rounding, and reversal swaps which end is read
        before, after = (np.sort(_junction_cosines(n, metric)) for n in (net, rev))
        assert after == pytest.approx(before, abs=0.0 if metric is torus else 1e-14)
        before, after = (closed_geodesic_certificate(n, metric) for n in (net, rev))
        assert after.ok == before.ok == (not theta)
        assert len(after.circles) == len(before.circles) == 2 * (not theta)
