"""Seeded inputs and checked operations of the four benchmark workloads.

``build(name, seed)`` draws every input from ``numpy.random.default_rng(seed)``
and returns one *round*: a fixed list of operations that the timed loop
repeats unchanged.  An operation calls the library through the public
``geonets`` namespaces (so the traced run sees every call) and then checks
the result against ``checks``, which never calls the library.  Sizes,
classes of input and the count of each kind of operation are fixed per
workload; the seed moves noise, offsets, weights and which of several
equally costly classes a slot uses, so every seed does about the same work.

Four operations fail on every round because of three faults in the library;
they use fixed inputs and raise :class:`KnownFault` with the fault's label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import geonets as gn
from geonets import solver
from geonets.surfaces import DumbbellWidthFamily
from geonets.variation import LinearlyPerturbedSurface

import checks as ck
from checks import require

class KnownFault(Exception):
    """An operation hit a library fault the benchmark knows by name."""

    def __init__(self, label):
        super().__init__(label)
        self.label = label


@dataclass
class Op:
    kind: str
    run: object                 # callable() -> None; raises on a wrong result
    warm: bool = True           # part of warm-up (False: rebuilds its state anyway)


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)

    def warm_up(self):
        """Run the first operation of every kind once, untimed, so lazy
        imports, first-call costs and persistent caches are paid before
        timing.  Operations that rebuild their state on every call are
        skipped: warming them would warm nothing."""
        seen = set()
        for op in self.ops:
            if op.warm and op.kind not in seen:
                seen.add(op.kind)
                try:
                    op.run()
                except KnownFault:
                    pass


# ---------------------------------------------------------------------------
# shared inputs
# ---------------------------------------------------------------------------

PRIMITIVE = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2),
             (3, 1), (1, 3), (3, 2), (2, 3)]

#: shift triangles with every angle at most 90 degrees, each carrying an
#: embedded stationary theta net at its Fermat point
THETA_SHIFTS = [
    [(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (0, 0)], [(1, 0), (0, 1), (-1, 0)],
    [(1, 0), (0, 1), (1, 1)], [(1, 0), (-1, -1), (-1, 0)], [(1, 0), (0, 0), (0, -1)],
    [(1, 0), (0, 0), (1, -1)], [(1, 0), (-1, 0), (0, -1)], [(1, 0), (-1, 0), (-1, 1)],
    [(1, 0), (0, -1), (1, -1)], [(1, 0), (0, -1), (-1, 1)], [(1, 0), (1, 1), (-1, 1)],
    [(0, 1), (-1, -1), (0, -1)], [(0, 1), (0, 0), (-1, 0)], [(0, 1), (0, 0), (-1, 1)],
    [(0, 1), (-1, 0), (0, -1)], [(0, 1), (-1, 0), (1, -1)], [(0, 1), (-1, 0), (-1, 1)],
    [(0, 1), (0, -1), (1, -1)], [(0, 1), (1, 1), (1, -1)], [(-1, -1), (0, 0), (-1, 0)],
    [(-1, -1), (0, 0), (0, -1)], [(-1, -1), (0, 0), (1, -1)], [(-1, -1), (0, 0), (-1, 1)],
]

NECK = 0.2


def _cos_field(a, b):
    """cos(2 pi a x) cos(2 pi b y) with its analytic gradient."""

    def fn(chart, x):
        x = np.asarray(x, dtype=float)
        return np.cos(2 * np.pi * a * x[..., 0]) * np.cos(2 * np.pi * b * x[..., 1])

    def grad(chart, x):
        x = np.asarray(x, dtype=float)
        cx, cy = np.cos(2 * np.pi * a * x[..., 0]), np.cos(2 * np.pi * b * x[..., 1])
        sx = -2 * np.pi * a * np.sin(2 * np.pi * a * x[..., 0])
        sy = -2 * np.pi * b * np.sin(2 * np.pi * b * x[..., 1])
        return np.stack([sx * cy, cx * sy], axis=-1)

    return gn.ScalarField(fn, grad_fn=grad, name=f"cos({a}x)cos({b}y)")


def _noisy_geodesic(rng, klass, samples):
    """Straight circle of the class through a seeded offset, with Gaussian
    noise of a quarter of the sample spacing on its interior samples."""
    net = gn.torus_geodesic(klass, offset=tuple(rng.uniform(0, 1, 2)), samples=samples)
    chart, pts = net.edge_paths[0]
    amp = 0.25 * math.hypot(*klass) / (samples - 1)
    noise = amp * rng.standard_normal(pts.shape)
    noise[0] = noise[-1] = 0.0
    net.edge_paths[0] = (chart, pts + noise)
    return net


def _fermat_theta(shifts, offset, samples):
    """Theta net with straight edges meeting at 120 degrees, built in
    closed form: vertex b sits at a minus the Fermat point of the shifts."""
    a = np.asarray(offset, dtype=float)
    b = a - ck.fermat_point(shifts)
    t = np.linspace(0.0, 1.0, samples)[:, None]
    paths = [("main", a + t * (b + np.asarray(s, dtype=float) - a)) for s in shifts]
    net = gn.GammaNet(gn.theta_graph(), {"a": ("main", a), "b": ("main", b)}, paths)
    segments = [(a, b + np.asarray(s, dtype=float) - a, samples - 1, 1) for s in shifts]
    return net, segments


def _theta_angles_ok(net):
    paths = [p for _, p in net.edge_paths]
    for ends in ([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 1), (2, 1)]):
        for ang in ck.junction_angles(paths, ends):
            require(abs(ang - 120.0) <= 0.1, f"junction angle {ang:.4f} deg")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

SOLVE_GEODESIC_SAMPLES = [32] * 8 + [48] * 5 + [64] * 4 + [96, 128, 256]
#: flat theta nets, 16 samples per edge; each slot keeps its triangle and
#: the seed moves the net, since the solve cost depends on the triangle
SOLVE_THETAS = [[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (0, 0)],
                [(0, 1), (-1, 0), (1, -1)]]
#: the same on constant-conformal tori e^{2c} g
SOLVE_CONFORMAL_THETAS = [[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 0), (0, -1)]]
SOLVE_COS_GEODESICS = 3          # (1,0) circles on a cos(2 pi y)-conformal torus
SOLVE_NECK_SAMPLES = [48, 64, 96]  # noisy dumbbell neck circles


def _solve_ops(rng):
    torus = gn.FlatTorus()
    dumbbell = gn.Dumbbell(neck=NECK)
    ops = []

    def solved(init, metric, expected, theta=False):
        def run():
            res = gn.solve_stationary(init, metric)
            require(res.converged, f"not converged: {res.message}")
            require(abs(res.length - expected) <= 1e-6,
                    f"length {res.length:.12g}, closed form {expected:.12g}")
            if theta:
                _theta_angles_ok(res.net)
        return run

    for samples in SOLVE_GEODESIC_SAMPLES:
        klass = PRIMITIVE[rng.integers(len(PRIMITIVE))]
        init = _noisy_geodesic(rng, klass, samples)
        ops.append(Op("geodesic", solved(init, torus, math.hypot(*klass))))

    const = gn.ConformalFamily(torus, [gn.constant_field(1.0)])
    for shifts in SOLVE_THETAS:
        init = gn.torus_theta_net(shifts, offset=tuple(rng.uniform(0, 1, 2)), samples=16)
        ops.append(Op("theta", solved(init, torus, ck.fermat_length(shifts), True)))
    for shifts in SOLVE_CONFORMAL_THETAS:
        init = gn.torus_theta_net(shifts, offset=tuple(rng.uniform(0, 1, 2)), samples=16)
        c = float(rng.uniform(-0.5, 0.5))
        ops.append(Op("conformal-theta",
                      solved(init, const.at([c]), math.exp(c) * ck.fermat_length(shifts), True)))

    cos_family = gn.ConformalFamily(torus, [_cos_field(0, 1)])
    for _ in range(SOLVE_COS_GEODESICS):
        t = float(rng.uniform(0.15, 0.35))
        y0 = 0.5 + float(rng.choice([-1, 1]) * rng.uniform(0.05, 0.2))
        init = gn.torus_geodesic((1, 0), offset=(float(rng.uniform(0, 1)), y0),
                                 samples=int(rng.choice([32, 48, 64])))
        # e^{t cos 2 pi y} is smallest on y = 1/2, where the circle has length e^{-t}
        ops.append(Op("cos-geodesic", solved(init, cos_family.at([t]), math.exp(-t))))

    for samples in SOLVE_NECK_SAMPLES:
        u0 = 0.5 + float(rng.choice([-1, 1]) * rng.uniform(0.005, 0.02))
        init = gn.dumbbell_circle(dumbbell, u0, samples=samples)
        chart, pts = init.edge_paths[0]
        pts = pts.copy()
        pts[1:-1, 0] += 0.003 * rng.standard_normal(samples - 2)
        init.edge_paths[0] = (chart, pts)
        ops.append(Op("neck", solved(init, dumbbell, 2 * math.pi * NECK)))
    return ops


# ---------------------------------------------------------------------------
# variation
# ---------------------------------------------------------------------------

VARIATION_FV_CIRCLES = [32, 64, 64, 128, 128, 256, 256]
VARIATION_FV_THETAS = 2
VARIATION_SPECTRUM_CIRCLES = [32, 64, 128, 256]
VARIATION_NECK_SAMPLES = [48, 96]
#: straight diagonal circles whose translation Jacobi field the finite-
#: difference spectrum lifts above 1e-6: is_nondegenerate wrongly says True
FD_TRANSLATION_FAULT = [((1, 1), 64), ((2, 1), 96)]


def _variation_directions(torus):
    """(reference spec, direction at s = 0, metric family s -> surface)."""
    out = []
    for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        fld = gn.constant_field(1.0) if (a, b) == (0, 0) else _cos_field(a, b)
        family = gn.ConformalFamily(torus, [fld])
        out.append((("conformal", a, b), gn.conformal_direction(torus, fld),
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

    out.append((("dx2",), gn.PerturbationDirection(T, "cos(2piy)dx^2"),
                lambda s: LinearlyPerturbedSurface(torus, T, dT, s)))
    return out


def _variation_ops(rng):
    torus = gn.FlatTorus()
    dumbbell = gn.Dumbbell(neck=NECK)
    directions = _variation_directions(torus)
    ops = []

    def first_variation(net, segments):
        def run():
            track = solver.stationary_tracker(net, torus)
            for spec, direction, family in directions:
                analytic = gn.first_variation(net, torus, direction)
                ref = ck.straight_first_variation(spec, segments)
                require(abs(analytic - ref) <= 1e-9 * max(1.0, abs(ref)),
                        f"{spec}: analytic {analytic:.15g}, midpoint sum {ref:.15g}")
                fd = gn.fd_length_derivative(lambda s, f=family: track(f(s)), family, 0.0)
                require(abs(fd - analytic) <= max(1e-6, 1e-4 * abs(analytic)),
                        f"{spec}: FD {fd:.12g}, analytic {analytic:.12g}")
        return run

    def spectrum(net, metric, nondegenerate):
        def run():
            eig = gn.second_variation_spectrum(net, metric)
            require(float(np.min(eig)) >= -1e-6, f"negative eigenvalue {np.min(eig):.3e}")
            got = gn.is_nondegenerate(net, metric, 1e-6)
            require(got == nondegenerate, f"is_nondegenerate {got}, expected {nondegenerate}")
        return run

    for samples in VARIATION_FV_CIRCLES:
        klass = PRIMITIVE[rng.integers(6)]
        mult = int(rng.integers(1, 4))
        offset = tuple(rng.uniform(0, 1, 2))
        net = gn.torus_geodesic(klass, offset=offset, samples=samples, mult=mult)
        ops.append(Op("fv-circle", first_variation(net, [(offset, klass, samples - 1, mult)])))
    for _ in range(VARIATION_FV_THETAS):
        shifts = THETA_SHIFTS[rng.integers(len(THETA_SHIFTS))]
        net, segments = _fermat_theta(shifts, rng.uniform(0, 1, 2), 24)
        ops.append(Op("fv-theta", first_variation(net, segments)))

    # translations along the circle's own axis are Jacobi fields: degenerate
    for samples in VARIATION_SPECTRUM_CIRCLES:
        klass = [(1, 0), (0, 1)][rng.integers(2)]
        net = gn.torus_geodesic(klass, offset=tuple(rng.uniform(0, 1, 2)), samples=samples,
                                mult=int(rng.integers(1, 4)))
        ops.append(Op("spectrum-circle", spectrum(net, torus, False)))
    shifts = THETA_SHIFTS[rng.integers(len(THETA_SHIFTS))]
    net, _ = _fermat_theta(shifts, rng.uniform(0, 1, 2), 24)
    ops.append(Op("spectrum-theta", spectrum(net, torus, False)))
    for samples in VARIATION_NECK_SAMPLES:
        net = gn.dumbbell_circle(dumbbell, 0.5, samples=samples)
        ops.append(Op("spectrum-neck", spectrum(net, dumbbell, True)))

    for klass, samples in FD_TRANSLATION_FAULT:
        def run(net=gn.torus_geodesic(klass, samples=samples)):
            if gn.is_nondegenerate(net, torus, 1e-6):
                raise KnownFault("fd-translation-mode")
        ops.append(Op("spectrum-fault", run))
    return ops


# ---------------------------------------------------------------------------
# equidist
# ---------------------------------------------------------------------------

#: (eps1, fresh) of the torus discrepancy-transfer operations: warm ones reuse
#: one metric and bump system, fresh ones build both inside the operation
EQUIDIST_TRANSFERS = [(0.3, False)] * 3 + [(0.3, True), (0.22, True)]
EQUIDIST_TRANSFER_NETS = 4
EQUIDIST_MERGE_BLOCKS = [100, 150]
MERGE_OVERFLOW_BLOCKS = 200      # OverflowError: the float total reaches inf
SPHERE_EPS, SPHERE_VOL_N = 0.9, 64


def _trig_field(rng, modes=3):
    coeffs = [(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)),
               float(rng.uniform(-1, 1)), float(rng.uniform(0, 2 * np.pi)))
              for _ in range(modes)]

    def fn(chart, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for a, b, amp, phase in coeffs:
            out += amp * np.cos(2 * np.pi * (a * x[..., 0] + b * x[..., 1]) + phase)
        return out

    f_sup = sum(abs(amp) for _, _, amp, _ in coeffs)
    grad_sup = sum(abs(amp) * 2 * np.pi * math.hypot(a, b) for a, b, amp, _ in coeffs)
    return gn.ScalarField(fn, name="trig"), coeffs, f_sup, grad_sup


def _height(chart, x):
    """Height z of a unit-sphere chart point."""
    r2 = np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
    z = (1.0 - r2) / (1.0 + r2)
    return z if chart == "north" else -z


def _unity_ok(bumps, chart, pts):
    vals = bumps.psi_values(chart, pts)
    require(np.all(vals >= 0) and np.max(np.abs(vals.sum(axis=0) - 1)) <= 1e-12,
            f"psi do not sum to one on {chart}")


def _torus_transfer(rng, eps, fresh, warm_torus, warm_bumps):
    klasses, offsets, nets = [], [], []
    for _ in range(EQUIDIST_TRANSFER_NETS):
        klass = [(1, 0), (0, 1)][rng.integers(2)]
        off = (0.0, float(rng.uniform(0, 1))) if klass == (1, 0) else (float(rng.uniform(0, 1)), 0.0)
        klasses.append(klass)
        offsets.append(off)
        nets.append(gn.torus_geodesic(klass, offset=off))
    w = rng.uniform(0.1, 1.0, size=len(nets))
    family = gn.WeightedNetFamily(nets, w / w.sum())
    fld, coeffs, f_sup, grad_sup = _trig_field(rng)
    net_avg = sum(wj * sum(amp * ck.circle_mode_average(k, o, (a, b, ph)) for a, b, amp, ph in coeffs)
                  for wj, k, o in zip(family.weights, klasses, offsets))
    ref_lhs = abs(net_avg - sum(amp * ck.torus_mode_average((a, b, ph)) for a, b, amp, ph in coeffs))

    def run():
        metric = gn.FlatTorus() if fresh else warm_torus
        bumps = gn.build_partition(metric, eps) if fresh else warm_bumps
        lhs, rhs, report = gn.discrepancy_transfer(family, metric, bumps, fld, f_sup, grad_sup)
        require(lhs <= rhs, f"transfer bound {lhs:.3e} > {rhs:.3e}")
        require(abs(lhs - ref_lhs) <= 1e-9, f"lhs {lhs:.12g}, Fourier closed form {ref_lhs:.12g}")
        require(report.values.shape == (bumps.K,) and np.all(report.values >= 0),
                "malformed discrepancy report")
    return Op("transfer-fresh" if fresh else "transfer-warm", run, warm=not fresh)


def _sphere_transfer(rng, fresh, warm_sphere, warm_bumps):
    colats = rng.uniform(0.3, math.pi - 0.3, size=3)
    w = rng.uniform(0.1, 1.0, size=colats.size)
    w = w / w.sum()
    family = gn.WeightedNetFamily([gn.sphere_latitude(warm_sphere, c, samples=64)
                                   for c in colats], w)
    ref_lhs = abs(float(np.sum(w * np.cos(colats))))      # the sphere average of z is 0

    def run():
        metric = gn.Sphere() if fresh else warm_sphere
        bumps = gn.build_partition(metric, SPHERE_EPS) if fresh else warm_bumps
        lhs, rhs, report = gn.discrepancy_transfer(family, metric, bumps, gn.ScalarField(_height),
                                                   1.0, 1.0, vol_n=SPHERE_VOL_N)
        require(lhs <= rhs, f"sphere transfer bound {lhs:.3e} > {rhs:.3e}")
        require(abs(lhs - ref_lhs) <= 1e-9, f"sphere lhs {lhs:.12g}, closed form {ref_lhs:.12g}")
        require(report.values.shape == (bumps.K,), "malformed sphere report")
    return Op("sphere-fresh" if fresh else "sphere-warm", run, warm=not fresh)


def _merge_blocks(n_blocks, alpha, D, signs):
    """Blocks m = 1..n of one net each, of length 1 + m/20 and average
    alpha + sign_m D / m, as (nets, (c, d), m) with nets (length, value)."""
    return [([(1.0 + 0.05 * m, (alpha + s * D / m) * (1.0 + 0.05 * m))], ([1], 1), m)
            for m, s in zip(range(1, n_blocks + 1), signs)]


def _merged_ratios(blocks):
    return gn.merged_block_ratios(blocks, value_fn=lambda n: n[1], length_fn=lambda n: n[0])


def _equidist_ops(rng):
    warm_torus, warm_sphere = gn.FlatTorus(), gn.Sphere()
    warm_bumps = gn.build_partition(warm_torus, 0.3)
    warm_sphere_bumps = gn.build_partition(warm_sphere, SPHERE_EPS)
    ops = []

    torus_pts = rng.uniform(0, 1, (64, 2))
    sphere_pts = [(c, rng.uniform(-1.5, 1.5, (64, 2))) for c in ("north", "south")]

    def partitions():
        for eps in (0.3, 0.22):
            bumps = gn.build_partition(gn.FlatTorus(), eps)
            n = math.ceil(math.sqrt(2.0) / eps)
            require(bumps.K == n * n, f"K = {bumps.K}, expected {n * n}")
            _unity_ok(bumps, "main", torus_pts)
        bumps = gn.build_partition(gn.Sphere(), SPHERE_EPS)
        for chart, pts in sphere_pts:
            _unity_ok(bumps, chart, pts)
    ops.append(Op("partition", partitions))

    for eps, fresh in EQUIDIST_TRANSFERS:
        ops.append(_torus_transfer(rng, eps, fresh, warm_torus, warm_bumps))
    for fresh in (False, True):
        ops.append(_sphere_transfer(rng, fresh, warm_sphere, warm_sphere_bumps))

    torus = gn.FlatTorus()
    klasses = [(k, 1) for k in range(1, 41)]
    offsets = [tuple(rng.uniform(0, 1, 2)) for _ in klasses]
    sequence = [gn.torus_geodesic(k, offset=o, samples=max(64, 4 * k[0]))
                for k, o in zip(klasses, offsets)]
    ref_series = ck.bump_ratio_series(klasses, offsets)
    bump = gn.ScalarField(lambda c, x: 0.25 * (1 + np.cos(2 * np.pi * np.asarray(x)[..., 0]))
                          * (1 + np.cos(2 * np.pi * np.asarray(x)[..., 1])))

    def running():
        series = gn.running_ratio(sequence, bump, torus)
        require(abs(series[-1] - 0.25) <= 0.01, f"final ratio {series[-1]:.6f}")
        require(np.max(np.abs(series - ref_series)) <= 1e-9, "series differs from closed form")
    ops.append(Op("running-ratio", running))

    instances = []
    for _ in range(8):
        J = int(rng.integers(1, 6))
        w = rng.uniform(0.05, 1.0, size=J)
        instances.append((w / w.sum(), rng.uniform(0.5, 6.0, size=J), int(rng.integers(1, 61))))

    def rationalize():
        for alphas, lengths, m in instances:
            c, d = gn.rationalize(alphas, lengths, m)
            require(ck.rational_bounds_hold(alphas, lengths, m, c, d),
                    f"rationalize bounds fail at d = {d}")
    ops.append(Op("rationalize", rationalize))

    searches = []
    for N in (1, 2, 3):
        pts = rng.uniform(-1.0, 1.0, size=(8, N))
        searches.append((N, np.concatenate([pts, -pts])))        # symmetric zigzag gradients

    def convex(eta=0.05):
        for N, grads in searches:
            res = gn.convex_gradient_search([(0.1 * g, g) for g in grads], eta)
            require(res.success and len(res.indices) == N + 1, "no N+1 cluster found")
            w = np.asarray(res.weights, dtype=float)
            require(np.all(w >= 0) and abs(w.sum() - 1) <= 1e-9, "weights not convex")
            require(np.linalg.norm(w @ grads[res.indices]) < eta, "hull norm not below eta")
    ops.append(Op("convex-search", convex))

    merges = []
    for n_blocks in EQUIDIST_MERGE_BLOCKS:
        alpha, D = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.01, 0.2))
        merges.append((_merge_blocks(n_blocks, alpha, D, rng.choice([-1.0, 1.0], size=n_blocks)),
                       alpha, D))

    def merge():
        for blocks, alpha, D in merges:
            require(ck.envelope_holds(_merged_ratios(blocks), alpha, D),
                    "merged ratios leave the 2D/m envelope")
    ops.append(Op("merge", merge))

    overflow = _merge_blocks(MERGE_OVERFLOW_BLOCKS, 0.3, 0.05,
                             [(-1.0) ** m for m in range(1, MERGE_OVERFLOW_BLOCKS + 1)])

    def merge_overflow():
        try:
            ratios = _merged_ratios(overflow)
        except OverflowError as exc:
            raise KnownFault("merge-schedule-overflow") from exc
        require(ck.envelope_holds(ratios, 0.3, 0.05), "merged ratios leave the 2D/m envelope")
    ops.append(Op("merge-fault", merge_overflow))

    family = gn.ConformalFamily(torus, [gn.constant_field(1.0)])
    t_grid = np.sort(rng.uniform(-0.4, 0.4, size=2))

    def weyl():
        table = gn.weyl_ratio_probe(family, [1, 4], t_grid)
        for p in (1, 4):
            h = np.asarray(table.column(p, "h_p"))
            require(np.ptp(h) <= 1e-10 and np.max(np.abs(h - 1.0)) <= 1e-10,
                    f"h_{p} = {h.tolist()}, expected 1 for every t")
        c = float(t_grid[0])
        vol = gn.volume(family.at([c]))
        require(abs(vol - math.exp(2 * c)) <= 1e-9 * math.exp(2 * c),
                f"volume {vol:.12g}, expected e^(2c) = {math.exp(2 * c):.12g}")
    ops.append(Op("weyl", weyl))
    return ops


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

CERTIFY_BIRKHOFF = [((1, 0), 64), ((1, 1), 64), ((2, 1), 64), (None, 96)]
CERTIFY_LATITUDES = 2
CERTIFY_CIRCLES = 18             # torus circles, 65 certificate samples
CERTIFY_THETAS = 6               # Fermat thetas, 33 certificate samples
CERTIFY_NECK_PERSISTENT = 3
CERTIFY_NECK_FRESH = 1
#: certificate samples at which the persistent neck certificate reports a
#: distance below the R^3 chord: the mesh has no usable edge across
#: theta = 0 and snaps the closing sample theta = 2 pi to the node 3.75
#: degrees short of it
MESH_SEAM_FAULT_SAMPLES = 13


def _torus_certificate(net, edges, segments, cert_samples, theta, torus):
    paths = [np.asarray(s, dtype=float) + np.linspace(0.0, 1.0, cert_samples)[:, None]
             * np.asarray(d, dtype=float) for s, d, _, _ in segments]
    f1 = min(float(np.linalg.norm(d)) for _, d, _, _ in segments)
    ref_dE, ref_dEE = ck.certificate_minima(edges, paths, torus.injectivity_lower_bound)

    def run():
        cert = gn.embeddedness_certificate(net, torus, 12, cert_samples=cert_samples)
        require(abs(cert.F1 - f1) <= 1e-9, f"F1 {cert.F1:.12g}, edge length {f1:.12g}")
        target, tol = (-0.5, 2e-3) if theta else (-1.0, 1e-9)
        require(all(abs(v - target) <= tol for v in cert.F2_values.values()),
                f"F2 values off {target}")
        for got, ref in ((cert.dE_min, ref_dE), (cert.dEE_min, ref_dEE)):
            require(got.keys() == ref.keys(), "certificate keys differ")
            for key in ref:
                same = (got[key] == ref[key] == math.inf) or abs(got[key] - ref[key]) <= 1e-9
                require(same, f"separation {key}: {got[key]:.12g} vs minimum image {ref[key]:.12g}")
        closed = gn.closed_geodesic_certificate(net, torus)
        if theta:
            require(not closed.ok and closed.reason.startswith("odd incidence"),
                    f"theta accepted as closed geodesics: {closed.reason}")
        else:
            require(closed.ok and len(closed.circles) == 1, f"circle rejected: {closed.reason}")
    return run


def _neck_certificate(net, metric_fn, cert_samples, fault=None):
    length = 2 * math.pi * NECK
    step = 1.0 / (cert_samples - 1)
    window = min(NECK / length, 0.5)       # injectivity bound of the dumbbell is its neck
    min_sep = math.ceil((window - 1e-12) / step) * step
    chord, arc = ck.neck_distance_bounds(NECK, 2 * math.pi * min_sep)

    def run():
        metric = metric_fn()
        cert = gn.embeddedness_certificate(net, metric, 12, cert_samples=cert_samples)
        require(abs(cert.F1 - length) <= 1e-9, f"F1 {cert.F1:.12g}, 2 pi neck {length:.12g}")
        require(all(abs(v + 1.0) <= 1e-9 for v in cert.F2_values.values()), "F2 of loop off -1")
        d = cert.dE_min[0]
        if fault is not None and d < chord - 1e-12:
            raise KnownFault(fault)
        require(chord - 1e-12 <= d <= arc + 1e-12,
                f"neck distance {d:.6g} outside [chord {chord:.6g}, arc {arc:.6g}]")
        closed = gn.closed_geodesic_certificate(net, metric)
        require(closed.ok, f"neck circle rejected: {closed.reason}")
    return run


def _certify_ops(rng):
    torus, sphere = gn.FlatTorus(), gn.Sphere()
    persistent = gn.Dumbbell(neck=NECK)
    widths = DumbbellWidthFamily(gn.Dumbbell(neck=NECK))
    ops = []

    for klass, samples in CERTIFY_BIRKHOFF:
        if klass is None:
            klass = [(1, 0), (1, 1), (2, 1)][rng.integers(3)]
        net = gn.torus_geodesic(klass, offset=tuple(rng.uniform(0, 1, 2)), samples=samples + 1)
        chart, pts = net.edge_paths[0]
        normal = np.array([-klass[1], klass[0]], dtype=float) / math.hypot(*klass)
        t = np.linspace(0.0, 1.0, samples + 1)
        wiggle = rng.uniform(0.01, 0.03) * np.sin(6 * np.pi * t + rng.uniform(0, 2 * np.pi))
        net.edge_paths[0] = (chart, pts + wiggle[:, None] * normal)

        def run(net=net, target=math.hypot(*klass)):
            res = gn.birkhoff_shorten(net, torus)
            require(not res.collapsed, "torus loop collapsed")
            require(abs(res.length - target) <= 1e-6,
                    f"shortened to {res.length:.12g}, geodesic {target:.12g}")
        ops.append(Op("birkhoff-torus", run))

    for _ in range(CERTIFY_LATITUDES):
        colat = float(rng.choice([-1, 1]) * rng.uniform(0.4, 1.2) + math.pi / 2)
        lat = gn.sphere_latitude(sphere, colat, samples=17)

        def run(lat=lat):
            require(gn.birkhoff_shorten(lat, sphere).collapsed, "latitude did not collapse")
        ops.append(Op("birkhoff-sphere", run))

    for _ in range(CERTIFY_CIRCLES):
        klass = PRIMITIVE[rng.integers(6)]
        offset = rng.uniform(0, 1, 2)
        net = gn.torus_geodesic(klass, offset=tuple(offset), samples=int(rng.choice([33, 65])))
        ops.append(Op("cert-circle", _torus_certificate(
            net, [("v", "v")], [(offset, klass, None, 1)], 65, False, torus)))
    for _ in range(CERTIFY_THETAS):
        shifts = THETA_SHIFTS[rng.integers(len(THETA_SHIFTS))]
        net, segments = _fermat_theta(shifts, rng.uniform(0, 1, 2), 24)
        ops.append(Op("cert-theta", _torus_certificate(
            net, [("a", "b")] * 3, segments, 33, True, torus)))

    for _ in range(CERTIFY_NECK_PERSISTENT):
        net = gn.dumbbell_circle(persistent, 0.5, samples=int(rng.choice([64, 128])))
        ops.append(Op("neck-persistent", _neck_certificate(net, lambda: persistent, 9)))
    ops.append(Op("neck-seam-fault", _neck_certificate(
        gn.dumbbell_circle(persistent, 0.5, samples=64), lambda: persistent,
        MESH_SEAM_FAULT_SAMPLES, fault="mesh-seam")))
    for _ in range(CERTIFY_NECK_FRESH):
        t = float(rng.choice([-1, 1]) * rng.uniform(0.05, 0.25))
        net = gn.dumbbell_circle(persistent, 0.5, samples=64)
        ops.append(Op("neck-fresh", _neck_certificate(net, lambda t=t: widths.at(t), 9),
                      warm=False))
    return ops


_BUILDERS = {"solve": _solve_ops, "variation": _variation_ops,
             "equidist": _equidist_ops, "certify": _certify_ops}


def build(name, seed) -> Workload:
    """The round of operations of one workload, inputs drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    ops = _BUILDERS[name](rng)
    order = rng.permutation(len(ops))
    return Workload(name, [ops[i] for i in order])
