"""End-to-end acceptance battery.

Each test prints a single pass/fail line (visible with ``pytest -s``)
and asserts the same condition, so the suite doubles as a checklist.
"""

import time

import numpy as np

import geonets as gn
from geonets import cli
from geonets.equidist import merged_block_ratios
from geonets.solver import _edge_ends, _end_cosines


def _report(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _pipeline(label, subcommand, seconds=np.inf):
    """Run a ``geonets`` subcommand's pipeline under the default config:
    every one of its checks holds, within ``seconds``."""
    t0 = time.time()
    run = cli.PIPELINES[subcommand](cli._load_config(None), 0)
    elapsed = time.time() - t0
    failed = [name for name, ok in run.checks.items() if not ok]
    _report(label, not failed and elapsed <= seconds,
            f"{run.summary}, failed checks {failed}, {elapsed:.1f}s")


# -- 1 ----------------------------------------------------------------------

def test_acceptance_01_first_variation_battery():
    _pipeline("1 first-variation battery", "check-variation", 60.0)


# -- 2 ----------------------------------------------------------------------

def test_acceptance_02_flat_torus_geodesics(torus):
    t0 = time.time()
    rng = np.random.default_rng(11)
    results = []
    for klass, L in [((1, 0), 1.0), ((3, 4), 5.0)]:
        init = gn.torus_geodesic(klass)
        for i, (chart, pts) in enumerate(init.edge_paths):
            noise = 0.02 * rng.standard_normal(pts.shape)
            noise[0] = noise[-1] = 0.0
            init.edge_paths[i] = (chart, pts + noise)
        res = gn.solve_stationary(init, torus)
        results.append((res.converged, res.residual,
                        abs(res.length - L)))
    elapsed = time.time() - t0
    ok = (all(c for c, _, _ in results)
          and all(r <= 1e-8 for _, r, _ in results)
          and all(dl <= 1e-6 for _, _, dl in results)
          and elapsed <= 10.0)
    _report("2 flat-torus geodesics", ok,
            f"residuals {[f'{r:.1e}' for _, r, _ in results]}, "
            f"length errors {[f'{d:.1e}' for _, _, d in results]}, {elapsed:.1f}s")


# -- 3 ----------------------------------------------------------------------

def test_acceptance_03_vertex_balance(torus):
    res = gn.solve_stationary(gn.torus_theta_net([(1, 0), (0, 1), (-1, -1)]), torus)
    pairs, cos = _end_cosines(*_edge_ends(res.net, torus))
    worst_angle = max(abs(np.degrees(np.arccos(np.clip(cos[a][b], -1, 1))) - 120.0) for a, b in pairs)
    emb = gn.solve_stationary(gn.torus_theta_net([(1, 0), (0, 1), (0, 0)]), torus)
    cert = gn.embeddedness_certificate(emb.net, torus, M_bound=12)
    worst_f2 = max(abs(v + 0.5) for v in cert.F2_values.values())
    ok = worst_angle <= 0.1 and worst_f2 <= 2e-3
    _report("3 vertex balance", ok,
            f"max angle deviation {worst_angle:.2e} deg, max |F2+1/2| {worst_f2:.2e}")


# -- 4 ----------------------------------------------------------------------

def test_acceptance_04_dumbbell_kink():
    _pipeline("4 dumbbell kink", "dumbbell", 300.0)


# -- 5 ----------------------------------------------------------------------

def test_acceptance_05_weyl_ratio_invariance():
    _pipeline("5 Weyl-ratio invariance", "widths")


# -- 6 ----------------------------------------------------------------------

def test_acceptance_06_torus_equidistribution():
    _pipeline("6 torus equidistribution", "equidistribute", 120.0)


# -- 7 ----------------------------------------------------------------------

def _random_trig_field(rng, modes=3):
    coeffs = []
    for _ in range(modes):
        a = int(rng.integers(-3, 4))
        b = int(rng.integers(-3, 4))
        amp = float(rng.uniform(-1.0, 1.0))
        phase = float(rng.uniform(0, 2 * np.pi))
        coeffs.append((a, b, amp, phase))

    def fn(chart, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for a, b, amp, phase in coeffs:
            out += amp * np.cos(2 * np.pi * (a * x[..., 0] + b * x[..., 1]) + phase)
        return out

    f_sup = sum(abs(amp) for _, _, amp, _ in coeffs)
    grad_sup = sum(abs(amp) * 2 * np.pi * np.hypot(a, b) for a, b, amp, _ in coeffs)
    return gn.ScalarField(fn, name="trig"), f_sup, grad_sup


def test_acceptance_07_discrepancy_transfer(torus):
    rng = np.random.default_rng(23)
    bump_systems = [gn.build_partition(torus, 0.3), gn.build_partition(torus, 0.22)]
    failures = 0
    for trial in range(50):
        bumps = bump_systems[trial % 2]
        n_nets = int(rng.integers(2, 9))
        nets = []
        for _ in range(n_nets):
            klass = (1, 0) if rng.random() < 0.5 else (0, 1)
            off = float(rng.uniform(0, 1))
            nets.append(gn.torus_geodesic(klass, offset=(0.0, off) if klass == (1, 0)
                                          else (off, 0.0)))
        w = rng.uniform(0.1, 1.0, size=n_nets)
        family = gn.WeightedNetFamily(nets, w / w.sum())
        fld, f_sup, grad_sup = _random_trig_field(rng)
        lhs, rhs, _ = gn.discrepancy_transfer(family, torus, bumps, fld,
                                              f_sup, grad_sup)
        if lhs > rhs:
            failures += 1
    _report("7 discrepancy transfer bound", failures == 0,
            f"{50 - failures}/50 random triples satisfy the bound")


# -- 8 ----------------------------------------------------------------------

def test_acceptance_08_convex_gradient_search():
    eta = 0.05
    ok = True
    detail = []
    for N in (1, 2, 3):
        rng = np.random.default_rng(N)
        pts = rng.uniform(-1.0, 1.0, size=(8, N))
        pts = np.concatenate([pts, -pts])       # symmetric zigzag gradients
        samples = [(0.1 * p, p) for p in pts]
        res = gn.convex_gradient_search(samples, eta)
        grads = np.array([samples[i][1] for i in res.indices]) if res.success else None
        good = (res.success and len(res.indices) == N + 1
                and np.linalg.norm(res.weights @ grads) < eta)
        ok = ok and good
        detail.append(f"N={N}:{'ok' if good else 'bad'}")
    const = [(np.array([x]), np.array([1.0])) for x in np.linspace(-1, 1, 10)]
    res = gn.convex_gradient_search(const, eta)
    ok = ok and not res.success
    detail.append(f"constant:{'rejected' if not res.success else 'accepted'}")
    _report("8 convex gradient search", ok, ", ".join(detail))


# -- 9 ----------------------------------------------------------------------

def test_acceptance_09_rationalization():
    from fractions import Fraction
    rng = np.random.default_rng(5)
    failures = 0
    for _ in range(100):
        J = int(rng.integers(1, 6))
        m = int(rng.integers(1, 101))
        w = rng.uniform(0.05, 1.0, size=J)
        alphas = w / w.sum()
        lengths = rng.uniform(0.5, 6.0, size=J)
        c, d = gn.rationalize(alphas, lengths, m)
        for a, L, cj in zip(alphas, lengths, c):
            gap = abs(Fraction(float(a)) / Fraction(float(L)) - Fraction(cj, d))
            if not gap < Fraction(1) / (m * J * Fraction(float(L))):
                failures += 1
    _report("9 rationalization", failures == 0,
            f"{100 - failures}/100 instances verified in exact arithmetic")


# -- 10 ---------------------------------------------------------------------

class _FakeNet:
    def __init__(self, length, value):
        self._length, self._value = length, value


def test_acceptance_10_merge_envelope():
    alpha = 0.3
    worst_slack = 0.0
    ok = True
    for D in (0.01, 0.05, 0.2):
        blocks = []
        for m in range(1, 21):
            L = 1.0 + 0.05 * m
            value = (alpha + ((-1) ** m) * D / m) * L
            blocks.append(([_FakeNet(L, value)], ([1], 1), m))
        ratios = merged_block_ratios(blocks, value_fn=lambda n: n._value,
                                     length_fn=lambda n: n._length)
        for m in range(1, 21):
            slack = abs(ratios[m - 1] - alpha) * m / (2 * D)
            worst_slack = max(worst_slack, slack)
            ok = ok and abs(ratios[m - 1] - alpha) <= 2 * D / m
    _report("10 merge envelope", ok,
            f"max |ratio-alpha| relative to 2D/m: {worst_slack:.3f}")


# -- 11 ---------------------------------------------------------------------

def test_acceptance_11_invariance_selftest():
    _pipeline("11 invariance selftest", "selftest", 90.0)
