"""Experiment runner: every pipeline as a subcommand with CSV/JSON output.

Subcommands: solve-net, check-variation, dumbbell, widths, partition,
equidistribute, selftest.  Exit code 0 on success, 1 on assertion
failure, 2 on configuration errors and on the library's ``ValueError``
(``DomainError``, ``DegenerateNetError``, unparsable numbers).  Outputs
embed the config hash, the seed and the resolution knobs as comment lines.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import equidist, minmax, nets, solver, surfaces, variation


def _load_config(path):
    cfg = configparser.ConfigParser()
    cfg.read_dict({"surface": {"kind": "torus"}, "run": {}})
    if path is not None:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        cfg.read(path)
    return cfg


class ConfigError(ValueError):
    pass


def _config_hash(cfg):
    items = []
    for section in sorted(cfg.sections()):
        for key in sorted(cfg[section]):
            items.append(f"{section}.{key}={cfg[section][key]}")
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def _write_csv(path, meta, columns, rows):
    with open(path, "w", newline="") as fh:
        for k, v in meta.items():
            fh.write(f"# {k} = {v}\n")
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(columns)
        out.writerows([row[c] for c in columns] for row in rows)


def _meta(args, cfg, **extra):
    meta = {"config_hash": _config_hash(cfg), "seed": args.seed}
    meta.update(extra)
    return meta


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve_net(args, cfg):
    surface = surfaces.load_surface(cfg)
    if not isinstance(surface, surfaces.FlatTorus):
        raise ConfigError(f"solve-net builds torus nets only, not nets on a {surface.name}")
    net_cfg = cfg["net"] if cfg.has_section("net") else {}
    kind = net_cfg.get("kind", "theta")
    if kind == "theta":
        init = nets.torus_theta_net([(1, 0), (0, 1), (-1, -1)])
    elif kind == "geodesic":
        klass = tuple(int(s) for s in net_cfg.get("class", "1,0").split(","))
        offset = tuple(float(s) for s in net_cfg.get("offset", "0,0").split(","))
        init = nets.torus_geodesic(klass, offset=offset)
    else:
        raise ConfigError(f"unknown net kind {kind!r}")
    tol = float(cfg.get("solver", "tol", fallback="1e-8"))
    result = solver.solve_stationary(init, surface, tol=tol)
    out = _outdir(args)
    (out / "net.json").write_text(result.net.to_json())
    record = {
        "converged": result.converged,
        "status": result.status,
        "iterations": result.iterations,
        "length": result.length,
        "edge_residual": result.report.edge_residual,
        "vertex_residual": result.report.vertex_residual,
        "total_first_variation_norm": result.report.total_first_variation_norm,
        "trace": result.trace,
        "meta": _meta(args, cfg),
    }
    (out / "solve_report.json").write_text(json.dumps(record, indent=2))
    if args.verbose:
        print(json.dumps(record, indent=2))
    return 0 if result.converged else 1


def cmd_check_variation(args, cfg):
    rows = variation.run_battery()
    out = _outdir(args)
    _write_csv(out / "variation_battery.csv", _meta(args, cfg),
               ["net", "direction", "analytic", "fd", "abs_error", "tolerance", "passed"],
               [{"net": r.net_name, "direction": r.direction,
                 "analytic": r.analytic, "fd": r.fd, "abs_error": r.abs_error,
                 "tolerance": r.tolerance, "passed": r.passed} for r in rows])
    bad = [r for r in rows if not r.passed]
    if args.verbose or bad:
        print(f"variation battery: {len(rows) - len(bad)}/{len(rows)} within tolerance",
              file=sys.stderr if bad else sys.stdout)
    return 1 if bad else 0


def cmd_dumbbell(args, cfg):
    base = surfaces.Dumbbell(neck=surfaces.surface_parameter(cfg["surface"], "neck", 0.2))
    c = base.great_circle_length
    rows, slope_plus, slope_minus = minmax.dumbbell_kink(base)
    worst = max(r["rel_error"] for r in rows)
    gap = slope_plus - slope_minus
    kink = abs(gap) > 10 * 1e-5
    out = _outdir(args)
    _write_csv(out / "dumbbell_width.csv",
               _meta(args, cfg, slope_gap=gap, kink=kink, great_circle=c),
               ["t", "upper_bound", "model", "rel_error", "realizer"], rows)
    ok = worst <= 0.02 and kink and abs(abs(gap) - 2 * c) <= 0.05 * 2 * c
    if args.verbose or not ok:
        print(f"dumbbell: worst rel error {worst:.3e}, slope gap {gap:.6f} "
              f"(model {2 * c:.6f}), kink={kink}",
              file=sys.stdout if ok else sys.stderr)
    return 0 if ok else 1


def cmd_widths(args, cfg):
    torus = surfaces.FlatTorus()
    family = surfaces.ConformalFamily(torus, [surfaces.constant_field(1.0)])
    t_grid = np.linspace(-0.3, 0.3, 7)
    table = minmax.weyl_ratio_probe(family, [1, 4, 9], t_grid)
    out = _outdir(args)
    _write_csv(out / "weyl_ratios.csv", _meta(args, cfg, surface="torus"),
               ["p", "t", "upper_bound", "h_p"], table.rows)
    spread = max(max(table.column(p, "h_p")) - min(table.column(p, "h_p"))
                 for p in (1, 4, 9))
    if args.verbose:
        print(f"widths: h_p spread over t = {spread:.3e}")
    return 0 if spread <= 1e-10 else 1


def cmd_partition(args, cfg):
    surface = surfaces.load_surface(cfg)
    eps1 = float(cfg.get("partition", "eps1", fallback="0.3"))
    k_min = int(cfg.get("partition", "k_min", fallback="4"))
    bumps = equidist.build_partition(surface, eps1, k_min)
    rng = np.random.default_rng(args.seed)
    chart = next(iter(surface.charts.values()))
    pts = rng.uniform(chart.lo, chart.hi, size=(2000, 2))
    total = np.sum(bumps.psi_values(chart.name, pts), axis=0)
    norm_err = float(np.max(np.abs(total - 1.0)))
    rows = [{"k": k, "descriptor": json.dumps({kk: vv for kk, vv in r.items() if kk != "center"}),
        "center_chart": r["center"][0],
        "center_x": float(r["center"][1][0]), "center_y": float(r["center"][1][1])}
        for k, r in enumerate(bumps.regions)]
    out = _outdir(args)
    _write_csv(out / "partition.csv",
               _meta(args, cfg, K=bumps.K, eps1=eps1, normalization_error=norm_err),
               ["k", "descriptor", "center_chart", "center_x", "center_y"], rows)
    if args.verbose:
        print(f"partition: K={bumps.K}, max |sum psi - 1| = {norm_err:.3e}")
    return 0 if norm_err <= 1e-10 else 1


def cmd_equidistribute(args, cfg):
    torus = surfaces.FlatTorus()
    k_max = int(cfg.get("equidist", "k_max", fallback="200"))

    def bump(chart, x):
        x = np.asarray(x, dtype=float)
        return 0.25 * (1 + np.cos(2 * np.pi * x[..., 0])) * (1 + np.cos(2 * np.pi * x[..., 1]))

    fld = surfaces.ScalarField(bump, name="mass-0.25 bump")
    sequence = [nets.torus_geodesic((k, 1), samples=max(64, 4 * k)) for k in range(1, k_max + 1)]
    series = equidist.running_ratio(sequence, fld, torus)
    out = _outdir(args)
    _write_csv(out / "running_ratio.csv", _meta(args, cfg, k_max=k_max),
               ["k", "ratio"],
               [{"k": k + 1, "ratio": float(v)} for k, v in enumerate(series)])
    err = abs(series[-1] - 0.25)
    if args.verbose:
        print(f"equidistribute: final ratio {series[-1]:.6f} (target 0.25)")
    return 0 if err <= 0.01 else 1


def cmd_selftest(args, cfg):
    failures = []
    rng = np.random.default_rng(args.seed)
    torus = surfaces.FlatTorus()

    # reparametrization invariance of length and integrals
    net = nets.torus_geodesic((3, 4), samples=200)
    fld = surfaces.ScalarField(lambda c, x: np.cos(2 * np.pi * np.asarray(x)[..., 1]))
    re = net.resample(torus, 333)
    if abs(re.length(torus) - net.length(torus)) > 1e-9 * net.length(torus):
        failures.append("length reparametrization invariance")
    if abs(re.integrate(fld, torus) - net.integrate(fld, torus)) > 1e-8:
        failures.append("integral reparametrization invariance")
    rev = net.reversed_edge(0)
    if abs(rev.length(torus) - net.length(torus)) > 1e-12:
        failures.append("orientation reversal invariance")

    # conformal length law
    c = 0.37
    scaled = surfaces.ConformalFamily(torus, [surfaces.constant_field(1.0)]).at([c])
    if abs(net.length(scaled) - np.exp(c) * net.length(torus)) > 1e-10 * net.length(scaled):
        failures.append("conformal length law")

    # multiplicity linearity (exact)
    doubled = nets.torus_geodesic((3, 4), samples=200, mult=2)
    if doubled.length(torus) != 2.0 * net.length(torus):
        failures.append("multiplicity linearity")

    # partition of unity normalization
    bumps = equidist.build_partition(torus, 0.3, 4)
    pts = rng.uniform(0.0, 1.0, size=(10000, 2))
    total = np.sum(bumps.psi_values("main", pts), axis=0)
    if np.max(np.abs(total - 1.0)) > 1e-10:
        failures.append("partition of unity normalization")

    # SPD preservation of conformal scaling
    sphere = surfaces.Sphere()
    psi = surfaces.ScalarField(lambda c_, x: np.sin(np.asarray(x)[..., 0])
                               * np.cos(np.asarray(x)[..., 1]))
    fam = surfaces.ConformalFamily(sphere, [psi]).at([0.4])
    sample = rng.uniform(-1.0, 1.0, size=(10000, 2))
    g = fam.metric("north", sample)
    eig_min = np.min(np.linalg.eigvalsh(g))
    if not eig_min > 0:
        failures.append("SPD preservation")

    out = _outdir(args)
    record = {"failures": failures, "meta": _meta(args, cfg)}
    (out / "selftest.json").write_text(json.dumps(record, indent=2))
    for f in failures:
        print(f"selftest failure: {f}", file=sys.stderr)
    if args.verbose and not failures:
        print("selftest: all invariance properties hold")
    return 1 if failures else 0


COMMANDS = {
    "solve-net": cmd_solve_net,
    "check-variation": cmd_check_variation,
    "dumbbell": cmd_dumbbell,
    "widths": cmd_widths,
    "partition": cmd_partition,
    "equidistribute": cmd_equidistribute,
    "selftest": cmd_selftest,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="geonets",
                                     description="stationary geodesic network experiments")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.subcommand](args, cfg)
    except ValueError as exc:   # ConfigError, DomainError, DegenerateNetError, bad numbers
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
