"""Experiment runner: every pipeline as a subcommand with CSV/JSON output.

Each subcommand is one function of :data:`PIPELINES`, ``(cfg, seed) ->``
:class:`Run`: its output files, its named checks and a one-line summary.
The acceptance suite calls the same functions.  :func:`main` alone writes
the files into ``--out`` and prints the summary, to stdout under
``--verbose`` and to stderr, with the labels of the failed checks, when a
check fails.  Exit code 0 when every check holds, 1 when one fails, 2 on
configuration errors and on the library's ``ValueError`` (``DomainError``,
``DegenerateNetError``, unparsable numbers).  ``solve-net``, ``widths``
and ``equidistribute`` run on the torus only and exit 2 on any other
``[surface] kind``; ``dumbbell`` reads ``[surface] neck`` and ``bell``,
and a ``[surface]`` key that the surface's kind does not read exits 2, as
does a non-empty ``[DEFAULT]``: no key is shared between sections.
CSV outputs embed the config hash, the seed and a subcommand's summary
values (such as the slope gap or the bump count) as ``# key = value``
comment lines; JSON outputs carry the hash and the seed under ``meta``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import equidist, minmax, nets, solver, surfaces, variation


def _load_config(path):
    cfg = configparser.ConfigParser()
    cfg.read_dict({"surface": {"kind": "torus"}})
    if path is not None:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        cfg.read(path)
    if cfg.defaults():
        raise ConfigError(f"[DEFAULT] keys are read nowhere: {', '.join(cfg.defaults())}")
    return cfg


class ConfigError(ValueError):
    pass


class Run(NamedTuple):
    files: dict       # output file name -> text
    checks: dict      # check label -> whether it held
    summary: str      # what the subcommand prints


def _config_hash(cfg):
    items = []
    for section in sorted(cfg.sections()):
        for key in sorted(cfg[section]):
            items.append(f"{section}.{key}={cfg[section][key]}")
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def _csv(meta, columns, rows):
    fh = io.StringIO()
    for k, v in meta.items():
        fh.write(f"# {k} = {v}\n")
    out = csv.writer(fh, lineterminator="\n")
    out.writerow(columns)
    out.writerows([row[c] for c in columns] for row in rows)
    return fh.getvalue()


def _meta(cfg, seed, **extra):
    return {"config_hash": _config_hash(cfg), "seed": seed, **extra}


def _torus(cfg, command):
    surface = surfaces.load_surface(cfg["surface"])
    if not isinstance(surface, surfaces.FlatTorus):
        raise ConfigError(f"{command} runs on the torus only, not on a {surface.name}")
    return surface


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def solve_net(cfg, seed):
    torus = _torus(cfg, "solve-net")
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
    result = solver.solve_stationary(init, torus, tol=tol)
    report = json.dumps({
        "converged": result.converged,
        "status": result.status,
        "iterations": result.iterations,
        "length": result.length,
        "residual": result.residual,
        "trace": result.trace,
        "meta": _meta(cfg, seed),
    }, indent=2)
    return Run({"net.json": result.net.to_json(), "solve_report.json": report},
               {"converged": result.converged}, report)


def check_variation(cfg, seed):
    rows = variation.run_battery()
    passed = sum(r.passed for r in rows)
    table = _csv(_meta(cfg, seed),
                 ["net", "direction", "analytic", "fd", "abs_error", "tolerance", "passed"],
                 [{"net": r.net_name, "direction": r.direction,
                   "analytic": r.analytic, "fd": r.fd, "abs_error": r.abs_error,
                   "tolerance": r.tolerance, "passed": r.passed} for r in rows])
    return Run({"variation_battery.csv": table},
               {"every row within tolerance": passed == len(rows)},
               f"variation battery: {passed}/{len(rows)} within tolerance")


def dumbbell(cfg, seed):
    base = surfaces.load_surface(dict(cfg["surface"], kind="dumbbell"))
    c = base.great_circle_length
    rows, slope_plus, slope_minus = minmax.dumbbell_kink(base)
    worst = max(r["rel_error"] for r in rows)
    gap = slope_plus - slope_minus
    kink = abs(gap) > 10 * 1e-5
    table = _csv(_meta(cfg, seed, slope_gap=gap, kink=kink, great_circle=c),
                 ["t", "upper_bound", "model", "rel_error", "realizer"], rows)
    return Run({"dumbbell_width.csv": table},
               {"widths within 2 % of c(1 + |t|)": worst <= 0.02,
                "kink at t = 0": kink,
                "slope gap within 5 % of 2c": abs(abs(gap) - 2 * c) <= 0.05 * 2 * c},
               f"dumbbell: worst rel error {worst:.3e}, slope gap {gap:.6f} "
               f"(model {2 * c:.6f}), kink={kink}")


def widths(cfg, seed):
    family = surfaces.ConformalFamily(_torus(cfg, "widths"), [surfaces.constant_field(1.0)])
    table = minmax.weyl_ratio_probe(family, [1, 4, 9], np.linspace(-0.3, 0.3, 7))
    spread = max(max(table.column(p, "h_p")) - min(table.column(p, "h_p"))
                 for p in (1, 4, 9))
    return Run({"weyl_ratios.csv": _csv(_meta(cfg, seed, surface="torus"),
                                        ["p", "t", "upper_bound", "h_p"], table.rows)},
               {"h_p constant in t": spread <= 1e-10},
               f"widths: h_p spread over t = {spread:.3e}")


def partition(cfg, seed):
    surface = surfaces.load_surface(cfg["surface"])
    eps1 = float(cfg.get("partition", "eps1", fallback="0.3"))
    k_min = int(cfg.get("partition", "k_min", fallback="4"))
    bumps = equidist.build_partition(surface, eps1, k_min)
    rng = np.random.default_rng(seed)
    chart = next(iter(surface.charts.values()))
    pts = rng.uniform(chart.lo, chart.hi, size=(2000, 2))
    total = np.sum(bumps.psi_values(chart.name, pts), axis=0)
    norm_err = float(np.max(np.abs(total - 1.0)))
    rows = [{"k": k, "descriptor": json.dumps({kk: vv for kk, vv in r.items() if kk != "center"}),
        "center_chart": r["center"][0],
        "center_x": float(r["center"][1][0]), "center_y": float(r["center"][1][1])}
        for k, r in enumerate(bumps.regions)]
    table = _csv(_meta(cfg, seed, K=bumps.K, eps1=eps1, normalization_error=norm_err),
                 ["k", "descriptor", "center_chart", "center_x", "center_y"], rows)
    return Run({"partition.csv": table},
               {"partition of unity": norm_err <= 1e-10},
               f"partition: K={bumps.K}, max |sum psi - 1| = {norm_err:.3e}")


#: Fourier modes (a, b) of cos 2pi(ax + by); the (k, 1) line integrates each
#: to zero unless ak + b = 0
_MODES = np.array([(1, 0), (0, 1), (1, -1), (2, 3)])


def equidistribute(cfg, seed):
    torus = _torus(cfg, "equidistribute")
    k_max = int(cfg.get("equidist", "k_max", fallback="200"))

    def bump(chart, x):
        x = np.asarray(x, dtype=float)
        return 0.25 * (1 + np.cos(2 * np.pi * x[..., 0])) * (1 + np.cos(2 * np.pi * x[..., 1]))

    def waves(chart, x):
        return np.cos(2 * np.pi * (_MODES @ np.asarray(x, dtype=float).T))

    fld = surfaces.ScalarField(bump, name="mass-0.25 bump")
    sequence = [nets.torus_geodesic((k, 1), samples=max(64, 4 * k)) for k in range(1, k_max + 1)]
    series = equidist.running_ratio(sequence, fld, torus)
    fourier = max(abs(v) for k, net in enumerate(sequence, 1)
                  for (a, b), v in zip(_MODES, net.integrate(waves, torus)) if a * k + b)
    table = _csv(_meta(cfg, seed, k_max=k_max), ["k", "ratio"],
                 [{"k": k + 1, "ratio": float(v)} for k, v in enumerate(series)])
    return Run({"running_ratio.csv": table},
               {"final ratio within 0.01 of 0.25": abs(series[-1] - 0.25) <= 0.01,
                "Fourier-mode integrals vanish": fourier <= 1e-10},
               f"equidistribute: final ratio {series[-1]:.6f} (target 0.25), "
               f"worst Fourier-mode integral {fourier:.3e}")


PIPELINES = {
    "solve-net": solve_net,
    "check-variation": check_variation,
    "dumbbell": dumbbell,
    "widths": widths,
    "partition": partition,
    "equidistribute": equidistribute,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="geonets",
                                     description="stationary geodesic network experiments")
    parser.add_argument("subcommand", choices=sorted(PIPELINES))
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        run = PIPELINES[args.subcommand](_load_config(args.config), args.seed)
    except (ValueError, configparser.Error) as exc:   # ConfigError, DomainError, DegenerateNetError, bad numbers
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in run.files.items():
        (out / name).write_text(text)
    failed = [label for label, ok in run.checks.items() if not ok]
    if failed:
        print(run.summary, f"failed: {', '.join(failed)}", sep="\n", file=sys.stderr)
    elif args.verbose:
        print(run.summary)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
