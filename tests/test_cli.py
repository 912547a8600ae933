"""Command-line experiment runner."""

import csv
import json
import subprocess
import sys

import pytest

from geonets import FlatTorus, cli, variation


def test_solve_net_outputs(tmp_path):
    rc = cli.main(["solve-net", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["converged"]
    assert report["length"] == pytest.approx(3.3460652149512313, abs=1e-9)
    assert (tmp_path / "net.json").exists()
    assert "config_hash" in report["meta"]
    assert report["trace"][0]["phase"] == "trust-region"
    assert report["status"] == "converged"


def test_solve_net_geodesic_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[net]\nkind = geodesic\nclass = 3,4\n")
    rc = cli.main(["solve-net", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["length"] == pytest.approx(5.0, abs=1e-6)


def test_partition_csv(tmp_path):
    rc = cli.main(["partition", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "partition.csv").read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("config_hash" in l for l in meta)
    assert any("K = 25" in l for l in meta)
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1 + 25          # header plus one row per region


def _csv_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        rows = list(reader)
    for row in rows:
        assert list(row) == reader.fieldnames and None not in row.values()
    return rows


def test_widths_csv_columns(tmp_path):
    # the shortened_length column always repeated upper_bound
    assert cli.main(["widths", "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "weyl_ratios.csv")
    assert list(rows[0]) == ["p", "t", "upper_bound", "h_p"]
    assert [row["p"] for row in rows] == ["1"] * 7 + ["4"] * 7 + ["9"] * 7


def test_csv_fields_with_commas_stay_in_their_column(tmp_path):
    # net names such as circle(1,0)@y=0 once spilled into the next column
    assert cli.main(["check-variation", "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "variation_battery.csv")
    names = [name for name, _ in variation._battery_nets(FlatTorus())]
    assert list(dict.fromkeys(row["net"] for row in rows)) == names
    assert {row["passed"] for row in rows} == {"True"}
    assert cli.main(["partition", "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "partition.csv")
    assert len(rows) == 25
    assert all(json.loads(row["descriptor"])["kind"] == "torus-cell" for row in rows)


def test_missing_config_is_exit_2(tmp_path, capsys):
    rc = cli.main(["solve-net", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_bad_surface_for_partition_is_exit_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[surface]\nkind = dumbbell\n")
    rc = cli.main(["partition", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("subcommand, config", [
    ("partition", "[surface]\nkind = klein\n"),                 # DomainError
    ("solve-net", "[net]\nkind = geodesic\nclass = 0,0\n"),    # DegenerateNetError
    ("partition", "[partition]\neps1 = abc\n"),                 # ValueError
    ("equidistribute", "[equidist]\nk_max = 0\n"),              # ValueError
    ("solve-net", "[surface]\nkind = sphere\n"),                # no torus net here
    ("solve-net", "[surface]\nkind = dumbbell\n"),
    ("solve-net", "[solver]\ntol = nan\n"),                    # once 2,000 iterations, exit 1
    ("solve-net", "[solver]\ntol = 0\n"),
    ("solve-net", "[solver]\ntol = -1\n"),
    ("partition", "[surface]\ninjectivity_bound = nan\n"),   # once exit 0
    ("solve-net", "[surface]\ninjectivity_bound = nan\n"),   # once exit 0
    ("partition", "[surface]\nkind = sphere\nradius = inf\n"),
    ("dumbbell", "[surface]\nneck = nan\n"),                 # once exit 1 with NaN output
    ("dumbbell", "[surface]\nneck = 0\n"),                   # once exit 0
    ("dumbbell", "[surface]\nneck = -0.2\n"),                # once exit 0
    ("partition", "[partition]\neps1 = 0\n"),                 # once ZeroDivisionError, exit 1
    ("partition", "[partition]\neps1 = -0.3\n"),              # once exit 0 with K = 4
    ("partition", "[partition]\neps1 = nan\n"),               # once a NaN-to-integer error
    ("solve-net", "[net]\nkind = geodesic\noffset = 0.1\n"),  # once read as (0.1, 0.1)
    ("dumbbell", "[surface]\nbell = nan\n"),                 # once ignored, exit 0
    ("widths", "[surface]\nkind = sphere\n"),                # once ran on the torus, exit 0
    ("equidistribute", "[surface]\nkind = klein\n"),         # once ran on the torus, exit 0
    ("partition", "[surface]\nkind = sphere\nradus = 2.0\n"),  # once K = 284 on the unit sphere
    ("partition", "[surface]\nradius = 2.0\n"),             # once the unit torus, exit 0
    ("dumbbell", "[surface]\nradius = 2.0\n"),              # once ignored, exit 0
], ids=["klein", "class-0-0", "eps1-abc", "k_max-0", "solve-sphere", "solve-dumbbell",
        "tol-nan", "tol-0", "tol-negative", "inj-nan-partition", "inj-nan-solve",
        "radius-inf", "neck-nan", "neck-0", "neck-negative", "eps1-0", "eps1-negative",
        "eps1-nan", "offset-scalar", "bell-nan", "widths-sphere", "equidistribute-klein",
        "radus-typo", "radius-torus", "radius-dumbbell"])
def test_library_errors_are_exit_2(subcommand, config, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    rc = cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


def test_default_section_is_exit_2(tmp_path, capsys):
    # configparser copies [DEFAULT] keys into [surface], which once refused
    # 'seed' as an unknown surface key
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[DEFAULT]\nseed = 3\n")
    rc = cli.main(["partition", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "[DEFAULT]" in capsys.readouterr().err


def test_failed_check_prints_its_summary(tmp_path, capsys):
    # a failed check once exited 1 without a word
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[equidist]\nk_max = 1\n")
    rc = cli.main(["equidistribute", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "equidistribute: final ratio 0.375000" in capsys.readouterr().err


def test_import_loads_no_scipy():
    code = "import sys, geonets; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_equidistribute_small(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[equidist]\nk_max = 60\n")
    rc = cli.main(["equidistribute", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "running_ratio.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1 + 60


def test_threads_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["partition", "--threads", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
