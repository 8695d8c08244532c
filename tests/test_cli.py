import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jetcool
from jetcool import cli, props, topo
from jetcool.cli import run
from jetcool.correlations import HotspotHtcModel, load_catalog
from jetcool.errors import ConfigError, InvalidInputError, SolverError

PREDICT_INI = """
[geometry]
chip_side_mm = 8
n = 4
di_over_l = 0.3
do_over_l = 0.3
h_over_l = 0.3
t_over_l = 0.5
tc_mm = 0.2

[fluid]
name = water

[solid]
name = silicon

[operating]
flow_mlpm = 600
inlet_c = 10
power_w = 50
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestPredict:
    def test_report(self, tmp_path, capsys):
        cfg = write(tmp_path, "p.ini", PREDICT_INI)
        assert run(["predict", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["re"] == pytest.approx(1019.9179269805629, rel=1e-9)
        assert payload["dp_Pa"] > 0 and payload["r_th_K_W"] > 0
        assert "re" in capsys.readouterr().out

    def test_missing_fluid_section_exit_2(self, tmp_path, capsys):
        bad = PREDICT_INI.replace("[fluid]\nname = water\n", "")
        cfg = write(tmp_path, "p.ini", bad)
        assert run(["predict", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert "fluid" in capsys.readouterr().err

    def test_coolant_characterized_below_0_c(self, tmp_path):
        # a reference temperature of -10 degC exited 2 as "not > 0"
        catalog = write(tmp_path, "fluids.csv", USER_FLUIDS.replace(
            "0.5,20\n", "0.5,-10\n"))
        cfg = write(tmp_path, "p.ini", PREDICT_INI.replace(
            "[fluid]\nname = water",
            f"[fluid]\nname = brine\ncatalog = {catalog}"))
        assert run(["predict", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["inputs"]["fluid"] == "brine"

    @pytest.mark.parametrize("old, new, message", [
        ("name = water", "name = water\ndensity_kg_m3 = 1100\nlabel = brine",
         "[fluid] takes a name or an inline definition, not both: name = "
         "water would drop label, density_kg_m3"),
        ("name = water", "catalog = {fluids}\ndensity_kg_m3 = 1100\n"
         "viscosity_kg_ms = 0.002\ncp_J_kgK = 3500\nk_W_mK = 0.5",
         "[fluid] catalog is read only with a name: set name, or drop "
         "catalog for the inline definition"),
        ("name = silicon", "name = silicon\nk_W_mK = 400",
         "[solid] takes a name or an inline definition, not both: name = "
         "silicon would drop k_W_mK"),
        ("name = silicon", "catalog = {solids}\nk_W_mK = 400",
         "[solid] catalog is read only with a name: set name, or drop "
         "catalog for the inline definition")],
        ids=["fluid_name_inline", "fluid_catalog_inline",
             "solid_name_inline", "solid_catalog_inline"])
    def test_named_and_inline_mix_exit_2(self, tmp_path, capsys, old, new,
                                         message):
        # one half of each mix was dropped without a word
        new = new.format(fluids=write(tmp_path, "fluids.csv", USER_FLUIDS),
                         solids=write(tmp_path, "solids.csv",
                                      "name,k_W_mK\ndiamond,2000\n"))
        cfg = write(tmp_path, "p.ini", PREDICT_INI.replace(old, new))
        assert run(["predict", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_zero_flow_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "p.ini",
                    PREDICT_INI.replace("flow_mlpm = 600", "flow_mlpm = 0"))
        assert run(["predict", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 3

    def test_determinism(self, tmp_path):
        cfg = write(tmp_path, "p.ini", PREDICT_INI)
        run(["predict", "--config", cfg, "--out", str(tmp_path / "a")])
        run(["predict", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_pressure_breakdown_nested(self, tmp_path):
        cfg = write(tmp_path, "p.ini", PREDICT_INI)
        run(["predict", "--config", cfg, "--out", str(tmp_path / "out")])
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        breakdown = payload["pressure_breakdown_Pa"]
        assert breakdown["dp_in_nozzle"] > 0
        assert breakdown["dp_out_nozzle"] == breakdown["dp_in_nozzle"]
        assert "jet_residual_unmodeled" in breakdown["warnings"]

    def test_csv_format_flag(self, tmp_path):
        cfg = write(tmp_path, "p.ini", PREDICT_INI)
        assert run(["predict", "--config", cfg, "--format", "csv",
                    "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",")[0] for line in lines[1:]}
        assert {"re", "dp_Pa", "pressure_breakdown_Pa.dp_in_nozzle"} <= keys

    def test_inputs_echo_the_config_ratios(self, tmp_path):
        cfg = write(tmp_path, "p.ini", PREDICT_INI.replace("\nn = 4", "\nn = 3")
                    .replace("di_over_l = 0.3", "di_over_l = 0.45"))
        assert run(["predict", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "report.json").read_text()
        inputs = json.loads(text)["inputs"]
        assert [inputs[k] for k in ("n", "di_over_l", "do_over_l", "h_over_l",
                                    "t_over_l")] == [3, 0.45, 0.3, 0.3, 0.5]
        assert '"di_over_l": 0.45,' in text

    @pytest.mark.parametrize("old, new", [
        ("chip_side_mm = 8", "chip_side_mm = 1e-308"),
        ("di_over_l = 0.3", "di_over_l = 1e-308")])
    def test_underflowing_nozzle_area_exit_2(self, tmp_path, capsys, old, new):
        cfg = write(tmp_path, "p.ini", PREDICT_INI.replace(old, new))
        assert run(["predict", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: nozzle_area must be finite "
                                           "and > 0, got 0.0\n")

    @pytest.mark.parametrize("old, new, code, message", [
        ("do_over_l = 0.3", "do_over_l = 1e-308", 2,
         "error: (d_o/2)^4 must be finite and > 0, got 0.0 for (d_o/2) = "
         "1e-311 m"),
        ("h_over_l = 0.3", "h_over_l = 1e-308", 2,
         "error: H^3 must be finite and > 0, got 0.0 for H = 2e-311 m"),
        ("h_over_l = 0.3", "h_over_l = 1e308", 2,
         "error: H^3 must be finite and > 0, got inf for H = 2e+305 m"),
        ("flow_mlpm = 600", "flow_mlpm = 1e-308", 3,
         "infeasible: pump power must be > 0, got 0.0 at flow_total "),
        ("chip_side_mm = 8", "chip_side_mm = 1e308", 2,
         "error: nozzle_area must be finite and > 0, got inf"),
        ("t_over_l = 0.5", "t_over_l = 1e308", 2,
         "error: dp must be finite, got inf"),
        ("do_over_l = 0.3", "do_over_l = 1e-77", 2,
         "error: dp_out_nozzle must be finite, got inf"),
        ("tc_mm = 0.2", "tc_mm = 0.2\nheated_fraction = 5e-324", 2,
         "error: heated_area must be finite and > 0, got 0.0"),
        ("tc_mm = 0.2", "tc_mm = 0.2\nheated_fraction = 1e-308", 2,
         "error: dT_avg must be finite, got inf K at chip_power 50.0 W"),
        ("flow_mlpm = 600", "flow_mlpm = 1e308", 2,
         "error: g(Bi) must be finite, got inf at Bi = "),
        ("power_w = 50", "power_w = 50\ndt_max_allow = 1e308", 2,
         "error: cop must be finite, got inf at dt_max_allow 1e+308 K"),
    ], ids=["do_1e-308", "h_1e-308", "h_1e308", "flow_1e-308",
            "chip_1e308", "t_1e308", "do_1e-77", "heated_5e-324",
            "heated_1e-308", "flow_1e308", "dt_max_1e308"])
    def test_extreme_input_exits_naming_the_quantity(
            self, tmp_path, capsys, old, new, code, message):
        # each ended in ZeroDivisionError or OverflowError, or wrote an inf
        # pressure with exit 0 (t/L, d_o/L = 1e-77)
        cfg = write(tmp_path, "p.ini", PREDICT_INI.replace(old, new))
        assert run(["predict", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()


EXPLORE_INI = PREDICT_INI + """
[sweep]
n = 2 4
di_over_l = 0.3
h_over_l = 0.3
t_over_l = 0.5

[constraint]
mode = const_flow
value_mlpm = 600
"""


class TestExploreParetoCop:
    def test_sweep_csv_schema(self, tmp_path):
        cfg = write(tmp_path, "e.ini", EXPLORE_INI)
        assert run(["explore", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("n,di_over_L,do_over_L,H_over_L,t_over_L,"
                            "flow_mlpm,re,nu_f,nu_j,htc_W_m2K,r_th_K_W,"
                            "r_star_Kcm2_W,dp_Pa,wp_W,cop,status,warnings")
        assert len(lines) == 3
        rows = list(csv.DictReader(lines))
        assert rows[0]["n"] == "2" and rows[1]["n"] == "4"
        assert all(r["status"] == "ok" for r in rows)

    @pytest.mark.parametrize("old, new, code, message", [
        ("value_mlpm = 600", "value_mlpm = 1e-308", 3,
         "infeasible: pump power must be > 0, got 0.0"),
        ("t_over_l = 0.5\n\n[constraint]", "t_over_l = 1e308\n\n[constraint]",
         2, "error: dp must be finite, got inf"),
    ], ids=["flow_1e-308", "t_1e308"])
    def test_sweep_with_zero_or_inf_pressure_exits(
            self, tmp_path, capsys, old, new, code, message):
        # the rows were written as ok with dp 0 and cop inf, or with dp and
        # wp_W inf, and exit 0
        assert old in EXPLORE_INI
        cfg = write(tmp_path, "e.ini", EXPLORE_INI.replace(old, new))
        assert run(["explore", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_unknown_constraint_mode_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "e.ini", EXPLORE_INI.replace(
            "mode = const_flow", "mode = bogus"))
        assert run(["explore", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: [constraint] unknown mode 'bogus'\n")

    def test_pareto_on_an_infeasible_sweep_exit_2(self, tmp_path, capsys):
        src = write(tmp_path, "sweep.csv", "n,r_th_K_W,wp_W,status\n"
                    "2,,,infeasible\n4,,,infeasible\n")
        assert run(["pareto", "--input", src,
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {src}: no usable points\n"

    def test_pareto_matches_brute_force(self, tmp_path):
        rng = np.random.RandomState(0)
        pts = rng.rand(100, 2)
        src = tmp_path / "pts.csv"
        with open(src, "w") as fh:
            fh.write("r_th,w_p\n")
            for r, w in pts:
                fh.write(f"{float(r)!r},{float(w)!r}\n")
        assert run(["pareto", "--input", str(src),
                    "--out", str(tmp_path / "out")]) == 0
        got = [(float(r["r_th_K_W"]), float(r["wp_W"])) for r in
               csv.DictReader((tmp_path / "out" / "pareto.csv").open())]
        brute = sorted(
            (tuple(p) for p in pts
             if not any(q[0] <= p[0] and q[1] <= p[1]
                        and (q[0] < p[0] or q[1] < p[1]) for q in pts)),
            key=lambda p: p[1])
        # values round-trip through 10-significant-digit CSV formatting
        np.testing.assert_allclose(np.array(got), np.array(brute), rtol=1e-9)

    @pytest.mark.parametrize("cells, where", [
        ("0.1,0.2\nnan,0.1\n", "data row 2, column r_th: 'nan'"),
        ("0.1,0.2\n0.2,inf\n", "data row 2, column w_p: 'inf'"),
        ("x,0.2\n0.2,0.1\n", "data row 1, column r_th: 'x'"),
        ("0.1,\n0.2,0.1\n", "data row 1, column w_p: ''"),
        (",0.2\n0.2,0.1\n", "data row 1, column r_th: ''"),
    ])
    def test_pareto_bad_point_exit_2(self, tmp_path, capsys, cells, where):
        src = write(tmp_path, "pts.csv", "r_th,w_p\n" + cells)
        assert run(["pareto", "--input", src,
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {src}: {where} is not a finite number\n"
        assert not (tmp_path / "out" / "pareto.csv").exists()

    def test_pareto_skips_infeasible_sweep_rows(self, tmp_path, capsys):
        src = write(tmp_path, "sweep.csv", "r_th_K_W,wp_W,status\n"
                    "0.1,0.2,ok\n,,infeasible\n0.2,0.1,ok\n")
        assert run(["pareto", "--input", src,
                    "--out", str(tmp_path / "out")]) == 0
        assert "2 non-dominated of 2 points" in capsys.readouterr().out

    @pytest.mark.parametrize("config", [False, True])
    def test_pareto_without_input_exit_2(self, tmp_path, capsys, config):
        # the points come from --input alone; a config file cannot name them
        argv = ["pareto", "--out", str(tmp_path / "out")]
        if config:
            argv += ["--config", write(tmp_path, "p.ini", "[pareto]\ninput = "
                                       + write(tmp_path, "pts.csv",
                                               "r_th,w_p\n0.1,0.2\n"))]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: jetcool pareto")
        assert err.endswith("error: the following arguments are required: "
                            "--input\n")

    def test_pareto_input_directory_exit_2(self, tmp_path, capsys):
        assert run(["pareto", "--input", str(tmp_path),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_cop_grid_dimensions(self, tmp_path):
        cfg = write(tmp_path, "c.ini", PREDICT_INI + """
[cop]
n = 2 4 8
h_over_l = 0.3 0.6
di_over_l = 0.3
t_over_l = 0.5
flow_mlpm = 300
""")
        assert run(["cop", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "cop.csv").read_text().splitlines()
        assert len(lines) == 4                       # header + 3 n values
        assert len(lines[0].split(",")) == 4         # n, density, 2 H columns

    def test_cop_with_overflowing_nozzle_area_exit_2(self, tmp_path, capsys):
        # the array d_i * d_i overflowed with a numpy warning on stderr
        cfg = write(tmp_path, "c.ini", PREDICT_INI.replace(
            "chip_side_mm = 8", "chip_side_mm = 1e308") + """
[cop]
n = 2 4
h_over_l = 0.3
di_over_l = 0.3
t_over_l = 0.5
flow_mlpm = 300
""")
        assert run(["cop", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: nozzle_area must be finite "
                                           "and > 0, got inf\n")

    def test_cop_matches_explore_with_heated_fraction(self, tmp_path):
        ini = PREDICT_INI.replace("tc_mm = 0.2",
                                  "tc_mm = 0.2\nheated_fraction = 1.0")
        cfg = write(tmp_path, "c.ini", ini + """
[sweep]
n = 4
di_over_l = 0.3
h_over_l = 0.3
t_over_l = 0.5

[constraint]
mode = const_flow
value_mlpm = 300

[cop]
n = 4
h_over_l = 0.3
di_over_l = 0.3
t_over_l = 0.5
flow_mlpm = 300
""")
        out = tmp_path / "out"
        assert run(["explore", "--config", cfg, "--out", str(out)]) == 0
        assert run(["cop", "--config", cfg, "--out", str(out)]) == 0
        explored = next(csv.DictReader((out / "sweep.csv").open()))
        cop_row = (out / "cop.csv").read_text().splitlines()[1].split(",")
        assert float(cop_row[2]) == pytest.approx(float(explored["cop"]),
                                                  rel=1e-12)


class TestHotspot:
    def test_scale_path(self, tmp_path):
        cfg = write(tmp_path, "h.ini", """
[scale]
base_htc_w_m2k = 57000
base_flow_mlpm = 9.4
n_total = 64
m_nozzles = 24
""")
        assert run(["hotspot", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        payload = json.loads(
            (tmp_path / "out" / "hotspot_scale.json").read_text())
        assert payload["htc_star_W_m2K"] == pytest.approx(109969.919, rel=1e-6)
        assert payload["flow_star_mlpm"] == pytest.approx(25.0667, rel=1e-4)

    def test_scale_path_honours_format(self, tmp_path):
        cfg = write(tmp_path, "h.ini", """
[scale]
base_htc_w_m2k = 57000
base_flow_mlpm = 9.4
n_total = 64
m_nozzles = 24
""")
        out = tmp_path / "out"
        assert run(["hotspot", "--config", cfg, "--out", str(out),
                    "--format", "csv"]) == 0
        assert not (out / "hotspot_scale.json").exists()
        rows = dict(csv.reader((out / "hotspot_scale.csv").open()))
        assert rows["key"] == "value" and rows["m"] == "2.666666667"
        assert float(rows["htc_star_W_m2K"]) == pytest.approx(109969.919,
                                                             rel=1e-6)

    def test_map_path(self, tmp_path):
        pmap = tmp_path / "map.csv"
        np.savetxt(pmap, np.array([[100.0, 0.0], [200.0, 150.0]]),
                   delimiter=",")
        cfg = write(tmp_path, "h.ini", f"""
[fluid]
name = water

[map]
file = {pmap}
pitch_mm = 1
flow_mlpm = 30
dt_target_k = 25
""")
        assert run(["hotspot", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        rows = list(csv.DictReader(
            (tmp_path / "out" / "nozzle_plan.csv").open()))
        assert len(rows) == 4
        closed = [r for r in rows if float(r["power_W_cm2"]) == 0.0]
        assert all(float(r["d_mm"]) == 0.0 for r in closed)
        summary = json.loads(
            (tmp_path / "out" / "hotspot_summary.json").read_text())
        assert summary["flow_total_mlpm"] == pytest.approx(30.0, rel=1e-6)
        assert summary["infeasible_cells"] == []

    def test_scale_and_map_exit_2(self, tmp_path, capsys):
        # [scale] won and [map] was never read
        pmap = write(tmp_path, "map.csv", "100,0\n200,150\n")
        cfg = write(tmp_path, "h.ini", "[scale]\nbase_htc_w_m2k = 57000\n"
                    "base_flow_mlpm = 9.4\nn_total = 64\nm_nozzles = 24\n\n"
                    f"[map]\nfile = {pmap}\nflow_mlpm = 30\n"
                    "dt_target_k = 25\n")
        assert run(["hotspot", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: hotspot reads one of [scale] and [map]: with [scale], "
            "[map] would be ignored\n")
        assert not (tmp_path / "out").exists()

    def test_map_with_csv_format_exit_2(self, tmp_path, capsys):
        # the plan was written as JSON whatever --format said
        pmap = write(tmp_path, "map.csv", "100,0\n200,150\n")
        cfg = write(tmp_path, "h.ini", f"[map]\nfile = {pmap}\n"
                    "flow_mlpm = 30\ndt_target_k = 25\n")
        assert run(["hotspot", "--config", cfg, "--format", "csv",
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: --format applies only to [scale] reports; a [map] plan "
            "is written as nozzle_plan.csv and hotspot_summary.json\n")
        assert not (tmp_path / "out").exists()

    def test_wide_diameter_bounds_take_the_scan(self, tmp_path, monkeypatch):
        # above d = 1.184 mm the htc fit's flow exponent is <= 0, so the
        # pressure-band test cannot run and the plenum scan gives the plan
        failed = []
        flow_for_htc = HotspotHtcModel.flow_for_htc

        def spy(self, d_mm, htc):
            try:
                return flow_for_htc(self, d_mm, htc)
            except InvalidInputError as exc:
                failed.append(str(exc))
                raise

        monkeypatch.setattr(HotspotHtcModel, "flow_for_htc", spy)
        pmap = write(tmp_path, "map.csv", "100,0\n200,150\n")
        cfg = write(tmp_path, "h.ini", f"[map]\nfile = {pmap}\n"
                    "flow_mlpm = 30\ndt_target_k = 25\nd_max_mm = 1.5\n")
        out = tmp_path / "out"
        assert run(["hotspot", "--config", cfg, "--out", str(out)]) == 0
        assert failed and failed[0].startswith("flow exponent")
        summary = json.loads((out / "hotspot_summary.json").read_text())
        assert summary["flow_total_mlpm"] == pytest.approx(30.0, rel=1e-9)
        assert summary["infeasible_cells"] == []

    def test_map_path_reads_no_fluid(self, tmp_path):
        # the fits hold for water, so [fluid] does not change the plan
        pmap = tmp_path / "map.csv"
        np.savetxt(pmap, np.array([[100.0, 0.0], [200.0, 150.0]]),
                   delimiter=",")
        plan = f"[map]\nfile = {pmap}\nflow_mlpm = 30\ndt_target_k = 25\n"
        outputs = []
        for fluid in ("", "[fluid]\nname = water\n",
                      "[fluid]\nname = eg-50-50\n"):
            out = tmp_path / f"out{len(outputs)}"
            cfg = write(tmp_path, "h.ini", fluid + plan)
            assert run(["hotspot", "--config", cfg, "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in
                            ("nozzle_plan.csv", "hotspot_summary.json")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_percent_in_config_value(self, tmp_path):
        # config values are taken literally: no '%' interpolation
        pmap = tmp_path / "d%1" / "map.csv"
        pmap.parent.mkdir()
        np.savetxt(pmap, np.array([[100.0, 0.0], [200.0, 150.0]]),
                   delimiter=",")
        cfg = write(tmp_path, "h.ini", f"""
[fluid]
name = water

[map]
file = {pmap}
flow_mlpm = 30
dt_target_k = 25
""")
        assert run(["hotspot", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_power_density_exit_2(self, tmp_path, capsys, bad):
        pmap = write(tmp_path, "map.csv", f"100,{bad}\n200,150\n")
        cfg = write(tmp_path, "h.ini", f"""
[fluid]
name = water

[map]
file = {pmap}
flow_mlpm = 30
dt_target_k = 25
""")
        assert run(["hotspot", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["100,200\n150\n", "100,x\n200,150\n"])
    def test_malformed_map_exit_2_names_the_file(self, tmp_path, capsys,
                                                 text):
        pmap = write(tmp_path, "map.csv", text)
        cfg = write(tmp_path, "h.ini", f"""
[fluid]
name = water

[map]
file = {pmap}
flow_mlpm = 30
dt_target_k = 25
""")
        assert run(["hotspot", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert pmap in err and "usecols" not in err

    def test_unreachable_cells_exit_3(self, tmp_path, capsys):
        pmap = tmp_path / "map.csv"
        np.savetxt(pmap, np.array([[3000.0]]), delimiter=",")
        cfg = write(tmp_path, "h.ini", f"""
[fluid]
name = water

[map]
file = {pmap}
flow_mlpm = 2
dt_target_k = 5
""")
        code = run(["hotspot", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "1 cell(s) cannot reach the required htc" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flow", [0, -2])
    def test_non_positive_flow_exit_2(self, tmp_path, capsys, flow):
        pmap = write(tmp_path, "map.csv", "3000\n")
        cfg = write(tmp_path, "h.ini", f"""
[fluid]
name = water

[map]
file = {pmap}
flow_mlpm = {flow}
dt_target_k = 25
""")
        assert run(["hotspot", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert "flow_total must be > 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flow, dt, message", [
        ("1e308", "25", "scan window must be finite and > 0, got a lower "
         "end of inf for 1e+308 mL/min"),
        ("50", "1e-308", "required htc q''/dT_target must be finite and > 0, "
         "got inf"),
        ("1e-308", "25", "scan window must be finite and > 0, got a lower "
         "end of 0.0 for 1.0000000034223403e-308 mL/min"),
    ], ids=["flow_1e308", "dt_1e-308", "flow_1e-308"])
    def test_extreme_flow_or_target_exit_2_naming_the_quantity(
            self, tmp_path, capsys, flow, dt, message):
        pmap = write(tmp_path, "map.csv", "100,0,150\n0,250,0\n80,0,120\n")
        cfg = write(tmp_path, "h.ini", f"""
[fluid]
name = water

[map]
file = {pmap}
flow_mlpm = {flow}
dt_target_k = {dt}
""")
        assert run(["hotspot", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d_min", ["1e-308", "5e-324"])
    def test_tiny_d_min_exit_2_naming_it(self, tmp_path, capsys, d_min):
        # the fits' d_min ** -4 overflowed: an OverflowError traceback
        pmap = write(tmp_path, "map.csv", "100,0,150\n0,250,0\n80,0,120\n")
        cfg = write(tmp_path, "h.ini", f"""
[fluid]
name = water

[map]
file = {pmap}
flow_mlpm = 50
dt_target_k = 25
d_min_mm = {d_min}
""")
        assert run(["hotspot", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: d_min = {float(d_min)} mm is too small for the fits: "
            "d_min^-4.0 overflows\n")

    @pytest.mark.parametrize("flow", [0.5, 1, 2])
    def test_hot_cell_at_small_flow_gets_flagged_plan(self, tmp_path, flow):
        # the delivering pressure lies below the first scan window
        pmap = tmp_path / "map.csv"
        np.savetxt(pmap, np.array([[3000.0]]), delimiter=",")
        cfg = write(tmp_path, "h.ini", f"""
[fluid]
name = water

[map]
file = {pmap}
flow_mlpm = {flow}
dt_target_k = 25
""")
        out = tmp_path / "o"
        assert run(["hotspot", "--config", cfg, "--out", str(out)]) == 3
        summary = json.loads((out / "hotspot_summary.json").read_text())
        assert summary["warnings"] == ["htc_unreachable:0,0"]
        assert summary["flow_total_mlpm"] == pytest.approx(flow, rel=1e-6)

    @pytest.mark.parametrize("density, flow, message, other", [
        ([[1.0, 1.0], [1.0, 1.0]], 30,
         "4 cell(s) exceed the required htc", "cannot reach"),
        ([[3000.0]], 5,
         "1 cell(s) cannot reach the required htc", "exceed"),
    ])
    def test_flag_kinds_reported_separately(self, tmp_path, capsys, density,
                                            flow, message, other):
        pmap = tmp_path / "map.csv"
        np.savetxt(pmap, np.array(density), delimiter=",")
        cfg = write(tmp_path, "h.ini", f"""
[fluid]
name = water

[map]
file = {pmap}
flow_mlpm = {flow}
dt_target_k = 25
""")
        code = run(["hotspot", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert message in err and other not in err


TOPO_INI = """
[grid]
nx = 8
ny = 8
lx_mm = 2
ly_mm = 2

[fluid]
name = water

[problem]
max_iters = 2

[segments]
list =
    left 0 8 inlet constant 0.01
    right 0 8 outlet_pressure
"""


class TestTopoCommand:
    def test_problem_run_outputs(self, tmp_path):
        cfg = write(tmp_path, "t.ini", """
[grid]
nx = 24
ny = 8
lx_mm = 10
ly_mm = 2

[fluid]
name = water

[problem]
beta = 0.1
volume_fraction = 0.4
max_iters = 8

[segments]
list =
    left 0 8 inlet constant 0.02
    bottom 4 6 outlet_pressure
    bottom 17 19 outlet_pressure
""")
        out = tmp_path / "out"
        assert run(["topo", "--config", cfg, "--out", str(out)]) == 0
        history = list(csv.DictReader((out / "history.csv").open()))
        js = [float(r["J"]) for r in history]
        assert all(b <= a for a, b in zip(js, js[1:]))
        pgm = (out / "density.pgm").read_text().splitlines()
        assert pgm[0] == "P2" and pgm[1] == "24 8"
        fields = list(csv.DictReader((out / "fields.csv").open()))
        assert len(fields) == 24 * 8
        assert set(fields[0]) == {"x", "y", "u", "v", "p"}

    def test_q_continuation_reports_last_stage(self, tmp_path, capsys):
        cfg = write(tmp_path, "t.ini", """
[grid]
nx = 20
ny = 6
lx_mm = 10
ly_mm = 2

[fluid]
name = water

[problem]
beta = 0.1
volume_fraction = 0.4
q = 0.01 1.0
max_iters = 10

[segments]
list =
    left 0 6 inlet constant 0.02
    bottom 4 6 outlet_pressure
    bottom 14 16 outlet_pressure
""")
        out = tmp_path / "out"
        assert run(["topo", "--config", cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.split("outlet flow shares:")[1]
        shares = np.array([float(tok) for tok in printed.split()])
        # the design's flow at the last stage's q, re-solved from density.csv
        problem, _, schedule = topo.parse_problem_file(cfg)
        assert schedule == (0.01, 1.0) and problem.q == 1.0
        density = np.loadtxt(out / "density.csv", delimiter=",", ndmin=2)
        eps = topo.DensityField(density[::-1].T)
        sol = topo.solve_flow(problem.grid, eps, problem.fluid, q=problem.q)
        flows = sol.outlet_flows()
        np.testing.assert_allclose(shares, flows / flows.sum(), rtol=1e-6)
        fields = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(fields[:, 4], sol.p.ravel(), rtol=1e-6,
                                   atol=1e-9 * np.abs(sol.p).max())

    def test_q_continuation_exit_2(self, tmp_path, capsys):
        # q = 0.05 was parsed and never used: the schedule replaced it
        cfg = write(tmp_path, "t.ini", TOPO_INI.replace(
            "max_iters = 2", "q = 0.05\nq_continuation = 0.01 0.1\n"
                             "max_iters = 2"))
        assert run(["topo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: [problem] q_continuation is not a setting: list the "
            "schedule under q\n")

    @pytest.mark.parametrize("line, message", [
        ("left 0 8", "malformed segment line: 'left 0 8'"),
        ("left 0 8 inlet", "inlet segment needs 'profile value': "
                           "'left 0 8 inlet'"),
        ("left 0 8 wall constant 1", "wall segment takes no profile: "
                                     "'left 0 8 wall constant 1'"),
        ("middle 0 8 inlet constant 0.01", "unknown side 'middle'"),
        ("left 0 8 inlet cubic 0.01", "unknown profile 'cubic'")],
        ids=["short", "no_profile", "extra_profile", "side", "profile"])
    def test_bad_segment_line_exit_2(self, tmp_path, capsys, line, message):
        cfg = write(tmp_path, "t.ini", TOPO_INI.replace(
            "left 0 8 inlet constant 0.01", line))
        assert run(["topo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_alpha_assignment_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "t.ini", TOPO_INI.replace(
            "max_iters = 2", "alpha_assignment = bogus\nmax_iters = 2"))
        assert run(["topo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: alpha_assignment must be 'fluid' or 'literal', got "
            "'bogus'\n")

    def test_malformed_segment_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "t.ini", """
[grid]
nx = 8
ny = 8
lx_mm = 2
ly_mm = 2

[fluid]
name = water

[problem]
max_iters = 2

[segments]
list =
    left 0 8 inlet constant 0.01
    right 0 8 pressure_outlet
""")
        assert run(["topo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("line, message", [
        ("left x 8 inlet constant 0.01", "list = 'x' is not a valid int"),
        ("left 0 8.5 inlet constant 0.01", "list = '8.5' is not a valid int"),
        ("left 0 8 inlet constant abc", "list = 'abc' is not a valid float"),
        ("left 0 8 inlet constant nan", "list must be finite, got 'nan'"),
    ])
    def test_bad_segment_token_exit_2(self, tmp_path, capsys, line, message):
        cfg = write(tmp_path, "t.ini", "[grid]\nnx = 8\nny = 8\nlx_mm = 2\n"
                    "ly_mm = 2\n\n[fluid]\nname = water\n\n[segments]\n"
                    f"list =\n    {line}\n    right 0 8 outlet_pressure\n")
        assert run(["topo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: [segments] {message}\n"

    @pytest.mark.parametrize("key", ["nx", "ny"])
    def test_zero_cells_exit_2(self, tmp_path, capsys, key):
        text = """
[grid]
nx = 8
ny = 8
lx_mm = 2
ly_mm = 2

[fluid]
name = water

[segments]
list =
    left 0 8 inlet constant 0.01
    right 0 8 outlet_pressure
""".replace(f"{key} = 8", f"{key} = 0")
        cfg = write(tmp_path, "t.ini", text)
        assert run(["topo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "[grid] nx and ny must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, coefficient", [
        ("lx_mm = 2", "lx_mm = 1e-308", "mu/dx^2 = inf"),
        ("lx_mm = 2", "lx_mm = 1e308", "mu/dx^2 = 0.0"),
        ("ly_mm = 1", "ly_mm = 1e-308", "mu/dy^2 = inf"),
        ("ly_mm = 1", "ly_mm = 1e308", "mu/dy^2 = 0.0")],
        ids=["lx_1e-308", "lx_1e308", "ly_1e-308", "ly_1e308"])
    def test_extreme_cell_size_exit_2(self, tmp_path, capsys, old, new,
                                      coefficient):
        # each ended in ZeroDivisionError or OverflowError
        cfg = write(tmp_path, "t.ini", """
[grid]
nx = 8
ny = 4
lx_mm = 2
ly_mm = 1

[fluid]
name = water

[problem]

[segments]
list =
    left 0 4 inlet constant 0.01
    right 0 4 outlet_pressure
""".replace(old, new))
        assert run(["topo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the viscous coefficients ")
        assert coefficient in err and "Traceback" not in err

    @pytest.mark.parametrize("beta, q, fluid, code, stream", [
        ("0.5", "0.01", "viscosity_kg_ms = 1e-300", 2,
         "error: dJ/d(eps) underflows to 0 at q = 0.01: max |d(alpha)/d(eps)| "
         "is "),
        ("0", "0.01", "name = water", 0, "status=converged iterations=0 J=0\n"),
        ("0.5", "1e-30", "name = water", 2,
         "error: q = 1e-30 is too small: eps (1 + q)/(eps + q) rounds to 1 "
         "for every eps >= 1/2, so alpha(eps) is a step\n"),
        ("0.5", "5e-324", "name = water", 2, "error: q = 5e-324 is too small"),
        ("0.5", "1e-12", "name = water", 0, "status=converged ")],
        ids=["underflow", "j_zero", "tiny_q", "subnormal_q", "small_q"])
    def test_zero_gradient_converges_only_without_underflow(
            self, tmp_path, capsys, beta, q, fluid, code, stream):
        # a gradient that underflows to exactly 0 (here through viscosity
        # 1e-300) once read as status=converged, at q = 5e-324. At q = 1e-30
        # alpha(eps) is a step, and the run read status=stationary; both
        # q now stop where alpha is formed. With beta = 0 and one outlet J
        # is 0 and its zero gradient is a true stationary point
        if fluid.startswith("viscosity"):
            fluid = ("density_kg_m3 = 1000\ncp_J_kgK = 4180\nk_W_mK = 0.6\n"
                     + fluid)
        cfg = write(tmp_path, "t.ini", f"""
[grid]
nx = 12
ny = 4
lx_mm = 3
ly_mm = 1

[fluid]
{fluid}

[problem]
beta = {beta}
volume_fraction = 0.5
q = {q}

[segments]
list =
    left 0 4 inlet constant 0.01
    right 0 4 outlet_pressure
""")
        assert run(["topo", "--config", cfg, "--out", str(tmp_path / "o")]) \
            == code
        out, err = capsys.readouterr()
        assert (err if code else out).startswith(stream)
        assert "Traceback" not in err

    def test_selftest(self, capsys):
        assert run(["topo", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out


REDUCE_CSV = """# model = diode
# sensitivity_mv_per_c = -1.55
# power_w = 50
# t_amb_c = 25
# t_in_c = 10
# r_loss_k_w = 16.8
# tc_mm = 0.2
# heater_area_cm2 = 0.48
row,col,reading_on,reading_off
0,0,0.5845,0.6
0,1,0.56875,0.6
1,0,0.57875,0.6
1,1,0.574,0.6
"""


class TestReduceGci:
    def test_reduce_roundtrip(self, tmp_path):
        cfg = write(tmp_path, "ds.csv", REDUCE_CSV)
        out = tmp_path / "out"
        assert run(["reduce", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "reduction.json").read_text())
        # diode deltas: -15.5, -31.25, -21.25, -26 mV -> 10/20.161/13.71/16.774 K
        dT = np.array([0.0155, 0.03125, 0.02125, 0.026]) / 0.00155
        assert payload["dT_avg_K"] == pytest.approx(dT.mean(), rel=1e-9)
        assert payload["r_th_K_W"] == pytest.approx(dT.mean() / 50, rel=1e-9)
        assert payload["htc_W_m2K"] > 0

    @pytest.mark.parametrize("line, message", [
        ("# tc_mm = nan\n", "[header] tc_mm must be finite, got 'nan'"),
        ("# tc_mm = -inf\n", "[header] tc_mm must be finite, got '-inf'"),
        ("# tc_mm = 0.2mm\n", "[header] tc_mm = '0.2mm' is not a valid float"),
        ("", "[header] missing required key 'tc_mm'"),
    ])
    def test_bad_header_value_exit_2(self, tmp_path, capsys, line, message):
        cfg = write(tmp_path, "ds.csv",
                    REDUCE_CSV.replace("# tc_mm = 0.2\n", line))
        assert run(["reduce", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_header_free_text_skipped_and_last_value_kept(self, tmp_path):
        plain = tmp_path / "plain"
        run(["reduce", "--config", write(tmp_path, "a.csv", REDUCE_CSV),
             "--out", str(plain)])
        noted = tmp_path / "noted"
        text = "# bench run 7: diode map\n# tc_mm = 5\n" + REDUCE_CSV
        assert run(["reduce", "--config", write(tmp_path, "b.csv", text),
                    "--out", str(noted)]) == 0
        assert ((noted / "reduction.json").read_text()
                == (plain / "reduction.json").read_text())

    def test_reduce_tcr_model(self, tmp_path):
        head = REDUCE_CSV.split("row,col")[0].replace(
            "# model = diode\n# sensitivity_mv_per_c = -1.55\n",
            "# model = tcr\n# tcr_ppm_per_c = 3553\n")
        # readings R = R0 (1 + tcr dT) over a 100 Ohm reference map
        dT = np.array([10.0, 20.0, 15.0, 12.5])
        rows = "".join(f"{i // 2},{i % 2},{100 * (1 + 3553e-6 * t)!r},100\n"
                       for i, t in enumerate(dT.tolist()))
        cfg = write(tmp_path, "ds.csv",
                    head + "row,col,reading_on,reading_off\n" + rows)
        out = tmp_path / "out"
        assert run(["reduce", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "reduction.json").read_text())
        assert payload["dT_avg_K"] == pytest.approx(dT.mean(), rel=1e-9)
        assert payload["r_th_K_W"] == pytest.approx(dT.mean() / 50, rel=1e-9)

    def test_unknown_sensor_model_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "ds.csv",
                    REDUCE_CSV.replace("model = diode", "model = rtd"))
        assert run(["reduce", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("error: [header] unknown sensor "
                                           "model 'rtd'\n")

    def test_empty_dataset_exit_2(self, tmp_path):
        cfg = write(tmp_path, "ds.csv",
                    "row,col,reading_on,reading_off\n")
        assert run(["reduce", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2

    def test_short_row_exit_2(self, tmp_path):
        cfg = write(tmp_path, "ds.csv", REDUCE_CSV + "1,2,0.57\n")
        assert run(["reduce", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("cells, where", [
        ("0,0,0.5845,0.6\n0,1,0.56875,0.6\n1,0,0.57875,0.6\n",
         "(row 1, col 1)"),
        (REDUCE_CSV.split("reading_off\n")[1] + "1,1,0.5,0.6\n",
         "(row 1, col 1)"),
        (REDUCE_CSV.split("reading_off\n")[1] + "-1,0,0.5,0.6\n",
         "(row -1, col 0)"),
        ("0,0,0.5845,0.6\n0,-1,0.5,0.6\n", "(row 0, col -1)"),
    ], ids=["missing", "repeated", "negative_row", "negative_col"])
    def test_bad_sensor_grid_exit_2(self, tmp_path, capsys, cells, where):
        head = REDUCE_CSV.split("reading_off\n")[0] + "reading_off\n"
        cfg = write(tmp_path, "ds.csv", head + cells)
        assert run(["reduce", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: sensor cell {where} ")
        assert not (tmp_path / "o" / "reduction.json").exists()

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "g.ini",
                    "[gci]\nf1 = 0.85\nf2 = 0.9\nf3 = 1.0\n")
        taken = write(tmp_path, "taken", "")
        assert run(["gci", "--config", cfg, "--out", taken]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_gci_report(self, tmp_path):
        cfg = write(tmp_path, "g.ini",
                    "[gci]\nf1 = 0.85\nf2 = 0.9\nf3 = 1.0\nr = 2\nfs = 1.25\n")
        out = tmp_path / "out"
        assert run(["gci", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "gci.json").read_text())
        assert payload["p"] == pytest.approx(1.0, rel=1e-9)
        assert payload["gci23"] == pytest.approx(0.2777777778, rel=1e-6)

    def test_gci_non_monotone_exit_3(self, tmp_path):
        cfg = write(tmp_path, "g.ini",
                    "[gci]\nf1 = 1.0\nf2 = 0.9\nf3 = 1.1\n")
        assert run(["gci", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_gci_divergent_exit_3(self, tmp_path, capsys):
        # the differences grow toward the fine grid: p = -1.32 and negative
        # indices were reported with exit 0
        cfg = write(tmp_path, "g.ini", "[gci]\nf1 = 1\nf2 = 1.5\nf3 = 1.7\n")
        assert run(["gci", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "infeasible: grid-level differences 0.5, 0.2 must be nonzero, "
            "same-signed and shrink toward the fine grid (order p > 0)\n")
        assert not (tmp_path / "o").exists()

    def test_gci_zero_value_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "g.ini",
                    "[gci]\nf1 = 0\nf2 = 0.9\nf3 = 1.0\n")
        assert run(["gci", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "f1 and f2 must be nonzero" in capsys.readouterr().err

    @pytest.mark.parametrize("values, code, message", [
        # divergent levels (p < 0), where r^p underflowed
        ("1e308 0.9 0.7", 3, "infeasible: grid-level differences -1e+308, "
         "-0.2 must be nonzero, same-signed and shrink toward the fine grid "
         "(order p > 0)"),
        ("1 2 3", 3, "infeasible: grid-level differences 1, 1 must be "
         "nonzero, same-signed and shrink toward the fine grid (order p > 0)"),
        ("1 1.000000000000001 1e308", 2, "error: (f3 - f2)/(f2 - f1) must be "
         "finite and > 0, got inf")],
        ids=["r_p_underflow", "p_0", "steps_overflow"])
    def test_gci_out_of_float_range_exits(self, tmp_path, capsys, values,
                                          code, message):
        # these ended in ZeroDivisionError, or wrote nan with exit 0
        f1, f2, f3 = values.split()
        cfg = write(tmp_path, "g.ini", f"[gci]\nf1 = {f1}\nf2 = {f2}\n"
                                       f"f3 = {f3}\n")
        assert run(["gci", "--config", cfg, "--out", str(tmp_path / "o")]) \
            == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert not (tmp_path / "o").exists()


FIXTURE_HEADER = ("material,authors,year,application,coolant,n_jets,"
                  "nozzle_diameter,chip_area_cm2,power_or_flux,flow,dp,pump_w,"
                  "thermal_metric,thermal_metric_unit")
FIXTURE_ROW = ("Si,E.N. Wang,2004,TTV,Water,4,76 um,1,4 W,8 mL/min,47.57 kPa,,"
               "4.4,W/cm2K(hmax)")


def fixture_with(tmp_path, **cells):
    """A one-row benchmark fixture: FIXTURE_ROW with ``cells`` replaced."""
    row = dict(zip(FIXTURE_HEADER.split(","), FIXTURE_ROW.split(",")))
    row.update(cells)
    return write(tmp_path, "fixture.csv", FIXTURE_HEADER + "\n"
                 + ",".join(row.values()) + "\n")


class TestBenchmark:
    def test_builtin_fixture_points(self, tmp_path):
        out = tmp_path / "out"
        assert run(["benchmark", "--out", str(out),
                    "--user-r-star", "0.16", "--user-pump-w", "0.4",
                    "--user-area-cm2", "0.64"]) == 0
        rows = {r["label"]: r for r in
                csv.DictReader((out / "benchmark.csv").open())}
        bruns = rows["T.Brunschwiler 2006"]
        assert float(bruns["r_star_Kcm2_W"]) == 0.17
        assert float(bruns["w_star_W_cm2"]) == 1.46 / 4
        mine = rows["this-work"]
        assert float(mine["r_star_Kcm2_W"]) == 0.16
        assert float(mine["w_star_W_cm2"]) == 0.4 / 0.64

    @pytest.mark.parametrize("flag, value", [
        ("--user-area-cm2", "0"), ("--user-area-cm2", "nan"),
        ("--user-area-cm2", "-1"), ("--user-r-star", "nan")])
    def test_bad_user_point_exit_2(self, tmp_path, capsys, flag, value):
        point = {"--user-r-star": "0.16", "--user-pump-w": "0.4",
                 "--user-area-cm2": "0.64", flag: value}
        argv = ["benchmark", "--out", str(tmp_path / "out")]
        for key, text in point.items():
            argv += [key, text]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be finite and > 0" in err
        assert "Traceback" not in err

    def test_partial_user_point_exit_2(self, tmp_path, capsys):
        assert run(["benchmark", "--out", str(tmp_path / "out"),
                    "--user-pump-w", "0.4", "--user-area-cm2", "0.64"]) == 2
        assert "user point needs" in capsys.readouterr().err

    def test_row_without_pump_data_flagged(self, tmp_path):
        out = tmp_path / "out"
        run(["benchmark", "--out", str(out)])
        rows = list(csv.DictReader((out / "benchmark.csv").open()))
        flagged = [r for r in rows if "no_pump_power" in r["warnings"]]
        assert flagged
        assert all(r["w_star_W_cm2"] == "" for r in flagged)

    def test_empty_fixture_header_only(self, tmp_path):
        fixture = tmp_path / "empty.csv"
        fixture.write_text(
            "material,authors,year,application,coolant,n_jets,"
            "nozzle_diameter,chip_area_cm2,power_or_flux,flow,dp,pump_w,"
            "thermal_metric,thermal_metric_unit\n")
        out = tmp_path / "out"
        assert run(["benchmark", "--fixture", str(fixture),
                    "--out", str(out)]) == 0
        lines = (out / "benchmark.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_short_row_flagged(self, tmp_path, capsys):
        fixture = tmp_path / "short.csv"
        fixture.write_text(
            "material,authors,year,application,coolant,n_jets,"
            "nozzle_diameter,chip_area_cm2,power_or_flux,flow,dp,pump_w,"
            "thermal_metric,thermal_metric_unit\n"
            "Si,E.N. Wang,2004,TTV,Water,4,76 um,1\n")
        out = tmp_path / "out"
        assert run(["benchmark", "--fixture", str(fixture),
                    "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "benchmark.csv").open()))
        assert rows == [{"label": "E.N. Wang 2004", "material": "Si",
                         "r_star_Kcm2_W": "", "w_star_W_cm2": "",
                         "warnings": "no_pump_power"}]
        assert capsys.readouterr().err == ""

    def test_missing_column_exit_2(self, tmp_path, capsys):
        fixture = tmp_path / "noauthors.csv"
        fixture.write_text("material,year,chip_area_cm2,flow,dp,pump_w,"
                           "thermal_metric,thermal_metric_unit\n"
                           "Si,2006,4,,,1.46,0.17,Kcm2/W\n")
        assert run(["benchmark", "--fixture", str(fixture),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "column" in err and "authors" in err

    @pytest.mark.parametrize("column, text, message", [
        ("thermal_metric", "nan",
         "data row 1, column thermal_metric: 'nan' is not a finite number"),
        ("pump_w", "inf",
         "data row 1, column pump_w: 'inf' is not a finite number"),
        ("chip_area_cm2", "-2",
         "E.N. Wang 2004: chip_area_cm2 must be > 0, got -2.0"),
        ("thermal_metric", "0",
         "E.N. Wang 2004: thermal_metric must be > 0, got 0.0"),
        ("thermal_metric", "1e-320",
         "E.N. Wang 2004: R_th*A must be finite and > 0, got inf"),
        ("pump_w", "-1",
         "E.N. Wang 2004: W_p/A must be finite and >= 0, got -1.0"),
        ("dp", "nan kPa",
         "E.N. Wang 2004: W_p/A must be finite and >= 0, got nan"),
    ])
    def test_bad_fixture_point_exit_2(self, tmp_path, capsys, column, text,
                                      message):
        fixture = fixture_with(tmp_path, **{column: text})
        out = tmp_path / "out"
        assert run(["benchmark", "--fixture", fixture, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {fixture}: {message}\n"
        assert not (out / "benchmark.csv").exists()

    @pytest.mark.parametrize("column, text, units", [
        ("flow", "8 gpm", "ml/min, l/min"), ("flow", "mL/min", "ml/min, l/min"),
        ("dp", "47.57 psi", "pa, kpa, bar"), ("dp", "~47 kPa", "pa, kpa, bar")])
    @pytest.mark.parametrize("pump_w", ["", "0.5"])
    def test_unparsable_quantity_exit_2(self, tmp_path, capsys, column, text,
                                        units, pump_w):
        fixture = fixture_with(tmp_path, pump_w=pump_w, **{column: text})
        out = tmp_path / "out"
        assert run(["benchmark", "--fixture", fixture, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {fixture}: E.N. Wang 2004: column {column}: {text!r} is "
            f"not a number in one of the units {units}\n")
        assert not (out / "benchmark.csv").exists()

    def test_determinism(self, tmp_path):
        run(["benchmark", "--out", str(tmp_path / "a")])
        run(["benchmark", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "benchmark.csv").read_bytes() == \
            (tmp_path / "b" / "benchmark.csv").read_bytes()


def _read_nu_catalog(path, out):
    """No command reads a correlation catalog: report it as the CLI would."""
    try:
        load_catalog(path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _predict_with(tmp_path, old, new):
    def invoke(path, out):
        cfg = write(tmp_path, "p.ini",
                    PREDICT_INI.replace(old, new.format(path=path)))
        return run(["predict", "--config", cfg, "--out", out])
    return invoke


MISSING_COLUMN_CASES = [
    ("fluids", "name,density_kg_m3,viscosity_kg_ms,ref_temp_C\n",
     "missing columns ['cp_J_kgK', 'k_W_mK']"),
    ("solids", "name,k\ndiamond,2000\n", "missing columns ['k_W_mK']"),
    ("nu_catalog", "label,c,m,basis\nx,1,0.5,junction\n",
     "missing columns ['pr_exponent', 're_max', 're_min']"),
    ("dataset", "# power_w = 50\nrow,col,reading_on\n0,0,0.5\n",
     "missing columns ['reading_off']"),
    ("fixture", FIXTURE_HEADER.replace("authors,year,", "") + "\n",
     "missing columns ['authors', 'year']"),
    ("points", "r_th_K_W,w_p\n0.1,0.2\n",
     "need columns r_th_K_W/wp_W or r_th/w_p"),
]


BAD_CELL_CASES = [
    ("fluids", "name,density_kg_m3,viscosity_kg_ms,cp_J_kgK,k_W_mK,"
     "ref_temp_C\nbrine,1100,{bad},3500,0.5,20\n",
     "data row 1, column viscosity_kg_ms"),
    ("solids", "name,k_W_mK\ndiamond,{bad}\n", "data row 1, column k_W_mK"),
    ("nu_catalog", "label,c,m,pr_exponent,re_min,re_max,basis\n"
     "x,1,0.5,,,,junction\ny,1,0.5,,{bad},,junction\n",
     "data row 2, column re_min"),
    ("dataset", "# power_w = 50\nrow,col,reading_on,reading_off\n"
     "0,0,0.5,0.6\n0,1,{bad},0.6\n", "data row 2, column reading_on"),
    ("fixture", FIXTURE_HEADER + "\n" + FIXTURE_ROW.replace("4.4", "{bad}")
     + "\n", "data row 1, column thermal_metric"),
    ("points", "r_th,w_p\n0.1,0.2\n0.2,{bad}\n", "data row 2, column w_p"),
]


class TestTableInputs:
    """Every CSV input is read by one routine with one column check."""

    @pytest.mark.parametrize("kind, text, message", MISSING_COLUMN_CASES,
                             ids=[case[0] for case in MISSING_COLUMN_CASES])
    def test_missing_columns_named_with_file(self, tmp_path, capsys, kind,
                                             text, message):
        path = write(tmp_path, f"{kind}.csv", text)
        assert self.invoke(tmp_path, kind)(path, str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err and message in err

    @pytest.mark.parametrize("bad", ["abc", "nan"])
    @pytest.mark.parametrize("kind, text, where", BAD_CELL_CASES,
                             ids=[case[0] for case in BAD_CELL_CASES])
    def test_bad_cell_named_with_file_row_and_column(self, tmp_path, capsys,
                                                     kind, text, where, bad):
        path = write(tmp_path, f"{kind}.csv", text.format(bad=bad))
        assert self.invoke(tmp_path, kind)(path, str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (f"error: {path}: {where}: "
                                           f"'{bad}' is not a finite number\n")

    @staticmethod
    def invoke(tmp_path, kind):
        """The command, or the library call, that reads a ``kind`` table."""
        return {
            "fluids": _predict_with(tmp_path, "[fluid]\nname = water",
                                    "[fluid]\nname = brine\n"
                                    "catalog = {path}"),
            "solids": _predict_with(tmp_path, "[solid]\nname = silicon",
                                    "[solid]\nname = diamond\n"
                                    "catalog = {path}"),
            "nu_catalog": _read_nu_catalog,
            "dataset": lambda path, out: run(["reduce", "--config", path,
                                              "--out", out]),
            "fixture": lambda path, out: run(["benchmark", "--fixture", path,
                                              "--out", out]),
            "points": lambda path, out: run(["pareto", "--input", path,
                                             "--out", out]),
        }[kind]

    def test_short_catalog_row_exit_2(self, tmp_path, capsys):
        catalog = write(tmp_path, "fluids.csv",
                        "name,density_kg_m3,viscosity_kg_ms,cp_J_kgK,k_W_mK,"
                        "ref_temp_C\nbrine,1100,0.002,3500\n")
        cfg = write(tmp_path, "p.ini", PREDICT_INI.replace(
            "[fluid]\nname = water",
            f"[fluid]\nname = brine\ncatalog = {catalog}"))
        assert run(["predict", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


USER_FLUIDS = ("name,density_kg_m3,viscosity_kg_ms,cp_J_kgK,k_W_mK,ref_temp_C\n"
               "brine,1100,0.002,3500,0.5,20\n")


def run_python(*args):
    """``python *args`` in a new process that imports this jetcool."""
    src = str(Path(jetcool.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


class TestCommandLine:
    """argparse's verdict on a command line comes back from ``run`` as an
    exit code, and a command that reads a file cannot be run without it."""

    @pytest.mark.parametrize("command", ["predict", "explore", "cop",
                                         "hotspot", "reduce", "gci"])
    def test_missing_config_exit_2(self, tmp_path, capsys, command):
        assert run([command, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: --config" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exit_2_in_a_process(self):
        proc = run_python("-m", "jetcool.cli", "predict")
        assert proc.returncode == 2
        assert "the following arguments are required: --config" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["topo"], "one of the arguments --config --selftest is required"),
        (["topo", "--selftest", "--config", "t.ini"],
         "argument --config: not allowed with argument --selftest")])
    def test_topo_takes_config_or_selftest(self, capsys, argv, message):
        assert run(argv) == 2
        assert message in capsys.readouterr().err

    OPTIONS = {
        "predict": ["--config", "--out", "--format"],
        "explore": ["--config", "--out"],
        "cop": ["--config", "--out"],
        "hotspot": ["--config", "--out", "--format"],
        "reduce": ["--config", "--out", "--format"],
        "gci": ["--config", "--out", "--format"],
        "pareto": ["--out", "--input"],
        "topo": ["--config", "--out", "--selftest"],
        "benchmark": ["--out", "--fixture", "--user-r-star", "--user-pump-w",
                      "--user-area-cm2", "--user-label"],
    }

    def test_each_command_takes_only_the_flags_it_reads(self):
        sub, = (action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
        options = {name: [flag for action in parser._actions
                          for flag in action.option_strings
                          if flag not in ("-h", "--help")]
                   for name, parser in sub.choices.items()}
        assert list(options.items()) == list(self.OPTIONS.items())
        assert sum(map(len, options.values())) == 27

    @pytest.mark.parametrize("argv, flag", [
        (["explore", "--config", "e.ini", "--format", "csv"], "--format csv"),
        (["cop", "--config", "c.ini", "--format", "json"], "--format json"),
        (["topo", "--config", "t.ini", "--format", "csv"], "--format csv"),
        (["benchmark", "--config", "x.ini"], "--config x.ini")],
        ids=["explore_format", "cop_format", "topo_format", "benchmark_config"])
    def test_flag_the_command_does_not_read_exit_2(self, tmp_path, capsys,
                                                   argv, flag):
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: jetcool ")
        assert err.endswith(f"error: unrecognized arguments: {flag}\n")
        assert not (tmp_path / "out").exists()

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nosuch.ini"
        assert run(["gci", "--config", str(missing),
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config file {str(missing)!r}\n")

    def test_solver_error_exit_4(self, tmp_path, capsys, monkeypatch):
        def fail(args):
            raise SolverError("no convergence")

        monkeypatch.setattr(cli, "cmd_gci", fail)
        assert run(["gci", "--config", "g.ini",
                    "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == "solver failure: no convergence\n"

    def test_usage_error_and_help_return_their_codes(self, capsys):
        assert run(["predict", "--config", "p.ini", "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert run(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: jetcool")


class TestPerCallCost:
    """The parser and the built-in catalogs are built once per process and
    shared between runs without carrying state; only topo loads scipy."""

    def test_scipy_loaded_only_for_topo(self, tmp_path):
        cfg = write(tmp_path, "p.ini", PREDICT_INI)
        argv = ["predict", "--config", cfg, "--out", str(tmp_path / "out")]
        code = ("import sys\n"
                "import jetcool.cli\n"
                f"assert jetcool.cli.run({argv!r}) == 0\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.startswith(('scipy', 'jetcool.topo'))))\n")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_parser_built_once_without_state_leaks(self, tmp_path,
                                                   monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        cfg = write(tmp_path, "p.ini", PREDICT_INI)
        assert run(["predict", "--config", cfg, "--format", "csv",
                    "--out", str(tmp_path / "a")]) == 0
        assert run(["predict", "--config", cfg,
                    "--out", str(tmp_path / "b")]) == 0
        assert run(["topo", "--config", cfg, "--out", str(tmp_path / "c")]) \
            == 2
        assert len(parsers) == 3
        assert all(parser is parsers[0] for parser in parsers)
        assert [f.name for f in (tmp_path / "a").iterdir()] == ["report.csv"]
        assert [f.name for f in (tmp_path / "b").iterdir()] == ["report.json"]

    def test_patched_command_is_called(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, "g.ini", "[gci]\nf1 = 0.85\nf2 = 0.9\nf3 = 1.0\n")
        out = str(tmp_path / "out")
        assert run(["gci", "--config", cfg, "--out", out]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_gci",
                            lambda args: calls.append(args.config) or 7)
        assert run(["gci", "--config", cfg, "--out", out]) == 7
        assert calls == [cfg]

    @pytest.mark.parametrize("builtin", [props.builtin_fluids,
                                         props.builtin_solids])
    def test_builtin_catalog_shared_and_read_only(self, builtin):
        catalog = builtin()
        assert builtin() is catalog
        name = next(iter(catalog))
        with pytest.raises(TypeError):
            catalog["other"] = catalog[name]
        with pytest.raises(TypeError):
            del catalog[name]

    def test_user_catalog_entry_not_kept(self, tmp_path, capsys):
        catalog = write(tmp_path, "fluids.csv", USER_FLUIDS)
        brine = PREDICT_INI.replace("[fluid]\nname = water",
                                    "[fluid]\nname = brine")
        cfg = write(tmp_path, "a.ini", brine.replace(
            "name = brine", f"name = brine\ncatalog = {catalog}"))
        assert run(["predict", "--config", cfg,
                    "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        cfg = write(tmp_path, "b.ini", brine)
        assert run(["predict", "--config", cfg,
                    "--out", str(tmp_path / "b")]) == 2
        assert "[fluid] unknown fluid 'brine'" in capsys.readouterr().err
        assert "brine" not in props.builtin_fluids()
