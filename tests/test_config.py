import configparser

import numpy as np
import pytest

from jetcool import config, topo
from jetcool.cli import run
from jetcool.errors import ConfigError


def section(text):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string("[s]\n" + text)
    return cp["s"]


class TestValue:
    def test_missing_required_key_names_section_and_key(self):
        with pytest.raises(ConfigError, match=r"\[s\].*'flow_mlpm'"):
            config.value(section(""), "flow_mlpm")

    def test_default_is_scaled_like_a_file_value(self):
        sec = section("given_mm = 2\n")
        assert config.value(sec, "given_mm", scale=1e-3) == 2 * 1e-3
        assert config.value(sec, "absent_mm", 1.0, scale=1e-3) == 1e-3
        assert config.value(sec, "absent", None, scale=1e-3) is None

    def test_integer_keys_stay_int(self):
        val = config.value(section("nx = 12\n"), "nx", cast=int)
        assert val == 12 and type(val) is int

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "abc", ""])
    def test_malformed_or_non_finite_rejected(self, text):
        with pytest.raises(ConfigError, match=r"\[s\] power_w"):
            config.value(section(f"power_w = {text}\n"), "power_w")

    def test_values_lists(self):
        sec = section("h = 0.3, 0.6 0.9\nn = 2 4.7\n")
        assert config.values(sec, "h") == (0.3, 0.6, 0.9)
        assert config.values(sec, "absent", default=()) == ()
        with pytest.raises(ConfigError, match=r"\[s\] n"):
            config.values(sec, "n", int)

    @pytest.mark.parametrize("text", ["", " , "])
    def test_values_rejects_empty_list(self, text):
        with pytest.raises(ConfigError, match=r"\[s\] e is an empty list"):
            config.values(section(f"e = {text}\n"), "e")


# Minimal configs: every key below is required by its command.
FLUID = {"density_kg_m3": "998", "viscosity_kg_ms": "1e-3",
         "cp_J_kgK": "4180", "k_W_mK": "0.6"}
CHIP = {"chip_side_mm": "8", "tc_mm": "0.2"}
DESIGN = {"n": "4", "di_over_l": "0.3", "h_over_l": "0.3", "t_over_l": "0.5"}
MINIMAL = {
    "predict": {"geometry": {**CHIP, **DESIGN}, "fluid": FLUID,
                "operating": {"flow_mlpm": "600"}},
    "explore": {"geometry": CHIP, "fluid": FLUID, "sweep": DESIGN,
                "constraint": {"value_mlpm": "600"}},
    "cop": {"geometry": CHIP, "fluid": FLUID,
            "cop": {**DESIGN, "flow_mlpm": "300"}},
    "hotspot-map": {"map": {"file": "{map}", "flow_mlpm": "30",
                            "dt_target_k": "25"}},
    "hotspot-scale": {"scale": {"base_htc_w_m2k": "57000",
                                "base_flow_mlpm": "9.4", "n_total": "64",
                                "m_nozzles": "24"}},
    "gci": {"gci": {"f1": "0.85", "f2": "0.9", "f3": "1.0"}},
    "topo": {"grid": {"nx": "8", "ny": "4", "lx_mm": "2", "ly_mm": "1"},
             "fluid": FLUID, "problem": {},
             "segments": {"list": "\n    left 0 4 inlet constant 0.01"
                                  "\n    right 0 4 outlet_pressure"}},
}


def render(sections, map_path):
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                           for k, v in keys.items())
                   for name, keys in sections.items())
    return text.replace("{map}", str(map_path))


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(MINIMAL))
def test_every_config_error_names_its_key(name, tmp_path, capsys,
                                          monkeypatch):
    def no_optimizer(*args, **kwargs):
        raise AssertionError("the optimizer must not start")
    monkeypatch.setattr(topo, "optimize", no_optimizer)
    command = name.split("-")[0]
    map_path = tmp_path / "map.csv"
    np.savetxt(map_path, np.array([[100.0, 0.0], [200.0, 150.0]]),
               delimiter=",")
    cfg = tmp_path / "c.ini"

    def run_with(sections):
        cfg.write_text(render(sections, map_path))
        code = run([command, "--config", str(cfg),
                    "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    sections = MINIMAL[name]
    if command == "topo":
        cfg.write_text(render(sections, map_path))
        topo.parse_problem_file(cfg)
    else:
        assert run_with(sections) == (0, "")
    for sec, keys in sections.items():
        for key, text in keys.items():
            dropped = {k: v for k, v in keys.items() if k != key}
            code, err = run_with({**sections, sec: dropped})
            assert code == 2, (sec, key)
            assert f"[{sec}]" in err and repr(key) in err, err
            if is_number(text):
                code, err = run_with({**sections,
                                      sec: {**keys, key: "nan"}})
                assert code == 2, (sec, key)
                assert f"[{sec}] {key}" in err, err


PREDICT = render(MINIMAL["predict"], "")


@pytest.mark.parametrize("key, text", [
    ("power_w", "nan"), ("dt_max_allow", "nan"), ("dt_max_allow", "-5")])
def test_predict_rejects_bad_operating_values(tmp_path, capsys, key, text):
    cfg = tmp_path / "p.ini"
    cfg.write_text(PREDICT + f"{key} = {text}\n")   # [operating] comes last
    assert run(["predict", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_sweep_n_must_be_integer(tmp_path, capsys):
    cfg = tmp_path / "e.ini"
    cfg.write_text(render(MINIMAL["explore"], "").replace("n = 4",
                                                          "n = 2 4.7"))
    assert run(["explore", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 2
    assert "[sweep] n = '4.7'" in capsys.readouterr().err


@pytest.mark.parametrize("command, sec, key", [
    ("explore", "sweep", "di_over_l"), ("explore", "sweep", "n"),
    ("cop", "cop", "n"), ("cop", "cop", "h_over_l")])
def test_empty_list_exits_2(tmp_path, capsys, command, sec, key):
    sections = MINIMAL[command]
    cfg = tmp_path / "c.ini"
    cfg.write_text(render({**sections, sec: {**sections[sec], key: ""}}, ""))
    assert run([command, "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 2
    assert f"[{sec}] {key} is an empty list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["di_over_l", "t_over_l"])
def test_cop_takes_one_ratio(tmp_path, capsys, key):
    cfg = tmp_path / "c.ini"
    sections = {**MINIMAL["cop"], "cop": {**MINIMAL["cop"]["cop"],
                                         key: "0.3 0.5"}}
    cfg.write_text(render(sections, ""))
    assert run(["cop", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 2
    assert "[cop] di_over_l and t_over_l" in capsys.readouterr().err


class TestTopoFluid:
    def write(self, tmp_path, fluid):
        sections = {**MINIMAL["topo"], "fluid": fluid}
        cfg = tmp_path / "t.ini"
        cfg.write_text(render(sections, ""))
        return cfg

    def test_inline_fluid_needs_cp_and_k(self, tmp_path):
        partial = {"density_kg_m3": "998", "viscosity_kg_ms": "1e-3"}
        with pytest.raises(ConfigError, match="cp_J_kgK"):
            topo.parse_problem_file(self.write(tmp_path, partial))

    def test_label_and_catalog_honoured(self, tmp_path):
        problem, _, _ = topo.parse_problem_file(
            self.write(tmp_path, {**FLUID, "label": "glycol mix"}))
        assert problem.fluid.name == "glycol mix"
        catalog = tmp_path / "fluids.csv"
        catalog.write_text("name,density_kg_m3,viscosity_kg_ms,cp_J_kgK,"
                           "k_W_mK,ref_temp_C\nbrine,1100,2e-3,3500,0.5,20\n")
        problem, _, _ = topo.parse_problem_file(self.write(
            tmp_path, {"catalog": str(catalog), "name": "brine"}))
        assert problem.fluid.name == "brine"
        assert problem.fluid.viscosity == 2e-3

    def test_missing_catalog_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"catalog": str(tmp_path / "nosuch.csv"),
                                    "name": "water"})
        assert run(["topo", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        assert "nosuch.csv" in capsys.readouterr().err

    def test_negative_max_iters_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"name": "water"})
        cfg.write_text(cfg.read_text().replace("[problem]\n",
                                               "[problem]\nmax_iters = -3\n"))
        assert run(["topo", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        assert "max_iters" in capsys.readouterr().err
        assert not (tmp_path / "out" / "history.csv").exists()


class TestSolid:
    def solid(self, text):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        return config.solid(cp)

    def test_named_inline_and_default(self, tmp_path):
        catalog = tmp_path / "solids.csv"
        catalog.write_text("name,k_W_mK\ndiamond,2000\n")
        named = self.solid(f"[solid]\nname = diamond\ncatalog = {catalog}\n")
        assert (named.name, named.conductivity) == ("diamond", 2000.0)
        assert self.solid("[solid]\nname = silicon\n").conductivity == 149.0
        assert self.solid("[solid]\nk_W_mK = 400\n").conductivity == 400.0
        assert self.solid("[fluid]\nname = water\n").name == "silicon"

    def test_unknown_solid_and_missing_catalog(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[solid\] unknown solid 'x'"):
            self.solid("[solid]\nname = x\n")
        with pytest.raises(FileNotFoundError):
            self.solid(f"[solid]\nk_W_mK = 400\n"
                       f"catalog = {tmp_path / 'nosuch.csv'}\n")


def test_unreadable_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("no section header\n")
    assert run(["gci", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "bad.ini" in capsys.readouterr().err


def test_repeated_key_raises_config_error(tmp_path):
    cfg = tmp_path / "t.ini"
    cfg.write_text(render(MINIMAL["topo"], "").replace(
        "nx = 8\n", "nx = 8\nnx = 9\n"))
    with pytest.raises(ConfigError, match="option 'nx' in section 'grid' "
                                          "already exists"):
        topo.parse_problem_file(cfg)
