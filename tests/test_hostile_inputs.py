"""Every config key of every command, set in turn to a hostile value.

Each run must end in one of the documented exit codes without an exception
escaping ``cli.run``, and a run that succeeds must write only finite numbers
to stdout and to ``--out``. pytest turns a numpy ``RuntimeWarning`` into a
failure (pyproject.toml), so an unguarded overflow fails here too.
"""

import re

import numpy as np
import pytest

from jetcool.cli import run

HOSTILE = ("0", "-1", "nan", "inf", "1e-308", "1e308", "5e-324", "abc", "")

GEOMETRY = {"chip_side_mm": "8", "tc_mm": "0.2", "heated_fraction": "0.9"}
MATERIALS = {"fluid": {"name": "water"}, "solid": {"name": "silicon"}}
SWEEP = {"n": "2 4", "di_over_l": "0.3", "h_over_l": "0.3",
         "t_over_l": "0.5"}

CONFIGS = {
    "predict": {
        "geometry": {**GEOMETRY, "n": "4", "di_over_l": "0.3",
                     "do_over_l": "0.3", "h_over_l": "0.3",
                     "t_over_l": "0.5"},
        **MATERIALS,
        "operating": {"flow_mlpm": "600", "power_w": "50",
                      "dt_max_allow": "60"}},
    "explore-const_pump": {
        "geometry": GEOMETRY, **MATERIALS, "sweep": SWEEP,
        "constraint": {"mode": "const_pump", "value_w": "0.2"}},
    "explore-const_pressure": {
        "geometry": GEOMETRY, **MATERIALS, "sweep": SWEEP,
        "constraint": {"mode": "const_pressure", "value_pa": "5000"}},
    "cop": {
        "geometry": GEOMETRY, **MATERIALS,
        "cop": {**SWEEP, "h_over_l": "0.2 0.4", "flow_mlpm": "600"}},
    "hotspot-map": {
        "map": {"file": "{map}", "pitch_mm": "1", "flow_mlpm": "30",
                "dt_target_k": "25", "d_min_mm": "0.1", "d_max_mm": "0.9"}},
    "hotspot-scale": {
        "scale": {"base_htc_w_m2k": "57000", "base_flow_mlpm": "9.4",
                  "n_total": "64", "m_nozzles": "24"}},
    "gci": {"gci": {"f1": "0.85", "f2": "0.9", "f3": "1.0", "r": "2",
                    "fs": "1.25"}},
    "topo": {
        "grid": {"nx": "12", "ny": "4", "lx_mm": "3", "ly_mm": "1"},
        "fluid": {"name": "water"},
        "problem": {"beta": "0.1", "volume_fraction": "0.5", "q": "0.01",
                    "max_iters": "2"},
        "segments": {"list": "\n left 0 4 inlet parabolic 0.02"
                             "\n bottom 2 4 outlet_pressure"
                             "\n top 8 10 outlet_pressure"}},
}

CASES = [(name, sec, key, bad) for name, cfg in CONFIGS.items()
         for sec, keys in cfg.items() for key in keys for bad in HOSTILE]
NON_FINITE = re.compile(r"\b(?:inf(?:inity)?|nan)\b", re.IGNORECASE)


def render(cfg, sec, key, bad, power_map):
    lines = []
    for name, keys in cfg.items():
        lines.append(f"[{name}]")
        for k, v in keys.items():
            v = bad if (name, k) == (sec, key) else v
            lines.append(f"{k} = {v.replace('{map}', str(power_map))}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, sec, key, bad", CASES,
                         ids=[f"{n}-{s}.{k}={b}" for n, s, k, b in CASES])
def test_hostile_value_exits_cleanly(tmp_path, capsys, name, sec, key, bad):
    power_map = tmp_path / "map.csv"
    np.savetxt(power_map, np.array([[100.0, 0.0], [200.0, 150.0]]),
               delimiter=",")
    cfg = tmp_path / "c.ini"
    cfg.write_text(render(CONFIGS[name], sec, key, bad, power_map))
    out = tmp_path / "out"
    code = run([name.split("-")[0], "--config", str(cfg), "--out", str(out)])
    assert code in (0, 2, 3, 4)
    printed = capsys.readouterr()
    if code == 0:
        texts = [printed.out] + [f.read_text() for f in out.iterdir()]
        assert not any(NON_FINITE.search(text) for text in texts)
    else:
        assert printed.err.strip()
