"""Each input format has one reader and each check one idiom.

INI files (and the ``#`` header of a data file) are parsed only in
``jetcool.config``, CSV and JSON tables only in ``jetcool.tables``, and
range checks go through ``errors.check`` rather than a private helper. CSV
cells are converted only in ``jetcool.tables``: no caller turns a cell into
a number or decides what a blank or bad cell means. A sweep stays columns:
no per-design row type or ``rows()`` splitter. The full saddle-point matrix
of the flow solver is built only in the tests, and scipy is imported only by
the topology solver, so no other command pays for loading it. A design is one
``CoolerArray`` of ratios.
"""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "jetcool"

# (text, the only module allowed to contain it, or None for none)
CONFINED = [
    ("ConfigParser(", "config.py"),
    ("csv.DictReader(", "tables.py"),
    ("csv.reader(", "tables.py"),
    ("json.dumps(", "tables.py"),
    ("np.loadtxt(", "tables.py"),
    ("import scipy", "topo/solver.py"),
    ("from scipy", "topo/solver.py"),
    ("_require_finite", None),
    ("_parse_dataset_header", None),
    ("SweepRow", None),
    ("def rows(", None),
    ("def matrix(", None),
    ("def _finite", None),
    ("def opt(", None),
    ("float(row[", None),
    ("int(r[", None),
    ("class UnitCell", None),
    (".cell.", None),
]


@pytest.mark.parametrize("text, home", CONFINED,
                         ids=[text for text, _ in CONFINED])
def test_text_confined_to_its_module(text, home):
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [str(path.relative_to(SRC)) for path in modules
             if text in path.read_text()]
    assert set(found) <= {home} - {None}
