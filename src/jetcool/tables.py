"""CSV and JSON tables: every one jetcool reads or writes goes through here.

Numbers are written with 10 significant digits and cells are joined with
bare commas, one row per line. A CSV read skips leading ``#`` lines, checks
its required columns and reads a short row as empty cells.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError

#: The tables shipped with jetcool (catalogs and the benchmark fixture).
DATA_DIR = Path(__file__).parent / "data"


def fmt(x) -> str:
    """A float with 10 significant digits, a list as ``;``-joined items,
    anything else as ``str``."""
    if isinstance(x, float):
        return f"{x:.10g}"
    if isinstance(x, (list, tuple)):
        return ";".join(map(str, x))
    return str(x)


def write_csv(path: str | Path, header, rows) -> None:
    """Write the ``header`` column names (none if ``None``), then each row's
    cells through ``fmt``."""
    lines = [] if header is None else [",".join(header)]
    # fmt's float case inline: a call per cell would slow a 20,000-cell sweep
    lines += [",".join([f"{x:.10g}" if isinstance(x, float) else fmt(x)
                        for x in row]) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_csv(path: str | Path, required) -> list[dict[str, str]]:
    """Rows of the CSV file at ``path`` as dicts.

    Raises ``ConfigError`` naming the file and the columns of ``required``
    its header lacks.
    """
    with open(path, newline="") as fh:
        lines = itertools.dropwhile(lambda line: line.startswith("#"), fh)
        reader = csv.DictReader(lines, restval="")
        missing = sorted(set(required) - set(reader.fieldnames or ()))
        if missing:
            raise ConfigError(f"{path}: missing columns {missing}")
        return list(reader)


def read_grid(path: str | Path) -> np.ndarray:
    """A file of comma-separated numbers as a 2-D array, one row per line;
    a ragged row or a non-number raises ``ConfigError`` naming the file."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        # numpy's own advice after the ';' (``usecols``) does not apply
        reason = str(exc).split(";")[0]
        raise ConfigError(f"{path}: expected equal-length rows of "
                          f"comma-separated numbers: {reason}") from None
