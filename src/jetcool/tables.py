"""CSV and JSON tables: every one jetcool reads or writes goes through here.

Numbers are written with 10 significant digits and cells are joined with
bare commas, one row per line. A CSV read skips leading ``#`` lines, checks
its header for the columns asked for and reads a short row as empty cells.
Each column is typed ``str``, ``int``, ``float`` or an ``Enum`` of string
values, and only the columns asked for are converted: a numeric cell must
hold a finite number, an enum cell one of the values, and a blank one reads
as None only in the columns that allow it. Any other cell raises
``ConfigError`` naming the file, data row, column and text.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
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


class MissingColumnsError(ConfigError):
    """A CSV header lacks columns a reader needs."""


def _cell(text: str, cast, blank: bool):
    """``text`` as ``cast`` (a finite float); None if blank and ``blank``."""
    if blank and not text.strip():
        return None
    val = cast(text)
    if cast is float and not math.isfinite(val):
        raise ValueError(text)
    return val


def read_csv(path: str | Path, columns: dict, blank=(),
             optional=()) -> list[tuple]:
    """Rows of the CSV file at ``path``, each the tuple of the cells of
    ``columns`` (name: type) in its order; the ``blank`` columns read a
    blank cell as None. Raises ``MissingColumnsError`` naming the file and
    the columns, other than ``optional`` ones, that its header lacks."""
    with open(path, newline="") as fh:
        lines = itertools.dropwhile(lambda line: line.startswith("#"), fh)
        reader = csv.reader(lines)
        header = next(reader, [])
        missing = sorted(set(columns) - set(header) - set(optional))
        if missing:
            raise MissingColumnsError(f"{path}: missing columns {missing}")
        picks = [(header.index(name) if name in header else None, name, cast,
                  name in blank) for name, cast in columns.items()]
        rows = []
        for k, cells in enumerate(filter(None, reader), 1):
            row = []
            for i, name, cast, can_blank in picks:
                # a short row, or an absent optional column, reads as blank
                text = cells[i] if i is not None and i < len(cells) else ""
                try:
                    row.append(_cell(text, cast, can_blank))
                except ValueError:
                    what = ("an integer" if cast is int else
                            "a finite number" if cast is float else
                            f"one of {', '.join(m.value for m in cast)}")
                    raise ConfigError(f"{path}: data row {k}, column {name}: "
                                      f"{text!r} is not {what}") from None
            rows.append(tuple(row))
        return rows


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
