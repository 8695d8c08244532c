"""INI config reading for the CLI configs, the topo problem files and the
``#`` header of a data file.

A missing, malformed or non-finite entry raises ``ConfigError`` naming its
``[section]`` and key.
"""

from __future__ import annotations

import configparser
import math

from . import props as pr
from .errors import ConfigError, check

REQUIRED = object()   # default of a key the file must give


def _parser(**options) -> configparser.ConfigParser:
    """A parser whose values are literal (no '%' interpolation)."""
    return configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                     interpolation=None, **options)


def read(path) -> configparser.ConfigParser:
    """Parse an INI file; a malformed one raises ``ConfigError``."""
    cp = _parser()
    try:
        found = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    if not found:
        raise ConfigError(f"cannot read config file {str(path)!r}")
    return cp


def header(path):
    """The ``[header]`` section of a data file: one ``key = value`` entry
    per leading ``#`` line. Other ``#`` lines, and those with no key before
    the ``=``, are free text and skipped; a repeated key keeps its last
    value."""
    lines = ["[header]"]
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            text = line[1:].strip()
            if "=" in text and not text.startswith("="):
                lines.append(text)
    cp = _parser(strict=False, delimiters=("=",))
    cp.read_string("\n".join(lines))
    return cp["header"]


def section(cp: configparser.ConfigParser, name: str):
    if not cp.has_section(name):
        raise ConfigError(f"config is missing the [{name}] section")
    return cp[name]


def convert(sec, key: str, text: str, cast=float):
    """``text`` of ``key`` in ``sec`` as ``cast``; a float must be finite."""
    try:
        val = cast(text)
    except ValueError:
        raise ConfigError(f"[{sec.name}] {key} = {text!r} is not a valid "
                          f"{cast.__name__}") from None
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"[{sec.name}] {key} must be finite, got {text!r}")
    return val


def value(sec, key: str, default=REQUIRED, scale: float = 1.0, cast=float):
    """Entry ``key`` of ``sec`` as ``cast``, times ``scale``.

    A missing key gives ``default``, in file units and scaled the same way;
    a ``None`` default is returned as is. With ``scale`` 1 the value keeps
    its type, so integer keys stay ``int``.
    """
    if key in sec:
        val = convert(sec, key, sec[key], cast)
    elif default is REQUIRED:
        raise ConfigError(f"[{sec.name}] missing required key {key!r}")
    else:
        val = default
    return val if val is None or scale == 1.0 else val * scale


def values(sec, key: str, cast=float, default=REQUIRED) -> tuple:
    """A non-empty whitespace- or comma-separated list entry, each item as
    ``cast``."""
    if key not in sec and default is not REQUIRED:
        return default
    tokens = value(sec, key, cast=str).replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"[{sec.name}] {key} is an empty list")
    return tuple(convert(sec, key, tok, cast) for tok in tokens)


def _named(sec, builtin, load, inline: tuple[str, ...]):
    """The ``name`` entry of ``sec`` from the ``builtin()`` catalog plus the
    optional ``catalog`` file (read with ``load``), or None for an inline
    definition by the ``inline`` keys. A section that mixes the two raises
    ``ConfigError`` naming the entries one of them would drop."""
    if "name" not in sec:
        check("catalog" not in sec, "[{}] catalog is read only with a name: "
              "set name, or drop catalog for the inline definition",
              sec.name, error=ConfigError)
        return None
    dropped = ", ".join(key for key in inline if key in sec)
    check(not dropped, "[{}] takes a name or an inline definition, not both: "
          "name = {} would drop {}", sec.name, sec["name"], dropped,
          error=ConfigError)
    catalog = builtin()
    if "catalog" in sec:
        catalog = {**catalog, **load(sec["catalog"])}
    name = sec["name"]
    if name not in catalog:
        raise ConfigError(f"[{sec.name}] unknown {sec.name} {name!r}")
    return catalog[name]


def fluid(cp: configparser.ConfigParser) -> pr.FluidProps:
    """[fluid]: a ``name`` from the built-in or ``catalog`` CSV, or inline."""
    sec = section(cp, "fluid")
    named = _named(sec, pr.builtin_fluids, pr.load_fluids, (
        "label", "density_kg_m3", "viscosity_kg_ms", "cp_J_kgK", "k_W_mK",
        "ref_temp_C"))
    if named is not None:
        return named
    return pr.FluidProps(
        name=sec.get("label", "custom"),
        density=value(sec, "density_kg_m3"),
        viscosity=value(sec, "viscosity_kg_ms"),
        specific_heat=value(sec, "cp_J_kgK"),
        conductivity=value(sec, "k_W_mK"),
        reference_temp=value(sec, "ref_temp_C", 20.0))


def solid(cp: configparser.ConfigParser) -> pr.SolidProps:
    """[solid]: as [fluid], with an inline ``k_W_mK``; silicon without it."""
    if not cp.has_section("solid"):
        return pr.silicon()
    sec = cp["solid"]
    named = _named(sec, pr.builtin_solids, pr.load_solids, ("k_W_mK",))
    return named if named is not None else pr.SolidProps(
        "custom", value(sec, "k_W_mK"))
