"""Exception hierarchy shared by all jetcool modules, and the input check
that raises its errors for floats and arrays alike."""

import numpy as np


class JetcoolError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(JetcoolError, ValueError):
    """A numeric argument is out of its admissible domain (non-finite,
    non-positive where positivity is required, ...)."""


class ConfigError(InvalidInputError):
    """A config or input file is unreadable, or lacks or mangles an entry."""


class InvalidGeometryError(InvalidInputError):
    """A geometric description is inconsistent (ratio >= 1, zero diameter...)."""


class InfeasibleError(JetcoolError):
    """A constraint target cannot be met anywhere in the searched range; the
    base of every error the CLI reports with exit code 3."""


class NoFlowError(InfeasibleError):
    """An evaluation was requested at zero flow."""


class SolverError(JetcoolError):
    """A linear system or root-finding problem could not be solved."""


class NonPhysicalReductionError(InfeasibleError):
    """Data reduction produced a non-physical state (surface colder than inlet)."""


class NonMonotoneConvergenceError(InfeasibleError):
    """Grid-level solutions do not converge monotonically; the standard
    convergence-index analysis does not apply."""


class NonMeaningfulResistanceError(InfeasibleError):
    """Thermal-resistance matrix entries requested for a measurement with more
    than one active heat source."""


class UnderdeterminedFitError(InvalidInputError):
    """Too few distinct samples to fit the requested model."""


def check(ok, message: str, *values,
          error: type = InvalidInputError) -> None:
    """Raise ``error(message.format(*values))`` unless the bool or boolean
    array ``ok`` holds; array values are reported where ``ok`` first fails.
    """
    if ok is True or (ok is not False and ok.all()):
        return
    if np.ndim(ok):
        first = int(np.argmin(ok))
        values = [np.broadcast_to(v, np.shape(ok)).flat[first].item()
                  for v in values]
    raise error(message.format(*values))
