"""Layered numeric tolerances and enumeration budgets.

The tolerances are deliberately tiered so that validation noise never
masquerades as mathematical signal:

- ``ZERO_TOL``  entrywise zero / negative-mass threshold,
- ``NORM_TOL``  normalization of probability tensors and stochastic rows,
- ``LP_TOL``    primal/dual feasibility and duality-gap residuals,
- ``VALUE_TOL`` equality of game values (duality, guarantees, symmetry),
- ``DIST_TOL``  equality of distances (triangle inequality, prop bounds),
- ``WITNESS_TOL`` acceptance gate for the witness game's exact bracket:
  the LP gap must lie within it of both the identity strategies' lower
  bound and the garblings' upper bound.
"""

import os

import numpy as np

from .errors import InvalidParameters

ZERO_TOL = 1e-12
NORM_TOL = 1e-9
LP_TOL = 1e-8
VALUE_TOL = 1e-7
DIST_TOL = 1e-6
WITNESS_TOL = 1e-5

_DEFAULT_BUDGET = 1_000_000

BUDGET_ENV_VAR = "INFODIST_BUDGET"


def default_budget() -> int:
    """Enumeration budget: ``INFODIST_BUDGET`` env var, else 10**6.

    Raises ``InvalidParameters`` when the variable is not a positive integer.
    """
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidParameters(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise InvalidParameters(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def resolve_budget(budget: int | None) -> int:
    """Explicit argument wins; None falls back to :func:`default_budget`.

    The budget must be an ``int`` or a numpy integer of at least 1, else
    ``InvalidParameters`` is raised.
    """
    if budget is None:
        return default_budget()
    if not isinstance(budget, (int, np.integer)):
        raise InvalidParameters(f"budget must be an integer, got {budget!r}")
    if budget < 1:
        raise InvalidParameters(f"budget must be positive, got {budget}")
    return int(budget)


def check_integer(value, name: str, low: int) -> int:
    """``value`` as an ``int``: it must be an ``int`` or a numpy integer of
    at least ``low``, else ``InvalidParameters`` names it."""
    if not (isinstance(value, (int, np.integer)) and value >= low):
        raise InvalidParameters(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)
