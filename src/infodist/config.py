"""Layered numeric tolerances and enumeration budgets.

The tolerances are deliberately tiered so that validation noise never
masquerades as mathematical signal:

- ``ZERO_TOL``  entrywise zero / negative-mass threshold,
- ``NORM_TOL``  normalization of probability tensors and stochastic rows,
- ``LP_TOL``    primal/dual feasibility and duality-gap residuals,
- ``VALUE_TOL`` equality of game values (duality, guarantees, symmetry),
- ``DIST_TOL``  equality of distances (triangle inequality, prop bounds),
- ``WITNESS_TOL`` acceptance gate for the witness-game recheck (the
  witness is the primal of the game-space gap LP).
"""

import os

ZERO_TOL = 1e-12
NORM_TOL = 1e-9
LP_TOL = 1e-8
VALUE_TOL = 1e-7
DIST_TOL = 1e-6
WITNESS_TOL = 1e-5

_DEFAULT_BUDGET = 1_000_000

BUDGET_ENV_VAR = "INFODIST_BUDGET"


def default_budget() -> int:
    """Enumeration budget: ``INFODIST_BUDGET`` env var, else 10**6."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def resolve_budget(budget: int | None) -> int:
    """Explicit argument wins; None falls back to :func:`default_budget`."""
    if budget is None:
        return default_budget()
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    return budget
