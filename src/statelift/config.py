"""Central numerical tolerances.

Adjustable comparison thresholds live in one mutable object so they can be
changed globally; fixed ones are module constants.  Defaults target dense
complex matrices of composite dimension <= 64.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ConstraintViolation


@dataclass
class Tolerances:
    hermitian: float = 1e-9   # max entry of |A - A^dagger| for Hermiticity tests
    psd: float = 1e-9         # eigenvalue floor: PSD means lambda_min >= -psd
    trace: float = 1e-10      # trace-constraint and partial-trace deviations
    residual: float = 1e-8    # analyzer threshold separating product from inconclusive
    rank: float = 1e-12       # relative eigenvalue cutoff for numerical rank


tolerances = Tolerances()
UNIT_TRACE_TOL = 1e-9  # |tr(W) - 1| allowed for a density operator
KRAUS_TOL = 1e-9       # |sum K^dagger K - Id|_F allowed for a Kraus family


def default_residual_tol() -> float:
    """Analyzer residual threshold, honouring the STATELIFT_TOL override."""
    env = os.environ.get("STATELIFT_TOL")
    if env is None:
        return tolerances.residual
    try:
        tol = float(env)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise ConstraintViolation(f"STATELIFT_TOL must be finite and nonnegative, got {env!r}")
    return tol
