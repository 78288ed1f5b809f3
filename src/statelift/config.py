"""Central numerical tolerances.

Every comparison threshold of the package is decided here, as a field of the
frozen ``tolerances`` or as a module constant; the search settings of the
positivity witness family are the constants of ``liftings``.  Only the
analyzer's residual threshold is chosen per call, and ``STATELIFT_TOL``
overrides its default.  Values target dense complex matrices of composite
dimension <= 64.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ConstraintViolation


@dataclass(frozen=True)
class Tolerances:
    # max entry of |A - A^dagger| for Hermiticity tests, and the largest
    # ||F(g) - F(g)^dagger||_F over the basis images that the analyzer accepts
    hermitian: float = 1e-9
    psd: float = 1e-9         # eigenvalue floor: PSD means lambda_min >= -psd
    trace: float = 1e-10      # trace-constraint and partial-trace deviations
    residual: float = 1e-8    # analyzer threshold separating product from inconclusive
    rank: float = 1e-12       # relative eigenvalue cutoff for numerical rank


tolerances = Tolerances()
UNIT_TRACE_TOL = 1e-9     # |tr(W) - 1| allowed for a density operator
KRAUS_TOL = 1e-9          # |sum K^dagger K - Id|_F allowed for a Kraus family
MARGINAL_TOL = 1e-12      # max entry of |marginal - Dirac| allowed for a lift-table row
PRODUCT_RANK_TOL = 1e-10  # relative singular-value cutoff for the rank of a measure
DIAG_MIXING_TOL = 1e-12   # slack in a = c <= b of the diagonal-mixing criterion
PERTURBATION_FLOOR = 1e-9  # Frobenius norm at or below which a perturbation draw is rejected


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
