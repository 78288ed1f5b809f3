"""Reduction of observables: the adjoint side of the lifting duality.

The adjoint of a lifting F is the map F* on observables defined by
tr(A . F(rho)) = tr(F*(A) . rho) for all A and rho.  Under column-stacking
vectorization this is the reshuffling identity of the natural
representation: reverse the four operator indices of the split matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, DimensionMismatch
from .linalg import apply_map, frobenius_norms, map_matrix
from .liftings import Lifting, basis_images
from .states import validate_density


@dataclass(frozen=True, eq=False)
class ReductionMap:
    """A linear map L(H_S (x) H_E) -> L(H_S) on vectorized operators."""

    ds: int
    de: int
    matrix: np.ndarray  # shape (ds**2, (ds*de)**2)

    def __post_init__(self):
        dim = self.ds * self.de
        object.__setattr__(self, "matrix", map_matrix(self.matrix, self.ds, dim, "reduction"))


def adjoint_lifting(f: Lifting) -> ReductionMap:
    """Adjoint of a lifting under the bilinear pairing tr(AW).

    Entry [C, R, c, r] of the split matrix is F(E_rc)[R, C] = tr(E_CR F(E_rc)),
    which is F*(E_CR)[c, r], entry [r, c, R, C] of the split adjoint.
    """
    ds, dim = f.ds, f.ds * f.de
    return ReductionMap(ds, f.de, f.matrix.reshape(dim, dim, ds, ds).T.reshape(ds * ds, -1))


def apply_reduction(r: ReductionMap, a: np.ndarray) -> np.ndarray:
    return apply_map(r.matrix, a, "reduction", "observable")


def check_unit_reduction(r: ReductionMap) -> float:
    """Max deviation of R(B (x) Id) from B over the Hermitian basis.

    Vanishes exactly when the pre-adjoint lifting satisfies the partial-trace
    constraint.  B -> R(B (x) Id) is the matrix U read off the environment
    diagonal of the split, and U - Id acts on the basis as a lifting, de = 1.
    """
    ds = r.ds
    u = np.einsum("obiai->oba", r.matrix.reshape(ds * ds, ds, r.de, ds, r.de))
    u = u.reshape(ds * ds, ds * ds)
    u[np.diag_indices(ds * ds)] -= 1.0
    return float(np.max(frobenius_norms(basis_images(Lifting(ds, 1, u)))))


def reduce_observable(a: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Reduce a composite observable: A -> tr_env(A (Id (x) reference)).

    This is the adjoint of the product lifting with the given reference state:
    it is linear, maps Hermitian to Hermitian, and acts unitally on B (x) Id.
    """
    d = validate_density(reference)
    de = d.shape[0]
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % de != 0:
        raise DimensionMismatch(
            f"observable shape {a.shape} does not factor over an environment of dim {de}"
        )
    ds = a.shape[0] // de
    if ds < 1:
        raise ConstraintViolation("observable smaller than the environment")
    return np.einsum("aibj,ji->ab", a.reshape(ds, de, ds, de), d)
