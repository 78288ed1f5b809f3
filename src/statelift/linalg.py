"""Dense complex linear algebra on composite systems.

Conventions used throughout the package:

* Operators are square complex numpy arrays; entry ``A[r, c]`` is the matrix
  element between the r-th and c-th canonical basis vectors.
* Composite indices are system-major: the pair (s, e) with s on the system
  factor (dimension ``ds``) and e on the environment factor (dimension ``de``)
  maps to the flat index ``s * de + e``.  ``numpy.kron(A, B)`` with A on the
  system side matches this ordering.
* Vectorization is column-stacking: ``vec(X)[c * d + r] = X[r, c]``.

All functions are pure; none mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .errors import ConstraintViolation, DimensionMismatch


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ConstraintViolation("matrix has non-finite entries")
    return m


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(x).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec` for a dim x dim matrix."""
    v = np.asarray(v)
    if v.size != dim * dim:
        raise DimensionMismatch(f"vector of length {v.size} is not {dim}x{dim}")
    return v.reshape((dim, dim), order="F")


def _map_shape(n: int, d: int, kind: str) -> tuple:
    """(n**2, d**2) for a map from d x d to n x n operators; a shape alone passes n or d = -1."""
    if min(n, d) < 1:
        raise DimensionMismatch(f"{kind} dimensions must be positive, got {d} -> {n}")
    return n * n, d * d


def map_matrix(m, n: int, d: int, kind: str) -> np.ndarray:
    """A stored map's matrix, d x d to n x n operators on vecs, C-contiguous complex128 (a copy
    only when it is not)."""
    shape = _map_shape(n, d, kind)
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.shape != shape:
        raise DimensionMismatch(f"{kind} matrix shape {m.shape}, expected {shape}")
    return m


def apply_map(m: np.ndarray, x, kind: str, what: str) -> np.ndarray:
    """unvec(m @ vec(x)) for a stored map's matrix m of shape (n**2, d**2) and a d x d operand x."""
    x = np.asarray(x, dtype=np.complex128)
    d = math.isqrt(m.shape[1])
    if x.shape != (d, d):
        raise DimensionMismatch(f"{what} shape {x.shape}, {kind} expects ({d}, {d})")
    return unvec(m @ vec(x), math.isqrt(m.shape[0]))


def _split_composite(w: np.ndarray, ds: int, de: int) -> np.ndarray:
    w = np.asarray(w)
    if w.shape != (ds * de, ds * de):
        raise DimensionMismatch(
            f"matrix of shape {w.shape} does not factor as ({ds}*{de}) x ({ds}*{de})"
        )
    return w.reshape(ds, de, ds, de)


def partial_trace_env(w: np.ndarray, ds: int, de: int) -> np.ndarray:
    """Trace out the environment factor: out[k, l] = sum_i W[k*de+i, l*de+i]."""
    return np.einsum("aibi->ab", _split_composite(w, ds, de))


def partial_trace_sys(w: np.ndarray, ds: int, de: int) -> np.ndarray:
    """Trace out the system factor: out[i, j] = sum_k W[k*de+i, k*de+j]."""
    return np.einsum("aiaj->ij", _split_composite(w, ds, de))


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation from self-adjointness."""
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().T), initial=0.0))


def is_hermitian(a: np.ndarray) -> bool:
    return hermiticity_defect(a) <= tolerances.hermitian


def hermitian_part(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    return (a + a.conj().T) / 2


@dataclass(frozen=True, eq=False)
class PsdCheck:
    """Outcome of a positivity test, with the minimal-eigenvalue witness."""

    ok: bool
    min_eigenvalue: float
    witness: np.ndarray  # unit eigenvector attaining the minimal eigenvalue

    def __bool__(self) -> bool:
        return self.ok


def is_psd(a: np.ndarray) -> PsdCheck:
    """Test membership in the positive cone: lambda_min(A) >= -tolerances.psd.

    Raises ConstraintViolation for inputs that are not Hermitian within the
    configured Hermiticity tolerance.
    """
    a = as_matrix(a)
    if not is_hermitian(a):
        raise ConstraintViolation(
            f"positivity is only defined for Hermitian operators "
            f"(defect {hermiticity_defect(a):.3e})"
        )
    vals, vecs = np.linalg.eigh(hermitian_part(a))
    lam = float(vals[0])
    return PsdCheck(lam >= -tolerances.psd, lam, vecs[:, 0])


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) and phase-fixed orthonormal eigenvectors.

    ``vectors[:, i]`` belongs to ``eigenvalues[i]``.  The phase of each
    eigenvector is fixed so its largest-modulus component is real positive
    (first such component on ties); equal eigenvalues keep the eigensolver's
    relative order.  This makes the decomposition deterministic, which golden
    tests rely on.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


def spectral(a: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix with fixed conventions."""
    a = as_matrix(a)
    if not is_hermitian(a):
        raise ConstraintViolation(
            f"spectral() requires a Hermitian input (defect {hermiticity_defect(a):.3e})"
        )
    vals, vecs = np.linalg.eigh(hermitian_part(a))
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for i in range(vecs.shape[1]):
        j = int(np.argmax(np.abs(vecs[:, i])))
        pivot = vecs[j, i]
        mag = abs(pivot)
        if mag > 0.0:
            vecs[:, i] *= pivot.conjugate() / mag
    return SpectralDecomposition(vals, vecs)


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input this is sum |lambda_i|."""
    return float(np.sum(np.linalg.svd(as_matrix(a), compute_uv=False)))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """||stack[n]||_F for every n, with the bits of ``np.linalg.norm(stack[n])``: the same BLAS
    dots over the real and imaginary parts of the item in its memory order (ravel order 'K'),
    taken once per item by a (n, 1, size) @ (n, size, 1) matmul of the contiguous items."""
    axes = sorted(range(1, stack.ndim), key=lambda i: -abs(stack.strides[i]))
    size = int(np.prod(stack.shape[1:]))
    flat = np.ascontiguousarray(stack.transpose(0, *axes)).reshape(len(stack), 1, size)
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    return np.sqrt(sum(p @ p.transpose(0, 2, 1) for p in parts)).reshape(-1)


def frobenius(a: np.ndarray) -> float:
    return float(frobenius_norms(np.asarray(a)[None])[0])


def pairing(a: np.ndarray, w: np.ndarray) -> complex:
    """The duality pairing (A, W) -> tr(AW); bilinear, no conjugation."""
    a = np.asarray(a)
    w = np.asarray(w)
    if a.shape != w.shape:
        raise DimensionMismatch(f"pairing of shapes {a.shape} and {w.shape}")
    return complex(np.trace(a @ w))
