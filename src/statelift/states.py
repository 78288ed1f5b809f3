"""Density operators, the rank-one Hermitian basis family, and purification.

Indices are 0-based everywhere.  The family ``basis_g(k, l, d)`` (k <= l)
together with ``basis_g_star(k, l, d)`` (k < l) consists of d^2 rank-one
positive matrices spanning the real vector space of d x d Hermitian matrices.
"""

from __future__ import annotations

import numpy as np

from .config import UNIT_TRACE_TOL, tolerances
from .errors import ConstraintViolation, DimensionMismatch
from .linalg import _checked_hermitian, _spectral, as_matrix
from .rng import philox_rng


def basis_g(k: int, l: int, d: int) -> np.ndarray:
    """Rank-one positive basis matrix with unit entries at (k,k),(k,l),(l,k),(l,l).

    Equals (e_k + e_l)(e_k + e_l)^dagger for k < l and the diagonal unit
    e_k e_k^dagger for k == l.
    """
    if not 0 <= k <= l < d:
        raise DimensionMismatch(f"need 0 <= k <= l < d, got k={k}, l={l}, d={d}")
    g = np.zeros((d, d), dtype=np.complex128)
    g[np.ix_((k, l), (k, l))] = 1.0
    return g


def basis_g_star(k: int, l: int, d: int) -> np.ndarray:
    """Rank-one positive basis matrix (e_k - i e_l)(e_k - i e_l)^dagger.

    Entries: 1 at (k,k) and (l,l), +i at (k,l), -i at (l,k).
    """
    if not 0 <= k < l < d:
        raise DimensionMismatch(f"need 0 <= k < l < d, got k={k}, l={l}, d={d}")
    g = np.zeros((d, d), dtype=np.complex128)
    g[(k, l, k, l), (k, l, l, k)] = 1.0, 1.0, 1.0j, -1.0j
    return g


def hermitian_basis(d: int) -> list:
    """All d^2 family members in canonical order: g's (k<=l), then stars (k<l)."""
    out = [basis_g(k, l, d) for k in range(d) for l in range(k, d)]
    out += [basis_g_star(k, l, d) for k in range(d) for l in range(k + 1, d)]
    return out


def pure_projector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    return np.outer(v, v.conj())


def _dimension(d: int) -> int:
    """d, checked to be a positive dimension before anything is drawn."""
    if d < 1:
        raise DimensionMismatch(f"dimension must be positive, got {d}")
    return d


def random_hermitian(d: int, seed) -> np.ndarray:
    d = _dimension(d)
    rng = philox_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def random_density(d: int, rank: int | None = None, seed=0) -> np.ndarray:
    """Random density matrix M M^dagger / tr with a seeded d x rank Gaussian factor.

    Full rank by default; deterministic in the seed.
    """
    d = _dimension(d)
    if rank is None:
        rank = d
    if not 1 <= rank <= d:
        raise DimensionMismatch(f"rank must be in [1, {d}], got {rank}")
    rng = philox_rng(seed)
    m = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    w = m @ m.conj().T
    return w / np.trace(w).real


def _density(w: np.ndarray, vectors: bool) -> tuple:
    """(as_matrix(w), spectral(Herm w) if vectors else None) once w is Hermitian, lambda_min >= -psd
    and |tr w - 1| <= UNIT_TRACE_TOL, in that order; lambda_min is read from the one solve."""
    w = as_matrix(w)
    h = _checked_hermitian(w, "state")
    dec = _spectral(h) if vectors else None
    lam_min = float(dec.eigenvalues[-1] if vectors else np.linalg.eigvalsh(h)[0])
    if lam_min < -tolerances.psd:
        raise ConstraintViolation(f"state is not positive (lambda_min {lam_min:.3e})")
    tr = complex(np.trace(w))
    if abs(tr - 1.0) > UNIT_TRACE_TOL:
        raise ConstraintViolation(f"state trace {tr} is not 1")
    return w, dec


def validate_density(w: np.ndarray) -> np.ndarray:
    """Check Hermiticity, positivity and unit trace; return the input."""
    return _density(w, False)[0]


def purify(s: np.ndarray, de: int) -> np.ndarray:
    """Unit vector a in the composite space with tr_env(a a^dagger) = s.

    a = sum_i sqrt(lambda_i) u_i (x) f_i over the spectral pairs of s, with
    f_i the canonical environment basis in eigenvalue-descending order; needs
    de >= rank(s), the count of eigenvalues above ``tolerances.rank`` times the largest |lambda|.
    """
    s, dec = _density(s, True)
    ds = s.shape[0]
    rank = int(np.sum(dec.eigenvalues > tolerances.rank * np.max(np.abs(dec.eigenvalues))))
    if de < rank:
        raise ConstraintViolation(
            f"environment dimension {de} is smaller than the state rank {rank}"
        )
    # column i of the (ds, de) split; adding into zeros leaves no -0.0
    a = np.zeros((ds, de), dtype=np.complex128)
    a[:, :rank] += np.sqrt(np.maximum(dec.eigenvalues[:rank], 0.0)) * dec.vectors[:, :rank]
    a = a.reshape(-1)
    return a / np.linalg.norm(a)


def environment_gram(a: np.ndarray, ds: int, de: int) -> np.ndarray:
    """Gram matrix of the environment row blocks of a composite vector.

    Row k of the (ds x de) reshape of ``a`` is the environment vector attached
    to the k-th system basis point.  The Gram form is taken linear in the
    FIRST argument (entry (k, l) = sum_e A[k,e] conj(A[l,e])), the convention
    under which it coincides with the environment partial trace of the
    projector onto ``a``.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.size != ds * de:
        raise DimensionMismatch(f"vector of length {a.size} is not {ds}x{de}")
    blocks = a.reshape(ds, de)
    return blocks @ blocks.conj().T
