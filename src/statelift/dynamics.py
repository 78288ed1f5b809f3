"""Composite-system unitary evolution and the induced reduced dynamics.

The reduced channel rho -> tr_env(U(t) (rho (x) D) U(t)^dagger) is linear in
rho because rho (x) D is the product lifting, the only affine right inverse of
the partial trace; U and D fix it, and it is contracted on the split of U.  The
channel of any other lifting is assembled from its matrix by index maps: one
batched product with U and one einsum for U^dagger and the partial trace.  No
semigroup property is claimed: reduced dynamics is non-Markovian in general.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import tolerances
from .errors import ConstraintViolation, DimensionMismatch
# perfbench/selftest.py pins the apply_lifting alias
from .liftings import _images, _trace_screens, apply_lifting
from .linalg import _checked_hermitian, _spectral, apply_map, as_matrix, hermitian_part, map_matrix
from .states import _density


@dataclass(frozen=True, eq=False)
class ReducedChannel:
    """A linear map on system operators, stored on vectorized operators."""

    ds: int
    matrix: np.ndarray  # shape (ds**2, ds**2)
    # [a, i, c, j] = K_ij[a, c]: reduced_dynamics_map's Kraus stack, set when de < ds
    kraus: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", map_matrix(self.matrix, self.ds, self.ds, "channel"))


@dataclass(frozen=True, eq=False)
class CptpCheck:
    """Outcome of :func:`is_cptp`, with the minimal Choi eigenvalue as its margin."""

    ok: bool
    choi_min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.ok


def unitary_from_hamiltonian(h: np.ndarray, t: float) -> np.ndarray:
    """U(t) = exp(-i t H) (hbar = 1) via the spectral decomposition of the Hamiltonian."""
    if not np.isfinite(t):
        raise ConstraintViolation(f"t must be finite, got {t}")
    dec = _spectral(_checked_hermitian(as_matrix(h), "Hamiltonian"))
    phases = np.exp(-1j * t * dec.eigenvalues)
    return (dec.vectors * phases) @ dec.vectors.conj().T


def reduced_dynamics_map(h: np.ndarray, reference: np.ndarray, t: float) -> ReducedChannel:
    """The channel rho -> tr_env(U(t) (rho (x) reference) U(t)^dagger).

    Entry [b, a, c, r] of the split channel, Lambda(E_rc)[a, b], is sum_ij
    (U (Id (x) D))[a, i, r, j] conj(U[b, i, c, j]), batched over (b, a)."""
    u = unitary_from_hamiltonian(h, t)
    de = np.shape(reference)[0] if np.ndim(reference) else 0
    if de == 0 or len(u) % de != 0:
        raise DimensionMismatch(
            f"Hamiltonian dim {len(u)} does not factor over environment dim {de}"
        )
    ds = len(u) // de
    d, dec = _density(reference, de < ds)
    u = u.reshape(ds, de, ds, de)
    w = (u @ d).transpose(0, 1, 3, 2)  # [a, i, j, r]
    uc = u.conj().transpose(0, 2, 1, 3)  # [b, c, i, j]
    out = np.matmul(uc.reshape(ds, 1, ds, de * de), w.reshape(1, ds, de * de, ds))
    lam = ReducedChannel(ds, out.reshape(ds * ds, ds * ds))
    if de < ds:  # K_ij = sqrt(d_j) (Id (x) <i|) U (Id (x) |v_j>) for D = sum_j d_j v_j v_j^dagger
        roots = np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
        object.__setattr__(lam, "kraus", u @ (dec.vectors * roots))
    return lam


def reduced_dynamics_from_lifting(h: np.ndarray, lifting, t: float) -> ReducedChannel:
    """Reduced dynamics through an explicit lifting instead of a reference state.

    Only right inverses of the partial trace give the correct initial
    condition; anything else (e.g. a generic Kraus lifting) is rejected.
    Split as [C, R, n], the lifting matrix holds F(E_rc)[R, C] for
    n = c*ds + r; y[C, a*de + i, n] = (U F(E_rc))[a*de + i, C] and column n
    of the channel is vec tr_env(U F(E_rc) U^dagger).
    """
    h = np.asarray(h, dtype=np.complex128)
    ds, de = lifting.ds, lifting.de
    if h.shape != (ds * de, ds * de):
        raise DimensionMismatch(
            f"Hamiltonian shape {h.shape} does not match the lifting ({ds}*{de})"
        )
    (trace,), _ = _trace_screens(ds, de, _images(ds, de, lifting.matrix[None]))
    if trace is not None and trace[0] > tolerances.trace:
        raise ConstraintViolation(
            f"lifting is not a right inverse of the partial trace (deviation {trace[0]:.3e})"
        )
    u = unitary_from_hamiltonian(h, t)
    y = (u @ lifting.matrix.reshape(ds * de, ds * de, ds * ds)).reshape(ds * de, ds, de, ds * ds)
    out = np.einsum("cain,bic->ban", y, u.conj().reshape(ds, de, ds * de), optimize=True)
    return ReducedChannel(ds, out.reshape(ds * ds, ds * ds))


def apply_channel(lam: ReducedChannel, rho: np.ndarray) -> np.ndarray:
    return apply_map(lam.matrix, rho, "channel", "state")


def choi_matrix(lam: ReducedChannel) -> np.ndarray:
    """(Lambda (x) id) applied to the unnormalized maximally entangled projector.

    Output factor first: Choi = sum_ij Lambda(E_ij) (x) E_ij, so entry [b, a, j, i]
    of the split channel matrix, Lambda(E_ij)[a, b], moves to [a, i, b, j].
    """
    d = lam.ds
    return lam.matrix.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def is_cptp(lam: ReducedChannel) -> CptpCheck:
    """Complete positivity (Choi PSD) plus trace preservation (tr_out Choi = Id),
    both within ``tolerances.psd``; truthy when both hold, and keeps the
    minimal Choi eigenvalue.  With a Kraus stack, Choi = sum vec(K) vec(K)^dagger
    has rank at most de^2 < ds^2, so its minimum is min(0, lambda_min) of the
    de^2 x de^2 Gram of the vec(K) (Choi, Linear Algebra Appl. 10, 285 (1975))."""
    tol = tolerances.psd
    if lam.kraus is None:
        lam_min = float(np.linalg.eigvalsh(hermitian_part(choi_matrix(lam)))[0])
    else:
        k = lam.kraus.transpose(0, 2, 1, 3).reshape(lam.ds**2, -1)
        lam_min = min(float(np.linalg.eigvalsh(k.conj().T @ k)[0]), 0.0)
    if lam_min < -tol:
        return CptpCheck(False, lam_min)
    reduced = _output_trace(lam)
    return CptpCheck(float(np.max(np.abs(reduced - np.eye(lam.ds)))) <= tol, lam_min)


def _output_trace(lam: ReducedChannel) -> np.ndarray:
    """tr_out Choi without the Choi matrix: [i, j] is tr Lambda(E_ij), the trace of the split
    channel matrix [b, a, j, i] over (b, a)."""
    return np.trace(lam.matrix.reshape((lam.ds,) * 4), axis1=0, axis2=1).T
