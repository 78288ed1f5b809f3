"""Linear liftings of system states into a composite system, and their analysis.

A lifting is a linear map from d_S x d_S operators to (d_S d_E) x (d_S d_E)
operators, stored as a dense matrix acting on column-stacked vectorizations.
The analyzer decides whether a candidate lifting is (numerically) of the
product form rho -> rho (x) D: it checks Hermiticity preservation and the
partial-trace constraint, searches the pair spans span{e_k, e_l} for a state
whose image has a negative eigenvalue, extracts the would-be reference state
from the (0, 0) block of the image of the corner basis element, and measures
the residual against the exact product map.

The paper's theorem, applied to each pair span, makes a right inverse of the
partial trace that is positive on every pair span the product map, so a
non-product one loses positivity on some pair span.  The witness family is
the rank-one Hermitian basis (``basis_g``, ``basis_g_star``) and one seed per
pair, read from the lowest eigenvector of the pair's Choi block.  The search
evaluates g_00 from image 0, lets the product bound settle a lifting within
rounding of a product, then certifies each pair's Choi block once and walks
what is left, reading only basis images.  The no-go sweep builds its trials as
stacks of basis images and screens them there, with no lifting matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .config import DIAG_MIXING_TOL, KRAUS_TOL, PERTURBATION_FLOOR, tolerances
from .errors import ConstraintViolation, DimensionMismatch
from .linalg import _map_shape, apply_map, frobenius, frobenius_norms, map_matrix, unvec
from .rng import philox_rng, spawn_seeds
from .states import hermitian_basis, random_density, validate_density


@dataclass(frozen=True, eq=False)
class Lifting:
    """A linear map L1(H_S) -> L1(H_S (x) H_E) on vectorized operators, the real and imaginary
    parts of its entries finite and at most A = sqrt(max float) / (16 ds de), so that no norm the
    analyzer takes overflows.  The analyzer reads only basis images, and what follows holds for
    any images with parts <= 4A, the no-go sweep's bound, which an image of four entries keeps.  A
    Hermiticity defect, block mismatch or product residual has parts <= 8A, a partial-trace
    residual <= 8 de A, and a squared norm adds at most 2 (ds de)^2 such squares: max / 2.
    F(E_rc) = (U +- iV)/2 from four images, and so a pair's Choi block, has parts <= 12A, normed
    at half scale: 6A.  A state's image sums four images with weights of moduli summing to < 4:
    parts < 16A.  The rest goes to LAPACK, which scales its input, or is linear in the entries."""

    ds: int
    de: int
    matrix: np.ndarray  # shape ((ds*de)**2, ds**2)

    def __post_init__(self):
        dim = self.ds * self.de
        object.__setattr__(self, "matrix", map_matrix(self.matrix, dim, self.ds, "lifting"))
        _check_parts(self.matrix, dim, 1)


def _check_parts(a: np.ndarray, dim: int, terms: int) -> None:
    """Reject a lifting matrix (terms 1) or basis images (4) with a part not finite or above terms A:
    an image exceeds 4A only where the matrix it sums exceeds A."""
    flat, bound = a.view(np.float64), np.sqrt(np.finfo(float).max) / (16 * dim)
    low, high = float(flat.min()), float(flat.max())  # a NaN reads as both
    if not (-terms * bound <= low and high <= terms * bound):  # NaN and inf fail too
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ConstraintViolation("lifting matrix has non-finite entries")
        raise ConstraintViolation(f"lifting matrix has a real or imaginary part above "
                                  f"sqrt(max float) / (16 ds de) = {bound:.6e}")


def product_lifting(reference: np.ndarray, ds: int) -> Lifting:
    """The lifting rho -> rho (x) reference.

    Column c*ds + r is vec(E_rc (x) D): D^T at index [c, :, r, :] of the
    (ds, de, ds, de) row split, set by one broadcast assignment in
    O((ds*de)^2 * ds^2)."""
    d = validate_density(reference)
    de = d.shape[0]
    _map_shape(ds * de, ds, "lifting")
    m = np.zeros((ds, de, ds, de, ds, ds), dtype=np.complex128)
    c, r = np.ogrid[:ds, :ds]
    m[c, :, r, :, c, r] = d.T
    return Lifting(ds, de, m.reshape((ds * de) ** 2, ds * ds))


def kraus_lifting(ks, reference: np.ndarray, ds: int) -> Lifting:
    """The lifting rho -> sum_n K_n (rho (x) reference) K_n^dagger.

    The family must satisfy sum_n K_n^dagger K_n = Id on the composite space;
    otherwise the construction is rejected with the deviation norm.

    With columns split as (ds, de), F(E_rc)[x, y] = sum_nj (K_n D)[x, (r, j)]
    conj(K_n)[y, (c, j)]: one small GEMM per (y, x), written in place.
    """
    d = validate_density(reference)
    de = d.shape[0]
    dim = ds * de
    _map_shape(dim, ds, "lifting")
    ks = [np.asarray(k, dtype=np.complex128) for k in ks]
    for k in ks:
        if k.shape != (dim, dim):
            raise DimensionMismatch(f"Kraus operator shape {k.shape}, expected ({dim}, {dim})")
    total = sum(k.conj().T @ k for k in ks)
    deviation = frobenius(total - np.eye(dim))
    if deviation > KRAUS_TOL:
        raise ConstraintViolation(
            f"Kraus family is not normalized: |sum K^dagger K - Id|_F = {deviation:.3e}"
        )
    k = np.stack(ks).reshape(len(ks), dim, ds, de)
    left = np.conj(k).transpose(1, 2, 0, 3).reshape(dim, ds, -1)  # [y, c, (n, j)]
    right = (k @ d).transpose(1, 0, 3, 2).reshape(dim, -1, ds)  # [x, (n, j), r]
    m = np.matmul(left[:, None], right[None])
    return Lifting(ds, de, m.reshape(dim * dim, ds * ds))


def apply_lifting(f: Lifting, x: np.ndarray) -> np.ndarray:
    """Image of a system operator under the lifting."""
    return apply_map(f.matrix, x, "lifting", "operator")


class _Basis(NamedTuple):
    """The canonical Hermitian basis as a stack, with where its members sit, built once per ds
    and read-only: ``diag[k]`` is the position of g_kk; the q-th pair k < l in row-major order
    has k = ``k[q]``, l = ``l[q]`` and g_kk, g_ll, g_kl, g*_kl at ``pairs[q]``.  Member j is
    psi psi^dagger times its trace, psi = ``psi[j]`` on span{e_k, e_l} of pair ``pair[j]`` (-1:
    none)."""

    members: np.ndarray
    diag: np.ndarray
    k: np.ndarray
    l: np.ndarray
    pairs: np.ndarray
    pair: np.ndarray
    psi: np.ndarray


@lru_cache(maxsize=16)
def _triangle(dim: int) -> tuple:
    """The upper triangle's rows and columns, those off the diagonal and their mask; where each
    float of H^T, [c, r] as (real, imaginary), sits in a draw row extended to [g, star, -star, 0],
    g_ab (a <= b) and star_ab (a < b) in triangle order, H holding g_ab at (a, b) and (b, a), and
    i star_ab at (a, b) and its conjugate at (b, a); and sign(c - r).  All read-only."""
    rows, cols = np.triu_indices(dim)
    off, p = rows != cols, dim * (dim - 1) // 2
    real, imag = np.empty((dim, dim), dtype=np.intp), np.full((dim, dim), dim * dim + p)
    real[rows, cols] = real[cols, rows] = np.arange(len(rows))
    imag[cols[off], rows[off]] = len(rows) + np.arange(p)  # c > r: star_rc
    imag[rows[off], cols[off]] = dim * dim + np.arange(p)  # c < r: -star_cr
    maps = (rows, cols, rows[off], cols[off], off, np.stack([real, imag], -1).ravel(),
            np.sign(np.subtract.outer(np.arange(dim), np.arange(dim))))
    for a in maps:
        a.setflags(write=False)
    return maps


@lru_cache(maxsize=16)
def _basis(ds: int) -> _Basis:
    rows, cols, k, l, off, *_ = _triangle(ds)
    members = np.stack(hermitian_basis(ds))
    diag = np.flatnonzero(~off)
    pairs = np.stack([diag[k], diag[l], np.flatnonzero(off), len(rows) + np.arange(len(k))], 1)
    # g_kk is e_k on the first pair that holds k: (0, 1) for k = 0, else (0, k), q = k - 1; g_kl
    # and g*_kl are (e_k + e_l)/sqrt 2 and (e_k - i e_l)/sqrt 2 on their pair; ds = 1 has none
    pair = np.empty(ds * ds, dtype=np.intp)
    pair[diag] = np.maximum(np.arange(ds) - 1, 0) if ds > 1 else -1
    pair[pairs[:, 2]] = pair[pairs[:, 3]] = np.arange(len(k))
    psi = np.zeros((ds * ds, 2), dtype=np.complex128)
    psi[diag, np.minimum(np.arange(ds), 1)] = 1
    psi[pairs[:, 2]] = np.sqrt(0.5)
    psi[pairs[:, 3]] = np.sqrt(0.5) * np.array([1, -1j])
    basis = _Basis(members, diag, k, l, pairs, pair, psi)
    for a in basis:
        a.setflags(write=False)  # shared by every caller
    return basis


def _images(ds: int, de: int, matrices: np.ndarray) -> np.ndarray:
    """:func:`basis_images` of each lifting matrix in a (T, (ds de)^2, ds^2) stack, shape (T, ds^2,
    dim, dim), each image F(g) laid out as a contiguous F(g)^T.  Row k of the pairs, from the last
    row, copies its columns into the member slots they start (E_kk's image into g_kk's, E_kl's,
    k < l, into g_kl's and E_lk's into g*_kl's), then forms its members in place with the sums of
    the per-member formulas g_kl = E_kk + E_ll + E_kl + E_lk and g*_kl = E_kk + E_ll + i E_kl - i E_lk."""
    t, dim, diag = len(matrices), ds * de, _basis(ds).diag
    # units[:, c, r] is column c*ds + r of each matrix: the transposed image of E_rc
    units = matrices.transpose(0, 2, 1).reshape(t, ds, ds, dim * dim)
    out = np.empty((t, ds * ds, dim * dim), dtype=np.complex128)
    first = ds * (ds + 1) // 2 + diag - np.arange(ds)  # where the stars of each row k start
    for k in reversed(range(ds)):  # row k reads the g_ll of the rows after it
        n = ds - 1 - k
        plain, stars = out[:, diag[k] + 1 : diag[k] + 1 + n], out[:, first[k] : first[k] + n]
        out[:, diag[k]] = units[:, k, k]
        plain[...] = units[:, k + 1 :, k]  # E_kl for l > k
        stars[...] = units[:, k, k + 1 :]  # E_lk for l > k
        both = plain + stars  # E_kl + E_lk
        np.subtract(plain, stars, out=stars)
        stars *= 1j
        for l in range(k + 1, ds):  # E_kk + E_ll, one l at a time, so no second row is held
            np.add(out[:, diag[k]], out[:, diag[l]], out=plain[:, l - k - 1])
        stars += plain
        plain += both
        del both  # before the next row's is made
    return out.reshape(t, ds * ds, dim, dim).transpose(0, 1, 3, 2)


def basis_images(f: Lifting) -> np.ndarray:
    """F(g) for every member g of the Hermitian basis, in canonical order.

    This is the product of the lifting matrix with the stacked basis vecs,
    shape (ds^2, dim, dim).  Each basis member is a sum of at most four matrix
    units, so the product is formed from the matrix-unit images (the columns
    of the matrix) in O(dim^2 * ds^2) rather than as a dense GEMM in
    O(dim^2 * ds^4).
    """
    return _images(f.ds, f.de, f.matrix[None])[0]


# The norm passes' chunks hold at most this many bytes of images, so that a chunk and its
# copies stay in a core's L2 cache.
_CHUNK_BYTES = 2**18
# A no-go sweep builds and screens its trials in stacks whose basis images (as many bytes as their
# matrices) hold at most this many bytes: one (8, 4) lifting's, so that a stack and the arrays it is
# built and screened with stay near a core's L2 cache, and (8, 4) and larger trials run alone.
_STACK_BYTES = 2**20


def _chunks(count: int, item_bytes: int, bound: int = _CHUNK_BYTES) -> list:
    """Slices that walk a stack of count items, each at most bound bytes of items (at least one)."""
    step = max(1, bound // max(item_bytes, 1))
    return [slice(a, a + step) for a in range(0, count, step)]


def _hermiticity_deviations(images: np.ndarray) -> np.ndarray:
    """||F(g) - F(g)^dagger||_F for every basis image F(g), a chunk at a time: each difference
    is formed in C order, as w - w.conj().T lays it out, so its norm has the bits of that."""
    out = np.empty(len(images))
    for c in _chunks(len(images), images[0].nbytes):
        d = np.conj(images[c].transpose(0, 2, 1), order="C")
        out[c] = frobenius_norms(np.subtract(images[c], d, out=d))
    return out


def _trace_residuals(ds: int, de: int, images: np.ndarray) -> np.ndarray:
    """tr_env(F(g)) - g for every basis member g of each of T liftings, shape (T, ds^2, ds, ds)."""
    out = np.einsum("naibi->nab", images.reshape(-1, ds, de, ds, de)).reshape(-1, ds * ds, ds, ds)
    out -= _basis(ds).members
    return out


def _worst_trace_deviation(ds: int, reduced: np.ndarray):
    """The largest trace norm among the residuals of :func:`_trace_residuals`, and its g."""
    devs = np.linalg.svd(reduced, compute_uv=False).sum(axis=1)
    worst = int(np.argmax(devs))
    return float(devs[worst]), _basis(ds).members[worst].copy()


def _trace_screens(ds: int, de: int, images: np.ndarray) -> tuple:
    """For each lifting's images in a (T, ds^2, dim, dim) stack: None when a bound proves that no
    ||tr_env(F(g)) - g||_1 exceeds ``tolerances.trace``, else the exact worst deviation and its g,
    from one SVD per basis member; and the (T, ds^2, ds, ds) stack of those residuals.

    A ds x ds R has ||R||_1 <= sqrt(ds) ||R||_F.  The exact path's singular values are each a
    few ds u ||R||_2 off R's (a backward-stable SVD, u the unit roundoff), their sum adds ds u
    and the Frobenius norm's sum of squares ds^2 u, all within the margin 8 ds^2 u ||R||_F; so
    wherever the bound passes, the exact path passes too, and a deviation at rounding level
    needs no SVD."""
    residuals = _trace_residuals(ds, de, images)
    worst = np.max(frobenius_norms(residuals.reshape(-1, ds, ds)).reshape(len(images), -1), axis=1)
    bounds = np.sqrt(ds) * worst * (1 + 8 * ds * ds * np.finfo(float).eps)
    return [None if bound <= tolerances.trace else _worst_trace_deviation(ds, r)
            for bound, r in zip(bounds, residuals)], residuals


def _corner_eigenvalues(corners: np.ndarray) -> np.ndarray:
    """lambda_min(Herm F(g_00)) for each F(g_00) = F(E_00) in a (T, dim, dim) stack, formed as the
    exact path forms a member's value: g_00's value in the search."""
    return np.linalg.eigvalsh((corners + corners.conj().transpose(0, 2, 1)) / 2)[:, 0]


def _corner_witness(ds: int, value) -> ViolatesPositivity:
    """The search's witness at g_00, whose image has the eigenvalue value."""
    x = _basis(ds).members[0]
    return ViolatesPositivity(x / np.trace(x).real, float(value))


def _reference(de: int, corner: np.ndarray) -> np.ndarray:
    """The (0, 0) block of F(g_00), image 0."""
    return corner[:de, :de].copy()


def check_trace_constraint(f: Lifting) -> float:
    """Max trace-norm deviation of tr_env(F(g)) from g over the Hermitian basis.

    Zero (within tolerance) exactly when F is a right inverse of the
    environment partial trace.
    """
    return _worst_trace_deviation(f.ds, _trace_residuals(f.ds, f.de, basis_images(f))[0])[0]


def check_hermiticity_preserving(f: Lifting) -> float:
    """Max Frobenius deviation of F(g) from self-adjointness over the basis."""
    return float(np.max(_hermiticity_deviations(basis_images(f)), initial=0.0))


def extract_reference(f: Lifting) -> np.ndarray:
    """The (0, 0) environment block of the image of the corner basis element.

    For a product lifting this is the reference state itself; it is a purely
    diagnostic read-out and is defined for invalid liftings too.
    """
    return _reference(f.de, unvec(f.matrix[:, 0], f.ds * f.de))


# ---------------------------------------------------------------------------
# positivity witness search
# ---------------------------------------------------------------------------


def _walk(screen: _Screen):
    """The members of :func:`positivity_witness_search` after g_00, which the search evaluates from
    image 0, in walk order, as (q, psi, x), x psi psi^dagger on the q-th pair's span times its
    trace; each certificate and seed made late."""
    basis = screen.basis
    if screen.near_product():
        return
    certified = np.array([screen.certifies(q) for q in range(len(basis.pairs))], dtype=bool)
    for j in np.setdiff1d(np.arange(1, len(basis.members)), basis.pairs[certified]):  # canonical
        yield basis.pair[j], basis.psi[j], basis.members[j]
    for q in np.flatnonzero(~certified):
        yield q, *screen.seed(q)


def _units(kk, ll, kl, star, scale: float = 0.5) -> tuple:
    """2 scale F(E_kl) and 2 scale F(E_lk) from the images of g_kk, g_ll, g_kl and g*_kl:
    g_kl - i g*_kl - (1 - i) (g_kk + g_ll) = 2 E_kl, so with S = F(g_kk) + F(g_ll), U = F(g_kl) - S
    and V = S - F(g*_kl), F(E_kl) = (U + iV)/2 and F(E_lk) = (U - iV)/2."""
    s = kk + ll
    u = kl - s
    v = np.subtract(s, star, out=s)
    u *= scale
    v *= 1j * scale
    return u + v, np.subtract(u, v, out=u)


def _unit_rows(images: np.ndarray, scale: float = 0.5):
    """k and the :func:`_units` of every pair k < l, a row k of the pairs at a time, from the basis
    images (..., ds^2, n, n): g_kk's image is broadcast and the row's g_kl and g*_kl images are
    slices, so only the g_ll are gathered."""
    basis = _basis(math.isqrt(images.shape[-3]))
    for k in range(len(basis.diag) - 1):
        (a, b), m = basis.pairs[basis.k == k][0, 2:], len(basis.diag) - 1 - k
        yield k, *_units(images[..., basis.diag[k], None, :, :], images[..., basis.diag[k + 1 :], :, :],
                         images[..., a : a + m, :, :], images[..., b : b + m, :, :], scale)


def _has_cholesky(h: np.ndarray, shift: float) -> bool:
    """Whether every h + shift I in the stack h, shifted in place, has a Cholesky factor."""
    n = h.shape[-1]
    h.reshape(-1, n * n)[:, :: n + 1] += shift  # the diagonals: h is contiguous, so a view
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


class _Screen:
    """What the witness search reads of a lifting: its basis images F(g_j), as F(g_j)^T, their
    Hermiticity deviations dev_j, its column norms ||M_rc|| = ||F(E_rc)||, the Hermitian part of
    the Choi block of each pair that a member or a seed asks for, formed once, and the reference
    D of image 0.  tol = ``tolerances.psd``, and shift_q = tol - slack_q - 2 sum_j dev_j."""

    def __init__(self, ds: int, images: np.ndarray, deviations: np.ndarray):
        m, n = ds * ds, images.shape[-1]
        self.tol, self.dim, self.ds = tolerances.psd, n, ds
        self.reference, self.basis = _reference(n // ds, images[0]), _basis(ds)
        # F(g_j)^T, which is how basis_images stores F(g_j), so no copy is made
        self.images = np.ascontiguousarray(images.transpose(0, 2, 1))
        self.deviations = deviations
        # the column norms, [c ds + r], F(E_kl) and F(E_lk) at half scale, so that no square overflows
        self.norms, k, l = np.empty(m), self.basis.k, self.basis.l
        cols = self.norms.reshape(ds, ds)  # [c, r]: ||M_rc||
        cols[range(ds), range(ds)] = frobenius_norms(self.images[self.basis.diag])
        for r, kl, lk in _unit_rows(self.images, 0.25):
            cols[r + 1 :, r], cols[r, r + 1 :] = 2 * frobenius_norms(kl), 2 * frobenius_norms(lk)
        spread = cols[k, k] + cols[k, l] + cols[l, k] + cols[l, l]  # N of each pair, from |g_kl|
        # the rounding bound of certifies, eps (4 n^2 + m + 16) (N + tol), and the shift it leaves
        self.slack = np.finfo(float).eps * (4 * n**2 + m + 16) * (spread + self.tol)
        self.shift = self.tol - self.slack - 2 * deviations[self.basis.pairs].sum(axis=1)
        self.hermitian = {}

    @cached_property
    def residual(self) -> float:
        """max_g ||F(g) - g (x) D||_F, the analyzer's product residual, with its bits."""
        return _residual(self.ds, self.images.transpose(0, 2, 1), self.reference)

    def near_product(self) -> bool:
        """Whether the product bound proves that no state maps below -tol on the exact path, so
        that the walk need try nothing after g_00: the paper's theorem read the other way, the
        product lifting W -> W (x) D is positive exactly when D is.

        With r = :attr:`residual` and Delta(W) = F(W) - W (x) D, Delta(E_kk) = Delta(g_kk) and
        Delta(E_kl) is the :func:`_units` combination of four basis residuals, whose moduli sum
        to 1 + sqrt 2; so ||Delta(E_rc)||_F <= (1 + sqrt 2) r.  A state rho has sum_rc |rho_rc|
        <= (sum_r sqrt(rho_rr))^2 <= ds, so ||Delta(rho)||_F <= ds (1 + sqrt 2) r, and rho (x)
        Herm D, with eigenvalues p_i mu_j, has none below min(0, lambda_min(Herm D)).  Hence
        lambda_min(Herm F(rho)) >= min(0, lambda_min(Herm D)) - ds (1 + sqrt 2) r.  The slack
        of :meth:`certifies` bounds the exact path's rounding on its pair's span and r's few u N,
        so when that bound less the largest slack is at least -tol, no member or seed evaluates
        below -tol, and the search's outcome is None.  Nothing here uses Hermiticity or the
        trace constraint, so the bound holds for any lifting."""
        d, slack = self.reference, np.max(self.slack, initial=0.0)
        floor = min(0.0, float(np.linalg.eigvalsh((d + d.conj().T) / 2)[0]))
        return floor - self.ds * (1 + np.sqrt(2)) * self.residual - slack >= -self.tol

    def block(self, q: int) -> np.ndarray:
        """B^T of :meth:`certifies`: F(g_kk)^T, F(g_ll)^T on the diagonal, F(E_kl)^T =
        (F(g_kl)^T - i F(g*_kl)^T - (1 - i) (F(g_kk)^T + F(g_ll)^T))/2 below, its adjoint above."""
        j, n = self.basis.pairs[q], self.dim
        block = np.empty((2 * n, 2 * n), dtype=np.complex128)
        block[:n, :n], block[n:, n:] = self.images[j[0]], self.images[j[1]]
        block[n:, :n] = _units(*self.images[j])[0]
        block[:n, n:] = block[n:, :n].conj().T
        return block

    def hermitian_block(self, q: int) -> np.ndarray:
        """B, the Hermitian part of block(q)^T, formed at the pair's first call and then kept."""
        if q not in self.hermitian:
            block = self.block(q).T
            self.hermitian[q] = (block + block.conj().T) / 2
        return self.hermitian[q]

    def compress(self, q: int, psi: np.ndarray) -> np.ndarray:
        """V^dagger B V = sum_rc psi_r conj(psi_c) B_rc for each row psi, B the q-th pair's."""
        b = self.hermitian_block(q).reshape(2, self.dim, 2, self.dim)
        return np.einsum("mr,ricj,mc->mij", psi, b, psi.conj())

    def certifies(self, q: int) -> bool:
        """A sufficient test that no basis member on span{e_k, e_l}, for the q-th pair k < l, has
        an image with an eigenvalue below -tol, made with one Cholesky factorization of the
        pair's Choi block.

        For psi = a e_k + b e_l, Herm F(psi psi^dagger) = V^dagger B V with B = [[P_kk, P_kl],
        [P_lk, P_ll]], P_rc = (F(E_rc) + F(E_cr)^dagger)/2, V = [conj(a) I; conj(b) I] and
        ||V||^2 = tr(psi psi^dagger).  So lambda_min(B) >= -delta gives lambda_min(Herm F(rho))
        >= -delta tr(rho) for every positive rho on the span, the pair's members among them.

        With u the unit roundoff, n = dim, m = ds^2 and N = sum |g_kl[r, c]| ||F(E_rc)||_F >=
        ||B||_F: :meth:`block` is about 25 u N off B^T, and Cholesky's triangle 1.25 sum_j dev_j
        off it.  For shift_q in (0, tol], a Cholesky factor of it + shift_q I proves lambda_min >=
        -shift_q - (2n (2n + 1) + 2) u (N + tol) (Higham, Accuracy and Stability of Numerical
        Algorithms, Thm 10.5).  The exact path (:meth:`value`: at most four images, real weights
        whose moduli times the images' norms sum to at most (1 + sqrt 2) N, the Hermitian part
        and ``eigvalsh``) is about (n + 18) u N off.  slack_q = 2u (4n^2 + m + 16) (N + tol), with
        n >= 2 and m >= 4 where a pair exists, covers the three, and 2 sum_j dev_j the triangle."""
        return self.shift[q] > 0 and _has_cholesky(self.block(q), self.shift[q])

    def clears(self, q: int, psi: np.ndarray) -> bool:
        """A sufficient test that psi psi^dagger, psi on the q-th pair's span (none: q = -1), has
        no image with an eigenvalue below -tol on the exact path: shift_q > 0 and a Cholesky
        factor of V^dagger B V + shift_q I.  ||V^dagger B V|| <= ||B|| <= N, the n x n factor
        adds n (n + 1) + 2 roundings where the 2n block's adds 2n (2n + 1) + 2, and the
        Hermitization, the compression and the few u between psi psi^dagger and the exact
        path's coefficients (a seed's Hermitization included) add a few u N, all within the slack."""
        return q >= 0 and self.shift[q] > 0 and _has_cholesky(self.compress(q, psi[None]), self.shift[q])

    def value(self, q: int, x: np.ndarray) -> tuple:
        """The state x / tr x, x Hermitian on the q-th pair's span, and its image, the exact path's:
        with x_kl = u + iv, x = (x_kk - u - v) g_kk + (x_ll - u - v) g_ll + u g_kl + v g*_kl, so the
        image sums at most four of the pair's images, and a member's is its own over its trace."""
        k, l, state = self.basis.k[q], self.basis.l[q], x / np.trace(x).real
        u, v = state[k, l].real, state[k, l].imag
        weights = (state[k, k].real - u - v, state[l, l].real - u - v, u, v)
        return state, sum(w * self.images[j].T for w, j in zip(weights, self.basis.pairs[q]) if w)

    def seed(self, q: int):
        """The q-th pair's candidate witness (psi, x), x = psi psi^dagger with psi on
        span{e_k, e_l}, read from B of :meth:`certifies`, where Herm F(psi psi^dagger) =
        V^dagger B V.  The search starts where the lowest eigenvector of B, read as a 2 x n
        matrix, is nearest a product: at psi = conj(u_1), u_1 its top left singular vector, as
        V w = conj(psi) (x) w.  That eigenvector need not be near a product, so a compass search
        on the Bloch angles of psi, in steps of pi/2 down to pi/64, then lowers
        lambda_min(V^dagger B V).  x is Hermitized, so that it equals its adjoint exactly."""
        u = np.linalg.svd(np.linalg.eigh(self.hermitian_block(q))[1][:, 0].reshape(2, -1))[0][:, 0]

        def states(angles):  # psi = (cos(theta/2), e^{i phi} sin(theta/2)) for rows (theta, phi)
            theta, phi = angles.T
            return np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], 1)

        def depths(angles):
            return np.linalg.eigvalsh(self.compress(q, states(angles)))[:, 0]

        angles = np.array([[2 * np.arccos(min(abs(u[0]), 1.0)), np.angle(u[0]) - np.angle(u[1])]])
        best = depths(angles)[0]
        for step in np.pi / 2.0 ** np.arange(1, 7):
            while True:
                moves = angles + step * np.vstack([np.eye(2), -np.eye(2)])
                d = depths(moves)
                if d.min() >= best:
                    break
                angles, best = moves[[d.argmin()]], d.min()
        psi = states(angles)[0]
        x = np.zeros(len(self.basis.diag), dtype=np.complex128)
        x[[self.basis.k[q], self.basis.l[q]]] = psi
        x = np.outer(x, x.conj())
        return psi, (x + x.conj().T) / 2


def _walk_witness(screen: _Screen):
    """The first witness of the walk after g_00, which its callers evaluate from image 0, or None:
    a member that :meth:`_Screen.clears` is skipped, any other is evaluated on the exact path."""
    for q, psi, x in _walk(screen):
        if not screen.clears(q, psi):
            state, w = screen.value(q, x)
            lam = float(np.linalg.eigvalsh((w + w.conj().T) / 2)[0])
            if lam < -screen.tol:
                return ViolatesPositivity(state, lam)
    return None


def positivity_witness_search(f: Lifting):
    """:class:`ViolatesPositivity` with the first trace-normalized input in the canonical family
    whose image has an eigenvalue below -``tolerances.psd``, or None.

    g_00 is evaluated first, exactly, from column 0 (F(E_00) = F(g_00)) as a stack of one.  Only
    when it is no witness is the :class:`_Screen` of ``basis_images(f)`` built, and the walk then
    stops where :meth:`_Screen.near_product` proves that nothing after g_00 holds a witness,
    certifies each pair once, then walks the basis members that no certified pair covers, in
    canonical order, and the seeds of the uncertified pairs, in pair order; a covered member lies
    on a certified span, so the first witness does not move.  A walked member that
    :meth:`_Screen.clears` is skipped; any other is evaluated by :meth:`_Screen.value`, the exact
    path.  Its floor is absolute: a direct call on images of norm 1e6 or more can report a
    rounding-level witness, where ``analyze`` stops at ``violates_trace``."""
    (corner,) = _corner_eigenvalues(unvec(f.matrix[:, 0], f.ds * f.de)[None])
    if corner < -tolerances.psd:
        return _corner_witness(f.ds, corner)
    images = basis_images(f)
    return _walk_witness(_Screen(f.ds, images, _hermiticity_deviations(images)))


# ---------------------------------------------------------------------------
# component structure diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairStructure:
    """Per-pair (k < l) block diagnostics of the lifted basis images."""

    off_support: float        # mass of F(g_kl) outside its four carried blocks
    off_support_star: float   # same for F(g_kl_star)
    component_mismatch: float  # the four carried blocks of F(g_kl) differ
    phase_mismatch: float      # +-i relations among carried blocks of F(g_kl_star)
    reference_mismatch: float  # carried blocks differ from the corner block a


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Block-structure deviations that vanish exactly for product liftings."""

    diag_off_support: dict       # k -> mass of F(g_kk) outside its (k, k) block
    diag_reference_mismatch: dict  # k -> |F(g_kk)^{kk} - a|_F
    pairs: dict                  # (k, l) -> PairStructure

    @property
    def max_deviation(self) -> float:
        values = [*self.diag_off_support.values(), *self.diag_reference_mismatch.values()]
        values += [v for p in self.pairs.values() for v in vars(p).values()]
        return max(values, default=0.0)


def _structure(ds: int, de: int, images: np.ndarray, a: np.ndarray) -> StructureReport:
    """The block diagnostics of images laid out as ``basis_images`` lays them out.  Each norm has
    the bits of ``frobenius`` of its one-block difference, laid out as numpy lays that out: in C
    order against a, in the blocks' transposed memory order otherwise, and C-ordered copies of
    the components, carried blocks zeroed, for the off-support masses."""
    basis, m = _basis(ds), ds * ds
    # split[j, l, y, k, x] = F(g_j)[k de + x, l de + y], as the transposed images sit in memory
    split = images.transpose(0, 2, 1).reshape(m, ds, de, ds, de)
    blocks = split.transpose(0, 3, 1, 4, 2)  # [j, k, l, x, y] = F(g_j)[k de + x, l de + y]
    off = np.empty(m)
    for c in _chunks(m, images[0].nbytes):
        masked = np.array(blocks[c], order="C")
        masked[basis.members[c] != 0] = 0.0
        off[c] = frobenius_norms(masked)
    k, l, plain, star = basis.k, basis.l, basis.pairs[:, 2], basis.pairs[:, 3]
    # the blocks kk, kl, lk and ll of each pair's images, each transposed, as it sits in memory
    at = (np.stack([k, k, l, l], 1), np.stack([k, l, k, l], 1))
    transposed = split.transpose(0, 3, 1, 2, 4)
    p, s = (np.ascontiguousarray(transposed[(q[:, None], *at)]) for q in (plain, star))
    i, j = np.triu_indices(4, 1)
    phases = np.array([-1j, 1j, 1])[:, None, None]
    within = np.concatenate([p[:, i] - p[:, j], s[:, :1] - phases * s[:, 1:]], axis=1)
    within = frobenius_norms(within.reshape(-1, de, de)).reshape(-1, 9)
    r = np.arange(ds)
    against = np.concatenate([blocks[basis.diag, r, r], blocks[plain, k, l],
                              -1j * blocks[star, k, l], blocks[star, k, k]])
    against = frobenius_norms(against - a)
    fields = [off[plain], off[star], within[:, :6].max(1), within[:, 6:].max(1),
              against[ds:].reshape(3, -1).max(0)]
    pairs = zip(zip(k.tolist(), l.tolist()), np.stack(fields, 1).tolist())
    return StructureReport(dict(enumerate(off[basis.diag].tolist())),
                           dict(enumerate(against[:ds].tolist())),
                           {kl: PairStructure(*v) for kl, v in pairs})


def structure_report(f: Lifting) -> StructureReport:
    """Block diagnostics of the basis images.

    For a map that preserves Hermiticity, respects the partial-trace
    constraint and maps the witness family to positive operators, every
    reported deviation vanishes: images of diagonal basis elements live in a
    single block, images of pair elements live in four equal blocks (with the
    +-i phases for the star family), and all carried blocks agree with the
    corner block a = F(g_00)^{00}.
    """
    return _structure(f.ds, f.de, basis_images(f), extract_reference(f))


# ---------------------------------------------------------------------------
# the analyzer
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Product:
    """The lifting is the product map rho -> rho (x) reference."""

    reference: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class ViolatesTrace:
    max_deviation: float
    witness: np.ndarray  # basis element with the worst partial-trace deviation


@dataclass(frozen=True, eq=False)
class ViolatesHermiticity:
    max_deviation: float


@dataclass(frozen=True, eq=False)
class ViolatesPositivity:
    witness: np.ndarray  # unit-trace positive input mapped to a negative operator
    min_eigenvalue: float


@dataclass(frozen=True, eq=False)
class Inconclusive:
    """All hypothesis checks passed but the product residual exceeds the
    threshold; never a valid non-product lifting.  Such a lifting loses
    positivity on some pair span, but no basis member or pair seed maps below
    -``tolerances.psd``: a violation above that floor, such as a second-order
    one (about -0.625 delta^2 for a residual of sqrt(12) delta), or a
    tolerance problem."""

    residual: float


def _residual(ds: int, images: np.ndarray, reference: np.ndarray) -> float:
    """Max ||F(g) - g (x) reference||_F over the basis, a chunk at a time: each difference is
    F(g) in C order, as numpy lays it out, less g (x) reference on the blocks where g is nonzero."""
    members, de, worst = _basis(ds).members, len(reference), 0.0
    for c in _chunks(len(images), images[0].nbytes):
        d, g = np.array(images[c], order="C"), members[c]
        j, k, l = np.nonzero(g)
        d.reshape(-1, ds, de, ds, de)[j, k, :, l] -= g[j, k, l, None, None] * reference
        worst = max(worst, float(np.max(frobenius_norms(d))))
    return worst


def product_residual(f: Lifting, reference: np.ndarray) -> float:
    """Max Frobenius distance of F(g) from g (x) reference over the basis."""
    return _residual(f.ds, basis_images(f), reference)


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """The verdict of :func:`analyze` with the diagnostics that
    ``statelift analyze`` prints, all read from one set of basis images."""

    ds: int
    de: int
    verdict: object
    hermiticity_deviation: float
    images: np.ndarray  # basis_images of the lifting
    reference: np.ndarray  # extract_reference of the lifting
    residuals: np.ndarray  # tr_env(F(g)) - g for every basis member, from the trace screen
    trace: tuple | None = None  # the worst trace deviation and its g, when the analyzer took it

    @cached_property
    def trace_deviation(self) -> float:
        """The largest ||tr_env(F(g)) - g||_1 over the basis, read from :attr:`residuals` where the
        bound of :func:`_trace_screens` settled the check."""
        return (self.trace or _worst_trace_deviation(self.ds, self.residuals))[0]

    @property
    def structure(self) -> StructureReport:
        return _structure(self.ds, self.de, self.images, self.reference)


def _residual_tol(tol: float | None) -> float:
    if tol is None:
        return tolerances.residual
    if not 0 <= tol < np.inf:
        raise ConstraintViolation(f"tol must be finite and nonnegative, got {tol}")
    return tol


def _analysis_reports(ds: int, de: int, images: np.ndarray, tol: float) -> list:
    """The :func:`analysis_report` of each lifting whose basis images a (T, ds^2, dim, dim) stack
    holds, laid out as :func:`_images` lays them out, screened as one stack.  The Hermiticity
    deviations and the trace screen are taken for the whole stack, then g_00's value, with one
    batched ``eigvalsh`` over the images 0 of the liftings that pass both checks.  One whose g_00
    value is below -``tolerances.psd`` has its witness there, where the search finds it; each
    other builds its :class:`_Screen` and walks on from g_00, one at a time."""
    deviations = _hermiticity_deviations(images.reshape(-1, ds * de, ds * de)).reshape(len(images), -1)
    herms = np.max(deviations, axis=1, initial=0.0).tolist()
    traces, residuals = _trace_screens(ds, de, images)
    references = [_reference(de, w) for w in images[:, 0]]
    verdicts = [ViolatesHermiticity(herm) if herm > tolerances.hermitian
                else ViolatesTrace(*trace) if trace is not None and trace[0] > tolerances.trace
                else None for herm, trace in zip(herms, traces)]
    searched = [t for t, verdict in enumerate(verdicts) if verdict is None]
    corners = _corner_eigenvalues(images[searched, 0]) if searched else []
    for t, corner in zip(searched, corners):
        if corner < -tolerances.psd:
            verdicts[t] = _corner_witness(ds, corner)
            continue
        screen = _Screen(ds, images[t], deviations[t])
        verdicts[t] = _walk_witness(screen)
        if verdicts[t] is None:
            residual = screen.residual
            verdicts[t] = (Product(references[t], residual) if residual <= tol
                           else Inconclusive(residual))
    return [AnalysisReport(ds, de, *report)
            for report in zip(verdicts, herms, images, references, residuals, traces)]


def analysis_report(f: Lifting, tol: float | None = None) -> AnalysisReport:
    """:func:`analyze` with the deviations and basis images it read."""
    return _analysis_reports(f.ds, f.de, _images(f.ds, f.de, f.matrix[None]), _residual_tol(tol))[0]


def analyze(f: Lifting, tol: float | None = None):
    """Classify a lifting: hermiticity -> trace -> positivity -> factorization."""
    return analysis_report(f, tol).verdict


# ---------------------------------------------------------------------------
# the diagonal-mixing positivity criterion
# ---------------------------------------------------------------------------


def diag_mixing_positive(a: float, b: float, c: float) -> bool:
    """Closed form for the inclusion of the region (1+t)(1+p) >= 1, t+1 >= 0
    in the region (b+at)(b+cp) >= b^2, b+at >= 0: holds iff a = c <= b."""
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not 0 <= v < np.inf:  # NaN fails both comparisons
            what = "nonnegative" if v < 0 else "finite"
            raise ConstraintViolation(f"{name} must be {what}, got {v}")
    return abs(a - c) <= DIAG_MIXING_TOL and a <= b + DIAG_MIXING_TOL


# ---------------------------------------------------------------------------
# perturbations and the no-go sweep
# ---------------------------------------------------------------------------


def _perturbation_images(ds: int, de: int, seeds, eps: float = 1.0, references=None) -> np.ndarray:
    """The basis images, laid out as :func:`_images` lays them out, of eps times
    :func:`random_perturbation` of each seed, plus g (x) D for each D of a (T, de, de) stack of
    references, held to the bound of :class:`Lifting`, when one is given.  Each trial's draw comes
    from its own generator, and each step is elementwise or reduces within one image, so a trial
    has the bits it has alone.  Delta(g_q) = H_q - tr_E(H_q) (x) Id/de, and ||M||^2 =
    sum_k ||Delta(g_kk)||^2 + 2 sum_{k<l} ||Delta(E_kl)||^2, as Delta(E_lk) = Delta(E_kl)^dagger."""
    _map_shape(ds * de, ds, "perturbation")
    t, dim, n, basis = len(seeds), ds * de, ds * ds, _basis(ds)
    draws = np.empty((t, dim * dim, n))
    for i, seed in enumerate(seeds):
        philox_rng(seed).standard_normal(out=draws[i])
    *_, src, sign = _triangle(dim)
    stars, end = dim * (dim + 1) // 2, dim * dim  # where a draw's stars start and end
    ext = np.zeros((t, n, 2 * end - stars + 1))
    for c in _chunks(end, draws[:, 0].nbytes):  # transposed a cache-sized block at a time
        ext[..., :end][..., c] = draws[:, c].transpose(0, 2, 1)
    del draws
    np.negative(ext[..., stars:end], out=ext[..., end:-1])
    out = np.empty((t, n, dim, dim), dtype=np.complex128)  # out[t, q] = H_q^T: [c, r] is H_q[r, c]
    np.take(ext, src, axis=2, out=out.view(np.float64).reshape(t, n, -1), mode="clip")
    del ext
    # the members g_ab, g*_ab (a < b) carry ones at (a, a) and (b, b): the diagonal takes the row
    # sums of Re H^T +- Im H^T, which hold g_ab + star_ab at (a, b) and (b, a)
    w = out.imag * sign
    w += out.real
    out.real.reshape(t, n, -1)[..., :: dim + 1] = w.sum(axis=-1)
    del w
    split = out.reshape(t, n, ds, de, ds, de)  # [t, q, c, a, r, b] = H_q[(r, b), (c, a)]
    p = np.einsum("tqcara->tqcr", split) / de  # tr_E(H_q)^T / de, less on each diagonal block
    for a in range(de):
        split[:, :, :, a, :, a] -= p
    units = np.empty((t, len(basis.k)))  # ||Delta(E_kl)||, in pair order
    for k, kl, _ in _unit_rows(out):
        units[:, basis.k == k] = frobenius_norms(kl.reshape(-1, dim, dim)).reshape(t, -1)
    diag = frobenius_norms(out[:, basis.diag].reshape(-1, dim, dim)).reshape(t, ds)
    norms = np.sqrt((diag**2).sum(axis=1) + 2 * (units**2).sum(axis=1))
    if np.any(norms <= PERTURBATION_FLOOR):  # de = 1, where the partial-trace completion is everything
        raise ConstraintViolation("could not draw a non-degenerate perturbation")
    # past 1e290 every trial has parts above the bound, so eps is held there, where no part overflows
    out *= (min(max(eps, -1e290), 1e290) / norms).reshape(-1, 1, 1, 1)
    if references is not None:
        j, r, c = np.nonzero(basis.members)  # g_q (x) D, set as g_q[r, c] D^T at [q, c, :, r, :]
        split[:, j, c, :, r, :] += basis.members[j, r, c, None, None, None] * references.transpose(0, 2, 1)
        _check_parts(out, dim, 4)
    return out.transpose(0, 1, 3, 2)


def _matrix(ds: int, de: int, images: np.ndarray) -> np.ndarray:
    """The matrix of the lifting with these basis images, laid out as :func:`basis_images` lays
    them out: column c ds + r holds vec F(E_rc), F(E_kk) the image of g_kk and F(E_kl), F(E_lk),
    k < l, the :func:`_unit_rows` of the images, set a row of pairs at a time."""
    basis, dim = _basis(ds), ds * de
    transposed = images.transpose(0, 2, 1)  # F(g)^T, whose ravel is vec F(g)
    m = np.empty((dim * dim, ds * ds), dtype=np.complex128)
    columns = m.T.reshape(ds, ds, dim, dim)  # [c, r]: vec F(E_rc) as F(E_rc)^T, a view of m
    columns[np.arange(ds), np.arange(ds)] = transposed[basis.diag]
    for k, kl, lk in _unit_rows(transposed):
        columns[k + 1 :, k], columns[k, k + 1 :] = kl, lk
    return m


def random_perturbation(ds: int, de: int, seed) -> np.ndarray:
    """Random lifting-shaped direction: Hermiticity-preserving, annihilated by the partial-trace
    constraint, Frobenius-normalized.  Built real in the Hermitian basis pair, each member's image
    H_q a random Hermitian scattered straight into place, less the completion of its partial trace
    (tensoring with Id/de), in O((ds*de)^2 * ds^2); the matrix is read from the images by the
    sparse inverse sums of the basis change."""
    return _matrix(ds, de, _perturbation_images(ds, de, [seed])[0])


def perturbed_product_lifting(reference: np.ndarray, ds: int, eps: float, seed) -> Lifting:
    """Product lifting plus eps times a random constraint-respecting direction, its matrix read
    from the basis images g (x) D + eps Delta(g) by the sparse inverse sums."""
    if not np.isfinite(eps):
        raise ConstraintViolation(f"eps must be finite, got {eps}")
    d = validate_density(reference)
    images = _perturbation_images(ds, d.shape[0], [seed], eps, d[None])[0]
    return Lifting(ds, d.shape[0], _matrix(ds, d.shape[0], images))


_VERDICT_NAMES = {
    Product: "product",
    ViolatesTrace: "violates_trace",
    ViolatesHermiticity: "violates_hermiticity",
    ViolatesPositivity: "violates_positivity",
    Inconclusive: "inconclusive",
}


def verdict_name(verdict) -> str:
    return _VERDICT_NAMES[type(verdict)]


@dataclass(frozen=True, eq=False)
class SweepOutcome:
    verdicts: list
    counts: dict
    falsifiers: list  # trial indices where the analyzer came back inconclusive


def _sweep_verdicts(ds: int, de: int, eps: float, children: list, tol: float) -> list:
    """The verdicts of the no-go sweep's trials with these spawned seeds, built and screened as one
    stack of basis images, with no matrix.  Each trial draws its reference from its first child
    seed and its direction from its second, as one trial alone does."""
    seeds = [child.spawn(2) for child in children]
    references = np.stack([random_density(de, seed=d_seed) for d_seed, _ in seeds])
    images = _perturbation_images(ds, de, [p_seed for _, p_seed in seeds], eps, references)
    return [report.verdict for report in _analysis_reports(ds, de, images, tol)]


def no_go_sweep(ds: int, de: int, trials: int, eps: float, seed: int,
                tol: float | None = None) -> SweepOutcome:
    """Analyze `trials` random constraint-respecting perturbations of random
    product liftings.  Every trial must come back as a product or as a
    hypothesis violation; an inconclusive verdict is a falsifier.  The trials
    are built and screened in stacks of at most ``_STACK_BYTES`` of basis
    images, and each keeps the seeds and the verdict it has on its own."""
    tol = _residual_tol(tol)
    if trials < 0:
        raise ConstraintViolation(f"trials must be nonnegative, got {trials}")
    if not np.isfinite(eps):
        raise ConstraintViolation(f"eps must be finite, got {eps}")
    _map_shape(ds * de, ds, "perturbation")
    children = spawn_seeds(seed, trials)
    verdicts = []
    for chunk in _chunks(trials, 16 * (ds * de * ds) ** 2, _STACK_BYTES):
        verdicts += _sweep_verdicts(ds, de, eps, children[chunk], tol)
    names = [verdict_name(v) for v in verdicts]
    counts = {name: names.count(name) for name in _VERDICT_NAMES.values()}
    falsifiers = [i for i, v in enumerate(verdicts) if isinstance(v, Inconclusive)]
    return SweepOutcome(verdicts, counts, falsifiers)
