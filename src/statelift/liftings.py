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
tests g_00, lets the analyzer's product bound settle a lifting within rounding
of a product, then certifies each pair's Choi block once and walks only what
the certificates leave open.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .config import DIAG_MIXING_TOL, KRAUS_TOL, PERTURBATION_FLOOR, default_residual_tol, tolerances
from .errors import ConstraintViolation, DimensionMismatch
from .linalg import _map_shape, apply_map, frobenius, frobenius_norms, map_matrix
from .rng import philox_rng, spawn_seeds
from .states import hermitian_basis, random_density, validate_density


@dataclass(frozen=True, eq=False)
class Lifting:
    """A linear map L1(H_S) -> L1(H_S (x) H_E) on vectorized operators."""

    ds: int
    de: int
    matrix: np.ndarray  # shape ((ds*de)**2, ds**2)

    def __post_init__(self):
        dim = self.ds * self.de
        object.__setattr__(self, "matrix", map_matrix(self.matrix, dim, self.ds, "lifting"))
        if not np.all(np.isfinite(self.matrix.view(np.float64))):
            raise ConstraintViolation("lifting matrix has non-finite entries")


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
    none).  ``inverse`` is the inverse of the stacked basis vecs."""

    members: np.ndarray
    diag: np.ndarray
    k: np.ndarray
    l: np.ndarray
    pairs: np.ndarray
    pair: np.ndarray
    psi: np.ndarray
    inverse: np.ndarray


# F(E_kl) from F(g_kk), F(g_ll), F(g_kl) and F(g*_kl):
# g_kl - i g*_kl = 2 E_kl + (1 - i) (g_kk + g_ll)
_OFF_DIAGONAL = np.array([-(1 - 1j) / 2, -(1 - 1j) / 2, 0.5, -0.5j])


@lru_cache(maxsize=16)
def _triangle(dim: int) -> tuple:
    """The upper triangle's rows and columns, those off the diagonal and their mask, read-only."""
    rows, cols = np.triu_indices(dim)
    off = rows != cols
    maps = (rows, cols, rows[off], cols[off], off)
    for a in maps:
        a.setflags(write=False)
    return maps


@lru_cache(maxsize=16)
def _basis(ds: int) -> _Basis:
    rows, cols, k, l, off = _triangle(ds)
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
    # column c*ds + r holds E_rc on the basis: g_kk for E_kk and, for k < l,
    # _OFF_DIAGONAL on the pair's members for E_kl and its conjugate for E_lk
    inverse = np.zeros((ds * ds, ds * ds), dtype=np.complex128)
    inverse[diag, np.arange(ds) * (ds + 1)] = 1
    inverse[pairs.T, l * ds + k] = _OFF_DIAGONAL[:, None]
    inverse[pairs.T, k * ds + l] = _OFF_DIAGONAL.conj()[:, None]
    basis = _Basis(members, diag, k, l, pairs, pair, psi, inverse)
    for a in basis:
        a.setflags(write=False)  # shared by every caller
    return basis


def basis_images(f: Lifting) -> np.ndarray:
    """F(g) for every member g of the Hermitian basis, in canonical order.

    This is the product of the lifting matrix with the stacked basis vecs,
    shape (ds^2, dim, dim).  Each basis member is a sum of at most four matrix
    units, so the product is formed from the matrix-unit images (the columns
    of the matrix) in O(dim^2 * ds^2) rather than as a dense GEMM in
    O(dim^2 * ds^4).
    """
    ds, dim = f.ds, f.ds * f.de
    diag = _basis(ds).diag
    # units[c, r] is column c*ds + r of the matrix: the transposed image of E_rc
    units = f.matrix.T.reshape(ds, ds, dim, dim)
    out = np.empty((ds * ds, dim, dim), dtype=np.complex128)
    out[diag] = units.reshape(ds * ds, dim, dim)[:: ds + 1]
    # g_kl = E_kk + E_kl + E_lk + E_ll and g*_kl = E_kk + E_ll + i E_kl - i E_lk.
    # The pairs k < l of a row k sit together among the g's and among the
    # stars, so each row is formed from views of units into views of out.
    star = ds * (ds + 1) // 2
    for k in range(ds - 1):
        plain, stars = out[diag[k] + 1 : diag[k + 1]], out[star : star + ds - 1 - k]
        kl, lk = units[k + 1 :, k], units[k, k + 1 :]
        np.add(out[diag[k]], out[diag[k + 1 :]], out=plain)  # E_kk + E_ll, for now
        np.subtract(kl, lk, out=stars)
        stars *= 1j
        stars += plain
        plain += kl + lk
        star += ds - 1 - k
    return out.transpose(0, 2, 1)


# The norm passes' chunks hold at most this many bytes of images, so that a chunk and its
# copies stay in a core's L2 cache.
_CHUNK_BYTES = 2**18


def _chunks(count: int, item_bytes: int) -> list:
    """Slices that walk a stack of count items, each at most _CHUNK_BYTES of images."""
    step = max(1, _CHUNK_BYTES // item_bytes)
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
    """tr_env(F(g)) - g for every basis member g."""
    reduced = np.einsum("naibi->nab", images.reshape(-1, ds, de, ds, de))
    reduced -= _basis(ds).members
    return reduced


def _worst_trace_deviation(ds: int, reduced: np.ndarray):
    """The largest trace norm among the residuals of :func:`_trace_residuals`, and its g."""
    devs = np.linalg.svd(reduced, compute_uv=False).sum(axis=1)
    worst = int(np.argmax(devs))
    return float(devs[worst]), _basis(ds).members[worst].copy()


def _trace_screen(ds: int, de: int, images: np.ndarray):
    """None when a bound proves that no ||tr_env(F(g)) - g||_1 exceeds ``tolerances.trace``,
    else the exact worst deviation and its g, from one SVD per basis member.

    A ds x ds R has ||R||_1 <= sqrt(ds) ||R||_F.  The exact path's singular values are each a
    few ds u ||R||_2 off R's (a backward-stable SVD, u the unit roundoff), their sum adds ds u
    and the Frobenius norm's sum of squares ds^2 u, all within the margin 8 ds^2 u ||R||_F; so
    wherever the bound passes, the exact path passes too, and a deviation at rounding level
    needs no SVD."""
    reduced = _trace_residuals(ds, de, images)
    bound = np.sqrt(ds) * np.max(frobenius_norms(reduced)) * (1 + 8 * ds * ds * np.finfo(float).eps)
    return None if bound <= tolerances.trace else _worst_trace_deviation(ds, reduced)


def _reference(f: Lifting) -> np.ndarray:
    """The (0, 0) block of F(g_00) = F(E_00), whose vec is column 0 of the matrix."""
    return f.matrix[:, 0].reshape((f.ds * f.de,) * 2).T[: f.de, : f.de].copy()


def check_trace_constraint(f: Lifting) -> float:
    """Max trace-norm deviation of tr_env(F(g)) from g over the Hermitian basis.

    Zero (within tolerance) exactly when F is a right inverse of the
    environment partial trace.
    """
    return _worst_trace_deviation(f.ds, _trace_residuals(f.ds, f.de, basis_images(f)))[0]


def check_hermiticity_preserving(f: Lifting) -> float:
    """Max Frobenius deviation of F(g) from self-adjointness over the basis."""
    return float(np.max(_hermiticity_deviations(basis_images(f)), initial=0.0))


def extract_reference(f: Lifting) -> np.ndarray:
    """The (0, 0) environment block of the image of the corner basis element.

    For a product lifting this is the reference state itself; it is a purely
    diagnostic read-out and is defined for invalid liftings too.
    """
    return _reference(f)


# ---------------------------------------------------------------------------
# positivity witness search
# ---------------------------------------------------------------------------


def _walk(screen: _Screen):
    """The members of :func:`positivity_witness_search` in walk order, as (q, psi, x), x psi
    psi^dagger on the q-th pair's span times its trace; each certificate and seed made late."""
    basis = screen.basis
    yield basis.pair[0], basis.psi[0], basis.members[0]
    if screen.near_product():
        return
    certified = np.array([screen.certifies(q) for q in range(len(basis.pairs))], dtype=bool)
    for j in np.setdiff1d(np.arange(1, len(basis.members)), basis.pairs[certified]):  # canonical
        yield basis.pair[j], basis.psi[j], basis.members[j]
    for q in np.flatnonzero(~certified):
        yield q, *screen.seed(q)


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
    Hermiticity deviations dev_j, its column norms ||M_rc||, and the Hermitian part of the Choi
    block of each pair that a member or a seed asks for, formed once.  tol = ``tolerances.psd``.
    The analyzer also hands it the reference D, for :meth:`near_product`."""

    def __init__(self, f: Lifting, images: np.ndarray, deviations: np.ndarray,
                 reference: np.ndarray | None = None):
        m, n = f.ds**2, f.ds * f.de
        self.tol, self.dim, self.ds, self.reference = tolerances.psd, n, f.ds, reference
        self.basis = _basis(f.ds)
        # F(g_j)^T, which is how basis_images stores F(g_j), so no copy is made
        self.images = np.ascontiguousarray(images.transpose(0, 2, 1))
        self.deviations = deviations
        flat = f.matrix.view(np.float64)  # the column norms ||M_rc||, without a squared copy
        self.norms = np.sqrt(np.einsum("ij,ij->j", flat, flat).reshape(m, 2).sum(axis=1))
        cols, k, l = self.norms.reshape(f.ds, f.ds), self.basis.k, self.basis.l  # [c, r]: ||M_rc||
        spread = cols[k, k] + cols[k, l] + cols[l, k] + cols[l, l]  # N of each pair, from |g_kl|
        # the rounding bound of certifies: eps (4 n^2 + m + 16) (N + tol) + 2 sum_j dev_j <= tol/2
        self.slack = np.finfo(float).eps * (4 * n**2 + m + 16) * (spread + self.tol)
        self.small = self.slack + 2 * deviations[self.basis.pairs].sum(axis=1) <= self.tol / 2
        self.hermitian = {}

    @cached_property
    def residual(self) -> float:
        """max_g ||F(g) - g (x) D||_F, the analyzer's product residual, with its bits."""
        return _residual(self.ds, self.images.transpose(0, 2, 1), self.reference)

    def near_product(self) -> bool:
        """Whether the product bound proves that no state maps below -tol on the exact path, so
        that the walk need try nothing after g_00: the paper's theorem read the other way, the
        product lifting W -> W (x) D is positive exactly when D is.  False without a reference.

        With r = :attr:`residual` and Delta(W) = F(W) - W (x) D, Delta(E_kk) = Delta(g_kk) and
        Delta(E_kl) is the _OFF_DIAGONAL combination of four basis residuals, whose moduli sum
        to 1 + sqrt 2; so ||Delta(E_rc)||_F <= (1 + sqrt 2) r.  A state rho has sum_rc |rho_rc|
        <= (sum_r sqrt(rho_rr))^2 <= ds, so ||Delta(rho)||_F <= ds (1 + sqrt 2) r, and rho (x)
        Herm D, with eigenvalues p_i mu_j, has none below min(0, lambda_min(Herm D)).  Hence
        lambda_min(Herm F(rho)) >= min(0, lambda_min(Herm D)) - ds (1 + sqrt 2) r.  When that
        is at least -tol/2 and every pair's rounding slack of :meth:`certifies`, which bounds
        the exact path's rounding on the pair's span and r's few u N, is at most tol/2, no
        member or seed evaluates below -tol, and the search's outcome is None."""
        if self.reference is None or np.any(self.slack > self.tol / 2):
            return False
        d = self.reference
        floor = min(0.0, float(np.linalg.eigvalsh((d + d.conj().T) / 2)[0]))
        return floor - self.ds * (1 + np.sqrt(2)) * self.residual >= -self.tol / 2

    def block(self, q: int) -> np.ndarray:
        """B^T of :meth:`certifies`: F(g_kk)^T, F(g_ll)^T on the diagonal, F(E_kl)^T =
        (F(g_kl)^T - i F(g*_kl)^T - (1 - i) (F(g_kk)^T + F(g_ll)^T))/2 below, its adjoint above."""
        j, n = self.basis.pairs[q], self.dim
        block = np.empty((2 * n, 2 * n), dtype=np.complex128)
        block[:n, :n], block[n:, n:] = self.images[j[0]], self.images[j[1]]
        block[n:, :n] = (_OFF_DIAGONAL @ self.images[j].reshape(4, -1)).reshape(n, n)
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

        With u the unit roundoff, n = dim, m = ds^2 and N = sum |g_kl[r, c]| ||M_rc|| >=
        ||B||_F, M_rc the column that holds F(E_rc): :meth:`block` is about 25 u N off B^T, and
        Cholesky's triangle 1.25 sum_j dev_j off it.  A Cholesky factor of it + (tol/2) I proves
        lambda_min >= -tol/2 - (2n (2n + 1) + 2) u (N + tol) (Higham, Accuracy and Stability of
        Numerical Algorithms, Thm 10.5), and the exact path (GEMV, Hermitian part, ``eigvalsh``)
        is about (m + n + 7) u N off.  ``small[q]`` covers both."""
        return self.small[q] and _has_cholesky(self.block(q), self.tol / 2)

    def clears(self, q: int, psi: np.ndarray) -> bool:
        """A sufficient test that psi psi^dagger, psi on the q-th pair's span (none: q = -1), has
        no image with an eigenvalue below -tol on the exact path: ``small[q]`` and a Cholesky
        factor of V^dagger B V + (tol/2) I.  ||V^dagger B V|| <= ||B|| <= N, the n x n factor
        adds n (n + 1) + 2 roundings where the 2n block's adds 2n (2n + 1) + 2, and the
        Hermitization, the compression and the few u between psi psi^dagger and the exact
        path's x (a seed's Hermitization included) add a few u N, all within the slack."""
        return q >= 0 and self.small[q] and _has_cholesky(self.compress(q, psi[None]), self.tol / 2)

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


def positivity_witness_search(f: Lifting, screen: _Screen | None = None):
    """:class:`ViolatesPositivity` with the first trace-normalized input in the canonical family
    whose image has an eigenvalue below -``tolerances.psd``, or None.  ``screen`` is the
    :class:`_Screen` of ``basis_images(f)``, built here when not given.

    The walk tests g_00, stops where :meth:`_Screen.near_product` proves that nothing after it
    holds a witness, certifies each pair once, then walks the basis members that no certified
    pair covers, in canonical order, and the seeds of the uncertified pairs, in pair order; a
    covered member lies on a certified span, so the first witness does not move.  A
    walked member that :meth:`_Screen.clears` is skipped; any other is evaluated with
    ``apply_lifting`` and ``eigvalsh``, so the witness is that of the exact path.  Its floor is
    absolute: a direct call on images of norm 1e6 or more can report a rounding-level witness,
    where ``analyze`` stops at ``violates_trace`` (positive images obeying tr_env: norm tr g)."""
    if screen is None:
        images = basis_images(f)
        screen = _Screen(f, images, _hermiticity_deviations(images))
    for q, psi, x in _walk(screen):
        if not screen.clears(q, psi):
            state = x / np.trace(x).real
            w = apply_lifting(f, state)
            lam = float(np.linalg.eigvalsh((w + w.conj().T) / 2)[0])
            if lam < -screen.tol:
                return ViolatesPositivity(state, lam)
    return None


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
    return _structure(f.ds, f.de, basis_images(f), _reference(f))


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
    trace: tuple | None = None  # the worst trace deviation and its g, when the analyzer took it

    @cached_property
    def trace_deviation(self) -> float:
        """The largest ||tr_env(F(g)) - g||_1 over the basis, taken when read where the bound of
        :func:`_trace_screen` settled the check."""
        return (self.trace or _worst_trace_deviation(
            self.ds, _trace_residuals(self.ds, self.de, self.images)))[0]

    @property
    def structure(self) -> StructureReport:
        return _structure(self.ds, self.de, self.images, self.reference)


def _residual_tol(tol: float | None) -> float:
    if tol is None:
        return default_residual_tol()
    if not 0 <= tol < np.inf:
        raise ConstraintViolation(f"tol must be finite and nonnegative, got {tol}")
    return tol


def analysis_report(f: Lifting, tol: float | None = None) -> AnalysisReport:
    """:func:`analyze` with the deviations and basis images it read."""
    tol = _residual_tol(tol)
    images = basis_images(f)
    deviations = _hermiticity_deviations(images)
    herm = float(np.max(deviations, initial=0.0))
    trace = _trace_screen(f.ds, f.de, images)
    reference = _reference(f)
    report = partial(AnalysisReport, f.ds, f.de, hermiticity_deviation=herm, images=images,
                     reference=reference, trace=trace)
    if herm > tolerances.hermitian:
        return report(ViolatesHermiticity(herm))
    if trace is not None and trace[0] > tolerances.trace:
        return report(ViolatesTrace(*trace))
    screen = _Screen(f, images, deviations, reference)
    witness = positivity_witness_search(f, screen)
    if witness is not None:
        return report(witness)
    residual = screen.residual
    return report(Product(reference, residual) if residual <= tol else Inconclusive(residual))


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


def random_perturbation(ds: int, de: int, seed) -> np.ndarray:
    """Random lifting-shaped direction: Hermiticity-preserving, annihilated by
    the partial-trace constraint, Frobenius-normalized.

    Built real in the Hermitian basis pair (so Hermitian inputs map to
    Hermitian outputs), then the canonical completion of its partial-trace
    image (tensoring with Id/de) is subtracted, leaving tr_env(Delta(X)) = 0
    for every X.  The composite basis is never formed: each member has at
    most four nonzero entries, so the draw is scattered straight into a
    (dim, dim, ds^2) stack of transposed images, in O((ds*de)^2 * ds^2) memory.
    Its GEMM with ``_basis(ds).inverse`` takes O((ds*de)^2 * ds^4) time; an
    einsum over the (ds, de, ds, de) blocks projects it.
    """
    _map_shape(ds * de, ds, "perturbation")
    rng = philox_rng(seed)
    dim, n = ds * de, ds * ds
    rows, cols, pair_rows, pair_cols, off = _triangle(dim)
    g, star = np.split(rng.standard_normal((dim * dim, n)), [len(rows)])
    # transposed images, so that entry [c, r] sits at vec index c*dim + r; all are set
    images = np.empty((dim, dim, n), dtype=np.complex128)
    images[rows, cols] = g
    images[pair_cols, pair_rows] = g[off]
    images.imag[pair_rows, pair_cols] = -star
    images.imag[pair_cols, pair_rows] = star
    # member (k, l), k < l, and its star also carry ones at (k, k) and (l, l)
    ends = np.zeros((dim, dim, n))
    ends[pair_rows, pair_cols] = g[off] + star
    images[np.diag_indices(dim)] += ends.sum(0) + ends.sum(1)
    del g, star, ends  # freed before the GEMM allocates its product
    blocks = (images.reshape(dim * dim, n) @ _basis(ds).inverse).reshape(ds, de, ds, de, n)
    p = np.einsum("aibic->abc", blocks) / de
    blocks[:, range(de), :, range(de)] -= p  # p (x) Id, which is zero off these blocks
    norm = float(np.linalg.norm(blocks))
    if norm <= PERTURBATION_FLOOR:  # de = 1, where the partial-trace completion is everything
        raise ConstraintViolation("could not draw a non-degenerate perturbation")
    return np.multiply(blocks, 1 / norm, out=blocks).reshape(dim * dim, n)


def perturbed_product_lifting(reference: np.ndarray, ds: int, eps: float, seed) -> Lifting:
    """Product lifting plus eps times a random constraint-respecting direction, built in the
    direction's array: D^T + eps*delta where ``product_lifting`` sets D^T, 0.0 + eps*delta elsewhere."""
    d = validate_density(reference)
    de = d.shape[0]
    m = random_perturbation(ds, de, seed)
    m *= eps
    at, (c, r) = m.reshape(ds, de, ds, de, ds, ds), np.ogrid[:ds, :ds]
    product = d.T + at[c, :, r, :, c, r]
    m += 0.0  # -0.0 reads +0.0, as in a sum with the product lifting's zeros
    at[c, :, r, :, c, r] = product
    return Lifting(ds, de, m)


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


def no_go_sweep(
    ds: int,
    de: int,
    trials: int,
    eps: float,
    seed: int,
    tol: float | None = None,
) -> SweepOutcome:
    """Analyze `trials` random constraint-respecting perturbations of random
    product liftings.  Every trial must come back as a product or as a
    hypothesis violation; an inconclusive verdict is a falsifier."""
    tol = _residual_tol(tol)
    verdicts = []
    counts = {name: 0 for name in _VERDICT_NAMES.values()}
    falsifiers = []
    for i, child in enumerate(spawn_seeds(seed, trials)):
        d_seed, p_seed = child.spawn(2)
        reference = random_density(de, seed=philox_rng(d_seed))
        f = perturbed_product_lifting(reference, ds, eps, philox_rng(p_seed))
        v = analyze(f, tol)
        verdicts.append(v)
        counts[verdict_name(v)] += 1
        if isinstance(v, Inconclusive):
            falsifiers.append(i)
    return SweepOutcome(verdicts, counts, falsifiers)
