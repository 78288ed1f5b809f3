"""Linear liftings of system states into a composite system, and their analysis.

A lifting is a linear map from d_S x d_S operators to (d_S d_E) x (d_S d_E)
operators, stored as a dense matrix acting on column-stacked vectorizations.
The analyzer decides whether a candidate lifting is (numerically) of the
product form rho -> rho (x) D: it checks Hermiticity preservation and the
partial-trace constraint, searches a structured family of positive inputs for
an image with a negative eigenvalue, extracts the would-be reference state
from the (0, 0) block of the image of the corner basis element, and measures
the residual against the exact product map.

The witness family consists of the rank-one Hermitian basis (``basis_g``,
``basis_g_star``) plus the one-parameter positive mixtures
``g + t*g_kk + p*g_ll`` and their star variants sampled on the boundary
curve (1+t)(1+p) = 1, where any non-product map that satisfies the other
constraints must lose positivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .config import DIAG_MIXING_TOL, KRAUS_TOL, PERTURBATION_FLOOR, default_residual_tol, tolerances
from .errors import ConstraintViolation, DimensionMismatch
from .linalg import frobenius, unvec, vec
from .rng import philox_rng, spawn_seeds
from .states import hermitian_basis, random_density, validate_density


@dataclass(frozen=True, eq=False)
class Lifting:
    """A linear map L1(H_S) -> L1(H_S (x) H_E) on vectorized operators."""

    ds: int
    de: int
    matrix: np.ndarray  # shape ((ds*de)**2, ds**2)

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.ascontiguousarray(self.matrix, dtype=np.complex128))
        expected = ((self.ds * self.de) ** 2, self.ds**2)
        if self.matrix.shape != expected:
            raise DimensionMismatch(
                f"lifting matrix shape {self.matrix.shape}, expected {expected}"
            )
        if not np.all(np.isfinite(self.matrix.view(np.float64))):
            raise ConstraintViolation("lifting matrix has non-finite entries")


def product_lifting(reference: np.ndarray, ds: int) -> Lifting:
    """The lifting rho -> rho (x) reference.

    Column c*ds + r is vec(E_rc (x) D): D^T at index [c, :, r, :] of the
    (ds, de, ds, de) row split, set by one broadcast assignment in
    O((ds*de)^2 * ds^2)."""
    d = validate_density(reference)
    de = d.shape[0]
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
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (f.ds, f.ds):
        raise DimensionMismatch(f"operator shape {x.shape}, lifting expects ({f.ds}, {f.ds})")
    return unvec(f.matrix @ vec(x), f.ds * f.de)


def components(w: np.ndarray, ds: int, de: int) -> np.ndarray:
    """Block decomposition C[k, l, i, j] = W[k*de + i, l*de + j]."""
    w = np.asarray(w)
    if w.shape != (ds * de, ds * de):
        raise DimensionMismatch(f"matrix shape {w.shape} does not factor as {ds}x{de}")
    return w.reshape(ds, de, ds, de).transpose(0, 2, 1, 3)


class _Basis(NamedTuple):
    """The canonical Hermitian basis as a stack, with where its members sit, built once per ds
    and read-only: ``diag[k]`` is the position of g_kk; the q-th pair k < l in row-major order
    has k = ``k[q]``, l = ``l[q]`` and g_kk, g_ll, g_kl, g*_kl at ``pairs[q]``.  ``coords``
    and ``diagonal`` give a member's coordinates r and c of :class:`_Screen`, and ``inverse``
    is the inverse of the stacked basis vecs."""

    members: np.ndarray
    diag: np.ndarray
    k: np.ndarray
    l: np.ndarray
    pairs: np.ndarray
    coords: np.ndarray
    diagonal: np.ndarray
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
    # r at 2 (k ds + l) for Re x_kl, k <= l, then at 2 (k ds + l) + 1 for Im x_kl, k < l
    coords = np.concatenate([2 * (rows * ds + cols), 2 * (k * ds + l) + 1])
    # c on g_kk is r @ diagonal[:, k]: -1 on the members that hold e_k, 1 on g_kk
    diagonal = -np.diagonal(members, axis1=1, axis2=2).real
    diagonal[diag, np.arange(ds)] = 1
    # column c*ds + r holds E_rc on the basis: g_kk for E_kk and, for k < l,
    # _OFF_DIAGONAL on the pair's members for E_kl and its conjugate for E_lk
    inverse = np.zeros((ds * ds, ds * ds), dtype=np.complex128)
    inverse[diag, np.arange(ds) * (ds + 1)] = 1
    inverse[pairs.T, l * ds + k] = _OFF_DIAGONAL[:, None]
    inverse[pairs.T, k * ds + l] = _OFF_DIAGONAL.conj()[:, None]
    basis = _Basis(members, diag, k, l, pairs, coords, diagonal, inverse)
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


def _hermiticity_deviations(images: np.ndarray) -> np.ndarray:
    """||F(g) - F(g)^dagger||_F for every basis image F(g)."""
    return np.array([frobenius(w - w.conj().T) for w in images])


def _trace_deviations(ds: int, de: int, images: np.ndarray):
    """Trace-norm deviations of tr_env(F(g)) from g: the worst and its g."""
    basis = _basis(ds).members
    reduced = np.einsum("naibi->nab", images.reshape(-1, ds, de, ds, de))
    reduced -= basis
    devs = np.linalg.svd(reduced, compute_uv=False).sum(axis=1)
    worst = int(np.argmax(devs))
    return float(devs[worst]), basis[worst].copy()


def _reference(images: np.ndarray, de: int) -> np.ndarray:
    return images[0, :de, :de].copy()


def check_trace_constraint(f: Lifting) -> float:
    """Max trace-norm deviation of tr_env(F(g)) from g over the Hermitian basis.

    Zero (within tolerance) exactly when F is a right inverse of the
    environment partial trace.
    """
    return _trace_deviations(f.ds, f.de, basis_images(f))[0]


def check_hermiticity_preserving(f: Lifting) -> float:
    """Max Frobenius deviation of F(g) from self-adjointness over the basis."""
    return float(np.max(_hermiticity_deviations(basis_images(f)), initial=0.0))


def extract_reference(f: Lifting) -> np.ndarray:
    """The (0, 0) environment block of the image of the corner basis element.

    For a product lifting this is the reference state itself; it is a purely
    diagnostic read-out and is defined for invalid liftings too.
    """
    return _reference(basis_images(f), f.de)


# ---------------------------------------------------------------------------
# positivity witness search
# ---------------------------------------------------------------------------


# The boundary mixtures of a pair are taken at u = 1 + t log-spaced in
# [1e-3, 1 + 1e3] and p = 1/u - 1, so every sampled (t, p) lies on the boundary
# curve (1+t)(1+p) = 1.  The family ends with _BACKSTOP random densities, the
# children of _BACKSTOP_SEED.
_BOUNDARY_U = np.logspace(np.log10(1e-3), np.log10(1.0 + 1e3), 40)
_T, _P = (_BOUNDARY_U - 1.0)[:, None, None], (1.0 / _BOUNDARY_U - 1.0)[:, None, None]
# A mixture's (k, l) block is [[1+t, b], [conj(b), 1+p]] with |b| = 1, exactly as
# computed.  As t and p are rounded, its determinant (1+t)(1+p) - 1 is not quite 0;
# when it is -d, the trace-normalized mixture has no eigenvalue below -d/2 - u.
# d is computed here to within 2u, so _DEFECT bounds it.
_DEFECT = max(0.0, float(np.max(1.0 - (1.0 + _T) * (1.0 + _P)))) + 2 * np.finfo(float).eps
_BACKSTOP, _BACKSTOP_SEED = 100, 7
# Screened chunks hold at most this many bytes of images.
_CHUNK_BYTES = 4 * 2**20


@lru_cache(maxsize=16)
def _backstop(ds: int) -> np.ndarray:
    """The family's random densities, stacked and read-only: shared by every search."""
    children = spawn_seeds(_BACKSTOP_SEED, _BACKSTOP)
    densities = np.stack([random_density(ds, seed=philox_rng(c)) for c in children])
    densities.setflags(write=False)
    return densities


def _family(ds: int):
    """The canonical witness family as sections ``(count, inputs, pair)``: the
    rank-one Hermitian basis, then for each pair k < l its boundary mixtures
    g_kl + t*g_kk + p*g_ll and g*_kl + t*g_kk + p*g_ll, then the seeded
    random densities.

    ``inputs(a, b)`` stacks members a..b-1 of a section, each with the same
    bits as when built on its own.  A section is set up when the search
    reaches it, and members are built only for the chunks that ask for them.
    ``pair`` is None, except for the mixtures of the q-th pair k < l, where it
    is q: every member is a state on span{e_k, e_l} whose trace-normalized form
    has no eigenvalue below -``_DEFECT``.
    """
    basis = _basis(ds)
    members = basis.members
    yield len(members), lambda a, b: members[a:b], None

    def mixtures(q, a, b):
        kk, ll, plain, star = basis.pairs[q]
        j, starred = np.divmod(np.arange(a, b), 2)  # plain and star at each t
        return members[np.where(starred, star, plain)] + _T[j] * members[kk] + _P[j] * members[ll]

    for q in range(len(basis.pairs)):
        yield 2 * len(_BOUNDARY_U), partial(mixtures, q), q

    densities = _backstop(ds)
    yield len(densities), lambda a, b: densities[a:b], None


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
    """A sufficient test that no member of a chunk has an image with an
    eigenvalue below -tol, tol = ``tolerances.psd``, cheaper than the
    per-member ``eigvalsh``, read from the basis images F(g_j) and their
    Hermiticity deviations dev_j.

    Write x for a trace-normalized member, with the bits ``apply_lifting``
    gets, and r for its coordinates Re x_kk, Re x_kl and Im x_kl (k < l).
    The Hermitian completion x~ of its upper triangle has the coordinates
    c = r, but for Re x_kk - sum_l (Re x_kl + Im x_kl) on g_kk.  One real
    GEMM over the images a chunk touches forms H = sum_j c_j F(g_j)^T, the
    transpose of F(x~), and the chunk passes when every H + (tol/2) I has a
    Cholesky factor.  A basis member's c is one-hot, so its H is exact.

    Write u for the unit roundoff, n for dim, m for ds^2, M_rc for the column
    that holds F(E_rc), N_j = sum_rc |g_j[r, c]| ||M_rc||, I = sum_j |c_j|
    ||F(g_j)||, R = sum_j |r_j| N_j, D = sum_j |c_j| dev_j, A = sum_rc |x_rc|
    ||M_rc|| and S = sum_rc |x_rc - conj(x_cr)| ||M_rc||, which is 0 but for
    random densities that differ from their adjoint in the last bits.  The
    GEMM is off by m u I, the images and c by (2 ds + 6) u R, the triangle that
    Cholesky reads by D/2 from the Hermitian part, F(x~) by S from F(x), and
    the exact path (GEMV, Hermitian part, ``eigvalsh``) by (m + n + 7) u A.
    A Cholesky factor proves lambda_min >= -tol/2 - n (n + 1) u (I + tol)
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.5).  So,
    with eps = 2u, a passing member that meets eps (n^2 + m + 10)
    (I + R + A + tol) + D + S <= tol/2 has no eigenvalue below -tol on the
    exact path.  The screen charges I, R and D as sum_j (|c_j| + |r_j|) w_j,
    with w_j = eps (n^2 + m + 10) (||F(g_j)|| + N_j) + dev_j, and sends a
    chunk with a member that breaks the bound to the exact path.
    """

    def __init__(self, f: Lifting, images: np.ndarray, deviations=None):
        m, n = f.ds**2, f.ds * f.de
        self.tol, self.dim = tolerances.psd, n
        self.basis = _basis(f.ds)
        # F(g_j)^T, which is how basis_images stores F(g_j), so no copy is made
        self.images = np.ascontiguousarray(images.transpose(0, 2, 1))
        self.stack = self.images.reshape(m, -1).view(np.float64)
        self.deviations = _hermiticity_deviations(images) if deviations is None else deviations
        flat = f.matrix.view(np.float64)  # the column norms ||M_rc||, without a squared copy
        self.norms = np.sqrt(np.einsum("ij,ij->j", flat, flat).reshape(m, 2).sum(axis=1))
        self.spread = np.abs(self.basis.members).reshape(m, m) @ self.norms  # |g_j| is symmetric
        self.slack = np.finfo(float).eps * (n**2 + m + 10)
        self.pair_slack = np.finfo(float).eps * (4 * n**2 + m + 16)
        image_norms = np.sqrt(np.einsum("ij,ij->i", self.stack, self.stack))
        self.weights = self.slack * (image_norms + self.spread) + self.deviations
        # every chunk's H is formed here, so a chunk allocates only its Cholesky factor
        self.cap = max(1, _CHUNK_BYTES // (16 * n * n))
        self.buffer = np.empty((self.cap, 2 * n * n))

    def passes(self, xs: np.ndarray) -> bool:
        xs = xs / np.trace(xs, axis1=1, axis2=2).real[:, None, None]
        n = len(xs)
        vecs = xs.transpose(0, 2, 1).reshape(n, -1)  # column-stacked, as in apply_lifting
        r = xs.view(np.float64).reshape(n, -1)[:, self.basis.coords]
        c = r.copy()
        c[:, self.basis.diag] = r @ self.basis.diagonal
        # A and S, from vec(x) and vec(x^dagger), then I, R and D
        margin = (self.slack * np.abs(vecs) + np.abs(vecs - xs.conj().reshape(n, -1))) @ self.norms
        margin += (np.abs(c) + np.abs(r)) @ self.weights
        if np.max(margin) + self.slack * self.tol > self.tol / 2:
            return False
        used = np.flatnonzero(c.any(axis=0))  # a slice when the images are adjacent
        span = slice(used[0], used[-1] + 1) if used[-1] + 1 - used[0] == len(used) else used
        h = np.matmul(c[:, span], self.stack[span], out=self.buffer[:n])
        return _has_cholesky(h.view(np.complex128).reshape(n, self.dim, self.dim), self.tol / 2)

    def block(self, q: int) -> np.ndarray:
        """B^T of :meth:`certifies`: F(g_kk)^T, F(g_ll)^T on the diagonal, F(E_kl)^T =
        (F(g_kl)^T - i F(g*_kl)^T - (1 - i) (F(g_kk)^T + F(g_ll)^T))/2 below, its adjoint above."""
        j, n = self.basis.pairs[q], self.dim
        block = np.empty((2 * n, 2 * n), dtype=np.complex128)
        block[:n, :n], block[n:, n:] = self.images[j[0]], self.images[j[1]]
        block[n:, :n] = (_OFF_DIAGONAL @ self.images[j].reshape(4, -1)).reshape(n, n)
        block[:n, n:] = block[n:, :n].conj().T
        return block

    def certifies(self, q: int) -> bool:
        """A sufficient test that no state on span{e_k, e_l}, for the q-th pair
        k < l, whose eigenvalues are >= -``_DEFECT`` has an image with an
        eigenvalue below -tol, made with one Cholesky factorization of the
        pair's Choi block.

        For psi = a e_k + b e_l, Herm F(psi psi^dagger) = V^dagger B V with
        B = [[P_kk, P_kl], [P_lk, P_ll]], P_rc = (F(E_rc) + F(E_cr)^dagger)/2,
        V = [conj(a) I; conj(b) I] and ||V||^2 = tr(psi psi^dagger).  So
        lambda_min(B) >= -delta gives lambda_min(Herm F(rho)) >= -delta tr(rho)
        for every positive rho on the span, and a Hermitian member x with
        eigenvalues >= -eta has lambda_min(Herm F(x)) >= -delta (tr(x) + 2 eta)
        - ||B|| eta.  ``_DEFECT`` bounds eta.

        :meth:`block` reads B^T from four images, and the triangle that
        Cholesky reads lies within 1.25 sum_j dev_j of it, over the four.
        With N = N_j of g_kl, ||B||_F <= N; the images and their recombination
        put about 25 u N into the block, the shift one more rounding.  A
        Cholesky factor of the block + (tol/2) I proves lambda_min >= -tol/2 -
        (2n (2n + 1) + 2) u (N + tol) (Higham, Thm 10.5), and the exact path
        is off by about (m + n + 7) u N.  So when eps (4 n^2 + m + 16) (N +
        tol) + 2 _DEFECT (N + tol) + 2 sum_j dev_j <= tol/2, no member of the
        pair has an eigenvalue below -tol on the exact path.
        """
        j = self.basis.pairs[q]
        scale = self.spread[j[2]] + self.tol
        if (self.pair_slack + 2 * _DEFECT) * scale + 2 * self.deviations[j].sum() > self.tol / 2:
            return False
        return _has_cholesky(self.block(q), self.tol / 2)


def positivity_witness_search(
    f: Lifting,
    *,
    images: np.ndarray | None = None,
    deviations: np.ndarray | None = None,
):
    """:class:`ViolatesPositivity` with the first trace-normalized input in the
    canonical family whose image has an eigenvalue below -``tolerances.psd``,
    or None if the whole family maps to positive operators.  ``images`` and
    ``deviations`` are ``basis_images(f)`` and the images' Hermiticity
    deviations, formed here when not given.

    The boundary mixtures of a pair k < l are skipped as a whole when the
    pair's Choi block passes :meth:`_Screen.certifies`, which is tried when
    the walk reaches the pair.  Everything else is walked in chunks that
    double from one member up to about 4 MB of images.  A chunk that passes
    the Cholesky screen of :class:`_Screen` is skipped; any other chunk is
    evaluated member by member with ``apply_lifting`` and ``eigvalsh``, in
    canonical order, so the witness and its eigenvalue are those of the exact
    path.
    """
    if images is None:
        images = basis_images(f)
    screen = _Screen(f, images, deviations)
    size = 1
    for count, inputs, pair in _family(f.ds):
        if pair is not None and screen.certifies(pair):
            continue
        a = 0
        while a < count:
            b = min(a + size, count)
            xs = inputs(a, b)
            if not screen.passes(xs):
                for x in xs:
                    state = x / np.trace(x).real
                    w = apply_lifting(f, state)
                    lam = float(np.linalg.eigvalsh((w + w.conj().T) / 2)[0])
                    if lam < -screen.tol:
                        return ViolatesPositivity(state, lam)
            a, size = b, min(2 * size, screen.cap)
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


def _off_support_mass(blocks: np.ndarray, support) -> float:
    masked = blocks.copy()
    masked[tuple(np.transpose(support))] = 0.0
    return float(np.linalg.norm(masked))


def _structure(ds: int, de: int, images: np.ndarray) -> StructureReport:
    a = _reference(images, de)
    basis = _basis(ds)
    diag_off = {}
    diag_ref = {}
    for k in range(ds):
        blocks = components(images[basis.diag[k]], ds, de)
        diag_off[k] = _off_support_mass(blocks, [(k, k)])
        diag_ref[k] = frobenius(blocks[k, k] - a)
    pairs = {}
    for k, l, (_, _, plain, star) in zip(basis.k.tolist(), basis.l.tolist(), basis.pairs):
        support = [(k, k), (k, l), (l, k), (l, l)]
        blocks = components(images[plain], ds, de)
        sblocks = components(images[star], ds, de)
        carried = [blocks[k, k], blocks[k, l], blocks[l, k], blocks[l, l]]
        mismatch = max(
            frobenius(x - y) for i, x in enumerate(carried) for y in carried[i + 1 :]
        )
        phase = max(
            frobenius(sblocks[k, k] - (-1j) * sblocks[k, l]),
            frobenius(sblocks[k, k] - 1j * sblocks[l, k]),
            frobenius(sblocks[k, k] - sblocks[l, l]),
        )
        ref = max(
            frobenius(blocks[k, l] - a),
            frobenius((-1j) * sblocks[k, l] - a),
            frobenius(sblocks[k, k] - a),
        )
        pairs[(k, l)] = PairStructure(
            off_support=_off_support_mass(blocks, support),
            off_support_star=_off_support_mass(sblocks, support),
            component_mismatch=mismatch,
            phase_mismatch=phase,
            reference_mismatch=ref,
        )
    return StructureReport(diag_off, diag_ref, pairs)


def structure_report(f: Lifting) -> StructureReport:
    """Block diagnostics of the basis images.

    For a map that preserves Hermiticity, respects the partial-trace
    constraint and maps the witness family to positive operators, every
    reported deviation vanishes: images of diagonal basis elements live in a
    single block, images of pair elements live in four equal blocks (with the
    +-i phases for the star family), and all carried blocks agree with the
    corner block a = F(g_00)^{00}.
    """
    return _structure(f.ds, f.de, basis_images(f))


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
    threshold; indicates a tolerance problem or a positivity violation below
    the search's resolution, never a valid non-product lifting."""

    residual: float


def _residual(ds: int, images: np.ndarray, reference: np.ndarray) -> float:
    products = (g[:, None, :, None] * reference[:, None, :] for g in _basis(ds).members)
    deviations = (frobenius(w - p.reshape(w.shape)) for p, w in zip(products, images))
    return max(deviations, default=0.0)


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
    trace_deviation: float
    images: np.ndarray  # basis_images of the lifting

    @property
    def structure(self) -> StructureReport:
        return _structure(self.ds, self.de, self.images)

    @property
    def reference(self) -> np.ndarray:
        return _reference(self.images, self.de)


def _verdict(f, images, deviations, herm, trace, tol):
    if herm > tolerances.hermitian:
        return ViolatesHermiticity(herm)
    if trace[0] > tolerances.trace:
        return ViolatesTrace(*trace)
    witness = positivity_witness_search(f, images=images, deviations=deviations)
    if witness is not None:
        return witness
    reference = _reference(images, f.de)
    residual = _residual(f.ds, images, reference)
    if residual <= tol:
        return Product(reference, residual)
    return Inconclusive(residual)


def analysis_report(f: Lifting, tol: float | None = None) -> AnalysisReport:
    """:func:`analyze` with the deviations and basis images it read."""
    if tol is None:
        tol = default_residual_tol()
    images = basis_images(f)
    deviations = _hermiticity_deviations(images)
    herm = float(np.max(deviations, initial=0.0))
    trace = _trace_deviations(f.ds, f.de, images)
    verdict = _verdict(f, images, deviations, herm, trace, tol)
    return AnalysisReport(f.ds, f.de, verdict, herm, trace[0], images)


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
        if v < 0:
            raise ConstraintViolation(f"{name} must be nonnegative, got {v}")
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
    (dim, dim, ds^2) stack of transposed images, projected by an einsum over
    its (ds, de, ds, de) blocks: O((ds*de)^2 * ds^2) time and memory.
    """
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
    return np.divide(blocks, norm, out=blocks).reshape(dim * dim, n)


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
