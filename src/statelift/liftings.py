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
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .config import KRAUS_TOL, default_residual_tol, tolerances
from .errors import ConstraintViolation, DimensionMismatch
from .linalg import frobenius, kron, matrix_unit, unvec, vec
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
    m = np.empty((dim * dim, ds * ds), dtype=np.complex128)
    for c in range(ds):
        for r in range(ds):
            y = kron(matrix_unit(r, c, ds), d)
            m[:, c * ds + r] = vec(sum(k @ y @ k.conj().T for k in ks))
    return Lifting(ds, de, m)


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
    """The canonical Hermitian basis as a stack, with where its members sit:
    ``diag[k]`` is the position of g_kk; the q-th pair k < l in row-major
    order has k = ``k[q]``, l = ``l[q]`` and g_kl, g*_kl at ``plain[q]``,
    ``star[q]``."""

    members: np.ndarray
    diag: np.ndarray
    k: np.ndarray
    l: np.ndarray
    plain: np.ndarray
    star: np.ndarray


@lru_cache(maxsize=16)
def _basis(ds: int) -> _Basis:
    rows, cols = np.triu_indices(ds)
    k, l = np.triu_indices(ds, 1)
    star = len(rows) + np.arange(len(k))
    members = np.stack(hermitian_basis(ds))
    basis = _Basis(members, np.flatnonzero(rows == cols), k, l, np.flatnonzero(rows != cols), star)
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


def _hermiticity_deviation(images: np.ndarray) -> float:
    return max((frobenius(w - w.conj().T) for w in images), default=0.0)


def _trace_deviations(ds: int, de: int, images: np.ndarray):
    """Trace-norm deviations of tr_env(F(g)) from g: the worst and its g."""
    basis = _basis(ds).members
    reduced = np.einsum("naibi->nab", images.reshape(-1, ds, de, ds, de))
    devs = np.linalg.svd(reduced - basis, compute_uv=False).sum(axis=1)
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
    return _hermiticity_deviation(basis_images(f))


def extract_reference(f: Lifting) -> np.ndarray:
    """The (0, 0) environment block of the image of the corner basis element.

    For a product lifting this is the reference state itself; it is a purely
    diagnostic read-out and is defined for invalid liftings too.
    """
    return _reference(basis_images(f), f.de)


# ---------------------------------------------------------------------------
# positivity witness search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessConfig:
    """Grid for the positivity search.

    ``num_t`` boundary points are taken with u = 1 + t log-spaced in
    [u_min, 1 + t_max] and p = 1/u - 1, so every sampled (t, p) lies on the
    boundary curve (1+t)(1+p) = 1; ``extra`` seeded random densities are
    appended as a backstop.
    """

    num_t: int = 40
    u_min: float = 1e-3
    t_max: float = 1e3
    extra: int = 100
    seed: int = 7


@dataclass(frozen=True, eq=False)
class Witness:
    state: np.ndarray  # unit-trace positive input whose image is negative
    min_eigenvalue: float


# Screened chunks hold at most this many bytes of images.
_CHUNK_BYTES = 4 * 2**20


def _family(ds: int, config: WitnessConfig):
    """The canonical witness family as sections ``(count, inputs, pair)``: the
    rank-one Hermitian basis, then for each pair k < l its boundary mixtures
    g_kl + t*g_kk + p*g_ll and g*_kl + t*g_kk + p*g_ll, then ``extra`` seeded
    random densities.

    ``inputs(a, b)`` stacks members a..b-1 of a section, each with the same
    bits as when built on its own.  A section is set up when the search
    reaches it, and members are built only for the chunks that ask for them.
    ``pair`` is None, except for the mixtures of k < l, where it is
    ``(k, l, defect)``: every member is a state on span{e_k, e_l} whose
    trace-normalized form has no eigenvalue below -defect.
    """
    basis = _basis(ds)
    members = basis.members
    yield len(members), lambda a, b: members[a:b], None

    us = np.logspace(np.log10(config.u_min), np.log10(1.0 + config.t_max), config.num_t)
    t, p = (us - 1.0)[:, None, None], (1.0 / us - 1.0)[:, None, None]
    # A member's (k, l) block is [[1+t, b], [conj(b), 1+p]] with |b| = 1, exactly
    # as computed here.  As t and p are rounded, its determinant (1+t)(1+p) - 1
    # is not quite 0; when it is -d, the trace-normalized member has no
    # eigenvalue below -d/2 - u, and d is computed here to within 2u.
    defect = max(0.0, float(np.max(1.0 - (1.0 + t) * (1.0 + p)))) + 2 * np.finfo(float).eps

    def mixtures(q, a, b):
        j, star = np.divmod(np.arange(a, b), 2)  # plain and star at each t
        g = members[np.where(star, basis.star[q], basis.plain[q])]
        return g + t[j] * members[basis.diag[basis.k[q]]] + p[j] * members[basis.diag[basis.l[q]]]

    for q, (k, l) in enumerate(zip(basis.k, basis.l)):
        yield 2 * len(us), partial(mixtures, q), (int(k), int(l), defect)

    children = spawn_seeds(config.seed, max(config.extra, 0))

    def densities(a, b):
        return np.stack([random_density(ds, seed=philox_rng(c)) for c in children[a:b]])

    yield len(children), densities, None


class _Screen:
    """A sufficient test that no member of a chunk has an image with an
    eigenvalue below -tol, cheaper than the per-member ``eigvalsh``.

    Write M_rc for the column of the lifting matrix that holds F(E_rc), and
    x for a trace-normalized member, with the bits ``apply_lifting`` gets.
    The screen stores the Hermitian matrix-unit images
    P_rc = (F(E_rc) + F(E_cr)^dagger)/2, transposed, and forms
    H = sum_rc x_rc P_rc = (F(x) + F(x^dagger)^dagger)/2 for a whole chunk
    with one GEMM over the units the chunk touches.  H comes out transposed,
    which is its complex conjugate and has the same Cholesky verdict.  The
    chunk passes when every H has a Cholesky factor of H + (tol/2) I.

    The tol/2 margin covers rounding and the members' asymmetry.  Write u
    for the unit roundoff, n for dim, m for ds^2, A = sum_rc |x_rc| ||M_rc||
    and S = sum_rc |x_rc - conj(x_cr)| ||M_rc||, which is 0 except for random
    densities that differ from their adjoint in the last bits.  Then
    ||F(x)||_F <= A, and H lies within S/2 of the Hermitian part of F(x).
    The exact path's image of x (one GEMV, then the Hermitian part) lies
    within about (m + 6) u A of that part in Frobenius norm.  The computed H,
    whose P_rc carry one rounding each and of which Cholesky reads one
    triangle, lies within about sqrt(2) (m + 7) u (A + S) of H.  A Cholesky
    factorization that succeeds proves lambda_min >= -tol/2 - n (n + 1) u
    (A + tol) (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.5), and ``eigvalsh`` is off by about n u A.  So when
    eps (n^2 + m + 10) (A + tol) + S/2 <= tol/2, with eps = 2u, a passing
    member is one the exact path finds no eigenvalue below -tol for.  A
    chunk with a member that breaks that bound goes to the exact path.
    """

    def __init__(self, f: Lifting, tol: float):
        ds, m = f.ds, f.ds**2
        self.tol, self.ds, self.dim = tol, ds, f.ds * f.de
        # units[c, r] is column c*ds + r of the matrix: the transposed image of E_rc
        units = f.matrix.T.reshape(ds, ds, self.dim, self.dim)
        parts = np.conj(units.transpose(1, 0, 3, 2), order="C")
        parts += units
        parts /= 2
        self.parts = parts.reshape(m, -1)
        flat = f.matrix.view(np.float64)  # the column norms ||M_rc||, without a squared copy
        self.norms = np.sqrt(np.einsum("ij,ij->j", flat, flat).reshape(m, 2).sum(axis=1))
        self.slack = np.finfo(float).eps * (self.dim**2 + m + 10)
        self.pair_slack = np.finfo(float).eps * (4 * self.dim**2 + m + 10)
        # every chunk's H is formed here, so a chunk allocates only its Cholesky factor
        self.cap = max(1, _CHUNK_BYTES // (16 * self.dim**2))
        self.buffer = np.empty((self.cap, self.dim**2), dtype=np.complex128)

    def passes(self, xs: np.ndarray) -> bool:
        xs = xs / np.trace(xs, axis1=1, axis2=2).real[:, None, None]
        n = len(xs)
        vecs = xs.transpose(0, 2, 1).reshape(n, -1)  # column-stacked, as in apply_lifting
        skew = np.abs(vecs - xs.conj().reshape(n, -1)) @ self.norms  # S, from vec(x^dagger)
        if np.max(self.slack * (np.abs(vecs) @ self.norms + self.tol) + skew / 2) > self.tol / 2:
            return False
        used = np.flatnonzero(vecs.any(axis=0))
        parts = self.parts if len(used) == len(self.parts) else self.parts[used]
        h = np.matmul(vecs[:, used], parts, out=self.buffer[:n]).reshape(n, self.dim, self.dim)
        diag = np.arange(self.dim)
        h[:, diag, diag] += self.tol / 2
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            return False
        return True

    def certifies(self, k: int, l: int, defect: float) -> bool:
        """A sufficient test that no state on span{e_k, e_l} whose eigenvalues
        are >= -``defect`` has an image with an eigenvalue below -tol, made
        with one Cholesky factorization of the pair's Choi block.

        For psi = a e_k + b e_l, H(psi psi^dagger) = V^dagger B V with
        B = [[P_kk, P_kl], [P_lk, P_ll]], of size 2n, V = [conj(a) I; conj(b) I]
        and ||V||^2 = tr(psi psi^dagger).  So lambda_min(B) >= -delta gives
        lambda_min(H(rho)) >= -delta tr(rho) for every positive rho on the
        span, and a Hermitian member x with eigenvalues >= -eta has
        lambda_min(H(x)) >= -delta (tr(x) + 2 eta) - ||B|| eta.  B comes
        conjugated, as B^T, from ``parts``, and ``defect`` bounds eta.

        Write N for the sum of the column norms ||M_rc|| with r, c in {k, l},
        so that ||B||_F <= N, and |x_rc| <= 1 for a trace-normalized x.  The
        computed B carries one rounding per entry (u N in norm), the tol/2
        shift one more.  A Cholesky factorization of B + (tol/2) I at size 2n
        that succeeds proves lambda_min(B) >= -tol/2 - (2n (2n + 1) + 2)
        u (N + tol) (Higham, Thm 10.5).  The exact path's GEMV, Hermitian
        part and ``eigvalsh`` are off by about (m + n + 7) u N.  So when
        eps (4 n^2 + m + 10) (N + tol) + 2 defect (N + tol) <= tol/2, with
        eps = 2u, no member of the pair has an eigenvalue below -tol on the
        exact path, and the pair may be skipped.
        """
        units = [k * self.ds + k, k * self.ds + l, l * self.ds + k, l * self.ds + l]
        scale = self.norms[units].sum() + self.tol
        if (self.pair_slack + 2 * defect) * scale > self.tol / 2:
            return False
        n = self.dim
        block = self.parts[units].reshape(2, 2, n, n).transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
        diag = np.arange(2 * n)
        block[diag, diag] += self.tol / 2
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return False
        return True


def positivity_witness_search(
    f: Lifting,
    tol: float | None = None,
    config: WitnessConfig | None = None,
):
    """First trace-normalized input in the canonical family whose image has an
    eigenvalue below -tol, or None if the whole family maps to positive
    operators.

    The boundary mixtures of a pair k < l are skipped as a whole when the
    pair's Choi block passes :meth:`_Screen.certifies`, which is tried when
    the walk reaches the pair.  Everything else is walked in chunks that
    double from one member up to about 4 MB of images.  A chunk that passes
    the Cholesky screen of :class:`_Screen` is skipped; any other chunk is
    evaluated member by member with ``apply_lifting`` and ``eigvalsh``, in
    canonical order, so the witness and its eigenvalue are those of the exact
    path.
    """
    if tol is None:
        tol = tolerances.psd
    if config is None:
        config = WitnessConfig()
    screen = _Screen(f, tol)
    size = 1
    for count, inputs, pair in _family(f.ds, config):
        if pair is not None and screen.certifies(*pair):
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
                    if lam < -tol:
                        return Witness(state, lam)
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
        worst = 0.0
        for v in self.diag_off_support.values():
            worst = max(worst, v)
        for v in self.diag_reference_mismatch.values():
            worst = max(worst, v)
        for p in self.pairs.values():
            worst = max(
                worst,
                p.off_support,
                p.off_support_star,
                p.component_mismatch,
                p.phase_mismatch,
                p.reference_mismatch,
            )
        return worst


def _off_support_mass(blocks: np.ndarray, support) -> float:
    masked = blocks.copy()
    for k, l in support:
        masked[k, l] = 0.0
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
    for q, (k, l) in enumerate(combinations(range(ds), 2)):
        support = [(k, k), (k, l), (l, k), (l, l)]
        blocks = components(images[basis.plain[q]], ds, de)
        sblocks = components(images[basis.star[q]], ds, de)
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
    return max(
        (frobenius(w - kron(g, reference)) for g, w in zip(_basis(ds).members, images)),
        default=0.0,
    )


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


def _verdict(f, images, herm, trace, tol, witness_config):
    if herm > tolerances.hermitian:
        return ViolatesHermiticity(herm)
    if trace[0] > tolerances.trace:
        return ViolatesTrace(*trace)
    witness = positivity_witness_search(f, config=witness_config)
    if witness is not None:
        return ViolatesPositivity(witness.state, witness.min_eigenvalue)
    reference = _reference(images, f.de)
    residual = _residual(f.ds, images, reference)
    if residual <= tol:
        return Product(reference, residual)
    return Inconclusive(residual)


def analysis_report(
    f: Lifting,
    tol: float | None = None,
    witness_config: WitnessConfig | None = None,
) -> AnalysisReport:
    """:func:`analyze` with the deviations and basis images it read."""
    if tol is None:
        tol = default_residual_tol()
    images = basis_images(f)
    herm = _hermiticity_deviation(images)
    trace = _trace_deviations(f.ds, f.de, images)
    verdict = _verdict(f, images, herm, trace, tol, witness_config)
    return AnalysisReport(f.ds, f.de, verdict, herm, trace[0], images)


def analyze(
    f: Lifting,
    tol: float | None = None,
    witness_config: WitnessConfig | None = None,
):
    """Classify a lifting: hermiticity -> trace -> positivity -> factorization."""
    return analysis_report(f, tol, witness_config).verdict


# ---------------------------------------------------------------------------
# the diagonal-mixing positivity criterion
# ---------------------------------------------------------------------------


def diag_mixing_positive(a: float, b: float, c: float, tol: float = 1e-12) -> bool:
    """Closed form for the inclusion of the region (1+t)(1+p) >= 1, t+1 >= 0
    in the region (b+at)(b+cp) >= b^2, b+at >= 0: holds iff a = c <= b."""
    for name, v in (("a", a), ("b", b), ("c", c)):
        if v < 0:
            raise ConstraintViolation(f"{name} must be nonnegative, got {v}")
    return abs(a - c) <= tol and a <= b + tol


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
    g_inv = np.linalg.inv(np.column_stack([vec(h) for h in hermitian_basis(ds)]))
    rows, cols = np.triu_indices(dim)
    pair_rows, pair_cols = np.triu_indices(dim, 1)
    off = rows != cols
    for _ in range(8):
        g, star = np.split(rng.standard_normal((dim * dim, n)), [len(rows)])
        # transposed images, so that entry [c, r] sits at vec index c*dim + r
        images = np.zeros((dim, dim, n), dtype=np.complex128)
        images[rows, cols] = g
        images[pair_rows, pair_cols] -= 1j * star
        images[pair_cols, pair_rows] = g[off] + 1j * star
        # member (k, l), k < l, and its star also carry ones at (k, k) and (l, l)
        ends = np.zeros((dim, dim, n))
        ends[pair_rows, pair_cols] = g[off] + star
        images[np.diag_indices(dim)] += ends.sum(0) + ends.sum(1)
        blocks = (images.reshape(dim * dim, n) @ g_inv).reshape(ds, de, ds, de, n)
        p = np.einsum("aibic->abc", blocks) / de
        blocks -= np.einsum("abc,ij->aibjc", p, np.eye(de))
        norm = float(np.linalg.norm(blocks))
        if norm > 1e-9:
            return blocks.reshape(dim * dim, n) / norm
    raise ConstraintViolation("could not draw a non-degenerate perturbation")


def perturbed_product_lifting(reference: np.ndarray, ds: int, eps: float, seed) -> Lifting:
    """Product lifting plus eps times a random constraint-respecting direction."""
    base = product_lifting(reference, ds)
    delta = random_perturbation(ds, base.de, seed)
    return Lifting(ds, base.de, base.matrix + eps * delta)


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
