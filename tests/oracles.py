"""Independent brute-force oracles used to cross-check the library.

Everything here is computed by a route different from the implementation
under test: explicit index loops for partial traces and tensor products,
characteristic-polynomial coefficients (principal-minor sums) for positivity,
Gram-root singular values for the trace norm, dense superoperator and
permutation matrices for liftings, perturbations and adjoints, the
perturbation with ``np.linalg.inv`` of the stacked Hermitian basis, the
perturbed lifting as the sum of two dense matrices, and
per-matrix-unit loops for Choi matrices, a full Choi ``eigvalsh`` for the
CP margin, reduced dynamics and Kraus liftings, dense Kronecker products for
the unit-reduction check, observable reduction, the product residual and
purification, one ``np.linalg.norm`` per item for the analyzer's structure,
residual, Hermiticity and unit-reduction diagnostics, basis images formed one
member at a time, pair Choi blocks from Hermitian matrix-unit images, pair
seeds with the top singular vector from a 2 x 2 ``eigh`` and a dense V, one
``apply_lifting`` and ``eigvalsh`` per candidate for the positivity witness
search (and for the grid-and-backstop family it replaced), a dense grid scan
for the diagonal-mixing criterion, the block components and the adjoint of a
reduction map as reindexings, the pair slack from a dense product of every
basis member with the column norms, one-shot Gaussian draws with three-index
einsum estimators and a single-GEMM
empirical state, file text formatted one entry at a time, and files read one
line at a time with float().
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from statelift.config import tolerances
from statelift.errors import ConstraintViolation, FormatError
from statelift.liftings import (
    Lifting,
    PairStructure,
    StructureReport,
    ViolatesPositivity,
    _basis,
    apply_lifting,
    basis_images,
    product_lifting,
)
from statelift.linalg import spectral
from statelift.measures import gaussian_sampler
from statelift.rng import philox_rng, spawn_seeds
from statelift.states import (
    basis_g,
    basis_g_star,
    hermitian_basis,
    numerical_rank,
    random_density,
)

# shared test helpers, not oracles: numpy's Kronecker product and the matrix units
kron = np.kron


def matrix_unit(r: int, c: int, dim: int) -> np.ndarray:
    """The matrix unit E_rc."""
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[r, c] = 1.0
    return m


def kron_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, n = a.shape[0], b.shape[0]
    out = np.zeros((m * n, m * n), dtype=np.complex128)
    for ra in range(m):
        for ca in range(m):
            for rb in range(n):
                for cb in range(n):
                    out[ra * n + rb, ca * n + cb] = a[ra, ca] * b[rb, cb]
    return out


def ptrace_env_loops(w: np.ndarray, ds: int, de: int) -> np.ndarray:
    out = np.zeros((ds, ds), dtype=np.complex128)
    for k in range(ds):
        for l in range(ds):
            for i in range(de):
                out[k, l] += w[k * de + i, l * de + i]
    return out


def ptrace_sys_loops(w: np.ndarray, ds: int, de: int) -> np.ndarray:
    out = np.zeros((de, de), dtype=np.complex128)
    for i in range(de):
        for j in range(de):
            for k in range(ds):
                out[i, j] += w[k * de + i, k * de + j]
    return out


def product_lifting_loops(reference: np.ndarray, ds: int) -> np.ndarray:
    """Lifting matrix of rho -> rho (x) reference: column c*ds + r is the
    column stacking of E_rc (x) reference, one Kronecker product per unit."""
    de = reference.shape[0]
    m = np.zeros(((ds * de) ** 2, ds * ds), dtype=np.complex128)
    for c in range(ds):
        for r in range(ds):
            unit = np.zeros((ds, ds), dtype=np.complex128)
            unit[r, c] = 1.0
            m[:, c * ds + r] = kron_loops(unit, reference).T.ravel()
    return m


def ptrace_env_superop(ds: int, de: int) -> np.ndarray:
    """Dense matrix P with P @ vec(W) = vec(tr_env(W))."""
    dim = ds * de
    p = np.zeros((ds * ds, dim * dim), dtype=np.complex128)
    for k in range(ds):
        for l in range(ds):
            row = l * ds + k
            for i in range(de):
                p[row, (l * de + i) * dim + (k * de + i)] = 1.0
    return p


def random_perturbation_dense(ds: int, de: int, seed) -> np.ndarray:
    """The perturbation direction of ``liftings.random_perturbation`` from the
    same Philox draws, built with dense matrices: the stacked composite
    Hermitian basis, the dense partial-trace superoperator and the dense
    Id/de product lifting.  Memory is O((ds*de)^4); keep ds*de <= 32."""
    rng = philox_rng(seed)
    src = hermitian_basis(ds)
    dst = hermitian_basis(ds * de)
    g_cols = np.column_stack([h.T.ravel() for h in src])
    h_cols = np.column_stack([h.T.ravel() for h in dst])
    ptr = ptrace_env_superop(ds, de)
    embed = product_lifting_loops(np.eye(de, dtype=np.complex128) / de, ds)
    for _ in range(8):
        r = rng.standard_normal((len(dst), len(src)))
        m = h_cols @ r @ np.linalg.inv(g_cols)
        m -= embed @ (ptr @ m)
        norm = float(np.linalg.norm(m))
        if norm > 1e-9:
            return m / norm
    raise AssertionError("could not draw a non-degenerate perturbation")


def random_perturbation_inv(ds: int, de: int, seed) -> np.ndarray:
    """``liftings.random_perturbation`` as it was built with ``np.linalg.inv`` of
    the stacked Hermitian basis and fresh ``np.triu_indices`` on every call: the
    same scatter and the same GEMM, so its bits are the reference."""
    rng = philox_rng(seed)
    dim, n = ds * de, ds * ds
    g_inv = np.linalg.inv(np.column_stack([h.T.ravel() for h in hermitian_basis(ds)]))
    rows, cols = np.triu_indices(dim)
    pair_rows, pair_cols = np.triu_indices(dim, 1)
    off = rows != cols
    for _ in range(8):
        g, star = np.split(rng.standard_normal((dim * dim, n)), [len(rows)])
        images = np.zeros((dim, dim, n), dtype=np.complex128)
        images[rows, cols] = g
        images[pair_rows, pair_cols] -= 1j * star
        images[pair_cols, pair_rows] = g[off] + 1j * star
        ends = np.zeros((dim, dim, n))
        ends[pair_rows, pair_cols] = g[off] + star
        images[np.diag_indices(dim)] += ends.sum(0) + ends.sum(1)
        blocks = (images.reshape(dim * dim, n) @ g_inv).reshape(ds, de, ds, de, n)
        p = np.einsum("aibic->abc", blocks) / de
        blocks -= np.einsum("abc,ij->aibjc", p, np.eye(de))
        norm = float(np.linalg.norm(blocks))
        if norm > 1e-9:
            return blocks.reshape(dim * dim, n) / norm
    raise AssertionError("could not draw a non-degenerate perturbation")


def perturbed_product_lifting_sum(reference: np.ndarray, ds: int, eps: float, seed) -> np.ndarray:
    """The matrix of ``liftings.perturbed_product_lifting`` as it was built: the
    dense product lifting plus eps times the perturbation, so its bits are the
    reference, -0.0 read as +0.0 where the product lifting holds zeros."""
    de = np.asarray(reference).shape[0]
    return product_lifting(reference, ds).matrix + eps * random_perturbation_inv(ds, de, seed)


def transpose_permutation(d: int) -> np.ndarray:
    """Dense permutation T with T @ vec(X) = vec(X^T)."""
    t = np.zeros((d * d, d * d), dtype=np.complex128)
    for r in range(d):
        for c in range(d):
            t[c * d + r, r * d + c] = 1.0
    return t


def choi_matrix_loops(channel: np.ndarray, d: int) -> np.ndarray:
    """sum_ij Lambda(E_ij) (x) E_ij, with Lambda(E_ij) read off column j*d + i
    of the channel matrix: one dense Kronecker product per matrix unit."""
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=np.complex128)
            unit[i, j] = 1.0
            choi += np.kron(channel[:, j * d + i].reshape(d, d).T, unit)
    return choi


def choi_min_eigenvalue_full(channel: np.ndarray, d: int) -> float:
    """lambda_min of the full d^2 x d^2 Choi matrix: eigvalsh of the Hermitian
    part of the per-matrix-unit Kronecker sum."""
    choi = choi_matrix_loops(channel, d)
    return float(np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0])


def reduced_dynamics_loops(u: np.ndarray, lift, ds: int, de: int) -> np.ndarray:
    """Channel matrix of rho -> tr_env(U lift(rho) U^dagger), one matrix unit
    per column: lift E_rc (e.g. ``lambda x: np.kron(x, reference)``), conjugate
    by U, trace out the environment and column-stack into column c*ds + r."""
    m = np.zeros((ds * ds, ds * ds), dtype=np.complex128)
    for c in range(ds):
        for r in range(ds):
            unit = np.zeros((ds, ds), dtype=np.complex128)
            unit[r, c] = 1.0
            w = u @ lift(unit) @ u.conj().T
            out = np.trace(w.reshape(ds, de, ds, de), axis1=1, axis2=3)
            m[:, c * ds + r] = out.T.ravel()
    return m


def kraus_lifting_loops(ks, reference: np.ndarray, ds: int) -> np.ndarray:
    """Lifting matrix of rho -> sum_n K_n (rho (x) reference) K_n^dagger:
    column c*ds + r is the column stacking of the image of E_rc (x) reference,
    one dense Kronecker product and 2n GEMMs per matrix unit."""
    de = reference.shape[0]
    dim = ds * de
    m = np.empty((dim * dim, ds * ds), dtype=np.complex128)
    for c in range(ds):
        for r in range(ds):
            unit = np.zeros((ds, ds), dtype=np.complex128)
            unit[r, c] = 1.0
            y = np.kron(unit, reference)
            m[:, c * ds + r] = sum(k @ y @ k.conj().T for k in ks).T.ravel()
    return m


def unit_reduction_loops(r) -> float:
    """Max Frobenius deviation of R(B (x) Id) from B over the Hermitian basis,
    one dense Kronecker product and one GEMV over the whole reduction matrix
    per basis member."""
    worst = 0.0
    for b in hermitian_basis(r.ds):
        image = r.matrix @ np.kron(b, np.eye(r.de)).T.ravel()
        worst = max(worst, float(np.linalg.norm(image.reshape(r.ds, r.ds).T - b)))
    return worst


def reduce_observable_kron(a: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """tr_env(A (Id (x) reference)) with a dense Kronecker product and GEMM."""
    de = reference.shape[0]
    ds = a.shape[0] // de
    return ptrace_env_loops(a @ np.kron(np.eye(ds), reference), ds, de)


def residual_kron(ds: int, images: np.ndarray, reference: np.ndarray) -> float:
    """Max Frobenius distance of each basis image from g (x) reference, with
    one dense Kronecker product per member."""
    return max(
        (float(np.linalg.norm(w - np.kron(g, reference)))
         for g, w in zip(hermitian_basis(ds), images)),
        default=0.0,
    )


def frobenius(a: np.ndarray) -> float:
    """One item's Frobenius norm, as ``np.linalg.norm`` computes it."""
    return float(np.linalg.norm(np.asarray(a)))


# The analyzer's diagnostics one Frobenius norm per item, as the package
# computed them before its stacked passes; every value must keep its bits.


def hermiticity_deviations_loops(images: np.ndarray) -> np.ndarray:
    """||F(g) - F(g)^dagger||_F for every basis image F(g)."""
    return np.array([frobenius(w - w.conj().T) for w in images])


def residual_loops(ds: int, images: np.ndarray, reference: np.ndarray) -> float:
    products = (g[:, None, :, None] * reference[:, None, :] for g in _basis(ds).members)
    deviations = (frobenius(w - p.reshape(w.shape)) for p, w in zip(products, images))
    return max(deviations, default=0.0)


def unit_reduction_per_image(r) -> float:
    """Max deviation of R(B (x) Id) from B over the Hermitian basis, one norm
    per basis image of U - Id read as a lifting with de = 1."""
    ds = r.ds
    u = np.einsum("obiai->oba", r.matrix.reshape(ds * ds, ds, r.de, ds, r.de))
    u = u.reshape(ds * ds, ds * ds)
    u[np.diag_indices(ds * ds)] -= 1.0
    return max((frobenius(w) for w in basis_images(Lifting(ds, 1, u))), default=0.0)


def _off_support_mass(blocks: np.ndarray, support) -> float:
    masked = blocks.copy()
    masked[tuple(np.transpose(support))] = 0.0
    return float(np.linalg.norm(masked))


def structure_loops(ds: int, de: int, images: np.ndarray) -> StructureReport:
    a = images[0, :de, :de].copy()  # the corner block of F(g_00)
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


def purify_kron(s: np.ndarray, de: int) -> np.ndarray:
    """sum_i sqrt(lambda_i) u_i (x) f_i accumulated one Kronecker product per
    spectral pair, normalized."""
    dec = spectral(s)
    rank = numerical_rank(s)
    a = np.zeros(s.shape[0] * de, dtype=np.complex128)
    for i in range(rank):
        f = np.zeros(de, dtype=np.complex128)
        f[i] = 1.0
        a += np.sqrt(max(float(dec.eigenvalues[i]), 0.0)) * np.kron(dec.vectors[:, i], f)
    return a / np.linalg.norm(a)


def basis_images_per_member(f) -> np.ndarray:
    """F(g) for each Hermitian basis member on its own, from the images of the
    matrix units (the unvec'd columns): g_kk is E_kk's; g_kl and g*_kl are
    (E_kl + E_lk) + (E_kk + E_ll) and i (E_kl - E_lk) + (E_kk + E_ll), summed
    in this order."""
    ds, dim = f.ds, f.ds * f.de

    def image(r, c):
        return f.matrix[:, c * ds + r].reshape(dim, dim, order="F")

    out = []
    for k in range(ds):
        out.append(image(k, k))
        for l in range(k + 1, ds):
            out.append((image(k, l) + image(l, k)) + (image(k, k) + image(l, l)))
    for k in range(ds):
        for l in range(k + 1, ds):
            out.append((image(k, l) - image(l, k)) * 1j + (image(k, k) + image(l, l)))
    return np.ascontiguousarray(np.stack(out))


def pair_block_parts(f, k: int, l: int) -> np.ndarray:
    """B_kl^T for the pair k < l, from the Hermitian matrix-unit images
    P_rc = (F(E_rc) + F(E_cr)^dagger)/2 of the columns of the lifting matrix:
    the transpose of [[P_kk, P_kl], [P_lk, P_ll]]."""
    ds, dim = f.ds, f.ds * f.de
    # units[c, r] is column c*ds + r of the matrix: the transposed image of E_rc
    units = f.matrix.T.reshape(ds, ds, dim, dim)
    parts = np.conj(units.transpose(1, 0, 3, 2), order="C")
    parts += units
    parts /= 2
    parts = parts.reshape(ds * ds, dim, dim)
    picked = parts[[k * ds + k, k * ds + l, l * ds + k, l * ds + l]]
    return picked.reshape(2, 2, dim, dim).transpose(0, 2, 1, 3).reshape(2 * dim, 2 * dim)


def pair_seed_loops(f, k: int, l: int) -> np.ndarray:
    """The seed psi psi^dagger of the pair k < l: v, the lowest eigenvector of the Choi block
    B of :func:`pair_block_parts`, read as a 2 x dim matrix, u_1 its top left singular vector
    from the eigenvectors of v v^dagger, and psi = conj(u_1) on span{e_k, e_l}, then the
    compass search on the Bloch angles of psi, in steps of pi/2 down to pi/64, with
    lambda_min of V^dagger B V from the dense V = conj(psi) (x) Id."""
    dim = f.ds * f.de
    b = pair_block_parts(f, k, l).T
    v = np.linalg.eigh(b)[1][:, 0].reshape(2, dim)
    u = np.linalg.eigh(v @ v.conj().T)[1][:, -1]

    def state(theta, phi):
        return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])

    def depth(theta, phi):
        vmat = np.kron(np.conj(state(theta, phi))[:, None], np.eye(dim))
        return np.linalg.eigvalsh(vmat.conj().T @ b @ vmat)[0]

    theta, phi = 2 * np.arccos(min(abs(u[0]), 1.0)), np.angle(u[0]) - np.angle(u[1])
    best = depth(theta, phi)
    for step in [np.pi / 2**j for j in range(1, 7)]:
        while True:
            trials = [(theta + step, phi), (theta, phi + step),
                      (theta - step, phi), (theta, phi - step)]
            depths = [depth(*t) for t in trials]
            j = int(np.argmin(depths))
            if depths[j] >= best:
                break
            (theta, phi), best = trials[j], depths[j]
    x = np.zeros(f.ds, dtype=np.complex128)
    x[k], x[l] = state(theta, phi)
    return np.outer(x, x.conj())


def witness_candidates_loops(f):
    """The canonical witness family, one member at a time: the Hermitian
    basis, then the seed of each pair k < l, in row-major order."""
    yield from hermitian_basis(f.ds)
    for k, l in combinations(range(f.ds), 2):
        yield pair_seed_loops(f, k, l)


def positivity_witness_search_loops(f):
    """The witness search with one ``apply_lifting`` and one ``eigvalsh`` per
    candidate, in canonical order."""
    return first_witness_loops(f, witness_candidates_loops(f))


def first_witness_loops(f, candidates):
    """:class:`ViolatesPositivity` at the first of the candidates whose trace-normalized image
    has an eigenvalue below -``tolerances.psd``, or None."""
    for x in candidates:
        state = x / np.trace(x).real
        w = apply_lifting(f, state)
        lam = float(np.linalg.eigvalsh((w + w.conj().T) / 2)[0])
        if lam < -tolerances.psd:
            return ViolatesPositivity(state, lam)
    return None


# The witness family as it was before the pair seeds: the basis, a grid of boundary mixtures
# per pair and seeded random densities, kept as the reference that the seeds are counted against.


def grid_witness_candidates_loops(ds: int):
    """The Hermitian basis, the boundary mixtures of each pair k < l at 40
    log-spaced u = 1 + t in [1e-3, 1 + 1e3], then 100 random densities seeded
    from 7, each Hermitized as (d + d^dagger)/2."""
    for g in hermitian_basis(ds):
        yield g
    us = np.logspace(np.log10(1e-3), np.log10(1.0 + 1e3), 40)
    for k in range(ds):
        for l in range(k + 1, ds):
            gkk = basis_g(k, k, ds)
            gll = basis_g(l, l, ds)
            gkl = basis_g(k, l, ds)
            gst = basis_g_star(k, l, ds)
            for u in us:
                t = u - 1.0
                p = 1.0 / u - 1.0
                yield gkl + t * gkk + p * gll
                yield gst + t * gkk + p * gll
    for child in spawn_seeds(7, 100):
        d = random_density(ds, seed=philox_rng(child))
        yield (d + d.conj().T) / 2


def grid_witness_search_loops(f):
    """The witness search over the grid-and-backstop family, one member at a time."""
    return first_witness_loops(f, grid_witness_candidates_loops(f.ds))


def psd_by_char_poly(a: np.ndarray, tol: float = 1e-9) -> bool:
    """PSD test from the characteristic polynomial of a Hermitian matrix.

    det(lambda I - A) = sum_k (-1)^k e_k lambda^(n-k) with e_k the sum of all
    k x k principal minors; the eigenvalues are all >= 0 iff every e_k >= 0.
    Intended for dim <= 4 (minor count grows combinatorially).
    """
    a = np.asarray(a)
    n = a.shape[0]
    scale = max(float(np.max(np.abs(a))), 1.0)
    for k in range(1, n + 1):
        e_k = 0.0
        for rows in combinations(range(n), k):
            sub = a[np.ix_(rows, rows)]
            e_k += np.linalg.det(sub).real
        if e_k < -tol * scale**k * 2**n:
            return False
    return True


def trace_norm_gram(a: np.ndarray) -> float:
    """Trace norm from the eigenvalues of A^dagger A (not via SVD)."""
    gram = a.conj().T @ a
    vals = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    return float(np.sum(np.sqrt(vals)))


def bell_projector() -> np.ndarray:
    """Projector onto (|00> + |11>)/sqrt(2) in the system-major indexing."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def components(w: np.ndarray, ds: int, de: int) -> np.ndarray:
    """Block decomposition C[k, l, i, j] = W[k*de + i, l*de + j]; exact (pure reindexing)."""
    return np.asarray(w).reshape(ds, de, ds, de).transpose(0, 2, 1, 3)


def reassemble(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`components`; exact (pure reindexing)."""
    ds, _, de, _ = c.shape
    return c.transpose(0, 2, 1, 3).reshape(ds * de, ds * de)


def adjoint_reduction(r) -> Lifting:
    """Adjoint of a reduction map by reindexing; inverts ``observables.adjoint_lifting`` exactly."""
    ds, dim = r.ds, r.ds * r.de
    return Lifting(ds, r.de, r.matrix.reshape(ds, ds, dim, dim).T.reshape(dim * dim, -1))


def screen_small_dense(screen) -> np.ndarray:
    """``_Screen.small`` with each pair's N = sum |g_kl[r, c]| ||M_rc|| read from the dense product
    of every |g_j| with the screen's column norms."""
    basis = screen.basis
    m, n = len(basis.members), screen.dim
    spread = np.abs(basis.members).reshape(m, m) @ screen.norms  # |g_j| is symmetric
    slack = np.finfo(float).eps * (4 * n**2 + m + 16) * (spread[basis.pairs[:, 2]] + screen.tol)
    return slack + 2 * screen.deviations[basis.pairs].sum(axis=1) <= screen.tol / 2


@lru_cache(maxsize=8)
def _scan_grid(resolution: float, t_max: float):
    # Boundary curve points, parametrized by t.  The uniform grid is
    # supplemented with log-dense refinements around t = 0 and around the
    # region corner 1 + t -> 0, where shallow violations concentrate.
    t_lin = np.arange(-1.0 + resolution, 2.0 + resolution, resolution)
    t_pos = np.logspace(-10, np.log10(t_max), 260)
    t_neg = -np.logspace(-10, 0, 220)[:-1]
    u_small = np.logspace(-10, np.log10(resolution), 150)
    t = np.concatenate([t_lin, t_pos, t_neg, u_small - 1.0])
    u = 1.0 + t
    p = 1.0 / u - 1.0
    # sparse interior offsets; the constraint is monotone in p there
    t_sub = t[::8]
    p_sub = 1.0 / (1.0 + t_sub) - 1.0
    t_all = [t]
    p_all = [p]
    for dp in (resolution, 1.0, 10.0):
        t_all.append(t_sub)
        p_all.append(p_sub + dp)
    return np.concatenate(t_all), np.concatenate(p_all)


def diag_mixing_positive_scan(
    a: float,
    b: float,
    c: float,
    resolution: float = 1e-3,
    t_max: float = 1e3,
) -> bool:
    """Grid oracle for :func:`diag_mixing_positive`.

    Evaluates the defining inequalities on a dense sample of the region
    (boundary curve included) and reports whether they hold everywhere, up to
    a float rounding margin proportional to the evaluated magnitudes.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if v < 0:
            raise ConstraintViolation(f"{name} must be nonnegative, got {v}")
    t, p = _scan_grid(resolution, t_max)
    left = b + a * t
    right = b + c * p
    eps = np.finfo(float).eps
    lin_margin = 64 * eps * (abs(b) + np.abs(a * t))
    if np.any(left < -lin_margin):
        return False
    prod_margin = 64 * eps * (np.abs(left) * np.abs(right) + b * b)
    return not np.any(left * right - b * b < -prod_margin)


def draw_one_shot(sampler, n: int) -> np.ndarray:
    """All n Gaussian rows z = M g from a single standard_normal call."""
    parts = philox_rng(sampler.seed).standard_normal((n, sampler.dim, 2))
    g = np.sqrt(0.5) * (parts[..., 0] + 1j * parts[..., 1])
    return g @ sampler.factor.T


def estimate_expectation_einsum(b: np.ndarray, a: np.ndarray, n: int, seed) -> tuple:
    """(estimate, stderr, self_normalized, per-sample values <z,Az>/|z|^2) from
    the whole draw at once and a three-index einsum."""
    z = draw_one_shot(gaussian_sampler(b, seed), n)
    values = np.einsum("ni,ij,nj->n", z.conj(), np.asarray(a, dtype=np.complex128), z).real
    norms_sq = np.einsum("ni,ni->n", z.conj(), z).real
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return float(values.mean()), stderr, float(values.sum() / norms_sq.sum()), values / norms_sq


def empirical_state_dense(b: np.ndarray, n: int, seed) -> np.ndarray:
    """(1/n) sum_i z_i z_i^dagger over the whole draw in one GEMM, unit trace."""
    z = draw_one_shot(gaussian_sampler(b, seed), n)
    w = (z.T @ z.conj()) / n
    return w / np.trace(w).real


def file_text_per_entry(header, entries) -> str:
    """The text of a statelift file: the header lines, then one line per
    entry, ``re im`` for a complex entry, each number by ``str.format``."""
    lines = list(header)
    for z in entries:
        if np.iscomplexobj(z):
            lines.append(f"{'{:.17g}'.format(z.real)} {'{:.17g}'.format(z.imag)}")
        else:
            lines.append("{:.17g}".format(z))
    return "\n".join(lines) + "\n"


# kind: the size field, its value count, the entry count it gives, numbers per entry
FILE_KINDS = {
    "matrix": ("dim", 1, lambda dim: dim * dim, 2),
    "vector": ("dim", 1, lambda dim: dim, 2),
    "lifting": ("dims", 2, lambda ds, de: (ds * de) ** 2 * ds * ds, 2),
    "reduction": ("dims", 2, lambda ds, de: ds * ds * (ds * de) ** 2, 2),
    "measure": ("support", 1, lambda support: support, 1),
    "measure2": ("shape", 2, lambda nq, np_: nq * np_, 1),
    "table": ("shape", 2, lambda nq, np_: nq * nq * np_, 1),
}


def read_file_per_line(path, kind: str):
    """The size values and the float64 entries, shape (n, numbers per entry),
    of a ``statelift/<kind> v1`` file, read from its list of non-blank
    stripped lines one line at a time with float().  A bad file raises the
    FormatError the library's reader raises, naming the first bad line."""
    name, count, size, per_line = FILE_KINDS[kind]
    with open(path) as handle:
        lines = iter([ln for ln in map(str.strip, handle) if ln])

    def take(what):
        line = next(lines, None)
        if line is None:
            raise FormatError(f"{path}: unexpected end of file, expected {what}")
        return line

    header = take(f"header 'statelift/{kind} v1'")
    if header != f"statelift/{kind} v1":
        raise FormatError(f"{path}: bad header {header!r}, expected statelift/{kind} v1")
    parts = take(f"field '{name}'").split()
    if parts[0] != name or len(parts) != count + 1:
        raise FormatError(f"{path}: expected '{name}' with {count} value(s)")
    try:
        values = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer in field '{name}'") from exc
    if min(values) < 1:
        raise FormatError(f"{path}: {name} must be positive")
    n = size(*values)
    entries = []
    for i in range(1, n + 1):
        line = take(f"entry {i}/{n}")
        parts = line.split() if per_line == 2 else [line]
        if len(parts) != per_line:
            raise FormatError(f"{path}: entry {i} is not a 're im' pair")
        try:
            entries += [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric entry {i}") from exc
    if next(lines, None) is not None:
        raise FormatError(f"{path}: trailing data after entry list")
    return values, np.array(entries, dtype=np.float64).reshape(n, per_line)
